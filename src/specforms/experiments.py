"""Seeded experiment drivers with reproducible pass/fail reports.

Every driver takes an ExperimentConfig, runs a deterministic battery
keyed by the config seed, and returns its checks, one row per named check
(value, bound, comparison, pass/fail), and its curve data; it writes no
file. `run` times the driver and builds the RunReport, and the CLI writes
it. Serialized reports are byte-identical across runs of the same config
once the volatile keys are stripped.

selftest's separable battery runs seed by seed on a pool as wide as the
machine (thread_count), its results assembled in seed order. Every other
battery is one stacked call over the stacks of one instances._draw, the
integral-Taylor battery one per exponent.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .divided import DividedDifference
from .errors import ValidationError
from .forms import (
    DEFAULT_T_GRID,
    FrechetForm,
    _expansion_exponent,
    _t_grid,
    delta_symmetric,
    holder_difference_norms,
    taylor_expand,
    taylor_integral_form,
    trace_identity_residual,
)
from .functions import Monomial, Polynomial, PowerAbs
from .instances import PROFILES, SplitMix64, _draw, generate_instance
from .moi import (
    MoiRequest,
    SeparableSymbol,
    algebraic_shift,
    moi_binned,
    moi_exact,
    moi_separable,
    perturbation_identity,
)
from .momenta import MomentumSpec
from .spectral import HermitianMatrix, SchattenExponent, eigendecompose
from .util import (
    QUAD_TOL,
    as_sequence,
    canonical_json,
    fit_loglog_slope,
    frobenius,
    instance_of,
    real_number,
    whole_number,
)

DEFAULT_N_GRID = (32, 64, 128, 256, 512)

# The one table of check tolerances, which no run overrides: every check row
# quotes its own bound. quad_tol is the library's quadrature default, which
# every driver runs at.
DEFAULT_TOLERANCES = {
    "quad_tol": QUAD_TOL,
    "oracle_rel": 1e-5,
    "oracle_abs": 5e-5,
    "slope_margin": 0.1,
    "singular_slope_window": 0.15,
    "trace_identity": 1e-7,
    "perturbation_poly": 1e-12,
    "perturbation_power": 1e-6,
    "integral_taylor": 1e-6,
    "separable_cross": 1e-10,
    "algebraic_shift": 1e-10,
    "binned_rate_window": 0.35,
    "hand_case": 1e-12,
    "max_curve_nonincreasing": 1e-12,
    "on_grid_exact": 1e-14,
    "constant_symbol": 1e-12,
}

# Fixed stride separating auxiliary draws (tails, endpoints) from the
# main (H, V) stream of a seed; any large odd constant works, this one
# is pinned for reproducibility.
SEED_STRIDE = 104729


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment run.

    The fields and their defaults are the one list of driver settings: the
    CLI stores each flag into the field of the same name and leaves every
    flag not given to the default here, and a report echoes every field
    but the output ones (out_dir, fmt), and none is read from the
    environment. Nothing a run can derive is a setting: derivative's order
    is the number of direction files, every driver runs at util.QUAD_TOL
    against DEFAULT_TOLERANCES, and the pool is as wide as the machine.

    p lies in (1, 8]; selftest, taylor-scan and holder-scan build the orders
    up to m = ceil(p) - 1 and so refuse p > 4 (forms._expansion_exponent).
    t_grid, n_grid and dir_paths are sequences: one string is refused, not
    read character by character. t_grid follows forms._t_grid. A grid of
    fewer than two distinct values fits no slope and is refused up front.
    """

    mode: str
    seed: int = 1
    dim: int = 4
    p: float = 2.5
    profile: str = "generic"
    t_grid: tuple = DEFAULT_T_GRID
    n_grid: tuple = DEFAULT_N_GRID
    matrix_path: str = ""
    dir_paths: tuple = ()
    out_dir: str = ""
    fmt: str = "json"

    def __post_init__(self):
        for name in ("mode", "profile", "matrix_path", "out_dir", "fmt"):
            instance_of(getattr(self, name), str, name)
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}; choose from {MODES}")
        object.__setattr__(self, "seed", whole_number(self.seed, "seed"))
        object.__setattr__(self, "dim", whole_number(self.dim, "dim"))
        object.__setattr__(self, "p", real_number(self.p, "p"))
        if not 2 <= self.dim <= 64:
            raise ValidationError(f"dim must lie in [2, 64], got {self.dim}")
        if not 1.0 < self.p <= 8.0:
            raise ValidationError(f"p must lie in (1, 8], got {self.p}")
        if self.mode in ("selftest", "taylor-scan", "holder-scan"):
            _expansion_exponent(self.p)
        if self.profile not in PROFILES:
            raise ValidationError(f"unknown profile {self.profile!r}; choose from {PROFILES}")
        for field, items in (("t_grid", "numbers"), ("n_grid", "numbers"), ("dir_paths", "paths")):
            value = getattr(self, field)
            if isinstance(value, str):
                raise ValidationError(
                    f"{field} must be a sequence of {items}, got the string {value!r}"
                )
        object.__setattr__(self, "t_grid", _t_grid(self.t_grid))
        n_grid = tuple(whole_number(n, "n grid entry") for n in as_sequence(self.n_grid, "n_grid"))
        if not n_grid or any(n < 1 for n in n_grid) or list(n_grid) != sorted(set(n_grid)):
            raise ValidationError("n grid must be nonempty, positive, strictly increasing")
        object.__setattr__(self, "n_grid", n_grid)
        if len(set(self.t_grid)) < 2 or len(n_grid) < 2:
            raise ValidationError("slope fit needs at least two distinct x values")
        dir_paths = tuple(map(str, as_sequence(self.dir_paths, "dir_paths")))
        object.__setattr__(self, "dir_paths", dir_paths)
        if self.fmt not in ("json", "csv"):
            raise ValidationError(f"format must be json or csv, got {self.fmt!r}")
        if self.out_dir and os.path.exists(self.out_dir) and not os.path.isdir(self.out_dir):
            raise ValidationError(f"out_dir {self.out_dir!r} exists and is not a directory")

    def echo(self):
        """The config fields a report embeds: all but out_dir and fmt."""
        echo = asdict(self)
        del echo["out_dir"], echo["fmt"]
        return echo


# Each check op: its test of a value against a bound, and the forms in which
# a row records the value and the bound.
_CHECK_OPS = {
    "<=": (lambda value, bound: value <= bound, float, float),
    ">=": (lambda value, bound: value >= bound, float, float),
    "in": (
        lambda value, bound: bound[0] <= value <= bound[1],
        float,
        lambda bound: [float(bound[0]), float(bound[1])],
    ),
    "true": (lambda value, bound: bool(value), bool, lambda bound: None),
}


class CheckSet:
    """Ordered, uniquely named pass/fail rows."""

    def __init__(self):
        self.rows = []
        self._names = set()

    def add(self, name, value, op, bound):
        """Record one row; a duplicate name or an unknown op raises
        ValidationError and records nothing."""
        if name in self._names:
            raise ValidationError(f"duplicate check name {name!r}")
        if op not in _CHECK_OPS:
            raise ValidationError(f"unknown check op {op!r}")
        passes, as_value, as_bound = _CHECK_OPS[op]
        self.rows.append(
            {
                "name": name,
                "value": as_value(value),
                "bound": as_bound(bound),
                "op": op,
                "passed": bool(passes(value, bound)),
            }
        )
        self._names.add(name)

    @property
    def all_passed(self):
        return all(row["passed"] for row in self.rows)


@dataclass
class RunReport:
    """Outcome of one driver run, built by `run`."""

    mode: str
    config: dict
    checks: list
    passed: bool
    data: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def to_json(self, drop_volatile=False):
        # The fields as they are: asdict would deep-copy every row first.
        return canonical_json(vars(self), drop_volatile=drop_volatile)

    def to_csv(self):
        lines = ["name,value,bound,op,passed"]
        for row in self.checks:
            bound = row["bound"]
            if isinstance(bound, list):
                bound = f"{bound[0]!r}..{bound[1]!r}"
            lines.append(
                f"{row['name']},{row['value']!r},{bound!r},{row['op']},{row['passed']}"
            )
        return "\n".join(lines) + "\n"

    def save(self, out_dir, fmt="json"):
        """Write the report to out_dir/<mode>_report.<fmt>; returns the path."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{self.mode.replace('-', '_')}_report.{fmt}")
        with open(path, "w") as fh:
            fh.write(self.to_csv() if fmt == "csv" else self.to_json())
        return path


def thread_count():
    """The worker pool's width: the machine's cores, at most 8."""
    return min(8, os.cpu_count() or 1)


def _map_ordered(fn, items):
    """fn over items, parallel when allowed, results in input order."""
    items = list(items)
    workers = thread_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _stream_stacks(seeds, streams, dim, profile, p):
    """Stream j = 0..streams-1 of every seed as stacks over the seeds: one
    (decomposition of the H's, array (S, n, n) of the V's) pair per stream,
    stream j of a seed being the instance of seed + j * SEED_STRIDE. All
    streams are one stacked draw, stream-major, whose H stack goes to one
    eigendecompose call as drawn."""
    count = len(seeds)
    stream_seeds = [seed + SEED_STRIDE * j for j in range(streams) for seed in seeds]
    hs, vs = _draw(stream_seeds, dim, profile, p)
    whole = eigendecompose(hs)
    return [
        (whole[j * count : (j + 1) * count], vs.matrix[j * count : (j + 1) * count])
        for j in range(streams)
    ]


def load_matrix(path):
    """Read a Hermitian matrix from its JSON file format. A file that cannot
    be read as one raises ValidationError naming the path."""
    try:
        with open(path) as fh:
            return HermitianMatrix.from_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read matrix file {path!r}: {exc}") from exc


def run_derivative(config):
    """Evaluate delta^(k) at a matrix from disk along supplied directions,
    k the number of direction files."""
    if not config.matrix_path:
        raise ValidationError("derivative mode needs a base matrix file")
    if not config.dir_paths:
        raise ValidationError("derivative mode needs at least one direction file")
    h = load_matrix(config.matrix_path)
    dirs = [load_matrix(path).matrix for path in config.dir_paths]
    k = len(dirs)
    form = FrechetForm(base=eigendecompose(h), exponent=SchattenExponent(config.p), order=k)
    value = delta_symmetric(form, dirs)
    checks = CheckSet()
    checks.add("value_finite", bool(np.isfinite(value)), "true", None)
    data = {"value": value, "p": config.p, "order": k}
    return checks, data


def run_taylor_scan(config):
    """Taylor remainder scan for one seeded instance."""
    tol = DEFAULT_TOLERANCES
    h, v = generate_instance(config.seed, config.dim, config.profile, config.p)
    report = taylor_expand(h.matrix, v.matrix, config.p, t_grid=np.asarray(config.t_grid))
    checks = CheckSet()
    checks.add(
        "remainder_finite",
        bool(np.all(np.isfinite(report.remainder))),
        "true",
        None,
    )
    if config.profile == "singular":
        window = tol["singular_slope_window"]
        checks.add(
            "slope_window",
            report.slope,
            "in",
            (config.p - window, config.p + window),
        )
    else:
        checks.add("slope_floor", report.slope, ">=", config.p - tol["slope_margin"])
    for entry in report.oracle:
        bound = max(tol["oracle_rel"] * abs(entry["fd"]), tol["oracle_abs"])
        checks.add(f"oracle_k{entry['k']}", entry["abs_diff"], "<=", bound)
    return checks, {"taylor": report.to_dict()}


def run_moi_convergence(config):
    """Spectral-bin convergence of the operator integral, 10 seeds."""
    tol = DEFAULT_TOLERANCES
    n_grid = config.n_grid
    symbol = DividedDifference(PowerAbs(config.p), 1)

    # All seeds as one stacked integral per grid size, and one exact one.
    seeds = list(range(config.seed, config.seed + 10))
    ((dec, v),) = _stream_stacks(seeds, 1, config.dim, "generic", config.p)
    req = MoiRequest((dec, dec), (v,), symbol)
    exact = moi_exact(req)
    errors = [[frobenius(e) for e in moi_binned(req, n) - exact] for n in n_grid]
    curves = [list(curve) for curve in zip(*errors)]
    max_curve = np.max(np.asarray(curves), axis=0)

    checks = CheckSet()
    checks.add(
        "max_curve_nonincreasing",
        float(np.max(np.diff(max_curve))),
        "<=",
        tol["max_curve_nonincreasing"],
    )
    window = tol["binned_rate_window"]
    checks.add(
        "rate",
        fit_loglog_slope(np.asarray(n_grid, dtype=float), max_curve),
        "in",
        (-1.0 - window, -1.0 + window),
    )

    hand = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    hand_req = MoiRequest((hand, hand), (x,), DividedDifference(Monomial(2), 1))
    checks.add(
        "on_grid_exact",
        frobenius(moi_binned(hand_req, 2) - moi_exact(hand_req)),
        "<=",
        tol["on_grid_exact"],
    )
    constant = SeparableSymbol(((0.75, (Polynomial([1.0]), Polynomial([1.0]))),))
    const_req = MoiRequest((hand, hand), (x,), constant)
    checks.add(
        "constant_symbol",
        max(frobenius(moi_binned(const_req, n) - 0.75 * x) for n in (1, 7, 32, 501)),
        "<=",
        tol["constant_symbol"],
    )
    data = {
        "n_grid": list(n_grid),
        "curves": [[float(e) for e in curve] for curve in curves],
        "max_curve": [float(e) for e in max_curve],
    }
    return checks, data


def run_holder_scan(config):
    """Fractional smoothness of A -> T^{A, tail}(V...), 10 singular seeds."""
    tol = DEFAULT_TOLERANCES
    exponent = SchattenExponent(config.p)
    m = exponent.m
    alpha = exponent.holder_alpha
    g = PowerAbs(config.p).derivative_model(1)
    t_grid = np.asarray(config.t_grid)

    # Singular tails put a node of the symbol at the kink of the kernel,
    # so the observed exponent saturates at alpha instead of overshooting.
    # All seeds are one stacked call; a zero direction gives a NaN row.
    seeds = list(range(config.seed, config.seed + 10))
    (b, w), *tails = _stream_stacks(seeds, m, config.dim, "singular", config.p)
    norms = holder_difference_norms(
        g, b, w, [th for th, _ in tails], [tv for _, tv in tails], t_grid, config.p
    )
    checks = CheckSet()
    slopes = []
    for seed, row in zip(seeds, norms):
        usable = row > 1e-12
        if np.count_nonzero(usable) < 2:
            slopes.append(float("nan"))
            checks.add(f"degenerate_seed{seed}", True, "true", None)
        else:
            slopes.append(fit_loglog_slope(t_grid[usable], row[usable]))
            checks.add(f"slope_seed{seed}", slopes[-1], ">=", alpha - tol["slope_margin"])
    data = {"alpha": alpha, "m": m, "slopes": slopes, "t_grid": list(config.t_grid)}
    return checks, data


_PERTURBATION_POLY = Polynomial((0.25, -1.0, 0.5, 2.0))


def _perturbation_battery(seeds, dim, p, m):
    """(A, B, tails, perturbations) of the order-m battery, m <= 2, each a
    stack over the seeds: streams 0 and 1 give A and B and the
    perturbations, streams 2..m+1 the tails. A, B and the tails are
    decompositions, all of them from one stacked call."""
    (a, va), (b, vb), *tails = _stream_stacks(seeds, m + 2, dim, "generic", p)
    return a, b, [h for h, _ in tails], [va, vb][:m]


def _perturbation_residuals(config, seeds, m):
    """Worst perturbation-identity residuals at order m over the seeds:
    (cubic polynomial kernel, |x|^(m + 1.5) kernel), each from one stacked
    call over all the seeds."""
    p_m = m + 1.5
    battery = _perturbation_battery(seeds, config.dim, p_m, m)
    return tuple(
        perturbation_identity(MomentumSpec.from_divided_difference(model, m), *battery).max()
        for model in (_PERTURBATION_POLY, PowerAbs(p_m))
    )


def run_perturbation_check(config):
    """First-variable perturbation identity, 20 seeds, orders m = 1, 2."""
    tol = DEFAULT_TOLERANCES
    seeds = list(range(config.seed, config.seed + 20))
    checks = CheckSet()
    for m in (1, 2):
        poly, power = _perturbation_residuals(config, seeds, m)
        checks.add(f"poly_m{m}_max_residual", poly, "<=", tol["perturbation_poly"])
        checks.add(f"power_m{m}_max_residual", power, "<=", tol["perturbation_power"])

    # By-hand anchor: f(x) = x^2, m = 1 — both sides reduce to (A - B)V.
    (hand,) = perturbation_identity(
        MomentumSpec.from_divided_difference(Monomial(2), 1),
        *_perturbation_battery([config.seed], config.dim, 2.0, 1),
    )
    checks.add("hand_quadratic_residual", hand, "<=", tol["hand_case"])
    return checks, {}


def _selftest_ps(p):
    ps = [2.5, 3.5]
    if p not in ps:
        ps.append(p)
    return ps


def run_selftest(config):
    """Fixed identity battery: every cross-check the library asserts."""
    tol = DEFAULT_TOLERANCES
    checks = CheckSet()
    seeds = list(range(config.seed, config.seed + 10))
    short = seeds[:3]
    mid = seeds[:5]

    # Trace identity across the battery exponents: one form of order m over
    # the seeds' stack, one call for every order; the worst of orders 2..m.
    for p in _selftest_ps(config.p):
        exponent = SchattenExponent(p)
        if exponent.m < 2:
            continue
        ((dec, v),) = _stream_stacks(seeds, 1, config.dim, "generic", p)
        residuals = trace_identity_residual(FrechetForm(dec, exponent, order=exponent.m), v)
        checks.add(f"trace_identity_p{p:g}", residuals[:, 1:].max(), "<=", tol["trace_identity"])

    # Hand-checkable trace identity: H = diag(0, 1), f = x^3, order 2.
    hand_form = FrechetForm(
        base=eigendecompose(np.diag([0.0, 1.0]).astype(complex)),
        exponent=SchattenExponent(3.0),
        order=2,
        model=Monomial(3),
    )
    hand_v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    checks.add(
        "hand_trace_identity", trace_identity_residual(hand_form, hand_v)[1], "<=", tol["hand_case"]
    )

    # Monomial-shift identity on random order-2 integrals, one stacked call
    # over the seeds; the separable battery takes its members.
    (dec, v), (dec2, v2) = _stream_stacks(mid, 2, config.dim, "generic", 2.5)
    lhs, rhs = algebraic_shift(
        MoiRequest((dec, dec2, dec), (v, v2), DividedDifference(PowerAbs(2.5), 2)), (1, 2, 0)
    )
    checks.add(
        "algebraic_shift_max",
        np.max([frobenius(d) for d in lhs - rhs]),
        "<=",
        tol["algebraic_shift"],
    )

    # Separable symbols against the dense tensor path.
    def one_separable(i):
        # Three terms of a weight and three quadratics, one block draw: the
        # normals of 30 normal() calls in turn.
        draws = SplitMix64(mid[i] * 2 + 1).normals(30).reshape(3, 10)
        sym = SeparableSymbol(
            tuple(
                (x[0], tuple(Polynomial([a, b, 0.5 * c]) for a, b, c in x[1:].reshape(3, 3)))
                for x in draws
            )
        )
        decs = (dec[i], dec2[i], dec[i])
        perts = (v[i], v2[i])
        product = moi_separable(sym, decs, perts)
        dense = moi_exact(MoiRequest(decs, perts, sym))
        return frobenius(product - dense)

    checks.add(
        "separable_cross_max",
        np.max(_map_ordered(one_separable, range(len(mid)))),
        "<=",
        tol["separable_cross"],
    )

    # Integral Taylor formula at small perturbations, d = 3: one stacked
    # call over the seeds' segments per exponent.
    for p in _selftest_ps(config.p):
        h0, v = _draw(short, 3, "generic", p)
        steps = 0.3 * v.matrix / np.array([frobenius(x) for x in v.matrix])[:, None, None]
        lhs, rhs = taylor_integral_form(h0.matrix, h0.matrix + steps, p)
        checks.add(
            f"integral_taylor_p{p:g}",
            np.abs(lhs - rhs).max(),
            "<=",
            tol["integral_taylor"],
        )

    # Perturbation identity, both kernel families.
    for m in (1, 2):
        poly, power = _perturbation_residuals(config, short, m)
        checks.add(f"perturbation_poly_m{m}", poly, "<=", tol["perturbation_poly"])
        checks.add(f"perturbation_power_m{m}", power, "<=", tol["perturbation_power"])

    return checks, {}


_DRIVERS = {
    "derivative": run_derivative,
    "taylor-scan": run_taylor_scan,
    "moi-convergence": run_moi_convergence,
    "holder-scan": run_holder_scan,
    "perturbation-check": run_perturbation_check,
    "selftest": run_selftest,
}
MODES = tuple(_DRIVERS)


def run(config):
    """The report of a config's mode: the checks and data its `_DRIVERS`
    entry returns, and the wall clock of that call."""
    started = time.perf_counter()
    checks, data = _DRIVERS[config.mode](config)
    return RunReport(
        mode=config.mode,
        config=config.echo(),
        checks=checks.rows,
        passed=checks.all_passed,
        data=data,
        wall_clock_s=time.perf_counter() - started,
    )
