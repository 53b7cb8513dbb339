"""Derivative forms of tr f(H) and Taylor expansions of Schatten powers.

The k-th directional derivative of t -> tr f(H + tV) factors through
operator integrals with reduced divided-difference symbols,

    (1/k) tr(V_1 T_{g^[k-1]}(V_2, ..., V_k)),   g = f',

where the integral of order 0 is g(H) itself. Symmetrized over arguments
these are the polylinear forms whose diagonal values build the Taylor
polynomial of ||H + tV||_p^p; the leftover remainder carries the
p-dependent fractional decay order. A bracket of distinct complex
Hermitian directions is complex at order 3; only its symmetrization is
real, so that is where the symmetrized form checks the reality of the
trace: delta_symmetric stacks the k! argument orders into one bracket
call and checks their sum. Along one repeated direction the orders are
all the same, so delta^(k)(V, .., V) is the bracket itself; taylor_expand
and the trace identity take those of orders 1..k from g(H) and the blocks
of one recurrence. The brackets, their symmetrization, the trace
identity, the integral Taylor remainder and the Hoelder differences all
build their integrals through one helper, _divided_integral.

The trace identity checks every order up to its form's in one call. It
and the Hoelder differences also check a stack of S instances in one
call (a stacked base decomposition, stacked directions, tails and
perturbations), their bits those of the S one-instance calls.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .divided import DividedDifference
from .errors import UnsupportedConfigError, ValidationError
from .functions import PowerAbs, as_kernel
from .moi import MAX_ORDER, MoiRequest, _along, _integral, _prepared_slots, moi_exact
from .spectral import (
    HermitianMatrix,
    SchattenExponent,
    SpectralDecomposition,
    WORKING_INTERVAL,
    _check_finite,
    _check_hermitian,
    _symmetrized,
    apply_scalar_function,
    eigendecompose,
    schatten_norm,
)
from .util import (
    QUAD_TOL,
    as_complex_matrices,
    as_complex_matrix,
    as_sequence,
    check_within,
    checked_tol,
    fit_loglog_slope,
    gauss01,
    instance_of,
    kronrod01,
    lp_norms,
    operator_norm,
    real_number,
    real_trace,
    real_value,
    whole_number,
)

# The t grid of taylor_expand and of the taylor-scan and holder-scan drivers.
DEFAULT_T_GRID = tuple(float(t) for t in np.logspace(-4, -1, 13))
REMAINDER_FLOOR = 1e-12
FD_SAFE_GAP = 0.05


def _t_grid(t_grid):
    """t_grid as a tuple of floats; a ValidationError unless it is one
    nonempty row of finite positive numbers, the t-grid rule of
    ExperimentConfig, taylor_expand and holder_difference_norms."""
    row = np.asarray(t_grid, dtype=object)
    t = tuple(real_number(x, "t grid entry") for x in row.tolist()) if row.ndim == 1 else ()
    if not t or not all(math.isfinite(x) and x > 0.0 for x in t):
        raise ValidationError("t grid must be nonempty, finite and positive")
    return t


def _decomposed(base, what):
    """base if it is a decomposition, else that of the matrix or stack
    base, checked Hermitian under the name `what` and not again."""
    if isinstance(base, SpectralDecomposition):
        return base
    return eigendecompose(_symmetrized(_check_hermitian(base, what)))


def _expansion_exponent(p):
    """SchattenExponent(p), unless its Taylor degree m = ceil(p) - 1 exceeds
    moi.MAX_ORDER (p > 4): then UnsupportedConfigError."""
    exponent = SchattenExponent(p)
    if exponent.m > MAX_ORDER:
        raise UnsupportedConfigError(
            f"p={exponent.p} needs derivative order {exponent.m}: unsupported above {MAX_ORDER}"
        )
    return exponent


def _matching(a, b, what, other):
    """a, unless its shape differs from b's: then a ValidationError naming
    both."""
    if a.shape != b.shape:
        raise ValidationError(f"{what} has shape {a.shape}, {other} has {b.shape}")
    return a


def _check_unit_ball(lams, p):
    """Raise unless the spectrum lams, or each spectrum of a stack (S, n),
    has l^p norm <= 1 (1e-9 slack)."""
    for norm in lp_norms(np.atleast_2d(lams), p):
        if not norm <= 1.0 + 1e-9:
            raise ValidationError(f"base point must satisfy ||H||_p <= 1, got {norm:.6f}")


def _divided_integral(g, decompositions, perturbations, quad_tol, blocks=None):
    """T^{(H_0..H_j)}_{g^[j]}(V_1..V_j) with j = len(perturbations).

    At j = 0 this is g(H_0). The first decomposition and the perturbations
    may be stacks, as in MoiRequest; the result is then the stack of values.
    The caller has checked the slots as moi._prepared_slots would, the tol
    and j <= MAX_ORDER. With blocks, moi._integral's tuple of blocks returns.
    """
    if not perturbations:
        return apply_scalar_function(g, decompositions[0]).matrix
    symbol = DividedDifference(g, len(perturbations))
    request = MoiRequest._prepared(decompositions, perturbations, symbol, quad_tol)
    if blocks is None:
        return moi_exact(request)
    return _integral(request, [d.eigenvalues for d in request.decompositions], blocks)


def _bracket_value(v, integral, k):
    """(1/k) tr(v integral), checked real, or the complex array of a stack."""
    traces = np.trace(v @ integral, axis1=-2, axis2=-1)
    if traces.ndim == 0:
        return real_value(traces) / k
    # Real and imaginary parts divided apart: a complex division by k
    # multiplies by 1/k, which differs from it in the last bit.
    brackets = np.empty_like(traces)
    brackets.real, brackets.imag = traces.real / k, traces.imag / k
    return brackets


def _diagonal_deltas(g, decomposition, v, m, quad_tol):
    """delta^(1..m)(V, .., V) of the model whose derivative is g, on slots
    checked for _divided_integral: the brackets of g(H) and of the blocks
    (0, 1)..(0, m-1) of one recurrence, with model_delta_bracket's bits."""
    integrals = [_divided_integral(g, (decomposition,), (), quad_tol)]
    if m > 1:
        blocks = tuple((0, j) for j in range(1, m))
        integrals += _divided_integral(g, (decomposition,) * m, (v,) * (m - 1), quad_tol, blocks)
    return [_bracket_value(v, x, k) for k, x in enumerate(integrals, start=1)]


def model_delta_bracket(decomposition, model, directions, quad_tol=QUAD_TOL):
    """Unsymmetrized k-linear derivative form of tr f(H) for a scalar model.

    directions is the list (V_1, ..., V_k); the value is
    (1/k) tr(V_1 T_{g^[k-1]}(V_2..V_k)) with g = f', which is tr(V_1 g(H))
    at k = 1. This is the model-level route; it accepts any model smooth
    enough to supply the needed derivative kernel.

    One bracket is returned as a float, its trace checked real. For
    Hermitian directions that holds at k <= 2 and for equal directions,
    but at k = 3 the bracket of distinct complex directions is complex
    (those of (V_1, V_2, V_3) and (V_1, V_3, V_2) are conjugates), so it
    raises ValidationError; only sums over argument orders, such as
    delta_symmetric, are real there. Any direction may instead be a
    stack (B, n, n): the value is then the complex array of the B brackets,
    unchecked, for the caller to combine and check. A direction that is not
    n x n, n the base's dimension, or has a non-finite entry raises
    ValidationError naming it ("direction j"), as does a non-Hermitian base,
    and so do stacks of different lengths (a stacked base's among them).
    """
    decomposition = _decomposed(decomposition, "base")
    quad_tol, n = checked_tol(quad_tol), decomposition.dim
    vs, lengths = [], {decomposition.stack} - {None}
    for j, v in enumerate(as_sequence(directions, "directions")):
        v = as_complex_matrices(v, f"direction {j}")
        if v.shape[-2:] != (n, n):
            raise ValidationError(f"direction {j} has shape {v.shape}, the base is {n} x {n}")
        vs.append(_check_finite(v, f"direction {j}"))
        lengths |= {len(v)} if v.ndim == 3 else set()
    if len(lengths) > 1:
        raise ValidationError(f"stacks differ in length: {sorted(lengths)}")
    k = len(vs)
    if not 1 <= k <= MAX_ORDER:
        raise UnsupportedConfigError(f"form order {k} outside 1..{MAX_ORDER}")
    g = as_kernel(model).derivative_model(1)
    return _bracket_value(vs[0], _divided_integral(g, (decomposition,) * k, vs[1:], quad_tol), k)


@dataclass(frozen=True)
class FrechetForm:
    """One derivative form of ||H||_p^p: base point, exponent, and order.

    The default scalar model is |x|^p, for which only orders k <= m make
    sense (residual smoothness of |x|^p is p - m). Supplying a smoother
    model (a polynomial, say) lifts that ceiling to the model's own
    derivative count, still capped at moi.MAX_ORDER (3). An order outside
    that range raises UnsupportedConfigError. delta_symmetric works at
    this order, and trace_identity_residual at every order up to it.

    The base may be a stacked decomposition of S points, each checked
    against the working interval and the unit ball on its own; the trace
    identity then checks the S points in one call, and delta_symmetric
    rejects it.
    """

    base: SpectralDecomposition
    exponent: SchattenExponent
    order: int = 1
    quad_tol: float = QUAD_TOL
    model: object = field(default=None, repr=False)

    def __post_init__(self):
        dec = _decomposed(self.base, "base")
        object.__setattr__(self, "base", dec)
        exp = self.exponent
        if not isinstance(exp, SchattenExponent):
            exp = SchattenExponent(exp)
        object.__setattr__(self, "exponent", exp)
        object.__setattr__(self, "order", whole_number(self.order, "form order"))
        object.__setattr__(self, "quad_tol", checked_tol(self.quad_tol))
        check_within(dec.eigenvalues, WORKING_INTERVAL, "base spectrum")
        _check_unit_ball(dec.eigenvalues, exp.p)
        if self.model is None:
            object.__setattr__(self, "model", PowerAbs(exp.p))
            limit = min(exp.m, MAX_ORDER)
        else:
            object.__setattr__(self, "model", as_kernel(self.model))
            limit = min(self.model.max_order, MAX_ORDER)
        if not 1 <= self.order <= limit:
            raise UnsupportedConfigError(
                f"derivative order {self.order} not available for p={exp.p} "
                f"(orders 1..{limit})"
            )


def delta_symmetric(form, directions):
    """delta^(k): average of delta^[k] over all argument permutations.

    Along one repeated direction every order is the same, and
    delta^(k)(V, .., V) is the bracket of [V] * k itself, as taylor_expand
    takes it. Otherwise the k! orders are stacked slot by slot, so that one
    bracket call, and one integral, serves them all. The complex brackets
    are summed and the sum is checked real once: single brackets of
    distinct complex directions are complex at order 3. The base must be one
    matrix, and the directions k Hermitian matrices of its shape.
    """
    instance_of(form, FrechetForm, "form")
    if form.base.stack is not None:
        raise ValidationError("the forms of a stacked base are taken member by member")
    raw, vs = as_sequence(directions, "directions"), []
    for j, v in enumerate(raw):  # an object passed again is checked once, at its first index
        same = [vs[i] for i in range(j) if raw[i] is v]
        vs.append(same[0] if same else _check_hermitian(v, f"direction {j}"))
    k, d = form.order, form.base.dim
    if len(vs) != k:
        raise ValidationError(f"form of order {k} takes {k} directions, got {len(vs)}")
    for j, v in enumerate(vs):  # one matrix each, of the base's shape, for the orders to stack
        if v.shape != (d, d):
            raise ValidationError(f"direction {j} has shape {v.shape}, the base is {d} x {d}")
    if all(v is vs[0] or np.array_equal(v, vs[0]) for v in vs[1:]):
        return model_delta_bracket(form.base, form.model, vs, quad_tol=form.quad_tol)
    orders = [np.stack(slot) for slot in zip(*itertools.permutations(vs))]
    brackets = model_delta_bracket(form.base, form.model, orders, quad_tol=form.quad_tol)
    total = complex(sum(brackets.real), sum(brackets.imag))
    return real_value(total) / math.factorial(len(orders))


def trace_identity_residual(form, direction):
    """|tr T_{f^[j]}(V..V) - (1/j) tr(V T_{g^[j-1]}(V..V))| with g = f' at
    each order j = 1..k, k = form.order: an array whose column j - 1 holds
    order j.

    The left sides are the blocks (0, 1)..(0, k) of one order-k recurrence
    of f itself; the right sides are the reduced forms, taken as in
    taylor_expand from g(H) and one recurrence of order k - 1. Column j - 1
    has the bits of an order-j integral against model_delta_bracket along
    [V] * j. Both are exact traces, so the residual is purely numerical
    noise: rounding in the divided-difference tables, plus quadrature error
    at near-ties.

    With a stacked base or a stack (S, n, n) of directions the call returns
    S rows, a base or direction of one matrix serving every member; each
    row has the bits of its member's one-instance call. The direction is
    checked once: one that is not Hermitian, or unlike the base in size or
    stack length, raises ValidationError.
    """
    instance_of(form, FrechetForm, "form")
    k, dec, model = form.order, form.base, form.model
    v, shape = _check_hermitian(direction, "direction"), dec.eigenvectors.shape
    if v.shape[-1] != shape[-1] or v.ndim == len(shape) == 3 and len(v) != shape[0]:
        raise ValidationError(f"direction has shape {v.shape}, base has {shape}")
    blocks = tuple((0, j) for j in range(1, k + 1))
    lhs = _divided_integral(model, (dec,) * (k + 1), (v,) * k, form.quad_tol, blocks)
    rhs = _diagonal_deltas(model.derivative_model(1), dec, v, k, form.quad_tol)
    return np.stack([abs(real_trace(x) - real_value(y)) for x, y in zip(lhs, rhs)], axis=-1)


# Fourth-order central stencils: offsets, weights, and the scale that
# divides h**k. Width is 2*ceil(k/2) + 2 sample points beside the center.
_STENCILS = {
    1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 12.0),
    2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0),
    3: ((-3, -2, -1, 1, 2, 3), (1.0, -8.0, 13.0, -13.0, 8.0, -1.0), 8.0),
}


def fd_oracle(h, v, p, k):
    """Finite-difference k-th derivative of t -> tr |H + tV|^p at t = 0.

    Uses a fourth-order central stencil at steps h and 2h with
    Richardson extrapolation; returns (value, error_estimate). The
    step h balances truncation against cancellation at order k,
    and the doubled comparison step keeps the fine evaluation out of
    the roundoff-dominated regime. The estimate adds a bound on the
    rounding in the samples, which the correction does not see. A stencil
    that can reach the kink at 0, min |lambda(H)| <= max|offset| 2h ||V||_2,
    raises UnsupportedConfigError; a non-Hermitian H or V, or a V of
    another shape than H, raises ValidationError.
    """
    k = whole_number(k, "order k")
    if k not in _STENCILS:
        raise UnsupportedConfigError(f"finite differences support orders 1..3, not {k}")
    h = _check_hermitian(as_complex_matrix(h, "base"), "base")
    v = _matching(_check_hermitian(v, "direction"), h, "direction", "base")
    model, norms = PowerAbs(p), (operator_norm(h), operator_norm(v))
    return _fd_core(h, v, model, k, norms, float(np.min(np.abs(np.linalg.eigvalsh(h)))))


def _fd_core(h, v, model, k, norms, gap):
    """fd_oracle on checked h and v, with model = PowerAbs(p), norms =
    (||H||_2, ||V||_2) and gap = min |lambda(H)| given."""
    eps = np.finfo(float).eps
    h_norm, v_norm = norms
    step = eps ** (1.0 / (k + 2)) * (1.0 + h_norm) / (1.0 + v_norm)

    offsets, weights, scale = _STENCILS[k]
    # By Weyl's inequality no sampled eigenvalue lies further than this from H's.
    reach = max(map(abs, offsets)) * 2.0 * step * v_norm
    if gap <= reach:
        raise UnsupportedConfigError(
            f"order-{k} stencil can reach the kink: reach {reach:.3e} >= min |lambda(H)| {gap:.3e}"
        )
    steps = (step, 2.0 * step)
    # Both stencils' spectra come from one stacked solver call.
    t = np.array([o * dt for dt in steps for o in offsets])
    lams = np.linalg.eigvalsh(h + t[:, None, None] * v)
    check_within(lams, WORKING_INTERVAL, "finite-difference stencil spectra")
    samples = [float(np.sum(model.eval(lam))) for lam in lams]

    def stencil(dt, values):
        acc = 0.0
        for w, g in zip(weights, values):
            acc += w * g
        return acc / (scale * dt**k)

    fine = stencil(steps[0], samples[: len(offsets)])
    coarse = stencil(steps[1], samples[len(offsets) :])
    correction = (fine - coarse) / 15.0  # fourth-order Richardson factor
    # A sample sum f(lambda_i) >= 0 rounds by about eps (||H|| sum|f'| + sum f),
    # which the fine stencil multiplies by sum|w| / (scale h^k); measured
    # errors away from the kink reach 2.6 times that, so the margin is 8.
    rounding = eps * np.max(h_norm * np.abs(model.eval(lams, 1)).sum(axis=1) + samples)
    roundoff = 8.0 * rounding * sum(map(abs, weights)) / (scale * step**k)
    return fine + correction, abs(correction) + roundoff + 1e-15 * (1.0 + abs(fine))


@dataclass(frozen=True)
class TaylorReport:
    """Expansion data for one (H, V, p) triple; the taylor-scan report that
    carries it as `data.taylor` times the run."""

    p: float
    m: int
    deltas: tuple
    t_grid: tuple
    remainder: tuple
    slope: float
    oracle: tuple
    tolerances: dict

    def to_dict(self):
        """The fields as report data, the grid under the key "t"."""
        data = dict(vars(self))
        data["t"] = data.pop("t_grid")
        return data


def taylor_expand(h, v, p, t_grid=DEFAULT_T_GRID):
    """Taylor data of t -> ||H + tV||_p^p on a grid of small t > 0.

    Computes the diagonal derivative forms delta^(k) for k = 1..m (for
    k >= 2 the blocks of one recurrence of order m - 1), the remainder
    after subtracting the degree-m polynomial, and the fitted log-log
    slope of |remainder| over grid points above the cancellation floor.
    Slope fitting wants at least four usable points; an all-zero
    remainder (V = 0, or an exactly polynomial power) reports slope NaN.
    The finite-difference oracle entries are skipped when the spectrum
    comes within 0.05 of the kink at zero, where stencils are unreliable.
    The forms run at the library's quadrature tolerance (util.QUAD_TOL).
    Returns a TaylorReport, which keeps no clock. A p whose degree m =
    ceil(p) - 1 exceeds moi.MAX_ORDER (p > 4) raises
    UnsupportedConfigError; an H or V that is not Hermitian, a V that is not
    one matrix of H's shape, or a t grid that breaks _t_grid's rule, raises
    ValidationError naming it.
    """
    exponent = _expansion_exponent(p)
    m = exponent.m
    h = _check_hermitian(as_complex_matrix(h, "H"), "H")
    v = _matching(_check_hermitian(v, "direction"), h, "direction", "H")
    t_grid = np.array(_t_grid(t_grid))
    decomposition = eigendecompose(_symmetrized(h))
    lam0 = decomposition.eigenvalues
    lams = np.linalg.eigvalsh(h + t_grid[:, None, None] * v)
    lam1 = lams[np.argmax(t_grid)]
    check_within((lam0, lam1), WORKING_INTERVAL, "spectra of H + tV on the grid")
    _check_unit_ball(lam0, exponent.p)

    model = PowerAbs(exponent.p)
    base = float(np.sum(model.eval(lam0)))
    deltas = _diagonal_deltas(model.derivative_model(1), decomposition, v, m, QUAD_TOL)

    remainder = []
    for t, lam in zip(t_grid, lams):
        value = float(np.sum(model.eval(lam)))
        poly = sum(d * t**k for k, d in enumerate(deltas, start=1))
        remainder.append(value - base - poly)
    remainder = np.asarray(remainder)

    usable = np.abs(remainder) > REMAINDER_FLOOR
    n_usable = int(np.count_nonzero(usable))
    if n_usable == 0:
        slope = float("nan")
    elif n_usable < 4:
        raise ValidationError(
            f"t grid too coarse: only {n_usable} points with |remainder| above "
            f"{REMAINDER_FLOOR:g}"
        )
    else:
        slope = fit_loglog_slope(t_grid[usable], np.abs(remainder[usable]))

    gap = min(float(np.min(np.abs(lam0))), float(np.min(np.abs(lam1))))
    oracle_skipped = gap < FD_SAFE_GAP
    oracle = []
    if not oracle_skipped:
        norms, kink = (operator_norm(h), operator_norm(v)), float(np.min(np.abs(lam0)))
        for k, d in enumerate(deltas, start=1):
            fd, fd_err = _fd_core(h, v, model, k, norms, kink)
            series = math.factorial(k) * d
            oracle.append(
                {
                    "k": k,
                    "series": series,
                    "fd": fd,
                    "fd_error": fd_err,
                    "abs_diff": abs(series - fd),
                }
            )

    return TaylorReport(
        p=exponent.p,
        m=m,
        deltas=tuple(deltas),
        t_grid=tuple(float(t) for t in t_grid),
        remainder=tuple(float(r) for r in remainder),
        slope=slope,
        oracle=tuple(oracle),
        tolerances={
            "remainder_floor": REMAINDER_FLOOR,
            "oracle_skipped_near_zero": oracle_skipped,
        },
    )


def taylor_integral_form(h0, h1, p, quad_tol=QUAD_TOL):
    """Both sides of the exact integral expansion of tr |H_1|^p.

    With m = ceil(p) - 1, capped at moi.MAX_ORDER (3): lhs = tr f(H_1);
    rhs accumulates tr f(H_0), the derivative terms
    (1/k) tr(V T_{g^[k-1]}(V..)) for k < m at the segment base point,
    and the integral of t^{m-1} tr(V T^{(H_t, H_0..)}_{g^[m-1]}(V..)) dt
    over t in [0, 1], with H_t = H_0 + tV and g = f'. The first slot of
    the operator integral rides the moving point H_t; the rest stay at
    H_0, so at m = 1 (p <= 2) the integral is g(H_t) alone. The t-integral
    starts with the 15-point Gauss-Kronrod rule and its embedded 7-point
    Gauss rule (util.kronrod01), both from the same 15 moving points; it
    stops there when they agree, |K15 - G7| <= 1e-8 (1 + |K15|), else it
    takes Gauss-Legendre of order 32, checked the same way against K15,
    and then of order 64. Order 64 is returned even when it disagrees with
    32: over seeds 1-199 at dim 4 (three profiles, p 2.5 and 3.5, the
    segment H_0 + 0.3 V/|V|_F), 73 of 1194 segments reached order 64 and
    50 of those disagreed, by up to 1.05e-6, with every |lhs - rhs| at
    most 1.31e-7.

    h0 and h1 may instead be stacks (S, n, n) of S segments' endpoints:
    the call then returns (lhs, rhs) as two arrays of length S, each
    member with the bits of its own one-segment call. Every H_0 of the
    stack and the H_t at its 15 Kronrod nodes are one stacked
    decomposition, and their operator integrals one stacked integral, V
    (and from m = 2 on H_0) taken at an index that repeats each member
    over its nodes; each derivative term is one stacked bracket. A member
    leaves the ladder when its own last two values agree, and the members
    still open go on together to order 32 and then 64, with one
    decomposition and one integral per order. One segment takes the same
    steps, its one-matrix slots passing through. A non-Hermitian endpoint
    (by stack index) and an h1 of another shape than h0 raise
    ValidationError naming it. Each matrix is checked Hermitian once.
    """
    quad_tol = checked_tol(quad_tol)
    exponent = SchattenExponent(p)
    m = min(exponent.m, MAX_ORDER)

    h0 = _check_hermitian(h0, "h0")
    h1 = _matching(_check_hermitian(h1, "h1"), h0, "h1", "h0")
    v = h1 - h0
    stack, n = (len(h0) if h0.ndim == 3 else None), h0.shape[-1]
    count = stack or 1
    ends = np.linalg.eigvalsh(np.stack([h0, h1]))
    check_within(ends, WORKING_INTERVAL, "spectra of the segment endpoints")

    model = PowerAbs(exponent.p)
    g = model.derivative_model(1)
    # Views with a member axis, one member when nothing is stacked.
    h0s, vs = h0.reshape(-1, n, n), v.reshape(-1, n, n)

    def moving(nodes, at):
        """H_t at the nodes, for the members `at`, member by member, checked
        Hermitian."""
        points = (h0s[at, None] + nodes[:, None, None] * vs[at, None]).reshape(-1, n, n)
        return _check_hermitian(points, "moving point")

    # Level 1 is the 15-point Kronrod rule with its embedded 7-point Gauss
    # rule, each weight row a rule over the same nodes; levels 2 and 3 are
    # Gauss-Legendre of orders 32 and 64.
    nodes, *rules = kronrod01()
    whole = eigendecompose(_symmetrized(np.concatenate([h0s, moving(nodes, slice(None))])))
    d0 = whole[0] if stack is None else whole[:count]
    # Each member's sums of its own eigenvalue row, as Python floats.
    lhs = np.array([float(np.sum(row)) for row in model.eval(ends[1]).reshape(count, n)])
    rhs = np.array([float(np.sum(row)) for row in model.eval(d0.eigenvalues).reshape(count, n)])
    for k in range(1, m):
        rhs = rhs + real_value(model_delta_bracket(d0, model, [v] * k, quad_tol=quad_tol))

    def t_integrals(nodes, rules, at, points):
        """The t-integral by each rule over the nodes, one row per member of
        `at` and one column per rule, from points, the stacked decomposition
        of moving(nodes, at)."""
        q = len(nodes)
        # each member's V, and its H_0 where a slot sits there (m >= 2),
        # repeated over its q nodes
        index = np.repeat(np.arange(count)[at], q)
        (u,) = _along((v,), index)
        rest = _along((d0,), index) * (m - 1) if m > 1 else ()
        integrals = _divided_integral(g, (points, *rest), (u,) * (m - 1), quad_tol)
        values = []
        for traces in real_trace(u @ integrals).reshape(-1, q):
            terms = nodes ** (m - 1) * traces
            values.append([float(sum(w * x for w, x in zip(weights, terms))) for weights in rules])
        return np.array(values)

    values = t_integrals(nodes, rules, slice(None), whole[count:])
    previous, value = values[:, 0], values[:, -1]
    for order in (32, 64):
        open_ = np.flatnonzero(~(np.abs(value - previous) <= 1e-8 * (1.0 + np.abs(value))))
        if not open_.size:
            break
        previous[open_] = value[open_]
        nodes, weights = gauss01(order)
        points = eigendecompose(_symmetrized(moving(nodes, open_)))
        value[open_] = t_integrals(nodes, (weights,), open_, points)[:, 0]
    rhs = rhs + value
    return (lhs, rhs) if stack is not None else (float(lhs[0]), float(rhs[0]))


def selfadjoint_embed(x, p):
    """Hermitian dilation 2^{-1/p} [[0, X], [X*, 0]] preserving ||.||_p."""
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    p = real_number(p, "embedding p")
    if not p >= 1.0:
        raise ValidationError(f"embedding needs p >= 1, got {p}")
    n, r = x.shape
    out = np.zeros((n + r, n + r), dtype=complex)
    out[:n, n:] = x
    out[n:, :n] = x.conj().T
    return HermitianMatrix(out * 2.0 ** (-1.0 / p))


def embedded_delta(h, v, p, k):
    """delta^(k) of ||H + tV||_p^p for arbitrary (non-Hermitian) H and V.

    Both arguments ride the Hermitian dilation: the value is
    delta^(k)_{alpha(H)}(alpha(V), ...). Since ||alpha(H + tV)||_p equals
    ||H + tV||_p exactly, the dilated expansion coefficients are the
    expansion coefficients of the original curve, with no extra factor.
    For Hermitian inputs this reproduces the direct form.
    """
    k = whole_number(k, "order k")
    ah = selfadjoint_embed(h, p)
    av = selfadjoint_embed(v, p)
    form = FrechetForm(base=eigendecompose(ah), exponent=SchattenExponent(p), order=k)
    return delta_symmetric(form, [av.matrix] * k)


def holder_difference_norms(phi_model, base, direction, tail, perturbations, t_grid, p):
    """||T(A_t) - T(B)||_{p'} along A_t = B + tW for a kinked symbol.

    T(A) is the operator integral T^{(A, tail)}_{phi^[j]}(perturbations),
    j = len(perturbations) (phi(A) itself at j = 0), whose first matrix
    argument moves; tail holds one decomposition per perturbation. p' is
    the conjugate exponent of p. Returns the per-t norms; a zero direction
    is degenerate and gives NaN at every t. A t grid that is not one
    nonempty row of finite positive numbers (_t_grid) raises ValidationError.

    The base, the direction, each tail and each perturbation may instead be
    a stack of S, a slot holding one matrix serving every member: the call
    then returns an (S, len(t_grid)) array, a member with a zero direction
    giving a row of NaN and costing no decomposition or integral. The
    moving points of the other members are one stacked decomposition,
    seed-major, stacked tails and perturbations taken at the index that
    repeats each member over the grid; the norms come from one stacked
    integral and one stacked norm call, each row with the bits of its
    member's one-instance call. The direction, checked Hermitian before
    anything is decomposed, joins the perturbations in the slot check, and
    the matrices among the base and the tails are decomposed in one call.
    """
    tail, perturbations = as_sequence(tail, "tail"), as_sequence(perturbations, "perturbations")
    if len(tail) != len(perturbations):
        raise ValidationError(
            f"{len(perturbations)} perturbations need as many tails, got {len(tail)}"
        )
    if len(perturbations) > MAX_ORDER:
        raise ValidationError(f"operator integral order {len(tail)} outside 0..{MAX_ORDER}")
    p = SchattenExponent(p).p
    t_grid = np.array(_t_grid(t_grid))
    direction = _check_finite(as_complex_matrices(direction, "direction"), "direction")
    _check_hermitian(direction, "direction")
    names = ("base",) + tuple(f"tail {j}" for j in range(len(tail))) + ("direction",)
    names += tuple(f"perturbation {j}" for j in range(len(perturbations)))
    (base, *tail), (w, *perts), stack = _prepared_slots(
        (base, *tail), (direction, *perturbations), names
    )
    n, steps = base.dim, t_grid.size
    zero = np.linalg.norm(w, ord=2, axis=(-2, -1)) < 1e-14
    norms = np.full((stack or 1, steps), np.nan)
    # Only the members with a non-zero direction move: each stacked slot is
    # taken at them, and a zero direction costs no decomposition or integral.
    live = np.flatnonzero(~np.broadcast_to(zero, (len(norms),)))
    if live.size:
        (base, *tail), (w, *perts) = _along((base, *tail), live), _along((w, *perts), live)
        points = base.source.matrix[..., None, :, :] + t_grid[:, None, None] * w[..., None, :, :]
        points = np.broadcast_to(points, (live.size, steps, n, n)).reshape(-1, n, n)
        ref = _divided_integral(phi_model, (base, *tail), perts, QUAD_TOL)
        # Stacked tails and perturbations follow the seed-major moving points.
        seed_major = np.repeat(np.arange(live.size), steps)
        tail, perts = _along(tail, seed_major), _along(perts, seed_major)
        moved = _divided_integral(phi_model, (eigendecompose(points), *tail), perts, QUAD_TOL)
        diffs = moved.reshape(live.size, steps, n, n) - ref.reshape(-1, 1, n, n)
        norms[live] = schatten_norm(diffs.reshape(-1, n, n), p / (p - 1.0)).reshape(-1, steps)
    return norms if stack is not None else norms[0]
