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
trace. The brackets, their symmetrization, the trace identity, the
integral Taylor remainder and the Hoelder differences all build their
integrals through one helper, _divided_integral.

The trace identity and the Hoelder differences also check a stack of S
instances in one call (a stacked base decomposition, stacked directions,
tails and perturbations), returning S values whose bits are those of the
S one-instance calls.
"""

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .divided import DividedDifference
from .errors import UnsupportedConfigError, ValidationError
from .functions import PowerAbs
from .moi import MoiRequest, _as_decomposition, _joined, _prepared_slots, moi_exact
from .simplex import _gauss01
from .spectral import (
    HermitianMatrix,
    SchattenExponent,
    SpectralDecomposition,
    WORKING_INTERVAL,
    _check_hermitian,
    apply_scalar_function,
    eigendecompose,
    schatten_norm,
)
from .util import (
    as_complex_matrices,
    as_complex_matrix,
    check_within,
    checked_tol,
    fit_loglog_slope,
    lp_norms,
    operator_norm,
    real_trace,
    real_value,
    whole_number,
)

MAX_FORM_ORDER = 3
REMAINDER_FLOOR = 1e-12
FD_SAFE_GAP = 0.05


def _direction(v):
    """v as a complex matrix, or a stack (S, n, n) of them, checked
    Hermitian but not symmetrized."""
    return _check_hermitian(as_complex_matrices(v), "direction")


def _check_unit_ball(lams, p):
    """Raise unless the spectrum lams, or each spectrum of a stack (S, n),
    has l^p norm <= 1 (1e-9 slack)."""
    for norm in lp_norms(np.atleast_2d(lams), p):
        if not norm <= 1.0 + 1e-9:
            raise ValidationError(f"base point must satisfy ||H||_p <= 1, got {norm:.6f}")


def _divided_integral(g, decompositions, perturbations, quad_tol):
    """T^{(H_0..H_j)}_{g^[j]}(V_1..V_j) with j = len(perturbations).

    At j = 0 this is g(H_0). The first decomposition and the perturbations
    may be stacks, as in MoiRequest; the result is then the stack of values.
    """
    if not perturbations:
        return apply_scalar_function(g, decompositions[0]).matrix
    return moi_exact(
        MoiRequest(
            decompositions=tuple(decompositions),
            perturbations=tuple(perturbations),
            symbol=DividedDifference(g, len(perturbations)),
            tol=quad_tol,
        )
    )


def model_delta_bracket(decomposition, model, directions, quad_tol=1e-9):
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
    model_delta_symmetric, are real there. Any direction may instead be a
    stack (B, n, n): the value is then the complex array of the B brackets,
    unchecked, for the caller to combine and check.
    """
    decomposition = _as_decomposition(decomposition)
    vs = [as_complex_matrices(v) for v in directions]
    k = len(vs)
    if not 1 <= k <= MAX_FORM_ORDER:
        raise UnsupportedConfigError(f"form order {k} outside 1..{MAX_FORM_ORDER}")
    g = model.derivative_model(1)
    integral = _divided_integral(g, (decomposition,) * k, vs[1:], quad_tol)
    traces = np.trace(vs[0] @ integral, axis1=-2, axis2=-1)
    if traces.ndim == 0:
        return real_value(traces) / k
    # Real and imaginary parts divided apart: a complex division by k
    # multiplies by 1/k, which differs from it in the last bit.
    brackets = np.empty_like(traces)
    brackets.real, brackets.imag = traces.real / k, traces.imag / k
    return brackets


def model_delta_symmetric(decomposition, model, directions, quad_tol=1e-9):
    """Symmetrization of model_delta_bracket over all argument orders.

    The k! orders are stacked slot by slot, so that one bracket call, and
    one symbol tensor, serves them all. The complex brackets are summed
    and the sum is checked real once: single brackets of distinct complex
    directions are complex at order 3.
    """
    vs = (as_complex_matrix(v) for v in directions)
    orders = [np.stack(slot) for slot in zip(*itertools.permutations(vs))]
    brackets = model_delta_bracket(decomposition, model, orders, quad_tol=quad_tol)
    total = complex(sum(brackets.real), sum(brackets.imag))
    return real_value(total) / math.factorial(len(orders))


@dataclass(frozen=True)
class FrechetForm:
    """One derivative form of ||H||_p^p: base point, exponent, and order.

    The default scalar model is |x|^p, for which only orders k <= m make
    sense (residual smoothness of |x|^p is p - m). Supplying a smoother
    model (a polynomial, say) lifts that ceiling to the model's own
    derivative count, still capped at order 3.

    The base may be a stacked decomposition of S points, each checked
    against the working interval and the unit ball on its own; the trace
    identity then checks the S points in one call, and delta_bracket and
    delta_symmetric reject it.
    """

    base: SpectralDecomposition
    exponent: SchattenExponent
    order: int = 1
    quad_tol: float = 1e-9
    model: object = field(default=None, repr=False)

    def __post_init__(self):
        dec = _as_decomposition(self.base)
        object.__setattr__(self, "base", dec)
        exp = self.exponent
        if not isinstance(exp, SchattenExponent):
            exp = SchattenExponent(exp)
        object.__setattr__(self, "exponent", exp)
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "quad_tol", checked_tol(self.quad_tol))
        check_within(dec.eigenvalues, WORKING_INTERVAL, "base spectrum")
        _check_unit_ball(dec.eigenvalues, exp.p)
        if self.model is None:
            object.__setattr__(self, "model", PowerAbs(exp.p))
            limit = min(exp.m, MAX_FORM_ORDER)
        else:
            limit = min(self.model.max_order, MAX_FORM_ORDER)
        if not 1 <= self.order <= limit:
            raise UnsupportedConfigError(
                f"derivative order {self.order} not available for p={exp.p} "
                f"(orders 1..{limit})"
            )
        object.__setattr__(self, "_limit", limit)

    def directions_ok(self, directions):
        if self.base.stack is not None:
            raise ValidationError("the forms of a stacked base are taken member by member")
        vs = [_direction(v) for v in directions]
        if len(vs) != self.order:
            raise ValidationError(
                f"form of order {self.order} takes {self.order} directions, "
                f"got {len(vs)}"
            )
        d = self.base.dim
        for v in vs:
            if v.shape != (d, d):
                raise ValidationError(f"direction shape {v.shape} != ({d}, {d})")
        return vs


def delta_bracket(form, directions):
    """delta^[k]: the unsymmetrized derivative form of a FrechetForm."""
    vs = form.directions_ok(directions)
    return model_delta_bracket(form.base, form.model, vs, quad_tol=form.quad_tol)


def delta_symmetric(form, directions):
    """delta^(k): average of delta^[k] over all argument permutations."""
    vs = form.directions_ok(directions)
    return model_delta_symmetric(form.base, form.model, vs, quad_tol=form.quad_tol)


def trace_identity_residual(form, direction, k=None):
    """|tr T_{f^[k]}(V..V) - (1/k) tr(V T_{g^[k-1]}(V..V))| with g = f'.

    The left side integrates the order-k divided difference of f itself;
    the right side is the reduced form (model_delta_bracket). Both are
    exact traces, so the residual is purely numerical noise: rounding in
    the divided-difference tables, plus quadrature error at near-ties.

    With a stacked base or a stack (S, n, n) of directions the call returns
    the array of S residuals, a base or direction of one matrix serving
    every member; each side's integrals are one stacked call, and each
    residual has the bits of its member's one-instance call.
    """
    if k is None:
        k = form.order
    k = int(k)
    if not 1 <= k <= min(getattr(form, "_limit", MAX_FORM_ORDER), MAX_FORM_ORDER):
        raise UnsupportedConfigError(f"order {k} outside this form's range")
    v = _direction(direction)
    dec = form.base
    model = form.model
    lhs = real_trace(_divided_integral(model, (dec,) * (k + 1), (v,) * k, form.quad_tol))
    rhs = real_value(model_delta_bracket(dec, model, [v] * k, quad_tol=form.quad_tol))
    return abs(lhs - rhs)


# Fourth-order central stencils: offsets, weights, and the scale that
# divides h**k. Width is 2*ceil(k/2) + 2 sample points beside the center.
_STENCILS = {
    1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 12.0),
    2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0),
    3: ((-3, -2, -1, 1, 2, 3), (1.0, -8.0, 13.0, -13.0, 8.0, -1.0), 8.0),
}


def fd_oracle(h, v, p, k, step=None):
    """Finite-difference k-th derivative of t -> tr |H + tV|^p at t = 0.

    Uses a fourth-order central stencil at steps h and 2h with
    Richardson extrapolation; returns (value, error_estimate). The
    default step balances truncation against cancellation at order k,
    and the doubled comparison step keeps the fine evaluation out of
    the roundoff-dominated regime. A non-Hermitian H or V raises
    ValidationError naming the base or the direction.
    """
    k = int(k)
    if k not in _STENCILS:
        raise UnsupportedConfigError(f"finite differences support orders 1..3, not {k}")
    h = _check_hermitian(as_complex_matrix(h), "base")
    v = _check_hermitian(as_complex_matrix(v), "direction")
    model = PowerAbs(p)

    if step is None:
        eps = np.finfo(float).eps
        step = eps ** (1.0 / (k + 2)) * (1.0 + operator_norm(h)) / (1.0 + operator_norm(v))
    step = float(step)
    if not (np.isfinite(step) and step > 0.0):
        raise ValidationError(f"finite-difference step must be finite and positive, got {step}")

    offsets, weights, scale = _STENCILS[k]
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
    return fine + correction, abs(correction) + 1e-15 * (1.0 + abs(fine))


@dataclass(frozen=True)
class TaylorReport:
    """Expansion data for one (H, V, p) triple."""

    p: float
    m: int
    deltas: tuple
    t_grid: tuple
    remainder: tuple
    slope: float
    oracle: tuple
    tolerances: dict
    wall_clock_s: float = 0.0

    def to_dict(self):
        return {
            "p": self.p,
            "m": self.m,
            "deltas": list(self.deltas),
            "t": list(self.t_grid),
            "remainder": list(self.remainder),
            "slope": self.slope,
            "oracle": [dict(entry) for entry in self.oracle],
            "tolerances": dict(self.tolerances),
            "wall_clock_s": self.wall_clock_s,
        }

    def to_csv(self):
        lines = ["t,remainder"]
        for t, r in zip(self.t_grid, self.remainder):
            lines.append(f"{t!r},{r!r}")
        return "\n".join(lines) + "\n"


def taylor_expand(h, v, p, t_grid=None, quad_tol=1e-9, with_oracle=True):
    """Taylor data of t -> ||H + tV||_p^p on a grid of small t > 0.

    Computes the diagonal derivative forms delta^(k) for k = 1..m, the
    remainder after subtracting the degree-m polynomial, and the fitted
    log-log slope of |remainder| over grid points above the cancellation
    floor. Slope fitting wants at least four usable points; an all-zero
    remainder (V = 0, or an exactly polynomial power) reports slope NaN.
    The finite-difference oracle entries are skipped when the spectrum
    comes within 0.05 of the kink at zero, where stencils are unreliable.
    """
    started = time.perf_counter()
    exponent = SchattenExponent(p)
    m = min(exponent.m, MAX_FORM_ORDER)
    h = as_complex_matrix(h)
    v = _direction(v)
    if t_grid is None:
        t_grid = np.logspace(-4, -1, 13)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or not np.all(np.isfinite(t_grid) & (t_grid > 0.0)):
        raise ValidationError("t grid values must be finite and positive")
    decomposition = _as_decomposition(h)
    lam0 = decomposition.eigenvalues
    lams = np.linalg.eigvalsh(h + t_grid[:, None, None] * v)
    lam1 = lams[np.argmax(t_grid)]
    check_within((lam0, lam1), WORKING_INTERVAL, "spectra of H + tV on the grid")
    _check_unit_ball(lam0, exponent.p)

    model = PowerAbs(exponent.p)
    base = float(np.sum(model.eval(lam0)))
    deltas = [
        model_delta_bracket(decomposition, model, [v] * k, quad_tol=quad_tol)
        for k in range(1, m + 1)
    ]

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
    if with_oracle and not oracle_skipped:
        for k, d in enumerate(deltas, start=1):
            fd, fd_err = fd_oracle(h, v, exponent.p, k)
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
            "quad_tol": quad_tol,
            "remainder_floor": REMAINDER_FLOOR,
            "oracle_skipped_near_zero": bool(oracle_skipped or not with_oracle),
        },
        wall_clock_s=time.perf_counter() - started,
    )


def taylor_integral_form(h0, h1, p, m=None, t_order=None, quad_tol=1e-9):
    """Both sides of the exact integral expansion of tr |H_1|^p.

    lhs = tr f(H_1); rhs accumulates tr f(H_0), the derivative terms
    (1/k) tr(V T_{g^[k-1]}(V..)) for k < m at the segment base point,
    and the integral of t^{m-1} tr(V T^{(H_t, H_0..)}_{g^[m-1]}(V..)) dt
    over t in [0, 1], with H_t = H_0 + tV and g = f'. The first slot of
    the operator integral rides the moving point H_t; the rest stay at
    H_0. The t-integral uses Gauss-Legendre nodes with order doubling
    (8 to 64, stop at 1e-8 agreement) unless t_order pins the order.
    H_0 and the H_t at the nodes of the first two orders (8 and 16, or
    the pinned order alone) are one stacked decomposition, and their
    operator integrals one stacked integral, each order summing its own
    slice; orders 32 and 64 run only while the last two orders disagree,
    with one decomposition and one integral each. Every value has the
    bits of a separate decomposition and integral per order. A
    non-Hermitian endpoint, an h1 of another shape than h0, and an m or
    t_order that is not a whole number raise ValidationError naming it.
    """
    quad_tol = checked_tol(quad_tol)
    exponent = SchattenExponent(p)
    m = min(exponent.m, MAX_FORM_ORDER) if m is None else whole_number(m, "m")
    if not 1 <= m <= MAX_FORM_ORDER:
        raise UnsupportedConfigError(f"integral form order {m} outside 1..{MAX_FORM_ORDER}")
    if not m < exponent.p:
        raise ValidationError(f"integral form needs m < p, got m={m}, p={exponent.p}")
    if t_order is not None:
        t_order = whole_number(t_order, "t_order")
        if t_order < 1:
            raise ValidationError(f"t_order must be at least 1, got {t_order}")

    h0 = _check_hermitian(as_complex_matrix(h0), "h0")
    h1 = _check_hermitian(as_complex_matrix(h1), "h1")
    if h1.shape != h0.shape:
        raise ValidationError(f"h1 has shape {h1.shape}, h0 has {h0.shape}")
    v = h1 - h0
    ends = np.linalg.eigvalsh(np.stack([h0, h1]))
    check_within(ends, WORKING_INTERVAL, "spectra of the segment endpoints")

    model = PowerAbs(exponent.p)
    g = model.derivative_model(1)

    def moving(orders):
        """H_t at the nodes of each order in turn."""
        return h0 + np.concatenate([_gauss01(q)[0] for q in orders])[:, None, None] * v

    first = (8, 16) if t_order is None else (t_order,)
    whole = eigendecompose(np.concatenate([h0[None], moving(first)]))
    d0 = whole[0]
    lhs = float(np.sum(model.eval(ends[1])))
    rhs = float(np.sum(model.eval(d0.eigenvalues)))
    for k in range(1, m):
        rhs += model_delta_bracket(d0, model, [v] * k, quad_tol=quad_tol)

    def gauss_values(orders, points):
        """The t-integral at each order, from the stacked decomposition of
        moving(orders)."""
        integrals = _divided_integral(g, (points,) + (d0,) * (m - 1), (v,) * (m - 1), quad_tol)
        traces = real_trace(v @ integrals)
        values, lo = [], 0
        for q in orders:
            nodes, weights = _gauss01(q)
            terms = nodes ** (m - 1) * traces[lo : lo + q]
            values.append(float(sum(w * x for w, x in zip(weights, terms))))
            lo += q
        return values

    values = gauss_values(first, whole[1:])
    value = values[-1]
    if t_order is None:
        previous = values[0]
        for order in (32, 64):
            if abs(value - previous) <= 1e-8 * (1.0 + abs(value)):
                break
            previous, value = value, gauss_values((order,), eigendecompose(moving((order,))))[0]
    return lhs, rhs + value


def selfadjoint_embed(x, p):
    """Hermitian dilation 2^{-1/p} [[0, X], [X*, 0]] preserving ||.||_p."""
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"embedding needs p >= 1, got {p}")
    n, r = x.shape
    out = np.zeros((n + r, n + r), dtype=complex)
    out[:n, n:] = x
    out[n:, :n] = x.conj().T
    return HermitianMatrix(out * 2.0 ** (-1.0 / p))


def embedded_delta(h, v, p, k, quad_tol=1e-9):
    """delta^(k) of ||H + tV||_p^p for arbitrary (non-Hermitian) H and V.

    Both arguments ride the Hermitian dilation: the value is
    delta^(k)_{alpha(H)}(alpha(V), ...). Since ||alpha(H + tV)||_p equals
    ||H + tV||_p exactly, the dilated expansion coefficients are the
    expansion coefficients of the original curve, with no extra factor.
    For Hermitian inputs this reproduces the direct form.
    """
    ah = selfadjoint_embed(h, p)
    av = selfadjoint_embed(v, p)
    form = FrechetForm(
        base=eigendecompose(ah),
        exponent=SchattenExponent(p),
        order=int(k),
        quad_tol=quad_tol,
    )
    return delta_symmetric(form, [av.matrix] * int(k))


def holder_difference_norms(phi_model, base, direction, tail, perturbations, t_grid, p, quad_tol=1e-9):
    """||T(A_t) - T(B)||_{p'} along A_t = B + tW for a kinked symbol.

    T(A) is the operator integral T^{(A, tail)}_{phi^[j]}(perturbations),
    j = len(perturbations) (phi(A) itself at j = 0), whose first matrix
    argument moves; tail holds one decomposition per perturbation. p' is
    the conjugate exponent of p. Returns the per-t norms; a zero direction
    is degenerate and comes back as an empty array, as does an empty grid.

    The base, the direction, each tail and each perturbation may instead be
    a stack of S, a slot holding one matrix serving every member: the call
    then returns an (S, len(t_grid)) array, a member with a zero direction
    giving a row of NaN. The moving points of all members are one stacked
    decomposition, seed-major, with the stacked tails and perturbations
    repeated along them, and the norms come from one stacked integral and
    one stacked norm call; each row has the bits of its member's
    one-instance call. The direction joins the perturbations in the slot
    check, and the matrices among the base and the tails are decomposed in
    one call.
    """
    if len(tail) != len(perturbations):
        raise ValidationError(
            f"{len(perturbations)} perturbations need as many tails, got {len(tail)}"
        )
    p = SchattenExponent(p).p
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise ValidationError("t grid values must be finite")
    names = ("base",) + tuple(f"tail {j}" for j in range(len(tail))) + ("direction",)
    names += tuple(f"perturbation {j}" for j in range(len(perturbations)))
    (base, *tail), (w, *perts), stack = _prepared_slots(
        (base, *tail), (direction, *perturbations), names
    )
    n = base.dim
    zero = np.linalg.norm(w, ord=2, axis=(-2, -1)) < 1e-14
    if t_grid.size == 0 or (stack is None and zero):
        return np.zeros((0,) if stack is None else (stack, 0))
    count, steps = stack or 1, t_grid.size
    p_conj = p / (p - 1.0)

    points = base.source.matrix[..., None, :, :] + t_grid[:, None, None] * w[..., None, :, :]
    moving = _as_decomposition(np.broadcast_to(points, (count, steps, n, n)).reshape(-1, n, n))
    ref = _divided_integral(phi_model, (base, *tail), perts, quad_tol)
    # Stacked tails and perturbations follow the seed-major moving points.
    tail = tuple(
        d if d.stack is None else _joined([d[i] for i in range(count)], steps) for d in tail
    )
    perts = tuple(u if u.ndim == 2 else np.repeat(u, steps, axis=0) for u in perts)
    moved = _divided_integral(phi_model, (moving,) + tail, perts, quad_tol)
    diffs = moved.reshape(count, steps, n, n) - ref.reshape(-1, 1, n, n)
    norms = schatten_norm(diffs.reshape(-1, n, n), p_conj).reshape(count, steps)
    if stack is None:
        return norms[0]
    norms[np.broadcast_to(zero, (count,))] = np.nan
    return norms
