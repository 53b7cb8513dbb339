"""Polynomial integral momenta over the standard simplex.

A momentum of order m pairs a scalar kernel h with a polynomial weight Q
in the barycentric coordinates (s_0, ..., s_m) and maps m+1 real
arguments to

    phi(x_0, ..., x_m) = integral over S_m of Q(s) h(sum_j s_j x_j),

with S_m carrying the usual corner-simplex measure of total mass 1/m!.
With Q = 1 and h = f^(m) this is exactly the m-th divided difference of
f, which is both the bridge to operator integrals and the fast
evaluation route: such specs remember the antiderivative model and are
evaluated through the divided-difference table whenever possible.

Quadrature takes one row of arguments or a stack of rows (R, m+1). A row
whose integrand needs no kink split and no grading covers R_m with one
piece, and all such rows of a stack share one product rule per ladder
level: one kernel call on their (R, N) argument array. The other rows
sum over their own pieces. Every row leaves the ladder on its own test
and keeps the bits of its one-row call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, UnsupportedConfigError, ValidationError
from .functions import ScalarFunctionModel, as_kernel
from .simplex import (
    _SNAP,
    GRADE_FACTOR,
    GRADE_THRESHOLD,
    ORDER_LADDER,
    _simplex_vertices,
    graded_pieces,
    join_rule,
    split_by_kink,
    subsimplex_rule,
)
from .util import check_within, map_distinct_rows


def _normalize_terms(m, q_terms):
    if q_terms is None:
        q_terms = (((0,) * (m + 1), 1.0),)
    terms = []
    for alpha, coef in q_terms:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != m + 1:
            raise ValidationError(
                f"monomial multi-index {alpha} needs {m + 1} slots for order {m}"
            )
        if any(a < 0 for a in alpha):
            raise ValidationError(f"monomial exponents must be >= 0, got {alpha}")
        coef = float(coef)
        if not np.isfinite(coef):
            raise ValidationError("monomial coefficients must be finite")
        terms.append((alpha, coef))
    if not terms:
        terms = [((0,) * (m + 1), 1.0)]
    return tuple(terms)


@dataclass(frozen=True)
class MomentumSpec:
    """Order m, kernel h, and polynomial weight Q as monomial terms."""

    m: int
    kernel: ScalarFunctionModel
    q_terms: tuple = None
    #: model whose m-th derivative equals the kernel, when Q is constant;
    #: enables the divided-difference evaluation route
    origin: ScalarFunctionModel = field(default=None, repr=False)

    def __post_init__(self):
        m = int(self.m)
        if not 1 <= m <= 4:
            raise ValidationError(f"momentum order {m} outside the supported 1..4")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "kernel", as_kernel(self.kernel))
        object.__setattr__(self, "q_terms", _normalize_terms(m, self.q_terms))

    @classmethod
    def from_divided_difference(cls, model, k):
        """Spec realizing f^[k] as the order-k momentum with kernel f^(k)."""
        model = as_kernel(model)
        k = int(k)
        if k < 1:
            raise ValidationError("divided-difference order must be >= 1")
        if k > model.max_order:
            raise UnsupportedConfigError(
                f"model exposes {model.max_order} continuous derivatives, need {k}"
            )
        return cls(
            m=k,
            kernel=model.derivative_model(k),
            q_terms=(((0,) * (k + 1), 1.0),),
            origin=model,
        )

    @property
    def constant_weight(self):
        """The constant c when Q = c identically, else None."""
        c = 0.0
        for alpha, coef in self.q_terms:
            if any(alpha):
                return None
            c += coef
        return c

    def weight_values(self, points):
        """Evaluate Q at simplex points of shape (N, m)."""
        const = self.constant_weight
        if const is not None:
            return np.full(points.shape[0], const)
        sbar = np.hstack([1.0 - points.sum(axis=1, keepdims=True), points])
        out = np.zeros(points.shape[0])
        for alpha, coef in self.q_terms:
            term = np.full(points.shape[0], coef)
            for j, a in enumerate(alpha):
                if a:
                    term = term * sbar[:, j] ** a
            out += term
        return out


def _piece_value(spec, piece, x, q):
    """One sub-simplex contribution at per-axis order q."""
    kernel = spec.kernel
    if piece.sign == 0 and kernel.singular_at_zero:
        # The affine argument vanishes identically on this piece.
        h0 = kernel.eval(0.0)
        if not np.isfinite(h0):
            raise QuadratureError(
                "kernel is singular on the whole simplex (all arguments zero)"
            )
        points, weights = subsimplex_rule(piece.verts, q)
        return float(weights @ (h0 * spec.weight_values(points)))
    if kernel.singular_at_zero and piece.touches_kink:
        coef, beta, parity = kernel.power_form
        points, weights, lhat = join_rule(piece, q, beta)
        smooth = coef * np.abs(lhat) ** beta
        if parity:
            smooth = smooth * np.sign(lhat)
        return float(weights @ (smooth * spec.weight_values(points)))
    points, weights = subsimplex_rule(piece.verts, q)
    arg = x[0] + points @ (x[1:] - x[0])
    return float(weights @ (kernel.eval(arg) * spec.weight_values(points)))


def _plain_rows(kernel, rows):
    """Rows of a stack (R, m+1) whose cover is R_m itself.

    Restates the tests of split_by_kink and graded_pieces: a kinked
    kernel's row is plain when every node keeps one strict sign after the
    snap to zero and grading would place no cut. Every row of a kernel
    without a kink is plain.
    """
    if not kernel.singular_at_zero:
        return np.ones(rows.shape[0], dtype=bool)
    mag = np.abs(rows)
    top = mag.max(axis=1)
    ell = np.where(mag <= (_SNAP * np.maximum(1.0, top))[:, None], 0.0, rows)
    one_sign = (ell > 0.0).all(axis=1) | (ell < 0.0).all(axis=1)
    # graded_pieces places no cut; its earlier exit at
    # delta >= GRADE_THRESHOLD * top implies this test.
    uncut = mag.min(axis=1) * GRADE_FACTOR >= top * GRADE_THRESHOLD
    return one_sign & uncut


def _plain_values(spec, rows, q):
    """Level-q values of plain rows (R, m+1), all from one rule on R_m.

    The affine argument is an elementwise sum over the m columns, not a
    matmul, and each value is its row's own dot product with the weights,
    so no row's bits depend on the other rows of the stack.
    """
    points, weights = subsimplex_rule(_simplex_vertices(spec.m), q)
    steps = rows[:, 1:] - rows[:, :1]
    dot = steps[:, :1] * points[:, 0]
    for j in range(1, spec.m):
        dot = dot + steps[:, j : j + 1] * points[:, j]
    vals = spec.kernel.eval(rows[:, :1] + dot) * spec.weight_values(points)
    return [float(weights @ row) for row in vals]


def momentum_quadrature(spec, x, tol=1e-9):
    """Evaluate the momentum by adaptive simplex quadrature.

    x is one row of m+1 arguments, giving a float, or a stack (R, m+1),
    giving R values. Each row escalates the per-axis order until two
    successive levels agree within the absolute tolerance. Plain rows
    (see _plain_rows) share one rule per ladder level; the others sum
    over their kink and grading pieces. Raises QuadratureError, naming
    the row, when the 40-node cap is reached without agreement.
    """
    x = np.asarray(x, dtype=float)
    rows = x.reshape(1, -1) if x.ndim == 1 else x
    if rows.ndim != 2 or rows.shape[1] != spec.m + 1:
        raise ValidationError(
            f"momentum of order {spec.m} takes {spec.m + 1} arguments, got {x.shape}"
        )
    check_within(rows, spec.kernel.domain, "arguments")
    tol = float(tol)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"quadrature tol must be finite and positive, got {tol}")

    plain = _plain_rows(spec.kernel, rows)
    pieces = {
        i: [sub for piece in split_by_kink(rows[i]) for sub in graded_pieces(piece)]
        for i in np.flatnonzero(~plain).tolist()
    }
    values = np.empty(rows.shape[0])
    todo = np.arange(rows.shape[0])
    previous = None
    change = np.full(todo.size, math.inf)
    for q in ORDER_LADDER:
        current = np.empty(todo.size)
        shared = plain[todo]
        if shared.any():
            current[shared] = _plain_values(spec, rows[todo[shared]], q)
        for j in np.flatnonzero(~shared).tolist():
            i = int(todo[j])
            current[j] = sum(_piece_value(spec, piece, rows[i], q) for piece in pieces[i])
        if previous is not None:
            change = np.abs(current - previous)
            done = change <= np.maximum(tol, 1e-14 * (1.0 + np.abs(current)))
            values[todo[done]] = current[done]
            todo, current, change = todo[~done], current[~done], change[~done]
            if not todo.size:
                return float(values[0]) if x.ndim == 1 else values
        previous = current
    i = int(todo[0])
    raise QuadratureError(
        f"momentum quadrature of order {spec.m} at nodes {rows[i].tolist()} did not "
        f"reach tol={tol} within the {q}-node axis cap (last change {change[0]:.3e})",
        nodes=rows[i].copy(),
        order=spec.m,
        level=q,
        change=float(change[0]),
    )


def momentum_eval(spec, x, tol=1e-9):
    """Momentum value at x; divided-difference route when available.

    x may also be a stack of rows (R, m+1), giving R values. Quadrature
    then takes the stack of distinct rows in one call, rows of a
    constant-weight (hence symmetric) momentum being sorted first.
    """
    x = np.asarray(x, dtype=float)
    const = spec.constant_weight
    if spec.origin is not None and const is not None:
        from .divided import divided_difference  # deferred: circular otherwise

        return const * divided_difference(spec.origin, x, quad_tol=tol)
    if x.ndim != 2:
        return momentum_quadrature(spec, x, tol=tol)
    if const is not None:
        x = np.sort(x, axis=1)
    return map_distinct_rows(lambda rows: momentum_quadrature(spec, rows, tol=tol), x)


def momentum_perturbation_pair(spec):
    """Companion spec psi with one more argument and kernel h'.

    psi satisfies psi(x_0, x_1, y_1, ..., y_m) = the first divided
    difference of x -> phi(x, y_1, ..., y_m) taken at (x_0, x_1), which
    is the scalar identity behind the operator perturbation formula. The
    weight of psi reuses Q with its first barycentric slot split in two:
    s_0 becomes s_0' + s_1', expanded binomially into monomials.
    """
    kernel = spec.kernel
    try:
        new_kernel = kernel.derivative_model(1)
    except UnsupportedConfigError as exc:
        raise UnsupportedConfigError(
            "perturbation companion needs a differentiable kernel model"
        ) from exc
    if getattr(new_kernel, "beta", 0.0) <= -1.0:
        raise UnsupportedConfigError(
            "kernel derivative is not integrable; cannot form the companion"
        )

    new_terms = []
    for alpha, coef in spec.q_terms:
        a0, rest = alpha[0], alpha[1:]
        for i in range(a0 + 1):
            c = coef * math.comb(a0, i)
            new_terms.append(((i, a0 - i) + rest, c))

    origin = None
    if spec.origin is not None and spec.m + 1 <= spec.origin.max_order:
        origin = spec.origin
    return MomentumSpec(
        m=spec.m + 1, kernel=new_kernel, q_terms=tuple(new_terms), origin=origin
    )
