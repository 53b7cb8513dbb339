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

Quadrature takes one row of arguments or a stack of rows (R, m+1), and
every row takes the one path. The stack is cut once (simplex.split_by_kink
and simplex.graded_pieces): a row that needs no kink split and no
grading, and every row of a kernel without a kink, keeps R_m as its one
piece with no work of its own, and only the other rows are cut. The
pieces are grouped by the rule they take (simplex.group_pieces): plain
pieces, join-rule pieces by kink-face and opposite-face sizes, and pieces
on which the argument vanishes. At each level every group of the rows
still on the ladder builds its rule once and takes its kernel in one call
per chunk of at most CHUNK_NODES nodes; a row's value is the sum of its
pieces' values in order. Every row leaves the ladder on its own test and
keeps the bits of its one-row call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, UnsupportedConfigError, ValidationError
from .functions import ScalarFunctionModel, as_kernel
from .simplex import (
    ORDER_LADDER,
    graded_pieces,
    group_pieces,
    join_rule,
    split_by_kink,
    subsimplex_rule,
)
from .util import check_within, checked_tol, map_distinct_rows, sorted_columns, whole_number

# Nodes per stacked kernel call of a piece group: the graded pieces of one
# row reach about a million nodes at q = 11, which are never held at once.
CHUNK_NODES = 1 << 14


def _normalize_terms(m, q_terms):
    if q_terms is None:
        q_terms = (((0,) * (m + 1), 1.0),)
    terms = []
    for alpha, coef in q_terms:
        alpha = tuple(whole_number(a, "monomial exponent") for a in alpha)
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
        m = whole_number(self.m, "momentum order")
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
        """Evaluate Q at simplex points of shape (..., m)."""
        const = self.constant_weight
        if const is not None:
            return np.full(points.shape[:-1], const)
        lead = 1.0 - points.sum(axis=-1, keepdims=True)
        sbar = np.concatenate([lead, points], axis=-1)
        out = np.zeros(points.shape[:-1])
        for alpha, coef in self.q_terms:
            term = np.full(points.shape[:-1], coef)
            for j, a in enumerate(alpha):
                if a:
                    term = term * sbar[..., j] ** a
            out += term
        return out


def _row_failure(message, row, order, level):
    """A QuadratureError that names the row it was raised on."""
    return QuadratureError(
        f"momentum quadrature of order {order} at nodes {row.tolist()}: {message}",
        nodes=row.copy(),
        order=order,
        level=level,
    )


def _piece_values(spec, groups, rows, owner, todo, q):
    """Level-q value of each piece of the rows todo, by its place in the
    piece list; owner[k] is the row of piece k.

    Each group builds its rule once and takes its kernel in one call per
    chunk of at most CHUNK_NODES nodes; each piece's value is still its
    own dot product with its weights.
    """
    kernel, const = spec.kernel, spec.constant_weight
    active = np.zeros(rows.shape[0], dtype=bool)
    active[todo] = True
    values = np.empty(owner.size)
    size = max(1, CHUNK_NODES // q**spec.m)
    for group in groups:
        group = group[active[owner[group.index]]]
        for lo in range(0, group.index.size, size):
            part = group[lo : lo + size]
            x = rows[owner[part.index]]
            if group.f < 0:  # clear of the kink: the kernel itself
                points, weights = subsimplex_rule(part.verts, q, part.det)
                arg = np.matmul(points, (x[:, 1:] - x[:, :1])[:, :, None])[..., 0]
                arg += x[:, :1]
                vals = kernel.eval(arg)
            elif group.g < 0:  # the argument vanishes on the whole piece
                points, weights = subsimplex_rule(part.verts, q, part.det)
                h0 = kernel.eval(0.0)
                if not np.isfinite(h0):
                    raise _row_failure(
                        "kernel is singular on the whole simplex (all arguments zero)",
                        x[0],
                        spec.m,
                        q,
                    )
                vals = np.full(weights.shape, h0)
            else:  # join rule: the power form on the opposite face
                coef, beta, parity = kernel.power_form
                try:
                    points, weights, lhat = join_rule(part, q, beta, const is None)
                except QuadratureError as exc:
                    raise _row_failure(exc, x[0], spec.m, q) from exc
                smooth = coef * np.abs(lhat) ** beta
                if parity:
                    smooth = smooth * np.sign(lhat)
                vals = np.tile(smooth, weights.shape[1] // smooth.shape[1])
            vals = vals * (const if const is not None else spec.weight_values(points))
            values[part.index] = [float(w @ v) for w, v in zip(weights, vals)]
    return values


def momentum_quadrature(spec, x, tol=1e-9):
    """Evaluate the momentum by adaptive simplex quadrature.

    x is one row of m+1 arguments, giving a float, or a stack (R, m+1),
    giving R values. Each row escalates the per-axis order until two
    successive levels agree within the absolute tolerance. The stack is
    cut into kink and grading pieces once; at each level the pieces of
    the rows still on the ladder are grouped by the rule they take, and a
    row's value is the sum of its pieces in their order. Raises
    QuadratureError naming the row when its pieces cannot be cut or
    integrated, or when the 40-node cap is reached without agreement.
    """
    x = np.asarray(x, dtype=float)
    rows = x.reshape(1, -1) if x.ndim == 1 else x
    if rows.ndim != 2 or rows.shape[1] != spec.m + 1:
        raise ValidationError(
            f"momentum of order {spec.m} takes {spec.m + 1} arguments, got {x.shape}"
        )
    check_within(rows, spec.kernel.domain, "arguments")
    tol = checked_tol(tol)

    # A kernel without a kink takes R_m whole for every row, as for an
    # argument that stays at 1, clear of any kink.
    kink = rows if spec.kernel.singular_at_zero else np.ones_like(rows)
    try:
        pieces = graded_pieces(split_by_kink(kink))
    except QuadratureError as exc:
        raise _row_failure(exc, rows[exc.row], spec.m, ORDER_LADDER[0]) from exc
    groups = group_pieces(pieces)
    # the pieces of row i are pieces[bounds[i] : bounds[i + 1]]
    bounds = np.searchsorted(pieces.row, np.arange(rows.shape[0] + 1))
    values = np.empty(rows.shape[0])
    todo = np.arange(rows.shape[0])
    previous = None
    change = np.full(todo.size, math.inf)
    for q in ORDER_LADDER:
        piece_values = _piece_values(spec, groups, rows, pieces.row, todo, q)
        lo, hi = bounds[todo], bounds[todo + 1]
        current = piece_values[lo]
        for j in np.flatnonzero(hi - lo > 1).tolist():
            current[j] = sum(piece_values[lo[j] : hi[j]].tolist())
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
    constant-weight (hence symmetric) momentum being sorted first by the
    compare-exchange network that divided differences use
    (util.sorted_columns).
    """
    x = np.asarray(x, dtype=float)
    const = spec.constant_weight
    if spec.origin is not None and const is not None:
        from .divided import divided_difference  # deferred: circular otherwise

        return const * divided_difference(spec.origin, x, quad_tol=tol)
    if x.ndim != 2:
        return momentum_quadrature(spec, x, tol=tol)
    if const is not None:
        x = sorted_columns(x).T
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
