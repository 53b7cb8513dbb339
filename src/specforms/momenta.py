"""Integral momenta over the standard simplex.

A momentum of order m pairs a scalar kernel h with a constant weight c
and maps m+1 real arguments to

    phi(x_0, ..., x_m) = c * integral over S_m of h(sum_j s_j x_j),

with S_m carrying the usual corner-simplex measure of total mass 1/m!.
With h = f^(m), f the spec's origin, this is c * f^[m], the bridge to
operator integrals: the symbol (momentum_eval) and its perturbation
companion c * f^[m+1] are divided differences of f, and quadrature serves
divided_difference's near ties and a kernel without an origin.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import QuadratureError, ValidationError
from .functions import ScalarFunctionModel, _divided_order, as_kernel
from .simplex import (
    ORDER_LADDER,
    graded_pieces,
    group_pieces,
    join_rule,
    split_by_kink,
    subsimplex_rule,
)
from .util import QUAD_TOL, check_within, checked_tol, whole_number

# Nodes per stacked kernel call of a piece group: the graded pieces of one
# row reach about a million nodes at q = 11, which are never held at once.
CHUNK_NODES = 1 << 14


def _normalize_terms(m, q_terms):
    """The one weight term ((0,) * (m+1), c), c the sum of the coefficients
    of q_terms (1 without terms), each of whose exponents must be zero."""
    zero = (0,) * (m + 1)
    c = 0.0
    for alpha, coef in q_terms or ((zero, 1.0),):
        if tuple(alpha) != zero:
            raise ValidationError(
                f"weight term {alpha} of an order-{m} momentum is not the constant "
                f"{zero}: polynomial weights are retired"
            )
        c += float(coef)
    if not np.isfinite(c):
        raise ValidationError("weight coefficients must be finite")
    return ((zero, c),)


@dataclass(frozen=True)
class MomentumSpec:
    """Order m, kernel h, and constant weight c as q_terms = (((0,) * (m+1), c),)."""

    m: int
    kernel: ScalarFunctionModel
    q_terms: tuple = None
    #: model f whose m-th derivative is the kernel: the symbol is c * f^[m];
    #: a spec without one can only be integrated (momentum_quadrature)
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
        k = _divided_order(model, k, 1)
        return cls(m=k, kernel=model.derivative_model(k), origin=model)

    @property
    def order(self):
        return self.m

    @property
    def constant_weight(self):
        """The constant c of the weight."""
        return self.q_terms[0][1]


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
                _, weights = subsimplex_rule(part.verts, q, part.det)
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
                    weights, lhat = join_rule(part, q, beta)
                except QuadratureError as exc:
                    raise _row_failure(exc, x[0], spec.m, q) from exc
                smooth = coef * np.abs(lhat) ** beta
                if parity:
                    smooth = smooth * np.sign(lhat)
                vals = np.tile(smooth, weights.shape[1] // smooth.shape[1])
            vals = vals * const
            values[part.index] = [float(w @ v) for w, v in zip(weights, vals)]
    return values


def momentum_quadrature(spec, x, tol=QUAD_TOL):
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


def _origin(spec):
    """The spec's origin model, or a ValidationError for a spec without one."""
    if spec.origin is None:
        raise ValidationError(
            f"order-{spec.m} momentum of {spec.kernel!r} has no origin model: "
            "integrate its kernel with momentum_quadrature"
        )
    return spec.origin


def momentum_eval(spec, x, tol=QUAD_TOL):
    """c * f^[m], f the spec's origin, by divided_difference at tolerance tol:
    at one row x of m+1 arguments, a float, or at each row of a stack (R, m+1)."""
    from .divided import divided_difference  # deferred: circular otherwise

    origin = _origin(spec)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.m + 1:
        raise ValidationError(
            f"momentum of order {spec.m} takes {spec.m + 1} arguments, got {x.shape}"
        )
    return spec.constant_weight * divided_difference(origin, x, quad_tol=tol)


def momentum_perturbation_pair(spec):
    """Companion psi = c * f^[m+1] of phi = c * f^[m], f the spec's origin.

    psi satisfies psi(x_0, x_1, y_1, ..., y_m) = the first divided
    difference of x -> phi(x, y_1, ..., y_m) taken at (x_0, x_1), which
    is the scalar identity behind the operator perturbation formula. A
    spec without an origin raises ValidationError, and an origin without
    m + 1 continuous derivatives UnsupportedConfigError.
    """
    psi = MomentumSpec.from_divided_difference(_origin(spec), spec.m + 1)
    return replace(psi, q_terms=(((0,) * (psi.m + 1), spec.constant_weight),))
