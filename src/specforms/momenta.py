"""Momenta: the symbol c * f^[m] of an origin model f, and simplex
quadrature of divided differences. Both rest on the Hermite-Genocchi
formula

    f^[m](x_0, ..., x_m) = integral over S_m of f^(m)(sum_j s_j x_j),

with S_m carrying the usual corner-simplex measure of total mass 1/m!;
neither half calls the other. A MomentumSpec, with kernel f^(m), is a
symbol of operator integrals: momentum_eval evaluates it through
divided_difference, and momentum_perturbation_pair gives its companion
c * f^[m+1] in the perturbation formula.

momentum_quadrature computes f^[k] of a model by quadrature of f^(k), for
divided_difference's near ties. It takes one row of arguments or a stack
of rows (R, k+1), and every row takes the one path. The stack is cut
once (simplex.split_by_kink and simplex.graded_pieces): a row that needs
no kink split and no grading, and every row of a kernel without a kink,
keeps R_k as its one piece with no work of its own, and only the other
rows are cut. The pieces are grouped by the rule they take
(simplex.group_pieces): plain pieces, join-rule pieces by kink-face and
opposite-face sizes, and pieces on which the argument vanishes. At each
level every group of the rows still on the ladder builds its rule once
and takes its kernel in one call per chunk of at most CHUNK_NODES nodes;
a row's value is the sum of its pieces' values in order. Every row
leaves the ladder on its own test and keeps the bits of its one-row call.
"""

import math
from dataclasses import dataclass, field

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
from .util import QUAD_TOL, argument_rows, check_within, checked_tol, instance_of, numeric_array

# Nodes per stacked kernel call of a piece group: the graded pieces of one
# row reach about a million nodes at q = 11, which are never held at once.
CHUNK_NODES = 1 << 14
# Highest order quadrature takes: a level-q rule has q^k nodes per piece.
ORDER_CAP = 4


def _normalize_terms(m, q_terms):
    """The one weight term ((0,) * (m+1), c), c the sum of the coefficients
    of q_terms (1 without terms), each of whose exponents must be zero."""
    zero = (0,) * (m + 1)
    try:
        terms = [(tuple(alpha), float(coef)) for alpha, coef in q_terms or ((zero, 1.0),)]
    except (TypeError, ValueError):
        raise ValidationError(
            f"q_terms must be (exponents, coefficient) pairs, got {q_terms!r:.80}"
        ) from None
    c = 0.0
    for alpha, coef in terms:
        if alpha != zero:
            raise ValidationError(
                f"weight term {alpha} of an order-{m} momentum is not the constant "
                f"{zero}: polynomial weights are retired"
            )
        c += coef
    if not np.isfinite(c):
        raise ValidationError("weight coefficients must be finite")
    return ((zero, c),)


@dataclass(frozen=True)
class MomentumSpec:
    """The symbol c * f^[m] of its origin f: order m, kernel f^(m) and
    constant weight c as q_terms = (((0,) * (m+1), c),). m is a
    divided-difference order of the origin; a kernel whose repr is not
    that of origin.derivative_model(m) raises ValidationError."""

    m: int
    kernel: ScalarFunctionModel
    origin: ScalarFunctionModel = field(repr=False)
    q_terms: tuple = None

    def __post_init__(self):
        origin = as_kernel(self.origin)
        m = _divided_order(origin, self.m, 1)
        derivative = origin.derivative_model(m)
        if self.kernel is not derivative and repr(self.kernel) != repr(derivative):
            raise ValidationError(
                f"kernel {self.kernel!r} of an order-{m} momentum is not the "
                f"derivative {derivative!r} of its origin {origin!r}"
            )
        object.__setattr__(self, "m", m)
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


def _piece_values(kernel, k, groups, rows, owner, todo, q):
    """Level-q value of each piece of the rows todo, by its place in the
    piece list; owner[j] is the row of piece j and k the order.

    Each group builds its rule once and takes its kernel in one call per
    chunk of at most CHUNK_NODES nodes; each piece's value is still its
    own dot product with its weights.
    """
    active = np.zeros(rows.shape[0], dtype=bool)
    active[todo] = True
    values = np.empty(owner.size)
    size = max(1, CHUNK_NODES // q**k)
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
                vals = np.full(weights.shape, kernel.eval(0.0))
            else:  # join rule: the power form on the opposite face
                coef, beta, parity = kernel.power_form
                weights, lhat = join_rule(part, q, beta)
                smooth = coef * np.abs(lhat) ** beta
                if parity:
                    smooth = smooth * np.sign(lhat)
                vals = np.tile(smooth, weights.shape[1] // smooth.shape[1])
            values[part.index] = [float(w @ v) for w, v in zip(weights, vals)]
    return values


def momentum_quadrature(model, x, tol=QUAD_TOL):
    """f^[k] of the model by adaptive simplex quadrature of f^(k).

    x is one row of k+1 arguments, giving a float, or a stack (R, k+1),
    giving R values; k lies in 1..ORDER_CAP and within the model's
    derivative count, so f^(k) is continuous. Each row escalates the
    per-axis order until two successive levels agree within the absolute
    tolerance. The stack is cut into kink and grading pieces once; at each
    level the pieces of the rows still on the ladder are grouped by the
    rule they take, and a row's value is the sum of its pieces in their
    order. Raises QuadratureError naming the row when its pieces cannot be
    cut, or when the 40-node cap is reached without agreement.
    """
    model = as_kernel(model)
    x = numeric_array(x, float, "arguments")
    rows = x.reshape(1, -1) if x.ndim == 1 else x
    if rows.ndim != 2 or not 2 <= rows.shape[1] <= ORDER_CAP + 1:
        raise ValidationError(
            f"momentum quadrature takes rows of 2 to {ORDER_CAP + 1} arguments "
            f"(orders 1..{ORDER_CAP}), got {x.shape}"
        )
    k = _divided_order(model, rows.shape[1] - 1, 1)
    kernel = model.derivative_model(k)
    check_within(rows, model.domain, "arguments")
    tol = checked_tol(tol)

    # A kernel without a kink takes R_k whole for every row, as for an
    # argument that stays at 1, clear of any kink.
    kink = rows if kernel.singular_at_zero else np.ones_like(rows)
    try:
        pieces = graded_pieces(split_by_kink(kink))
    except QuadratureError as exc:  # a cut lost volume: name the row
        row = rows[exc.row]
        raise QuadratureError(
            f"momentum quadrature of order {k} at nodes {row.tolist()}: {exc}",
            nodes=row.copy(),
            order=k,
            level=ORDER_LADDER[0],
        ) from exc
    groups = group_pieces(pieces)
    # the pieces of row i are pieces[bounds[i] : bounds[i + 1]]
    bounds = np.searchsorted(pieces.row, np.arange(rows.shape[0] + 1))
    values = np.empty(rows.shape[0])
    todo = np.arange(rows.shape[0])
    previous = None
    change = np.full(todo.size, math.inf)
    for q in ORDER_LADDER:
        piece_values = _piece_values(kernel, k, groups, rows, pieces.row, todo, q)
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
        f"momentum quadrature of order {k} at nodes {rows[i].tolist()} did not "
        f"reach tol={tol} within the {q}-node axis cap (last change {change[0]:.3e})",
        nodes=rows[i].copy(),
        order=k,
        level=q,
        change=float(change[0]),
    )


def momentum_eval(spec, x, tol=QUAD_TOL):
    """c * f^[m], f the spec's origin, by divided_difference at tolerance tol:
    at one row x of m+1 arguments, a float, or at each row of a stack (R, m+1),
    read by util.argument_rows, the row rule of every symbol."""
    from .divided import divided_difference  # deferred: circular otherwise

    x = argument_rows(x, instance_of(spec, MomentumSpec, "spec").m + 1)
    return spec.constant_weight * divided_difference(spec.origin, x, quad_tol=tol)


def momentum_perturbation_pair(spec):
    """Companion psi = c * f^[m+1] of phi = c * f^[m], f the spec's origin.

    psi satisfies psi(x_0, x_1, y_1, ..., y_m) = the first divided
    difference of x -> phi(x, y_1, ..., y_m) taken at (x_0, x_1), which
    is the scalar identity behind the operator perturbation formula. An
    origin without m + 1 continuous derivatives raises
    UnsupportedConfigError.
    """
    k = _divided_order(instance_of(spec, MomentumSpec, "spec").origin, spec.m + 1, 1)
    q_terms = (((0,) * (k + 1), spec.constant_weight),)
    return MomentumSpec(k, spec.origin.derivative_model(k), spec.origin, q_terms)
