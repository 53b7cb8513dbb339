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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, UnsupportedConfigError, ValidationError
from .functions import ScalarFunctionModel, as_kernel
from .simplex import (
    ORDER_LADDER,
    Piece,
    _simplex_vertices,
    graded_pieces,
    join_rule,
    split_by_kink,
    subsimplex_rule,
)
from .util import map_distinct_rows


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


def _check_hull(kernel, x):
    lo, hi = kernel.domain
    if x.min() < lo - 1e-12 or x.max() > hi + 1e-12:
        raise ValidationError(
            f"arguments [{x.min():.6g}, {x.max():.6g}] leave the kernel domain [{lo}, {hi}]"
        )


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


def momentum_quadrature(spec, x, tol=1e-9):
    """Evaluate the momentum by adaptive simplex quadrature.

    Escalates the per-axis order until two successive levels agree within
    the absolute tolerance; raises QuadratureError when the 40-node cap
    is reached without agreement.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.m + 1,):
        raise ValidationError(
            f"momentum of order {spec.m} takes {spec.m + 1} arguments, got {x.shape}"
        )
    _check_hull(spec.kernel, x)
    tol = float(tol)

    if spec.kernel.singular_at_zero:
        pieces = [sub for piece in split_by_kink(x) for sub in graded_pieces(piece)]
    else:
        verts = _simplex_vertices(spec.m)
        pieces = [Piece(verts=verts, ell=x.copy(), sign=int(np.sign(x[0]) or 1))]

    previous = None
    change = math.inf
    for q in ORDER_LADDER:
        value = sum(_piece_value(spec, piece, x, q) for piece in pieces)
        if previous is not None:
            change = abs(value - previous)
            if change <= max(tol, 1e-14 * (1.0 + abs(value))):
                return value
        previous = value
    raise QuadratureError(
        f"momentum quadrature did not reach tol={tol} within the "
        f"{ORDER_LADDER[-1]}-node axis cap (last change {change:.3e})"
    )


def momentum_eval(spec, x, tol=1e-9):
    """Momentum value at x; divided-difference route when available.

    x may also be a stack of rows (R, m+1), giving R values. Quadrature
    then runs once per distinct row, rows of a constant-weight (hence
    symmetric) momentum being sorted first.
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
    return map_distinct_rows(lambda row: momentum_quadrature(spec, row, tol=tol), x)


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
