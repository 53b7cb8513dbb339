"""Quadrature geometry on the corner simplex R_m = {s >= 0, sum(s) <= 1}.

Integrals over the standard simplex in barycentric form,

    integral over R_m of  W(s) * h(x_0 + sum_j s_j (x_j - x_0)) ds,

are computed with product Gauss rules transported from the unit cube by
the collapsing (Duffy) map. The affine argument of h takes the value x_j
at the j-th vertex of R_m, so when the x_j straddle zero and h kinks at
the origin, R_m is subdivided along the hyperplane where the argument
vanishes and each side is triangulated. Sub-simplices that touch the
kink get a radial Gauss-Jacobi rule whose weight absorbs an algebraic
|argument|^beta factor exactly; everything else uses plain Gauss nodes.

This module holds the geometry and the rules only. The one quadrature
engine built on them is momenta.momentum_quadrature, which escalates the
per-axis order along ORDER_LADDER.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import Delaunay, QhullError
from scipy.special import roots_jacobi

from .errors import QuadratureError, ValidationError

# Escalation ladder for the per-axis order; stop once two successive
# levels agree within tolerance.
ORDER_LADDER = (4, 6, 8, 11, 15, 20, 27, 34, 40)

_SNAP = 1e-13


@lru_cache(maxsize=None)
def _gauss01(q):
    x, w = np.polynomial.legendre.leggauss(int(q))
    x = (x + 1.0) / 2.0
    w = w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def corner_rule(dim, q):
    """Product Gauss rule on {u >= 0, sum(u) <= 1}; total mass 1/dim!."""
    dim = int(dim)
    if dim == 0:
        nodes = np.zeros((1, 0))
        weights = np.ones(1)
    else:
        x, w = _gauss01(q)
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        cube = np.stack([g.ravel() for g in grids], axis=1)
        wgrids = np.meshgrid(*([w] * dim), indexing="ij")
        weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
        nodes = np.empty_like(cube)
        remaining = np.ones(cube.shape[0])
        jac = np.ones(cube.shape[0])
        for j in range(dim):
            nodes[:, j] = cube[:, j] * remaining
            jac *= remaining
            remaining = remaining * (1.0 - cube[:, j])
        weights = weights * jac
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _barycentric(coords):
    """Append the complementary coordinate 1 - sum as the leading column."""
    lead = 1.0 - coords.sum(axis=1, keepdims=True)
    return np.hstack([lead, coords])


@dataclass(frozen=True)
class Piece:
    """A sub-simplex of R_m with affine values of the kink argument.

    verts: (m+1, m) vertex coordinates, ell: value of the affine argument
    at each vertex (exact zeros mark the kink face), sign: side of the
    kink this piece lies on (+1, -1, or 0 when the argument vanishes
    identically).
    """

    verts: np.ndarray
    ell: np.ndarray
    sign: int

    @property
    def dim(self):
        return self.verts.shape[1]

    @property
    def volume(self):
        d = self.dim
        det = np.linalg.det(self.verts[1:] - self.verts[0]) if d else 1.0
        return abs(det) / _factorial(d)

    @property
    def zero_mask(self):
        return self.ell == 0.0

    @property
    def touches_kink(self):
        return bool(np.any(self.zero_mask))


def _factorial(n):
    return float(math.factorial(n))


def _simplex_vertices(m):
    return np.vstack([np.zeros((1, m)), np.eye(m)])


def _triangulate(points):
    """Triangulate a full-dimensional convex point set, dropping slivers."""
    m = points.shape[1]
    if points.shape[0] == m + 1:
        return [np.arange(m + 1)]
    try:
        tri = Delaunay(points)
    except QhullError:
        tri = Delaunay(points, qhull_options="QJ Pp")
    out = []
    for simplex in tri.simplices:
        det = np.linalg.det(points[simplex[1:]] - points[simplex[0]])
        if abs(det) > 1e-300:
            out.append(np.asarray(simplex))
    return out


def split_by_kink(x):
    """Cover R_m by sub-simplices compatible with the kink of s -> h(ell(s)).

    x holds the m+1 vertex values of the affine argument (x_j at vertex j).
    Without a sign change the cover is R_m itself; otherwise R_m is cut
    along {ell = 0} and both sides are triangulated. Vertex values within
    a snap tolerance of zero are treated as exactly zero.
    """
    x = np.asarray(x, dtype=float)
    m = x.size - 1
    if m < 1:
        raise ValidationError("need at least two vertex values")
    verts = _simplex_vertices(m)
    snap = _SNAP * max(1.0, float(np.max(np.abs(x))))
    ell = np.where(np.abs(x) <= snap, 0.0, x)

    pos = np.flatnonzero(ell > 0.0)
    neg = np.flatnonzero(ell < 0.0)
    zero = np.flatnonzero(ell == 0.0)
    if pos.size == 0 or neg.size == 0:
        sign = 1 if pos.size else (-1 if neg.size else 0)
        return [Piece(verts=verts, ell=ell, sign=sign)]

    cut_pts = []
    for i in pos:
        for j in neg:
            w = (ell[i] * verts[j] - ell[j] * verts[i]) / (ell[i] - ell[j])
            cut_pts.append(w)
    cut_pts = np.asarray(cut_pts)

    pieces = []
    for side, sign in ((pos, 1), (neg, -1)):
        pts = np.vstack([verts[side], verts[zero], cut_pts])
        vals = np.concatenate(
            [ell[side], np.zeros(zero.size), np.zeros(len(cut_pts))]
        )
        if pts.shape[0] < m + 1 or np.linalg.matrix_rank(pts - pts[0]) < m:
            continue
        for idx in _triangulate(pts):
            pieces.append(Piece(verts=pts[idx], ell=vals[idx], sign=sign))
    # Delaunay can emit slivers whose vertices all sit on the cut plane;
    # their volume is pure roundoff and they would confuse the radial rule.
    pieces = [p for p in pieces if p.volume > 1e-12 / _factorial(m)]

    total = sum(p.volume for p in pieces)
    if abs(total - 1.0 / _factorial(m)) > 1e-9:
        raise QuadratureError(
            f"kink subdivision lost volume: pieces sum to {total!r}, "
            f"expected {1.0 / _factorial(m)!r}"
        )
    return pieces


# Grading of same-sign pieces: once the argument's smallest magnitude
# drops below GRADE_THRESHOLD times its largest, the piece is cut along
# level sets |ell| = c spaced by GRADE_FACTOR, so each slab keeps the
# branch point of |ell|^beta at a bounded relative distance and plain
# Gauss nodes converge geometrically again.
GRADE_FACTOR = 3.0
GRADE_THRESHOLD = 1.0 / 3.0


def _split_piece_at_level(piece, level, scale):
    """Cut one piece by the hyperplane ell = level; (near-zero, far) lists."""
    d = piece.ell - level
    d = np.where(np.abs(d) <= 1e-13 * scale, 0.0, d)
    above = np.flatnonzero(d > 0)
    below = np.flatnonzero(d < 0)
    on = np.flatnonzero(d == 0)
    if above.size == 0 or below.size == 0:
        side = [piece]
        none = []
        if piece.sign > 0:
            # for positive pieces, "below the level" is the near-zero side
            return (side, none) if below.size else (none, side)
        return (side, none) if above.size else (none, side)

    cut_pts = []
    for i in above:
        for j in below:
            t = d[i] / (d[i] - d[j])
            cut_pts.append(piece.verts[i] + t * (piece.verts[j] - piece.verts[i]))
    cut_pts = np.asarray(cut_pts)

    sides = {}
    for name, idx in (("above", above), ("below", below)):
        pts = np.vstack([piece.verts[idx], piece.verts[on], cut_pts])
        vals = np.concatenate(
            [piece.ell[idx], piece.ell[on], np.full(len(cut_pts), level)]
        )
        m = piece.dim
        out = []
        if pts.shape[0] >= m + 1 and np.linalg.matrix_rank(pts - pts[0]) >= m:
            for tri in _triangulate(pts):
                sub = Piece(verts=pts[tri], ell=vals[tri], sign=piece.sign)
                if sub.volume > 1e-12 * piece.volume:
                    out.append(sub)
        sides[name] = out
    total = sum(p.volume for p in sides["above"] + sides["below"])
    if abs(total - piece.volume) > 1e-9 * max(1.0, piece.volume):
        raise QuadratureError(
            f"graded subdivision lost volume: pieces sum to {total!r}, "
            f"expected {piece.volume!r}"
        )
    if piece.sign > 0:
        return sides["below"], sides["above"]
    return sides["above"], sides["below"]


def graded_pieces(piece):
    """Refine one same-sign piece toward the zero locus of its argument.

    Grading is keyed on the nonzero vertex magnitudes: for a piece away
    from the kink they control the distance of the branch point from the
    hull, and for a piece touching the kink they control how close the
    outer face comes to the kink plane (the radial Jacobi weight only
    absorbs the singularity along rays). Returns the piece unchanged when
    those magnitudes stay within a bounded ratio or its sign is 0.
    """
    if piece.sign == 0:
        return [piece]
    mag = np.abs(piece.ell)
    nonzero = mag[mag > 0.0]
    if nonzero.size == 0:
        return [piece]
    delta, top = float(nonzero.min()), float(mag.max())
    if delta >= GRADE_THRESHOLD * top:
        return [piece]
    cuts = []
    c = delta * GRADE_FACTOR
    while c < top * GRADE_THRESHOLD:
        cuts.append(c)
        c *= GRADE_FACTOR
    if not cuts:
        return [piece]
    out = []
    active = [piece]
    for c in reversed(cuts):
        level = piece.sign * c
        remaining = []
        for part in active:
            near, far = _split_piece_at_level(part, level, top)
            out.extend(far)
            remaining.extend(near)
        active = remaining
    out.extend(active)
    return out


def subsimplex_rule(verts, q):
    """Plain product Gauss rule mapped onto one sub-simplex."""
    m = verts.shape[1]
    u, w = corner_rule(m, q)
    edges = verts[1:] - verts[0]
    det = abs(np.linalg.det(edges))
    points = verts[0] + u @ edges
    return points, w * det


def join_rule(piece, q, beta):
    """Radial Gauss-Jacobi rule on a sub-simplex touching the kink face.

    Writes the simplex as the join of its kink face F (where the affine
    argument is exactly zero) and the opposite face G, with radial
    coordinate r measuring the barycentric weight on G. The argument then
    factors exactly as ell = r * lhat(mu) with mu on G, so a Jacobi weight
    r^(g+beta) (1-r)^f integrates |ell|^beta without sampling the
    singularity. Returns (points, weights, lhat) where the caller still
    multiplies by the smooth part of the integrand and by |lhat|^beta.
    """
    zmask = piece.zero_mask
    fverts = piece.verts[zmask]
    gverts = piece.verts[~zmask]
    gell = piece.ell[~zmask]
    f = fverts.shape[0] - 1
    g = gverts.shape[0] - 1
    if fverts.shape[0] == 0 or gverts.shape[0] == 0:
        raise ValidationError("join rule needs both a kink face and an opposite face")
    if g + beta <= -1.0:
        raise QuadratureError(
            f"kernel exponent {beta} is not integrable against this face"
        )

    xj, wj = _jacobi01(q, float(f), float(g + beta))
    lam_coords, lam_w = corner_rule(f, q)
    mu_coords, mu_w = corner_rule(g, q)
    a = _barycentric(lam_coords) @ fverts  # (Nf, m)
    b = _barycentric(mu_coords) @ gverts  # (Ng, m)
    lhat = _barycentric(mu_coords) @ gell  # (Ng,)

    r = xj[:, None, None, None]
    points = (1.0 - r) * a[None, :, None, :] + r * b[None, None, :, :]
    weights = (
        wj[:, None, None] * lam_w[None, :, None] * mu_w[None, None, :]
    )
    det = abs(np.linalg.det(piece.verts[1:] - piece.verts[0]))
    m = piece.dim
    lfull = np.broadcast_to(lhat[None, None, :], weights.shape)
    return (
        points.reshape(-1, m),
        (weights * det).ravel(),
        lfull.ravel(),
    )


@lru_cache(maxsize=None)
def _jacobi01(q, alpha, beta):
    """Gauss-Jacobi nodes on [0,1] for weight (1-r)^alpha * r^beta."""
    x, w = roots_jacobi(int(q), alpha, beta)
    r = (x + 1.0) / 2.0
    w = w * 2.0 ** (-(alpha + beta + 1.0))
    r.setflags(write=False)
    w.setflags(write=False)
    return r, w
