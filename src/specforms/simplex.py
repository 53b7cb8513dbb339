"""Quadrature geometry on the corner simplex R_m = {s >= 0, sum(s) <= 1}.

Integrals over the standard simplex in barycentric form,

    integral over R_m of  W(s) * h(x_0 + sum_j s_j (x_j - x_0)) ds,

are computed with product Gauss rules transported from the unit cube by
the collapsing (Duffy) map. The affine argument of h takes the value x_j
at the j-th vertex of R_m, so when the x_j straddle zero and h kinks at
the origin, R_m is cut along the hyperplane where the argument vanishes
and each side is covered by its staircase triangulation. Sub-simplices
that touch the kink get a radial Gauss-Jacobi rule whose weight absorbs
an algebraic |argument|^beta factor exactly; everything else uses plain
Gauss nodes.

This module holds the geometry and the rules only. The one quadrature
engine built on them is momenta.momentum_quadrature, which escalates the
per-axis order along ORDER_LADDER.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


@lru_cache(maxsize=None)
def _staircases(rows, cols):
    """Monotone lattice paths from (0, 0) to (rows-1, cols-1), as index arrays."""
    steps = rows + cols - 2
    paths = []
    for down in itertools.combinations(range(steps), rows - 1):
        i = np.cumsum([0] + [step in down for step in range(steps)])
        paths.append((i, np.arange(steps + 1) - i))
    return tuple(paths)


def _cut(verts, d, vals, level):
    """Both sides {d >= 0} and {d <= 0} of a simplex cut by d = 0.

    verts holds the vertices, d the signed affine values that define the
    cut, vals the kink argument at each vertex; cut points take the
    argument value level. With S the vertices where d > 0, O those where
    d < 0 and Z those where d = 0, grid point (i, 0) is S[i] and (i, j) the
    cut point on the edge S[i]-O[j-1]. Each monotone lattice path through
    the grid, joined with Z, is one simplex of the staircase triangulation
    of the side of S, which is combinatorially a product of two simplices;
    the side of O is built the same way with S and O swapped. Returns two
    lists of (vertices, values) pairs.

    S and O are taken by decreasing |vals|. Only one path passes through
    the grid point (i, 0) of the last row, so the vertex nearest the kink
    on each side lies in a single piece, and grading refines that piece
    alone.
    """
    order = np.argsort(-np.abs(vals), kind="stable")
    verts, d, vals = verts[order], d[order], vals[order]
    s, o, z = d > 0, d < 0, d == 0
    t = (d[s][:, None] / (d[s][:, None] - d[o]))[..., None]
    cut = verts[s][:, None] + t * (verts[o] - verts[s][:, None])
    sides = []
    for near, grid in ((s, cut), (o, cut.transpose(1, 0, 2))):
        pts = np.concatenate([verts[near][:, None], grid], axis=1)
        ell = np.concatenate(
            [vals[near][:, None], np.full(grid.shape[:2], float(level))], axis=1
        )
        sides.append(
            [
                (np.vstack([pts[i, j], verts[z]]), np.concatenate([ell[i, j], vals[z]]))
                for i, j in _staircases(*ell.shape)
            ]
        )
    return sides


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

    pos, neg = np.any(ell > 0.0), np.any(ell < 0.0)
    if not (pos and neg):
        return [Piece(verts=verts, ell=ell, sign=1 if pos else (-1 if neg else 0))]

    upper, lower = _cut(verts, ell, ell, 0.0)
    pieces = [Piece(verts=v, ell=e, sign=1) for v, e in upper]
    pieces += [Piece(verts=v, ell=e, sign=-1) for v, e in lower]

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
    above, below = np.any(d > 0), np.any(d < 0)
    if not (above and below):
        # for positive pieces, "below the level" is the near-zero side
        near = below if piece.sign > 0 else above
        return ([piece], []) if near else ([], [piece])
    upper, lower = (
        [Piece(verts=v, ell=e, sign=piece.sign) for v, e in side]
        for side in _cut(piece.verts, d, piece.ell, level)
    )
    total = sum(p.volume for p in upper + lower)
    if abs(total - piece.volume) > 1e-9 * max(1.0, piece.volume):
        raise QuadratureError(
            f"graded subdivision lost volume: pieces sum to {total!r}, "
            f"expected {piece.volume!r}"
        )
    return (lower, upper) if piece.sign > 0 else (upper, lower)


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
    """Gauss-Jacobi nodes on [0,1] for weight (1-r)^alpha * r^beta.

    Golub-Welsch: the nodes on [-1, 1] are the eigenvalues of the Jacobi
    matrix (diagonal a, off-diagonal b) of the orthonormal polynomials,
    polished by two Newton steps on p_q through the recurrence
    b_(k+1) p_(k+1) = (x - a_k) p_k - b_k p_(k-1) from p_0 = 1. The
    weights are the Christoffel numbers mu_0 / sum_(k<q) p_k(x)^2, where
    mu_0 = B(alpha+1, beta+1) is the mass of the weight on [0, 1].
    """
    k = np.arange(1.0, q + 1.0)
    s = 2.0 * k + alpha + beta
    a = np.append((beta - alpha) / s[0], (beta**2 - alpha**2) / (s * (s + 2.0)))
    b = np.append(0.0, np.sqrt(4 * k * (k + alpha) * (k + beta) * (s - k) / (s**2 * (s**2 - 1))))
    x = np.linalg.eigvalsh(np.diag(a[:q]) + np.diag(b[1:q], 1) + np.diag(b[1:q], -1))
    for newton in (True, True, False):
        p, prev, dp, dprev, norm = np.ones(q), np.zeros(q), np.zeros(q), np.zeros(q), 0.0
        for j in range(q):
            norm = norm + p * p
            p, prev, dp, dprev = (
                ((x - a[j]) * p - b[j] * prev) / b[j + 1],
                p,
                (p + (x - a[j]) * dp - b[j] * dprev) / b[j + 1],
                dp,
            )
        if newton:
            x = x - p / dp
    r = (x + 1.0) / 2.0
    w = math.gamma(alpha + 1.0) * math.gamma(beta + 1.0) / math.gamma(alpha + beta + 2.0) / norm
    r.setflags(write=False)
    w.setflags(write=False)
    return r, w
