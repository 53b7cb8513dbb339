"""Quadrature geometry on the corner simplex R_m = {s >= 0, sum(s) <= 1}.

Integrals over the standard simplex in barycentric form,

    integral over R_m of  h(x_0 + sum_j s_j (x_j - x_0)) ds,

are computed with product Gauss rules transported from the unit cube by
the collapsing (Duffy) map. The affine argument of h takes the value x_j
at the j-th vertex of R_m, so when the x_j straddle zero and h kinks at
the origin, R_m is cut along the hyperplane where the argument vanishes
and each side is covered by its staircase triangulation. Sub-simplices
that touch the kink get a radial Gauss-Jacobi rule whose weight absorbs
an algebraic |argument|^beta factor exactly; everything else uses plain
Gauss nodes.

This module holds the geometry and the rules only. split_by_kink and
graded_pieces cover every row of a stack at once: one snap and one sign
test pick the rows to cut, one grading test the pieces to grade, and the
other rows keep R_m as their one piece with no work of their own. One
stacked cut (_cut) splits a whole stack of pieces, each by its own
hyperplane: the kink split is one such cut, and grading one per level.
The pieces form one stacked record (Pieces) carrying their |det| and their
row, group_pieces stacks them by the rule they take, and both rules map
onto a whole stack at once. The one quadrature engine built on them is
momenta.momentum_quadrature, which escalates the per-axis order along
ORDER_LADDER.
"""

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, ValidationError
from .util import gauss01

# Escalation ladder for the per-axis order; stop once two successive
# levels agree within tolerance.
ORDER_LADDER = (4, 6, 8, 11, 15, 20, 27, 34, 40)

_SNAP = 1e-13


@lru_cache(maxsize=None)
def corner_rule(dim, q):
    """Product Gauss rule on {u >= 0, sum(u) <= 1}; total mass 1/dim!."""
    dim = int(dim)
    if dim == 0:
        nodes = np.zeros((1, 0))
        weights = np.ones(1)
    else:
        x, w = gauss01(q)
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
class Pieces:
    """Sub-simplices of R_m, stacked, with affine values of the kink argument.

    verts (P, m+1, m) holds the vertex coordinates, ell (P, m+1) the
    argument at each vertex (exact zeros mark the kink face), sign (P,)
    the side of the kink each piece lies on (+1, -1, or 0 where the
    argument vanishes identically), det (P,) the |det| of the edges
    verts[1:] - verts[0], and row (P,) the row of the stack given to
    split_by_kink that the piece covers. The pieces of a row are
    contiguous and in the order of their cuts.
    """

    verts: np.ndarray
    ell: np.ndarray
    sign: np.ndarray
    det: np.ndarray
    row: np.ndarray

    def __len__(self):
        return self.row.size

    def __getitem__(self, keep):
        """The pieces selected by a mask, an index array or a slice."""
        return Pieces(*(getattr(self, f.name)[keep] for f in fields(self)))


@lru_cache(maxsize=None)
def _simplex_vertices(m):
    verts = np.vstack([np.zeros((1, m)), np.eye(m)])
    verts.setflags(write=False)
    return verts


@lru_cache(maxsize=None)
def _staircases(ns, nz, no):
    """Vertex indices (paths, m+1) of the staircase simplices of both sides.

    The indices point into the table [S, Z, O, cut points] of a piece in
    _cut, the cut point on the edge S[i]-O[k] being row m+1 + i*no + k. On
    the side of S, grid point (i, 0) is S[i] and (i, j) the cut point on
    the edge S[i]-O[j-1]; each monotone lattice path from (0, 0) to
    (ns-1, no), joined with Z, is one simplex. The side of O swaps S and O.
    """
    cuts = ns + nz + no + np.arange(ns * no).reshape(ns, no)
    zero = np.arange(ns, ns + nz)
    sides = []
    for grid in (
        np.column_stack([np.arange(ns), cuts]),
        np.column_stack([ns + nz + np.arange(no), cuts.T]),
    ):
        rows, cols = grid.shape
        steps = rows + cols - 2
        paths = []
        for down in itertools.combinations(range(steps), rows - 1):
            i = np.cumsum([0] + [step in down for step in range(steps)])
            paths.append(np.concatenate([grid[i, np.arange(steps + 1) - i], zero]))
        paths = np.array(paths)
        paths.setflags(write=False)
        sides.append(paths)
    return tuple(sides)


def _cut(pieces, d, level, what):
    """Every piece of a stack split into its parts on {d >= 0} and {d <= 0}.

    d (P, m+1) holds the signed affine values that define each cut, level
    (P,) the argument value at its cut points. A piece with no vertex on
    one side passes through whole. In the others, with S the vertices
    where d > 0, O those where d < 0 and Z those where d = 0, each side is
    covered by its staircase triangulation (see _staircases), which is
    combinatorially a product of two simplices joined with Z; one group of
    pieces is cut per (|S|, |O|). S, Z and O are each taken by decreasing
    |ell|. Only one path passes through the grid point (i, 0) of the last
    row, so the vertex nearest the kink on each side lies in a single
    part, and grading refines that part alone.

    Returns (parts, parent, side): the parts with the sign and row of
    their piece, ordered by piece, side ({d >= 0} first) and path; the
    index of each part's piece; and +1 or -1 for the side of a cut part, 0
    for a whole piece. A cut that loses volume raises QuadratureError
    naming `what` and its row.
    """
    m = d.shape[1] - 1
    cross = (d > 0.0).any(axis=1) & (d < 0.0).any(axis=1)
    whole, cut = np.flatnonzero(~cross), np.flatnonzero(cross)
    order = cut[:, None], np.lexsort((-np.abs(pieces.ell[cut]), np.sign(-d[cut])))
    verts, ell, d = pieces.verts[order], pieces.ell[order], d[order]
    ns, no = (d > 0.0).sum(axis=1), (d < 0.0).sum(axis=1)
    zero = np.zeros_like(whole)
    blocks = [(pieces.verts[whole], pieces.ell[whole], whole, zero, zero)]
    for s, o in sorted(set(zip(ns.tolist(), no.tolist()))):
        group = np.flatnonzero((ns == s) & (no == o))
        v, g, e = verts[group], d[group], ell[group]
        ds, vs = g[:, :s, None], v[:, :s, None]
        do, vo = g[:, None, m + 1 - o :], v[:, None, m + 1 - o :]
        points = vs + (ds / (ds - do))[..., None] * (vo - vs)
        table = np.concatenate([v, points.reshape(group.size, s * o, m)], axis=1)
        values = np.concatenate([e, np.repeat(level[cut[group], None], s * o, axis=1)], axis=1)
        for sign, index in zip((1, -1), _staircases(s, m + 1 - s - o, o)):
            k, size = len(index), group.size
            parts = table[:, index].reshape(-1, m + 1, m), values[:, index].reshape(-1, m + 1)
            keys = np.repeat(cut[group], k), np.full(size * k, sign), np.arange(size * k) % k
            blocks.append(parts + keys)
    verts, ell, parent, side, path = (np.concatenate(b) for b in zip(*blocks))
    edges = verts[whole.size :, 1:] - verts[whole.size :, :1]
    det = np.concatenate([pieces.det[whole], np.abs(np.linalg.det(edges))])
    volume = pieces.det / math.factorial(m)
    total = np.bincount(parent, det, len(pieces)) / math.factorial(m)
    lost = np.flatnonzero(np.abs(total - volume) > 1e-9 * np.maximum(1.0, volume))
    if lost.size:
        k = lost[0]
        raise QuadratureError(
            f"{what} subdivision lost volume: pieces sum to {float(total[k])!r}, "
            f"expected {float(volume[k])!r}",
            row=int(pieces.row[k]),
        )
    order = np.lexsort((path, -side, parent))
    parent = parent[order]
    parts = Pieces(verts[order], ell[order], pieces.sign[parent], det[order], pieces.row[parent])
    return parts, parent, side[order]


def split_by_kink(rows):
    """Cover R_m, for each row of a stack (R, m+1), by sub-simplices
    compatible with the kink of s -> h(ell(s)).

    A row holds the m+1 vertex values of the affine argument (x_j at
    vertex j); values within a snap tolerance of zero are treated as
    exactly zero. The snap and the sign test run once over the stack: a
    row without a sign change is covered by R_m itself, and the rows that
    change sign are cut along {ell = 0} in one _cut, both sides being
    triangulated. A cut that loses volume raises QuadratureError with the
    index of its row.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValidationError(f"need rows of at least two vertex values, got shape {rows.shape}")
    count, m = rows.shape[0], rows.shape[1] - 1
    mag = np.abs(rows)
    ell = np.where(mag <= (_SNAP * np.maximum(1.0, mag.max(axis=1)))[:, None], 0.0, rows)
    pos, neg = (ell > 0.0).any(axis=1), (ell < 0.0).any(axis=1)
    whole = Pieces(
        np.repeat(_simplex_vertices(m)[None], count, axis=0),
        ell,
        pos.astype(int) - neg,
        np.ones(count),
        np.arange(count),
    )
    if not (pos & neg).any():
        return whole
    parts, _, side = _cut(whole, ell, np.zeros(count), "kink")
    return replace(parts, sign=np.where(side != 0, side, parts.sign))


# Grading of same-sign pieces: once the argument's smallest magnitude
# drops below GRADE_THRESHOLD times its largest, the piece is cut along
# level sets |ell| = c spaced by GRADE_FACTOR, so each slab keeps the
# branch point of |ell|^beta at a bounded relative distance and plain
# Gauss nodes converge geometrically again.
GRADE_FACTOR = 3.0
GRADE_THRESHOLD = 1.0 / 3.0


def graded_pieces(pieces):
    """Refine the same-sign pieces of a stack toward the zero locus of
    their argument.

    Grading is keyed on the nonzero vertex magnitudes: for a piece away
    from the kink they control the distance of the branch point from the
    hull, and for a piece touching the kink they control how close the
    outer face comes to the kink plane (the radial Jacobi weight only
    absorbs the singularity along rays). One test over the stack picks
    the pieces whose magnitudes leave a bounded ratio (a piece of sign 0
    has none). Each is replaced in place by its slabs between the levels
    |ell| = delta * GRADE_FACTOR^j below top * GRADE_THRESHOLD, far ones
    first: level by level, the near parts of every such piece are cut in
    one _cut and the far ones set aside. A cut that loses volume raises
    QuadratureError with the index of its row.
    """
    mag = np.abs(pieces.ell)
    top = mag.max(axis=1)
    delta = np.where(mag > 0.0, mag, np.inf).min(axis=1)
    # the levels of each piece from the top down, inf where it has none
    bound, c, levels = top * GRADE_THRESHOLD, delta * GRADE_FACTOR, []
    while (c < bound).any():
        levels.insert(0, np.where(c < bound, c, np.inf))
        c = c * GRADE_FACTOR
    if not levels:
        return pieces
    graded = np.isfinite(levels[-1])
    done, owner = [pieces[~graded]], [np.flatnonzero(~graded)]
    active, own = pieces[graded], np.flatnonzero(graded)
    for c in levels:
        level = active.sign * c[own]
        d = active.ell - level[:, None]
        d = np.where(np.abs(d) <= _SNAP * top[own, None], 0.0, d)
        # a part left whole is near when it reaches below the level towards
        # zero (some d < 0 when positive, d > 0 when negative; always at an
        # infinite level), a cut part when it lies on that side
        whole = np.where(active.sign > 0, (d < 0.0).any(axis=1), (d > 0.0).any(axis=1))
        parts, parent, side = _cut(active, d, level, "graded")
        near = np.where(side == 0, whole[parent], side == -parts.sign)
        done.append(parts[~near])
        owner.append(own[parent[~near]])
        active, own = parts[near], own[parent[near]]
    done.append(active)
    owner.append(own)
    stack = Pieces(*(np.concatenate([getattr(p, f.name) for p in done]) for f in fields(Pieces)))
    return stack[np.argsort(np.concatenate(owner), kind="stable")]


@dataclass(frozen=True)
class PieceGroup:
    """Pieces that take one rule, stacked with their geometry free of q.

    Each member has f + 1 vertices on the kink face (ell == 0) and g + 1
    off it, f + g = m - 1: f = -1 for a piece clear of the kink, which
    takes the plain rule, g = -1 for a piece of sign 0, on which the
    argument vanishes, and both >= 0 for a piece that takes the join rule.
    verts (P, m+1, m) lists each member's kink face, then its opposite
    face, each in the member's own vertex order; gell (P, g+1) holds the
    argument on the opposite face and det (P,) the |det| of the edges of
    the member in its own vertex order. index (P,) places the members in
    the piece list given to group_pieces.
    """

    f: int
    g: int
    index: np.ndarray
    verts: np.ndarray
    gell: np.ndarray
    det: np.ndarray

    def __getitem__(self, keep):
        """The members selected by a mask, an index array or a slice."""
        return PieceGroup(
            self.f, self.g, self.index[keep], self.verts[keep], self.gell[keep], self.det[keep]
        )


def group_pieces(pieces):
    """Stack pieces by face shape (f, g); one PieceGroup per shape, by key."""
    zero = pieces.ell == 0.0
    keys = zero.sum(axis=1) - 1
    # each piece's kink face first, then its opposite face, each in order
    count, m = zero.shape[0], zero.shape[1] - 1
    place = np.argsort(~zero, axis=1, kind="stable") + (m + 1) * np.arange(count)[:, None]
    verts, ell = pieces.verts.reshape(-1, m)[place], pieces.ell.reshape(-1)[place]
    groups = []
    for f in sorted(set(keys.tolist())):
        index = np.flatnonzero(keys == f)
        g = m - 1 - f
        groups.append(PieceGroup(f, g, index, verts[index], ell[index, f + 1 :], pieces.det[index]))
    return groups


def subsimplex_rule(verts, q, det):
    """Plain product Gauss rule mapped onto a sub-simplex (m+1, m).

    verts may also be a stack (P, m+1, m), giving points (P, N, m) and
    weights (P, N). det is the |det| of the edges, one per member.
    """
    m = verts.shape[-1]
    u, w = corner_rule(m, q)
    edges = verts[..., 1:, :] - verts[..., :1, :]
    points = np.matmul(u, edges)
    points += verts[..., :1, :]
    return points, w * np.asarray(det)[..., None]


@lru_cache(maxsize=None)
def _join_base(f, g, q, beta):
    """The member-free part of the join rule: the barycentric map of the
    opposite-face rule, and the product weights flattened with the radial
    index slowest and the opposite-face index fastest."""
    wj = _jacobi01(q, float(f), float(g + beta))[1]
    lam_w = corner_rule(f, q)[1]
    mu_coords, mu_w = corner_rule(g, q)
    weights = (wj[:, None, None] * lam_w[None, :, None] * mu_w[None, None, :]).ravel()
    out = (_barycentric(mu_coords), weights)
    for x in out:
        x.setflags(write=False)
    return out


def join_rule(group, q, beta):
    """Radial Gauss-Jacobi rule on each member of a join group.

    Writes a member as the join of its kink face F (where the affine
    argument is exactly zero) and the opposite face G, with radial
    coordinate r measuring the barycentric weight on G. The argument then
    factors exactly as ell = r * lhat(mu) with mu on G, so a Jacobi weight
    r^(g+beta) (1-r)^f integrates |ell|^beta without sampling the
    singularity. Returns (weights, lhat): weights (P, N), and lhat (P, Ng)
    on the Ng = N / q^(f+1) nodes of G, node k of a member taking
    lhat[k % Ng]. The caller still multiplies by |lhat|^beta and by the
    constant weight.
    """
    f, g = group.f, group.g
    if f < 0 or g < 0:
        raise ValidationError("join rule needs both a kink face and an opposite face")
    if g + beta <= -1.0:
        raise QuadratureError(
            f"kernel exponent {beta} is not integrable against this face"
        )
    mu, weights = _join_base(f, g, q, beta)
    lhat = np.matmul(mu, group.gell[:, :, None])[..., 0]
    return weights * group.det[:, None], lhat


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
