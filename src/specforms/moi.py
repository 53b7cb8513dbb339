"""Multiple operator integrals on Hermitian matrices.

For decompositions H_0, ..., H_m, perturbations V_1, ..., V_m, and a
scalar symbol phi of m+1 variables, the operator integral is the
eigenprojection series

    T_phi(V_1, .., V_m)
        = sum over index tuples of phi(lam^0_{i_0}, ..., lam^m_{i_m})
          P^0_{i_0} V_1 P^1_{i_1} ... V_m P^m_{i_m}.

moi_exact and moi_binned integrate each symbol c * f^[k] of one function
f, a divided difference (c = 1) or a momentum of its origin, by the
Sylvester recurrence (_sylvester_core), which sums its near pairs itself
(_near_pairs) and builds no tensor; a near pair's inner rows far from their
pivot take the quotient of Loewner values the recurrence already has, so
only rows whose nodes are all close evaluate f^[2]. A separable symbol
and the monomial shift of a symbol take the symbol tensor (_tensor_core):
its values at every index tuple (_phi_tensor), contracted against the
rotated perturbations with einsum (_contract).
The tensor is evaluated in blocks of index tuples, each handed over as the
transpose of its column stack: a separable symbol sums term by term, and
a shift (algebraic_shift) multiplies each slot's powers, taken once per
eigenvalue, onto the symbol's values.
The recurrence keeps its last Loewner values, keyed by the model, the
weight c, the tolerance and the bits of the eigenvalue pairs, so that
forms of several orders on one base evaluate them once. The model's class
fixes its domain, so the key need not carry it.

perturbation_identity takes two integrals: T_A on (A, H_1..H_m), and its
companion psi = c * f^[m+1] on (A, B, H_1..H_m), whose recurrence hands
back its block (1, m+1), the core of T_B, beside its top block.

Any decomposition and any perturbation may be a stack of one common
length S, and a slot holding one matrix broadcasts against the stacks:
one call then evaluates the S integrals.

The slots of a request (moi_separable builds one), of
perturbation_identity and of forms.holder_difference_norms are prepared
in one place (_prepared_slots): one dimension, one stack length, Hermitian
matrices and finite perturbations are checked before anything is
decomposed, and the raw matrices among the decomposition slots go through
one eigendecompose call, a decomposition being reused. An error names the slot
("decomposition j" or "perturbation j" of a request) and a member of a
stack by its index. A request on slots so prepared is made by
MoiRequest._prepared, which checks nothing again.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .divided import DividedDifference, divided_difference
from .errors import UnsupportedConfigError, ValidationError
from .functions import Polynomial, PowerKernel, as_kernel
from .momenta import MomentumSpec, momentum_eval, momentum_perturbation_pair
from .spectral import (
    SpectralDecomposition,
    _check_finite,
    _check_hermitian,
    _symmetrized,
    eigendecompose,
)
from .util import (
    QUAD_TOL,
    adjoint,
    argument_rows,
    as_complex_matrices,
    as_sequence,
    checked_tol,
    frobenius,
    instance_of,
    numeric_array,
    real_number,
    whole_number,
)

MAX_ORDER = 3
# Index tuples per block of a symbol tensor, one symbol call each: an
# order-3 tensor at dim 64 has 16.8M of them, which are never held as one
# row stack. A stack of integrals goes in groups of tensors this size, and
# the recurrence's near pairs in groups whose weights number no more.
CHUNK_ROWS = 1 << 16
# A pair of eigenvalues x, y of slots two or more apart is too close to
# divide by in the Sylvester recurrence when |x - y| < NEAR_PAIR (1 + |x| + |y|).
NEAR_PAIR = 1e-2
# The key and values of the recurrence's last Loewner rows: forms of several
# orders on one base ask for them again. The pair is swapped as one
# reference, so each thread of the driver pool reads a matching pair.
_last_loewner = (None, None)


def _prepared_slots(items, perturbations, names):
    """(decompositions, perturbations, stack length) of an integral's slots.

    Each item is a matrix, a stack (S, n, n) of matrices, or the
    decomposition of either, a matrix checked Hermitian once; each
    perturbation is a matrix or a stack of S, with finite entries. All slots
    must share one dimension and one stack length S, checked before anything
    is decomposed; the length is None when no slot is a stack. The matrices
    and stacks among the items then go through one eigendecompose call, as
    one HermitianMatrix, each item taking its member or sub-stack of the
    result, and a decomposition is reused. An error on a slot names it by
    names[i], the items' names followed by the perturbations', and a member
    of a stack by its index.
    """
    split = len(items)
    slots, raw, dims, stacks = list(items) + list(perturbations), [], [], []
    for i, (name, item) in enumerate(zip(names, slots, strict=True)):
        if i >= split:
            slots[i] = _check_finite(as_complex_matrices(item, name), name)
        elif not isinstance(item, SpectralDecomposition):
            slots[i] = _check_hermitian(item, name)
            raw.append(i)
        shape = getattr(slots[i], "eigenvectors", slots[i]).shape
        dims.append(shape[-1])
        stacks.append(shape[0] if len(shape) == 3 else None)
    if len(set(dims)) > 1:
        odd = next(i for i, n in enumerate(dims) if n != dims[0])
        raise ValidationError(
            f"all matrices must share one dimension, got {set(dims)}: "
            f"{names[odd]} has {dims[odd]}, {names[0]} has {dims[0]}"
        )
    lengths = set(stacks) - {None}
    if len(lengths) > 1:
        raise ValidationError(f"stacks differ in length: {sorted(lengths)}")
    if raw:
        n = dims[0]
        joined = np.concatenate([slots[i].reshape(-1, n, n) for i in raw])
        fresh = eigendecompose(_symmetrized(joined))
        lo = 0
        for i in raw:
            count = stacks[i]
            slots[i] = fresh[lo] if count is None else fresh[lo : lo + count]
            lo += 1 if count is None else count
    return tuple(slots[:split]), tuple(slots[split:]), (lengths.pop() if lengths else None)


def _along(slots, index):
    """Each slot, a decomposition or matrices, at the int array `index` along
    its member axis; a slot of one matrix passes through, to broadcast."""
    return tuple(x[index] if getattr(x, "eigenvectors", x).ndim == 3 else x for x in slots)


@dataclass(frozen=True)
class SeparableSymbol:
    """phi(x_0..x_m) = sum_t w_t * a_{t,0}(x_0) * ... * a_{t,m}(x_m)."""

    terms: tuple  # of (weight, (model_or_callable, ...))

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("separable symbol needs at least one term")
        if not all(isinstance(t, (tuple, list)) and len(t) == 2 for t in self.terms):
            raise ValidationError(
                f"separable terms must be (weight, factors) pairs, got {self.terms!r:.80}"
            )
        sizes = {len(fns) for _, fns in self.terms}
        if len(sizes) != 1:
            raise ValidationError("all separable terms must share one arity")
        terms = tuple(
            (real_number(w, "separable weight"), tuple(as_kernel(f) for f in fns))
            for w, fns in self.terms
        )
        if not all(math.isfinite(w) for w, _ in terms):
            raise ValidationError(f"separable weights must be finite, got {[w for w, _ in terms]}")
        object.__setattr__(self, "terms", terms)

    @property
    def order(self):
        return len(self.terms[0][1]) - 1

    def __call__(self, values):
        """Value at one argument tuple, or at each row of a stack (R, m+1)."""
        values = argument_rows(values, self.order + 1)
        total = 0.0
        for w, fns in self.terms:
            prod = w
            for fn, x in zip(fns, values.T):
                prod = prod * fn.eval(x)
            total = total + prod
        return total


@dataclass(frozen=True)
class MoiRequest:
    """Decompositions, perturbations, and the symbol tying them together.

    Any perturbation may be a stack (S, n, n) of matrices, and any
    decomposition a stack of S decompositions (a slot riding a moving
    point, or one instance per seed); the integral is then the stack of the
    S integrals. Stacks in several slots have one length and pair up index
    by index; a slot holding one matrix serves every index. The symbol is a
    divided difference, a momentum or a separable symbol, refused as anything
    else before any slot is checked, and its order is the count of
    perturbations. A divided difference or a momentum is integrated by the
    Sylvester recurrence, a separable symbol through its tensor.
    """

    decompositions: tuple
    perturbations: tuple
    symbol: object
    tol: float = QUAD_TOL

    def __post_init__(self):
        instance_of(self.symbol, (DividedDifference, MomentumSpec, SeparableSymbol), "symbol")
        for name in ("decompositions", "perturbations"):
            object.__setattr__(self, name, as_sequence(getattr(self, name), name))
        m = len(self.perturbations)
        if len(self.decompositions) != m + 1:
            raise ValidationError(
                f"{m} perturbations need {m + 1} decompositions, "
                f"got {len(self.decompositions)}"
            )
        if not 1 <= m <= MAX_ORDER:
            raise ValidationError(f"operator integral order {m} outside 1..{MAX_ORDER}")
        if self.symbol.order != m:
            raise ValidationError(f"symbol takes {self.symbol.order + 1} arguments, got {m + 1}")
        object.__setattr__(self, "tol", checked_tol(self.tol))
        names = [f"decomposition {j}" for j in range(m + 1)]
        names += [f"perturbation {j}" for j in range(m)]
        decs, perts, _ = _prepared_slots(self.decompositions, self.perturbations, names)
        vars(self).update(decompositions=decs, perturbations=perts)

    @classmethod
    def _prepared(cls, decompositions, perturbations, symbol, tol):
        """The request on slots as _prepared_slots returns them (1..MAX_ORDER
        perturbations), a symbol of their order and a checked tol, checking
        nothing again."""
        request = object.__new__(cls)
        fields = (tuple(decompositions), tuple(perturbations), symbol, tol)
        vars(request).update(zip(("decompositions", "perturbations", "symbol", "tol"), fields))
        return request

    @property
    def order(self):
        return len(self.perturbations)

    @property
    def dim(self):
        return self.decompositions[0].dim


@dataclass(frozen=True)
class _MonomialShift:
    """algebraic_shift's psi = x_0^{s_0} ... x_m^{s_m} * phi for a symbol phi."""

    symbol: object
    powers: tuple


def _symbol_adapter(symbol, tol):
    """The symbol, of a kind MoiRequest takes, as one evaluator mapping a row
    stack (R, m+1) to R values."""
    if isinstance(symbol, DividedDifference):
        return lambda rows: symbol(rows, quad_tol=tol)
    if isinstance(symbol, MomentumSpec):
        return lambda rows: momentum_eval(symbol, rows, tol=tol)
    return symbol  # a SeparableSymbol


def _checked_values(values, cols, what="symbol"):
    """The values of `what` at the columns of cols (m+1, R), or a
    ValidationError naming it and the first eigenvalue tuple without a
    finite value."""
    finite = np.isfinite(values)
    if not finite.all():
        r = int(np.argmin(finite))
        vals = tuple(float(x) for x in cols[:, r])
        raise ValidationError(f"{what} evaluated to {values[r]} at eigenvalue tuple {vals}")
    return values


def _powers(x, s, j):
    """x**s in Python floats at each eigenvalue of the array x of decomposition
    j, in its shape; the first to overflow raises ValidationError."""
    powers = []
    for v in x.ravel().tolist():
        try:
            powers.append(v**s)
        except OverflowError:
            raise ValidationError(
                f"monomial exponent {s} of decomposition {j} overflows at eigenvalue {v}"
            ) from None
    return np.array(powers).reshape(x.shape)


def _phi_tensor(symbol, eig_sets, tol):
    """The symbol at every index tuple of the eigenvalue sets.

    A set of shape (S, n_j) is a stack, and stacked sets share one length
    S: the tensor then carries a leading axis S, and entry
    (b, i_0, ..., i_m) takes the eigenvalue of each stacked slot from its
    row b. Each slot's eigenvalues are broadcast over the tensor shape, and
    the symbol is evaluated one block at a time: a block fixes the axes
    before a cut axis, takes a slice of the cut axis and keeps every later
    axis whole, CHUNK_ROWS index tuples at most. A block goes to the symbol
    as the transpose of its (m+1, R) column stack. A shift's powers (_powers)
    ride the blocks as further slots, multiplied left to right and then onto
    the symbol's values, as in the product x_0^s_0 * ... * x_m^s_m * phi;
    a product past the float range raises ValidationError naming the
    shift's exponents and the eigenvalue tuple.
    """
    eig_sets = [np.asarray(e) for e in eig_sets]
    lead = next(((len(e),) for e in eig_sets if e.ndim == 2), ())
    shape = lead + tuple(e.shape[-1] for e in eig_sets)
    after = len(eig_sets) - 1
    slots = [  # each slot's eigenvalues along its own axis (and the stack axis)
        e.reshape((e.shape[:-1] or (1,) * len(lead)) + (1,) * j + (-1,) + (1,) * (after - j))
        for j, e in enumerate(eig_sets)
    ]
    count = len(slots)  # the eigenvalue slots; a shift's powers follow them
    if isinstance(symbol, _MonomialShift):
        slots += [_powers(x, s, j) for j, (x, s) in enumerate(zip(slots, symbol.powers))]
        shift = f"symbol times the monomial shift of exponents {symbol.powers}"
        symbol = symbol.symbol
    evaluate = _symbol_adapter(symbol, tol)
    cut = next(c for c in range(len(shape)) if math.prod(shape[c + 1 :]) <= CHUNK_ROWS)
    width = CHUNK_ROWS // math.prod(shape[cut + 1 :])
    # The blocks run in the tensor's C order, each a run of its flat entries.
    phi, start = np.empty(math.prod(shape)), 0
    for head in np.ndindex(shape[:cut]) if cut else [()]:
        # each slot at the head: its own index on an axis where it varies, else 0
        fixed = [tuple(min(i, n - 1) for i, n in zip(head, x.shape)) for x in slots]
        for lo in range(0, shape[cut], width):
            cols = np.empty((len(slots), min(width, shape[cut] - lo)) + shape[cut + 1 :])
            for col, x, at in zip(cols, slots, fixed):
                col[...] = x[at] if x.shape[cut] == 1 else x[at + (slice(lo, lo + width),)]
            cols = cols.reshape(len(slots), -1)
            values = _checked_values(evaluate(cols[:count].T), cols[:count])
            if len(slots) > count:
                with np.errstate(over="ignore", invalid="ignore"):
                    values = functools.reduce(np.multiply, cols[count:]) * values
                values = _checked_values(values, cols[:count], shift)
            phi[start : start + cols.shape[1]] = values
            start += cols.shape[1]
    return phi.reshape(shape)


def _contract(phi, rotated):
    """Core of the integral in the eigenbases, for any number m of rotated
    perturbations: core[a, z] = sum of phi[a, b, .., z] V_1[a, b] ..
    V_m[., z] over the inner indices. phi and the rotated matrices may each
    carry a leading stack axis; stack axes broadcast."""
    axes = "abcdefghijklmnopqrstuvwxyz"[: len(rotated) + 1]
    pairs = ",".join(f"...{x}{y}" for x, y in zip(axes, axes[1:]))
    return np.einsum(f"...{axes},{pairs}->...{axes[0]}{axes[-1]}", phi, *rotated)


def _tensor_core(symbol, tol, eig_sets, rotated):
    """The core of the integral: the symbol tensor contracted with the
    rotated perturbations. A stack of eigenvalue sets goes in groups of
    max(1, CHUNK_ROWS // entries per integral) members, so that no group's
    tensor exceeds CHUNK_ROWS entries unless one integral alone does, and
    each rotated stack is sliced on its member axis, the third from last;
    otherwise one tensor serves every member of a perturbation stack."""
    stack = next((len(e) for e in eig_sets if e.ndim == 2), None)
    size = max(1, CHUNK_ROWS // math.prod(e.shape[-1] for e in eig_sets))
    if stack is None or stack <= size:
        return _contract(_phi_tensor(symbol, eig_sets, tol), rotated)
    cores = [
        _contract(
            _phi_tensor(symbol, [e[lo : lo + size] if e.ndim == 2 else e for e in eig_sets], tol),
            [r[..., lo : lo + size, :, :] if r.ndim > 2 else r for r in rotated],
        )
        for lo in range(0, stack, size)
    ]
    return np.concatenate(cores, axis=-3)


def _near(x, y):
    """Where the eigenvalues x and y are too close to divide by."""
    return np.abs(x - y) < NEAR_PAIR * (1.0 + np.abs(x) + np.abs(y))


def _near_pairs(level, eigs, rots, loewner, parts):
    """The entries of near pairs, summed directly, one array per part.

    Each part (a, b, m, i, l, F) holds entries (m, i, l) of block (a, b),
    b - a = 2 or 3, whose outer eigenvalues x = lam^a_i and z = lam^b_l are
    near, and F = c f^[1](x, z) at each. There c f^[b-a](x, y_1.., z) =
    g^[b-a-2](y_1..), g(y) = c f^[2](x, y, z). At b - a = 2 the entry is
    sum_j V_{a+1}[i, j] g(lam^{a+1}_j) V_{a+2}[j, l]. At b - a = 3 the
    middle weight of inner pair (j, k) is the quotient
    (g(y_j) - g(w_k)) / (y_j - w_k) of g at y = lam^{a+1} and w = lam^{a+2},
    or c f^[3](x, y_j, w_k, z) at a near inner pair.

    g at an inner eigenvalue y far from its pivot p is the table's own
    quotient (F - c f^[1](y, q)) / (p - y), {p, q} = {x, z}, from the
    Loewner values loewner[r] (M, n, n) of block (r, r+1): the last inner
    slot pivots on x and reads c f^[1](y, z) from block (b-1, b), the first
    of two on z and reads c f^[1](x, y) from block (a, a+1). Only the rows
    near their pivot (_near) take the symbol itself: those of all parts in
    one f^[2] call, and the near inner pairs in one f^[3] call, level(L,
    rows) giving the symbol's order-L values at rows (R, L+1). Each entry is
    the contraction (_contract) of its weights with row i of V_{a+1}, the
    middle perturbation and column l of V_b, as for a one-entry integral.
    """
    gathered, fills = [], []  # fills: a g, its rows near their pivot and their nodes
    for a, b, m, i, l, f in parts:
        x, z = eigs[a][m, i, None], eigs[b][m, l, None]
        sides = [(z, loewner[a][m, i, :])] if b - a == 3 else []
        sides.append((x, loewner[b - 1][m, :, l]))
        ys, gs = [], []
        for r, (pivot, other) in zip(range(a + 1, b), sides):
            ys.append(eigs[r][m])
            close = _near(pivot, ys[-1])
            gs.append((f[:, None] - other) / np.where(close, 1.0, pivot - ys[-1]))
            if close.any():
                p, j = spot = np.nonzero(close)
                row = np.stack([x[p, 0], ys[-1][p, j], z[p, 0]], axis=-1)
                fills.append((gs[-1], spot, row))
        gathered.append((x, z, ys, gs))
    if fills:
        values, lo = level(2, np.concatenate([row for _, _, row in fills])), 0
        for g, spot, row in fills:
            g[spot], lo = values[lo : lo + len(row)], lo + len(row)
    weights, quads = [], []  # quads: a middle block, its near inner pairs and their rows
    for x, z, ys, gs in gathered:
        if len(ys) == 1:
            weights.append(gs[0])
            continue
        y, w = ys[0][:, :, None], ys[1][:, None, :]
        close = _near(y, w)
        weights.append((gs[0][:, :, None] - gs[1][:, None, :]) / np.where(close, 1.0, y - w))
        p, j, k = spot = np.nonzero(close)
        if len(p):
            quad = np.stack([x[p, 0], y[p, j, 0], w[p, 0, k], z[p, 0]], axis=-1)
            quads.append((weights[-1], spot, quad))
    if quads:
        values, lo = level(3, np.concatenate([q for _, _, q in quads])), 0
        for middle, spot, q in quads:
            middle[spot], lo = values[lo : lo + len(q)], lo + len(q)
    entries = []
    for (a, b, m, i, l, _), weight in zip(parts, weights):
        chain = [rots[a][..., m, i, None, :]] + [rots[r][..., m, :, :] for r in range(a + 1, b - 1)]
        chain.append(rots[b - 1].swapaxes(-1, -2)[..., m, l, :, None])
        entries.append(_contract(weight[:, None, ..., None], chain)[..., 0, 0])
    return entries


def _sylvester_core(request, eig_sets, rotated, blocks):
    """The core of the integral of c * f^[k], a divided difference (c = 1)
    or a momentum of its origin f, by the Sylvester recurrence, with no
    tensor over k+1 slots.

    Block (a, b) is the core of T_{c f^[b-a]}(V_{a+1}..V_b) on (H_a..H_b).
    Level 1 is the Loewner blocks c f^[1](lam^a_i, lam^{a+1}_l) V_{a+1}[i, l],
    one symbol call evaluating each distinct pair of eigenvalue arrays. As
    (x_0 - x_L) f^[L](x_0..x_L) = f^[L-1](x_0..x_{L-1}) - f^[L-1](x_1..x_L),
    a block of level L >= 2 solves

        (lam^a_i - lam^b_l) B_ab[i, l] = (B_a,b-1 V_b - V_{a+1} B_a+1,b)[i, l],

    except at the near pairs, |lam^a_i - lam^b_l| < NEAR_PAIR (1 + |lam^a_i|
    + |lam^b_l|), whose entries are summed directly (_near_pairs): the near
    pairs of all blocks in turn, in groups whose weights number at most
    CHUNK_ROWS. A near pair's inner rows far from their pivot take the
    table's quotient of Loewner values: those of the blocks (a, a+1) and
    F = c f^[1](x, z) of the pair, x = lam^a_i and z = lam^b_l. F is read
    from the span of the arrays lam^a and lam^b where they form one (a
    shared base adds no row), else it is a row of its own in the one
    level-1 call. Only rows near their pivot take the symbol at order 2.
    Level k takes the request's symbol, each lower level
    c * divided_difference(f, rows), and no symbol is built. Every array has
    a member axis, the stack of eigenvalue sets or one member, which rides
    the matmul batch axis with any stack of the perturbations. The cores of
    the blocks (a, b) in `blocks` return, each with its own integral's bits.
    """
    global _last_loewner
    symbol, k, tol = request.symbol, request.order, request.tol
    momentum = isinstance(symbol, MomentumSpec)
    model, weight = (symbol.origin, symbol.constant_weight) if momentum else (symbol.model, 1.0)
    top = _symbol_adapter(symbol, tol)

    def level(order, rows):
        if order == k:
            return _checked_values(top(rows), rows.T)
        return _checked_values(weight * divided_difference(model, rows, quad_tol=tol), rows.T)

    n = eig_sets[0].shape[-1]
    members = next((len(e) for e in eig_sets if e.ndim == 2), None)
    if members:
        eigs = [e if e.ndim == 2 else np.broadcast_to(e, (members, n)) for e in eig_sets]
        rots = [r if r.ndim == 3 else np.broadcast_to(r, (members, n, n)) for r in rotated]
    else:
        eigs, rots = [e[None] for e in eig_sets], [r[..., None, :, :] for r in rotated]
    close, near = {}, {}  # of each block (a, b) of level 2 or more, and its near pairs
    for span in range(2, k + 1):
        for a in range(k - span + 1):
            close[a, a + span] = c = _near(eigs[a][..., None], eigs[a + span][..., None, :])
            if c.any():
                near[a, a + span] = np.nonzero(c)
    ids = [id(e) for e in eig_sets]
    spans, rows = {}, 0  # each distinct pair: its first slot, member count and first row
    for a in range(k):
        if (ids[a], ids[a + 1]) not in spans:
            count = members if eig_sets[a].ndim + eig_sets[a + 1].ndim > 2 else 1
            spans[ids[a], ids[a + 1]], rows = (a, count, rows), rows + count * n * n
    # F = c f^[1](x, z) of each near pair: its span's value, else a row of its own
    extra, lo = {}, rows  # the first row of each block whose F needs its own
    for a, b in near:
        if (ids[a], ids[b]) not in spans:
            extra[a, b], lo = lo, lo + len(near[a, b][0])
    cols = np.empty((lo, 2))
    for a, count, lo in spans.values():
        pair = cols[lo : lo + count * n * n].reshape(count, n, n, 2)
        pair[..., 0], pair[..., 1] = eig_sets[a][..., None], eig_sets[a + 1][..., None, :]
    for (a, b), lo in extra.items():
        m, i, l = near[a, b]
        cols[lo : lo + len(m), 0], cols[lo : lo + len(m), 1] = eigs[a][m, i], eigs[b][m, l]
    # Kept by the model (whose repr carries every parameter for these two
    # kinds, and whose class fixes its domain), the weight, the tolerance
    # and the bits of the rows, which are pairs: the bytes fix their count.
    known = isinstance(model, (PowerKernel, Polynomial))
    memo = (repr(model), weight, tol, cols.tobytes()) if known else None
    last_key, values = _last_loewner
    if memo is None or memo != last_key:
        values = level(1, cols)
        values.setflags(write=False)
        _last_loewner = (memo, values)
    by_span = {}  # the values of each span, (M, n, n) with M the member count or 1
    for key, (_, count, lo) in spans.items():
        by_span[key] = values[lo : lo + count * n * n].reshape(count, n, n)
        if count < len(eigs[0]):
            by_span[key] = np.broadcast_to(by_span[key], eigs[0].shape + (n,))
    loewner = [by_span[ids[a], ids[a + 1]] for a in range(k)]
    solved = {(a, a + 1): loewner[a] * rots[a] for a in range(k)}
    for (a, b), pairs in near.items():
        lo = extra.get((a, b))
        f = by_span[ids[a], ids[b]][pairs] if lo is None else values[lo : lo + len(pairs[0])]
        near[a, b] = pairs + (f,)
    direct = {key: [] for key in near}
    # pairs per group: each holds at most n^(k-1) weights times any perturbation stack
    size = max(1, CHUNK_ROWS // (max(math.prod(r.shape[:-3]) for r in rots) * n ** (k - 1)))
    ends = list(itertools.accumulate((len(pairs[0]) for pairs in near.values()), initial=0))
    for lo in range(0, ends[-1], size):
        hi = lo + size
        parts = [  # each block's pairs within lo..hi of the list of all
            (a, b) + tuple(p[max(lo - first, 0) : hi - first] for p in pairs)
            for ((a, b), pairs), first, last in zip(near.items(), ends, ends[1:])
            if first < hi and lo < last
        ]
        for (a, b, *_), entries in zip(parts, _near_pairs(level, eigs, rots, loewner, parts)):
            direct[a, b].append(entries)
    for (a, b), c in close.items():
        step = solved[a, b - 1] @ rots[b - 1] - rots[a] @ solved[a + 1, b]
        solved[a, b] = step / np.where(c, 1.0, eigs[a][..., None] - eigs[b][..., None, :])
        if (a, b) in near:
            solved[a, b][(...,) + near[a, b][:3]] = np.concatenate(direct[a, b], axis=-1)
    return tuple(solved[key] if members else solved[key][..., 0, :, :] for key in blocks)


def _integral(request, eig_sets, blocks=None):
    """The integral from the request's matrices and eigenvalue sets, its
    core in the eigenbases taken by the Sylvester recurrence for a divided
    difference or a momentum, else by the symbol tensor. With blocks, a
    tuple of (a, b), the recurrence of c * f^[k] returns the tuple of their
    integrals, T_{c f^[b-a]}(V_{a+1}..V_b) on (H_a..H_b)."""
    decs, wanted = request.decompositions, blocks or ((0, request.order),)
    rotated = [
        adjoint(decs[j].eigenvectors) @ request.perturbations[j] @ decs[j + 1].eigenvectors
        for j in range(request.order)
    ]
    if isinstance(request.symbol, (DividedDifference, MomentumSpec)):
        cores = _sylvester_core(request, eig_sets, rotated, wanted)
    else:
        cores = (_tensor_core(request.symbol, request.tol, eig_sets, rotated),)
    integrals = [
        decs[a].eigenvectors @ c @ adjoint(decs[b].eigenvectors) for (a, b), c in zip(wanted, cores)
    ]
    return tuple(integrals) if blocks else integrals[0]


def moi_exact(request):
    """Dense evaluation of the operator integral."""
    decs = instance_of(request, MoiRequest, "request").decompositions
    return _integral(request, [d.eigenvalues for d in decs])


def binned_eigenvalues(eigenvalues, n):
    """Snap each eigenvalue to the left edge of its bin [l/n, (l+1)/n)."""
    n = whole_number(n, "bin count")
    if n < 1:
        raise ValidationError("bin count must be >= 1")
    eigenvalues = numeric_array(eigenvalues, float, "eigenvalues to bin")
    if not np.isfinite(eigenvalues).all():
        raise ValidationError(f"eigenvalues to bin must be finite, got {eigenvalues}")
    return np.floor(eigenvalues * n) / n


def moi_binned(request, n):
    """Operator integral with the symbol read on the 1/n eigenvalue grid."""
    decs = instance_of(request, MoiRequest, "request").decompositions
    eig_sets = [binned_eigenvalues(d.eigenvalues, n) for d in decs]
    return _integral(request, eig_sets)


def moi_separable(symbol, decompositions, perturbations):
    """Exact product evaluation of a separable symbol.

    sum_t w_t a_0(H_0) V_1 a_1(H_1) ... V_m a_m(H_m), each factor applied
    spectrally. Cross-validates the tensor path without any quadrature.
    The slots are checked and prepared by a MoiRequest, so any of them may
    be a stack of one common length and an error names its slot.
    """
    symbol = instance_of(symbol, SeparableSymbol, "symbol")
    request = MoiRequest(decompositions, perturbations, symbol)
    decs, perts = request.decompositions, request.perturbations
    total = None
    for w, fns in symbol.terms:
        factor = decs[0].compose(fns[0].eval(decs[0].eigenvalues))
        for fn, v, d in zip(fns[1:], perts, decs[1:]):
            factor = factor @ v @ d.compose(fn.eval(d.eigenvalues))
        total = w * factor if total is None else total + w * factor
    return total


def algebraic_shift(request, powers):
    """Both sides of the monomial-shift identity.

    For psi = x_0^{s_0} ... x_m^{s_m} * phi, the integral T_psi equals
    T_phi with H_0^{s_0} multiplied onto the left of V_1 and H_j^{s_j}
    onto the right of V_j. Returns (lhs, rhs) evaluated independently.
    """
    instance_of(request, MoiRequest, "request")
    powers = as_sequence(powers, "monomial exponents")
    powers = tuple(whole_number(s, "monomial exponent") for s in powers)
    if len(powers) != request.order + 1:
        raise ValidationError(
            f"need {request.order + 1} exponents, got {len(powers)}"
        )
    if any(s < 0 for s in powers):
        raise ValidationError("monomial exponents must be >= 0")

    shifted = _MonomialShift(request.symbol, powers)
    lhs = moi_exact(
        MoiRequest._prepared(request.decompositions, request.perturbations, shifted, request.tol)
    )

    decs = request.decompositions
    new_perts = []
    for j, v in enumerate(request.perturbations):
        d = decs[j + 1]
        w = v @ d.compose(d.eigenvalues ** powers[j + 1])
        if j == 0:
            w = decs[0].compose(decs[0].eigenvalues ** powers[0]) @ w
        new_perts.append(w)
    rhs = moi_exact(
        MoiRequest(
            decompositions=decs,
            perturbations=tuple(new_perts),
            symbol=request.symbol,
            tol=request.tol,
        )
    )
    return lhs, rhs


def perturbation_identity(phi_spec, a, b, tail, perturbations, tol=QUAD_TOL):
    """Residual of the first-variable perturbation formula.

    With phi of order m evaluated on (A, H_1..H_m) and on (B, H_1..H_m),
    the difference equals the companion momentum psi of order m+1 on
    (A, B, H_1..H_m) applied to (A - B, V_1..V_m). Returns the Frobenius
    norm of lhs - rhs; psi is built by momentum_perturbation_pair, once
    per call and before any slot is decomposed.

    A, B and each tail may be a matrix, a stack (S, n, n) of matrices, or
    the decomposition of either; each perturbation may be a matrix or a
    stack of S. With a stack anywhere, the call checks S instances, a slot
    holding one matrix serving all of them, and returns the array of their
    S residuals, each the Frobenius norm of its own member; otherwise it
    returns one float. The slots are prepared once: the matrices among A,
    B and the tails are decomposed in one call, the decompositions reused.
    Two integrals of momenta of one origin follow, both by the Sylvester
    recurrence: T_A on (A, H_1..H_m), and psi's on (A, B, H_1..H_m), whose
    blocks (0, m+1) and (1, m+1) are T_psi and T_B, so T_B is not
    integrated again.
    """
    instance_of(phi_spec, MomentumSpec, "phi_spec")
    tail, perts = as_sequence(tail, "tail"), as_sequence(perturbations, "perturbations")
    m = phi_spec.m
    if len(tail) != m or len(perts) != m:
        raise ValidationError(
            f"momentum of order {m} needs {m} trailing decompositions and perturbations"
        )
    if m + 1 > MAX_ORDER:
        raise UnsupportedConfigError(
            f"companion integral order {m + 1} exceeds the supported {MAX_ORDER}"
        )
    psi, tol = momentum_perturbation_pair(phi_spec), checked_tol(tol)

    names = ("A", "B") + tuple(f"tail {j}" for j in range(len(tail)))
    names += tuple(f"perturbation {j}" for j in range(len(perts)))
    (da, db, *tail), perts, stack = _prepared_slots((a, b) + tail, perts, names)
    t_a = moi_exact(MoiRequest._prepared((da, *tail), perts, phi_spec, tol))
    gap = da.source.matrix - db.source.matrix
    companion = MoiRequest._prepared((da, db, *tail), (gap,) + perts, psi, tol)
    eig_sets = [d.eigenvalues for d in companion.decompositions]
    t_psi, t_b = _integral(companion, eig_sets, ((0, m + 1), (1, m + 1)))
    residuals = t_a - t_b - t_psi
    if stack is None:
        return frobenius(residuals)
    return np.array([frobenius(r) for r in residuals])
