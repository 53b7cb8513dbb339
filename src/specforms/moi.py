"""Multiple operator integrals on Hermitian matrices.

For decompositions H_0, ..., H_m, perturbations V_1, ..., V_m, and a
scalar symbol phi of m+1 variables, the operator integral is the
eigenprojection series

    T_phi(V_1, .., V_m)
        = sum over index tuples of phi(lam^0_{i_0}, ..., lam^m_{i_m})
          P^0_{i_0} V_1 P^1_{i_1} ... V_m P^m_{i_m}.

In the eigenbases this is a tensor contraction of the symbol values
against the rotated perturbations, evaluated here with einsum. Symbols
may be divided-difference descriptors, momentum specs, separable sums,
or bare callables. Every kind is evaluated for whole chunks of index
tuples at once, each chunk handed over as the transpose of its column
stack of eigenvalues: divided differences (and constant-weight momenta
with an origin) through divided_difference, separable sums term by term,
other momenta by quadrature and bare callables once per distinct tuple of
the chunk. A divided difference or constant-weight momentum whose slots
all hold one eigenvalue set (per member of a stack) is symmetric: it is
evaluated on the sorted index tuples i_0 <= ... <= i_m alone, whose
eigenvalues are already sorted, and each value fills every permutation of
its tuple, through a cached rank table for a small tensor and by
permutation scatters for a large one. The monomial shift of a symbol
(algebraic_shift) is its tensor times the outer product of the eigenvalue
powers.

Any decomposition and any perturbation may be a stack of one common
length S, and a slot holding one matrix broadcasts against the stacks:
one call then evaluates the S integrals. The symbol tensor carries a
leading stack axis when some decomposition is a stack, its entry
(b, i_0, ..., i_m) reading row b of every stacked eigenvalue set.

The slots of a request, of moi_separable, of perturbation_identity and
of forms.holder_difference_norms are prepared in one place
(_prepared_slots): one dimension and one stack length are checked before
anything is decomposed, and the raw matrices among the decomposition
slots go through one eigendecompose call, a decomposition being reused.
An error names the slot ("decomposition j" or "perturbation j" of a
request) and a member of a stack by its index.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .divided import DividedDifference
from .errors import UnsupportedConfigError, ValidationError
from .functions import as_kernel
from .momenta import MomentumSpec, momentum_eval, momentum_perturbation_pair
from .spectral import SpectralDecomposition, _check_hermitian, _checked, eigendecompose
from .util import (
    adjoint,
    as_complex_matrices,
    checked_tol,
    frobenius,
    map_distinct_rows,
    whole_number,
)

MAX_ORDER = 3
# Index tuples per batched symbol call: an order-3 tensor at dim 64 has
# 16.8M of them, which are never held as one row stack.
CHUNK_ROWS = 1 << 16


def _as_decomposition(obj):
    if isinstance(obj, SpectralDecomposition):
        return obj
    return eigendecompose(obj)


def _prepared_slots(items, perturbations, names):
    """(decompositions, perturbations, stack length) of an integral's slots.

    Each item is a matrix, a stack (S, n, n) of matrices, or the
    decomposition of either; each perturbation is a matrix or a stack of
    S. All slots must share one dimension and one stack length S, checked
    before anything is decomposed; the length is None when no slot is a
    stack. The matrices and stacks among the items then go through one
    eigendecompose call, each item taking its member or sub-stack of the
    result, and a decomposition is reused. An error on a slot names it by
    names[i], the items' names followed by the perturbations', and a
    member of a stack by its index.
    """
    split = len(items)
    slots, raw, dims, stacks = list(items) + list(perturbations), [], [], []
    for i, (name, item) in enumerate(zip(names, slots, strict=True)):
        if isinstance(item, SpectralDecomposition) and i < split:
            dims.append(item.dim)
            stacks.append(item.stack)
            continue
        try:
            slots[i] = as_complex_matrices(item)
        except ValidationError as exc:
            raise ValidationError(f"{name}: {exc}") from exc
        if i < split:
            raw.append(i)
        dims.append(slots[i].shape[-1])
        stacks.append(len(slots[i]) if slots[i].ndim == 3 else None)
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
        try:
            fresh = eigendecompose(np.concatenate([slots[i].reshape(-1, n, n) for i in raw]))
        except ValidationError:
            for i in raw:  # name the argument, not its index in the stack
                _check_hermitian(slots[i], what=names[i])
            raise
        lo = 0
        for i in raw:
            count = stacks[i]
            slots[i] = fresh[lo] if count is None else fresh[lo : lo + count]
            lo += 1 if count is None else count
    return tuple(slots[:split]), tuple(slots[split:]), (lengths.pop() if lengths else None)


def _joined(decs, count):
    """One stacked decomposition of decs in turn, each a stack of `count`
    or the decomposition of one matrix taken `count` times."""
    parts = ([], [], [])
    for d in decs:
        for part, x in zip(parts, (d.eigenvalues, d.eigenvectors, d.source.matrix)):
            part.extend([x] if d.stack is not None else [x[None]] * count)
    w, u, sources = (np.concatenate(part) for part in parts)
    for x in (w, u, sources):
        x.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u, source=_checked(sources))


@dataclass(frozen=True)
class SeparableSymbol:
    """phi(x_0..x_m) = sum_t w_t * a_{t,0}(x_0) * ... * a_{t,m}(x_m)."""

    terms: tuple  # of (weight, (model_or_callable, ...))

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("separable symbol needs at least one term")
        sizes = {len(fns) for _, fns in self.terms}
        if len(sizes) != 1:
            raise ValidationError("all separable terms must share one arity")
        terms = tuple(
            (float(w), tuple(as_kernel(f) for f in fns)) for w, fns in self.terms
        )
        object.__setattr__(self, "terms", terms)

    @property
    def order(self):
        return len(self.terms[0][1]) - 1

    def __call__(self, values):
        """Value at one argument tuple, or at each row of a stack (R, m+1)."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != self.order + 1:
            raise ValidationError(
                f"symbol takes {self.order + 1} arguments, got {values.shape}"
            )
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
    by index; a slot holding one matrix serves every index.
    """

    decompositions: tuple
    perturbations: tuple
    symbol: object
    tol: float = 1e-9

    def __post_init__(self):
        m = len(self.perturbations)
        if len(self.decompositions) != m + 1:
            raise ValidationError(
                f"{m} perturbations need {m + 1} decompositions, "
                f"got {len(self.decompositions)}"
            )
        if not 1 <= m <= MAX_ORDER:
            raise ValidationError(f"operator integral order {m} outside 1..{MAX_ORDER}")
        object.__setattr__(self, "tol", checked_tol(self.tol))
        names = [f"decomposition {j}" for j in range(m + 1)]
        names += [f"perturbation {j}" for j in range(m)]
        decs, perts, _ = _prepared_slots(self.decompositions, self.perturbations, names)
        object.__setattr__(self, "decompositions", decs)
        object.__setattr__(self, "perturbations", perts)

    @property
    def order(self):
        return len(self.perturbations)

    @property
    def dim(self):
        return self.decompositions[0].dim


@dataclass(frozen=True)
class _MonomialShift:
    """psi = x_0^{s_0} ... x_m^{s_m} * phi for a symbol phi."""

    symbol: object
    powers: tuple


def _symbol_adapter(symbol, tol):
    """The symbol as one evaluator mapping a row stack (R, m+1) to R values."""
    if isinstance(symbol, DividedDifference):
        return lambda rows: symbol(rows, quad_tol=tol)
    if isinstance(symbol, MomentumSpec):
        return lambda rows: momentum_eval(symbol, rows, tol=tol)
    if isinstance(symbol, SeparableSymbol):
        return symbol
    if callable(symbol):
        return lambda rows: map_distinct_rows(
            lambda distinct: [symbol(*row) for row in distinct.tolist()], rows
        )
    raise ValidationError(f"cannot interpret {symbol!r} as an integral symbol")


@functools.lru_cache(maxsize=8)
def _sorted_tuples(n, width):
    """The index tuples i_0 <= ... <= i_{width-1} below n, C(n + width - 1,
    width) of them in lexicographic order, as the columns of a read-only
    array of the smallest unsigned type that holds n - 1."""
    cols = np.arange(n)[None]
    for _ in range(width - 1):
        last = cols[-1]
        count = n - last  # continuations last, ..., n - 1 of each tuple
        start = np.cumsum(count) - count
        nxt = np.arange(count.sum()) - np.repeat(start - last, count)
        cols = np.vstack([np.repeat(cols, count, axis=1), nxt])
    cols = cols.astype(np.min_scalar_type(n - 1))
    cols.setflags(write=False)
    return cols


def _scatter_permutations(out, values, idx, base, n):
    """out[base + flat index of each permutation of the tuple idx[:, r]] =
    values[r], for tuples of indices below n (idx of shape (width, R))."""
    width = len(idx)
    # scaled[j][slot]: the flat offset of index idx[j] in that slot
    scaled = [[i * n ** (width - 1 - slot) for slot in range(width)] for i in idx]
    for order in itertools.permutations(range(width)):
        flat = base + scaled[order[0]][0]
        for slot, j in enumerate(order[1:], 1):
            flat += scaled[j][slot]
        out[flat] = values


@functools.lru_cache(maxsize=8)
def _tuple_ranks(n, width):
    """For each flat index of an (n,) * width tensor, the place of its
    sorted index tuple in _sorted_tuples(n, width); read-only."""
    tuples = _sorted_tuples(n, width)
    ranks = np.empty(n**width, dtype=np.intp)
    _scatter_permutations(ranks, np.arange(tuples.shape[1]), tuples.astype(np.intp), 0, n)
    ranks.setflags(write=False)
    return ranks


def _shared_set(symbol, eig_sets):
    """The eigenvalue set (n,) or stack (S, n) that every slot holds, when
    the symbol's value at a tuple is its value at the sorted tuple; else
    None.

    That holds for a divided difference and for a constant-weight momentum,
    which sort their rows first. The set must ascend, so that the index
    tuples i_0 <= ... <= i_k give sorted rows, and must not hold a zero of
    each sign: those compare equal, and the sort keeps their order.
    """
    if not (
        isinstance(symbol, DividedDifference)
        or (isinstance(symbol, MomentumSpec) and symbol.constant_weight is not None)
    ):
        return None
    e = eig_sets[0]
    if e.dtype != float or any(
        x is not e and (x.dtype != e.dtype or x.shape != e.shape or x.tobytes() != e.tobytes())
        for x in eig_sets[1:]
    ):
        return None
    if not (e[..., 1:] >= e[..., :-1]).all():
        return None
    zero = e == 0.0
    if zero.any():
        negative = np.signbit(e)
        if ((zero & negative).any(axis=-1) & (zero & ~negative).any(axis=-1)).any():
            return None
    return e


def _symmetric_phi(evaluate, e, width):
    """Flat tensor of a symmetric symbol whose `width` slots all hold the
    sorted set e (n,) or each member of the stack e (S, n).

    The symbol is evaluated once per member and index tuple i_0 <= ... <=
    i_k, whose eigenvalues are already sorted, in chunks of CHUNK_ROWS
    tuples. A member tensor of at most CHUNK_ROWS entries then gathers its
    values through the cached ranks of its index tuples; a larger one is
    filled chunk by chunk, each value scattered to every permutation of its
    tuple.
    """
    n = e.shape[-1]
    e = e.ravel()
    count = e.size // n
    tuples = _sorted_tuples(n, width)
    gather = n**width <= CHUNK_ROWS
    values = np.empty(count * tuples.shape[1])
    phi = None if gather else np.empty(count * n**width)
    for start in range(0, values.size, CHUNK_ROWS):
        part = slice(start, min(start + CHUNK_ROWS, values.size))
        member, t = np.divmod(np.arange(part.start, part.stop), tuples.shape[1])
        idx = tuples[:, t].astype(np.intp)
        values[part] = evaluate(e[member * n + idx].T)
        if not gather:
            _scatter_permutations(phi, values[part], idx, member * n**width, n)
    if gather:
        return values.reshape(count, -1)[:, _tuple_ranks(n, width)]
    return phi


def _phi_tensor(symbol, eig_sets, tol):
    """The symbol at every index tuple of the eigenvalue sets.

    A set of shape (S, n_j) is a stack, and stacked sets share one length
    S: the tensor then carries a leading axis S, and entry
    (b, i_0, ..., i_m) takes the eigenvalue of each stacked slot from its
    row b. A symmetric symbol whose slots all hold one set is evaluated on
    the sorted index tuples alone (_symmetric_phi); otherwise every index
    tuple is, in chunks of CHUNK_ROWS, each chunk handed to the symbol as
    the transpose of its (m+1, R) column stack.
    """
    eig_sets = [np.asarray(e) for e in eig_sets]
    lead = next(((len(e),) for e in eig_sets if e.ndim == 2), ())
    shape = lead + tuple(e.shape[-1] for e in eig_sets)
    if isinstance(symbol, _MonomialShift):
        # Python-float powers, multiplied left to right and then onto phi:
        # the order of the scalar product x_0^s_0 * ... * x_m^s_m * phi.
        # Each slot's powers lie along its own axis (and the stack axis).
        powers = []
        for j, (e, s) in enumerate(zip(eig_sets, symbol.powers)):
            axes = [1] * len(shape)
            axes[len(lead) + j] = e.shape[-1]
            if e.ndim == 2:
                axes[0] = len(e)
            powers.append(np.reshape([x**s for x in e.ravel().tolist()], axes))
        return functools.reduce(np.multiply, powers) * _phi_tensor(symbol.symbol, eig_sets, tol)
    evaluate = _symbol_adapter(symbol, tol)

    def values(idx):
        """Eigenvalues at an index tuple (of ints, or of index arrays)."""
        head = idx[: len(lead)]
        return [
            e[head + (i,)] if e.ndim == 2 else e[i] for e, i in zip(eig_sets, idx[len(lead) :])
        ]

    shared = _shared_set(symbol, eig_sets)
    if shared is not None:
        phi = _symmetric_phi(evaluate, shared, len(eig_sets))
    else:
        phi = np.empty(math.prod(shape), dtype=float)
        for start in range(0, phi.size, CHUNK_ROWS):
            flat = np.arange(start, min(start + CHUNK_ROWS, phi.size))
            phi[flat] = evaluate(np.stack(values(np.unravel_index(flat, shape))).T)
    phi = phi.reshape(shape)
    finite = np.isfinite(phi)
    if not finite.all():
        idx = tuple(np.argwhere(~finite)[0])
        vals = tuple(float(x) for x in values(idx))
        raise ValidationError(f"symbol evaluated to {phi[idx]} at eigenvalue tuple {vals}")
    return phi


def _contract(phi, rotated):
    """Core of the integral in the eigenbases. phi and the rotated matrices
    may each carry a leading stack axis; stack axes broadcast."""
    m = len(rotated)
    if m == 1:
        return phi * rotated[0]
    if m == 2:
        return np.einsum("...abc,...ab,...bc->...ac", phi, *rotated)
    return np.einsum("...abcd,...ab,...bc,...cd->...ad", phi, *rotated)


def _assemble(request, eig_sets):
    """The integral from the request's matrices and eigenvalue sets.

    When some eigenvalue set is a stack, the stack is evaluated in groups
    of max(1, CHUNK_ROWS // entries per integral) members, every stacked
    set and rotated perturbation sliced alike, so that no group's symbol
    tensor exceeds CHUNK_ROWS entries unless one integral alone does.
    Otherwise one symbol tensor serves every member of a perturbation stack.
    """
    decs = request.decompositions
    rotated = [
        adjoint(decs[j].eigenvectors) @ request.perturbations[j] @ decs[j + 1].eigenvectors
        for j in range(request.order)
    ]
    stack = next((len(e) for e in eig_sets if e.ndim == 2), None)
    if stack is None:
        parts = [slice(None)]
    else:
        size = max(1, CHUNK_ROWS // math.prod(e.shape[-1] for e in eig_sets))
        parts = [slice(lo, lo + size) for lo in range(0, stack, size)]
    cores = [
        _contract(
            _phi_tensor(
                request.symbol, [e[part] if e.ndim == 2 else e for e in eig_sets], request.tol
            ),
            [r[part] if r.ndim == 3 else r for r in rotated],
        )
        for part in parts
    ]
    core = cores[0] if len(cores) == 1 else np.concatenate(cores)
    return decs[0].eigenvectors @ core @ adjoint(decs[-1].eigenvectors)


def moi_exact(request):
    """Dense evaluation of the operator integral."""
    eig_sets = [d.eigenvalues for d in request.decompositions]
    return _assemble(request, eig_sets)


def binned_eigenvalues(eigenvalues, n):
    """Snap each eigenvalue to the left edge of its bin [l/n, (l+1)/n)."""
    n = whole_number(n, "bin count")
    if n < 1:
        raise ValidationError("bin count must be >= 1")
    return np.floor(np.asarray(eigenvalues, dtype=float) * n) / n


def moi_binned(request, n):
    """Operator integral with the symbol read on the 1/n eigenvalue grid."""
    eig_sets = [binned_eigenvalues(d.eigenvalues, n) for d in request.decompositions]
    return _assemble(request, eig_sets)


def moi_separable(symbol, decompositions, perturbations):
    """Exact product evaluation of a separable symbol.

    sum_t w_t a_0(H_0) V_1 a_1(H_1) ... V_m a_m(H_m), each factor applied
    spectrally. Cross-validates the tensor path without any quadrature.
    The slots are prepared as a request's are, so any of them may be a
    stack of one common length and an error names its slot.
    """
    if not isinstance(symbol, SeparableSymbol):
        raise ValidationError("moi_separable needs a SeparableSymbol")
    decompositions, perturbations = tuple(decompositions), tuple(perturbations)
    if len(decompositions) != symbol.order + 1 or len(perturbations) != symbol.order:
        raise ValidationError(
            f"separable symbol of order {symbol.order} needs "
            f"{symbol.order + 1} decompositions and {symbol.order} perturbations"
        )
    names = [f"decomposition {j}" for j in range(len(decompositions))]
    names += [f"perturbation {j}" for j in range(len(perturbations))]
    decs, perts, _ = _prepared_slots(decompositions, perturbations, names)
    total = None
    for w, fns in symbol.terms:
        factor = _spectral_apply(fns[0], decs[0])
        for fn, v, d in zip(fns[1:], perts, decs[1:]):
            factor = factor @ v @ _spectral_apply(fn, d)
        total = w * factor if total is None else total + w * factor
    return total


def _spectral_apply(model, decomposition):
    return decomposition.compose(model.eval(decomposition.eigenvalues))


def _matrix_power_spectral(decomposition, s):
    return decomposition.compose(decomposition.eigenvalues ** int(s))


def algebraic_shift(request, powers):
    """Both sides of the monomial-shift identity.

    For psi = x_0^{s_0} ... x_m^{s_m} * phi, the integral T_psi equals
    T_phi with H_0^{s_0} multiplied onto the left of V_1 and H_j^{s_j}
    onto the right of V_j. Returns (lhs, rhs) evaluated independently.
    """
    powers = tuple(int(s) for s in powers)
    if len(powers) != request.order + 1:
        raise ValidationError(
            f"need {request.order + 1} exponents, got {len(powers)}"
        )
    if any(s < 0 for s in powers):
        raise ValidationError("monomial exponents must be >= 0")

    lhs = moi_exact(
        MoiRequest(
            decompositions=request.decompositions,
            perturbations=request.perturbations,
            symbol=_MonomialShift(request.symbol, powers),
            tol=request.tol,
        )
    )

    decs = request.decompositions
    new_perts = []
    for j, v in enumerate(request.perturbations):
        w = v @ _matrix_power_spectral(decs[j + 1], powers[j + 1])
        if j == 0:
            w = _matrix_power_spectral(decs[0], powers[0]) @ w
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


def perturbation_identity(phi_spec, a, b, tail, perturbations, tol=1e-9):
    """Residual of the first-variable perturbation formula.

    With phi of order m evaluated on (A, H_1..H_m) and on (B, H_1..H_m),
    the difference equals the companion momentum psi of order m+1 on
    (A, B, H_1..H_m) applied to (A - B, V_1..V_m). Returns the Frobenius
    norm of lhs - rhs; psi is built by momentum_perturbation_pair, once
    per call.

    A, B and each tail may be a matrix, a stack (S, n, n) of matrices, or
    the decomposition of either; each perturbation may be a matrix or a
    stack of S. With a stack anywhere, the call checks S instances, a slot
    holding one matrix serving all of them, and returns the array of their
    S residuals, each the Frobenius norm of its own member; otherwise it
    returns one float. The matrices among A, B and the tails are
    decomposed in one call, the decompositions reused. T_A and T_B are one
    integral whose first slot is the stack (A, B) of 2S, every other
    stacked slot taken twice.
    """
    if not isinstance(phi_spec, MomentumSpec):
        raise ValidationError("perturbation identity needs a MomentumSpec symbol")
    tail, perts = tuple(tail), tuple(perturbations)
    if len(tail) != phi_spec.m or len(perts) != phi_spec.m:
        raise ValidationError(
            f"momentum of order {phi_spec.m} needs {phi_spec.m} trailing "
            f"decompositions and perturbations"
        )
    if phi_spec.m + 1 > MAX_ORDER:
        raise UnsupportedConfigError(
            f"companion integral order {phi_spec.m + 1} exceeds the "
            f"supported {MAX_ORDER}"
        )

    names = ("A", "B") + tuple(f"tail {j}" for j in range(len(tail)))
    names += tuple(f"perturbation {j}" for j in range(len(perts)))
    (da, db, *tail), perts, stack = _prepared_slots((a, b) + tail, perts, names)
    half = stack or 1

    def twice(x):
        """A stacked slot taken twice, to pair with the (A, B) stack."""
        if isinstance(x, SpectralDecomposition):
            return x if x.stack is None else _joined((x, x), half)
        return x if x.ndim == 2 else np.concatenate((x, x))

    pair = _joined((da, db), half)
    t_ab = moi_exact(
        MoiRequest((pair, *map(twice, tail)), tuple(map(twice, perts)), phi_spec, tol)
    )
    psi = momentum_perturbation_pair(phi_spec)
    gap = da.source.matrix - db.source.matrix
    t_psi = moi_exact(MoiRequest((da, db, *tail), (gap,) + perts, psi, tol))
    residuals = t_ab[:half] - t_ab[half:] - t_psi
    if stack is None:
        return frobenius(residuals[0])
    return np.array([frobenius(r) for r in residuals])
