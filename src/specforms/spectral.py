"""Hermitian matrices, eigendecompositions, and Schatten norms.

Everything downstream (operator integrals, derivative forms) works in an
eigenbasis, so this module pins down the conventions once: validated
Hermitian storage, ascending eigenvalues, a deterministic eigenvector
phase (first nonzero component real positive), and scalar functions
applied through the spectral theorem. Decompositions and Schatten norms
take one matrix or a stack of them; a stack goes through one solver call,
and each member keeps the bits of its one-matrix call.
eigendecompose remembers its last decomposition: a call handed the same
shape and bits again returns it without a second solve.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EigenSolverError, ValidationError
from .util import (
    adjoint,
    as_complex_matrices,
    check_within,
    instance_of,
    numeric_array,
    real_number,
    whole_number,
)

HERMITICITY_TOL = 1e-12
RESIDUAL_TOL = 1e-10
# Scalar models are calibrated on this interval; spectra must stay inside.
WORKING_INTERVAL = (-2.0, 2.0)


def _check_hermitian(a, what="matrix"):
    """a as a square complex matrix or stack (B >= 1, n, n) of dimension
    n >= 1, after the entrywise check |A - A*| <= HERMITICITY_TOL (non-finite
    entries fail it): the one rule for a Hermitian input. Each error names
    `what`, and on a stack the offending index."""
    a = as_complex_matrices(a, what)
    if a.shape[-1] < 1:
        raise ValidationError(f"{what} must have dimension >= 1, got shape {a.shape}")
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - adjoint(a))
        if gap.max() <= HERMITICITY_TOL:
            return a
        gap = gap.max(axis=(-2, -1))
    bad = np.flatnonzero(~(gap <= HERMITICITY_TOL))[0]  # some member fails, as the whole did
    where = f" at stack index {bad}" if a.ndim == 3 else ""
    raise ValidationError(
        f"{what}{where} is not Hermitian: max |A - A*| = "
        f"{gap.flat[bad]:.3e} > {HERMITICITY_TOL:.0e}"
    )


def _check_finite(a, what="matrix"):
    """a itself, a matrix or a stack (B, n, n), unless an entry is NaN or
    infinite. An error on a stack names the offending index."""
    if np.isfinite(a).all():
        return a
    bad = np.flatnonzero(~np.isfinite(a).all(axis=(-2, -1)))[0]
    where = f" at stack index {bad}" if a.ndim == 3 else ""
    raise ValidationError(f"{what}{where} has a non-finite entry")


@dataclass(frozen=True)
class HermitianMatrix:
    """A square complex matrix, or a stack (B, n, n) of them, validated to
    be Hermitian by _check_hermitian.

    The stored array is the symmetrized (A + A*)/2 of the input, which
    removes roundoff-level asymmetry once the 1e-12 entrywise check has
    passed, and is marked read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _symmetrized(_check_hermitian(self.matrix)).matrix)

    @property
    def dim(self):
        return self.matrix.shape[-1]

    def to_dict(self):
        """The JSON payload of one matrix, which from_dict reads back."""
        if self.matrix.ndim != 2:
            raise ValidationError(
                f"a payload holds one matrix, got a stack of {self.matrix.shape[0]}"
            )
        return {
            "dim": self.dim,
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data):
        try:
            dim = whole_number(data["dim"], "matrix dimension")
            re = np.asarray(data["re"], dtype=float)
            im = np.asarray(data["im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed matrix payload: {exc}") from exc
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise ValidationError(
                f"matrix payload shapes {re.shape}/{im.shape} do not match dim {dim}"
            )
        return cls(re + 1j * im)


def _checked(a):
    """A HermitianMatrix storing `a` as is: a read-only array (or view) that
    has already passed the check and the symmetrization."""
    member = object.__new__(HermitianMatrix)
    object.__setattr__(member, "matrix", a)
    return member


def _symmetrized(a):
    """The read-only HermitianMatrix of (A + A*)/2, for a matrix or stack
    that has passed _check_hermitian: it is not checked again."""
    sym = (a + adjoint(a)) / 2.0
    sym.setflags(write=False)
    return _checked(sym)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and phase-fixed orthonormal eigenvectors.

    A decomposition of a stack carries the stack axis in front:
    eigenvalues (B, n) and eigenvectors (B, n, n). Indexing it gives a
    member (dec[i]), a sub-stack (dec[i:j]) or the members a 1-D int array
    names (dec[rows]), read-only, with each member's own bits.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: HermitianMatrix = field(repr=False)

    @property
    def dim(self):
        return self.eigenvalues.shape[-1]

    @property
    def stack(self):
        """Number of decomposed matrices of a stack; None for one matrix."""
        return self.eigenvalues.shape[0] if self.eigenvalues.ndim == 2 else None

    def compose(self, values):
        """U diag(values) U*: the matrix with these eigenvalues in this
        eigenbasis (for each matrix of a stack)."""
        u = self.eigenvectors
        return (u * values[..., None, :]) @ adjoint(u)

    def __getitem__(self, index):
        if self.stack is None:
            raise ValidationError("only a stacked decomposition has members")
        rows = isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu"
        one = isinstance(index, (int, np.integer, slice)) and not isinstance(index, bool)
        if not (rows or one):
            raise ValidationError(f"index a stack by an int, slice or 1-D int array, got {index!r}")
        w, u, a = (x[index] for x in (self.eigenvalues, self.eigenvectors, self.source.matrix))
        for x in (w, u, a):
            x.setflags(write=False)
        return SpectralDecomposition(eigenvalues=w, eigenvectors=u, source=_checked(a))


def _fix_phases(u):
    """Rotate each column of a stack (B, n, n) so that its first
    non-negligible entry is real positive. A unit column has an entry of
    modulus at least 1/sqrt(n), so every column has such an entry."""
    first = np.argmax(np.abs(u) > 1e-12, axis=-2)[..., None, :]
    lead = np.take_along_axis(u, first, axis=-2)
    return u * (np.conj(lead) / np.abs(lead))


def _decompose(a):
    """Eigenvalues (B, n) and phase-fixed eigenvectors (B, n, n) of a
    symmetrized stack, from one stacked solver call, with the residual and
    orthogonality checks of each matrix."""
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver did not converge: {exc}") from exc
    u = _fix_phases(u)
    scale = 1.0 + np.abs(w[:, 0]) + np.abs(w[:, -1])
    resid = np.abs((u * w[:, None, :]) @ adjoint(u) - a).max(axis=(-2, -1))
    ortho = np.abs(adjoint(u) @ u - np.eye(a.shape[-1])).max(axis=(-2, -1))
    bad = np.flatnonzero(~((resid <= RESIDUAL_TOL * scale) & (ortho <= RESIDUAL_TOL)))
    if bad.size:
        i = int(bad[0])
        raise EigenSolverError(
            f"eigendecomposition residuals too large at stack index {i} "
            f"(recon {resid[i]:.3e}, ortho {ortho[i]:.3e})",
            residual=max(resid[i], ortho[i]),
            index=i,
        )
    return w, u


# (shape, bytes) of the last decomposed source, and its decomposition. The
# pair is swapped as one reference, so each thread reads a matching pair.
_last = (None, None)


def eigendecompose(h):
    """Spectral decomposition with fixed conventions of a Hermitian matrix,
    or of each matrix of a stack (B, n, n) at once.

    One matrix is decomposed as a stack of one. A stack gives one
    SpectralDecomposition whose arrays carry the stack axis in front; an
    error names the offending stack index.

    Any other input is built into a checked HermitianMatrix first. When
    its symmetrized matrix has the shape and the exact bits (-0.0 is not
    0.0) of the last decomposition's source, that decomposition is
    returned without a solve; a call that raises is not remembered.
    """
    global _last
    if not isinstance(h, HermitianMatrix):
        h = HermitianMatrix(h)
    key = (h.matrix.shape, h.matrix.tobytes())
    last_key, last = _last
    if key == last_key:
        return last
    single = h.matrix.ndim == 2
    w, u = _decompose(h.matrix[None] if single else h.matrix)
    if single:
        w, u = w[0], u[0]
    w.setflags(write=False)
    u.setflags(write=False)
    dec = SpectralDecomposition(eigenvalues=w, eigenvectors=u, source=h)
    _last = (key, dec)
    return dec


@dataclass(frozen=True)
class SchattenExponent:
    """An exponent p in (1, inf) with its differentiability order m.

    m is the unique integer with m < p <= m + 1; the p-th power of the
    Schatten p-norm admits m derivative orders on Hermitian matrices.
    """

    p: float

    def __post_init__(self):
        p = real_number(self.p, "exponent p")
        if not np.isfinite(p) or p <= 1.0:
            raise ValidationError(f"exponent must satisfy 1 < p < inf, got {p}")
        object.__setattr__(self, "p", p)

    @property
    def m(self):
        return int(np.ceil(self.p)) - 1

    @property
    def holder_alpha(self):
        """Residual smoothness p - m, in (0, 1]."""
        return self.p - self.m


def _lp_of_singular_values(s, p):
    """The l^p norm of each row of a stack (B, k) of descending singular
    values, as floats. The largest value of a row is factored out against
    overflow at large p; a row of zeros is divided by 1 and has norm 0. The
    row sums are one reduction over C-ordered rows and each power is taken
    on the row's own scalars, so each norm has the bits of its row alone
    (see util.lp_norms)."""
    if not s.shape[-1]:
        return np.zeros(len(s))
    top = s[:, 0]
    if np.isinf(p):
        return top.astype(float)
    scaled = s / np.where(top == 0.0, 1.0, top)[:, None]
    sums = np.sum(np.ascontiguousarray(scaled) ** p, axis=1)
    return np.array([float(t * u ** (1.0 / p)) for t, u in zip(top, sums)])


def schatten_norm(a, p):
    """Schatten p-norm, the l^p norm of the singular values, p >= 1.

    A stack (B, r, c) gives the array of its B norms: the singular values
    of all members come from one solver call and their norms from one
    reduction, each norm with the bits of its one-matrix call.
    """
    p = real_number(p, "Schatten exponent p")
    if not p >= 1.0:
        raise ValidationError(f"Schatten norm needs p >= 1, got {p}")
    m = numeric_array(getattr(a, "matrix", a), complex, "Schatten norm matrix")
    if m.ndim not in (2, 3):
        raise ValidationError(f"expected a matrix or a stack of them, got shape {m.shape}")
    s = np.linalg.svd(_check_finite(m), compute_uv=False)
    if s.ndim == 1:
        return float(_lp_of_singular_values(s[None], p)[0])
    return _lp_of_singular_values(s, p)


def apply_scalar_function(model, decomp):
    """f(H) = U diag(f(lambda)) U* for a scalar model f (for each matrix of
    a stacked decomposition), symmetrized and so exactly Hermitian. The
    model may be a bare callable; a bad model or decomposition raises ValidationError."""
    from .functions import as_kernel  # deferred: functions imports this module

    decomp = instance_of(decomp, SpectralDecomposition, "decomposition")
    model, lam = as_kernel(model), decomp.eigenvalues
    check_within(lam, model.domain, "values")
    out = _symmetrized(decomp.compose(model.eval(lam)))
    _check_finite(out.matrix, "f(H)")
    return out
