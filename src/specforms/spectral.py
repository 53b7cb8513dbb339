"""Hermitian matrices, eigendecompositions, and Schatten norms.

Everything downstream (operator integrals, derivative forms) works in an
eigenbasis, so this module pins down the conventions once: validated
Hermitian storage, ascending eigenvalues, a deterministic eigenvector
phase (first nonzero component real positive), and scalar functions
applied through the spectral theorem. Decompositions, singular values and
Schatten norms take one matrix or a stack of them; a stack goes through
one solver call, and each member keeps the bits of its one-matrix call.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EigenSolverError, ValidationError
from .util import adjoint, as_complex_matrices, check_within

HERMITICITY_TOL = 1e-12
RESIDUAL_TOL = 1e-10
# Scalar models are calibrated on this interval; spectra must stay inside.
WORKING_INTERVAL = (-2.0, 2.0)


def _check_hermitian(a, what="matrix"):
    """a itself, a matrix or a stack (B, n, n), after the entrywise check
    |A - A*| <= HERMITICITY_TOL (non-finite entries fail it). An error on a
    stack names the offending index."""
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - adjoint(a)).max(axis=(-2, -1))
    bad = np.flatnonzero(~(gap <= HERMITICITY_TOL))
    if bad.size:
        where = f" at stack index {bad[0]}" if a.ndim == 3 else ""
        raise ValidationError(
            f"{what}{where} is not Hermitian: max |A - A*| = "
            f"{gap.flat[bad[0]]:.3e} > {HERMITICITY_TOL:.0e}"
        )
    return a


def _hermitian_part(a):
    """(A + A*)/2 of a checked matrix or of each matrix of a stack."""
    _check_hermitian(a)
    return (a + adjoint(a)) / 2.0


@dataclass(frozen=True)
class HermitianMatrix:
    """A square complex matrix, or a stack (B, n, n) of them, validated to
    be Hermitian.

    The stored array is the symmetrized (A + A*)/2 of the input, which
    removes roundoff-level asymmetry once the 1e-12 entrywise check has
    passed, and is marked read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = as_complex_matrices(self.matrix)
        if a.shape[-1] < 1:
            raise ValidationError("matrix must have dimension >= 1")
        sym = _hermitian_part(a)
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

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
            dim = int(data["dim"])
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


def _hermitian_members(stack):
    """The HermitianMatrix of each member of a stack (B, n, n).

    The stack is checked and symmetrized once; each member stores a
    read-only view of the result, with the bits of its own construction.
    """
    return [_checked(a) for a in HermitianMatrix(stack).matrix]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and phase-fixed orthonormal eigenvectors.

    A decomposition of a stack carries the stack axis in front:
    eigenvalues (B, n) and eigenvectors (B, n, n). Indexing it gives a
    member (dec[i]) or a sub-stack (dec[i:j]) as read-only views, with the
    bits of the member's own decomposition.
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
        if not isinstance(index, (int, np.integer, slice)):
            raise ValidationError(f"index a stack by an int or a slice, got {index!r}")
        return SpectralDecomposition(
            eigenvalues=self.eigenvalues[index],
            eigenvectors=self.eigenvectors[index],
            source=_checked(self.source.matrix[index]),
        )


def _fix_phases(u):
    """Rotate each column of a stack (B, n, n) so that its first
    non-negligible entry is real positive."""
    big = np.abs(u) > 1e-12
    first = np.argmax(big, axis=-2)[..., None, :]
    lead = np.take_along_axis(u, first, axis=-2)
    lead = np.where(np.take_along_axis(big, first, axis=-2), lead, 1.0)
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


def eigendecompose(h):
    """Spectral decomposition with fixed conventions of a Hermitian matrix,
    or of each matrix of a stack (B, n, n) at once.

    One matrix is decomposed as a stack of one. A stack gives one
    SpectralDecomposition whose arrays carry the stack axis in front; an
    error names the offending stack index.
    """
    if not isinstance(h, HermitianMatrix):
        h = HermitianMatrix(h)
    single = h.matrix.ndim == 2
    w, u = _decompose(h.matrix[None] if single else h.matrix)
    if single:
        w, u = w[0], u[0]
    w.setflags(write=False)
    u.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u, source=h)


@dataclass(frozen=True)
class SchattenExponent:
    """An exponent p in (1, inf) with its differentiability order m.

    m is the unique integer with m < p <= m + 1; the p-th power of the
    Schatten p-norm admits m derivative orders on Hermitian matrices.
    """

    p: float

    def __post_init__(self):
        p = float(self.p)
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


def singular_values(a):
    """Singular values in descending order of any complex matrix, or of
    each matrix of a stack (B, r, c), from one solver call."""
    m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    if m.ndim not in (2, 3):
        raise ValidationError(f"expected a matrix or a stack of them, got shape {m.shape}")
    return np.linalg.svd(m, compute_uv=False)


def _lp_of_singular_values(s, p):
    if not s.size:
        return 0.0
    if np.isinf(p):
        return float(s[0])
    top = s[0]
    if top == 0.0:
        return 0.0
    # Factor out the largest singular value to avoid overflow for large p.
    return float(top * np.sum((s / top) ** p) ** (1.0 / p))


def schatten_norm(a, p):
    """Schatten p-norm, the l^p norm of the singular values, p >= 1.

    A stack (B, r, c) gives the array of its B norms: the singular values
    of all members come from one solver call, and each norm is the
    expression of its one-matrix call on its own row.
    """
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"Schatten norm needs p >= 1, got {p}")
    s = singular_values(a)
    if s.ndim == 1:
        return _lp_of_singular_values(s, p)
    return np.array([_lp_of_singular_values(row, p) for row in s])


def apply_scalar_function(model, decomp):
    """f(H) = U diag(f(lambda)) U* for a scalar model f (for each matrix of
    a stacked decomposition)."""
    lam = decomp.eigenvalues
    check_within(lam, model.domain, "values")
    out = decomp.compose(model.eval(lam))
    return HermitianMatrix((out + adjoint(out)) / 2.0)
