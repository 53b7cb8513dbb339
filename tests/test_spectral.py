"""Spectral layer: Hermitian storage, decompositions, Schatten norms."""

import numpy as np
import pytest

from specforms import (
    HermitianMatrix,
    Monomial,
    PowerAbs,
    SchattenExponent,
    ValidationError,
    apply_scalar_function,
    eigendecompose,
    schatten_norm,
)
from specforms import spectral
from specforms.errors import EigenSolverError

RTOL = 1e-12


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def test_hermitian_matrix_symmetrizes_and_protects():
    a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 1e-14j, 2.0]])
    h = HermitianMatrix(a)
    np.testing.assert_allclose(h.matrix, h.matrix.conj().T, rtol=0, atol=0)
    assert h.dim == 2
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 5.0


def test_hermitian_matrix_rejects_asymmetry():
    with pytest.raises(ValidationError, match="not Hermitian"):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        HermitianMatrix(np.ones((2, 3)))


def test_hermitian_matrix_dict_round_trip():
    rng = np.random.default_rng(7)
    h = HermitianMatrix(random_hermitian(rng, 4))
    back = HermitianMatrix.from_dict(h.to_dict())
    np.testing.assert_allclose(back.matrix, h.matrix, rtol=0, atol=0)
    with pytest.raises(ValidationError, match="malformed"):
        HermitianMatrix.from_dict({"dim": 2, "re": [[0.0]]})
    with pytest.raises(ValidationError, match="shapes"):
        HermitianMatrix.from_dict({"dim": 3, "re": [[0.0]], "im": [[0.0]]})


def test_stack_has_no_dict_payload():
    # A payload holds one matrix: a stack raises instead of writing one
    # that from_dict would reject, and each member still round-trips.
    rng = np.random.default_rng(8)
    stack = HermitianMatrix(np.stack([random_hermitian(rng, 3) for _ in range(2)]))
    with pytest.raises(ValidationError, match="^a payload holds one matrix, got a stack of 2"):
        stack.to_dict()
    for member in stack.matrix:
        back = HermitianMatrix.from_dict(HermitianMatrix(member).to_dict())
        assert back.matrix.tobytes() == member.tobytes()


def test_eigendecompose_reconstructs():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 8):
        h = random_hermitian(rng, d)
        dec = eigendecompose(h)
        np.testing.assert_allclose(dec.compose(dec.eigenvalues), h, atol=1e-12)
        # ascending eigenvalues, orthonormal columns
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        np.testing.assert_allclose(
            dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(d), atol=1e-12
        )


def test_eigendecompose_phase_is_deterministic():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    u1 = eigendecompose(h).eigenvectors
    u2 = eigendecompose(h.copy()).eigenvectors
    np.testing.assert_array_equal(u1, u2)
    # leading nonzero entry of each column is real nonnegative
    for j in range(5):
        col = u1[:, j]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-14
        assert lead.real > 0


def random_stack(rng, d, count):
    stack = np.stack([random_hermitian(rng, d) for _ in range(count)])
    stack[1] = np.diag(np.round(rng.normal(size=d), 1))  # exact ties, exact vectors
    return stack


def test_stacked_eigendecompose_equals_single_calls_bitwise():
    rng = np.random.default_rng(13)
    for d in (1, 3, 8):
        stack = random_stack(rng, d, 5)
        dec = eigendecompose(stack)
        assert dec.stack == 5 and dec.dim == d
        assert dec.eigenvalues.shape == (5, d) and dec.eigenvectors.shape == (5, d, d)
        assert eigendecompose(stack[0]).stack is None
        for i, h in enumerate(stack):
            one = eigendecompose(h)
            np.testing.assert_array_equal(dec.eigenvalues[i], one.eigenvalues)
            np.testing.assert_array_equal(dec.eigenvectors[i], one.eigenvectors)
            # the phase convention holds in every matrix of the stack
            for col in dec.eigenvectors[i].T:
                lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                assert lead.imag == 0.0 and lead.real > 0
        np.testing.assert_allclose(dec.compose(dec.eigenvalues), stack, atol=1e-12)
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0, 0] = 9.0


def test_stacked_eigendecompose_errors_name_the_index(monkeypatch):
    rng = np.random.default_rng(17)
    stack = random_stack(rng, 3, 4)
    skew = stack.copy()
    skew[2, 0, 1] += 1e-6
    with pytest.raises(ValidationError, match="stack index 2"):
        eigendecompose(skew)
    broken = stack.copy()
    broken[3, 1, 1] = np.nan  # non-finite entries fail the Hermitian check
    with pytest.raises(ValidationError, match="stack index 3"):
        eigendecompose(broken)
    with pytest.raises(ValidationError):
        eigendecompose(broken[3])
    # With no residual allowed, only the diagonal matrix, whose
    # decomposition is exact, passes: the error names the first failure.
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
    eigendecompose(stack[1])
    with pytest.raises(EigenSolverError, match="stack index 1") as info:
        eigendecompose(stack[1:])
    assert info.value.index == 1
    assert info.value.residual > 0.0


def test_eigendecompose_output_is_write_protected():
    dec = eigendecompose(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 9.0
    with pytest.raises(ValueError):
        dec.eigenvectors[0, 0] = 9.0


def test_stack_members_keep_their_own_bits():
    rng = np.random.default_rng(19)
    for d in (1, 3, 8):
        stack = random_stack(rng, d, 5)
        dec = eigendecompose(stack)
        for i, h in enumerate(stack):
            member, one = dec[i], eigendecompose(h)
            assert member.stack is None and member.dim == d
            for got, want in (
                (member.eigenvalues, one.eigenvalues),
                (member.eigenvectors, one.eigenvectors),
                (member.source.matrix, one.source.matrix),
            ):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
        assert dec[-1].eigenvalues.tobytes() == dec.eigenvalues[4].tobytes()
        part = dec[1:4]
        assert part.stack == 3
        for j in range(3):
            assert part[j].eigenvectors.tobytes() == dec[1 + j].eigenvectors.tobytes()
            assert part.source.matrix[j].tobytes() == dec.source.matrix[1 + j].tobytes()
        with pytest.raises(ValueError):
            dec[0].eigenvalues[0] = 9.0
        with pytest.raises(ValueError):
            part.source.matrix[0, 0, 0] = 9.0
        with pytest.raises(IndexError):
            dec[5]
        with pytest.raises(ValidationError):
            dec[[0, 1]]


def test_indexing_a_single_decomposition_raises():
    dec = eigendecompose(np.diag([1.0, 2.0]))
    with pytest.raises(ValidationError, match="stacked"):
        dec[0]
    with pytest.raises(ValidationError, match="stacked"):
        dec[0:1]


def test_schatten_exponent_orders():
    for p, m in ((1.5, 1), (2.0, 1), (2.5, 2), (3.0, 2), (3.5, 3), (4.0, 3)):
        e = SchattenExponent(p)
        assert e.m == m
        assert 0.0 < e.holder_alpha <= 1.0
        np.testing.assert_allclose(e.holder_alpha, p - m, rtol=RTOL)
    for bad in (1.0, 0.5, -2.0, np.inf, np.nan):
        with pytest.raises(ValidationError):
            SchattenExponent(bad)


def test_schatten_norm_against_direct_formula():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    s = np.linalg.svd(a, compute_uv=False)
    for p in (1.0, 1.5, 2.0, 3.5, 7.0):
        np.testing.assert_allclose(
            schatten_norm(a, p), np.sum(s**p) ** (1.0 / p), rtol=1e-12
        )
    np.testing.assert_allclose(schatten_norm(a, np.inf), s[0], rtol=1e-12)
    np.testing.assert_allclose(schatten_norm(a, 2.0), np.linalg.norm(a), rtol=1e-12)
    for bad in (0.5, np.nan):
        with pytest.raises(ValidationError):
            schatten_norm(a, bad)


def test_schatten_norm_of_zero_matrix():
    assert schatten_norm(np.zeros((3, 3)), 2.5) == 0.0


def test_stacked_schatten_norms_match_member_calls():
    rng = np.random.default_rng(29)
    stack = rng.normal(size=(5, 4, 6)) + 1j * rng.normal(size=(5, 4, 6))
    stack[2] = 0.0
    for p in (1.0, 2.5, 3.5 / 2.5, np.inf):
        got = schatten_norm(stack, p)
        assert got.shape == (5,) and got[2] == 0.0
        assert np.array_equal(got, [schatten_norm(a, p) for a in stack])


def test_apply_scalar_function_matches_eigenreconstruction():
    rng = np.random.default_rng(37)
    h = random_hermitian(rng, 5) / 5.0
    dec = eigendecompose(h)
    cube = apply_scalar_function(Monomial(3), dec).matrix
    np.testing.assert_allclose(cube, h @ h @ h, atol=1e-13)
    # |H|^2.5 via singular values of the reconstruction
    out = apply_scalar_function(PowerAbs(2.5), dec).matrix
    w, u = np.linalg.eigh(h)
    np.testing.assert_allclose(out, (u * np.abs(w) ** 2.5) @ u.conj().T, atol=1e-13)


def test_apply_scalar_function_domain_guard():
    dec = eigendecompose(np.diag([3.0, 0.0]).astype(complex))
    with pytest.raises(ValidationError, match="domain"):
        apply_scalar_function(PowerAbs(2.5), dec)


def test_eigensolver_error_type_exists():
    assert issubclass(EigenSolverError, RuntimeError)
