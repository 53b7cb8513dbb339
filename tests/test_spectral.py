"""Spectral layer: Hermitian storage, decompositions, Schatten norms."""

import numpy as np
import pytest

import sys
import threading

from specforms import (
    DividedDifference,
    FrechetForm,
    HermitianMatrix,
    MoiRequest,
    MomentumSpec,
    Monomial,
    Polynomial,
    PowerAbs,
    SchattenExponent,
    ValidationError,
    apply_scalar_function,
    delta_symmetric,
    eigendecompose,
    generate_instance,
    model_delta_bracket,
    perturbation_identity,
    schatten_norm,
    taylor_expand,
    taylor_integral_form,
)
from specforms import spectral
from specforms.experiments import _stream_stacks
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


def test_null_vector_with_zero_leading_entries_takes_the_phase_convention():
    # (0, 0, 1, i)/sqrt(2) spans the kernel of each matrix: its first two
    # entries come out exactly 0, and its first entry above 1e-12 is made
    # real positive. Every column has such an entry (a unit column has one
    # of modulus at least 1/sqrt(n)), so the phases equal those of a rule
    # that falls back to no rotation for a column without one.
    blocks = [[[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.5]], np.diag([0.4, -0.7]), [[0.2, 0.5j], [-0.5j, 0.1]]]
    stack = np.zeros((3, 4, 4), dtype=complex)
    stack[:, :2, :2] = blocks
    stack[:, 2:, 2:] = [[0.5, 0.5j], [-0.5j, 0.5]]
    _, raw = np.linalg.eigh(stack)
    big = np.abs(raw) > 1e-12
    first = np.argmax(big, axis=-2)[..., None, :]
    lead = np.take_along_axis(raw, first, axis=-2)
    lead = np.where(np.take_along_axis(big, first, axis=-2), lead, 1.0)
    want = raw * (np.conj(lead) / np.abs(lead))
    dec = eigendecompose(stack)
    np.testing.assert_array_equal(dec.eigenvectors, want)
    for i, h in enumerate(stack):
        one = eigendecompose(h)
        np.testing.assert_array_equal(one.eigenvectors, want[i])
        null = one.eigenvectors[:, np.argmin(np.abs(one.eigenvalues))]
        assert np.all(null[:2] == 0.0) and null[2].imag == 0.0 and null[2].real > 0.0
        np.testing.assert_allclose(null, np.array([0, 0, 1, 1j]) / np.sqrt(2.0), atol=1e-15)


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


def test_an_int_array_takes_members_in_its_order():
    rng = np.random.default_rng(23)
    dec = eigendecompose(random_stack(rng, 4, 5))
    index = np.array([3, 0, 3, 4, 1])
    taken = dec[index]
    assert taken.stack == len(index)
    for j, i in enumerate(index):
        for got, want in (
            (taken.eigenvalues[j], dec[i].eigenvalues),
            (taken.eigenvectors[j], dec[i].eigenvectors),
            (taken.source.matrix[j], dec[i].source.matrix),
        ):
            assert got.tobytes() == want.tobytes()
    for x in (taken.eigenvalues, taken.eigenvectors, taken.source.matrix):
        assert not x.flags.writeable
    assert dec[np.arange(5, dtype=np.uint8)].eigenvalues.tobytes() == dec.eigenvalues.tobytes()
    for bad in (np.ones(5, dtype=bool), np.array([[0, 1]]), np.array([0.0, 1.0]), True):
        with pytest.raises(ValidationError, match="1-D int array"):
            dec[bad]


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


@pytest.mark.parametrize("p", [1.0, 1.4, 2.5, 3.5, np.inf])
def test_stacked_schatten_norms_keep_the_bits_of_the_per_row_formula(p):
    # The stack's sums are one reduction; each norm must keep the bits of
    # its own row's formula, a member that is 0 included.
    rng = np.random.default_rng(43)
    for shape in ((130, 4, 4), (5, 4, 6), (3, 7, 2), (4, 1, 1), (2, 16, 16)):
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stack[1] = 0.0
        want = []
        for s in np.linalg.svd(stack, compute_uv=False):
            top = s[0]
            if np.isinf(p) or top == 0.0:
                want.append(float(top))
            else:
                want.append(float(top * np.sum((s / top) ** p) ** (1.0 / p)))
        got = schatten_norm(stack, p)
        assert got.shape == (shape[0],) and got.tolist() == want


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


# The one-entry memo of eigendecompose: a call handed the bits of the last
# decomposition's source returns that decomposition without a solve.


@pytest.fixture
def solves(monkeypatch):
    """The number of solver calls, counted from an empty memo."""
    monkeypatch.setattr(spectral, "_last", (None, None))
    count = [0]
    solve = spectral._decompose

    def counted(a):
        count[0] += 1
        return solve(a)

    monkeypatch.setattr(spectral, "_decompose", counted)
    return count


def same_bits(a, b):
    return all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in (
            (a.eigenvalues, b.eigenvalues),
            (a.eigenvectors, b.eigenvectors),
            (a.source.matrix, b.source.matrix),
        )
    )


def test_repeat_call_takes_one_solve(solves):
    h = random_hermitian(np.random.default_rng(41), 5)
    first = eigendecompose(h)
    assert solves[0] == 1
    for again in (h.copy(), HermitianMatrix(h), first.source):
        assert same_bits(eigendecompose(again), first)
    assert solves[0] == 1


def test_changed_bits_take_a_fresh_solve(solves):
    h = random_hermitian(np.random.default_rng(43), 4)
    eigendecompose(h)
    ulp = h.copy()
    ulp[2, 2] = np.nextafter(h[2, 2].real, np.inf)
    eigendecompose(ulp)
    assert solves[0] == 2
    # Equal values, different bits: a negative zero is a different input.
    plus = np.diag([0.3, -0.2, 0.1]).astype(complex)
    minus = plus.copy()
    minus[0, 1], minus[1, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    assert np.signbit(HermitianMatrix(minus).matrix[0, 1].real)
    eigendecompose(plus)
    eigendecompose(minus)
    eigendecompose(plus)
    assert solves[0] == 5


def test_matrix_and_its_stack_of_one_are_kept_apart(solves):
    h = random_hermitian(np.random.default_rng(47), 3)
    one = eigendecompose(h)
    stacked = eigendecompose(h[None])
    assert solves[0] == 2
    assert one.stack is None and stacked.stack == 1
    assert eigendecompose(h[None]).stack == 1
    assert solves[0] == 2
    assert eigendecompose(h).stack is None
    assert solves[0] == 3
    assert same_bits(stacked[0], one)


def test_non_hermitian_input_after_a_hit_raises(solves):
    h = random_hermitian(np.random.default_rng(53), 3)
    eigendecompose(h)
    eigendecompose(h)
    skew = h.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(ValidationError, match="not Hermitian"):
        eigendecompose(skew)
    assert solves[0] == 1


def test_failed_call_is_not_remembered(solves, monkeypatch):
    h = random_hermitian(np.random.default_rng(59), 4)
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
    for _ in range(2):
        with pytest.raises(EigenSolverError):
            eigendecompose(h)
    assert solves[0] == 2


def test_caller_array_changed_in_place_takes_a_fresh_solve(solves):
    a = random_hermitian(np.random.default_rng(61), 4)
    before = eigendecompose(a)
    kept = before.eigenvalues.copy()
    a[0, 0] += 0.25
    after = eigendecompose(a)
    assert solves[0] == 2
    assert np.array_equal(before.eigenvalues, kept)
    assert not np.array_equal(after.eigenvalues, kept)
    np.testing.assert_allclose(after.compose(after.eigenvalues), a, atol=1e-12)


def test_threads_alternating_matrices_get_their_own_bits(solves):
    rng = np.random.default_rng(67)
    mats = [random_hermitian(rng, 6) for _ in range(2)]
    refs = [eigendecompose(m) for m in mats]
    wrong, barrier = [], threading.Barrier(2)

    def worker(phase):
        # Each matrix twice in a row, so that calls both hit and miss.
        barrier.wait()
        for i in range(400):
            j = (i // 2 + phase) % 2
            if not same_bits(eigendecompose(mats[j]), refs[j]):
                wrong.append((phase, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(phase,)) for phase in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_forms_of_one_base_take_one_solve(solves):
    h, v = generate_instance(5, 4, "generic", 3.5)
    forms = [FrechetForm(h.matrix, 3.5, k) for k in (1, 2, 3)]
    values = [delta_symmetric(form, [v.matrix] * form.order) for form in forms]
    assert solves[0] == 1
    assert all(np.isfinite(values))
    assert forms[0].base is forms[1].base is forms[2].base


def test_perturbation_identities_on_one_set_take_one_solve(solves):
    (a, _), (b, _), (t, w) = generate_instance([3, 4, 5], 4, "generic", 2.5)
    raw = (a.matrix, b.matrix, [t.matrix], [w.matrix])
    cubic = MomentumSpec.from_divided_difference(Polynomial((0.25, -1.0, 0.5, 2.0)), 1)
    power = MomentumSpec.from_divided_difference(PowerAbs(2.5), 1)
    assert perturbation_identity(cubic, *raw) <= 1e-12
    assert perturbation_identity(power, *raw) <= 1e-6
    assert solves[0] == 1


def test_each_raw_matrix_is_checked_hermitian_once(monkeypatch):
    # A raw matrix is checked by name where it enters, and the
    # HermitianMatrix built from it reaches eigendecompose unchecked.
    calls, check = [], spectral._check_hermitian

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("specforms")]:
        if getattr(module, "_check_hermitian", None) is check:
            monkeypatch.setattr(module, "_check_hermitian", counted)
    h = np.diag([0.3, -0.2, 0.1]).astype(complex)
    v = np.full((3, 3), 0.1 + 0j)
    spec = MomentumSpec.from_divided_difference(PowerAbs(3.5), 2)
    symbol = DividedDifference(PowerAbs(3.5), 2)
    # (checks, matrices they cover), a stack counting its members.
    cases = {
        "FrechetForm": (lambda: FrechetForm(h, 2.5), (1, 1)),
        "model_delta_bracket": (lambda: model_delta_bracket(h, PowerAbs(2.5), [v]), (1, 1)),
        "perturbation_identity": (
            lambda: perturbation_identity(spec, h, h + v, [h, -h], [v, v]),
            (4, 4),
        ),
        "MoiRequest": (lambda: MoiRequest((h, h + v, -h), (v, v), symbol), (3, 3)),
        "_stream_stacks": (lambda: _stream_stacks([1, 2], 1, 3, "generic", 2.5), (2, 4)),
        # h0, h1, then the 15 moving points of the Kronrod level.
        "taylor_integral_form": (lambda: taylor_integral_form(h, h + 0.1 * v, 3.5), (3, 17)),
        # H and V, once for the expansion and its three oracle entries.
        "taylor_expand": (lambda: taylor_expand(h, v, 3.5), (2, 2)),
    }
    for name, (call, count) in cases.items():
        calls.clear()
        call()
        shapes = [np.shape(getattr(a, "matrix", a)) for a, *_ in calls]
        covered = sum(shape[0] if len(shape) == 3 else 1 for shape in shapes)
        assert (len(calls), covered) == count, name
