"""Tests for multiple operator integrals (eigenprojection tensor path)."""

import math

import numpy as np
import pytest

from specforms import divided, moi
from specforms.divided import DividedDifference, divided_difference
from specforms.errors import ValidationError
from specforms.functions import Monomial, Polynomial, PowerAbs
from specforms.instances import PROFILES, SplitMix64, generate_instance
from specforms.moi import (
    MoiRequest,
    SeparableSymbol,
    _phi_tensor,
    algebraic_shift,
    binned_eigenvalues,
    moi_binned,
    moi_exact,
    moi_separable,
    perturbation_identity,
)
from specforms.momenta import MomentumSpec, momentum_eval
from specforms.spectral import eigendecompose
from specforms.util import frobenius


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    h = (a + a.T) / 2.0
    # keep spectra inside the kernels' working interval
    return scale * h / max(1.0, np.linalg.norm(h, ord=2))


def test_first_order_square_function_hand_case():
    # H = diag(0, 1), V the flip: d/dt (H + tV)^2 at t=0 is HV + VH.
    h = np.diag([0.0, 1.0])
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    dec = eigendecompose(h)
    req = MoiRequest((dec, dec), (v,), DividedDifference(Monomial(2), 1))
    got = moi_exact(req)
    np.testing.assert_allclose(got.real, h @ v + v @ h, atol=1e-12)
    np.testing.assert_allclose(got.imag, 0.0, atol=1e-12)


def test_first_order_cubic_matches_product_rule():
    rng = np.random.default_rng(7)
    for _ in range(5):
        h = random_hermitian(rng, 4)
        v = random_hermitian(rng, 4)
        dec = eigendecompose(h)
        got = moi_exact(MoiRequest((dec, dec), (v,), DividedDifference(Monomial(3), 1)))
        want = h @ h @ v + h @ v @ h + v @ h @ h
        np.testing.assert_allclose(got.real, want, atol=1e-10)


def test_constant_symbol_collapses_to_product():
    # phi identically c contracts the projections away: T = c * V1 V2.
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    v1 = random_hermitian(rng, 4)
    v2 = random_hermitian(rng, 4)
    dec = eigendecompose(h)
    got = moi_exact(MoiRequest((dec, dec, dec), (v1, v2), lambda *vals: 0.5))
    np.testing.assert_allclose(got.real, 0.5 * v1 @ v2, atol=1e-11)


def test_multilinearity_in_each_slot():
    rng = np.random.default_rng(12)
    h = random_hermitian(rng, 3)
    dec = eigendecompose(h)
    symbol = DividedDifference(PowerAbs(2.5), 2)
    v, w, u = (random_hermitian(rng, 3) for _ in range(3))

    def integral(p1, p2):
        return moi_exact(MoiRequest((dec, dec, dec), (p1, p2), symbol))

    left = integral(2.0 * v + w, u)
    np.testing.assert_allclose(
        left, 2.0 * integral(v, u) + integral(w, u), atol=1e-9
    )
    right = integral(u, v - 3.0 * w)
    np.testing.assert_allclose(
        right, integral(u, v) - 3.0 * integral(u, w), atol=1e-9
    )


def test_symmetric_symbol_gives_hermitian_output():
    rng = np.random.default_rng(21)
    h = random_hermitian(rng, 5)
    v = random_hermitian(rng, 5)
    dec = eigendecompose(h)
    for order in (1, 2):
        got = moi_exact(
            MoiRequest(
                (dec,) * (order + 1), (v,) * order, DividedDifference(PowerAbs(3.5), order)
            )
        )
        np.testing.assert_allclose(got, got.conj().T, atol=1e-10)


def test_binned_eigenvalues_snap_left():
    np.testing.assert_allclose(
        binned_eigenvalues([0.3, -0.3, 0.25], 4), [0.25, -0.5, 0.25]
    )
    with pytest.raises(ValidationError):
        binned_eigenvalues([0.1], 0)


def test_binned_integral_exact_on_grid():
    # Eigenvalues already on the 1/n grid are fixed points of the binning.
    h = np.diag([0.0, 0.5, -0.5, 1.0])
    v = np.ones((4, 4)) * 0.1
    v = (v + v.T) / 2.0
    dec = eigendecompose(h)
    req = MoiRequest((dec, dec), (v,), DividedDifference(Monomial(3), 1))
    np.testing.assert_allclose(moi_binned(req, 2), moi_exact(req), atol=1e-14)


def test_binned_integral_converges_to_exact():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 4, scale=0.4)
    v = random_hermitian(rng, 4)
    dec = eigendecompose(h)
    req = MoiRequest((dec, dec), (v,), DividedDifference(PowerAbs(2.5), 1))
    exact = moi_exact(req)
    errs = [frobenius(moi_binned(req, n) - exact) for n in (16, 64, 256)]
    assert errs[2] < errs[1] < errs[0]
    # first-order rate: 16x more bins should shrink the error about 16x
    assert errs[2] < 0.12 * errs[0]


def test_algebraic_shift_hand_case():
    # s = (1, 0) with phi = 1 multiplies H onto the left: both sides H V.
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 3)
    v = random_hermitian(rng, 3)
    dec = eigendecompose(h)
    req = MoiRequest((dec, dec), (v,), lambda *vals: 1.0)
    lhs, rhs = algebraic_shift(req, (1, 0))
    np.testing.assert_allclose(lhs, dec.source.matrix @ v, atol=1e-12)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_algebraic_shift_random_residuals():
    rng = np.random.default_rng(17)
    symbol = DividedDifference(PowerAbs(2.5), 2)
    for _ in range(5):
        decs = tuple(eigendecompose(random_hermitian(rng, 3)) for _ in range(3))
        perts = tuple(random_hermitian(rng, 3) for _ in range(2))
        req = MoiRequest(decs, perts, symbol)
        lhs, rhs = algebraic_shift(req, (1, 2, 0))
        assert frobenius(lhs - rhs) <= 1e-10 * (1.0 + frobenius(lhs))


@pytest.mark.parametrize("stacked", [False, True])
def test_algebraic_shift_left_side_matches_bare_callable(stacked):
    # The left side multiplies the symbol tensor by the eigenvalue powers;
    # the reference evaluates psi = x_0^s_0 ... x_m^s_m * phi entry by entry.
    rng = np.random.default_rng(29)
    for symbol in (DividedDifference(PowerAbs(2.5), 2), DividedDifference(Monomial(4), 2)):
        for powers in ((1, 2, 0), (0, 0, 3), (2, 1, 1)):
            first = np.stack([random_hermitian(rng, 3) for _ in range(2)]) if stacked else (
                random_hermitian(rng, 3)
            )
            decs = (eigendecompose(first),) + tuple(
                eigendecompose(random_hermitian(rng, 3)) for _ in range(2)
            )
            perts = tuple(random_hermitian(rng, 3) for _ in range(2))

            def shifted(*vals, symbol=symbol, powers=powers):
                prod = 1.0
                for x, s in zip(vals, powers):
                    prod *= x**s
                return prod * symbol(np.asarray([vals]))[0]

            lhs, _ = algebraic_shift(MoiRequest(decs, perts, symbol), powers)
            want = moi_exact(MoiRequest(decs, perts, shifted))
            assert lhs.shape == want.shape
            assert np.all(np.abs(lhs - want) <= 1e-15 * (1.0 + np.abs(want)))


def test_perturbation_identity_takes_decompositions_bitwise():
    rng = np.random.default_rng(43)
    for model in (Polynomial((0.25, -1.0, 0.5, 2.0)), PowerAbs(2.5)):
        spec = MomentumSpec.from_divided_difference(model, 1)
        a, b, h = (random_hermitian(rng, 4, scale=0.5) for _ in range(3))
        v = random_hermitian(rng, 4)
        tail = (eigendecompose(h),)
        from_matrices = perturbation_identity(spec, a, b, tail, (v,))
        decomposed = perturbation_identity(
            spec, eigendecompose(a), eigendecompose(b), tail, (v,)
        )
        assert decomposed == from_matrices


# Residuals of perturbation_identity computed when T_A and T_B were still
# two integrals over separately decomposed A and B: the stacked evaluation
# keeps every bit, whichever mix of matrices and decompositions is passed.
PINNED_RESIDUALS = {
    (1, "cubic"): "0x1.17566d911144ap-49",
    (1, "power"): "0x1.57aa4c0593c8fp-50",
    (2, "cubic"): "0x1.f79bb5015a2e5p-50",
    (2, "power"): "0x1.1ce7b8e71d751p-50",
}


@pytest.mark.parametrize("m", [1, 2])
def test_perturbation_identity_keeps_its_pinned_bits(m):
    p = m + 1.5
    draws = generate_instance([11 * m + j for j in range(m + 2)], 5, "generic", p)
    (a, va), (b, vb) = draws[:2]
    tails = [h.matrix for h, _ in draws[2:]]
    perts = [va.matrix, vb.matrix][:m]
    inputs = (
        (a.matrix, b.matrix, tails),
        (eigendecompose(a), eigendecompose(b), [eigendecompose(h) for h in tails]),
        (a, eigendecompose(b), [eigendecompose(tails[0])] + tails[1:]),
    )
    for kind, model in (("cubic", Polynomial((0.25, -1.0, 0.5, 2.0))), ("power", PowerAbs(p))):
        spec = MomentumSpec.from_divided_difference(model, m)
        for args in inputs:
            got = perturbation_identity(spec, *args, perts)
            assert got.hex() == PINNED_RESIDUALS[(m, kind)]


@pytest.mark.parametrize("m", [1, 2])
def test_stacked_perturbation_identity_matches_instance_calls_bitwise(m):
    # Three instances, the first the pinned one. A stacked call gives each
    # residual the bits of its instance's own call, whether the stacks come
    # as matrices, as stacked decompositions or mixed, and a slot holding
    # one matrix serves every instance.
    p = m + 1.5
    instances = [
        generate_instance([seed + j for j in range(m + 2)], 5, "generic", p)
        for seed in (11 * m, 100 + 10 * m, 200 + 10 * m)
    ]
    a, b, *tails = (np.stack([draws[j][0].matrix for draws in instances]) for j in range(m + 2))
    perts = [np.stack([draws[j][1].matrix for draws in instances]) for j in range(m)]

    def member(i, *slots):
        """Member i of each stacked slot; a one-matrix slot as it is."""
        return [x[i] if getattr(x, "stack", None) or np.ndim(x) == 3 else x for x in slots]

    for kind, model in (("cubic", Polynomial((0.25, -1.0, 0.5, 2.0))), ("power", PowerAbs(p))):
        spec = MomentumSpec.from_divided_difference(model, m)
        for args in (
            (a, b, tails, perts),
            (eigendecompose(a), eigendecompose(b), [eigendecompose(t) for t in tails], perts),
            (a, eigendecompose(b), [eigendecompose(tails[0])] + tails[1:], perts),
            (a, b[1], tails[:-1] + [tails[-1][2]], perts),  # one B and one last tail
            (a[0], b[0], [t[0] for t in tails], perts),  # perturbation stacks only
        ):
            got = perturbation_identity(spec, *args)
            want = [
                perturbation_identity(
                    spec, *member(i, *args[:2]), member(i, *args[2]), member(i, *args[3])
                )
                for i in range(len(instances))
            ]
            assert [r.hex() for r in got] == [r.hex() for r in want]
        assert want[0].hex() == PINNED_RESIDUALS[(m, kind)]


def test_stacked_perturbation_identity_errors_name_the_member():
    rng = np.random.default_rng(59)
    spec = MomentumSpec.from_divided_difference(PowerAbs(3.5), 2)

    def stack(count=3):
        return np.stack([random_hermitian(rng, 4, scale=0.5) for _ in range(count)])

    a, b, h1, h2, v1, v2 = (stack() for _ in range(6))
    skew, nan, inf = a.copy(), b.copy(), h2.copy()
    skew[1, 0, 1] += 1e-6
    nan[2, 1, 1] = np.nan
    inf[0, 2, 3] = np.inf
    for args, message in (
        ((skew, b, (h1, h2)), "A at stack index 1 is not Hermitian"),
        ((a, nan, (h1, h2)), "B at stack index 2 is not Hermitian"),
        ((eigendecompose(a), b[0], (h1, inf)), "tail 1 at stack index 0 is not Hermitian"),
        ((a, b, (h1, stack(2))), r"stacks differ in length: \[2, 3\]"),
        ((a, eigendecompose(stack(2)), (h1, h2)), r"stacks differ in length: \[2, 3\]"),
        ((a, b, (h1, np.ones((3, 4, 5)))), "tail 1: expected a square matrix"),
    ):
        with pytest.raises(ValidationError, match=f"^{message}"):
            perturbation_identity(spec, *args, (v1, v2))
    with pytest.raises(ValidationError, match=r"^stacks differ in length: \[2, 3\]"):
        perturbation_identity(spec, a, b, (h1, h2), (v1, stack(2)))


def count_calls(monkeypatch, module, name):
    """Wrap module.name with a counter; returns the list of its calls."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_perturbation_identity_decomposes_once_and_integrates_twice(monkeypatch):
    rng = np.random.default_rng(53)
    spec = MomentumSpec.from_divided_difference(PowerAbs(3.5), 2)
    a, b, h1, h2 = (random_hermitian(rng, 4, scale=0.5) for _ in range(4))
    perts = (random_hermitian(rng, 4), random_hermitian(rng, 4))
    decomposed = [eigendecompose(x) for x in (a, b, h1, h2)]
    eig = count_calls(monkeypatch, moi, "eigendecompose")
    exact = count_calls(monkeypatch, moi, "moi_exact")
    perturbation_identity(spec, a, b, (h1, h2), perts)
    assert len(eig) == 1 and eig[0][0].shape == (4, 4, 4)
    assert len(exact) == 2
    perturbation_identity(spec, decomposed[0], b, (decomposed[2], h2), perts)
    assert len(eig) == 2 and eig[1][0].shape == (2, 4, 4)
    perturbation_identity(spec, *decomposed[:2], decomposed[2:], perts)
    assert len(eig) == 2 and len(exact) == 6


def test_request_decomposes_its_raw_slots_in_one_call(monkeypatch):
    rng = np.random.default_rng(61)
    a, b, c = (random_hermitian(rng, 4, scale=0.5) for _ in range(3))
    points = np.stack([random_hermitian(rng, 4, scale=0.5) for _ in range(3)])
    perts = (random_hermitian(rng, 4), np.stack([random_hermitian(rng, 4) for _ in range(3)]))
    sym = DividedDifference(PowerAbs(3.5), 2)
    per_slot = MoiRequest(
        (eigendecompose(a), eigendecompose(points), eigendecompose(c)), perts, sym
    )
    reused = eigendecompose(b)
    eig = count_calls(monkeypatch, moi, "eigendecompose")
    raw = MoiRequest((a, points, c), perts, sym)
    assert len(eig) == 1 and eig[0][0].shape == (5, 4, 4)
    mixed = MoiRequest((a, reused, points), perts, sym)
    assert len(eig) == 2 and eig[1][0].shape == (4, 4, 4)
    assert mixed.decompositions[1] is reused
    for got, want in zip(raw.decompositions, per_slot.decompositions):
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)
    assert np.array_equal(moi_exact(raw), moi_exact(per_slot))


def test_request_errors_name_the_slot():
    rng = np.random.default_rng(67)
    h, v = random_hermitian(rng, 3), random_hermitian(rng, 3)
    skew = h.copy()
    skew[0, 1] += 1e-6
    sym = DividedDifference(PowerAbs(2.5), 1)
    with pytest.raises(ValidationError, match="^decomposition 1 is not Hermitian"):
        MoiRequest((h, skew), (v,), sym)
    with pytest.raises(ValidationError, match="^perturbation 0: expected a square matrix"):
        MoiRequest((h, h), (np.ones((3, 2)),), sym)
    with pytest.raises(ValidationError, match="all matrices must share one dimension"):
        MoiRequest((h, h), (np.eye(4),), sym)


def test_perturbation_identity_errors_name_the_argument():
    rng = np.random.default_rng(47)
    spec1 = MomentumSpec.from_divided_difference(PowerAbs(2.5), 1)
    spec2 = MomentumSpec.from_divided_difference(PowerAbs(3.5), 2)
    a, b, h, h2 = (random_hermitian(rng, 4, scale=0.5) for _ in range(4))
    v = random_hermitian(rng, 4)
    small = random_hermitian(rng, 3, scale=0.5)
    # Mixed dimensions are caught before anything is stacked.
    for args in (
        (a, small, (h,)),
        (a, b, (eigendecompose(small),)),
        (eigendecompose(small), b, (h,)),
    ):
        with pytest.raises(ValidationError, match="all matrices must share one dimension"):
            perturbation_identity(spec1, *args, (v,))
    skew = a.copy()
    skew[0, 1] += 1e-6
    nan = b.copy()
    nan[1, 1] = np.nan
    inf = h.copy()
    inf[2, 3] = np.inf
    for spec, args, name in (
        (spec1, (skew, b, (h,)), "A"),
        (spec1, (a, skew, (h,)), "B"),
        (spec1, (a, nan, (h,)), "B"),
        (spec1, (eigendecompose(a), b, (inf,)), "tail 0"),
        (spec2, (a, b, (h, nan)), "tail 1"),
    ):
        with pytest.raises(ValidationError, match=f"^{name} is not Hermitian"):
            perturbation_identity(spec, *args, (v,) * spec.m)
    with pytest.raises(ValidationError, match="^B: expected a square matrix"):
        perturbation_identity(spec1, a, np.ones((4, 3)), (h,), (v,))
    with pytest.raises(ValidationError, match=r"^stacks differ in length: \[2, 3\]"):
        perturbation_identity(
            spec1, eigendecompose(np.stack([a, b])), np.stack([b] * 3), (h,), (v,)
        )


def test_separable_matches_tensor_path():
    rng = SplitMix64(77)
    nprng = np.random.default_rng(77)
    for _ in range(5):
        terms = []
        for _ in range(3):
            weight = 2.0 * rng.uniform() - 1.0
            factors = tuple(
                Polynomial(tuple(2.0 * rng.uniform() - 1.0 for _ in range(3)))
                for _ in range(3)
            )
            terms.append((weight, factors))
        symbol = SeparableSymbol(tuple(terms))
        decs = tuple(eigendecompose(random_hermitian(nprng, 3)) for _ in range(3))
        perts = tuple(random_hermitian(nprng, 3) for _ in range(2))
        via_product = moi_separable(symbol, decs, perts)
        via_tensor = moi_exact(MoiRequest(decs, perts, symbol))
        np.testing.assert_allclose(via_product, via_tensor, atol=1e-10)


def test_perturbation_identity_polynomial_is_exact():
    # For f = x^2 the first quotient has constant second quotient, so the
    # companion formula closes exactly in floating point.
    rng = np.random.default_rng(31)
    spec = MomentumSpec.from_divided_difference(Monomial(2), 1)
    a = random_hermitian(rng, 4, scale=0.5)
    b = random_hermitian(rng, 4, scale=0.5)
    h = random_hermitian(rng, 4, scale=0.5)
    v = random_hermitian(rng, 4)
    assert perturbation_identity(spec, a, b, (eigendecompose(h),), (v,)) <= 1e-12


def test_perturbation_identity_kink_kernel():
    rng = np.random.default_rng(41)
    spec = MomentumSpec.from_divided_difference(PowerAbs(3.5), 1)
    a = random_hermitian(rng, 3, scale=0.5)
    b = random_hermitian(rng, 3, scale=0.5)
    h = random_hermitian(rng, 3, scale=0.5)
    v = random_hermitian(rng, 3)
    assert perturbation_identity(spec, a, b, (eigendecompose(h),), (v,)) <= 1e-6


def test_request_validation():
    rng = np.random.default_rng(2)
    h3 = eigendecompose(random_hermitian(rng, 3))
    h4 = eigendecompose(random_hermitian(rng, 4))
    v3 = random_hermitian(rng, 3)
    sym = DividedDifference(PowerAbs(2.5), 1)
    with pytest.raises(ValidationError):
        MoiRequest((h3, h4), (v3,), sym)  # mixed dimensions
    with pytest.raises(ValidationError):
        MoiRequest((h3,), (), sym)  # order zero
    with pytest.raises(ValidationError):
        MoiRequest((h3,) * 5, (v3,) * 4, sym)  # order above the cap
    with pytest.raises(ValidationError):
        MoiRequest((h3, h3, h3), (v3,), sym)  # count mismatch
    with pytest.raises(ValidationError):
        moi_exact(MoiRequest((h3, h3), (v3,), lambda *vals: float("nan")))
    with pytest.raises(ValidationError):
        MoiRequest((h3,) * 3, (np.stack([v3] * 2), np.stack([v3] * 3)), sym)  # stack lengths
    points = eigendecompose(np.stack([v3] * 2))
    with pytest.raises(ValidationError):
        MoiRequest((points, h3), (np.stack([v3] * 3),), sym)  # stack lengths
    with pytest.raises(ValidationError, match="stacks differ in length"):
        MoiRequest((h3, points), (np.stack([v3] * 3),), sym)  # a later slot's stack too


def test_stacked_perturbations_give_each_integral():
    rng = np.random.default_rng(8)
    decs = tuple(eigendecompose(random_hermitian(rng, 3)) for _ in range(3))
    first = [random_hermitian(rng, 3) for _ in range(4)]
    second = random_hermitian(rng, 3)
    symbol = DividedDifference(PowerAbs(3.5), 2)
    stacked = moi_exact(MoiRequest(decs, (np.stack(first), second), symbol))
    assert stacked.shape == (4, 3, 3)
    for v, got in zip(first, stacked):
        np.testing.assert_allclose(got, moi_exact(MoiRequest(decs, (v, second), symbol)), atol=1e-14)


@pytest.mark.parametrize("order", (1, 2, 3))
def test_decomposition_stack_combines_with_perturbation_stack(order, monkeypatch):
    monkeypatch.setattr(moi, "CHUNK_ROWS", 37)  # groups of max(1, 37 // 3^(order+1))
    rng = np.random.default_rng(10 + order)
    points = np.stack([random_hermitian(rng, 3, scale=0.8) for _ in range(5)])
    tail = tuple(eigendecompose(random_hermitian(rng, 3, scale=0.8)) for _ in range(order))
    first = np.stack([random_hermitian(rng, 3) for _ in range(5)])
    rest = tuple(random_hermitian(rng, 3) for _ in range(order - 1))
    sizes = []
    build = moi._phi_tensor

    def recorded(*args):
        phi = build(*args)
        sizes.append(phi.size)
        return phi

    monkeypatch.setattr(moi, "_phi_tensor", recorded)
    for symbol in (DividedDifference(PowerAbs(3.5), order), lambda *vals: float(np.prod(vals))):
        stacked = moi_exact(MoiRequest((eigendecompose(points),) + tail, (first,) + rest, symbol))
        assert stacked.shape == (5, 3, 3)
        # no group's tensor exceeds CHUNK_ROWS entries, unless one integral's does
        assert max(sizes) <= max(37, 3 ** (order + 1))
        for h, v, got in zip(points, first, stacked):
            want = moi_exact(MoiRequest((eigendecompose(h),) + tail, (v,) + rest, symbol))
            assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


def _stack_placements(order):
    """Decomposition and perturbation slots holding a stack: the first, a
    middle and the last slot alone, and several at once."""
    placements = [({0}, set()), ({order}, set()), ({0, order}, {order - 1})]
    if order >= 2:
        placements += [({1}, set()), ({1, order}, {0, order - 1})]
    return placements


@pytest.mark.parametrize("order", (1, 2, 3))
def test_stacks_in_any_slot_match_member_calls_bitwise(order, monkeypatch):
    monkeypatch.setattr(moi, "CHUNK_ROWS", 37)  # several groups per stack
    rng = np.random.default_rng(60 + order)
    count, dim = 3, 3
    cubic = Polynomial((0.2, -1.0, 0.5))
    symbols = (
        DividedDifference(PowerAbs(3.5), order),
        MomentumSpec(m=order, kernel=cubic, q_terms=(((1,) + (0,) * order, 1.5),)),
        SeparableSymbol(((0.5, (cubic,) * (order + 1)), (-2.0, (Monomial(2),) * (order + 1)))),
        lambda *vals: vals[0] - 2.0 * math.prod(vals[1:]),
    )

    def draw(stacked):
        # A scale of its own for each matrix: no eigenvalue is shared.
        def one():
            return random_hermitian(rng, dim, rng.uniform(0.5, 1))

        return np.stack([one() for _ in range(count)]) if stacked else one()

    for stacked_decs, stacked_perts in _stack_placements(order):
        hs = [draw(j in stacked_decs) for j in range(order + 1)]
        vs = [draw(j in stacked_perts) for j in range(order)]
        decs = tuple(eigendecompose(h) for h in hs)

        def member(b):
            """Slot by slot, member b of a stack or the one matrix."""
            return (
                tuple(d[b] if d.stack else d for d in decs),
                tuple(v[b] if v.ndim == 3 else v for v in vs),
            )

        for symbol in symbols:
            request = MoiRequest(decs, tuple(vs), symbol)
            got = moi_exact(request)
            assert got.shape == (count, dim, dim)
            for b in range(count):
                want = moi_exact(MoiRequest(*member(b), symbol))
                assert got[b].tobytes() == want.tobytes()
        request = MoiRequest(decs, tuple(vs), symbols[0])
        binned = moi_binned(request, 8)
        shifted = algebraic_shift(request, tuple(range(1, order + 2)))
        for b in range(count):
            one = MoiRequest(*member(b), symbols[0])
            assert binned[b].tobytes() == moi_binned(one, 8).tobytes()
            for side, want in zip(shifted, algebraic_shift(one, tuple(range(1, order + 2)))):
                assert side[b].tobytes() == want.tobytes()


def test_separable_symbol_validation():
    one = Polynomial((1.0,))
    with pytest.raises(ValidationError):
        SeparableSymbol(())
    with pytest.raises(ValidationError):
        SeparableSymbol(((1.0, (one, one)), (1.0, (one, one, one))))
    with pytest.raises(ValidationError):
        moi_separable(DividedDifference(PowerAbs(2.5), 1), (), ())
    sym = SeparableSymbol(((2.0, (one, one)),))
    with pytest.raises(ValidationError):
        moi_separable(sym, (np.eye(2),), ())  # missing a perturbation
    with pytest.raises(ValidationError):
        sym(np.zeros((2, 3)))  # rows of three arguments for a two-argument symbol


def scalar_phi(symbol, eig_sets):
    """The symbol tensor one entry at a time through the scalar routes."""
    if isinstance(symbol, DividedDifference):
        def value(vals):
            return divided_difference(symbol.model, vals)
    else:
        def value(vals):
            return momentum_eval(symbol, vals)
    shape = tuple(e.size for e in eig_sets)
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        out[idx] = value(np.array([e[i] for e, i in zip(eig_sets, idx)]))
    return out


@pytest.mark.parametrize("profile", PROFILES)
def test_batched_phi_matches_scalar_routes(profile, monkeypatch):
    monkeypatch.setattr(moi, "CHUNK_ROWS", 37)  # several chunks per tensor
    p = 3.5
    h, v = generate_instance(4, 4, profile, p)
    lam = eigendecompose(h).eigenvalues
    lam_t = eigendecompose(h.matrix + 0.01 * v.matrix).eigenvalues
    model = PowerAbs(p)
    for k in (1, 2, 3):
        sets = (
            [lam] * (k + 1),  # one spectrum in every slot: exact ties
            [binned_eigenvalues(lam, 8)] * (k + 1),  # ties within the spectrum
            [lam_t] + [lam] * k,  # a moving first slot, as in (H_t, H_0, ...)
        )
        for symbol in (DividedDifference(model, k), MomentumSpec.from_divided_difference(model, k)):
            for eig_sets in sets:
                got = _phi_tensor(symbol, eig_sets, 1e-9)
                want = scalar_phi(symbol, eig_sets)
                assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


def test_every_symbol_kind_takes_the_chunked_path(monkeypatch):
    # Separable sums, quadrature-route momenta and bare callables fill the
    # tensor chunk by chunk, matching their values at single tuples.
    monkeypatch.setattr(moi, "CHUNK_ROWS", 7)
    lam = np.array([-0.6, 0.0, 0.0, 0.45])
    sets = [lam, binned_eigenvalues(lam, 4), lam]
    cubic = Polynomial((0.2, -1.0, 0.5))
    kernel = PowerAbs(2.5).derivative_model(2)
    symbols = (
        SeparableSymbol(((0.5, (cubic, Monomial(1), cubic)), (-2.0, (Monomial(2),) * 3))),
        MomentumSpec(m=2, kernel=kernel, q_terms=(((1, 0, 2), 1.5),)),
        MomentumSpec(m=2, kernel=kernel),
    )
    for symbol in symbols:
        if isinstance(symbol, SeparableSymbol):
            single = symbol
        else:
            single = lambda x, symbol=symbol: momentum_eval(symbol, x)
        got = _phi_tensor(symbol, sets, 1e-9)
        for idx in np.ndindex(got.shape):
            want = single(np.array([e[i] for e, i in zip(sets, idx)]))
            assert abs(got[idx] - want) <= 1e-12 * (1.0 + abs(want))

    seen = []

    def bare(x, y, z):
        seen.append((x, y, z))
        return x - 2.0 * y * z

    got = _phi_tensor(bare, sets, 1e-9)
    assert all(type(x) is float for row in seen for x in row)
    for idx in np.ndindex(got.shape):
        x, y, z = (e[i] for e, i in zip(sets, idx))
        assert got[idx] == x - 2.0 * y * z
    flat = np.stack(np.meshgrid(*sets, indexing="ij"), axis=-1).reshape(-1, 3)
    distinct = sum(
        len(np.unique(flat[lo : lo + 7], axis=0)) for lo in range(0, len(flat), 7)
    )
    assert len(seen) == distinct < len(flat)


def count_quadrature(monkeypatch):
    calls = []
    quadrature = divided.momentum_quadrature

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(divided, "momentum_quadrature", counted)
    return calls


def test_exact_repeats_take_no_quadrature(monkeypatch):
    # Repeated eigenvalues, 0 among them, and no other gap below 0.05.
    # No value is 0 by symmetry: at rows like (-a, -a, a, a) the table's
    # error bound cannot be within a fraction of the value, and such rows
    # take quadrature.
    lam = np.array([-0.7, -0.7, -0.3, 0.0, 0.0, 0.2, 0.55, 0.55, 0.9])
    dec = eigendecompose(np.diag(lam))
    assert np.array_equal(dec.eigenvalues, np.sort(lam))
    v = random_hermitian(np.random.default_rng(4), lam.size)
    calls = count_quadrature(monkeypatch)
    for model in (PowerAbs(3.5), Polynomial((0.25, -1.0, 0.5, 2.0))):
        for k in (1, 2, 3):
            moi_exact(MoiRequest((dec,) * (k + 1), (v,) * k, DividedDifference(model, k)))
    assert calls == []


def test_clustered_spectrum_still_takes_quadrature(monkeypatch):
    h, v = generate_instance(2, 4, "clustered", 3.5)
    dec = eigendecompose(h)
    calls = count_quadrature(monkeypatch)
    moi_exact(MoiRequest((dec,) * 3, (v,) * 2, DividedDifference(PowerAbs(3.5), 2)))
    assert calls
