"""Tests for multiple operator integrals (the Sylvester recurrence and the
symbol-tensor path)."""

import itertools

import numpy as np
import pytest

from specforms import divided, moi
from specforms.divided import DividedDifference, divided_difference
from specforms.errors import ValidationError
from specforms.functions import CallableKernel, Monomial, Polynomial, PowerAbs, ScalarFunctionModel
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
from specforms.spectral import SpectralDecomposition, eigendecompose
from specforms.util import adjoint, frobenius

ONE = Polynomial((1.0,))


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


def test_contraction_takes_any_number_of_perturbations():
    # Four perturbations, one more than MAX_ORDER: the contraction is built
    # for any count, checked against the explicit index sum
    # core[a, e] = sum over b, c, d of phi[a, b, c, d, e] V1[a, b] V2[b, c]
    # V3[c, d] V4[d, e]. A stack axis on phi broadcasts against the matrices.
    rng = np.random.default_rng(29)
    n = 3
    phi = rng.standard_normal((n,) * 5)
    rotated = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(4)]
    v1, v2, v3, v4 = rotated
    want = np.zeros((n, n), dtype=complex)
    for a, b, c, d, e in itertools.product(range(n), repeat=5):
        want[a, e] += phi[a, b, c, d, e] * v1[a, b] * v2[b, c] * v3[c, d] * v4[d, e]
    np.testing.assert_allclose(moi._contract(phi, rotated), want, rtol=1e-13, atol=1e-13)
    got = moi._contract(np.stack([phi, -2.0 * phi]), rotated)
    np.testing.assert_allclose(got, np.stack([want, -2.0 * want]), rtol=1e-13, atol=1e-13)


def test_constant_symbol_collapses_to_product():
    # phi identically c contracts the projections away: T = c * V1 V2.
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    v1 = random_hermitian(rng, 4)
    v2 = random_hermitian(rng, 4)
    dec = eigendecompose(h)
    got = moi_exact(MoiRequest((dec, dec, dec), (v1, v2), SeparableSymbol(((0.5, (ONE,) * 3),))))
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


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
def test_divided_differences_build_no_tensor(stacked, monkeypatch):
    # moi_exact and moi_binned integrate a divided difference or a momentum
    # of any order by the recurrence, which sums its near pairs itself and
    # builds no tensor, on one instance or a stack. Only the monomial shift,
    # the left side of algebraic_shift, builds the whole symbol tensor. On
    # the binned spectra, with their exact ties, the recurrence agrees with
    # that tensor.
    built, tensor_core = [], moi._tensor_core

    def counted(symbol, tol, eig_sets, rotated):
        built.append((type(symbol).__name__, tuple(e.shape[-1] for e in eig_sets)))
        return tensor_core(symbol, tol, eig_sets, rotated)

    monkeypatch.setattr(moi, "_tensor_core", counted)
    rng = np.random.default_rng(61)
    count = 3 if stacked else None
    h = [random_hermitian(rng, 5, scale=0.8) for _ in range(count or 1)]
    dec = eigendecompose(np.stack(h) if stacked else h[0])
    # Five eigenvalues in [-0.8, 0.8] snap to four bins: one tie at least.
    snapped = binned_eigenvalues(dec.eigenvalues, 2)
    snapped = SpectralDecomposition(snapped, dec.eigenvectors, dec.source)
    for order in (1, 2, 3):
        perts = tuple(random_hermitian(rng, 5) for _ in range(order))
        for symbol in (
            DividedDifference(PowerAbs(3.5), order),
            MomentumSpec.from_divided_difference(PowerAbs(3.5), order),
        ):
            binned = moi_binned(MoiRequest((dec,) * (order + 1), perts, symbol), 2)
            moi_exact(MoiRequest((dec,) * (order + 1), perts, symbol))
            assert built == [], (order, symbol)
            tensor, _ = algebraic_shift(
                MoiRequest((snapped,) * (order + 1), perts, symbol), (0,) * (order + 1)
            )
            assert built == [("_MonomialShift", (5,) * (order + 1))], (order, symbol)
            built.clear()
            assert np.linalg.norm(binned - tensor) <= 1e-12 * np.linalg.norm(tensor), order


def test_algebraic_shift_hand_case():
    # s = (1, 0) with phi = 1 multiplies H onto the left: both sides H V.
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 3)
    v = random_hermitian(rng, 3)
    dec = eigendecompose(h)
    req = MoiRequest((dec, dec), (v,), SeparableSymbol(((1.0, (ONE, ONE)),)))
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


def entrywise_shift(phi, powers, eig_sets):
    """psi = 1.0 * x_0^s_0 * ... * x_m^s_m * phi one entry at a time, in
    Python floats; a stacked first set (S, n) gives a leading axis S."""
    first = eig_sets[0]
    if first.ndim == 2:
        return np.stack([entrywise_shift(phi, powers, [row, *eig_sets[1:]]) for row in first])
    shape = tuple(e.size for e in eig_sets)
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        vals = [float(e[i]) for e, i in zip(eig_sets, idx)]
        prod = 1.0
        for x, s in zip(vals, powers):
            prod *= x**s
        out[idx] = prod * phi(np.asarray([vals]))[0]
    return out


@pytest.mark.parametrize("stacked", [False, True])
def test_algebraic_shift_left_side_matches_entrywise_psi(stacked, monkeypatch):
    # The left side multiplies the symbol tensor by the eigenvalue powers;
    # the reference evaluates psi = 1.0 * x_0^s_0 * ... * x_m^s_m * phi entry
    # by entry, the same product in the same order, and contracts it against
    # the request's rotated perturbations as the integral does, so every bit
    # agrees: for divided differences, a weighted momentum and a separable
    # symbol, over tensors of several blocks each, with an exact 0 among
    # slot 1's eigenvalues.
    monkeypatch.setattr(moi, "CHUNK_ROWS", 7)
    rng = np.random.default_rng(29)
    f = PowerAbs(2.5)
    weighted = MomentumSpec(2, f.derivative_model(2), f, (((0, 0, 0), 1.5),))
    separable = SeparableSymbol(
        ((0.5, (f, Monomial(2), Monomial(1))), (-1.5, (Monomial(1), f, Monomial(3))))
    )
    for symbol in (DividedDifference(f, 2), DividedDifference(Monomial(4), 2), weighted, separable):
        phi = (lambda rows: momentum_eval(weighted, rows)) if symbol is weighted else symbol
        for powers in ((1, 2, 0), (0, 0, 3), (2, 1, 1)):
            first = np.stack([random_hermitian(rng, 3) for _ in range(2)]) if stacked else (
                random_hermitian(rng, 3)
            )
            decs = [eigendecompose(first)] + [
                eigendecompose(random_hermitian(rng, 3)) for _ in range(2)
            ]
            zero = decs[1].eigenvalues.copy()
            zero[1] = 0.0
            decs[1] = SpectralDecomposition(zero, decs[1].eigenvectors, decs[1].source)
            perts = tuple(random_hermitian(rng, 3) for _ in range(2))

            request = MoiRequest(tuple(decs), perts, symbol)
            lhs, _ = algebraic_shift(request, powers)
            bases = [d.eigenvectors for d in request.decompositions]
            psi = entrywise_shift(phi, powers, [d.eigenvalues for d in request.decompositions])
            rotated = [
                adjoint(bases[j]) @ v @ bases[j + 1] for j, v in enumerate(request.perturbations)
            ]
            want = bases[0] @ moi._contract(psi, rotated) @ adjoint(bases[-1])
            assert np.array_equal(lhs, want), (symbol, powers)


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


# Residuals of perturbation_identity with both momenta on the Sylvester
# recurrence, which sums its own near pairs: the stacked evaluation keeps
# every bit, whichever mix of matrices and decompositions is passed.
PINNED_RESIDUALS = {
    (1, "cubic"): "0x1.2db9b765d024cp-49",
    (1, "power"): "0x1.4395d28d90433p-50",
    (2, "cubic"): "0x1.3afc103ab7ff5p-49",
    (2, "power"): "0x1.735a8cc175817p-50",
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
    # One decomposition call, T_A as one moi_exact on (A, tails), and one
    # companion recurrence whose block (1, m+1) gives T_B beside (0, m+1).
    rng = np.random.default_rng(53)
    spec = MomentumSpec.from_divided_difference(PowerAbs(3.5), 2)
    a, b, h1, h2 = (random_hermitian(rng, 4, scale=0.5) for _ in range(4))
    perts = (random_hermitian(rng, 4), random_hermitian(rng, 4))
    decomposed = [eigendecompose(x) for x in (a, b, h1, h2)]
    eig = count_calls(monkeypatch, moi, "eigendecompose")
    exact = count_calls(monkeypatch, moi, "moi_exact")
    cores = count_calls(monkeypatch, moi, "_sylvester_core")
    perturbation_identity(spec, a, b, (h1, h2), perts)
    assert len(eig) == 1 and eig[0][0].matrix.shape == (4, 4, 4)
    assert len(exact) == 1 and exact[0][0].decompositions[0].stack is None
    assert [(c[0].order, c[3]) for c in cores] == [(2, ((0, 2),)), (3, ((0, 3), (1, 3)))]
    perturbation_identity(spec, decomposed[0], b, (decomposed[2], h2), perts)
    assert len(eig) == 2 and eig[1][0].matrix.shape == (2, 4, 4)
    perturbation_identity(spec, *decomposed[:2], decomposed[2:], perts)
    assert len(eig) == 2 and len(exact) == 3 and len(cores) == 6
    stack = np.stack([a, b, h1])
    perturbation_identity(spec, stack, b, (h1, stack), perts)
    assert len(eig) == 3 and eig[2][0].matrix.shape == (8, 4, 4)
    assert len(exact) == 4 and exact[3][0].decompositions[0].stack == 3
    assert [(c[0].order, c[3]) for c in cores[6:]] == [(2, ((0, 2),)), (3, ((0, 3), (1, 3)))]


@pytest.mark.parametrize("m", [1, 2])
def test_companion_inner_block_is_the_integral_on_b_bitwise(m):
    # The companion psi = c f^[m+1] on (A, B, tails) hands back its block
    # (1, m+1), T_B, beside (0, m+1), T_psi: each has the bits of its own
    # moi_exact call, with every slot stacked, a mix of stacks and single
    # matrices, or no stack at all.
    p = m + 1.5
    instances = [
        generate_instance([seed + j for j in range(m + 2)], 5, "generic", p)
        for seed in (11 * m, 100 + 10 * m, 200 + 10 * m)
    ]
    a, b, *tails = (np.stack([draws[j][0].matrix for draws in instances]) for j in range(m + 2))
    perts = [np.stack([draws[j][1].matrix for draws in instances]) for j in range(m)]
    for model in (Polynomial((0.25, -1.0, 0.5, 2.0)), PowerAbs(p)):
        spec = MomentumSpec.from_divided_difference(model, m)
        psi = moi.momentum_perturbation_pair(spec)
        for slots in (
            (a, b, *tails, *perts),
            (a, b[1], *tails[:-1], tails[-1][2], *perts),
            (a[0], b[0], *(t[0] for t in tails), *perts),
            (a[0], b[0], *(t[0] for t in tails), *(v[0] for v in perts)),
        ):
            da, db, *rest = (eigendecompose(x) for x in slots[: m + 2])
            vs = tuple(slots[m + 2 :])
            gap = da.source.matrix - db.source.matrix
            companion = MoiRequest((da, db, *rest), (gap,) + vs, psi)
            eigs = [d.eigenvalues for d in companion.decompositions]
            t_psi, t_b = moi._integral(companion, eigs, ((0, m + 1), (1, m + 1)))
            assert np.array_equal(t_psi, moi_exact(companion))
            want = moi_exact(MoiRequest((db, *rest), vs, spec))
            assert np.array_equal(t_b, want), (model, len(slots))


def test_perturbation_identity_prepares_once_and_builds_only_its_companion(monkeypatch):
    # The slots are prepared once, and both requests are made from them; the
    # one symbol built is the companion, none per recurrence level.
    rng = np.random.default_rng(59)
    spec = MomentumSpec.from_divided_difference(Polynomial((0.25, -1.0, 0.5, 2.0)), 2)
    a, b, h1, h2 = (random_hermitian(rng, 4, scale=0.5) for _ in range(4))
    perts = (random_hermitian(rng, 4), np.stack([random_hermitian(rng, 4) for _ in range(3)]))
    prepared = count_calls(monkeypatch, moi, "_prepared_slots")
    built, init = [], MomentumSpec.__post_init__

    def counted(self):
        built.append(self.m)
        init(self)

    monkeypatch.setattr(MomentumSpec, "__post_init__", counted)
    assert perturbation_identity(spec, a, b, (h1, h2), perts).shape == (3,)
    assert len(prepared) == 1 and built == [3]


def _block_requests():
    """(label, request) pairs of orders 2 and 3 at dim 5: a divided
    difference of |x|^3.5 and momenta (c = 1.5) of it and of a cubic, on one
    shared decomposition, on distinct ones, and with stacked slots."""
    models = (PowerAbs(3.5), Polynomial((0.25, -1.0, 0.5, 2.0)))
    for profile, k in itertools.product(PROFILES, (2, 3)):
        draws = generate_instance([7 * k + j for j in range(k + 1)], 5, profile, 3.5)
        hs = [eigendecompose(h.matrix) for h, _ in draws]
        vs = [v.matrix for _, v in draws]
        stack = eigendecompose(np.stack([h.matrix for h, _ in draws]))
        slots = {
            "shared": ((hs[0],) * (k + 1), (vs[0],) * k),
            "distinct": (hs, vs[:k]),
            "stacked": ((stack, *hs[1:k], stack), (np.stack(vs), *vs[1:k])),
        }
        symbols = [DividedDifference(models[0], k)]
        for model in models:
            weight = (((0,) * (k + 1), 1.5),)
            symbols.append(MomentumSpec(k, model.derivative_model(k), model, weight))
        for (name, (decs, perts)), symbol in itertools.product(slots.items(), symbols):
            yield (profile, k, name, symbol), MoiRequest(decs[: k + 1], perts, symbol)


def _of_order(symbol, j):
    """The symbol c * f^[k] of a request at order j: c * f^[j]."""
    if isinstance(symbol, DividedDifference):
        return DividedDifference(symbol.model, j)
    weight = (((0,) * (j + 1), symbol.constant_weight),)
    return MomentumSpec(j, symbol.origin.derivative_model(j), symbol.origin, weight)


@pytest.mark.parametrize("chunk", [moi.CHUNK_ROWS, 37])
def test_block_zero_j_of_a_recurrence_is_the_order_j_integral_bitwise(monkeypatch, chunk):
    # Block (0, j) of an order-k recurrence is T_{c f^[j]}(V_1..V_j) on
    # (H_0..H_j), with the bits of that integral's own call; its top block
    # is the request's integral.
    monkeypatch.setattr(moi, "CHUNK_ROWS", chunk)
    for label, request in _block_requests():
        k, decs, perts = request.order, request.decompositions, request.perturbations
        blocks = tuple((0, j) for j in range(1, k + 1))
        got = moi._integral(request, [d.eigenvalues for d in decs], blocks)
        for (_, j), block in zip(blocks, got):
            want = moi_exact(MoiRequest(decs[: j + 1], perts[:j], _of_order(request.symbol, j)))
            assert block.tobytes() == want.tobytes(), (label, j)


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
    assert len(eig) == 1 and eig[0][0].matrix.shape == (5, 4, 4)
    mixed = MoiRequest((a, reused, points), perts, sym)
    assert len(eig) == 2 and eig[1][0].matrix.shape == (4, 4, 4)
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


def test_separable_slots_are_prepared_like_a_request():
    # moi_separable checks its slots before any product: an error names the
    # slot, and a stack in any slot gives each member's product bitwise.
    rng = np.random.default_rng(71)
    h, g, v = (random_hermitian(rng, 3) for _ in range(3))
    skew = g.copy()
    skew[0, 1] += 1e-6
    one, x = Polynomial((1.0,)), Polynomial((0.0, 1.0))
    sym = SeparableSymbol(((2.0, (one, x)),))
    with pytest.raises(
        ValidationError, match="dimension.*decomposition 1 has 4, decomposition 0 has 3$"
    ):
        moi_separable(sym, [np.eye(3), np.eye(4)], [np.eye(3)])
    with pytest.raises(ValidationError, match="^decomposition 1 is not Hermitian"):
        moi_separable(sym, (h, skew), (v,))
    with pytest.raises(ValidationError, match="^perturbation 0: expected a square matrix"):
        moi_separable(sym, (h, g), (np.ones((3, 2)),))
    sym = SeparableSymbol(
        tuple(
            (w, tuple(Polynomial(tuple(rng.uniform(-1.0, 1.0, 3))) for _ in range(3)))
            for w in (0.7, -1.3)
        )
    )
    hs = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    vs = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    stacked = moi_separable(sym, (hs, g, eigendecompose(hs)), (vs, v))
    assert stacked.shape == (4, 3, 3)
    for b in range(4):
        want = moi_separable(sym, (hs[b], g, eigendecompose(hs[b])), (vs[b], v))
        assert stacked[b].tobytes() == want.tobytes()


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
    nan = SeparableSymbol(((1.0, (CallableKernel(lambda x: np.full_like(x, np.nan)), ONE)),))
    with pytest.raises(ValidationError, match="^symbol evaluated to nan at eigenvalue tuple"):
        moi_exact(MoiRequest((h3, h3), (v3,), nan))
    with pytest.raises(ValidationError, match="symbol takes 2 arguments"):
        moi_exact(MoiRequest((h3,) * 3, (v3,) * 2, sym))  # a symbol of another order
    with pytest.raises(ValidationError):
        MoiRequest((h3,) * 3, (np.stack([v3] * 2), np.stack([v3] * 3)), sym)  # stack lengths
    points = eigendecompose(np.stack([v3] * 2))
    with pytest.raises(ValidationError):
        MoiRequest((points, h3), (np.stack([v3] * 3),), sym)  # stack lengths
    with pytest.raises(ValidationError, match="stacks differ in length"):
        MoiRequest((h3, points), (np.stack([v3] * 3),), sym)  # a later slot's stack too


@pytest.mark.parametrize(
    "symbol", ["abc", lambda x, y: x * y, PowerAbs(2.5)], ids=["string", "lambda", "model"]
)
def test_request_refuses_other_symbols_before_any_slot(symbol, monkeypatch):
    # Only a divided difference, a momentum or a separable symbol is
    # integrated; anything else is refused before a slot is decomposed.
    def fail(*args, **kwargs):
        raise AssertionError("eigendecompose called")

    monkeypatch.setattr(moi, "eigendecompose", fail)
    h = np.diag([0.3, -0.2])
    message = "^symbol must be a DividedDifference or MomentumSpec or SeparableSymbol, got "
    with pytest.raises(ValidationError, match=message):
        MoiRequest((h, h), (h,), symbol)


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
    product = SeparableSymbol(((1.0, (Monomial(1),) * (order + 1)),))
    for symbol in (DividedDifference(PowerAbs(3.5), order), product):
        stacked = moi_exact(MoiRequest((eigendecompose(points),) + tail, (first,) + rest, symbol))
        assert stacked.shape == (5, 3, 3)
        if not isinstance(symbol, DividedDifference):  # the recurrence builds no tensor
            # no group's tensor exceeds CHUNK_ROWS entries, unless one integral's does
            assert sizes and max(sizes) <= max(37, 3 ** (order + 1))
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
    quartic = Polynomial((0.2, -1.0, 0.5, 0.3, -0.4))
    weight = (((0,) * (order + 1), 1.5),)
    symbols = (
        DividedDifference(PowerAbs(3.5), order),
        MomentumSpec(
            m=order, kernel=quartic.derivative_model(order), origin=quartic, q_terms=weight
        ),
        SeparableSymbol(((0.5, (cubic,) * (order + 1)), (-2.0, (Monomial(2),) * (order + 1)))),
        SeparableSymbol(
            ((1.0, (Monomial(1),) + (ONE,) * order), (-2.0, (ONE,) + (Monomial(1),) * order))
        ),
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


def _with_pair_at_the_switch(h, top, index, factor):
    """h with its eigenvalue number `index` (ascending) moved to top - g,
    where g = factor * NEAR_PAIR * (1 + |top| + |top - g|): a pair with
    top just above the recurrence's switch (factor > 1) or below it."""
    lam, u = np.linalg.eigh(h)
    gap = 0.0
    for _ in range(20):
        gap = factor * moi.NEAR_PAIR * (1.0 + abs(top) + abs(top - gap))
    lam[index] = top - gap
    return (u * lam) @ u.conj().T


def _requests_at_the_switch(profile, shared):
    """(order, stacked decomposition slots, request) of dim-5
    divided-difference integrals at orders 1-3, each holding a pair just
    above or just below the recurrence's switch to direct sums. Each has a
    stack of 3 in one perturbation slot, and in no decomposition slot, the
    first, a middle or the last, or on a shared set in every one."""
    dim, count = 5, 3
    for order, factor in itertools.product((1, 2, 3), (1.01, 0.99)):
        seeds = list(range(40 + order, 40 + order + count * (order + 1)))
        draws = generate_instance(seeds, dim, profile, 3.5)
        hs = np.stack([h.matrix for h, _ in draws]).reshape(count, order + 1, dim, dim)
        vs = np.stack([v.matrix for _, v in draws]).reshape(count, order + 1, dim, dim)
        top = np.linalg.eigvalsh(hs[0, 0])[-1]
        if shared:  # a pair in every matrix, and one matrix in each slot of member 0
            hs = np.array([[_with_pair_at_the_switch(h, top, -2, factor) for h in r] for r in hs])
            hs[0] = hs[0, 0]
        else:  # a pair between the first and the last slot
            hs[:, order] = [_with_pair_at_the_switch(h, top, -1, factor) for h in hs[:, order]]
        slots = sorted({0, (order + 1) // 2, order})
        placements = [((), 0)] + [((j,), min(j, order - 1)) for j in slots]
        if shared:
            placements.append((tuple(range(order + 1)), 0))
        for stacked, moving in placements:
            if shared and len(stacked) > 1:
                decs = (eigendecompose(hs[:, 0]),) * (order + 1)
            else:
                decs = tuple(
                    eigendecompose(hs[:, j] if j in stacked else hs[0, j]) for j in range(order + 1)
                )
            perts = tuple(vs[:, j] if j == moving else vs[0, j] for j in range(order))
            yield order, stacked, MoiRequest(decs, perts, DividedDifference(PowerAbs(3.5), order))


def _member_calls(request):
    """moi_exact of each member of the request's stacks, on its own."""
    return [
        moi_exact(
            MoiRequest(
                tuple(d[b] if d.stack else d for d in request.decompositions),
                tuple(v[b] if v.ndim == 3 else v for v in request.perturbations),
                request.symbol,
            )
        )
        for b in range(3)
    ]


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
def test_recurrence_matches_the_tensor_path(profile, shared):
    # The left side of algebraic_shift at zero powers is the tensor path
    # (x^0 phi). At order 1 the recurrence is the Loewner block, bit for
    # bit. Orders 2-3 divide by gaps, each request holding a pair just
    # above or just below the switch to direct sums: 1e-12 relative, but
    # 1e-11 on a shared set at order 3, where the tensor path itself is off
    # from the 60-digit series by up to 1.6e-12 and the recurrence, next to
    # its switch, by up to 4.8e-12. Each member of a stack (perturbations
    # only; the first, a middle or the last slot; every slot of a shared
    # set) has the bits of its own call.
    for order, stacked, request in _requests_at_the_switch(profile, shared):
        got = moi_exact(request)
        tensor, _ = algebraic_shift(request, (0,) * (order + 1))
        bound = 1e-11 if shared and order == 3 else 1e-12
        for b, want in enumerate(_member_calls(request)):
            assert got[b].tobytes() == want.tobytes(), (order, stacked, b)
            if order == 1:
                assert tensor[b].tobytes() == want.tobytes(), (stacked, b)
            else:
                error = np.linalg.norm(tensor[b] - want) / np.linalg.norm(want)
                assert error <= bound, (order, stacked, b, error)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
def test_near_pairs_across_blocks_keep_their_bits(shared, monkeypatch):
    # The near pairs of all blocks go in groups whose temporaries hold at
    # most CHUNK_ROWS entries: n^(k-1) weights per pair of an order-k
    # integral, times any perturbation stack, so 5 at order 2 and 25 at
    # order 3 at dim 5. With CHUNK_ROWS = 7 every pair is a group of its
    # own, and with 60 the groups hold up to 12 and 2 pairs. The integral
    # keeps the bits of the unpatched run, which takes every near pair in
    # one group, and so each member the bits of its own unpatched call. One
    # profile: the groups do not depend on the values.
    cases = [case for case in _requests_at_the_switch("singular", shared) if case[0] > 1]
    groups, near_pairs = [], moi._near_pairs

    def recorded(level, eigs, rots, loewner, parts):
        groups.append((max(b - a for a, b, *_ in parts), sum(len(m) for _, _, m, *_ in parts)))
        return near_pairs(level, eigs, rots, loewner, parts)

    monkeypatch.setattr(moi, "_near_pairs", recorded)
    whole = [moi_exact(request) for _, _, request in cases]
    unpatched = len(groups)
    whole = [(want, _member_calls(request)) for want, (_, _, request) in zip(whole, cases)]
    for rows, largest in ((7, {2: 1, 3: 1}), (60, {2: 12, 3: 2})):
        monkeypatch.setattr(moi, "CHUNK_ROWS", rows)
        groups.clear()
        for (order, stacked, request), (want, members) in zip(cases, whole):
            got = moi_exact(request)
            assert got.tobytes() == want.tobytes(), (rows, order, stacked)
            for b, one in enumerate(members):
                assert got[b].tobytes() == one.tobytes(), (rows, order, stacked, b)
        assert {span for span, _ in groups} == {2, 3}, rows
        assert all(size <= largest[span] for span, size in groups), rows
        assert len(groups) > unpatched, rows


# Eigenvalues of four dim-5 slots: near pairs across every two slots at
# -0.2 and 0.45, none of them exact, each slot's other values apart.
NEAR_SPECTRA = (
    (-0.7, -0.2, 0.1, 0.45, 0.8),
    (-0.6, -0.203, 0.3, 0.452, 0.9),
    (-0.5, -0.201, 0.2, 0.451, 0.7),
    (-0.65, -0.2005, 0.15, 0.4505, 0.85),
)


def _near_pair_requests():
    """(order, shared, request) of dim-5 divided-difference integrals at
    orders 2 and 3 whose near pairs take both direct sums, inner near pairs
    included: on one shared set, with an exact tie at every diagonal pair
    and a cluster at 0.45, or on the distinct NEAR_SPECTRA. Each takes a
    stack of 2 in its last perturbation, and a shared set takes one in its
    decompositions too."""
    rng = np.random.default_rng(97)

    def matrix(values):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        return (q * values) @ q.T

    spectra = [NEAR_SPECTRA, [tuple(x + 0.01 for x in lam) for lam in NEAR_SPECTRA]]
    for order, shared in itertools.product((2, 3), (True, False)):
        if shared:  # the first slot's set, with 0.45 and 0.4505 in it
            sets = [[spectra[b][0][:3] + (0.45, 0.4505)] * (order + 1) for b in range(2)]
        else:
            sets = [spectra[b][: order + 1] for b in range(2)]
        hs = [[matrix(lam) for lam in sets[b]] for b in range(2)]
        if shared:
            decs = (eigendecompose(np.stack([hs[0][0], hs[1][0]])),) * (order + 1)
        else:
            decs = tuple(eigendecompose(h) for h in hs[0])
        perts = [random_hermitian(rng, 5) for _ in range(order)]
        perts[-1] = np.stack([perts[-1], random_hermitian(rng, 5)])
        symbol = DividedDifference(PowerAbs(3.5), order)
        yield order, shared, MoiRequest(decs, tuple(perts), symbol)


def test_near_pairs_match_the_tensor_path(monkeypatch):
    # Near pairs at levels 2 and 3, on shared and distinct sets, with near
    # and tied inner pairs, against the tensor path (the left side of
    # algebraic_shift at zero powers) within the bounds of
    # test_recurrence_matches_the_tensor_path: 1e-12 relative, 1e-11 on a
    # shared set at order 3.
    spans, near_pairs = set(), moi._near_pairs

    def recorded(level, eigs, rots, loewner, parts):
        for a, b, m, *_ in parts:
            inner = b - a == 3 and moi._near(eigs[a + 1][m][:, :, None], eigs[a + 2][m][:, None, :])
            spans.add((b - a, bool(np.any(inner))))
        return near_pairs(level, eigs, rots, loewner, parts)

    monkeypatch.setattr(moi, "_near_pairs", recorded)
    for order, shared, request in _near_pair_requests():
        got = moi_exact(request)
        tensor, _ = algebraic_shift(request, (0,) * (order + 1))
        bound = 1e-11 if shared and order == 3 else 1e-12
        for b in range(2):
            error = np.linalg.norm(tensor[b] - got[b]) / np.linalg.norm(got[b])
            assert error <= bound, (order, shared, b, error)
    assert spans == {(2, False), (3, True)}


def test_clustered_near_pairs_send_only_close_rows_to_quadrature(monkeypatch):
    # The tied-forms benchmark's third clustered instance (dim 8, p = 3.5):
    # one eigenbasis in every slot, a pair 1e-7 apart at -0.676 and one at
    # -0.212, and an eigenvalue at 0.004. Its order-3 form is the order-2
    # integral of f' = d|x|^3.5/dx. A near pair's inner row far from its
    # pivot takes the Loewner values, so only rows whose three nodes are
    # close reach quadrature: none whose hull holds the kink at 0, at most 4
    # distinct order-2 rows, and at least one row, so that the benchmark
    # still reaches quadrature. The integral matches the tensor path within
    # the bound of test_recurrence_matches_the_tensor_path at order 2.
    h, v = generate_instance(610668475, 8, "clustered", 3.5)
    dec = eigendecompose(h)
    rows, quadrature = [], divided.momentum_quadrature

    def recorded(model, nodes, tol=1e-9):
        rows.extend(map(tuple, np.atleast_2d(nodes)))
        return quadrature(model, nodes, tol=tol)

    monkeypatch.setattr(divided, "momentum_quadrature", recorded)
    monkeypatch.setattr(moi, "_last_loewner", (None, None))
    symbol = DividedDifference(PowerAbs(3.5).derivative_model(1), 2)
    request = MoiRequest((dec,) * 3, (v.matrix,) * 2, symbol)
    got = moi_exact(request)
    assert {len(r) for r in rows} == {2, 3}
    assert not [r for r in rows if min(r) <= 0.0 <= max(r)]
    assert len({r for r in rows if len(r) == 3}) <= 4
    tensor, _ = algebraic_shift(request, (0, 0, 0))
    assert np.linalg.norm(tensor - got) <= 1e-12 * np.linalg.norm(got)


def _power_divided_difference_60_digits(nodes, p=3.5):
    """|t|^p at distinct nodes, divided, with 60-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        nodes = [mpmath.mpf(float(t)) for t in nodes]
        total = mpmath.mpf(0)
        for i, t in enumerate(nodes):
            total += abs(t) ** mpmath.mpf(p) / mpmath.fprod(t - s for s in nodes if s is not t)
        return float(total)


def test_far_inner_rows_of_near_pairs_match_60_digits():
    # On a diagonal H with the clustered instance's spectrum, less one node
    # of its second pair, unit perturbations E_{0 j}, (E_{j k},) E_{k 1} pick
    # out the single value f^[L](x, y_j, (w_k,) z) of the near pair x, z
    # 1e-7 apart at -0.676 as entry (0, 1) of the integral. Each inner node
    # is far from x, z and the other inner node, so the value is the
    # quotient of Loewner values, level 3 dividing once more: 1e-14 relative
    # to the 60-digit divided difference. Every row with an inner node above
    # 0 holds the kink; on rows at -0.212 alone, simplex quadrature of
    # f^[2](x, y, z) was off by 1.3e-13.
    lam = [-0.67599658, -0.67599648, -0.21226044, 0.00405223, 0.2198345, 0.42723208, 0.76562943]
    dec = eigendecompose(np.diag(lam))

    def unit(i, j):
        e = np.zeros((len(lam), len(lam)))
        e[i, j] = 1.0
        return e

    for inner in [(j,) for j in range(2, 7)] + list(itertools.permutations(range(2, 7), 2)):
        path = (0,) + inner + (1,)
        perts = tuple(unit(i, j) for i, j in zip(path, path[1:]))
        symbol = DividedDifference(PowerAbs(3.5), len(inner) + 1)
        got = moi_exact(MoiRequest((dec,) * len(path), perts, symbol))[0, 1]
        want = _power_divided_difference_60_digits([lam[i] for i in path])
        assert got.imag == 0.0 and abs(got.real - want) <= 1e-14 * abs(want), (inner, got, want)


@pytest.mark.parametrize("model", [PowerAbs(3.5), Polynomial((0.25, -1.0, 0.5, 2.0))])
def test_momentum_integral_is_its_weight_times_the_divided_difference(model):
    # A momentum c f^[m] of an origin f takes the recurrence of f^[m]: with
    # c = 1 its integral has the bits of DividedDifference(f, m). A power
    # of two scales every value exactly, so with c = 0.5 or -2 it has each
    # value of c times that, up to the sign of a zero. (Another c rounds
    # each Loewner value, and the recurrence's divisions may amplify that
    # past 1e-15.)
    for order, _, request in _requests_at_the_switch("clustered", True):
        decs, perts = request.decompositions, request.perturbations
        want = moi_exact(MoiRequest(decs, perts, DividedDifference(model, order)))
        for c in (1.0, 0.5, -2.0):
            weight = (((0,) * (order + 1), c),)
            spec = MomentumSpec(order, model.derivative_model(order), model, weight)
            got = moi_exact(MoiRequest(decs, perts, spec))
            if c == 1.0:
                assert got.tobytes() == want.tobytes(), order
            assert np.array_equal(got, c * want), (order, c)


def test_loewner_values_are_reused_across_forms_of_one_base(monkeypatch):
    # Integrals of orders 1 and 2 of one kernel on one decomposition both
    # need its Loewner matrix: the second takes the kept values, bit for
    # bit. Another model, tolerance or decomposition evaluates anew,
    # and a model whose repr need not carry its parameters is never kept.
    rng = np.random.default_rng(83)
    dec = eigendecompose(random_hermitian(rng, 4, scale=0.8))
    v = random_hermitian(rng, 4)
    orders, call = [], divided.divided_difference

    def counted(model, nodes, quad_tol=1e-9):  # the symbol's values and a level's below it
        orders.append(np.shape(nodes)[-1] - 1)
        return call(model, nodes, quad_tol=quad_tol)

    def integral(model, order, tol=1e-9, d=dec):
        symbol = DividedDifference(model, order)
        return moi_exact(MoiRequest((d,) * (order + 1), (v,) * order, symbol, tol))

    class Opaque(ScalarFunctionModel):
        """A model whose repr leaves out its scale."""

        max_order = 5

        def __init__(self, scale):
            self.scale = scale

        def __repr__(self):
            return "Opaque()"

        def eval(self, x, order=0):
            return self.scale * PowerAbs(3.5).eval(x, order)

    for module in (divided, moi):
        monkeypatch.setattr(module, "divided_difference", counted)
    monkeypatch.setattr(moi, "_last_loewner", (None, None))
    kernel = PowerAbs(3.5).derivative_model(1)
    first = integral(kernel, 1)
    integral(PowerAbs(3.5).derivative_model(1), 2)
    assert orders == [1, 2]
    assert integral(kernel, 1).tobytes() == first.tobytes()
    assert orders == [1, 2]
    moved = eigendecompose(dec.source.matrix + 1e-12 * np.eye(4))
    for args in (
        (PowerAbs(3.25).derivative_model(1), 2),
        (kernel, 2, 1e-8),
        (kernel, 2, 1e-9, moved),
    ):
        integral(kernel, 1)  # keep the kernel's values, then change one thing
        orders.clear()
        integral(*args)
        assert orders == [1, 2], args
    once = integral(Opaque(1.0), 2)
    assert np.array_equal(integral(Opaque(2.0), 2), 2.0 * once)
    assert orders == [1, 2, 1, 2, 1, 2]


def test_loewner_values_follow_the_bits_of_the_eigenvalues(monkeypatch):
    # An eigenvalue array changed in place between two integrals: the second
    # integral takes the Loewner values of the new eigenvalues, as a
    # decomposition built with those values does with nothing kept.
    h, v = generate_instance(3, 5, "generic", 3.5)
    dec = eigendecompose(h)
    w = dec.eigenvalues.copy()
    mutable = SpectralDecomposition(w, dec.eigenvectors, dec.source)
    symbol = DividedDifference(PowerAbs(3.5), 2)

    def integral(d):
        return moi_exact(MoiRequest((d,) * 3, (v.matrix,) * 2, symbol))

    integral(mutable)
    w *= 0.5
    got = integral(mutable)
    monkeypatch.setattr(moi, "_last_loewner", (None, None))
    fresh = SpectralDecomposition(w.copy(), dec.eigenvectors, dec.source)
    assert np.array_equal(got, integral(fresh))


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
                assert got.tobytes() == want.tobytes()


def test_tensor_of_signed_zeros_matches_scalar_routes():
    signed = np.array([-0.6, -0.0, 0.0, 0.45])  # zeros of both signs compare equal
    symbol = DividedDifference(PowerAbs(3.5), 2)
    got = _phi_tensor(symbol, [signed] * 3, 1e-9)
    assert got.tobytes() == scalar_phi(symbol, [signed] * 3).tobytes()


def test_every_symbol_kind_takes_the_chunked_path(monkeypatch):
    # Separable sums and weighted momenta fill the tensor block by block,
    # matching their values at single tuples.
    monkeypatch.setattr(moi, "CHUNK_ROWS", 7)
    lam = np.array([-0.6, 0.0, 0.0, 0.45])
    sets = [lam, binned_eigenvalues(lam, 4), lam]
    cubic = Polynomial((0.2, -1.0, 0.5))
    origin = PowerAbs(2.5)
    symbols = (
        SeparableSymbol(((0.5, (cubic, Monomial(1), cubic)), (-2.0, (Monomial(2),) * 3))),
        MomentumSpec(
            m=2, kernel=origin.derivative_model(2), origin=origin, q_terms=(((0, 0, 0), 1.5),)
        ),
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
