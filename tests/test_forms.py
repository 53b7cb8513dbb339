"""Tests for derivative forms, Taylor data, and the Hermitian dilation."""

import itertools
import math

import numpy as np
import pytest

from specforms import forms, moi, spectral
from specforms.divided import DividedDifference
from specforms.errors import UnsupportedConfigError, ValidationError
from specforms.experiments import DEFAULT_TOLERANCES, _stream_stacks
from specforms.forms import (
    FD_SAFE_GAP,
    FrechetForm,
    delta_symmetric,
    embedded_delta,
    fd_oracle,
    holder_difference_norms,
    model_delta_bracket,
    selfadjoint_embed,
    taylor_expand,
    taylor_integral_form,
    trace_identity_residual,
)
from specforms.functions import Monomial, PowerAbs
from specforms.instances import PROFILES, generate_instance
from specforms.moi import MoiRequest, moi_exact
from specforms.spectral import (
    SchattenExponent,
    SpectralDecomposition,
    apply_scalar_function,
    eigendecompose,
    schatten_norm,
)
from specforms.util import gauss01, kronrod01, lp_norms, real_trace, real_value


def small_hermitian(rng, dim, scale=0.5):
    a = rng.standard_normal((dim, dim))
    h = (a + a.T) / 2.0
    return scale * h / np.linalg.norm(h, ord=2)


def test_first_derivative_hand_values():
    # d/dt tr|H + tV|^p at t=0 is tr(V f'(H)) with f'(x) = p |x|^{p-1} sgn x.
    form = FrechetForm(base=np.diag([1.0, 0.0]), exponent=2.5, order=1)
    got = delta_symmetric(form, [np.diag([1.0, 0.0])])
    np.testing.assert_allclose(got, 2.5, rtol=1e-12)

    # odd integrand: opposite eigenvalues against the identity cancel
    form = FrechetForm(base=np.diag([0.7, -0.7]), exponent=2.5, order=1)
    got = delta_symmetric(form, [np.eye(2)])
    np.testing.assert_allclose(got, 0.0, atol=1e-12)


def test_second_derivative_square_model():
    # For f = x^2 the quadratic coefficient of tr f(H + tV) is tr V^2.
    rng = np.random.default_rng(8)
    h = small_hermitian(rng, 3)
    v = small_hermitian(rng, 3, scale=1.0)
    form = FrechetForm(base=h, exponent=2.0, order=2, model=Monomial(2))
    got = delta_symmetric(form, [v, v])
    np.testing.assert_allclose(got, np.trace(v @ v).real, rtol=1e-12)


def test_third_derivative_quartic_model():
    # t^3 coefficient of tr (H + tV)^4 is 4 tr(H V^3).
    rng = np.random.default_rng(15)
    h = small_hermitian(rng, 3)
    v = small_hermitian(rng, 3, scale=1.0)
    form = FrechetForm(base=h, exponent=2.0, order=3, model=Monomial(4))
    got = delta_symmetric(form, [v, v, v])
    np.testing.assert_allclose(got, 4.0 * np.trace(h @ v @ v @ v).real, rtol=1e-10)


def test_symmetric_form_is_permutation_average():
    rng = np.random.default_rng(23)
    h = small_hermitian(rng, 3)
    v1 = small_hermitian(rng, 3, scale=1.0)
    v2 = small_hermitian(rng, 3, scale=1.0)
    form = FrechetForm(base=h, exponent=3.5, order=2)
    sym = delta_symmetric(form, [v1, v2])
    brackets = [model_delta_bracket(form.base, form.model, vs) for vs in ([v1, v2], [v2, v1])]
    np.testing.assert_allclose(sym, sum(brackets) / 2.0, rtol=1e-14)
    np.testing.assert_allclose(sym, delta_symmetric(form, [v2, v1]), rtol=1e-14)


def _complex_directions(seed, dim, k, p=3.5):
    """The V of seeds seed + 100, seed + 200, ...: complex Hermitian."""
    return [generate_instance(seed + 100 * j, dim, "generic", p)[1].matrix for j in range(1, k + 1)]


def test_symmetric_form_of_distinct_complex_directions():
    # Each order-3 bracket is complex here; only their sum is real.
    h, v = generate_instance(1, 3, "generic", 3.5)
    dirs = [v.matrix] + _complex_directions(1, 3, 2)
    form = FrechetForm(base=h, exponent=3.5, order=3)
    value = delta_symmetric(form, dirs)
    assert isinstance(value, float) and np.isfinite(value)
    for order in itertools.permutations(dirs):
        assert abs(delta_symmetric(form, list(order)) - value) <= 1e-14 * (1.0 + abs(value))
    with pytest.raises(ValidationError, match="imaginary part"):
        model_delta_bracket(form.base, form.model, dirs)
    brackets = model_delta_bracket(form.base, form.model, [np.stack([d]) for d in dirs])
    assert brackets.dtype == complex and abs(brackets[0].imag) > 1e-3


def _stacked_permutation_sum(form, dirs):
    """delta^(k) as the k! argument orders stacked slot by slot into one
    bracket call, their sum checked real once and divided by k!."""
    orders = [np.stack(slot) for slot in zip(*itertools.permutations(dirs))]
    brackets = model_delta_bracket(form.base, form.model, orders)
    total = complex(sum(brackets.real), sum(brackets.imag))
    return real_value(total) / math.factorial(len(dirs))


@pytest.mark.parametrize("profile", PROFILES)
def test_symmetric_form_along_one_direction_is_its_bracket(profile):
    # delta^(k)(V, .., V) is one argument order: the bracket itself, with
    # the bits of the Taylor coefficient, whether the k directions are one
    # object or equal copies.
    p = 3.5
    for dim in (3, 5, 8):
        for seed in (1, 4, 14, 18):
            h, v = generate_instance(seed, dim, profile, p)
            deltas = taylor_expand(h.matrix, v.matrix, p).deltas
            for k in (1, 2, 3):
                form = FrechetForm(base=h, exponent=p, order=k)
                bracket = model_delta_bracket(form.base, form.model, [v.matrix] * k)
                assert bracket == deltas[k - 1]
                assert delta_symmetric(form, [v.matrix] * k) == bracket
                assert delta_symmetric(form, [v.matrix.copy() for _ in range(k)]) == bracket


@pytest.mark.parametrize("k", [2, 3])
def test_symmetric_form_of_distinct_directions_keeps_the_stacked_sum(k):
    for seed, dim, profile in ((1, 3, "generic"), (4, 5, "singular"), (14, 8, "clustered")):
        h, v = generate_instance(seed, dim, profile, 3.5)
        dirs = [v.matrix] + _complex_directions(seed, dim, k - 1)
        form = FrechetForm(base=h, exponent=3.5, order=k)
        assert delta_symmetric(form, dirs) == _stacked_permutation_sum(form, dirs)
        # A partly repeated list is not one direction: all k! orders.
        dirs = [v.matrix] * (k - 1) + dirs[-1:]
        assert delta_symmetric(form, dirs) == _stacked_permutation_sum(form, dirs)


def test_symmetric_form_along_one_direction_takes_one_unstacked_bracket(monkeypatch):
    stacks = []

    def recorded(request):
        stacks.append([np.shape(w) for w in request.perturbations])
        return moi_exact(request)

    monkeypatch.setattr(forms, "moi_exact", recorded)
    h, v = generate_instance(5, 6, "clustered", 3.5)
    form = FrechetForm(base=h, exponent=3.5, order=3)
    delta_symmetric(form, [v.matrix] * 3)
    assert stacks == [[(6, 6)] * 2]
    stacks.clear()
    w = _complex_directions(5, 6, 1)[0]
    delta_symmetric(form, [v.matrix, v.matrix, w])
    assert stacks == [[(6, 6, 6)] * 2]


def test_a_direction_passed_again_as_one_object_is_checked_once(monkeypatch):
    # [V] * k holds one object k times: it takes one Hermitian check and
    # gives the bits of k equal copies; a matrix that fails the check is
    # named by the first index that holds it.
    h, v = generate_instance(5, 6, "clustered", 3.5)
    form = FrechetForm(base=h, exponent=3.5, order=3)
    checked, check = [], forms._check_hermitian

    def counted(a, what):
        checked.append(what)
        return check(a, what)

    monkeypatch.setattr(forms, "_check_hermitian", counted)
    got = delta_symmetric(form, [v.matrix] * 3)
    assert checked == ["direction 0"]
    assert got == delta_symmetric(form, [v.matrix.copy() for _ in range(3)])
    skew = v.matrix + np.triu(np.ones((6, 6)), 1)
    with pytest.raises(ValidationError, match="^direction 1 is not Hermitian"):
        delta_symmetric(form, [v.matrix, skew, skew])


@pytest.mark.parametrize("profile", PROFILES)
def test_symmetric_form_polarises_its_diagonal(profile):
    # A symmetric k-linear form is fixed by its diagonal:
    # L(V_1..V_k) = (1/(k! 2^k)) sum_eps eps_1..eps_k L(X_eps, .., X_eps),
    # X_eps = sum eps_i V_i. Each diagonal value is checked against the
    # finite-difference oracle (k! L(X..X)) when the spectrum is clear of 0.
    # Dims 32 and 64 run the recurrence at the cap; no spectrum there
    # clears FD_SAFE_GAP, so their finite-difference legs are skipped.
    p = 3.5
    fd_legs = 0
    for dim, seeds in ((3, (1, 3)), (4, (1, 3)), (7, (1, 3)), (32, (1,)), (64, (1,))):
        for seed in seeds:
            h, _ = generate_instance(seed, dim, profile, p)
            fd_ok = float(np.min(np.abs(np.linalg.eigvalsh(h.matrix)))) >= FD_SAFE_GAP
            fd_legs += fd_ok
            for k in (1, 2, 3):
                dirs = _complex_directions(seed, dim, k)
                form = FrechetForm(base=h, exponent=p, order=k)
                want = delta_symmetric(form, dirs)
                scale = 2**k * math.factorial(k)
                diagonal = oracle = 0.0
                for eps in itertools.product((1.0, -1.0), repeat=k):
                    x = sum(e * d for e, d in zip(eps, dirs))
                    diagonal += math.prod(eps) * delta_symmetric(form, [x] * k)
                    if fd_ok:
                        oracle += math.prod(eps) * fd_oracle(h.matrix, x, p, k)[0]
                assert abs(diagonal / scale - want) <= 1e-13 * (1.0 + abs(want))
                if fd_ok:
                    bound = DEFAULT_TOLERANCES["oracle_abs"] / math.factorial(k)
                    assert abs(oracle / math.factorial(k) / scale - want) <= bound
    assert fd_legs or profile == "singular"


def test_stacked_bracket_matches_member_calls():
    rng = np.random.default_rng(41)
    dec = eigendecompose(small_hermitian(rng, 3))
    model = PowerAbs(3.5)
    for k in (1, 2, 3):
        stacks = [
            np.stack([small_hermitian(rng, 3, scale=1.0) for _ in range(4)])
            for _ in range(k)
        ]
        got = model_delta_bracket(dec, model, stacks)
        assert got.shape == (4,)
        for b in range(4):
            want = model_delta_bracket(dec, model, [s[b] for s in stacks])
            assert abs(got[b] - want) <= 1e-14 * (1.0 + abs(want))


def test_trace_identity_cubic_hand_case():
    form = FrechetForm(base=np.diag([0.0, 1.0]), exponent=2.0, order=2, model=Monomial(3))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = trace_identity_residual(form, flip)
    assert got.shape == (2,) and max(got) <= 1e-12


def test_trace_identity_kink_kernel():
    rng = np.random.default_rng(6)
    for _ in range(2):
        h = small_hermitian(rng, 4)
        v = small_hermitian(rng, 4, scale=1.0)
        got = trace_identity_residual(FrechetForm(base=h, exponent=3.5, order=3), v)
        assert got.shape == (3,) and max(got) <= 1e-7


@pytest.mark.parametrize("profile", PROFILES)
def test_stacked_trace_identity_matches_member_calls(profile):
    for p in (2.5, 3.5):
        m = SchattenExponent(p).m
        draws = generate_instance([3, 8, 13, 21], 4, profile, p)
        dec = eigendecompose(np.stack([h.matrix for h, _ in draws]))
        v = np.stack([u.matrix for _, u in draws])
        got = trace_identity_residual(FrechetForm(base=dec, exponent=p, order=m), v)
        want = [
            trace_identity_residual(FrechetForm(base=dec[i], exponent=p, order=m), v[i])
            for i in range(len(draws))
        ]
        assert got.shape == (4, m) and np.array_equal(got, want)
        # A base of one matrix serves every direction of the stack.
        one_base = FrechetForm(base=dec[0], exponent=p, order=m)
        got = trace_identity_residual(one_base, v)
        assert np.array_equal(got, [trace_identity_residual(one_base, u) for u in v])


def _trace_residual_at_order(dec, model, v, j):
    """|tr T_{f^[j]}(V..V) - model_delta_bracket along [V] * j| for one
    instance, from one order-j integral on each side."""
    integral = moi_exact(MoiRequest((dec,) * (j + 1), (v,) * j, DividedDifference(model, j)))
    return abs(real_trace(integral) - model_delta_bracket(dec, model, [v] * j))


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("p", [2.5, 3.5])
def test_trace_identity_columns_are_the_order_j_residuals_from_two_recurrences(
    monkeypatch, profile, p
):
    # Column j - 1 has the bits of the order-j identity with one integral
    # per side, while a call runs one recurrence of f with the blocks
    # (0, 1)..(0, k) and one of f' with (0, 1)..(0, k-1), and no bracket.
    model = PowerAbs(p)
    draws = generate_instance([5, 17, 29], 5, profile, p)
    dec = eigendecompose(np.stack([h.matrix for h, _ in draws]))
    v = np.stack([u.matrix for _, u in draws])
    cores, core = [], moi._sylvester_core

    def counted(request, eig_sets, rotated, blocks):
        cores.append(blocks)
        return core(request, eig_sets, rotated, blocks)

    monkeypatch.setattr(moi, "_sylvester_core", counted)
    monkeypatch.setattr(forms, "model_delta_bracket", lambda *args, **kw: pytest.fail("bracket"))
    for k in range(1, SchattenExponent(p).m + 1):
        calls = (
            ("one instance", dec[0], v[0], [(dec[0], v[0])]),
            ("stacked base", dec, v, [(dec[i], v[i]) for i in range(3)]),
            ("one base, stacked direction", dec[0], v, [(dec[0], u) for u in v]),
        )
        for name, base, direction, members in calls:
            want = [
                _trace_residual_at_order(d, model, u, j).hex()
                for d, u in members
                for j in range(1, k + 1)
            ]
            cores.clear()
            got = trace_identity_residual(FrechetForm(base=base, exponent=p, order=k), direction)
            assert got.shape == ((3, k) if len(members) == 3 else (k,)), name
            assert [x.hex() for x in got.flat] == want, name
            lhs = tuple((0, j) for j in range(1, k + 1))
            assert cores == ([lhs, lhs[:-1]] if k > 1 else [lhs]), name


# The selftest battery's trace residuals, worst over seeds 1-10 at dim 4
# (generic), by (p, order), and the hand case: each column keeps the bits
# of the one-order call it replaced.
PINNED_TRACE_RESIDUALS = {
    (2.5, 1): "0x1.0000000000000p-49",
    (2.5, 2): "0x1.c000000000000p-49",
    (3.5, 1): "0x1.8000000000000p-50",
    (3.5, 2): "0x1.0000000000000p-49",
    (3.5, 3): "0x1.c000000000000p-50",
}


def test_trace_identity_keeps_its_pinned_bits():
    for p in (2.5, 3.5):
        ((dec, v),) = _stream_stacks(list(range(1, 11)), 1, 4, "generic", p)
        m = SchattenExponent(p).m
        worst = trace_identity_residual(FrechetForm(base=dec, exponent=p, order=m), v).max(axis=0)
        assert [x.hex() for x in worst] == [PINNED_TRACE_RESIDUALS[(p, j)] for j in range(1, m + 1)]
    hand = FrechetForm(base=np.diag([0.0, 1.0]), exponent=3.0, order=2, model=Monomial(3))
    got = trace_identity_residual(hand, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert got[1].hex() == "0x0.0p+0"


def test_fd_oracle_square_function():
    rng = np.random.default_rng(3)
    h = small_hermitian(rng, 3) + 0.8 * np.eye(3)  # keep spectrum off zero
    h = 0.5 * h / np.linalg.norm(h, ord=2)
    v = small_hermitian(rng, 3, scale=1.0)
    got1, err1 = fd_oracle(h, v, 2.0, 1)
    np.testing.assert_allclose(got1, 2.0 * np.trace(h @ v).real, atol=max(err1, 1e-9))
    got2, err2 = fd_oracle(h, v, 2.0, 2)
    np.testing.assert_allclose(got2, 2.0 * np.trace(v @ v).real, atol=max(err2, 1e-7))


def test_fd_oracle_third_order_scalar():
    # Scalar case pins the stencil sign: d^3/dt^3 (0.5 + t)^3.5 at t = 0.
    want = 3.5 * 2.5 * 1.5 * 0.5**0.5
    got, err = fd_oracle(np.array([[0.5]]), np.array([[1.0]]), 3.5, 3)
    assert abs(got - want) <= max(10.0 * err, 1e-5)


@pytest.mark.parametrize("dim", (4, 8, 16, 32, 64))
def test_fd_oracle_error_estimate_covers_roundoff(dim):
    # Rounding in the samples, not the kink (the stencil stays clear of 0),
    # makes the stencil's error here; the Richardson correction alone
    # reads 1.5 to 25 times under it at 14 of these 15 orders.
    h, v = generate_instance(7, dim, "generic", 3.5)
    dec = eigendecompose(h)
    for k in (1, 2, 3):
        fd, err = fd_oracle(h.matrix, v.matrix, 3.5, k)
        series = math.factorial(k) * model_delta_bracket(dec, PowerAbs(3.5), [v.matrix] * k)
        assert abs(fd - series) <= err, (dim, k)


def test_fd_oracle_refuses_a_stencil_that_can_reach_the_kink():
    # min |lambda| = 2.86e-5. Reaches 3.9e-3 (k = 3) and 4.3e-4 (k = 2) cover
    # it, and at k = 3 the value is off by 2.1e-3 against an estimate of
    # 2.1e-4; the k = 1 stencil reaches 2.1e-5 and stays clear of the kink.
    h, v = generate_instance(15, 8, "generic", 3.5)
    for k in (2, 3):
        with pytest.raises(UnsupportedConfigError, match=f"order-{k} stencil .* 2.856e-05"):
            fd_oracle(h.matrix, v.matrix, 3.5, k)
    fd, err = fd_oracle(h.matrix, v.matrix, 3.5, 1)
    series = model_delta_bracket(eigendecompose(h), PowerAbs(3.5), [v.matrix])
    assert abs(fd - series) <= err


def test_fd_oracle_rejects_bad_order_and_interval():
    with pytest.raises(UnsupportedConfigError):
        fd_oracle(np.eye(2) * 0.5, np.eye(2), 2.5, 4)
    with pytest.raises(ValidationError):  # the stencil leaves [-2, 2]
        fd_oracle(np.eye(2) * (2.0 - 1e-5), np.eye(2), 2.5, 1)


@pytest.mark.parametrize("profile", PROFILES)
def test_taylor_deltas_are_the_brackets_bitwise_from_one_recurrence(monkeypatch, profile):
    # delta^(2..m) are the blocks (0, 1)..(0, m-1) of one order-(m-1)
    # recurrence of f', each with the bits of model_delta_bracket along [V] * k.
    h, v = generate_instance(29, 6, profile, 3.5)
    cores, core = [], moi._sylvester_core

    def counted(request, eig_sets, rotated, blocks):
        cores.append((request.order, blocks))
        return core(request, eig_sets, rotated, blocks)

    monkeypatch.setattr(moi, "_sylvester_core", counted)
    deltas = taylor_expand(h.matrix, v.matrix, 3.5).deltas
    assert cores == [(2, ((0, 1), (0, 2)))]
    want = [model_delta_bracket(h.matrix, PowerAbs(3.5), [v.matrix] * k) for k in (1, 2, 3)]
    assert [d.hex() for d in deltas] == [w.hex() for w in want]


def test_taylor_slope_tracks_p_on_singular_profile():
    h, v = generate_instance(5, 4, profile="singular", p=1.5)
    report = taylor_expand(h.matrix, v.matrix, 1.5)
    assert abs(report.slope - 1.5) <= 0.15
    # the kink sits at an eigenvalue, so the stencil oracle is skipped
    assert report.oracle == ()
    assert report.tolerances["oracle_skipped_near_zero"]


def test_taylor_exact_square_slope_two():
    rng = np.random.default_rng(9)
    h = small_hermitian(rng, 3, scale=0.3) + 0.7 * np.eye(3)
    h = 0.5 * h / np.linalg.norm(h, ord=2)
    v = small_hermitian(rng, 3, scale=1.0)
    report = taylor_expand(h, v, 2.0)
    assert report.m == 1
    np.testing.assert_allclose(report.slope, 2.0, atol=1e-6)
    # remainder of the smooth square is exactly t^2 tr V^2
    want = np.asarray(report.t_grid) ** 2 * np.trace(v @ v).real
    np.testing.assert_allclose(report.remainder, want, rtol=1e-6)
    assert len(report.oracle) == 1


def test_taylor_zero_direction_reports_nan_slope():
    h = np.diag([0.5, -0.4, 0.3])
    report = taylor_expand(h, np.zeros((3, 3)), 2.5)
    assert math.isnan(report.slope)
    np.testing.assert_allclose(report.remainder, 0.0, atol=1e-12)


def test_taylor_rejects_too_few_usable_points():
    h = np.diag([0.5, -0.4])
    v = 0.7 * np.eye(2)
    with pytest.raises(ValidationError):
        taylor_expand(h, v, 2.0, t_grid=[1e-7, 1e-6, 1e-5, 1e-4, 1e-3])


def test_taylor_input_validation():
    h = np.diag([0.5, -0.4])
    v = np.eye(2)
    with pytest.raises(ValidationError):
        taylor_expand(h, v, 2.5, t_grid=[])
    with pytest.raises(ValidationError):
        taylor_expand(h, v, 2.5, t_grid=[-0.1, 0.1, 0.2, 0.3])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite"):
            taylor_expand(h, v, 2.5, t_grid=[bad, 0.01, 0.02, 0.05])
    with pytest.raises(ValidationError):
        taylor_expand(np.diag([3.0, 0.0]), v, 2.5)  # outside working interval
    with pytest.raises(ValidationError):
        taylor_expand(h, np.array([[0.0, 1.0], [0.0, 0.0]]), 2.5)  # not Hermitian


@pytest.mark.parametrize("p", [4.5, 6.0])
def test_taylor_expand_refuses_degrees_above_the_form_cap(p):
    # The degree ceil(p) - 1 needs forms above order 3; the expansion must not
    # stop at degree 3 and report a truncated m.
    h = np.diag([0.5, -0.4, 0.3])
    with pytest.raises(UnsupportedConfigError, match=f"^p={p} needs derivative order"):
        taylor_expand(h, 0.1 * np.eye(3), p)
    # The integral identity is exact for any m < p, so that form keeps the cap.
    lhs, rhs = taylor_integral_form(h, h + 0.05 * np.eye(3), p)
    assert abs(lhs - rhs) <= 1e-6


def test_spectrum_guards():
    h = np.diag([0.5, -0.4])
    with pytest.raises(ValidationError, match="segment endpoints"):
        taylor_integral_form(h, np.diag([2.5, 0.0]), 2.5)
    with pytest.raises(ValidationError, match="on the grid"):
        taylor_expand(h, np.eye(2), 2.5, t_grid=[0.01, 0.1, 2.0])  # reaches 2.5
    with pytest.raises(ValidationError, match=r"\|\|H\|\|_p <= 1"):
        taylor_expand(np.diag([0.9, 0.9]), np.eye(2), 2.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_directions_are_rejected(bad):
    h = np.diag([0.5, -0.4])
    v = np.array([[0.1, 0.2], [0.2, bad]])
    form = FrechetForm(base=eigendecompose(h), exponent=2.5, order=2)
    with pytest.raises(ValidationError, match="not Hermitian"):
        delta_symmetric(form, [v, v])
    with pytest.raises(ValidationError, match="not Hermitian"):
        taylor_expand(h, v, 2.5)


def test_integral_expansion_closes():
    rng = np.random.default_rng(14)
    for p in (2.5, 3.5):
        h0 = small_hermitian(rng, 3)
        h1 = h0 + 0.3 * small_hermitian(rng, 3, scale=1.0)
        lhs, rhs = taylor_integral_form(h0, h1, p)
        assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(lhs))


def test_integral_expansion_first_order_branch():
    rng = np.random.default_rng(26)
    h0 = small_hermitian(rng, 3)
    h1 = h0 + 0.2 * small_hermitian(rng, 3, scale=1.0)
    lhs, rhs = taylor_integral_form(h0, h1, 1.5)  # m = 1
    assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(lhs))


def test_kronrod_rule_matches_mpmath():
    # The t-integral's first level: the 15-point Kronrod rule and its
    # embedded 7-point Gauss rule on [0, 1], summed at 40 digits over
    # (2t - 1)^d, whose integral is 1/(d + 1) for even d and 0 for odd d.
    mp = pytest.importorskip("mpmath").mp
    nodes, gauss7, kronrod15 = kronrod01()
    assert nodes.shape == gauss7.shape == kronrod15.shape == (15,)
    assert np.all(np.diff(nodes) > 0) and np.count_nonzero(gauss7) == 7

    def error(weights, d):
        with mp.workdps(40):
            total = mp.fsum(mp.mpf(w) * (2 * mp.mpf(t) - 1) ** d for t, w in zip(nodes, weights))
            return float(abs(total - mp.mpf(1 - d % 2) / (d + 1)))

    assert max(error(kronrod15, d) for d in range(23)) <= 1e-15
    assert error(kronrod15, 24) >= 1e-10
    assert max(error(gauss7, d) for d in range(14)) <= 1e-15
    assert error(gauss7, 14) >= 1e-10
    # The embedded rule is gauss01(7) up to the rounding of the tables.
    x, w = gauss01(7)
    eps = np.finfo(float).eps
    np.testing.assert_allclose(nodes[gauss7 > 0], x, rtol=0, atol=4 * eps)
    np.testing.assert_allclose(gauss7[gauss7 > 0], w, rtol=0, atol=4 * eps)


def per_node_integral_form(h0, h1, p):
    """rhs of taylor_integral_form, one decomposition and integral per node:
    the 15-point Kronrod rule checked against its embedded 7-point Gauss
    rule, then Gauss-Legendre 32 and 64, each level summed on its own, the
    value that of the level the ladder stops at alone."""
    m = SchattenExponent(p).m
    v = h1 - h0
    model = PowerAbs(p)
    g = model.derivative_model(1)
    d0 = eigendecompose(h0)
    rhs = float(np.sum(model.eval(d0.eigenvalues)))
    for k in range(1, m):
        rhs += model_delta_bracket(d0, model, [v] * k)

    def t_integral(nodes, weights):
        total = 0.0
        for t, weight in zip(nodes, weights):
            if weight == 0.0:
                continue
            dt = eigendecompose(h0 + t * v)
            if m == 1:
                value = real_trace(v @ apply_scalar_function(g, dt).matrix)
            else:
                symbol = DividedDifference(g, m - 1)
                request = MoiRequest((dt,) + (d0,) * (m - 1), (v,) * (m - 1), symbol)
                value = t ** (m - 1) * real_trace(v @ moi_exact(request))
            total += weight * value
        return total

    nodes, gauss7, kronrod15 = kronrod01()
    previous, value = t_integral(nodes, gauss7), t_integral(nodes, kronrod15)
    for order in (32, 64):
        if abs(value - previous) <= 1e-8 * (1.0 + abs(value)):
            break
        x, w = np.polynomial.legendre.leggauss(order)
        previous, value = value, t_integral((x + 1.0) / 2.0, w / 2.0)
    return rhs + value


# m = 1, 2, 3; the segments stop at the Kronrod level and at Gauss orders 32
# and 64 between them.
@pytest.mark.parametrize("p", [1.5, 2.5, 3.5])
@pytest.mark.parametrize("profile", PROFILES)
def test_stacked_integral_form_matches_per_node_reference(profile, p, monkeypatch):
    monkeypatch.setattr(moi, "CHUNK_ROWS", 37)  # several groups per Gauss level
    h0, v = generate_instance(6, 3, profile, p)
    h1 = h0.matrix + 0.3 * v.matrix / np.linalg.norm(v.matrix)
    _, rhs = taylor_integral_form(h0.matrix, h1, p)
    want = per_node_integral_form(h0.matrix, h1, p)
    assert abs(rhs - want) <= 1e-13 * (1.0 + abs(want))


@pytest.mark.parametrize("profile", PROFILES)
def test_stacked_holder_norms_match_per_node_reference(profile, monkeypatch):
    monkeypatch.setattr(moi, "CHUNK_ROWS", 37)
    p = 3.5
    g = PowerAbs(p).derivative_model(1)
    base, w = generate_instance(8, 3, profile, p)
    t_grid = np.array([1e-3, 1e-2, 0.05, 0.1])
    for order in (0, 1, 2):
        draws = [generate_instance(20 + j, 3, profile, p) for j in range(order)]
        tail = tuple(eigendecompose(h) for h, _ in draws)
        perts = tuple(u.matrix for _, u in draws)

        def value(dec):
            if order == 0:
                return apply_scalar_function(g, dec).matrix
            return moi_exact(MoiRequest((dec,) + tail, perts, DividedDifference(g, order)))

        got = holder_difference_norms(
            g, eigendecompose(base), w.matrix, tail, perts, t_grid, p
        )
        ref = value(eigendecompose(base))
        for t, norm in zip(t_grid, got):
            want = schatten_norm(value(eigendecompose(base.matrix + t * w.matrix)) - ref, p / (p - 1.0))
            assert abs(norm - want) <= 1e-13 * (1.0 + want)


def test_stacked_holder_norms_match_member_calls():
    p = 3.5
    g = PowerAbs(p).derivative_model(1)
    draws = generate_instance([8, 9, 10, 11], 3, "singular", p)
    base = eigendecompose(np.stack([h.matrix for h, _ in draws]))
    w = np.stack([u.matrix for _, u in draws])
    w[2] = 0.0  # a degenerate member
    t_grid = np.array([1e-3, 1e-2, 0.05, 0.1])
    for order in (0, 1, 2):
        extra = [
            generate_instance([20 + j, 30 + j, 40 + j, 50 + j], 3, "singular", p)
            for j in range(order)
        ]
        tail = [eigendecompose(np.stack([h.matrix for h, _ in d])) for d in extra]
        perts = [np.stack([u.matrix for _, u in d]) for d in extra]
        got = holder_difference_norms(g, base, w, tail, perts, t_grid, p)
        assert got.shape == (4, 4)
        for i in range(4):
            one = holder_difference_norms(
                g, base[i], w[i], [d[i] for d in tail], [u[i] for u in perts], t_grid, p
            )
            if i == 2:  # degenerate: a NaN row, alone and in a stack
                assert np.isnan(one).all() and np.isnan(got[i]).all()
            else:
                assert np.array_equal(got[i], one)
    # A slot holding one matrix serves every member.
    got = holder_difference_norms(g, base[0], w, tail, perts, t_grid, p)
    for i in (0, 1, 3):
        one = holder_difference_norms(
            g, base[0], w[i], [d[i] for d in tail], [u[i] for u in perts], t_grid, p
        )
        assert np.array_equal(got[i], one)


def test_zero_directions_hand_no_matrix_to_the_eigensolver(monkeypatch):
    # Base and tail come decomposed, so the eigensolver sees only moving
    # points: 13 for each member whose direction is not zero, none for a
    # member whose direction is.
    p = 3.5
    g = PowerAbs(p).derivative_model(1)
    draws = generate_instance([8, 9, 10], 8, "singular", p)
    base = eigendecompose(np.stack([h.matrix for h, _ in draws]))
    w = np.stack([u.matrix for _, u in draws])
    w[1] = 0.0
    extra = generate_instance([20, 30, 40], 8, "singular", p)
    tail = [eigendecompose(np.stack([h.matrix for h, _ in extra]))]
    perts = [np.stack([u.matrix for _, u in extra])]
    t_grid = np.geomspace(1e-3, 0.1, 13)
    handed, eigh = [], np.linalg.eigh

    def counted(a):
        handed.append(len(a) if a.ndim == 3 else 1)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    got = holder_difference_norms(g, base, w, tail, perts, t_grid, p)
    assert sum(handed) == 2 * 13
    assert np.isnan(got[1]).all() and not np.isnan(got[[0, 2]]).any()
    handed.clear()
    one = holder_difference_norms(g, base[1], w[1], [tail[0][1]], [perts[0][1]], t_grid, p)
    assert np.isnan(one).all() and handed == []
    got = holder_difference_norms(g, base, np.zeros_like(w), tail, perts, t_grid, p)
    assert np.isnan(got).all() and handed == []


def test_taylor_remainder_is_the_per_point_difference():
    h, v = generate_instance(3, 4, "generic", 2.5)
    report = taylor_expand(h.matrix, v.matrix, 2.5)
    model = PowerAbs(2.5)
    base = float(np.sum(model.eval(np.linalg.eigvalsh(h.matrix))))
    for t, got in zip(report.t_grid, report.remainder):
        value = float(np.sum(model.eval(np.linalg.eigvalsh(h.matrix + t * v.matrix))))
        poly = sum(d * t**k for k, d in enumerate(report.deltas, start=1))
        assert got == value - base - poly


# lhs and rhs of taylor_integral_form on the dim-4 segment from H_0 to
# H_0 + 0.3 V/|V|_F of a seeded instance, and the rule its ladder stops at
# (15 for the Kronrod level, else the Gauss order): (profile, p, seed,
# final rule, lhs, rhs).
INTEGRAL_FORM_HEX = [
    ("generic", 2.5, 1, 15, "0x1.9605b96c6ff44p+0", "0x1.9605b96c6ff3ep+0"),
    ("generic", 3.5, 12, 64, "0x1.495be6ed4bd18p+0", "0x1.495be6ed6ad98p+0"),
    ("singular", 2.5, 1, 32, "0x1.1d271671b4fb0p+0", "0x1.1d27167094c58p+0"),
    ("singular", 3.5, 1, 15, "0x1.1b640efbafdc9p+0", "0x1.1b640efbaad82p+0"),
    ("clustered", 2.5, 2, 64, "0x1.54a1d9e742fa9p+0", "0x1.54a1d8d99e739p+0"),
    ("clustered", 3.5, 2, 32, "0x1.73ea6c1184c4cp+0", "0x1.73ea6c14a7bc7p+0"),
]


SEGMENT_IDS = [f"{profile}-{p}-{seed}" for profile, p, seed, *_ in INTEGRAL_FORM_HEX]


def moving_segment(profile, p, seed):
    h0, v = generate_instance(seed, 4, profile, p)
    return h0.matrix, h0.matrix + 0.3 * v.matrix / np.linalg.norm(v.matrix)


@pytest.mark.parametrize("profile, p, seed, final, lhs, rhs", INTEGRAL_FORM_HEX, ids=SEGMENT_IDS)
def test_integral_form_keeps_its_bits(profile, p, seed, final, lhs, rhs):
    h0, h1 = moving_segment(profile, p, seed)
    got = taylor_integral_form(h0, h1, p)
    assert (got[0].hex(), got[1].hex()) == (lhs, rhs)


def count_solver_calls(monkeypatch):
    """Counts of eigendecompose and moi_exact calls made from forms and moi."""
    calls = {"eigendecompose": 0, "moi_exact": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(forms, "eigendecompose")
    counted(moi, "eigendecompose")
    counted(forms, "moi_exact")
    return calls


@pytest.mark.parametrize(
    "profile, p, seed, final", [row[:4] for row in INTEGRAL_FORM_HEX], ids=SEGMENT_IDS
)
def test_kronrod_level_shares_one_decomposition_and_integral(
    profile, p, seed, final, monkeypatch
):
    calls = count_solver_calls(monkeypatch)
    h0, h1 = moving_segment(profile, p, seed)
    taylor_integral_form(h0, h1, p)
    later = (15, 32, 64).index(final)  # orders 32 and 64 run on their own
    m = SchattenExponent(p).m
    # H_0 and the 15 Kronrod nodes in one call, and one more call per later
    # order.
    assert calls["eigendecompose"] == 1 + later
    # The derivative term of order 2 (at m = 3) makes one integral, and the
    # t-integral one for the Kronrod level and one per later order.
    assert calls["moi_exact"] == (m - 2) + 1 + later


def test_kronrod_level_decomposes_16_matrices_and_integrates_15_members(monkeypatch):
    # Each segment's H_0 and its 15 Kronrod nodes go to one eigendecompose
    # call, and the remainder is one stacked integral of 15 members per
    # segment; the members still open then take 32 and 64 nodes.
    handed, members = [], []
    eig, exact = forms.eigendecompose, forms.moi_exact

    def decomposed(a):
        handed.append(len(a.matrix))
        return eig(a)

    def integrated(request):
        members.append(len(request.decompositions[0].eigenvalues))
        return exact(request)

    monkeypatch.setattr(forms, "eigendecompose", decomposed)
    monkeypatch.setattr(forms, "moi_exact", integrated)
    rows = [row for row in INTEGRAL_FORM_HEX if row[1] == 2.5]  # m = 2
    assert [row[3] for row in rows] == [15, 32, 64]
    taylor_integral_form(*moving_segment(*rows[0][:3]), 2.5)
    assert (handed, members) == ([16], [15])
    handed.clear(), members.clear()
    taylor_integral_form(*stacked_segments(rows), 2.5)
    assert (handed, members) == ([3 * 16, 2 * 32, 64], [3 * 15, 2 * 32, 64])


def stacked_segments(rows):
    """h0 and h1 stacks of the moving segments of INTEGRAL_FORM_HEX rows."""
    segments = [moving_segment(profile, p, seed) for profile, p, seed, *_ in rows]
    return np.stack([h0 for h0, _ in segments]), np.stack([h1 for _, h1 in segments])


@pytest.mark.parametrize("p", [2.5, 3.5])
def test_stacked_integral_form_keeps_each_members_bits(p):
    # Each exponent's rows stop at three different levels.
    rows = [row for row in INTEGRAL_FORM_HEX if row[1] == p]
    assert len({row[3] for row in rows}) > 1
    h0, h1 = stacked_segments(rows)
    lhs, rhs = taylor_integral_form(h0, h1, p)
    assert lhs.shape == rhs.shape == (len(rows),)
    assert [(a.hex(), b.hex()) for a, b in zip(lhs.tolist(), rhs.tolist())] == [
        tuple(row[4:]) for row in rows
    ]
    # Every m gives each member its own call's values.
    for q in (1.5, 2.5, 3.5):  # m = 1, 2, 3
        lhs, rhs = taylor_integral_form(h0, h1, q)
        for i in range(len(rows)):
            assert (lhs[i], rhs[i]) == taylor_integral_form(h0[i], h1[i], q)


def test_first_order_integral_form_takes_no_decomposition_along_its_nodes(monkeypatch):
    # At m = 1 (p <= 2) the integral is g(H_t) alone: only V is repeated
    # over each member's Gauss nodes, no member of the H_0 decomposition.
    taken = []
    along = forms._along

    def recorded(slots, index):
        taken.extend(slots)
        return along(slots, index)

    monkeypatch.setattr(forms, "_along", recorded)
    h0, h1 = stacked_segments(INTEGRAL_FORM_HEX)
    lhs, rhs = taylor_integral_form(h0, h1, 1.5)
    assert taken and not any(isinstance(x, SpectralDecomposition) for x in taken)
    for i in range(len(INTEGRAL_FORM_HEX)):
        assert (lhs[i], rhs[i]) == taylor_integral_form(h0[i], h1[i], 1.5)


@pytest.mark.parametrize("p", [2.5, 3.5])
def test_stacked_integral_form_takes_one_call_per_gauss_order(p, monkeypatch):
    rows = [row for row in INTEGRAL_FORM_HEX if row[1] == p]
    h0, h1 = stacked_segments(rows)
    calls = count_solver_calls(monkeypatch)
    taylor_integral_form(h0, h1, p)
    later = (15, 32, 64).index(max(row[3] for row in rows))
    m = SchattenExponent(p).m
    # Every H_0 and the 15 Kronrod nodes of every member in one call, then
    # one call per later order that some member reaches.
    assert calls["eigendecompose"] == 1 + later
    assert calls["moi_exact"] == (m - 2) + 1 + later


def test_embedding_preserves_schatten_norms():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    for p in (1.5, 2.5, 3.5):
        emb = selfadjoint_embed(x, p)
        np.testing.assert_allclose(
            schatten_norm(emb.matrix, p), schatten_norm(x, p), rtol=1e-12
        )
    with pytest.raises(ValidationError):
        selfadjoint_embed(x, 0.5)


def test_embedded_delta_matches_direct_for_hermitian():
    rng = np.random.default_rng(33)
    h = small_hermitian(rng, 3, scale=0.4)
    v = small_hermitian(rng, 3, scale=1.0)
    for k in (1, 2):
        form = FrechetForm(base=h, exponent=2.5, order=k)
        direct = delta_symmetric(form, [v] * k)
        dilated = embedded_delta(h, v, 2.5, k)
        np.testing.assert_allclose(dilated, direct, atol=1e-8)


def test_embedded_delta_nonhermitian_against_differences():
    # For rectangular X the dilation is the only route; check the slope
    # of t -> sum sigma(X + tV)^p against a central difference.
    rng = np.random.default_rng(37)
    x = np.diag([0.6, 0.4, 0.5]) + 0.05 * rng.standard_normal((3, 3))
    v = rng.standard_normal((3, 3))
    v = 0.5 * v / np.linalg.norm(v, ord=2)
    p = 2.5
    got = embedded_delta(x, v, p, 1)

    def phi(t):
        return float(np.sum(np.linalg.svd(x + t * v, compute_uv=False) ** p))

    step = 1e-5
    fd = (phi(step) - phi(-step)) / (2.0 * step)
    np.testing.assert_allclose(got, fd, atol=1e-6)


def test_form_order_gate_and_model_lift():
    h = np.diag([0.5, -0.4])
    with pytest.raises(UnsupportedConfigError):
        FrechetForm(base=h, exponent=2.5, order=3)  # |x|^2.5 stops at order 2
    # a smooth model lifts the ceiling to the global cap
    form = FrechetForm(base=h, exponent=2.5, order=3, model=Monomial(4))
    assert form.order == 3


def test_form_input_validation():
    with pytest.raises(ValidationError):
        FrechetForm(base=np.diag([0.9, 0.9]), exponent=2.5)  # ||H||_p > 1
    with pytest.raises(ValidationError):
        FrechetForm(base=np.diag([2.5, 0.0]), exponent=2.5)  # leaves interval
    # a stacked base is checked member by member
    stacked = FrechetForm(base=np.stack([np.diag([0.9, 0.0])] * 2), exponent=2.5, order=2)
    with pytest.raises(ValidationError, match="stacked"):
        delta_symmetric(stacked, [np.eye(2)] * 2)  # would pair 2 members with 2! orders
    with pytest.raises(ValidationError):
        FrechetForm(base=np.stack([np.diag([0.5, -0.4]), np.diag([0.9, 0.9])]), exponent=2.5)
    form = FrechetForm(base=np.diag([0.5, -0.4]), exponent=2.5, order=2)
    with pytest.raises(ValidationError):
        delta_symmetric(form, [np.eye(2)])  # wrong direction count
    with pytest.raises(ValidationError):
        delta_symmetric(form, [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValidationError):
        delta_symmetric(form, [np.eye(2), np.eye(3)])


def test_holder_norms_zero_direction_is_degenerate():
    base = np.diag([0.3, -0.2])
    got = holder_difference_norms(
        PowerAbs(2.5).derivative_model(1),
        base,
        np.zeros((2, 2)),
        (),
        (),
        [0.01, 0.1],
        2.5,
    )
    assert got.shape == (2,) and np.isnan(got).all()


def test_holder_norms_grow_from_zero():
    base = np.diag([0.3, -0.2])
    w = 0.5 * np.eye(2)
    got = holder_difference_norms(
        Monomial(2), base, w, (), (), [0.01, 0.02, 0.04], 2.0
    )
    assert got.shape == (3,)
    assert np.all(np.diff(got) > 0)


def test_holder_norms_need_one_tail_per_perturbation():
    base = np.diag([0.3, -0.2])
    w = 0.5 * np.eye(2)
    g = PowerAbs(2.5).derivative_model(1)
    with pytest.raises(ValidationError, match="tail"):
        holder_difference_norms(g, base, w, (base,), (), [0.01], 2.5)
    with pytest.raises(ValidationError, match="tail"):
        holder_difference_norms(g, base, w, (), (np.eye(2),), [0.01], 2.5)


def test_holder_norms_check_the_direction_before_any_solve(monkeypatch):
    monkeypatch.setattr(spectral, "_decompose", lambda a: pytest.fail("decomposed"))
    base = np.diag([0.3, -0.2])
    skew = np.array([[0.0, 0.3], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="^direction is not Hermitian"):
        holder_difference_norms(PowerAbs(2.5), base, base + skew, [base], [base], [0.1], 2.5)


def test_holder_norms_input_validation():
    base = np.diag([0.3, -0.2])
    w = 0.5 * np.eye(2)
    g = PowerAbs(2.5).derivative_model(1)
    for p in (1.0, 0.5, np.nan):
        with pytest.raises(ValidationError, match="1 < p"):
            holder_difference_norms(g, base, w, (), (), [0.01], p)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="t grid"):
            holder_difference_norms(g, base, w, (), (), [0.01, bad], 2.5)


# Commuting pairs: every derivative form of tr|H|^p reduces to the scalar
# ladder. Bounds on the error relative to sum_i |f^(k)(h_i)| prod_j |v_ji| / k!,
# read on a wider battery (seeds 1-300 at dims 2, 3, 8, 16, 64, and 3000
# hypothesis draws of seed, dim 2-16, exponent, profile, order and direction
# kind): at most 1.5e-14, so 2e-13 is a margin of 13x. The one exception is
# the top order k = m near the kink, where f^(m) ~ |x|^(p - m) has unbounded
# slope: the rounding of H's eigenvalues (eps * ||H||) then moves the exact
# value by up to eps * ||H|| * sum_i |f^(m+1)(h_i)| prod_j |v_ji| / m!, and the
# battery read up to 9.8e-10 (dims 2-3, a near-zero eigenvalue ~3e-8 beside
# large direction entries), so 1e-8 is a margin of 10x.
COMMUTING_RTOL = 2e-13
COMMUTING_KINK_TOP_RTOL = 1e-8


def _commuting_case(seed, dim, p, profile, k, repeated):
    """(H, [V_1..V_k], h, v): H = U diag(h) U* and V_j = U diag(v_j) U*
    for one seeded unitary U, h scaled to l^p norm 0.9. "tied" repeats
    each even-indexed eigenvalue at the next index; "kink" redraws every
    even-indexed one within 1e-6 of 0. A repeated direction is one v_j k
    times; otherwise the k directions differ."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    h = rng.uniform(-1.0, 1.0, dim)
    if profile == "tied":
        h[1::2] = h[::2][: dim // 2]
    h *= 0.9 / lp_norms(h[None], p)[0]
    if profile == "kink":
        h[::2] = rng.uniform(-1e-6, 1e-6, h[::2].size)
    v = rng.uniform(-1.0, 1.0, (1 if repeated else k, dim))
    v = np.repeat(v, k, axis=0) if repeated else v

    def conjugated(d):
        a = (u * d) @ u.conj().T
        return (a + a.conj().T) / 2

    return conjugated(h), [conjugated(x) for x in v], h, v


@pytest.mark.parametrize("profile", ["distinct", "tied", "kink"])
@pytest.mark.parametrize("p", [2.5, 3.5])
def test_commuting_forms_are_the_scalar_ladder(p, profile):
    # delta^(k)(V_1..V_k) = sum_i f^(k)(h_i) prod_j v_ji / k!, f^(k) off the
    # ladder, along one repeated direction (one bracket) and along k
    # distinct commuting ones (the k! argument orders in one call).
    m = SchattenExponent(p).m
    for dim, seed, k in itertools.product((2, 3, 8, 16, 64), (1, 2, 3), range(1, m + 1)):
        fk = PowerAbs(p).derivative_model(k)
        for repeated in (True, False) if k > 1 else (True,):
            hm, vms, h, v = _commuting_case(seed, dim, p, profile, k, repeated)
            got = delta_symmetric(FrechetForm(hm, p, order=k), vms)
            terms = fk.eval(h) * np.prod(v, axis=0) / math.factorial(k)
            error = abs(got - terms.sum()) / np.abs(terms).sum()
            rtol = COMMUTING_KINK_TOP_RTOL if profile == "kink" and k == m else COMMUTING_RTOL
            assert error <= rtol, (dim, seed, k, repeated, error)
