"""Tests for derivative forms, Taylor data, and the Hermitian dilation."""

import math

import numpy as np
import pytest

from specforms import moi
from specforms.divided import DividedDifference
from specforms.errors import UnsupportedConfigError, ValidationError
from specforms.forms import (
    FrechetForm,
    delta_bracket,
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
from specforms.spectral import apply_scalar_function, eigendecompose, schatten_norm
from specforms.util import real_trace


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
    brackets = delta_bracket(form, [v1, v2]), delta_bracket(form, [v2, v1])
    np.testing.assert_allclose(sym, sum(brackets) / 2.0, rtol=1e-14)
    np.testing.assert_allclose(sym, delta_symmetric(form, [v2, v1]), rtol=1e-14)


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
    assert trace_identity_residual(form, flip, k=2) <= 1e-12


def test_trace_identity_kink_kernel():
    rng = np.random.default_rng(6)
    for k in (2, 3):
        h = small_hermitian(rng, 4)
        v = small_hermitian(rng, 4, scale=1.0)
        form = FrechetForm(base=h, exponent=3.5, order=k)
        assert trace_identity_residual(form, v) <= 1e-7


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


def test_fd_oracle_rejects_bad_order_and_interval():
    with pytest.raises(UnsupportedConfigError):
        fd_oracle(np.eye(2) * 0.5, np.eye(2), 2.5, 4)
    with pytest.raises(ValidationError):
        fd_oracle(np.eye(2) * 1.99, np.eye(2), 2.5, 1, step=0.1)


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
    with pytest.raises(ValidationError):
        taylor_expand(np.diag([3.0, 0.0]), v, 2.5)  # outside working interval
    with pytest.raises(ValidationError):
        taylor_expand(h, np.array([[0.0, 1.0], [0.0, 0.0]]), 2.5)  # not Hermitian


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
    lhs, rhs = taylor_integral_form(h0, h1, 2.5, m=1)
    assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(lhs))


def per_node_integral_form(h0, h1, p, m, t_order):
    """rhs of taylor_integral_form, one decomposition and integral per node."""
    v = h1 - h0
    model = PowerAbs(p)
    g = model.derivative_model(1)
    d0 = eigendecompose(h0)
    rhs = float(np.sum(model.eval(d0.eigenvalues)))
    for k in range(1, m):
        rhs += model_delta_bracket(d0, model, [v] * k)
    x, w = np.polynomial.legendre.leggauss(t_order)
    total = 0.0
    for t, weight in zip((x + 1.0) / 2.0, w / 2.0):
        dt = eigendecompose(h0 + t * v)
        if m == 1:
            value = real_trace(v @ apply_scalar_function(g, dt).matrix)
        else:
            symbol = DividedDifference(g, m - 1)
            request = MoiRequest((dt,) + (d0,) * (m - 1), (v,) * (m - 1), symbol)
            value = t ** (m - 1) * real_trace(v @ moi_exact(request))
        total += weight * value
    return rhs + total


@pytest.mark.parametrize("profile", PROFILES)
def test_stacked_integral_form_matches_per_node_reference(profile, monkeypatch):
    monkeypatch.setattr(moi, "CHUNK_ROWS", 37)  # several groups per Gauss level
    p = 3.5
    h0, v = generate_instance(6, 3, profile, p)
    h1 = h0.matrix + 0.3 * v.matrix / np.linalg.norm(v.matrix)
    for m in (1, 2, 3):
        _, rhs = taylor_integral_form(h0.matrix, h1, p, m=m, t_order=8)
        want = per_node_integral_form(h0.matrix, h1, p, m, 8)
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


def test_taylor_remainder_is_the_per_point_difference():
    h, v = generate_instance(3, 4, "generic", 2.5)
    report = taylor_expand(h.matrix, v.matrix, 2.5, with_oracle=False)
    model = PowerAbs(2.5)
    base = float(np.sum(model.eval(np.linalg.eigvalsh(h.matrix))))
    for t, got in zip(report.t_grid, report.remainder):
        value = float(np.sum(model.eval(np.linalg.eigvalsh(h.matrix + t * v.matrix))))
        poly = sum(d * t**k for k, d in enumerate(report.deltas, start=1))
        assert got == value - base - poly


def test_integral_expansion_validation():
    h = np.diag([0.5, -0.4])
    with pytest.raises(ValidationError):
        taylor_integral_form(h, h, 2.5, m=3)  # needs m < p
    with pytest.raises(UnsupportedConfigError):
        taylor_integral_form(h, h, 2.5, m=0)


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
    form = FrechetForm(base=np.diag([0.5, -0.4]), exponent=2.5, order=2)
    with pytest.raises(ValidationError):
        delta_symmetric(form, [np.eye(2)])  # wrong direction count
    with pytest.raises(ValidationError):
        delta_symmetric(form, [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValidationError):
        delta_symmetric(form, [np.eye(2), np.eye(3)])
    with pytest.raises(UnsupportedConfigError):
        trace_identity_residual(form, np.eye(2), k=3)


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
    assert got.size == 0


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
