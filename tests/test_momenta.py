"""Integral momenta over the simplex: hand values, weights, companions."""

import numpy as np
import pytest

from specforms import (
    Monomial,
    MomentumSpec,
    Polynomial,
    PowerAbs,
    UnsupportedConfigError,
    ValidationError,
    momentum_eval,
    momentum_perturbation_pair,
)
from specforms.momenta import momentum_quadrature

QUAD_TOL = 1e-9
CROSS_TOL = 1e-8

ONE = Polynomial((1.0,))
SIX_X = Polynomial((0.0, 6.0))


def test_constant_kernel_gives_simplex_volume():
    # integral of 1 over S_m has mass 1/m!
    for m, vol in ((1, 1.0), (2, 0.5), (3, 1.0 / 6.0)):
        spec = MomentumSpec(m=m, kernel=ONE)
        x = np.linspace(-0.5, 0.7, m + 1)
        np.testing.assert_allclose(momentum_eval(spec, x), vol, rtol=1e-12)


def test_linear_kernel_hand_value():
    # h(u) = 6u, m = 2: each s_j integrates to 1/6, so phi = x0 + x1 + x2
    spec = MomentumSpec(m=2, kernel=SIX_X)
    for x in ([0.1, -0.4, 0.9], [0.0, 0.0, 1.2], [-1.0, 1.0, 0.5]):
        np.testing.assert_allclose(momentum_eval(spec, x), sum(x), rtol=1e-12)


def test_monomial_weight_hand_value():
    # Q = s_1 s_2 with kernel 1: integral of s1 s2 over R_2 is 1/24
    spec = MomentumSpec(m=2, kernel=ONE, q_terms=(((0, 1, 1), 1.0),))
    x = np.array([0.3, -0.2, 0.8])
    np.testing.assert_allclose(momentum_eval(spec, x), 1.0 / 24.0, rtol=1e-10)


def test_weight_linearity():
    x = np.array([0.4, -0.3, 0.25])
    kernel = Polynomial((0.5, 1.0, -2.0))
    q1 = (((1, 0, 0), 1.0),)
    q2 = (((0, 2, 0), 1.0),)
    combined = MomentumSpec(m=2, kernel=kernel, q_terms=q1 + (((0, 2, 0), 2.0),))
    a = momentum_eval(MomentumSpec(m=2, kernel=kernel, q_terms=q1), x)
    b = momentum_eval(MomentumSpec(m=2, kernel=kernel, q_terms=q2), x)
    np.testing.assert_allclose(momentum_eval(combined, x), a + 2.0 * b, rtol=1e-10)


def test_constant_weight_symmetry():
    # Q = 1 makes phi symmetric in its arguments.
    spec = MomentumSpec.from_divided_difference(PowerAbs(3.5), 2)
    x = np.array([0.7, -0.2, 0.4])
    base = momentum_eval(spec, x)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0)):
        np.testing.assert_allclose(momentum_eval(spec, x[list(perm)]), base, rtol=1e-12)
    assert spec.constant_weight == 1.0
    assert MomentumSpec(m=2, kernel=ONE, q_terms=(((1, 0, 0), 1.0),)).constant_weight is None


def test_divided_difference_route_matches_quadrature():
    # Same momentum through the recursion and through simplex quadrature.
    rng = np.random.default_rng(5)
    for p in (2.5, 3.5):
        for k in (1, 2):
            spec = MomentumSpec.from_divided_difference(PowerAbs(p), k)
            assert spec.origin is not None
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, size=k + 1)
                fast = momentum_eval(spec, x, tol=QUAD_TOL)
                slow = momentum_quadrature(spec, x, tol=QUAD_TOL)
                np.testing.assert_allclose(fast, slow, rtol=0, atol=CROSS_TOL)


def test_quadrature_handles_arguments_straddling_zero():
    # The kernel |x|^0.5-type singularity sits inside the hull.
    spec = MomentumSpec.from_divided_difference(PowerAbs(2.5), 2)
    x = np.array([-0.8, 0.5, 0.2])
    fast = momentum_eval(spec, x, tol=QUAD_TOL)
    slow = momentum_quadrature(spec, x, tol=QUAD_TOL)
    np.testing.assert_allclose(fast, slow, rtol=0, atol=CROSS_TOL)


def test_perturbation_pair_quotient_identity():
    # psi(x0, x1, y...) equals the first divided difference of
    # x -> phi(x, y...) between x0 and x1.
    for model, k in ((PowerAbs(3.5), 2), (Polynomial((0.0, 1.0, 0.5, -0.25)), 2)):
        spec = MomentumSpec.from_divided_difference(model, k)
        psi = momentum_perturbation_pair(spec)
        assert psi.m == spec.m + 1
        x0, x1 = 0.6, -0.3
        y = np.array([0.2, -0.5])
        lhs = momentum_eval(psi, np.array([x0, x1, *y]), tol=QUAD_TOL)
        phi0 = momentum_eval(spec, np.array([x0, *y]), tol=QUAD_TOL)
        phi1 = momentum_eval(spec, np.array([x1, *y]), tol=QUAD_TOL)
        np.testing.assert_allclose(lhs, (phi0 - phi1) / (x0 - x1), rtol=0, atol=1e-7)


def test_perturbation_pair_confluent_matches_partial_derivative():
    # At x0 = x1 the companion gives the partial derivative in the
    # first slot; central difference as the oracle.
    spec = MomentumSpec.from_divided_difference(PowerAbs(3.5), 1)
    psi = momentum_perturbation_pair(spec)
    a, y = 0.35, -0.6
    lhs = momentum_eval(psi, np.array([a, a, y]), tol=1e-10)
    h = 1e-5
    plus = momentum_eval(spec, np.array([a + h, y]), tol=1e-12)
    minus = momentum_eval(spec, np.array([a - h, y]), tol=1e-12)
    np.testing.assert_allclose(lhs, (plus - minus) / (2.0 * h), rtol=0, atol=1e-6)


def test_perturbation_pair_splits_weight_binomially():
    # Q = s_0^2 becomes (s_0 + s_1)^2 in the companion.
    spec = MomentumSpec(m=1, kernel=Polynomial((0.0, 0.0, 3.0)), q_terms=(((2, 0), 1.0),))
    psi = momentum_perturbation_pair(spec)
    terms = dict(psi.q_terms)
    assert terms == {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 2, 0): 1.0}
    x0, x1, y = 0.5, -0.1, 0.3
    lhs = momentum_eval(psi, np.array([x0, x1, y]), tol=1e-10)
    phi0 = momentum_eval(spec, np.array([x0, y]), tol=1e-12)
    phi1 = momentum_eval(spec, np.array([x1, y]), tol=1e-12)
    np.testing.assert_allclose(lhs, (phi0 - phi1) / (x0 - x1), rtol=0, atol=1e-8)


def test_row_stack_takes_quadrature_once_per_distinct_row(monkeypatch):
    # A momentum without a divided-difference route maps a row stack to
    # one value per row; a constant-weight one counts permuted rows once.
    from specforms import momenta

    calls = []
    quadrature = momenta.momentum_quadrature

    def counted(spec, x, tol=1e-9):
        calls.append(tuple(x))
        return quadrature(spec, x, tol=tol)

    monkeypatch.setattr(momenta, "momentum_quadrature", counted)
    rows = np.array([[0.3, -0.2, 0.8], [0.8, 0.3, -0.2], [0.3, -0.2, 0.8], [0.1, 0.5, -0.6]])
    for q_terms, distinct in ((None, 2), ((((0, 1, 1), 1.0),), 3)):
        spec = MomentumSpec(m=2, kernel=PowerAbs(2.5).derivative_model(2), q_terms=q_terms)
        calls.clear()
        got = momentum_eval(spec, rows, tol=QUAD_TOL)
        assert got.shape == (4,) and len(calls) == distinct
        args = np.sort(rows, axis=1) if q_terms is None else rows
        np.testing.assert_array_equal(got, [quadrature(spec, x, tol=QUAD_TOL) for x in args])


def test_validation_guards():
    with pytest.raises(ValidationError):
        MomentumSpec(m=0, kernel=ONE)
    with pytest.raises(ValidationError):
        MomentumSpec(m=5, kernel=ONE)
    with pytest.raises(ValidationError):
        MomentumSpec(m=2, kernel=ONE, q_terms=(((0, 1), 1.0),))
    with pytest.raises(UnsupportedConfigError):
        MomentumSpec.from_divided_difference(PowerAbs(2.5), 3)
    spec = MomentumSpec(m=2, kernel=ONE)
    with pytest.raises(ValidationError):
        momentum_eval(spec, np.array([0.1, 0.2]))
    with pytest.raises(ValidationError, match="domain"):
        momentum_eval(MomentumSpec.from_divided_difference(PowerAbs(2.5), 1), np.array([0.1, 5.0]))
