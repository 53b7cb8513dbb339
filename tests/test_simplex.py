"""Simplex quadrature (momentum_quadrature) against closed forms and scipy.

Each integral is a momentum: a kernel h of the affine argument
ell(s) = x_0 + sum_j s_j (x_j - x_0) against a polynomial weight Q(s)
over the corner simplex R_m, evaluated by the one quadrature engine.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from specforms import CallableKernel, MomentumSpec, Polynomial, PowerKernel, ValidationError
from specforms.momenta import momentum_quadrature
from specforms.simplex import ORDER_LADDER, corner_rule

SIMPLEX_TOL = 1e-11

ONE = Polynomial((1.0,))
ABS = PowerKernel(1.0, 1.0)
ABS_CUBED = PowerKernel(1.0, 3.0)


def weighted(m, alpha):
    """The momentum of the constant kernel 1 against Q = s^alpha."""
    return MomentumSpec(m=m, kernel=ONE, q_terms=((alpha, 1.0),))


def dblquad_of_ell(fn, x):
    """scipy's adaptive integral over R_2 of fn(ell(s)) and its error."""
    return integrate.dblquad(
        lambda y, u: fn(x[0] + u * (x[1] - x[0]) + y * (x[2] - x[0])),
        0.0,
        1.0,
        0.0,
        lambda u: 1.0 - u,
        epsabs=1e-13,
        epsrel=1e-13,
    )


def test_weights_sum_to_simplex_volume():
    for m in (1, 2, 3, 4):
        volume = 1.0 / math.factorial(m)
        pts, wts = corner_rule(m, ORDER_LADDER[0])
        np.testing.assert_allclose(wts.sum(), volume, rtol=0, atol=1e-12)
        assert np.all(wts > 0)
        assert np.all(pts >= -1e-12)
        assert np.all(pts.sum(axis=1) <= 1.0 + 1e-12)
        x = np.linspace(-0.5, 0.7, m + 1)
        got = momentum_quadrature(MomentumSpec(m=m, kernel=ONE), x)
        np.testing.assert_allclose(got, volume, rtol=0, atol=1e-12)


def test_rejects_bad_orders():
    with pytest.raises(ValidationError):
        MomentumSpec(m=0, kernel=ONE)
    with pytest.raises(ValidationError):
        MomentumSpec(m=5, kernel=ONE)
    with pytest.raises(ValidationError):
        momentum_quadrature(MomentumSpec(m=2, kernel=ONE), np.array([0.1, 0.2]))


def test_polynomial_exactness_m2():
    # closed forms: int over {s1,s2>=0, s1+s2<=1} of s1^a s2^b = a! b! / (a+b+2)!
    x = np.array([0.3, -0.2, 0.8])
    for a, b in ((0, 0), (1, 0), (1, 1), (2, 3), (4, 4)):
        exact = (
            math.factorial(a)
            * math.factorial(b)
            / math.factorial(a + b + 2)
        )
        got = momentum_quadrature(weighted(2, (0, a, b)), x)
        np.testing.assert_allclose(got, exact, rtol=1e-13)


def test_polynomial_exactness_m3():
    # int s1 s2 s3 over R_3 = 1!1!1!/6! = 1/720
    x = np.array([0.3, -0.2, 0.8, 0.1])
    got = momentum_quadrature(weighted(3, (0, 1, 1, 1)), x)
    np.testing.assert_allclose(got, 1.0 / 720.0, rtol=1e-13)


def test_smooth_integrand_matches_dblquad():
    # exp(s1 - 2 s2) is exp(ell(s)) at vertex values (0, 1, -2)
    x = np.array([0.0, 1.0, -2.0])
    got = momentum_quadrature(MomentumSpec(m=2, kernel=CallableKernel(np.exp)), x, tol=1e-13)
    want, err = integrate.dblquad(
        lambda y, u: np.exp(u - 2.0 * y), 0.0, 1.0, 0.0, lambda u: 1.0 - u
    )
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_kink_split_makes_odd_kernels_exact_m2():
    # The integrand |ell(s)| kinks along ell = 0; after the split each
    # piece sees a plain polynomial, so quadrature meets scipy's adaptive
    # value while one product rule over all of R_2 is visibly off.
    x = np.array([-0.6, 1.0, 0.4])
    want, err = dblquad_of_ell(abs, x)
    assert err < 1e-10
    got = momentum_quadrature(MomentumSpec(m=2, kernel=ABS), x)
    np.testing.assert_allclose(got, want, rtol=0, atol=SIMPLEX_TOL)
    pts, wts = corner_rule(2, ORDER_LADDER[-1])
    unsplit = wts @ np.abs(x[0] + pts @ (x[1:] - x[0]))
    assert abs(unsplit - want) > 1e-6

    # odd cubic kernel: still piecewise polynomial after the split
    want3, _ = dblquad_of_ell(lambda u: abs(u) ** 3, x)
    got3 = momentum_quadrature(MomentumSpec(m=2, kernel=ABS_CUBED), x)
    np.testing.assert_allclose(got3, want3, rtol=0, atol=SIMPLEX_TOL)


def test_kink_split_makes_odd_kernels_exact_m3():
    x = np.array([-0.5, 0.8, 0.3, -0.2])
    got = momentum_quadrature(MomentumSpec(m=3, kernel=ABS), x)
    # Frozen reference: scipy.integrate.tplquad of |ell| over the same
    # simplex at epsabs=epsrel=1e-12 (reported error 4.2e-10).
    want = 0.03247115378123234
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_kink_on_vertex_still_integrates():
    # kink locus passes exactly through a vertex (x0 = 0)
    x = np.array([0.0, 1.0, -1.0])
    got = momentum_quadrature(MomentumSpec(m=2, kernel=ABS), x)
    want, err = dblquad_of_ell(abs, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=SIMPLEX_TOL)


def test_all_positive_kink_nodes_equals_plain_rule():
    # No sign change: |ell| is the smooth ell there, so the kink-aware
    # route and the plain route agree closely.
    x = np.array([0.3, 0.9, 0.5])
    kinked = momentum_quadrature(MomentumSpec(m=2, kernel=ABS), x)
    plain = momentum_quadrature(MomentumSpec(m=2, kernel=Polynomial((0.0, 1.0))), x)
    np.testing.assert_allclose(kinked, plain, rtol=1e-12)


def test_corner_rule_ladder_is_increasing():
    assert list(ORDER_LADDER) == sorted(set(ORDER_LADDER))
    pts, wts = corner_rule(2, 8)
    assert pts.shape == (64, 2)
    np.testing.assert_allclose(wts.sum(), 0.5, rtol=1e-13)
