"""Simplex quadrature (momentum_quadrature) against closed forms and scipy,
and its rules (Gauss-Jacobi, the staircase cut) against mpmath and exact
polynomial integrals.

Each integral is the m-th divided difference of a model f: its kernel
h = f^(m) of the affine argument ell(s) = x_0 + sum_j s_j (x_j - x_0)
over the corner simplex R_m, evaluated by the one quadrature engine.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import integrate

from specforms import Polynomial, PowerAbs, PowerKernel
from specforms.momenta import momentum_quadrature
from specforms.simplex import (
    ORDER_LADDER,
    _jacobi01,
    corner_rule,
    split_by_kink,
    subsimplex_rule,
)

SIMPLEX_TOL = 1e-11

# Origins whose m-th derivative is the kernel named: the constant 1,
# |x| and |x|^3.
def one(m):
    """x^m / m!, whose m-th derivative is 1."""
    return Polynomial([0.0] * m + [1.0 / math.factorial(m)])


ABS = {2: PowerKernel(1.0 / 6.0, 3.0), 3: PowerKernel(1.0 / 24.0, 4.0, 1)}
ABS_CUBED = PowerKernel(1.0 / 20.0, 5.0)


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
        got = momentum_quadrature(one(m), x)
        np.testing.assert_allclose(got, volume, rtol=0, atol=1e-12)


def monomial_integrals(m, powers, q):
    """The integral over R_m of s^powers by corner_rule, and by
    subsimplex_rule on R_m with its vertices in reverse order."""
    values = []
    verts = np.vstack([np.zeros((1, m)), np.eye(m)])[::-1]
    det = abs(np.linalg.det(verts[1:] - verts[0]))
    for points, weights in (corner_rule(m, q), subsimplex_rule(verts, q, det)):
        values.append(weights @ np.prod(points**powers, axis=1))
    return values


def test_polynomial_exactness_m2():
    # closed forms: int over {s1,s2>=0, s1+s2<=1} of s1^a s2^b = a! b! / (a+b+2)!
    for a, b in ((0, 0), (1, 0), (1, 1), (2, 3), (4, 4)):
        exact = (
            math.factorial(a)
            * math.factorial(b)
            / math.factorial(a + b + 2)
        )
        for got in monomial_integrals(2, (a, b), ORDER_LADDER[1]):
            np.testing.assert_allclose(got, exact, rtol=1e-13)


def test_polynomial_exactness_m3():
    # int s1 s2 s3 over R_3 = 1!1!1!/6! = 1/720
    for got in monomial_integrals(3, (1, 1, 1), ORDER_LADDER[1]):
        np.testing.assert_allclose(got, 1.0 / 720.0, rtol=1e-13)


def test_smooth_integrand_matches_dblquad():
    # f = |x|^4.5 on nodes clear of 0: the kernel 15.75 |ell|^2.5 is smooth
    # on the simplex, and not a polynomial.
    x = np.array([0.5, 1.2, 0.8])
    got = momentum_quadrature(PowerAbs(4.5), x, tol=1e-13)
    want, err = dblquad_of_ell(lambda u: 15.75 * abs(u) ** 2.5, x)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_kink_split_makes_odd_kernels_exact_m2():
    # The integrand |ell(s)| kinks along ell = 0; after the split each
    # piece sees a plain polynomial, so quadrature meets scipy's adaptive
    # value while one product rule over all of R_2 is visibly off.
    x = np.array([-0.6, 1.0, 0.4])
    want, err = dblquad_of_ell(abs, x)
    assert err < 1e-10
    got = momentum_quadrature(ABS[2], x)
    np.testing.assert_allclose(got, want, rtol=0, atol=SIMPLEX_TOL)
    pts, wts = corner_rule(2, ORDER_LADDER[-1])
    unsplit = wts @ np.abs(x[0] + pts @ (x[1:] - x[0]))
    assert abs(unsplit - want) > 1e-6

    # odd cubic kernel: still piecewise polynomial after the split
    want3, _ = dblquad_of_ell(lambda u: abs(u) ** 3, x)
    got3 = momentum_quadrature(ABS_CUBED, x)
    np.testing.assert_allclose(got3, want3, rtol=0, atol=SIMPLEX_TOL)


def test_kink_split_makes_odd_kernels_exact_m3():
    x = np.array([-0.5, 0.8, 0.3, -0.2])
    got = momentum_quadrature(ABS[3], x)
    # Frozen reference: scipy.integrate.tplquad of |ell| over the same
    # simplex at epsabs=epsrel=1e-12 (reported error 4.2e-10).
    want = 0.03247115378123234
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_kink_on_vertex_still_integrates():
    # kink locus passes exactly through a vertex (x0 = 0)
    x = np.array([0.0, 1.0, -1.0])
    got = momentum_quadrature(ABS[2], x)
    want, err = dblquad_of_ell(abs, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=SIMPLEX_TOL)


def test_all_positive_kink_nodes_equals_plain_rule():
    # No sign change: |ell| is the smooth ell there, so the kink-aware
    # route and the plain route agree closely.
    x = np.array([0.3, 0.9, 0.5])
    kinked = momentum_quadrature(ABS[2], x)
    plain = momentum_quadrature(Polynomial((0.0, 0.0, 0.0, 1.0 / 6.0)), x)
    np.testing.assert_allclose(kinked, plain, rtol=1e-12)


def test_corner_rule_ladder_is_increasing():
    assert list(ORDER_LADDER) == sorted(set(ORDER_LADDER))
    pts, wts = corner_rule(2, 8)
    assert pts.shape == (64, 2)
    np.testing.assert_allclose(wts.sum(), 0.5, rtol=1e-13)


@pytest.mark.parametrize("q", ORDER_LADDER)
def test_jacobi_rule_matches_mpmath(q):
    # The rules join_rule asks for: alpha is the dimension of the kink face
    # (up to 3 at order 4), beta > -1 is g plus the kernel exponent. The
    # oracle nodes are the roots of P_q^(alpha, beta)(2r - 1), found by
    # Newton from each node: a step under 1e-15 leaves the root accurate
    # to about its square. The oracle weights are the closed form on
    # [-1, 1], 2^(a+b+1) Gamma(q+a+1) Gamma(q+b+1) / (Gamma(q+a+b+1) q!)
    # / ((1 - x^2) P_q'(x)^2), whose factor 2^(a+b+1) the map onto [0, 1]
    # cancels.
    with mp.workdps(20):
        for alpha in (0.0, 1.0, 2.0, 3.0):
            for beta in (-0.5, 0.5, 2.0, 3.5):
                r, w = _jacobi01(q, alpha, beta)
                assert r.shape == w.shape == (q,) and np.all(np.diff(r) > 0)
                a, b = mp.mpf(alpha), mp.mpf(beta)
                scale = mp.gamma(q + a + 1) * mp.gamma(q + b + 1)
                scale /= mp.gamma(q + a + b + 1) * mp.factorial(q)

                def dp(x):
                    return (q + a + b + 1) / 2 * mp.jacobi(q - 1, a + 1, b + 1, x)

                for node, weight in zip(r, w):
                    x = mp.findroot(
                        lambda t: mp.jacobi(q, a, b, t, zeroprec=4 * mp.prec),
                        2 * mp.mpf(node) - 1,
                        solver="newton",
                        df=dp,
                        tol=1e-15,
                        verify=False,
                    )
                    assert abs((x + 1) / 2 - node) <= 1e-15, (alpha, beta, node)
                    want = scale / ((1 - x * x) * dp(x) ** 2)
                    assert abs(weight - want) <= 1e-12 * want, (alpha, beta, node)


@st.composite
def cut_rows(draw):
    """Vertex values of an affine argument on R_m that change sign: zeros
    and magnitudes spread over 1e-8..1."""
    m = draw(st.integers(1, 3))
    value = st.one_of(
        st.just(0.0),
        st.builds(
            lambda e, sign: sign * 10.0**e,
            st.floats(-8.0, 0.0),
            st.sampled_from([-1.0, 1.0]),
        ),
    )
    rest = draw(st.lists(value, min_size=m - 1, max_size=m - 1))
    row = np.array([draw(value.filter(bool)), *rest])
    row = np.append(row, -np.sign(row[0]) * 10.0 ** draw(st.floats(-8.0, 0.0)))
    return row[draw(st.permutations(range(m + 1)))]


@settings(max_examples=100, deadline=None)
@given(row=cut_rows())
def test_staircase_cut_covers_both_sides(row):
    m = row.size - 1
    pieces = split_by_kink(row[None])
    assert set(pieces.sign.tolist()) == {-1, 1}
    # the affine argument at a point of R_m, recomputed from coordinates
    slack = 1e-14 * np.abs(row).max()
    volume = 0.0
    for pts, vals, sign in zip(pieces.verts, pieces.ell, pieces.sign):
        assert pts.shape == (m + 1, m)
        assert np.all(sign * vals >= 0.0)
        ell = row[0] + pts @ (row[1:] - row[0])
        assert np.all(sign * ell >= -slack)
        np.testing.assert_allclose(ell, vals, rtol=0, atol=slack)
        volume += abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(m)
    np.testing.assert_allclose(volume, 1.0 / math.factorial(m), rtol=1e-12)
    # Degree <= 4 in the barycentric coordinates (s_0, ..., s_m):
    # s^a integrates to prod(a!) / (|a| + m)! over R_m.
    for a in ((4,) + (0,) * m, (0,) * m + (4,), (2, 1, 1, 0)[: m + 1], (1,) * (m + 1)):
        got = 0.0
        for pts in pieces.verts:
            det = abs(np.linalg.det(pts[1:] - pts[0]))
            nodes, weights = subsimplex_rule(pts, ORDER_LADDER[0], det)
            s = np.hstack([1.0 - nodes.sum(axis=1, keepdims=True), nodes])
            got += weights @ np.prod(s ** np.array(a), axis=1)
        want = math.prod(map(math.factorial, a)) / math.factorial(sum(a) + m)
        np.testing.assert_allclose(got, want, rtol=1e-12)
