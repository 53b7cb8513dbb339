"""End-to-end oracles for assembled operator integrals.

Neither reference uses the divided-difference table, quadrature, the phi
tensor or the einsum contraction of moi:

- For a polynomial f, the (0, k) block of f(B), where B is the block
  upper-bidiagonal matrix with H_0..H_k on its diagonal and V_1..V_k above
  it, is T_{f^[k]}(V_1..V_k) on (H_0..H_k) (Mathias' block-triangular
  formula). Horner's rule gives f(B) up to rounding, at any dimension.
- For |x|^p, the eigenprojection series summed in mpmath at 60 digits,
  the float eigendecompositions taken as exact and each divided
  difference read off the 60-digit Hermite table (hermite_value).
"""

import itertools

import numpy as np
import pytest
from mpmath import mp

from specforms import (
    PROFILES,
    DividedDifference,
    MoiRequest,
    Polynomial,
    PowerAbs,
    eigendecompose,
    generate_instance,
    moi_exact,
)
from test_divided import hermite_value

# Relative Frobenius error allowed against either oracle.
ORACLE_RTOL = 1e-10
CUBIC_PLUS = Polynomial((0.3, -1.0, 0.5, 2.0, -0.7, 0.25, 0.4))


def instances(dim, order, profile, p, shared, seed):
    """(H_0..H_k, V_1..V_k) as arrays: one H in every slot when shared,
    else the H of seeds seed..seed+k; the V of seeds seed..seed+k-1."""
    pairs = generate_instance(list(range(seed, seed + order + 1)), dim, profile, p)
    hs = [pairs[0][0].matrix] * (order + 1) if shared else [h.matrix for h, _ in pairs]
    return hs, [v.matrix for _, v in pairs[:order]]


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def horner_block(coeffs, hs, vs):
    """The (0, k) block of f(B) by Horner's rule, f = sum_j coeffs[j] x^j."""
    n, k = hs[0].shape[0], len(vs)
    b = np.zeros(((k + 1) * n, (k + 1) * n), dtype=complex)
    for j, h in enumerate(hs):
        b[j * n : (j + 1) * n, j * n : (j + 1) * n] = h
    for j, v in enumerate(vs):
        b[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = v
    out = coeffs[-1] * np.eye(len(b))
    for c in coeffs[-2::-1]:
        out = out @ b + c * np.eye(len(b))
    return out[:n, k * n :]


@pytest.mark.parametrize("dim", [8, 32, 64])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
def test_polynomial_integrals_match_the_block_matrix(dim, shared):
    for order in (1, 2, 3):
        hs, vs = instances(dim, order, "generic", 3.5, shared, seed=7 + order)
        got = moi_exact(MoiRequest(tuple(hs), tuple(vs), DividedDifference(CUBIC_PLUS, order)))
        want = horner_block(CUBIC_PLUS.coeffs, hs, vs)
        assert relative_error(got, want) <= ORACLE_RTOL, order


def mp_integral(p, decs, vs):
    """T_{f^[k]}(V_1..V_k) on the decompositions, f = |x|^p, summed over
    every index tuple in mpmath at 60 digits."""
    with mp.workdps(60):
        us = [mp.matrix(d.eigenvectors.tolist()) for d in decs]
        rotated = [us[j].H * mp.matrix(v.tolist()) * us[j + 1] for j, v in enumerate(vs)]
        n = decs[0].dim
        core = mp.zeros(n, n)
        for idx in itertools.product(range(n), repeat=len(decs)):
            term = hermite_value(p, [d.eigenvalues[i] for d, i in zip(decs, idx)])
            for j, r in enumerate(rotated):
                term *= r[idx[j], idx[j + 1]]
            core[idx[0], idx[-1]] += term
        total = us[0] * core * us[-1].H
        return np.array([[complex(total[i, j]) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
def test_power_integrals_match_the_60_digit_series(profile, shared):
    p = 3.5
    for dim, order in itertools.product((3, 4), (1, 2, 3)):
        hs, vs = instances(dim, order, profile, p, shared, seed=dim + 10 * order)
        decs = tuple(eigendecompose(h) for h in hs)
        got = moi_exact(MoiRequest(decs, tuple(vs), DividedDifference(PowerAbs(p), order)))
        assert relative_error(got, mp_integral(p, decs, vs)) <= ORACLE_RTOL, (dim, order)
