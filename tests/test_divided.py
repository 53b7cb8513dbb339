"""Divided differences: recursion, integral fallback, confluent nodes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from specforms import (
    DividedDifference,
    Monomial,
    Polynomial,
    PowerAbs,
    PowerKernel,
    UnsupportedConfigError,
    ValidationError,
    divided_difference,
)
from specforms import divided
from specforms.momenta import momentum_quadrature
from specforms.util import sorted_columns

CROSS_TOL = 1e-8  # ten times the default 1e-9 quadrature tolerance


def complete_homogeneous(degree, nodes):
    """Sum of all degree-d monomials in the nodes (h_d), the closed form
    for divided differences of x^n with d = n - k."""
    if degree < 0:
        return 0.0
    return float(
        sum(
            np.prod(c)
            for c in itertools.combinations_with_replacement(nodes, degree)
        )
    )


def test_monomial_complete_homogeneous_oracle():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4, 5):
        for k in (0, 1, 2, min(3, n)):
            nodes = rng.uniform(-1.5, 1.5, size=k + 1)
            want = complete_homogeneous(n - k, nodes)
            got = divided_difference(Monomial(n), nodes)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_cubic_hand_value():
    # f = x^3 at (0, 1, 2): first differences 1 and 7, then (7-1)/2 = 3
    assert divided_difference(Monomial(3), (0.0, 1.0, 2.0)) == pytest.approx(3.0, abs=1e-13)


def test_power_abs_first_order_quotient():
    p = 2.5
    for a, b in ((0.9, -0.4), (0.3, 0.7), (-1.0, 1.0)):
        want = (abs(a) ** p - abs(b) ** p) / (a - b)
        got = divided_difference(PowerAbs(p), (a, b))
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_zeroth_order_is_evaluation():
    np.testing.assert_allclose(divided_difference(PowerAbs(2.5), (0.6,)), 0.6**2.5, rtol=1e-14)


@pytest.mark.parametrize(
    "coeffs",
    [(3.0,), (0.25, -1.0, 0.5, 2.0), (0.0, 0.0, 0.0, 0.0, 1.0), (-0.0, 1.5, -0.0, 1e-17, -7.25)],
)
def test_polynomial_eval_matches_numpy_bitwise(coeffs):
    # Polynomial.eval takes numpy's steps itself; a signed zero or a
    # subnormal must come out with numpy's bits, at every derivative order.
    rng = np.random.default_rng(5)
    x = np.concatenate(
        [rng.uniform(-2.0, 2.0, 2000), [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.0, -2.0]]
    )
    model = Polynomial(coeffs)
    for order in range(5):
        reference = np.polynomial.Polynomial(coeffs).deriv(order)
        want = reference(x)
        for got in (model.eval(x, order), model.derivative_model(order).eval(x)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for point in (-0.0, 1e-300, 0.3):
            one = model.eval(point, order)
            assert type(one) is float and one.hex() == float(reference(point)).hex()


def test_permutation_invariance_is_bitwise():
    nodes = np.array([0.85, -0.3, 0.42, -0.77])
    base = divided_difference(PowerAbs(3.5), nodes)
    for perm in itertools.permutations(range(4)):
        assert divided_difference(PowerAbs(3.5), nodes[list(perm)]) == base


def test_recursion_agrees_with_integral_representation():
    rng = np.random.default_rng(11)
    for p, k in ((1.5, 1), (2.5, 1), (2.5, 2), (3.5, 2), (3.5, 3)):
        for _ in range(10):
            nodes = rng.uniform(-1.0, 1.0, size=k + 1)
            a = divided_difference(PowerAbs(p), nodes)
            b = momentum_quadrature(PowerAbs(p), nodes)
            np.testing.assert_allclose(a, b, rtol=0, atol=CROSS_TOL)


def test_clustered_nodes_agree_with_exact_confluent_limit():
    # Two nodes 1e-7 apart: the recursion would cancel, the integral
    # representation must approach the confluent value f'(a) smoothly.
    p = 3.5
    a = 0.5
    got = divided_difference(PowerAbs(p), (a, a + 1e-7))
    want = p * a ** (p - 1.0)  # f'(a) up to O(1e-7)
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_exactly_repeated_nodes_hit_derivative():
    # f^[1](a, a) = f'(a), f^[2](a, a, a) = f''(a)/2
    p = 3.5
    a = -0.6
    np.testing.assert_allclose(
        divided_difference(PowerAbs(p), (a, a)),
        p * abs(a) ** (p - 1.0) * np.sign(a),
        rtol=1e-9,
    )
    np.testing.assert_allclose(
        divided_difference(PowerAbs(p), (a, a, a)),
        p * (p - 1.0) * abs(a) ** (p - 2.0) / 2.0,
        rtol=1e-8,
    )


def test_cluster_at_kink_stays_finite():
    # Nodes collapsing onto the |x|^p kink exercise the Jacobi-weighted
    # radial rule; for p = 2.5 the confluent value is f'(0) = 0.
    got = divided_difference(PowerAbs(2.5), (0.0, 1e-8))
    np.testing.assert_allclose(got, 0.0, atol=1e-8)


def test_symbol_descriptor_validates():
    sym = DividedDifference(PowerAbs(2.5), 2)
    val = sym(np.array([0.1, -0.4, 0.7]))
    np.testing.assert_allclose(
        val, divided_difference(PowerAbs(2.5), (0.1, -0.4, 0.7)), rtol=1e-12
    )
    with pytest.raises(ValidationError):
        sym(np.array([0.1, 0.2]))
    with pytest.raises(UnsupportedConfigError):
        DividedDifference(PowerAbs(2.5), 3)
    with pytest.raises(UnsupportedConfigError):
        divided_difference(PowerAbs(2.5), (0.1, 0.2, 0.3, 0.4))


def test_domain_guard():
    with pytest.raises(ValidationError, match="domain"):
        divided_difference(PowerAbs(2.5), (0.5, 3.0))
    # A Monomial is a PowerKernel, so it has the class's one domain, the
    # working interval; no kernel takes another.
    with pytest.raises(ValidationError, match=r"outside the domain \[-2.0, 2.0\]"):
        divided_difference(Monomial(3), (0.0, 1.0, 2.5))
    with pytest.raises(TypeError):
        PowerKernel(1.0, 2.0, domain=(-1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=2, max_size=3
    ),
    c0=st.floats(min_value=-2.0, max_value=2.0),
    c1=st.floats(min_value=-2.0, max_value=2.0),
)
# f(c) underflows to 0 for the mixed model, and the table used to return
# -1 for a divided difference of about 1e-272 with a tiny error bound.
@example(nodes=[0.0, 0.0, 2.8038700568660483e-272], c0=0.0, c1=2.8038700568660483e-272)
def test_linearity_in_the_model(nodes, c0, c1):
    f = Polynomial((0.0, 0.0, 1.0))
    g = Polynomial((0.0, 1.0, 0.0, 0.5))
    mix = Polynomial(np.array([0.0, c1, c0, 0.5 * c1]))
    a = divided_difference(f, nodes)
    b = divided_difference(g, nodes)
    got = divided_difference(mix, nodes)
    np.testing.assert_allclose(got, c0 * a + c1 * b, rtol=1e-9, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    shift=st.floats(min_value=-0.5, max_value=0.5),
    a=st.floats(min_value=-0.9, max_value=0.9),
    b=st.floats(min_value=-0.9, max_value=0.9),
)
def test_polynomial_shift_rule(shift, a, b):
    # (x+c)^2 divided differences equal x^2 differences at shifted nodes
    f = Polynomial((shift * shift, 2.0 * shift, 1.0))
    got = divided_difference(f, (a, b))
    want = divided_difference(Monomial(2), (a + shift, b + shift))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


# Tie patterns by order: slot i holds the i-th distinct node level.
TIE_PATTERNS = {
    1: ((0, 0),),
    2: ((0, 0, 0), (0, 0, 1), (0, 1, 1)),
    3: (
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 1, 1, 1),
        (0, 0, 1, 1),
        (0, 0, 1, 2),
        (0, 1, 1, 2),
        (0, 1, 2, 2),
    ),
}


def hermite_value(p, nodes):
    """f^[k] of |x|^p as a 60-digit mpf: the divided-difference table with
    the analytic confluent value f^(L)(x)/L! wherever L+1 nodes coincide."""
    with mp.workdps(60):
        p = mp.mpf(p)

        def derivative(x, order):
            coef = mp.mpf(1)
            for j in range(order):
                coef *= p - j
            if x == 0:
                return coef if p == order else mp.mpf(0)
            return coef * abs(x) ** (p - order) * mp.sign(x) ** order

        x = sorted(mp.mpf(float(v)) for v in nodes)
        vals = [derivative(v, 0) for v in x]
        for level in range(1, len(x)):
            vals = [
                derivative(x[i], level) / math.factorial(level)
                if x[i + level] == x[i]
                else (vals[i + 1] - vals[i]) / (x[i + level] - x[i])
                for i in range(len(vals) - 1)
            ]
        return vals[0]


def hermite_reference(p, nodes):
    """hermite_value rounded to a float."""
    return float(hermite_value(p, nodes))


@st.composite
def tied_nodes(draw):
    """(p, nodes): a tie pattern of order 1-3 with the other gaps drawn
    log-uniformly from 1e-9 to 0.5, placed freely, with its tie at 0, or
    straddling 0."""
    p = draw(st.floats(min_value=1.0, max_value=4.0, exclude_min=True))
    k = min(draw(st.integers(min_value=1, max_value=3)), PowerAbs(p).max_order)
    pattern = draw(st.sampled_from(TIE_PATTERNS[k]))
    gaps = [
        10.0 ** draw(st.floats(min_value=-9.0, max_value=math.log10(0.5)))
        for _ in range(max(pattern))
    ]
    levels = np.concatenate([[0.0], np.cumsum(gaps)])
    placement = draw(st.sampled_from(("free", "tie_at_zero", "straddle")))
    if placement == "free":
        shift = draw(st.floats(min_value=-1.2, max_value=1.2 - levels[-1]))
    elif placement == "tie_at_zero":
        tied = next(level for level in pattern if pattern.count(level) > 1)
        shift = -levels[tied]
    else:
        shift = -levels[-1] * draw(st.floats(min_value=0.01, max_value=0.99))
    return p, levels[list(pattern)] + shift


@settings(max_examples=400, deadline=None)
@given(case=tied_nodes())
def test_tied_nodes_match_the_hermite_oracle(case):
    p, nodes = case
    got = divided_difference(PowerAbs(p), nodes)
    want = hermite_reference(p, nodes)
    cols = np.sort(nodes)[:, None]
    if divided._routed_table(PowerAbs(p), cols)[1][0]:
        assert abs(got - want) <= CROSS_TOL
    else:
        assert abs(got - want) <= 1e-10 * abs(want) + 1e-15


def test_sorted_columns_sort_each_row_stably():
    # Entries that compare equal (-0.0 and 0.0) keep their order and bits,
    # as in Python's stable sort; the columns come out C-contiguous.
    rng = np.random.default_rng(7)
    alphabet = [-0.0, 0.0, 0.5, -0.5, 1e-300, -np.inf, np.inf]
    for m in range(1, 6):
        rows = rng.choice(alphabet, size=(400, m))
        for stack in (rows, np.ascontiguousarray(rows.T).T):
            got = sorted_columns(stack)
            assert got.shape == (m, 400) and got.flags.c_contiguous
            want = np.array([sorted(row) for row in rows.tolist()])
            assert got.T.view(np.int64).tolist() == want.view(np.int64).tolist()


def sorted_row_route(model, rows, quad_tol=1e-9):
    """The route before the sorted columns, restated: np.sort each row,
    the full table with its error bound on every stack, routing by the gap
    switch or (rows with an exact tie) by that bound, and one quadrature
    call on the near rows as they come."""
    x = np.sort(rows, axis=1)
    cols = np.ascontiguousarray(x.T)
    vals = np.asarray(model.eval(cols), dtype=float)
    err = divided.ROUNDING * np.abs(vals) + divided.UNDERFLOW
    for level in range(1, cols.shape[0]):
        lo, hi = cols[:-level], cols[level:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = (vals[1:] - vals[:-1]) / (hi - lo)
            err = (err[1:] + err[:-1]) / (hi - lo) + divided.ROUNDING * np.abs(vals)
            err += divided.UNDERFLOW
        tie = hi == lo
        if tie.any():
            vals[tie] = model.eval(lo[tie], order=level) / math.factorial(level)
            err[tie] = divided.ROUNDING * np.abs(vals[tie]) + divided.UNDERFLOW
    values, error = vals[0], err[0]
    if cols.shape[0] > 1:
        gaps = np.diff(cols, axis=0)
        close = gaps.min(axis=0) < divided.CONFLUENCE_FACTOR * (1.0 + (cols[-1] - cols[0]))
        inexact = ~(error <= divided.TIE_TABLE_RTOL * np.abs(values) + divided.TIE_TABLE_ATOL)
        near = np.where((gaps == 0.0).any(axis=0), inexact, close)
        if near.any():
            values[near] = momentum_quadrature(model, x[near], tol=quad_tol)
    return values


def test_near_tie_rows_take_quadrature_once_per_bit_pattern(monkeypatch):
    # A near-tie row that comes three times, once permuted, beside distinct
    # rows: quadrature is called once, on each distinct sorted near-tie row
    # once, and every value has the bits of its row's one-row call.
    stacks = []

    def recorded(model, x, tol):
        stacks.append(np.array(x).tolist())
        return momentum_quadrature(model, x, tol=tol)

    monkeypatch.setattr(divided, "momentum_quadrature", recorded)
    near = [0.3, 0.3 + 1e-9, 0.8]
    rows = [near, [0.1, 0.5, -0.6], near[::-1], [0.2, -0.4, 0.2 + 2e-9], near, [-0.5, 0.25, 0.7]]
    model = PowerAbs(2.5)
    got = divided_difference(model, rows)
    assert len(stacks) == 1 and sorted(stacks[0]) == sorted([near, sorted(rows[3])])
    tied = [0, 2, 3, 4]
    want = [momentum_quadrature(model, sorted(rows[i])) for i in tied]
    assert got[tied].view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    for i in (1, 5):  # the table's rows keep their one-row bits too
        assert got[i].view(np.int64) == np.float64(divided_difference(model, rows[i])).view(np.int64)


def mixed_rows(rng, k, count, tied):
    """A stack of order-k node rows, each row in a random order: tie-free
    rows, 1e-7 near-ties, rows holding -0.0 or 0.0, rows crossing the kink
    at 0 (at orders 1 and 2 one of them a near-tie) and, when `tied`, rows
    with an exact tie, among them rows holding both -0.0 and 0.0 (which
    compare equal)."""
    width = k + 1
    rows = [rng.uniform(-1.0, 1.0, width) for _ in range(count)]
    for zero in (-0.0, 0.0):
        row = rng.uniform(-1.0, 1.0, width)
        row[0] = zero
        rows.append(row)
    if width > 1:
        for _ in range(2):
            row = rng.uniform(-0.9, 0.9, width)
            row[1] = row[0] + 1e-7
            rows.append(row)
        rows.append(np.linspace(-0.3, 0.4, width))
        rows.append(rng.uniform(-1e-3, 1e-3, width))
    if 1 <= k <= 2:  # at order 3 its graded quadrature takes 0.3 s
        row = rng.uniform(-1.0, 1.0, width)
        row[:2] = (-4e-8, 6e-8)  # a near-tie across the kink
        rows.append(row)
    if tied and width > 1:
        for _ in range(3):
            row = rng.uniform(-1.0, 1.0, width)
            row[:2] = (-0.0, 0.0)
            rows.append(row)
        for _ in range(count // 2):
            row = rng.uniform(-1.0, 1.0, width)
            row[-1] = row[0]
            rows.append(row)
        rows.append(np.zeros(width))
        rows.append(np.full(width, 0.5))
    rows = np.array(rows)
    order = rng.permuted(np.tile(np.arange(width), (len(rows), 1)), axis=1)
    return np.take_along_axis(rows, order, axis=1)


def test_row_api_matches_the_sorted_row_route_bitwise():
    # The sorted columns, the .T column stack and a table that bounds its
    # error only for a stack holding a tie leave every value's bits alone.
    rng = np.random.default_rng(19)
    models = (PowerAbs(3.5), PowerAbs(2.5), Polynomial((0.25, -1.0, 0.5, 2.0)))
    for model in models:
        for k in range(min(3, model.max_order) + 1):
            for tied in (False, True):
                rows = mixed_rows(rng, k, 40, tied)
                want = sorted_row_route(model, rows)
                for stack in (rows, np.ascontiguousarray(rows.T).T):
                    got = divided_difference(model, stack)
                    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
                one = [divided_difference(model, row) for row in rows]
                assert np.array(one).view(np.int64).tolist() == want.view(np.int64).tolist()
