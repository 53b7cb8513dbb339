"""Integral momenta over the simplex: hand values, constant weights, companions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyint

from specforms import (
    Monomial,
    MomentumSpec,
    Polynomial,
    PowerAbs,
    PowerKernel,
    QuadratureError,
    UnsupportedConfigError,
    ValidationError,
    divided_difference,
    generate_instance,
    momentum_eval,
    momentum_perturbation_pair,
    perturbation_identity,
)
from specforms import experiments, moi, momenta, simplex
from specforms.momenta import momentum_quadrature
from specforms.simplex import (
    ORDER_LADDER,
    _SNAP,
    graded_pieces,
    group_pieces,
    join_rule,
    split_by_kink,
)

QUAD_TOL = 1e-9
CROSS_TOL = 1e-8

ONE = Polynomial((1.0,))


def one(m):
    """x^m / m!, whose m-th derivative is 1."""
    return Polynomial([0.0] * m + [1.0 / math.factorial(m)])


def test_constant_kernel_gives_simplex_volume():
    # integral of 1 over S_m has mass 1/m!
    for m, vol in ((1, 1.0), (2, 0.5), (3, 1.0 / 6.0)):
        x = np.linspace(-0.5, 0.7, m + 1)
        np.testing.assert_allclose(momentum_quadrature(one(m), x), vol, rtol=1e-12)


def test_linear_kernel_hand_value():
    # f = x^3, so h(u) = 6u at m = 2: each s_j integrates to 1/6, and
    # phi = x0 + x1 + x2
    cube = Polynomial((0.0, 0.0, 0.0, 1.0))
    for x in ([0.1, -0.4, 0.9], [0.0, 0.0, 1.2], [-1.0, 1.0, 0.5]):
        np.testing.assert_allclose(momentum_quadrature(cube, x), sum(x), rtol=1e-12)


def test_constant_weight_symmetry():
    # Q = 1 makes phi symmetric in its arguments.
    spec = MomentumSpec.from_divided_difference(PowerAbs(3.5), 2)
    x = np.array([0.7, -0.2, 0.4])
    base = momentum_eval(spec, x)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0)):
        np.testing.assert_allclose(momentum_eval(spec, x[list(perm)]), base, rtol=1e-12)
    assert spec.constant_weight == 1.0


def test_constant_weight_contract():
    # The weight is one constant c: it scales the symbol (momentum_eval)
    # exactly (a power of two), it passes to the companion, and nothing but
    # a constant term is accepted.
    c, m = 4.0, 2
    base = MomentumSpec.from_divided_difference(PowerAbs(3.5), m)
    weight = (((0,) * (m + 1), c),)
    rows = np.array([[0.7, -0.2, 0.4], [0.3, 0.3, 0.3001], [0.6, 0.3, 4e-9], [0.2, 0.5, 0.9]])
    spec = MomentumSpec(m=m, kernel=base.kernel, origin=base.origin, q_terms=weight)
    assert spec.constant_weight == c
    got = momentum_eval(spec, rows)
    assert got.tobytes() == (c * momentum_eval(base, rows)).tobytes()
    psi = momentum_perturbation_pair(spec)
    assert psi.constant_weight == c and psi.q_terms == (((0,) * (m + 2), c),)
    with pytest.raises(ValidationError, match="polynomial weights are retired"):
        MomentumSpec(m=m, kernel=ONE, origin=one(m), q_terms=(((0, 1, 1), 1.0),))


@pytest.mark.parametrize(
    "origin, bound",
    [(experiments._PERTURBATION_POLY, "perturbation_poly"), (PowerAbs(2.5), "perturbation_power")],
)
def test_benchmark_companion_rebuild_moves_the_identity_by_its_weight(origin, bound, monkeypatch):
    # The benchmark's perturbed-companion check rebuilds psi field by field,
    # MomentumSpec(m=, kernel=, q_terms=, origin=), with its weight scaled.
    # The rebuild must stay valid, and the order-1 identity residual must
    # then read the scale less 1 times the companion integral, here the
    # residual at scale 2.
    phi = MomentumSpec.from_divided_difference(origin, 1)
    (a, v), (b, _), (h, _) = generate_instance([1, 2, 3], 4, "generic", 2.5)
    tol = experiments.DEFAULT_TOLERANCES[bound]
    assert perturbation_identity(phi, a, b, [h], [v]) <= tol
    pair = moi.momentum_perturbation_pair
    residuals = {}
    for scale in (1.0 + 1e-3, 2.0):

        def scaled(spec, scale=scale):
            psi = pair(spec)
            terms = tuple((alpha, w * scale) for alpha, w in psi.q_terms)
            return MomentumSpec(m=psi.m, kernel=psi.kernel, q_terms=terms, origin=psi.origin)

        monkeypatch.setattr(moi, "momentum_perturbation_pair", scaled)
        residuals[scale] = perturbation_identity(phi, a, b, [h], [v])
    assert residuals[1.0 + 1e-3] > tol
    np.testing.assert_allclose(residuals[1.0 + 1e-3], 1e-3 * residuals[2.0], rtol=1e-8)


def test_divided_difference_route_matches_quadrature():
    # Same momentum through the recursion and through simplex quadrature.
    rng = np.random.default_rng(5)
    for p in (2.5, 3.5):
        for k in (1, 2):
            spec = MomentumSpec.from_divided_difference(PowerAbs(p), k)
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, size=k + 1)
                fast = momentum_eval(spec, x, tol=QUAD_TOL)
                slow = momentum_quadrature(spec.origin, x, tol=QUAD_TOL)
                np.testing.assert_allclose(fast, slow, rtol=0, atol=CROSS_TOL)


def test_quadrature_handles_arguments_straddling_zero():
    # The kernel |x|^0.5-type singularity sits inside the hull.
    spec = MomentumSpec.from_divided_difference(PowerAbs(2.5), 2)
    x = np.array([-0.8, 0.5, 0.2])
    fast = momentum_eval(spec, x, tol=QUAD_TOL)
    slow = momentum_quadrature(spec.origin, x, tol=QUAD_TOL)
    np.testing.assert_allclose(fast, slow, rtol=0, atol=CROSS_TOL)
    # A node 7.5e-10 from the kink: triangulating the cut sides with a
    # Delaunay (Qhull) call raised QhullError here, even with joggling.
    x = np.array(
        [0.03923010488866392, -7.510138023989476e-10, -0.8248415645362699, -0.0049459421552124835]
    )
    slow = momentum_quadrature(PowerAbs(3.5), x, tol=QUAD_TOL)
    np.testing.assert_allclose(slow, divided_difference(PowerAbs(3.5), x), rtol=0, atol=QUAD_TOL)


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


def test_perturbation_pair_is_the_next_divided_difference_of_the_origin():
    # psi = c f^[m+1] of the origin f, keeping the weight c; an origin with
    # too few derivatives is refused.
    origin = PowerAbs(3.5)
    weight = (((0,) * 3, 3.0),)
    spec = MomentumSpec(m=2, kernel=origin.derivative_model(2), q_terms=weight, origin=origin)
    psi = momentum_perturbation_pair(spec)
    assert (psi.m, psi.order, psi.origin, psi.constant_weight) == (3, 3, origin, 3.0)
    assert psi.kernel.power_form == origin.derivative_model(3).power_form
    x = np.array([0.6, -0.3, 0.2, -0.5])
    assert momentum_eval(psi, x) == 3.0 * divided_difference(origin, x)
    with pytest.raises(UnsupportedConfigError, match="order-3 divided difference"):
        momentum_perturbation_pair(MomentumSpec.from_divided_difference(PowerAbs(2.5), 2))


def test_kernel_must_be_the_origins_derivative():
    # The kernel says nothing the origin does not (tests/test_guards.py
    # refuses a kernel of another model): another order's derivative is
    # refused, and an equal model built by hand is taken.
    origin = PowerAbs(3.5)
    with pytest.raises(ValidationError, match="is not the derivative"):
        MomentumSpec(m=1, kernel=origin.derivative_model(2), origin=origin)
    spec = MomentumSpec(m=2, kernel=PowerKernel(8.75, 1.5), origin=origin)
    assert momentum_eval(spec, [0.1, 0.4, 0.7]) == divided_difference(origin, [0.1, 0.4, 0.7])


def test_a_momentums_kernel_is_built_once(monkeypatch):
    # derivative_model keeps one model per order on its origin, so a spec
    # and its companion construct each polynomial kernel once: the spec's
    # kernel check takes the kept model without another build.
    for origin in (PowerAbs(3.5), Polynomial((0.25, -1.0, 0.5, 2.0))):
        assert origin.derivative_model(2) is origin.derivative_model(2)
    built, init = [], Polynomial.__init__

    def counted(self, coeffs):
        built.append(len(np.atleast_1d(coeffs)))
        init(self, coeffs)

    cubic = Polynomial((0.25, -1.0, 0.5, 2.0))
    monkeypatch.setattr(Polynomial, "__init__", counted)
    spec = MomentumSpec.from_divided_difference(cubic, 2)
    psi = momentum_perturbation_pair(spec)
    assert built == [2, 1]  # the second derivative, then the third
    assert spec.kernel is cubic.derivative_model(2)
    assert psi.kernel is cubic.derivative_model(3)


def test_order_four_companion_builds_and_meets_the_integral_cap(monkeypatch):
    # Only the origin's derivative count bounds a momentum's order: the
    # order-4 momentum of a polynomial has its order-5 companion, and
    # perturbation_identity refuses it by moi.MAX_ORDER before the
    # eigensolver sees a matrix.
    quartic = MomentumSpec.from_divided_difference(experiments._PERTURBATION_POLY, 4)
    psi = momentum_perturbation_pair(quartic)
    assert (psi.m, psi.kernel.eval(0.3)) == (5, 0.0)
    (a, v), (b, _), (h, _) = generate_instance([1, 2, 3], 4, "generic", 2.5)
    handed, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: handed.append(x) or eigh(x))
    with pytest.raises(UnsupportedConfigError, match="companion integral order 5 exceeds"):
        perturbation_identity(quartic, a, b, [h] * 4, [v] * 4)
    assert handed == []


def test_quadrature_takes_orders_one_to_four_within_the_model():
    # Rows of 2 to 5 arguments, and no order above the model's derivative
    # count: f^(k) must be continuous.
    for width in (1, 6):
        with pytest.raises(ValidationError, match="rows of 2 to 5 arguments"):
            momentum_quadrature(one(5), np.linspace(0.1, 0.6, width))
    with pytest.raises(ValidationError, match="rows of 2 to 5 arguments"):
        momentum_quadrature(one(1), np.zeros((2, 1)))
    with pytest.raises(
        UnsupportedConfigError,
        match="^order-3 divided difference needs 3 continuous derivatives, model has 2$",
    ):
        momentum_quadrature(PowerAbs(2.5), np.array([0.1, 0.2, 0.3, 0.4]))
    got = momentum_quadrature(one(4), np.linspace(-0.5, 0.7, 5))
    np.testing.assert_allclose(got, 1.0 / 24.0, rtol=1e-12)


def test_companion_is_refused_before_any_decomposition(monkeypatch):
    # An origin without m + 1 derivatives is refused before the eigensolver
    # sees a matrix.
    (a, v), (b, _), (h, _) = generate_instance([1, 2, 3], 4, "generic", 2.5)
    handed, eigh = [], np.linalg.eigh

    def counted(x):
        handed.append(len(x) if x.ndim == 3 else 1)
        return eigh(x)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    short = MomentumSpec.from_divided_difference(PowerAbs(2.5), 2)
    with pytest.raises(UnsupportedConfigError, match="order-3 divided difference"):
        perturbation_identity(short, a, b, [h, h], [v, v])
    assert handed == []


def test_near_tie_rows_take_quadrature_once_per_distinct_row(monkeypatch):
    # A row stack maps to one value per row through the origin's divided
    # difference; its near-tie rows go to quadrature as one stack of the
    # distinct sorted rows, a permuted row counting once.
    from specforms import divided

    rows_seen = []
    quadrature = divided.momentum_quadrature

    def counted(model, x, tol=1e-9):
        rows_seen.extend(map(tuple, np.atleast_2d(x)))
        return quadrature(model, x, tol=tol)

    monkeypatch.setattr(divided, "momentum_quadrature", counted)
    near = [0.3, 0.3 + 1e-9, 0.8]
    rows = np.array([near, near[::-1], near, [0.1, 0.5, -0.6], [0.2, -0.4, 0.2 + 2e-9]])
    spec = MomentumSpec.from_divided_difference(PowerAbs(2.5), 2)
    got = momentum_eval(spec, rows, tol=QUAD_TOL)
    assert got.shape == (5,) and len(rows_seen) == len(set(rows_seen)) == 2
    args = np.sort(rows[[0, 4]], axis=1)
    assert set(rows_seen) == set(map(tuple, args))
    assert got[[0, 1, 2]].tolist() == [quadrature(spec.origin, args[0], tol=QUAD_TOL)] * 3


def test_validation_guards():
    with pytest.raises(ValidationError):
        MomentumSpec(m=0, kernel=ONE, origin=ONE)
    with pytest.raises(ValidationError):
        MomentumSpec(m=2, kernel=ONE, origin=one(2), q_terms=(((0, 1), 1.0),))
    with pytest.raises(UnsupportedConfigError):
        MomentumSpec.from_divided_difference(PowerAbs(2.5), 3)
    with pytest.raises(ValidationError, match="takes 3 arguments"):
        momentum_eval(MomentumSpec.from_divided_difference(PowerAbs(3.5), 2), [0.1, 0.2])
    with pytest.raises(ValidationError, match="domain"):
        momentum_eval(MomentumSpec.from_divided_difference(PowerAbs(2.5), 1), np.array([0.1, 5.0]))


def stack_models(m):
    """Models whose m-th derivative is a kinked kernel, a cubic and a
    kernel that is smooth and not a polynomial on rows of one sign."""
    return {
        "power": PowerAbs(3.5),
        "polynomial": Polynomial(polyint((0.3, -1.0, 0.5, 2.0), m)),
        "smooth": PowerAbs(4.5),
    }


def mixed_rows(m, rng):
    """Plain, near-tie, graded and kink-crossing rows of order m, and one
    row graded toward a node within 1e-8 of the kink."""
    rows = []
    for _ in range(6):
        a = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        rows.append(a + rng.uniform(-0.05, 0.05, m + 1))  # plain
        tied = np.full(m + 1, a)
        tied[-1] += 10.0 ** rng.uniform(-5, -3)
        rows.append(tied)  # plain near-tie
        rows.append(a * np.append(rng.uniform(0.5, 1.0, m), 0.02))  # graded
        rows.append(rng.uniform(-0.9, 0.9, m + 1) * np.append(np.ones(m), -1.0))  # crossing
    near = rng.uniform(0.2, 0.9, m + 1) * np.resize([1.0, -1.0], m + 1)
    near[-1] = 10.0 ** rng.uniform(-9.5, -8.0)
    rows.append(near)  # graded; crossing, in hundreds of pieces, for m >= 2
    return np.array(rows)


def plain_rows(rows):
    """Rows whose kink and grading cover is R_m itself with one strict
    sign (a single piece touching the kink takes the join rule)."""
    pieces = graded_pieces(split_by_kink(rows))
    alone = np.bincount(pieces.row, minlength=len(rows))[pieces.row] == 1
    plain = np.zeros(len(rows), dtype=bool)
    plain[pieces.row[alone & (pieces.ell != 0.0).all(axis=1)]] = True
    return plain


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["power", "polynomial", "smooth"])
def test_stacked_quadrature_matches_row_calls_bitwise(m, kind, monkeypatch):
    model = stack_models(m)[kind]
    rows = mixed_rows(m, np.random.default_rng(10 * m + len(kind)))
    if kind == "smooth":  # the rows of one strict sign
        rows = rows[(np.sign(rows) == np.sign(rows[:, :1])).all(axis=1)]
    plain = plain_rows(rows)
    assert plain.any() and not plain.all()
    assert_rows_cut_as_alone(rows)
    # At 500 nodes per kernel call, each group is cut into many chunks,
    # of one piece each at the higher levels.
    for chunk in (momenta.CHUNK_NODES, 500):
        monkeypatch.setattr(momenta, "CHUNK_NODES", chunk)
        got = momentum_quadrature(model, rows, tol=1e-9)
        assert got.shape == (len(rows),)
        assert momentum_quadrature(model, rows[:0]).shape == (0,)
        each = [momentum_quadrature(model, row, tol=1e-9) for row in rows]
        assert all(type(v) is float for v in each)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in each]


@st.composite
def kink_probe_rows(draw):
    """Rows with nodes at and within _SNAP of 0, and smallest-to-largest
    magnitude ratios at and around the grading thresholds 1/9 and 1/3."""
    m = draw(st.integers(1, 3))
    top = draw(st.sampled_from([5e-14, 2e-13, 1e-3, 0.37, 1.0, 1.9]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    ratio = draw(st.sampled_from([1.0 / 9.0, 1.0 / 3.0, 0.1, 0.3, 0.5]))
    ulps = draw(st.integers(-2, 2))
    delta = top * ratio
    for _ in range(abs(ulps)):
        delta = np.nextafter(delta, np.inf if ulps > 0 else -np.inf)
    node = st.one_of(
        st.just(0.0),
        st.floats(-2.0 * _SNAP * top, 2.0 * _SNAP * top),
        st.builds(float.__mul__, st.floats(0.01, 1.9), st.sampled_from([-1.0, 1.0])),
        st.sampled_from([sign * delta, -sign * delta, sign * top * 0.6]),
    )
    rest = draw(st.lists(node, min_size=m - 1, max_size=m - 1))
    return np.array([sign * top, sign * delta, *rest])[: m + 1]


def assert_rows_cut_as_alone(rows):
    """The stacked cover gives each row the pieces, bit for bit and in
    order, of a stack of that row alone."""
    pieces = graded_pieces(split_by_kink(rows))
    assert (np.diff(pieces.row) >= 0).all()
    for i, row in enumerate(rows):
        own, alone = pieces[pieces.row == i], graded_pieces(split_by_kink(row[None]))
        assert len(own) == len(alone) and not alone.row.any()
        for name in ("verts", "ell", "sign", "det"):
            a, b = getattr(own, name), getattr(alone, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, name)


@settings(max_examples=75, deadline=None)
@given(row=kink_probe_rows())
# Grading toward a node 2.3e-13 from the kink, just outside the snap:
# a Delaunay (Qhull) triangulation of the level cuts raised QhullError.
@example(row=np.array([-1.9, -0.19, -2.2957341e-13, -0.5]))
# Order 3: a node just outside the snap, and a crossing row with a node
# inside it and a ratio at the grading threshold 1/3.
@example(row=np.array([1.0, 0.1, 1.5e-13, 0.6]))
@example(row=np.array([0.37, 0.37 / 3.0, 5e-14, -0.2]))
# Order 3, two nodes snapped to the kink and one just outside the snap,
# graded over twelve decades: 16,276 pieces per row.
@example(row=np.array([0.87, 2e-13, 1e-13, -1e-13]))
def test_stacked_cover_cuts_each_row_as_alone(row):
    assert_rows_cut_as_alone(np.array([row, -row, row[::-1]]))


# Tied rows (a, .., a, a + gap) at the parent of the row-stack change,
# each through its own call; m = 1 and 2, kernel f^(m) of |x|^3.5. Rows at
# a = 4e-4 step down by the gap, so the 1e-3 gap crosses the kink; those
# two rows carry the bits of the staircase cut and Golub-Welsch rules.
TIED_HEX = {
    1: {
        (-0.6, 1e-3): "-0x1.f2aae8aa8ed26p-1",
        (-0.6, 1e-4): "-0x1.f39a8c7c60f7ap-1",
        (-0.6, 1e-5): "-0x1.f3b288551d8afp-1",
        (0.45, 1e-3): "0x1.e8355f4f7d182p-2",
        (0.45, 1e-4): "0x1.e6fd678832012p-2",
        (0.45, 1e-5): "0x1.e6de3dee6053fp-2",
        (4e-4, 1e-3): "-0x1.13a076099a7c4p-28",
        (4e-4, 1e-4): "0x1.171ebc1046577p-27",
        (4e-4, 1e-5): "0x1.74f3f8bd28183p-27",
    },
    2: {
        (-0.6, 1e-3): "0x1.040c3211a073ep+1",
        (-0.6, 1e-4): "0x1.043e27a810c1ap+1",
        (-0.6, 1e-5): "0x1.044326e110fafp+1",
        (0.45, 1e-3): "0x1.5278203d770c1p+0",
        (0.45, 1e-4): "0x1.52218c2d59484p+0",
        (0.45, 1e-5): "0x1.5218e46149391p+0",
        (4e-4, 1e-3): "0x1.fe649e190204ep-17",
        (4e-4, 1e-4): "0x1.02142204103b9p-15",
        (4e-4, 1e-5): "0x1.21f158d3e2c66p-15",
    },
}


@pytest.mark.parametrize("m", [1, 2])
def test_tied_rows_keep_their_pinned_bits(m):
    model = PowerAbs(3.5)
    keys = list(TIED_HEX[m])
    rows = np.array(
        [[a] * m + [a - gap if a == 4e-4 else a + gap] for a, gap in keys]
    )
    expected = [TIED_HEX[m][key] for key in keys]
    assert [momentum_quadrature(model, row).hex() for row in rows] == expected
    assert [v.hex() for v in momentum_quadrature(model, rows).tolist()] == expected


# Rows of order 3 cut into many pieces, at the parent of the grouped piece
# quadrature, each through its own call at the default tol: the former
# Qhull row (824 pieces), two rows graded toward a node within 1e-8 of the
# kink (49 pieces each) and a kink-crossing row with a node 2e-9 from it
# (804 pieces).
MANY_PIECE_ROWS = (
    (0.03923010488866392, -7.510138023989476e-10, -0.8248415645362699, -0.0049459421552124835),
    (0.6, 0.3, 0.45, 3e-9),
    (-0.2, -0.75, -4e-9, -0.5),
    (-0.5, 0.7, 2e-9, 0.2),
)
MANY_PIECE_HEX = {
    "power": (
        "-0x1.ba7494ad2f544p-1",
        "0x1.413cdcb029ddbp+0",
        "-0x1.4b5243cfffd61p+0",
        "0x1.afd5bd109cd58p-2",
    ),
}


def test_many_piece_rows_keep_their_pinned_bits():
    model = stack_models(3)["power"]
    rows = np.array(MANY_PIECE_ROWS)
    expected = list(MANY_PIECE_HEX["power"])
    assert [momentum_quadrature(model, row).hex() for row in rows] == expected
    assert [v.hex() for v in momentum_quadrature(model, rows).tolist()] == expected


def test_kernel_calls_follow_piece_groups_not_pieces(monkeypatch):
    # Crossing and graded rows cut into hundreds of pieces, and a plain
    # row: at each ladder level each piece group takes at most one kernel
    # call (join groups take the power form on their own), the plain
    # row's piece joining the group of pieces clear of the kink.
    rows = np.array(
        [[-0.5, 0.7, 2e-9], [0.6, 0.3, 4e-9], [0.4, -0.6, 0.8], [0.3, 0.31, 0.32], [-0.45, -3e-9, 0.1]]
    )
    pieces = graded_pieces(split_by_kink(rows))
    groups = group_pieces(pieces)
    assert len(pieces) > 500 and len(groups) == 3
    per_level = {}
    evaluate = PowerKernel.eval

    def counted(self, x):
        nodes = np.shape(x)[-1]  # q^m nodes per row or piece at level q
        per_level[nodes] = per_level.get(nodes, 0) + 1
        return evaluate(self, x)

    monkeypatch.setattr(PowerKernel, "eval", counted)
    momentum_quadrature(PowerAbs(3.5), rows)
    assert set(per_level) <= {q**2 for q in ORDER_LADDER} and len(per_level) >= 3
    assert max(per_level.values()) <= len(groups)


def test_geometry_failures_name_their_row(monkeypatch):
    # Cuts that lose volume (one staircase simplex of each side dropped):
    # each error names its row of the stack, at the first level.
    smooth = [0.3, 0.4, 0.5]
    cases = [
        ([-0.5, 0.3, 0.2], "kink subdivision lost volume"),
        ([0.6, 0.3, 1e-6], "graded subdivision lost volume"),
    ]
    staircases = simplex._staircases
    monkeypatch.setattr(
        simplex, "_staircases", lambda *a: tuple(p[1:] for p in staircases(*a))
    )
    for row, message in cases:
        with pytest.raises(QuadratureError, match=message) as info:
            momentum_quadrature(PowerAbs(3.5), np.array([smooth, row]))
        err = info.value
        assert err.nodes.tolist() == row and err.order == 2
        assert err.level == ORDER_LADDER[0] and err.change is None
        assert f"order 2 at nodes {row}" in str(err)


def test_join_rule_refuses_a_kernel_not_integrable_against_its_face():
    # The kernels quadrature takes are continuous, but the rule itself
    # refuses an exponent whose face integral diverges: r^(g + beta) with
    # a one-vertex opposite face (g = 0) and beta = -1.5.
    groups = group_pieces(graded_pieces(split_by_kink(np.array([[-0.5, 0.3, 0.2]]))))
    join = next(group for group in groups if group.f >= 0 and group.g == 0)
    with pytest.raises(QuadratureError, match="kernel exponent -1.5 is not integrable"):
        join_rule(join, ORDER_LADDER[0], -1.5)


def test_quadrature_error_names_its_row(monkeypatch):
    # Two ladder levels: the near-constant plain row converges, the
    # kink-crossing row and the smooth plain row do not; the error names
    # the first row of the stack that failed.
    monkeypatch.setattr(momenta, "ORDER_LADDER", (4, 6))
    easy, crossing, smooth = [0.3, 0.3, 0.3001], [-0.8, 0.5, 0.2], [0.2, 0.5, 0.9]
    for rows, bad in (([easy, crossing, smooth], crossing), ([smooth, easy, crossing], smooth)):
        with pytest.raises(QuadratureError) as info:
            momentum_quadrature(PowerAbs(2.5), np.array(rows), tol=1e-12)
        err = info.value
        assert err.nodes.tolist() == bad and err.order == 2 and err.level == 6
        assert err.change > 1e-12
        text = str(err)
        assert f"order 2 at nodes {bad}" in text and "6-node" in text
        assert f"{err.change:.3e}" in text
