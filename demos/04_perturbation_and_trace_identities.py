"""
Perturbation formula, trace identity, and fractional smoothness
===============================================================

Three structural facts tie the layers together: swapping the first
argument of a momentum-weighted integral costs one extra integral of
one higher order; the trace of T_{f^[k]} collapses onto the derivative
symbol g = f'; and along singular data the order-m form is exactly
alpha-Hoelder with alpha = p - m.
"""

import numpy as np

from specforms.divided import DividedDifference
from specforms.experiments import SEED_STRIDE
from specforms.forms import (
    DEFAULT_T_GRID,
    FrechetForm,
    holder_difference_norms,
    trace_identity_residual,
)
from specforms.functions import Monomial, Polynomial, PowerAbs
from specforms.instances import generate_instance
from specforms.moi import MoiRequest, algebraic_shift, moi_exact, perturbation_identity
from specforms.momenta import MomentumSpec
from specforms.spectral import SchattenExponent, eigendecompose
from specforms.util import fit_loglog_slope, real_trace

# ---------------------------------------------------------------------------
# Trace identity: tr T_{f^[k]}(V,..,V) = (1/k) tr(V T_{g^[k-1]}(V,..,V))
# ---------------------------------------------------------------------------
print("trace identity residuals at p = 3.5:")
for seed in (1, 2, 3):
    h, v = generate_instance(seed, dim=4, profile="generic", p=3.5)
    form = FrechetForm(base=eigendecompose(h), exponent=3.5, order=3)
    for k, resid in enumerate(trace_identity_residual(form, v.matrix), start=1):
        print(f"  seed {seed}, k = {k}: residual {resid:.3e}")

# By hand: H = diag(0, 1), f = x^3, k = 2, V the flip — both sides are 3.
dec = eigendecompose(np.diag([0.0, 1.0]))
flip = np.array([[0.0, 1.0], [1.0, 0.0]])
lhs = real_trace(moi_exact(
    MoiRequest((dec,) * 3, (flip, flip), DividedDifference(Monomial(3), 2))))
rhs = 0.5 * real_trace(flip @ moi_exact(
    MoiRequest((dec,) * 2, (flip,), DividedDifference(Monomial(3).derivative_model(1), 1))))
print(f"hand case: lhs = {lhs:.12f}, rhs = {rhs:.12f}")

# ---------------------------------------------------------------------------
# Perturbation identity: T^A - T^B = extra integral against the momentum
# ---------------------------------------------------------------------------
print("\nperturbation identity residuals (d = 4):")
poly = Polynomial((0.25, -1.0, 0.5, 2.0))
for m in (1, 2):
    p_m = m + 1.5
    a, _ = generate_instance(1, 4, "generic", p_m)
    b, _ = generate_instance(1 + SEED_STRIDE, 4, "generic", p_m)
    tails, perts = [], []
    for j in range(m):
        th, tv = generate_instance(1 + SEED_STRIDE * (j + 2), 4, "generic", p_m)
        tails.append(eigendecompose(th))
        perts.append(tv.matrix)
    for name, model, in (("cubic poly", poly), (f"|x|^{p_m}", PowerAbs(p_m))):
        spec = MomentumSpec.from_divided_difference(model, m)
        resid = perturbation_identity(spec, a, b, tails, perts)
        print(f"  m = {m}, {name}: residual {resid:.3e}")

# ---------------------------------------------------------------------------
# Algebraic shift: phi(s + .) against powers of H moved onto the slots
# ---------------------------------------------------------------------------
h, v = generate_instance(2, 3, "generic", 2.5)
h2, v2 = generate_instance(3, 3, "generic", 2.5)
decs = (eigendecompose(h), eigendecompose(h2), eigendecompose(h))
req = MoiRequest(decs, (v.matrix, v2.matrix), DividedDifference(PowerAbs(3.5), 2))
lhs_m, rhs_m = algebraic_shift(req, (1, 2, 0))
print("\nalgebraic shift (powers 1,2,0): max entry gap "
      f"{np.max(np.abs(lhs_m - rhs_m)):.3e}")

# ---------------------------------------------------------------------------
# Hoelder saturation: slope of the difference norm equals alpha = p - m
# ---------------------------------------------------------------------------
print("\nfractional smoothness of the top-order form along singular data:")
t_grid = np.asarray(DEFAULT_T_GRID)
for p in (2.5, 3.0, 3.5):
    exponent = SchattenExponent(p)
    m, alpha = exponent.m, exponent.holder_alpha
    g = PowerAbs(p).derivative_model(1)
    base, w = generate_instance(1, 4, "singular", p)
    tails, perts = [], []
    for j in range(m - 1):
        th, tv = generate_instance(1 + SEED_STRIDE * (j + 1), 4, "singular", p)
        tails.append(eigendecompose(th))
        perts.append(tv.matrix)
    norms = holder_difference_norms(
        g, eigendecompose(base), w.matrix, tails, perts, t_grid, p)
    usable = norms > 1e-12
    slope = fit_loglog_slope(t_grid[usable], norms[usable])
    print(f"  p = {p}: fitted slope {slope:.3f} vs alpha = {alpha}")
