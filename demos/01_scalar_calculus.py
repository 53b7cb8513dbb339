"""
Scalar calculus on kinked power functions
=========================================

The package is built around the family |x|^p and its derivatives.  This
script shows the scalar layer: function models, exact derivative models,
and divided differences computed two independent ways — the classical
recursive table, and a simplex-integral route that stays stable when
nodes collide.
"""

import numpy as np

from specforms.divided import divided_difference
from specforms.functions import Monomial, Polynomial, PowerAbs
from specforms.momenta import momentum_quadrature
from specforms.spectral import SchattenExponent

# ---------------------------------------------------------------------------
# Function models and their derivative ladders
# ---------------------------------------------------------------------------
for p in (1.5, 2.5, 3.5):
    exponent = SchattenExponent(p)
    f = PowerAbs(p)
    print(f"p = {p}: highest classical derivative m = {exponent.m}, "
          f"leftover smoothness alpha = {exponent.holder_alpha}")
    g = f.derivative_model(1)
    x = 0.7
    print(f"  f({x}) = {f.eval(x):.6f},  f'({x}) = {g.eval(x):.6f} "
          f"(exact {p * x ** (p - 1):.6f})")

# Polynomials are smooth, so every derivative model exists.
poly = Polynomial((0.25, -1.0, 0.5, 2.0))
print("\ncubic poly at 0.3:", poly.eval(0.3),
      " second derivative:", poly.derivative_model(2).eval(0.3))

# ---------------------------------------------------------------------------
# Divided differences: recursion vs simplex integral
# ---------------------------------------------------------------------------
print("\nwell-separated nodes (both routes should agree to ~1e-9):")
rng = np.random.default_rng(7)
model = PowerAbs(2.5)
for _ in range(3):
    nodes = np.sort(rng.uniform(-1.0, 1.0, size=3))
    a = divided_difference(model, nodes)
    b = momentum_quadrature(model, nodes)
    print(f"  nodes {np.round(nodes, 3)}  recursion {a:+.9f}  "
          f"integral {b:+.9f}  gap {abs(a - b):.2e}")

# When two nodes are 1e-7 apart the recursive table loses ~7 digits to
# cancellation; divided_difference notices the cluster and switches to
# the integral route on its own.
print("\nclustered nodes (automatic route vs naive recursion):")
for base in (0.4, -0.6):
    nodes = np.array([base, base + 1e-7, 0.1])
    auto = divided_difference(model, nodes)
    table = [model.eval(x) for x in nodes]
    for level in range(1, 3):
        table = [(table[i + 1] - table[i]) / (nodes[i + level] - nodes[i])
                 for i in range(3 - level)]
    print(f"  cluster at {base}: stable {auto:+.9f}  naive {table[0]:+.9f}  "
          f"gap {abs(auto - table[0]):.2e}")

# Monomials have exact confluent limits: x^3 with all nodes equal gives
# f''(x)/2! = 3x.
x = 0.5
confluent = divided_difference(Monomial(3), np.array([x, x, x]))
print(f"\nfully confluent x^3 at {x}: {confluent:.12f} (exact {3 * x:.12f})")
