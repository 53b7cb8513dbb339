"""Acceptance battery: ten numbered criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; every test prints its own
criterion summary, and the -v status column is the pass/fail record.
Tolerances are pinned here on purpose — loosening them is a product
change, not a test fix.
"""

import math
import os
import time

import numpy as np
import pytest

from specforms.divided import DividedDifference, divided_difference
from specforms.experiments import (
    SEED_STRIDE,
    ExperimentConfig,
    run,
)
from specforms.forms import (
    FrechetForm,
    delta_symmetric,
    fd_oracle,
    holder_difference_norms,
    model_delta_bracket,
    taylor_expand,
    taylor_integral_form,
    trace_identity_residual,
)
from specforms.functions import Monomial, Polynomial, PowerAbs
from specforms.instances import SplitMix64, generate_instance
from specforms.moi import (
    MoiRequest,
    SeparableSymbol,
    moi_binned,
    moi_exact,
    moi_separable,
    perturbation_identity,
)
from specforms.momenta import MomentumSpec, momentum_quadrature
from specforms.spectral import SchattenExponent, eigendecompose
from specforms.util import fit_loglog_slope, frobenius, real_trace

SPECTRAL_GAP = 0.1  # minimum |eigenvalue| for stencil-safe instances


def _usable_instances(p, dim, count):
    """First `count` seeded instances whose spectra stay off the kink."""
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        assert seed <= 500, f"could not collect {count} usable instances (p={p}, d={dim})"
        h, v = generate_instance(seed, dim, "generic", p)
        if np.min(np.abs(np.linalg.eigvalsh(h.matrix))) >= SPECTRAL_GAP:
            out.append((seed, h, v))
    return out


def test_criterion_01_derivatives_match_difference_oracle():
    # k! delta^(k) vs fourth-order finite differences, p in {2.5, 3.5},
    # dims 2..6, 20 stencil-safe seeds each, within max(1e-5 rel, 5e-5 abs).
    started = time.perf_counter()
    worst = 0.0
    for p in (2.5, 3.5):
        m = SchattenExponent(p).m
        for dim in range(2, 7):
            for seed, h, v in _usable_instances(p, dim, 20):
                dec = eigendecompose(h)
                for k in range(1, m + 1):
                    form = FrechetForm(base=dec, exponent=p, order=k)
                    bracket = model_delta_bracket(form.base, form.model, [v.matrix] * k)
                    series = math.factorial(k) * bracket
                    fd, _ = fd_oracle(h.matrix, v.matrix, p, k)
                    bound = max(1e-5 * abs(fd), 5e-5)
                    diff = abs(series - fd)
                    worst = max(worst, diff / bound)
                    assert diff <= bound, (
                        f"p={p} d={dim} seed={seed} k={k}: |series - fd| = "
                        f"{diff:.3e} > {bound:.3e}"
                    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 battery took {elapsed:.1f}s (budget 60s)"
    print(
        f"criterion 1 PASS: derivative forms match difference quotients "
        f"(worst diff at {worst:.2f} of bound, {elapsed:.1f}s)"
    )


def test_criterion_02_taylor_remainder_slopes():
    # Remainder decay: singular profiles show the fractional order p
    # (within +-0.15), generic profiles decay no slower than p - 0.1.
    started = time.perf_counter()
    for p in (1.5, 2.5, 3.5):
        for seed in range(1, 6):
            h, v = generate_instance(seed, 4, "singular", p)
            slope = taylor_expand(h.matrix, v.matrix, p).slope
            assert abs(slope - p) <= 0.15, (
                f"singular p={p} seed={seed}: slope {slope:.3f} outside {p}+-0.15"
            )
            h, v = generate_instance(seed, 4, "generic", p)
            slope = taylor_expand(h.matrix, v.matrix, p).slope
            assert slope >= p - 0.1, (
                f"generic p={p} seed={seed}: slope {slope:.3f} < {p - 0.1}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 2 battery took {elapsed:.1f}s (budget 30s)"
    print(f"criterion 2 PASS: remainder slopes track the exponent ({elapsed:.1f}s)")


def test_criterion_03_perturbation_identity_residuals():
    # First-variable perturbation formula: exact for the cubic polynomial
    # (1e-12), quadrature-limited for the kinked power (1e-6); 20 seeds,
    # d = 4, orders m = 1 and 2.
    poly = Polynomial((0.25, -1.0, 0.5, 2.0))
    for m in (1, 2):
        p_m = m + 1.5
        phi_poly = MomentumSpec.from_divided_difference(poly, m)
        phi_power = MomentumSpec.from_divided_difference(PowerAbs(p_m), m)
        for seed in range(1, 21):
            a, _ = generate_instance(seed, 4, "generic", p_m)
            b, _ = generate_instance(seed + SEED_STRIDE, 4, "generic", p_m)
            tails, perts = [], []
            for j in range(m):
                th, tv = generate_instance(
                    seed + SEED_STRIDE * (j + 2), 4, "generic", p_m
                )
                tails.append(eigendecompose(th))
                perts.append(tv.matrix)
            r_poly = perturbation_identity(phi_poly, a, b, tails, perts)
            r_power = perturbation_identity(phi_power, a, b, tails, perts)
            assert r_poly <= 1e-12, f"m={m} seed={seed}: poly residual {r_poly:.3e}"
            assert r_power <= 1e-6, f"m={m} seed={seed}: power residual {r_power:.3e}"
    print("criterion 3 PASS: perturbation identity residuals within bounds")


def test_criterion_04_trace_identity():
    # tr T_{f^[k]}(V..V) = (1/k) tr(V T_{g^[k-1]}(V..V)) with g = f';
    # 20 seeds at p = 3.5, one call for every k in {1, 2, 3}, then a by-hand
    # anchor where both sides equal 3 exactly.
    for seed in range(1, 21):
        h, v = generate_instance(seed, 4, "generic", 3.5)
        form = FrechetForm(base=eigendecompose(h), exponent=3.5, order=3)
        for k, resid in enumerate(trace_identity_residual(form, v.matrix), start=1):
            assert resid <= 1e-7, f"seed={seed} k={k}: residual {resid:.3e}"

    dec = eigendecompose(np.diag([0.0, 1.0]))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    cubic = Monomial(3)
    lhs = real_trace(
        moi_exact(MoiRequest((dec,) * 3, (flip, flip), DividedDifference(cubic, 2)))
    )
    rhs = 0.5 * real_trace(
        flip
        @ moi_exact(
            MoiRequest((dec,) * 2, (flip,), DividedDifference(cubic.derivative_model(1), 1))
        )
    )
    assert abs(lhs - 3.0) <= 1e-12 and abs(rhs - 3.0) <= 1e-12, (lhs, rhs)
    print("criterion 4 PASS: trace identity holds (hand case: both sides 3)")


def test_criterion_05_integral_taylor_formula():
    # Exact integral form of the expansion closes to 1e-6 for p in
    # {2.5, 3.5}, d = 3, perturbation of Frobenius size 0.3, 10 seeds.
    for p in (2.5, 3.5):
        for seed in range(1, 11):
            h0, v = generate_instance(seed, 3, "generic", p)
            step = 0.3 * v.matrix / frobenius(v.matrix)
            lhs, rhs = taylor_integral_form(h0.matrix, h0.matrix + step, p)
            assert abs(lhs - rhs) <= 1e-6, (
                f"p={p} seed={seed}: |lhs - rhs| = {abs(lhs - rhs):.3e}"
            )
    print("criterion 5 PASS: integral expansion closes at both exponents")


def test_criterion_06_binned_symbol_convergence():
    # Reading the symbol on a 1/n eigenvalue grid converges at first
    # order: fitted rate in -1 +- 0.35 across n = 32..512 (max over 10
    # seeds), and exactly on-grid spectra reproduce the integral.
    n_grid = (32, 64, 128, 256, 512)
    symbol = DividedDifference(PowerAbs(2.5), 1)
    curves = []
    for seed in range(1, 11):
        h, v = generate_instance(seed, 4, "generic", 2.5)
        dec = eigendecompose(h)
        req = MoiRequest((dec, dec), (v.matrix,), symbol)
        exact = moi_exact(req)
        curves.append([frobenius(moi_binned(req, n) - exact) for n in n_grid])
    max_curve = np.max(np.asarray(curves), axis=0)
    rate = fit_loglog_slope(np.asarray(n_grid, dtype=float), max_curve)
    assert -1.35 <= rate <= -0.65, f"binned rate {rate:.3f} outside -1 +- 0.35"

    dec = eigendecompose(np.diag([0.0, 1.0]))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    req = MoiRequest((dec, dec), (flip,), DividedDifference(Monomial(2), 1))
    on_grid = frobenius(moi_binned(req, 2) - moi_exact(req))
    assert on_grid <= 1e-14, f"on-grid spectra must be exact, got {on_grid:.3e}"
    print(f"criterion 6 PASS: binned convergence rate {rate:.2f}, on-grid exact")


def test_criterion_07_holder_saturation():
    # The map A -> T^{A, tail} along singular data gains exactly the
    # fractional smoothness alpha = p - m: fitted slope >= alpha - 0.1
    # per seed, p in {2.5, 3.0, 3.5}, 10 seeds.
    t_grid = np.logspace(-4, -1, 13)
    for p in (2.5, 3.0, 3.5):
        exponent = SchattenExponent(p)
        m, alpha = exponent.m, exponent.holder_alpha
        g = PowerAbs(p).derivative_model(1)
        for seed in range(1, 11):
            base, w = generate_instance(seed, 4, "singular", p)
            tails, perts = [], []
            for j in range(m - 1):
                th, tv = generate_instance(
                    seed + SEED_STRIDE * (j + 1), 4, "singular", p
                )
                tails.append(eigendecompose(th))
                perts.append(tv.matrix)
            norms = holder_difference_norms(
                g, eigendecompose(base), w.matrix, tails, perts, t_grid, p
            )
            usable = norms > 1e-12
            assert np.count_nonzero(usable) >= 4, f"p={p} seed={seed}: degenerate scan"
            slope = fit_loglog_slope(t_grid[usable], norms[usable])
            assert slope >= alpha - 0.1, (
                f"p={p} seed={seed}: slope {slope:.3f} < alpha - 0.1 = {alpha - 0.1}"
            )
    print("criterion 7 PASS: fractional smoothness saturates at alpha = p - m")


def test_criterion_08_divided_difference_cross_checks():
    # (a) recursion vs simplex-integral route at well-separated nodes
    # within 10x the quadrature tolerance; (b) the same cross-check at
    # 1e-7 clusters against the raw recursion within 1e-6; (c) separable
    # symbols vs the dense tensor path to 1e-10 across 50 seeds.
    def raw_recursion(model, nodes):
        table = [float(model.eval(x)) for x in nodes]
        for level in range(1, len(nodes)):
            table = [
                (table[i + 1] - table[i]) / (nodes[i + level] - nodes[i])
                for i in range(len(nodes) - level)
            ]
        return table[0]

    rng = np.random.default_rng(2024)
    for p, k in ((1.5, 1), (2.5, 1), (2.5, 2), (3.5, 2), (3.5, 3)):
        model = PowerAbs(p)
        done = 0
        while done < 20:
            x = rng.uniform(-1.0, 1.0, size=k + 1)
            if np.min(np.abs(np.subtract.outer(x, x))[~np.eye(k + 1, dtype=bool)]) < 1e-3:
                continue
            done += 1
            a = divided_difference(model, x)
            b = momentum_quadrature(model, x)
            assert abs(a - b) <= 1e-8 * (1.0 + abs(a)), (
                f"p={p} k={k} x={x}: routes differ by {abs(a - b):.3e}"
            )

    for p, nodes in (
        (2.5, (0.4, 0.4 + 1e-7)),
        (2.5, (-0.6, -0.6 + 1e-7, 0.5)),
        (3.5, (0.3, 0.3 + 1e-7, -0.7, -0.7 + 1e-7)),
    ):
        model = PowerAbs(p)
        auto = divided_difference(model, np.asarray(nodes))
        naive = raw_recursion(model, sorted(nodes))
        assert abs(auto - naive) <= 1e-6 * (1.0 + abs(naive)), (
            f"p={p} nodes={nodes}: cluster routes differ by {abs(auto - naive):.3e}"
        )

    for seed in range(1, 51):
        h, v = generate_instance(seed, 4, "generic", 2.5)
        h2, v2 = generate_instance(seed + SEED_STRIDE, 4, "generic", 2.5)
        mix = SplitMix64(seed * 2 + 1)
        terms = []
        for _ in range(3):
            weight = mix.normal()
            models = tuple(
                Polynomial([mix.normal(), mix.normal(), 0.5 * mix.normal()])
                for _ in range(3)
            )
            terms.append((weight, models))
        sym = SeparableSymbol(tuple(terms))
        decs = (eigendecompose(h), eigendecompose(h2), eigendecompose(h))
        perts = (v.matrix, v2.matrix)
        gap = frobenius(moi_separable(sym, decs, perts) - moi_exact(MoiRequest(decs, perts, sym)))
        assert gap <= 1e-10, f"seed={seed}: separable vs dense gap {gap:.3e}"
    print("criterion 8 PASS: divided-difference routes and separable symbols agree")


def test_criterion_09_form_symmetry_and_linearity():
    # delta^(k) is symmetric in its directions (1e-12) and linear in
    # each slot (1e-10 relative).
    rng = np.random.default_rng(55)

    def herm(scale=1.0):
        a = rng.standard_normal((4, 4))
        h = (a + a.T) / 2.0
        return scale * h / np.linalg.norm(h, ord=2)

    base = herm(0.5)
    v1, v2, v3 = herm(), herm(), herm()

    form2 = FrechetForm(base=base, exponent=2.5, order=2)
    gap = abs(delta_symmetric(form2, [v1, v2]) - delta_symmetric(form2, [v2, v1]))
    assert gap <= 1e-12, f"order-2 symmetry defect {gap:.3e}"

    form3 = FrechetForm(base=base, exponent=3.5, order=3)
    vals = [
        delta_symmetric(form3, [a, b, c])
        for a, b, c in ((v1, v2, v3), (v3, v1, v2), (v2, v3, v1))
    ]
    assert max(vals) - min(vals) <= 1e-12, f"order-3 symmetry defect {max(vals) - min(vals):.3e}"

    left = delta_symmetric(form2, [2.0 * v1 + v3, v2])
    right = 2.0 * delta_symmetric(form2, [v1, v2]) + delta_symmetric(form2, [v3, v2])
    scale = 1.0 + abs(left)
    assert abs(left - right) <= 1e-10 * scale, f"linearity defect {abs(left - right):.3e}"
    print("criterion 9 PASS: forms are symmetric and multilinear")


def test_criterion_10_reports_are_reproducible(monkeypatch):
    # Serialized reports are byte-identical across repeat runs and
    # machine widths (the worker pool's) once volatile keys (wall clock)
    # are stripped.
    configs = [
        ExperimentConfig(mode="taylor-scan", seed=2, p=2.5, profile="singular"),
        ExperimentConfig(mode="moi-convergence", seed=1, n_grid=(16, 32, 64)),
        ExperimentConfig(mode="holder-scan", seed=1, p=2.5),
        ExperimentConfig(mode="perturbation-check", seed=1),
        ExperimentConfig(mode="selftest", seed=1, p=2.5),
    ]
    for config in configs:
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = run(config).to_json(drop_volatile=True)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        threaded = run(config).to_json(drop_volatile=True)
        assert serial == threaded, f"{config.mode}: thread count changed the report"
        repeat = run(config).to_json(drop_volatile=True)
        assert repeat == threaded, f"{config.mode}: repeat run changed the report"
    print("criterion 10 PASS: reports byte-identical modulo volatile keys")
