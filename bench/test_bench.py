"""Tests of the benchmark itself: checks, wrapping, counts, exit paths.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, layer_metrics, node_class  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

sf = run.import_program()
PERTURB = 1.0 + 1e-3


def first_cycle(name, seed=1):
    workload = WORKLOADS[name](sf)
    return workload, next(workload.stream(seed))


@pytest.fixture
def perturbed_companion(monkeypatch):
    """Scale the companion momentum psi by PERTURB inside the program."""
    original = sf.moi.momentum_perturbation_pair

    def scaled(spec):
        psi = original(spec)
        terms = tuple((alpha, c * PERTURB) for alpha, c in psi.q_terms)
        return sf.MomentumSpec(m=psi.m, kernel=psi.kernel, q_terms=terms, origin=psi.origin)

    monkeypatch.setattr(sf.moi, "momentum_perturbation_pair", scaled)


def test_tied_forms_check_rejects_perturbed_value_on_both_routes():
    workload = WORKLOADS["tied-forms"](sf)
    routes = {}
    for request in next(workload.stream(1)):
        h, _ = request.data
        clear = min(abs(sf.eigendecompose(h).eigenvalues)) >= sf.forms.FD_SAFE_GAP
        routes.setdefault(clear, request)
    assert len(routes) == 2, "expected requests on both check routes"
    for request in routes.values():
        values = workload.call(request)
        assert workload.check(request, values)
        for k in range(len(values)):
            perturbed = list(values)
            perturbed[k] *= PERTURB
            assert not workload.check(request, perturbed)


def test_separated_integrals_check_rejects_perturbed_companion(perturbed_companion):
    workload, cycle = first_cycle("separated-integrals")
    assert not workload.check(cycle[0], workload.call(cycle[0]))


def test_separated_integrals_check_accepts_unperturbed():
    workload, cycle = first_cycle("separated-integrals")
    assert workload.check(cycle[0], workload.call(cycle[0]))


def test_moving_segment_check_rejects_perturbed_value():
    workload, cycle = first_cycle("moving-segment")
    result = workload.call(cycle[0])
    assert workload.check(cycle[0], result)
    (lhs, rhs), rest = result[0], result[1:]
    assert not workload.check(cycle[0], [(lhs, rhs * PERTURB)] + rest)


def test_driver_sweep_counts_a_failed_driver_check(perturbed_companion):
    workload = WORKLOADS["driver-sweep"](sf)
    request = Request("perturbation-check", ("perturbation-check", "--dim", "4"))
    assert not workload.check(request, workload.call(request))


def test_seed_variants_change_entries_but_not_spectra_or_results():
    workload = WORKLOADS["moving-segment"](sf)
    request = workload.make_panel(random.Random("moving-segment:panel"))[0]
    rng = random.Random(7)
    variants = [workload.vary(request, rng) for _ in range(6)]
    entries = {variant.data[0][1].tobytes() for variant in variants}
    assert len(entries) > 1
    base = workload.call(request)
    for variant in variants[:2]:
        for (_, h0, h1), (_, g0, g1) in zip(request.data, variant.data):
            for h, g in ((h0, g0), (h1, g1)):
                assert np.allclose(np.linalg.eigvalsh(h), np.linalg.eigvalsh(g), rtol=0, atol=1e-14)
        result = workload.call(variant)
        assert workload.check(variant, result)
        for (lhs, _), (lhs_v, _) in zip(base, result):
            assert abs(lhs - lhs_v) <= workload.tol["integral_taylor"]


def test_tied_forms_references_shared_with_workers_check_variants():
    workload = WORKLOADS["tied-forms"](sf)
    workload.adopt(json.loads(json.dumps(workload.shared())))
    for request in next(workload.stream(3))[:2]:
        values = workload.call(request)
        assert workload.check(request, values)
        assert not workload.check(request, values[:2] + [values[2] * PERTURB])


def test_every_seed_runs_the_whole_panel():
    workload = WORKLOADS["tied-forms"](sf)
    cycles = [next(workload.stream(seed)) for seed in (1, 2)]
    assert sorted(r.entry for r in cycles[0]) == sorted(r.entry for r in cycles[1])
    assert len(cycles[0]) == 9


def test_raising_request_counts_as_failed():
    class Raising(WORKLOADS["moving-segment"]):
        def call(self, request):
            raise sf.ValidationError("deliberate")

    workload = Raising(sf)
    pool = [next(workload.stream(1))]
    rows, _ = run.run_requests(workload, run.requests_of(pool), True, None)
    assert [row[3:5] for row in rows] == [(False, "ValidationError: deliberate")] * len(pool[0])


def test_wrapping_rebinds_every_alias_and_restores_them():
    originals = {
        "package": sf.divided_difference,
        "forms": sf.forms.moi_exact,
        "driver_table": sf.experiments._DRIVERS["selftest"],
        "class_eval": vars(sf.PowerKernel)["eval"],
    }
    tracer = Tracer().install()
    try:
        assert sf.divided_difference is sf.divided.divided_difference
        assert sf.divided_difference is not originals["package"]
        assert sf.forms.moi_exact is sf.moi.moi_exact is not originals["forms"]
        assert sf.experiments._DRIVERS["selftest"] is not originals["driver_table"]
        spec = sf.MomentumSpec.from_divided_difference(sf.PowerAbs(2.5), 1)
        sf.momentum_eval(spec, [0.2, 0.7])
    finally:
        tracer.uninstall()
    assert sf.divided_difference is originals["package"]
    assert sf.forms.moi_exact is originals["forms"]
    assert sf.experiments._DRIVERS["selftest"] is originals["driver_table"]
    assert vars(sf.PowerKernel)["eval"] is originals["class_eval"]

    (_, cols), = tracer.buffers
    names = [tracer.names[i] for i in cols["name"]]
    by_sid = dict(zip(cols["sid"], names))
    parent_of = dict(zip(cols["sid"], cols["parent"]))
    # momentum_eval imports divided_difference at call time.
    dd = [sid for sid, name in by_sid.items() if name == "divided.divided_difference"]
    assert dd and by_sid[parent_of[dd[0]]] == "momenta.momentum_eval"
    assert "functions.PowerKernel.eval" in names


def test_node_classes():
    assert node_class([0.3, 0.3, 0.9]) == "tie"
    assert node_class([0.3, 0.3 + 1e-5, 0.9]) == "near"
    assert node_class([0.1, 0.5, 0.9]) == "separated"
    assert node_class([0.4]) == "separated"


def test_layer_metrics_self_time_and_quadrature_share():
    tracer = Tracer().install()
    try:
        form = sf.FrechetForm(sf.eigendecompose(sf.generate_instance(3, 3, "singular", 3.5)[0]), 3.5, 2)
        sf.delta_symmetric(form, [sf.generate_instance(3, 3, "singular", 3.5)[1].matrix] * 2)
    finally:
        tracer.uninstall()
    metrics, bases = layer_metrics(tracer, 1.0, 0.0)
    assert 0.0 < metrics["divided.quadrature_share"] <= 1.0
    assert metrics["forms.delta.calls"] == 1
    assert metrics["forms.integrals_per_delta"] == 2.0
    assert metrics["moi.tensor_entries"] == 2 * 3**2
    assert metrics["divided.nodes.tie"] + metrics["divided.nodes.near"] + metrics[
        "divided.nodes.separated"
    ] == metrics["divided.divided_difference.calls"]
    assert 0.0 < metrics["moi.self_s"] < metrics["moi.integral.busy_s"]


def test_tail_leaves_ten_samples_above():
    assert run.tail_latency(list(range(1, 41))) == (30, 75.0, 10)
    assert run.tail_latency(list(range(1, 12))) == (1, 100.0 / 11, 10)
    assert run.tail_latency([5.0, 6.0, 7.0, 9.0]) == (6.5, 50.0, 2)


def traced_counts():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "separated-integrals",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if name.endswith(".calls") or ".nodes." in name or name in (
            "moi.tensor_entries", "moi.symbol_evals_per_entry", "divided.quadrature_share",
            "momenta.rules_per_quadrature", "forms.integrals_per_delta",
            "forms.decompositions_per_segment",
        )
    }


def test_traced_counts_repeat_exactly():
    first = traced_counts()
    assert first["divided.divided_difference.calls"] > 0
    assert first == traced_counts()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tied-forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
