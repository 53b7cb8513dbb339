"""Tests for the experiment drivers, report plumbing, and the CLI."""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from specforms import cli, experiments
from specforms.cli import build_parser, main
from specforms.errors import UnsupportedConfigError, ValidationError
from specforms.experiments import (
    CheckSet,
    DEFAULT_T_GRID,
    DEFAULT_TOLERANCES,
    MODES,
    SEED_STRIDE,
    ExperimentConfig,
    RunReport,
    _perturbation_battery,
    _perturbation_residuals,
    _stream_stacks,
    run,
    run_selftest,
)
from specforms.forms import FrechetForm, delta_symmetric, model_delta_bracket
from specforms.functions import PowerAbs
from specforms.instances import generate_instance
from specforms.spectral import HermitianMatrix, eigendecompose
from specforms.util import canonical_json


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="bogus")
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="selftest", dim=1)
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="selftest", p=9.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="selftest", p=1.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="taylor-scan", profile="odd")
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="taylor-scan", t_grid=())
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="taylor-scan", t_grid=(0.1, -0.2))
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="moi-convergence", n_grid=(32, 32))
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="moi-convergence", n_grid=(64, 32))
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="selftest", fmt="xml")
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="finite"):
            ExperimentConfig(mode="taylor-scan", t_grid=(bad, 0.1))


def test_report_config_echoes_every_setting_but_the_output_ones():
    report = run(ExperimentConfig(mode="moi-convergence", dim=2, n_grid=(8, 16)))
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(report.config) == fields - {"out_dir", "fmt"}
    # No setting restates what the run knows: no order, tolerance or table.
    assert set(report.config) == {
        "mode", "seed", "dim", "p", "profile", "t_grid", "n_grid", "matrix_path", "dir_paths"
    }
    assert report.config["dim"] == 2 and report.config["n_grid"] == (8, 16)


def test_checkset_ops_and_guards():
    checks = CheckSet()
    checks.add("small", 1e-9, "<=", 1e-6)
    checks.add("big", 5.0, ">=", 2.0)
    checks.add("window", 0.5, "in", (0.0, 1.0))
    checks.add("flag", True, "true", None)
    assert checks.all_passed
    checks.add("late", 2.0, "<=", 1.0)
    assert not checks.all_passed
    rows = [dict(row) for row in checks.rows]
    with pytest.raises(ValidationError):
        checks.add("small", 0.0, "<=", 1.0)  # duplicate name
    with pytest.raises(ValidationError):
        checks.add("weird", 0.0, "~", 1.0)  # unknown comparison
    # A rejected row records nothing: neither a row nor its name.
    assert checks.rows == rows
    checks.add("weird", 0.0, "<=", 1.0)
    assert [row["name"] for row in checks.rows] == ["small", "big", "window", "flag", "late", "weird"]


@pytest.mark.parametrize("rows", [[(0.5, True)], [(0.5, True), (2.0, False)], []])
def test_run_times_the_driver_and_builds_its_report(rows, monkeypatch):
    config = ExperimentConfig(mode="selftest")

    def driver(seen):
        assert seen is config
        time.sleep(1e-3)
        checks = CheckSet()
        for i, (value, _) in enumerate(rows):
            checks.add(f"row{i}", value, "<=", 1.0)
        return checks, {"curve": [1.0, 2.0]}

    monkeypatch.setitem(experiments._DRIVERS, "selftest", driver)
    report = run(config)
    assert isinstance(report, RunReport)
    assert report.mode == "selftest" and report.config == config.echo()
    assert [row["passed"] for row in report.checks] == [ok for _, ok in rows]
    assert report.passed == all(ok for _, ok in rows)
    assert report.data == {"curve": [1.0, 2.0]}
    assert report.wall_clock_s > 0.0


def test_taylor_scan_driver_passes_and_saves(tmp_path, capsys):
    argv = ["taylor-scan", "--seed", "2", "--p", "2.5", "--profile", "singular"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # The run writes its report and nothing else; the curve is in its data.
    assert os.listdir(tmp_path) == ["taylor_scan_report.json"]
    payload = json.loads((tmp_path / "taylor_scan_report.json").read_text())
    assert payload["passed"] is True
    names = [row["name"] for row in payload["checks"]]
    assert "slope_window" in names
    taylor = payload["data"]["taylor"]
    assert len(taylor["t"]) == len(taylor["remainder"]) == len(DEFAULT_T_GRID)


def test_taylor_scan_generic_uses_slope_floor():
    report = run(ExperimentConfig(mode="taylor-scan", seed=1, p=2.5))
    assert report.passed
    names = [row["name"] for row in report.checks]
    assert "slope_floor" in names and "slope_window" not in names


def test_moi_convergence_driver_passes():
    report = run(ExperimentConfig(mode="moi-convergence", seed=1))
    assert report.passed
    assert len(report.data["curves"]) == 10


def test_holder_scan_driver_passes():
    report = run(ExperimentConfig(mode="holder-scan", seed=1, p=2.5))
    assert report.passed
    assert report.data["alpha"] == 0.5


def test_perturbation_check_driver_passes():
    report = run(ExperimentConfig(mode="perturbation-check", seed=1))
    assert report.passed


@pytest.mark.parametrize("m", (1, 2))
def test_perturbation_battery_holds_at_dim_32(m):
    # The driver's kernels and bounds on one dim-32 instance set.
    config = ExperimentConfig(mode="perturbation-check", seed=1, dim=32)
    poly, power = _perturbation_residuals(config, [config.seed], m)
    assert poly <= DEFAULT_TOLERANCES["perturbation_poly"]
    assert power <= DEFAULT_TOLERANCES["perturbation_power"]


@pytest.mark.parametrize("m", (1, 2))
def test_perturbation_battery_holds_at_dim_64(m):
    # The driver's kernels and bounds at the dimension cap, three seeds in
    # one stacked call per kernel.
    config = ExperimentConfig(mode="perturbation-check", seed=1, dim=64)
    poly, power = _perturbation_residuals(config, [1, 2, 3], m)
    assert poly <= DEFAULT_TOLERANCES["perturbation_poly"]
    assert power <= DEFAULT_TOLERANCES["perturbation_power"]


def test_selftest_driver_passes():
    report = run(ExperimentConfig(mode="selftest", seed=1, p=2.5))
    assert report.passed


def test_selftest_rejects_unsupported_order():
    with pytest.raises(UnsupportedConfigError):
        run_selftest(ExperimentConfig(mode="selftest", p=4.5))


def test_reports_are_deterministic(monkeypatch):
    # selftest's separable and integral-Taylor batteries run on the pool.
    config = ExperimentConfig(mode="selftest", seed=4, dim=3, p=3.5)
    first = run(config).to_json(drop_volatile=True)
    second = run(config).to_json(drop_volatile=True)
    assert first == second
    # The pool is as wide as the machine: one core runs it serially.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = run(config).to_json(drop_volatile=True)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    threaded = run(config).to_json(drop_volatile=True)
    assert serial == first
    assert threaded == first


def test_volatile_keys_differ_but_are_stripped():
    config = ExperimentConfig(mode="moi-convergence", seed=3, n_grid=(8, 16))
    a, b = run(config), run(config)
    assert a.wall_clock_s != b.wall_clock_s  # raw reports keep the clock
    assert a.to_json(drop_volatile=True) == b.to_json(drop_volatile=True)


def _write_matrix(path, matrix):
    payload = HermitianMatrix(matrix).to_dict()
    path.write_text(json.dumps(payload))
    return str(path)


def test_derivative_driver_matches_library_call(tmp_path):
    h = np.diag([0.5, -0.4, 0.3])
    v = np.full((3, 3), 0.2)
    m_path = _write_matrix(tmp_path / "h.json", h)
    d_path = _write_matrix(tmp_path / "v.json", v)
    config = ExperimentConfig(
        mode="derivative", p=2.5, matrix_path=m_path, dir_paths=(d_path,)
    )
    report = run(config)
    assert report.passed
    form = FrechetForm(base=eigendecompose(h), exponent=2.5, order=1)
    np.testing.assert_allclose(report.data["value"], delta_symmetric(form, [v]))


def test_cli_derivative_of_distinct_complex_directions(tmp_path, capsys):
    h, v = generate_instance(1, 3, "generic", 3.5)
    dirs = [v.matrix] + [generate_instance(s, 3, "generic", 3.5)[1].matrix for s in (101, 201)]
    argv = ["derivative", "--p", "3.5"]
    argv += ["--matrix", _write_matrix(tmp_path / "h.json", h.matrix)]
    for i, d in enumerate(dirs):
        argv += ["--dir", _write_matrix(tmp_path / f"v{i}.json", d)]
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["passed"] is True
    form = FrechetForm(base=eigendecompose(h), exponent=3.5, order=3)
    assert payload["data"]["value"] == delta_symmetric(form, dirs)


def test_cli_derivative_along_one_direction_file_reports_the_bracket(tmp_path, capsys):
    # Three reads of one file are equal copies: delta^(3)(V, V, V) is the
    # bracket of [V] * 3, with its bits.
    h, v = generate_instance(1, 8, "generic", 3.5)
    d_path = _write_matrix(tmp_path / "v.json", v.matrix)
    argv = ["derivative", "--p", "3.5"]
    argv += ["--matrix", _write_matrix(tmp_path / "h.json", h.matrix)]
    argv += ["--dir", d_path] * 3
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["data"]["order"] == 3
    bracket = model_delta_bracket(eigendecompose(h), PowerAbs(3.5), [v.matrix] * 3)
    assert payload["data"]["value"] == bracket


def test_seed_streams_follow_the_stride():
    # Stream j of a seed is the instance of seed + j * SEED_STRIDE, as each
    # battery drew them one call at a time.
    streams = _stream_stacks([4, 9], 3, 3, "singular", 2.5)
    assert [(dec.stack, len(v)) for dec, v in streams] == [(2, 2)] * 3
    for j, (dec, v) in enumerate(streams):
        for i, seed in enumerate([4, 9]):
            h1, v1 = generate_instance(seed + SEED_STRIDE * j, 3, "singular", 2.5)
            assert np.array_equal(dec[i].source.matrix, h1.matrix)
            assert np.array_equal(v[i], v1.matrix)


def test_stream_stacks_decompose_the_drawn_stack(monkeypatch):
    # One draw of every stream, whose H stack object is what eigendecompose
    # gets: no member is split off and stacked again.
    draws, draw = [], experiments._draw

    def recorded(*args):
        draws.append(draw(*args))
        return draws[-1]

    monkeypatch.setattr(experiments, "_draw", recorded)
    calls = count_calls(monkeypatch, experiments, "eigendecompose")
    _stream_stacks([4, 9, 11], 3, 3, "generic", 2.5)
    assert len(draws) == 1 and len(calls) == 1
    assert calls[0][0] is draws[0][0]


def test_perturbation_battery_is_decomposed_in_one_call(monkeypatch):
    calls = []
    decompose = experiments.eigendecompose

    def counted(h):
        calls.append(h)
        return decompose(h)

    monkeypatch.setattr(experiments, "eigendecompose", counted)
    seeds, m = [4, 9, 11], 2
    a, b, tails, perts = _perturbation_battery(seeds, 3, 3.5, m)
    assert len(calls) == 1 and calls[0].matrix.shape == (len(seeds) * (m + 2), 3, 3)
    assert len(tails) == m and len(perts) == m
    # Each slot is a stack over the seeds whose members have the bits of
    # their matrices decomposed alone.
    for i, seed in enumerate(seeds):
        group = [generate_instance(seed + SEED_STRIDE * j, 3, "generic", 3.5) for j in range(m + 2)]
        for dec, (h, _) in zip([a, b] + tails, group):
            one = decompose(h)
            assert dec.stack == len(seeds)
            assert dec[i].eigenvalues.tobytes() == one.eigenvalues.tobytes()
            assert dec[i].eigenvectors.tobytes() == one.eigenvectors.tobytes()
            assert dec[i].source.matrix.tobytes() == h.matrix.tobytes()
        assert all(np.array_equal(v[i], w.matrix) for v, (_, w) in zip(perts, group))


def count_calls(monkeypatch, module, name):
    """Wrap module.name with a counter; returns the list of its calls."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_batteries_send_their_seeds_through_one_stacked_call(monkeypatch):
    identity = count_calls(monkeypatch, experiments, "perturbation_identity")
    report = run(ExperimentConfig(mode="perturbation-check"))
    assert report.passed
    # One call per (order, kernel) over the 20 seeds, then the hand case.
    assert [args[1].stack for args in identity] == [20] * 4 + [1]
    exact = count_calls(monkeypatch, experiments, "moi_exact")
    binned = count_calls(monkeypatch, experiments, "moi_binned")
    config = ExperimentConfig(mode="moi-convergence")
    assert run(config).passed
    # One exact and one binned integral per grid size over the 10 seeds;
    # the hand cases are the unstacked calls.
    assert [req.decompositions[0].stack for (req,) in exact] == [10, None]
    stacked = [n for req, n in binned if req.decompositions[0].stack == 10]
    assert stacked == list(config.n_grid)
    traces = count_calls(monkeypatch, experiments, "trace_identity_residual")
    segments = count_calls(monkeypatch, experiments, "taylor_integral_form")
    assert run(ExperimentConfig(mode="selftest")).passed
    # One form and call of order m over the 10 seeds per exponent (m = 2 at
    # p 2.5, 3 at p 3.5), then the hand case.
    assert [(form.base.stack, form.order) for form, _ in traces] == [(10, 2), (10, 3), (None, 2)]
    # One integral-Taylor call per exponent over the 3 seeds' segments.
    assert [(p, h0.shape[0], h1.shape[0]) for h0, h1, p in segments] == [(2.5, 3, 3), (3.5, 3, 3)]
    holder = count_calls(monkeypatch, experiments, "holder_difference_norms")
    assert run(ExperimentConfig(mode="holder-scan", p=3.5)).passed
    ((_, base, direction, tails, perts, *_),) = holder
    assert base.stack == 10 and direction.shape[0] == 10
    assert [d.stack for d in tails] == [10, 10] and [len(u) for u in perts] == [10, 10]


def test_holder_scan_reports_a_zero_direction_as_degenerate(monkeypatch):
    norms = experiments.holder_difference_norms

    def zeroed(g, base, direction, *rest, **kwargs):
        direction = direction.copy()
        direction[3] = 0.0
        return norms(g, base, direction, *rest, **kwargs)

    monkeypatch.setattr(experiments, "holder_difference_norms", zeroed)
    report = run(ExperimentConfig(mode="holder-scan", seed=5))
    names = [row["name"] for row in report.checks]
    assert names == [
        "degenerate_seed8" if seed == 8 else f"slope_seed{seed}" for seed in range(5, 15)
    ]
    assert report.passed and np.isnan(report.data["slopes"][3])


def test_cli_taylor_scan_roundtrip(tmp_path, capsys):
    code = main(
        [
            "taylor-scan",
            "--p",
            "2.5",
            "--seed",
            "3",
            "--profile",
            "singular",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert (tmp_path / "taylor_scan_report.json").exists()


def test_cli_global_flags_before_subcommand(tmp_path, capsys):
    code = main(["--format", "csv", "--out", str(tmp_path), "perturbation-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("name,value,bound,op,passed")
    assert (tmp_path / "perturbation_check_report.csv").exists()


def test_cli_rejects_bad_config(capsys):
    code = main(["selftest", "--p", "9.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_cli_missing_matrix_file(capsys):
    code = main(
        ["derivative", "--p", "2.5", "--matrix", "/nonexistent.json", "--dir", "/also-missing.json"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_cli_failing_check_exits_one(capsys):
    # two-bin grids sit far from the asymptotic first-order rate, so the
    # window check genuinely fails and the CLI must say so
    code = main(["moi-convergence", "--n-grid", "2,3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED checks: rate" in captured.err
    payload = json.loads(captured.out)
    assert payload["passed"] is False


def test_cli_reports_selftest_gate(capsys):
    code = main(["selftest", "--p", "4.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unsupported" in captured.err


def test_cli_form_modes_refuse_orders_above_three_before_the_run(monkeypatch, capsys):
    # One rule in the config for every mode that builds orders up to
    # ceil(p) - 1: taylor-scan used to run and fail its slope floor.
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran with p > 4"))
    errors = set()
    for mode in ("taylor-scan", "selftest", "holder-scan"):
        assert main([mode, "--p", "4.5"]) == 2
        errors.add(capsys.readouterr().err)
    assert errors == {
        "error: p=4.5 needs derivative order 4: unsupported above 3\n"
    }


def test_cli_modes_without_the_form_batteries_keep_p_up_to_eight(tmp_path, capsys):
    assert main(["moi-convergence", "--p", "6"]) == 0
    capsys.readouterr()
    argv = ["derivative", "--p", "4.5"]
    argv += ["--matrix", _write_matrix(tmp_path / "h.json", np.diag([0.5, -0.4, 0.3]))]
    for i, scale in enumerate((0.2, -0.1)):
        argv += ["--dir", _write_matrix(tmp_path / f"v{i}.json", np.full((3, 3), scale))]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["data"]["order"] == 2


def test_cli_perturbation_check_passes_at_dim_2(capsys):
    assert main(["perturbation-check", "--dim", "2"]) == 0


# The flags each subcommand requires, and the config fields they give.
REQUIRED = {
    "derivative": (
        ["--matrix", "h.json", "--dir", "v.json"],
        {"matrix_path": "h.json", "dir_paths": ("v.json",)},
    ),
}


@pytest.mark.parametrize("mode", MODES)
def test_cli_flags_not_given_take_the_config_defaults(mode, monkeypatch, capsys):
    argv, fields = REQUIRED.get(mode, ([], {}))
    assert vars(build_parser().parse_args([mode] + argv)).keys() == {"mode", *fields}
    built = []

    def record(config):
        built.append(config)
        return RunReport(config.mode, config.echo(), [], True)

    monkeypatch.setattr(cli, "run", record)
    assert main([mode] + argv) == 0
    assert built == [ExperimentConfig(mode=mode, **fields)]


def _cli_output(argv, capsys):
    """stdout of a passing main(argv), JSON reports without volatile keys."""
    assert main(argv) == 0
    text = capsys.readouterr().out
    return canonical_json(json.loads(text), drop_volatile=True) if text[0] == "{" else text


@pytest.mark.parametrize("flag", ["--format", "--out"])
def test_cli_global_flags_on_either_side_give_one_report(flag, tmp_path, capsys):
    mode = ["moi-convergence", "--n-grid", "8,16,32"]
    plain = _cli_output(mode, capsys)
    reports = []
    for i, (before, after) in enumerate([(1, 0), (0, 1), (1, 1)]):
        out = tmp_path / str(i)
        given = [flag, {"--format": "csv", "--out": str(out)}[flag]]
        reports.append(_cli_output(given * before + mode + given * after, capsys))
        if flag == "--out":
            saved = json.loads((out / "moi_convergence_report.json").read_text())
            assert canonical_json(saved, drop_volatile=True) == reports[-1]
    assert reports[1:] == reports[:1] * 2
    assert (reports[0] == plain) == (flag == "--out")


@pytest.mark.parametrize("mode", ["taylor-scan", "holder-scan"])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_cli_rejects_non_finite_t_grid(mode, bad, capsys):
    assert main([mode, "--t-grid", f"{bad},0.1"]) == 2
    assert capsys.readouterr().err.startswith("error: t grid must be nonempty, finite")


@pytest.mark.parametrize(
    "argv",
    [
        ["taylor-scan", "--p", "2.5", "--dim", "4", "--t-grid", "0.01,0.01,0.01,0.01,0.01"],
        ["holder-scan", "--p", "2.5", "--t-grid", "0.01,0.01,0.01"],
        ["moi-convergence", "--n-grid", "512"],
    ],
)
def test_cli_t_grid_of_one_value_has_no_slope(argv, monkeypatch, capsys):
    # A repeated t, or a single grid size, is one point of the fit: no
    # slope, so the config refuses it before any matrix is decomposed.
    handed, eigh = [], np.linalg.eigh

    def counted(a):
        handed.append(len(a) if a.ndim == 3 else 1)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: slope fit needs at least two distinct x values\n"
    )
    assert handed == []


def test_cli_unreadable_matrix_files_exit_two(tmp_path, capsys):
    good = _write_matrix(tmp_path / "v.json", np.eye(2))
    text = tmp_path / "h.txt"
    text.write_text("not json")
    for path in (str(text), str(tmp_path)):
        assert main(["derivative", "--matrix", path, "--dir", good]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read matrix file {path!r}")


def test_cli_out_that_is_a_file_exits_two_before_the_run(tmp_path, monkeypatch, capsys):
    target = tmp_path / "taken"
    target.write_text("kept")
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran with a bad --out"))
    assert main(["perturbation-check", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: out_dir")
    assert target.read_text() == "kept"


@pytest.mark.parametrize("count", [1, 2, 3])
def test_cli_derivative_order_is_the_number_of_direction_files(count, tmp_path, capsys):
    h = np.diag([0.5, -0.4, 0.3])
    dirs = [np.full((3, 3), 0.1 * (i + 1)) for i in range(count)]
    argv = ["derivative", "--p", "3.5", "--matrix", _write_matrix(tmp_path / "h.json", h)]
    for i, d in enumerate(dirs):
        argv += ["--dir", _write_matrix(tmp_path / f"v{i}.json", d)]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["data"]["order"] == count
    form = FrechetForm(base=eigendecompose(h), exponent=3.5, order=count)
    assert payload["data"]["value"] == delta_symmetric(form, dirs)


@pytest.mark.parametrize(
    "argv",
    [
        ["derivative", "--order", "2", "--matrix", "h.json", "--dir", "v.json"],
        ["selftest", "--tol-quad", "1e-8"],
        ["--tol-quad=1e-8", "moi-convergence"],
    ],
)
def test_cli_removed_flags_exit_two_as_unknown(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran with an unknown flag"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = next(arg for arg in argv if arg.startswith(("--order", "--tol-quad")))
    assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err


def _nan_at_member_one(monkeypatch, name):
    """Wrap experiments.name so that member 1 of every stack it returns is
    NaN: the array it returns, or each array of the tuple."""
    fn = getattr(experiments, name)

    def poisoned(*args, **kwargs):
        out = fn(*args, **kwargs)
        for part in out if isinstance(out, tuple) else (out,):
            if len(part) > 1:
                part[1] = np.nan
        return out

    monkeypatch.setattr(experiments, name, poisoned)


def test_a_nan_residual_past_the_first_member_fails_its_row(monkeypatch):
    # Python's max keeps its first element and skips a later NaN; every
    # battery row must take the NaN and fail instead.
    for name in ("perturbation_identity", "taylor_integral_form", "algebraic_shift"):
        _nan_at_member_one(monkeypatch, name)
    separable, products = experiments.moi_separable, []

    def nan_second_product(*args):
        products.append(separable(*args))
        return products[-1] * np.nan if len(products) == 2 else products[-1]

    monkeypatch.setattr(experiments, "moi_separable", nan_second_product)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # the members in order
    poisoned = {
        "perturbation-check": {
            f"{kind}_m{m}_max_residual" for kind in ("poly", "power") for m in (1, 2)
        },
        "selftest": {f"perturbation_{kind}_m{m}" for kind in ("poly", "power") for m in (1, 2)}
        | {"integral_taylor_p2.5", "integral_taylor_p3.5"}
        | {"algebraic_shift_max", "separable_cross_max"},
    }
    for mode, rows in poisoned.items():
        report = run(ExperimentConfig(mode=mode, dim=3))
        failed = {row["name"] for row in report.checks if not row["passed"]}
        assert failed == rows, mode
        assert all(np.isnan(row["value"]) for row in report.checks if row["name"] in rows)
