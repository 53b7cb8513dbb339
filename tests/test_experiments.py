"""Tests for the experiment drivers, report plumbing, and the CLI."""

import json
import os

import numpy as np
import pytest

from specforms.cli import main
from specforms.errors import UnsupportedConfigError, ValidationError
from specforms.experiments import (
    CheckSet,
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    run,
    run_selftest,
)
from specforms.forms import FrechetForm, delta_symmetric
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
        ExperimentConfig(mode="selftest", quad_tol=0.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(mode="selftest", fmt="xml")


def test_config_tolerances_merge_and_echo():
    config = ExperimentConfig(mode="selftest", quad_tol=1e-8)
    assert config.tolerances == dict(DEFAULT_TOLERANCES, quad_tol=1e-8)
    echo = config.echo()
    assert echo["tolerances"] == config.tolerances
    assert echo["quad_tol"] == 1e-8
    assert "out_dir" not in echo and "fmt" not in echo
    assert echo["mode"] == "selftest"
    with pytest.raises(TypeError):
        ExperimentConfig(mode="selftest", tolerances={"trace_identity": 1e-5})


def test_checkset_ops_and_guards():
    checks = CheckSet()
    checks.add("small", 1e-9, "<=", 1e-6)
    checks.add("big", 5.0, ">=", 2.0)
    checks.add("window", 0.5, "in", (0.0, 1.0))
    checks.add("flag", True, "true", None)
    assert checks.all_passed
    checks.add("late", 2.0, "<=", 1.0)
    assert not checks.all_passed
    with pytest.raises(ValidationError):
        checks.add("small", 0.0, "<=", 1.0)  # duplicate name
    with pytest.raises(ValidationError):
        checks.add("weird", 0.0, "~", 1.0)  # unknown comparison


def test_taylor_scan_driver_passes_and_saves(tmp_path):
    config = ExperimentConfig(
        mode="taylor-scan", seed=2, p=2.5, profile="singular", out_dir=str(tmp_path)
    )
    report = run(config)
    assert report.passed
    names = [row["name"] for row in report.checks]
    assert "slope_window" in names
    assert (tmp_path / "taylor_report.json").exists()
    assert (tmp_path / "taylor_report.csv").exists()
    payload = json.loads((tmp_path / "taylor_report.json").read_text())
    assert len(payload["t"]) == len(payload["remainder"])


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


def test_selftest_driver_passes():
    report = run(ExperimentConfig(mode="selftest", seed=1, p=2.5))
    assert report.passed


def test_selftest_rejects_unsupported_order():
    with pytest.raises(UnsupportedConfigError):
        run_selftest(ExperimentConfig(mode="selftest", p=4.5))


def test_reports_are_deterministic(monkeypatch):
    config = ExperimentConfig(mode="taylor-scan", seed=4, p=3.5, profile="singular")
    first = run(config).to_json(drop_volatile=True)
    second = run(config).to_json(drop_volatile=True)
    assert first == second
    monkeypatch.setenv("SF_THREADS", "1")
    serial = run(config).to_json(drop_volatile=True)
    monkeypatch.setenv("SF_THREADS", "4")
    threaded = run(config).to_json(drop_volatile=True)
    assert serial == first
    assert threaded == first


def test_volatile_keys_differ_but_are_stripped():
    config = ExperimentConfig(mode="moi-convergence", seed=3, n_grid=(8, 16))
    a, b = run(config), run(config)
    assert a.wall_clock_s != b.wall_clock_s  # raw reports keep the clock
    assert canonical_json(a.to_dict(), drop_volatile=True) == canonical_json(
        b.to_dict(), drop_volatile=True
    )


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
        mode="derivative", p=2.5, order=1, matrix_path=m_path, dir_paths=(d_path,)
    )
    report = run(config)
    assert report.passed
    form = FrechetForm(base=eigendecompose(h), exponent=2.5, order=1)
    np.testing.assert_allclose(report.data["value"], delta_symmetric(form, [v]))


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
