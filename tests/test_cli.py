import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvteleport
from cvteleport.cli import main, parse_range_spec
from cvteleport.tables import OutputTable


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_range_spec_includes_both_endpoints_when_step_divides():
    assert np.allclose(parse_range_spec("0:1:0.25"), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(parse_range_spec("-4:4:0.1"), np.arange(81) * 0.1 - 4.0)
    # a step that does not divide the span stops short of the end
    assert np.allclose(parse_range_spec("0:1:0.3"), [0.0, 0.3, 0.6, 0.9])
    assert parse_range_spec("2:2:1").tolist() == [2.0]


def test_beta_density_grid_contract(capsys):
    code, out = run_cli(capsys, "beta-density")
    assert code == 0
    table = OutputTable.from_csv(out)
    assert table.columns == ["x_minus", "y_plus", "density"]
    assert len(table.rows) == 6561
    arr = np.array(table.rows)

    def density_at(x, y):
        idx = np.argmin((arr[:, 0] - x) ** 2 + (arr[:, 1] - y) ** 2)
        return arr[idx, 2]

    assert np.isclose(density_at(0, 0), 0.05968310365946075, atol=1e-12)
    assert abs(density_at(1, 0) - density_at(0, 1)) < 1e-12
    assert abs(density_at(0.5, 0.5) - density_at(-0.5, -0.5)) < 1e-12
    # the origin sits in a dip: the density ring at ~0.94 lies above it
    assert density_at(0, 0) < density_at(0.9, 0.3)


def test_photon_stats_accounts_for_all_mass(capsys):
    code, out = run_cli(capsys, "photon-stats", "--max-n", "12")
    assert code == 0
    table = OutputTable.from_csv(out)
    assert table.columns == ["n", "probability", "probability_quadrature"]
    arr = np.array(table.rows)
    closed_total = arr[:, 1].sum() + table.metadata["residual_closed_form"]
    assert abs(closed_total - 1.0) < 1e-9
    assert np.allclose(arr[:, 1], arr[:, 2], atol=1e-6)
    assert table.metadata["cutoff"] == 32


def test_loss_gain_sweep(capsys):
    code, out = run_cli(capsys, "loss-gain", "--q-range", "0:0.9:0.1")
    assert code == 0
    table = OutputTable.from_csv(out)
    assert table.columns == ["q", "p_loss", "p_success", "p_gain"]
    arr = np.array(table.rows)
    assert arr.shape == (10, 4)
    assert np.allclose(arr[0, 1:], [0.25, 0.25, 0.5], atol=1e-15)
    assert np.allclose(arr[:, 1:].sum(axis=1), 1.0, atol=1e-12)
    # photon gain stays above photon loss at every swept q
    assert np.all(arr[:, 3] >= arr[:, 1])


def test_conditional_columns_sum(capsys):
    code, out = run_cli(capsys, "conditional", "--radial-range", "0:3:0.25")
    assert code == 0
    table = OutputTable.from_csv(out)
    assert table.columns == ["beta_abs", "total", "p_one", "p_zero", "p_ge2"]
    arr = np.array(table.rows)
    assert np.max(np.abs(arr[:, 2:].sum(axis=1) - arr[:, 1])) < 1e-12
    # at beta = 0 only the single-photon term survives
    assert arr[0, 3] == 0.0 and arr[0, 4] == 0.0 and arr[0, 2] > 0.0


def test_polarization_sweep(capsys):
    code, out = run_cli(capsys, "polarization", "--q-range", "0:0.9:0.1", "--format", "json")
    assert code == 0
    table = OutputTable.from_json(out)
    assert table.columns == ["q", "p_trans", "p_flip", "p_zero", "p_multi"]
    arr = np.array(table.rows)
    assert np.allclose(arr[:, 1:].sum(axis=1), 1.0, atol=1e-12)


def test_sample_metadata_carries_seed(capsys):
    code, out = run_cli(capsys, "sample", "--shots", "200", "--seed", "42")
    assert code == 0
    table = OutputTable.from_csv(out)
    assert table.metadata["seed"] == 42
    assert table.metadata["shots"] == 200
    assert len(table.rows) == 200
    arr = np.array(table.rows)
    # category codes 0/1/2 match the photon counts, overflow mapping to gain
    for _, _, _, count, code_val in table.rows:
        expect = 2.0 if (count >= 2 or count == -1) else count
        assert code_val == expect
    counts = table.metadata["counts"]
    assert sum(counts.values()) == 200


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_zero_shots_round_trips(capsys, fmt):
    code, out = run_cli(capsys, "sample", "--shots", "0", "--format", fmt)
    assert code == 0
    table = OutputTable.parse(out, fmt)
    assert table.columns == ["shot_index", "x_minus", "y_plus", "photon_count", "category_code"]
    assert table.rows.shape == (0, 5)
    assert table.metadata["counts"] == {"loss": 0, "success": 0, "gain": 0}


def test_sample_is_reproducible(capsys):
    _, out1 = run_cli(capsys, "sample", "--shots", "64", "--seed", "9")
    _, out2 = run_cli(capsys, "sample", "--shots", "64", "--seed", "9")
    assert out1 == out2


def test_json_and_csv_agree(capsys, tmp_path):
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    assert main(["loss-gain", "--q-range", "0:0.5:0.25", "--out", str(csv_path)]) == 0
    assert (
        main(
            [
                "loss-gain",
                "--q-range",
                "0:0.5:0.25",
                "--format",
                "json",
                "--out",
                str(json_path),
            ]
        )
        == 0
    )
    a = OutputTable.from_csv(csv_path.read_text(encoding="utf-8"))
    b = OutputTable.from_json(json_path.read_text(encoding="utf-8"))
    assert a == b


def test_verify_fast_passes(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)
    assert all("tolerance" in line for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["beta-density", "--q", "1.5"],
        ["beta-density", "--q", "-0.1"],
        ["conditional", "--radial-range", "0:2"],
        ["conditional", "--radial-range", "0:2:-1"],
        ["loss-gain", "--q-range", "0:1.2:0.1"],
        ["nonsense"],
        ["photon-stats", "--q", "0.995"],
        ["photon-stats", "--max-n", "-1"],
        ["sample", "--seed", "-1"],
        ["loss-gain", "--q-range", "nan:0.5:0.1"],
        ["beta-density", "--range", "0:inf:1"],
        ["sample", "--shots", "4294967297"],
        ["conditional", "--q", "half"],
        ["sample", "--q", "nan"],
    ],
)
def test_usage_errors_exit_two(argv, capsys, monkeypatch):
    # a usage error must stop before any work; a run of 2**32 + 1 shots would
    # need about 100 GB for its columns alone
    def refuse(config):
        raise AssertionError(f"run_shots started on a usage error: {config}")

    monkeypatch.setattr("cvteleport.cli.run_shots", refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_unwritable_output_exits_two(capsys):
    code = main(["loss-gain", "--q-range", "0:0.1:0.1", "--out", "/nonexistent/x.csv"])
    assert code == 2


def test_cutoff_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CVTELEPORT_CUTOFF", "16")
    code, out = run_cli(capsys, "photon-stats", "--max-n", "4")
    assert code == 0
    assert OutputTable.from_csv(out).metadata["cutoff"] == 16


def test_invalid_cutoff_env_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("CVTELEPORT_CUTOFF", "zero")
    with pytest.raises(SystemExit) as exc:
        main(["photon-stats"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "CVTELEPORT_CUTOFF" in err and "'zero'" in err
    # commands that take no cutoff, or are given one, never read the variable
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert main(["beta-density", "--range", "0:1:0.5"]) == 0
    assert main(["photon-stats", "--cutoff", "16"]) == 0


@pytest.mark.parametrize("module", ["cvteleport", "cvteleport.cli"])
def test_module_runs_as_script(module):
    src = Path(cvteleport.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", module, "beta-density", "--range", "0:1:0.5"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(OutputTable.from_csv(proc.stdout).rows) == 9


class _ClosedPipeStdout:
    """Mimics stdout whose reader has gone away."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        raise ValueError("detached")


def test_broken_pipe_on_stdout_exits_quietly(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipeStdout())
    code = main(["sample", "--q", "0.5", "--shots", "10", "--seed", "7"])
    assert code == 1
    assert capsys.readouterr().err == ""
