import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cvteleport
from cvteleport.cli import main, parse_range_spec
from cvteleport.errors import TruncationWarning
from cvteleport.polarization import PolarizationOutcomeBudget
from cvteleport.statistics import (
    LossGainSplit,
    _closed_form_tail,
    conditional_beta_density,
    loss_gain_split,
    squeezing_db_to_q,
)
from cvteleport.tables import OutputTable
from cvteleport.teleport import single_photon_beta_density
from cvteleport.verification import run_checks


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


def test_photon_stats_missing_mass_is_never_negative(capsys):
    # near q = 1 the closed-form rows sum to 1 in float64, so 1 - sum is -2.2e-16
    code, out = run_cli(capsys, "photon-stats", "--q", "0.97", "--max-n", "12")
    assert code == 0
    residual = OutputTable.from_csv(out).metadata["residual_closed_form"]
    assert residual == _closed_form_tail(0.97, 12)
    assert 1.6e-21 < residual < 1.7e-21


def test_loss_gain_sweep(capsys):
    code, out = run_cli(capsys, "loss-gain", "--q-range", "0:0.9:0.1")
    assert code == 0
    table = OutputTable.from_csv(out)
    assert table.columns == ["q", "p_loss", "p_success", "p_gain"] == ["q", *LossGainSplit._fields]
    arr = np.array(table.rows)
    assert arr.shape == (10, 4)
    assert np.allclose(arr[0, 1:], [0.25, 0.25, 0.5], atol=1e-15)
    assert np.allclose(arr[:, 1:].sum(axis=1), 1.0, atol=1e-12)
    # photon gain stays above photon loss at every swept q
    assert np.all(arr[:, 3] >= arr[:, 1])


def assert_quadrature_sweep_clean(capsys, command, result):
    code, out = run_cli(
        capsys, command, "--with-quadrature", "--q-range", "0.3:0.6:0.3", "--cutoff", "48"
    )
    assert code == 0
    table = OutputTable.from_csv(out)
    # the result's fields name the columns: q, closed forms, quadratures, flag
    quad = [f"{name}_quad" for name in result._fields]
    assert table.columns == ["q", *result._fields, *quad, "flag"]
    k = len(result._fields)
    assert table.rows.shape == (2, 2 * k + 2)
    assert not np.any(table.rows[:, -1])
    assert np.allclose(table.rows[:, 1 : k + 1], table.rows[:, k + 1 : 2 * k + 1], atol=1e-6)
    assert table.metadata["cutoff"] == 48


def test_sweep_with_quadrature_flags_clean_rows(capsys):
    assert_quadrature_sweep_clean(capsys, "loss-gain", LossGainSplit)


def test_polarization_with_quadrature_flags_clean_rows(capsys):
    assert_quadrature_sweep_clean(capsys, "polarization", PolarizationOutcomeBudget)


def test_sweep_takes_plain_float_q(capsys):
    q = squeezing_db_to_q(3.0)
    code, out = run_cli(capsys, "loss-gain", "--q-range", f"{q!r}:{q!r}:1", "--format", "json")
    assert code == 0
    assert OutputTable.from_json(out).rows.tolist() == [[q, *loss_gain_split(q)]]


# each table subcommand with arguments small enough to run in a blink
TABLE_COMMANDS = {
    "beta-density": ["--range", "0:1:1"],
    "photon-stats": ["--max-n", "2", "--cutoff", "4"],
    "loss-gain": ["--q-range", "0:0.5:0.5"],
    "conditional": ["--radial-range", "0:1:1"],
    "polarization": ["--q-range", "0:0.5:0.5"],
    "sample": ["--shots", "4"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
def test_every_table_opens_with_version_and_command(capsys, command, fmt):
    code, out = run_cli(capsys, command, *TABLE_COMMANDS[command], "--format", fmt)
    assert code == 0
    metadata = OutputTable.parse(out, fmt).metadata
    assert metadata["command"] == command
    assert metadata["version"] == cvteleport.__version__
    assert "quantity" not in metadata
    if fmt == "json":
        assert list(metadata)[:2] == ["version", "command"]


def test_sample_table_peak_stays_near_its_rows_array():
    # The rows are 100,000 x 5 float64, 4 MB. Measured on CPython 3.11 with
    # numpy 2.4, the peak is 4.25 times that; keeping the caller's array
    # alive while the text is built lifts it to 5.16.
    argv = ["sample", "--q", "0.5", "--shots", "100000", "--seed", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # warm: imports and caches stay outside the peak
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.7 * 100_000 * 5 * 8


def test_conditional_columns_sum(capsys):
    code, out = run_cli(capsys, "conditional", "--radial-range", "0:3:0.25")
    assert code == 0
    table = OutputTable.from_csv(out)
    assert table.columns == ["beta_abs", "total", "p_one", "p_zero", "p_ge2"]
    arr = np.array(table.rows)
    assert np.max(np.abs(arr[:, 2:].sum(axis=1) - arr[:, 1])) < 1e-12
    # at beta = 0 only the single-photon term survives
    assert arr[0, 3] == 0.0 and arr[0, 4] == 0.0 and arr[0, 2] > 0.0


def test_conditional_evaluates_the_density_once_per_row(capsys):
    # both radii lie past the underflow radius; the table evaluates the
    # density once for all its rows, so it warns once
    with pytest.warns(TruncationWarning) as record:
        code, out = run_cli(capsys, "conditional", "--q", "0.5", "--radial-range", "40:41:1")
    assert code == 0
    assert OutputTable.from_csv(out).rows[:, 1].tolist() == [0.0, 0.0]
    assert len(record) == 1
    assert "at 2 of 2 points" in str(record[0].message)


def test_conditional_table_has_no_subnormal_cells(capsys):
    # p0 and p1 carry e^{-2(1-q)|beta|^2}, which passes the 1e-300 rule from
    # |beta| = 26.28 at q = 0.5, before the total does from 30.35: they are
    # exact zeros there, with a warning that counts them, not subnormals
    # such as 9.2e-322 at |beta| = 27.26
    with pytest.warns(TruncationWarning) as record:
        code, out = run_cli(capsys, "conditional", "--q", "0.5", "--radial-range", "0:60:0.02")
    assert code == 0 and len(record) == 2
    assert "levels 0 and 1 underflows at 203 of 3001 points" in str(record[1].message)
    rows = OutputTable.from_csv(out).rows
    cells = rows[:, 1:]
    assert not np.any((cells != 0.0) & (np.abs(cells) < np.finfo(float).tiny))
    total, parts = rows[:, 1], rows[:, 2:]
    live = total > 0.0
    assert np.allclose(parts[live].sum(axis=1), total[live], rtol=1e-12, atol=0.0)


def test_density_tables_equal_the_public_functions_bit_for_bit(capsys):
    # each table evaluates its whole grid in one call, and every row is the
    # public function at that point
    code, out = run_cli(capsys, "beta-density", "--range=-6:6:0.05")
    rows = OutputTable.from_csv(out).rows
    assert code == 0 and rows.shape == (241 * 241, 3)
    expected = [single_photon_beta_density(0.5, complex(x, y)) for x, y in rows[:, :2]]
    assert rows[:, 2].tolist() == expected
    # the radii cross the underflow radius, 30.35 at q = 0.5
    with pytest.warns(TruncationWarning):
        code, out = run_cli(capsys, "conditional", "--radial-range", "0:60:0.02")
    rows = OutputTable.from_csv(out).rows
    assert code == 0 and rows.shape == (3001, 5) and rows[-1, 1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        expected = [
            [single_photon_beta_density(0.5, r), p1, p0, p_ge2]
            for r in rows[:, 0]
            for p0, p1, p_ge2 in [conditional_beta_density(0.5, r)]
        ]
    assert rows[:, 1:].tolist() == expected


def test_densities_past_the_squarable_radius_exit_zero(capsys):
    with pytest.warns(TruncationWarning):
        code, out = run_cli(capsys, "conditional", "--radial-range", "0:2e80:1e80")
    assert code == 0
    assert OutputTable.from_csv(out).rows[1:, 1:].tolist() == [[0.0] * 4] * 2
    with pytest.warns(TruncationWarning):
        code, out = run_cli(capsys, "beta-density", "--range=-1e160:1e160:1e160")
    assert code == 0
    rows = OutputTable.from_csv(out).rows
    assert not np.any(rows[np.hypot(rows[:, 0], rows[:, 1]) > 0.0, 2])


def test_range_may_start_with_a_minus_as_a_separate_word(capsys):
    code, spaced = run_cli(capsys, "beta-density", "--range", "-1:1:0.5")
    assert code == 0
    _, joined = run_cli(capsys, "beta-density", "--range=-1:1:0.5")
    assert spaced == joined
    assert OutputTable.from_csv(spaced).metadata["range"] == "-1:1:0.5"


@pytest.mark.parametrize(
    "command, metavar",
    [
        ("beta-density", "RANGE"),
        ("loss-gain", "Q_RANGE"),
        ("conditional", "RADIAL_RANGE"),
        ("polarization", "Q_RANGE"),
    ],
)
def test_help_names_range_values_by_their_option(capsys, command, metavar):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "_TEXT" not in out
    assert f"-{metavar.lower().replace('_', '-')} {metavar}" in out


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    readme = Path(cvteleport.__file__).resolve().parents[2] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cvteleport ")]
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


def test_polarization_sweep(capsys):
    code, out = run_cli(capsys, "polarization", "--q-range", "0:0.9:0.1", "--format", "json")
    assert code == 0
    table = OutputTable.from_json(out)
    assert table.columns == ["q", "p_trans", "p_flip", "p_zero", "p_multi"]
    assert table.columns == ["q", *PolarizationOutcomeBudget._fields]
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


def test_run_checks_refuses_an_unknown_level():
    with pytest.raises(ValueError):
        run_checks("nope")


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
        ["conditional", "--radial-range=-1:0:0.5"],
        ["loss-gain", "--q-range", "0:1.2:0.1"],
        ["nonsense"],
        ["photon-stats", "--q", "0.995"],
        ["photon-stats", "--max-n", "-1"],
        ["sample", "--seed", "-1"],
        ["loss-gain", "--q-range", "nan:0.5:0.1"],
        ["loss-gain", "--q-range", "0:0.5:1e-300"],
        ["beta-density", "--range", "0:inf:1"],
        ["sample", "--shots", "4294967297"],
        ["conditional", "--q", "half"],
        ["sample", "--q", "nan"],
        ["photon-stats", "--cutoff", "0"],
        ["sample", "--cutoff", "0"],
        ["loss-gain", "--q-range", "a:1:0.5"],
        ["beta-density", "--range", "2:1:0.5"],
        ["sample", "--seed", "x"],
        ["sample", "--cutoff", "x"],
        ["photon-stats", "--cutoff", "-1"],
        ["photon-stats", "--max-n", "40"],
        ["conditional", "--radial-range", "-1:0:0.5"],
        # options must be spelled in full
        ["conditional", "--radial", "0:1:1"],
        ["beta-density", "--ran", "-1:1:1"],
        ["beta-density", "--ran=-1:1:1"],
        ["--vers"],
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


def test_max_n_above_cutoff_shows_the_photon_stats_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["photon-stats", "--max-n", "40"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cvteleport photon-stats")
    assert "cvteleport photon-stats: error: --max-n 40 above cutoff 32" in err


def test_unwritable_output_exits_two(capsys):
    code = main(["loss-gain", "--q-range", "0:0.1:0.1", "--out", "/nonexistent/x.csv"])
    assert code == 2


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


def test_sample_finishes_near_ideal_entanglement():
    # outcomes reach past |beta|^2 = 8192, where the float spacing exceeds the
    # bisection tolerance; the radial-CDF inversion must still terminate
    src = Path(cvteleport.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "cvteleport", "sample", "--shots", "3", "--q", "0.999999"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(OutputTable.from_csv(proc.stdout).rows) == 3


def test_package_runs_without_scipy():
    # numpy is the only run-time dependency; scipy serves the tests alone
    src = Path(cvteleport.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = (
        "import sys\n"
        "from cvteleport import SamplerConfig, coherent_state, run_shots\n"
        "from cvteleport.cli import main\n"
        "assert main(['polarization']) == 0\n"
        "run_shots(SamplerConfig(master_seed=0, shots=20, q=0.5,"
        " input_state=coherent_state(0.5, 24)))\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
