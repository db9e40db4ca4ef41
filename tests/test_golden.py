"""Golden fixture: operator matrices, sampler records, envelope bounds and CLI tables, bit for bit.

``golden_records.json`` holds sha256 digests of ``displacement_matrix`` and
``transfer_operator`` matrices, of ``run_shots`` records and of the table
bytes some CLI invocations write, and the exact ``float.hex`` of
``_envelope_bound``, for fixed inputs. Any change to the displacement kernel,
the transfer operator, the sampler or the table serialization that moves a
single bit fails here. Matrix digests ignore the sign of zero entries. Table
digests skip the metadata, which carries the package version. Re-record
only on purpose, after checking the new values are right:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from cvteleport.cli import main
from cvteleport.fock import StateVector, coherent_state, displacement_matrix
from cvteleport.sampler import SamplerConfig, _as_unit, _envelope_bound, run_shots
from cvteleport.teleport import transfer_operator

GOLDEN_PATH = Path(__file__).with_name("golden_records.json")
Q_GENERIC = 0.5


def _coherent_05() -> StateVector:
    return coherent_state(0.5, 32).unit()


def _superposition_02() -> StateVector:
    amps = np.zeros(17, dtype=complex)
    amps[[0, 2]] = 1.0 / np.sqrt(2.0)
    return StateVector(amps, 16)


# name -> (generic input or None for the single-photon input, q, cutoff, seed, shots)
RUNS = {
    **{
        f"photon-q{q}-cutoff{cutoff}-seed{seed}": (None, q, cutoff, seed, 2000)
        for q, cutoff in ((0.5, 32), (0.9, 8))
        for seed in range(3)
    },
    **{
        f"coherent0.5-cutoff32-seed{seed}": (_coherent_05, 0.5, 32, seed, 200) for seed in range(2)
    },
    "superposition02-cutoff16-seed0": (_superposition_02, 0.5, 16, 0, 200),
}

# name -> generic input whose envelope bound at q = Q_GENERIC is pinned
BOUNDS = {
    "coherent0.5-cutoff32": _coherent_05,
    "superposition02-cutoff16": _superposition_02,
}

# name -> arguments of a CLI table whose body is pinned; the cutoff is the
# default, spelled out so a change of the default cannot move it
CLI_TABLES = {
    "sample-shots2000-seed0-csv": "sample --shots 2000 --seed 0 --cutoff 32",
    "beta-density-range-1:1:0.5-csv": "beta-density --range=-1:1:0.5",
    "loss-gain-quadrature-q0:0.7:0.1-json": (
        "loss-gain --with-quadrature --q-range 0:0.7:0.1 --cutoff 32 --format json"
    ),
}


# complex amplitudes for the operator digests: zero, tiny, both signs, |alpha| = 7
ALPHAS = (0j, 1e-8j, 0.3 - 0.2j, -1.2 + 0.7j, 2.5 + 3.5j, 7.0, -7j)
OPERATOR_CUTOFFS = (8, 32, 48)


def _matrices_digest(matrices) -> str:
    # adding 0.0 turns -0.0 into 0.0, so only values are pinned
    data = b"".join((np.asarray(mat) + 0.0).tobytes() for mat in matrices)
    return hashlib.sha256(data).hexdigest()


def operator_digests() -> dict:
    return {
        "displacement_matrix": {
            str(n_max): _matrices_digest(displacement_matrix(a, n_max) for a in ALPHAS)
            for n_max in OPERATOR_CUTOFFS
        },
        "transfer_operator": {
            str(n_max): _matrices_digest(
                transfer_operator(q, b, n_max) for q in (0.0, 0.3, 0.9) for b in ALPHAS
            )
            for n_max in OPERATOR_CUTOFFS
        },
    }


def records_digest(name: str) -> str:
    make_input, q, cutoff, seed, shots = RUNS[name]
    config = SamplerConfig(
        master_seed=seed,
        shots=shots,
        q=q,
        cutoff=cutoff,
        input_state=None if make_input is None else make_input(),
    )
    result = run_shots(config)
    lines = [
        f"{rec.shot_index} {rec.master_seed} {rec.beta.real.hex()} {rec.beta.imag.hex()} "
        f"{rec.photon_count} {rec.category}\n"
        for rec in result.records
    ]
    return hashlib.sha256("".join(lines).encode("ascii")).hexdigest()


def envelope_bound_hex(name: str) -> str:
    return _envelope_bound(_as_unit(BOUNDS[name]()), Q_GENERIC).hex()


def cli_table_digest(name: str) -> str:
    argv = CLI_TABLES[name].split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    text = out.getvalue()
    if "json" in argv:
        # the top-level "rows" key, indented one level, follows metadata and columns
        body = text[text.rindex('\n  "rows": ') :]
    else:
        body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("kind", ["displacement_matrix", "transfer_operator"])
def test_operator_matrices_match_golden(kind):
    assert operator_digests()[kind] == _golden()[kind]


@pytest.mark.filterwarnings("ignore::cvteleport.errors.TruncationWarning")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_shots_records_match_golden(name):
    assert records_digest(name) == _golden()["records"][name]


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_envelope_bound_matches_golden(name):
    assert envelope_bound_hex(name) == _golden()["envelope_bound"][name]


@pytest.mark.parametrize("name", sorted(CLI_TABLES))
def test_cli_table_bytes_match_golden(name):
    assert cli_table_digest(name) == _golden()["cli_tables"][name]


if __name__ == "__main__":
    golden = {
        **operator_digests(),
        "records": {name: records_digest(name) for name in sorted(RUNS)},
        "envelope_bound": {name: envelope_bound_hex(name) for name in sorted(BOUNDS)},
        "cli_tables": {name: cli_table_digest(name) for name in sorted(CLI_TABLES)},
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
