"""The benchmark's three workloads: their inputs, one operation each, and its check.

Every workload drives the public API or the CLI entry point exactly as a
user would, looking each function up on its module at call time so that a
traced run sees the same calls. ``check`` never trusts a verdict the program
prints about itself: sampled records are compared against golden digests or,
on seeds without one, against the closed forms; quadrature columns are
recomputed against the closed-form budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cvteleport import cli, fock, polarization, sampler, statistics

Q = 0.5
CUTOFF = 32
PHOTON_SHOTS = 100_000
GENERIC_SHOTS = 500
GENERIC_ALPHA = 0.5
SWEEP_RANGE = "0:0.98:0.07"

# Rows at q >= 0.77 miss the closed form by more than SWEEP_TOLERANCE at the
# default cutoff: the quadrature grid displaces states past level 32. This is
# a known defect of the program; those rows are still counted as failed.
KNOWN_DEFECT_Q_MIN = 0.77
SWEEP_TOLERANCE = 1e-6

# The chi-square law with 2 degrees of freedom has survival e^{-x/2}, so this
# limit rejects a correct sampler with probability 1e-6.
CHI2_LIMIT_2DOF = 2.0 * math.log(1e6)

GOLDEN_PATH = Path(__file__).with_name("golden.json")

CATEGORIES = ("loss", "success", "gain")


@dataclass(frozen=True)
class Verdict:
    """Check of one operation.

    ``attempted`` and ``failed`` count invocations for the sampling
    workloads and q rows for the sweep; ``unexpected`` counts the failures
    that are not the known truncation defect.
    """

    attempted: int
    failed: int
    unexpected: int


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cvteleport {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _chi_square(counts: dict, probabilities: dict) -> float:
    total = sum(counts.values())
    return sum(
        (counts[name] - total * probabilities[name]) ** 2 / (total * probabilities[name])
        for name in CATEGORIES
    )


class _SamplingWorkload:
    """Shared check for the two sampling workloads.

    Subclasses provide ``run``, ``digest``, ``category_counts`` and
    ``reference_law``. With a golden digest for this seed and size every
    operation must match it. Otherwise the first operation's category
    frequencies must pass the chi-square limit against the reference law,
    and every later operation must reproduce the first one's digest.
    """

    item = "shots"
    checks_per_op = 1
    checks_unit = "operations"

    def __init__(self, seed: int, shots: int) -> None:
        self.seed = seed
        self.shots = shots
        self.items_per_op = shots
        digests = load_golden().get(self.name, {}).get(str(shots), {})
        self.golden: str | None = digests.get(str(seed))
        self.reference: str | None = None

    def check(self, output) -> Verdict:
        digest = self.digest(output)
        if self.golden is not None:
            ok = digest == self.golden
        elif self.reference is None:
            self.reference = digest
            ok = _chi_square(self.category_counts(output), self.reference_law()) <= CHI2_LIMIT_2DOF
        else:
            ok = digest == self.reference
        return Verdict(attempted=1, failed=int(not ok), unexpected=int(not ok))


class SamplePhoton(_SamplingWorkload):
    """``cvteleport sample --q 0.5 --shots 100000 --seed <s>`` written as CSV."""

    name = "sample-photon"

    def __init__(self, seed: int, shots: int = PHOTON_SHOTS) -> None:
        super().__init__(seed, shots)
        self.argv = ["sample", "--q", str(Q), "--shots", str(shots), "--seed", str(seed)]

    def run(self) -> str:
        return _run_cli(self.argv)

    @staticmethod
    def _body(text: str) -> str:
        # the '#' metadata lines carry the package version; the records are the body
        lines = text.splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        return "".join(lines[start:])

    def digest(self, output: str) -> str:
        return _sha256(self._body(output))

    def category_counts(self, output: str) -> dict:
        # the last column is the CLI's category code, 0, 1 or 2 as written by to_csv
        by_code = dict(zip(("0", "1", "2"), CATEGORIES))
        counts = dict.fromkeys(CATEGORIES, 0)
        for line in self._body(output).splitlines()[1:]:
            counts[by_code[line.rsplit(",", 1)[1]]] += 1
        return counts

    def reference_law(self) -> dict:
        split = statistics.loss_gain_split(Q)
        return {"loss": split.p_loss, "success": split.p_success, "gain": split.p_gain}


class SampleGeneric(_SamplingWorkload):
    """``run_shots`` on a coherent input: the rejection path of the sampler."""

    name = "sample-generic"

    def __init__(self, seed: int, shots: int = GENERIC_SHOTS) -> None:
        super().__init__(seed, shots)
        self.config = sampler.SamplerConfig(
            master_seed=seed,
            shots=shots,
            q=Q,
            input_state=fock.coherent_state(GENERIC_ALPHA, CUTOFF).unit(),
        )

    def run(self):
        return sampler.run_shots(self.config)

    def digest(self, output) -> str:
        lines = [
            f"{rec.shot_index},{rec.beta.real:.17g},{rec.beta.imag:.17g},"
            f"{rec.photon_count},{rec.category}\n"
            for rec in output.records
        ]
        return _sha256("".join(lines))

    def category_counts(self, output) -> dict:
        counts = dict.fromkeys(CATEGORIES, 0)
        for rec in output.records:
            counts[rec.category] += 1
        return counts

    def reference_law(self) -> dict:
        dist = statistics.photon_statistics_quadrature(self.config.input_state, Q)
        p0, p1 = (float(p) for p in dist.probabilities[:2])
        return {"loss": p0, "success": p1, "gain": 1.0 - p0 - p1}


class SweepPolarization:
    """``cvteleport polarization --with-quadrature --q-range 0:0.98:0.07 --format json``.

    The sweep takes no seed: its inputs are fixed.
    """

    name = "sweep-polarization"
    item = "rows"
    checks_unit = "q rows"

    def __init__(self, seed: int, q_range: str = SWEEP_RANGE) -> None:
        self.seed = seed
        start, end, step = (float(part) for part in q_range.split(":"))
        self.q_values = start + step * np.arange(int(math.floor((end - start) / step + 1e-9)) + 1)
        self.items_per_op = self.checks_per_op = len(self.q_values)
        self.argv = ["polarization", "--with-quadrature", "--q-range", q_range, "--format", "json"]

    def run(self) -> str:
        return _run_cli(self.argv)

    def digest(self, output: str) -> str:
        return _sha256(output)

    def _row_fails(self, q: float, row: dict) -> bool:
        closed = polarization.polarization_budget(q)
        for name in ("p_trans", "p_flip", "p_zero", "p_multi"):
            exact = getattr(closed, name)
            if not abs(row[name] - exact) <= 1e-12:
                return True
            if not abs(row[name + "_quad"] - exact) <= SWEEP_TOLERANCE:
                return True
        return False

    def check(self, output: str) -> Verdict:
        payload = json.loads(output)
        rows = [dict(zip(payload["columns"], row)) for row in payload["rows"]]
        failed = unexpected = 0
        for i, q in enumerate(self.q_values):
            matches = i < len(rows) and abs(rows[i]["q"] - q) <= 1e-12
            if matches and not self._row_fails(float(q), rows[i]):
                continue
            failed += 1
            unexpected += int(not (matches and q >= KNOWN_DEFECT_Q_MIN - 1e-9))
        extra = max(len(rows) - len(self.q_values), 0)
        return Verdict(
            attempted=len(self.q_values),
            failed=failed,
            unexpected=unexpected + extra,
        )


WORKLOADS = {cls.name: cls for cls in (SamplePhoton, SweepPolarization, SampleGeneric)}
