"""Apply a fixed list of one-line mutants to the package and see which tier-1 kills.

Each mutant replaces one exact piece of text in one file of ``src/cvteleport``.
The probe copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to
a temporary directory, runs the tier-1 suite there once unchanged (it must
pass), and then once per mutant on a fresh copy, with ``tests/test_golden.py``
ignored, so that only physics and property tests count, not recorded digests,
and ``tests/test_mutation_probe.py`` too, as it fails on any mutated text.
It prints one line per mutant:

- ``killed``: some test failed, and the line counts them and names the first three;
- ``survived``: every test passed, so nothing outside the goldens sees it;
- ``equivalent``: the mutant leaves the sampled law or the value unchanged,
  for the reason printed; tier-1 may still fail on it (seed-pinned tests
  see the changed draws), and the line says which tests did.

The exit status is 1 when a mutant that is not equivalent survives, or when
a mutant's text no longer appears exactly once in its file; tier-1 checks
the latter up front (``tests/test_mutation_probe.py``). The probe itself is
not part of tier-1 or CI: it runs the whole suite once per mutant, about
ten minutes on two cores. Named mutants run alone, after the same unmutated
run; an unknown name exits 2 and lists the valid ones.

    python tests/mutation_probe.py
    python tests/mutation_probe.py envelope-margin uniform-before-normals
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/cvteleport
    old: str
    new: str
    equivalent: str | None = None  # why the law is unchanged, for an equivalent mutant


MUTANTS = (
    Mutant(
        "loss-weight",
        "statistics.py",
        "    yield power * s\n",
        "    yield 1.1 * power * s\n",
    ),
    Mutant(
        "single-photon-tail",
        "statistics.py",
        "below = at + np.exp((n_max - 1) * log_s",
        "below = above + np.exp((n_max - 1) * log_s",
    ),
    Mutant(
        "radial-cdf",
        "sampler.py",
        "np.multiply(a * a, mid, out=b)",
        "np.multiply(a, mid, out=b)",
    ),
    Mutant(
        "half-plane-angle",
        "sampler.py",
        "theta = 2.0 * math.pi * u[:, 1]",
        "theta = math.pi * u[:, 1]",
    ),
    Mutant(
        "proposal-width",
        "sampler.py",
        "sigma = math.sqrt(1.0 / (2.0 * _envelope_rate(q)))",
        "sigma = math.sqrt(0.8 / (2.0 * _envelope_rate(q)))",
    ),
    Mutant(
        "counts-shifted",
        "sampler.py",
        "counts[start:stop] = _draw_counts(lambda: weights.T, tails, u)",
        "counts[start:stop] = _draw_counts(lambda: weights.T, tails, u) + 1",
    ),
    Mutant(
        "transfer-level-1",
        "teleport.py",
        "out *= q ** np.arange(dim)",
        "out *= q ** np.arange(dim) * np.where(np.arange(dim) == 1, 1.05, 1.0)",
    ),
    Mutant(
        "density-weights",
        "teleport.py",
        "weights = q ** (2.0 * np.arange(dim))",
        "weights = q ** np.arange(dim)",
    ),
    Mutant(
        "missing-mass-zero",
        "teleport.py",
        "missing[missing <= floor] = 0.0",
        "missing[:] = 0.0",
    ),
    Mutant(
        "raise-step",
        "teleport.py",
        "        raised[d:] += term[:rows]\n",
        "        raised[d:] += term[:rows] * (1.0 + 1e-3 * (d == 2))\n",
    ),
    Mutant(
        "output-warning-compare",
        "teleport.py",
        "if missing > TAIL_MASS_THRESHOLD * density[0]:",
        "if missing >= TAIL_MASS_THRESHOLD * density[0]:",
    ),
    Mutant(
        "acceptance-factor",
        "sampler.py",
        "accept = uniforms * caps <= targets",
        "accept = uniforms * caps <= 0.9 * targets",
        equivalent="accepting with 0.9 of the ratio scales every candidate alike, "
        "so the accepted law is unchanged and only the draws differ",
    ),
    Mutant(
        "safety-factor",
        "sampler.py",
        "_ENVELOPE_SAFETY = 1.5",
        "_ENVELOPE_SAFETY = 1.0001",
        equivalent="where the cap stays above the exact density the accepted law is "
        "unchanged and only the draws differ; where it does not, the candidate raises "
        "EnvelopeError, a refusal, not a wrong law",
    ),
    Mutant(
        "envelope-rate",
        "sampler.py",
        "return 0.5 * (1.0 - q * q)",
        "return 0.49 * (1.0 - q * q)",
    ),
    Mutant(
        "mean-photon-change",
        "statistics.py",
        "denominator = (1.0 + q) ** 2 * s + q * q",
        "denominator = (1.0 + q) ** 2 * s + q",
    ),
    Mutant(
        "laguerre-lag",
        "fock.py",
        "lag=(j + k).astype(float)[:, None]",
        "lag=(j + k + 1).astype(float)[:, None]",
    ),
    Mutant(
        "envelope-prune",
        "sampler.py",
        "log_cols += 2.0 * scale - 0.5 * r0 * r0",
        "log_cols += 2.0 * scale - 0.5 * r1 * r1",
    ),
    Mutant(
        "uniform-before-normals",
        "sampler.py",
        "            rng.standard_normal(out=normals[row])\n"
        "            uniforms[row] = rng.random()\n",
        "            uniforms[row] = rng.random()\n"
        "            rng.standard_normal(out=normals[row])\n",
    ),
    Mutant(
        "laguerre-rule",
        "statistics.py",
        "nodes, weights = np.polynomial.laguerre.laggauss(dim)",
        "nodes, weights = np.polynomial.laguerre.laggauss(dim - 1)",
    ),
    Mutant(
        "envelope-margin",
        "sampler.py",
        "_ENVELOPE_MARGIN = 2.0",
        "_ENVELOPE_MARGIN = 0.5",
    ),
    Mutant(
        "polarization-columns",
        "polarization.py",
        "(v0, h0), (v1, h1) = _photon_transfer_matrix",
        "(h0, v0), (h1, v1) = _photon_transfer_matrix",
    ),
    Mutant(
        "transfer-closed-form",
        "statistics.py",
        "(2 * k + 1) * log_eta",
        "(2 * k + 2) * log_eta",
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _run_tier1(tree: Path) -> tuple[bool, str]:
    """Tier-1 without the goldens: (passed, how many tests failed and which)."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    argv += ["--ignore=tests/test_golden.py", "--ignore=tests/test_mutation_probe.py"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH="src")
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return True, ""
    failures = list(dict.fromkeys(re.findall(r"^(?:FAILED|ERROR) \S+::(\w+)", proc.stdout, re.M)))
    if failures:
        more = ", ..." if len(failures) > 3 else ""
        return False, f"{len(failures)} failing: {', '.join(failures[:3])}{more}"
    tail = proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines() or ["?"]
    return False, f"exit {proc.returncode}: {tail[-1]}"


def _probe(mutant: Mutant, scratch: Path) -> tuple[str, str]:
    tree = scratch / mutant.name
    _copy_tree(tree)
    path = tree / "src" / "cvteleport" / mutant.module
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale", f"its text appears {text.count(mutant.old)} times in {mutant.module}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    passed, failure = _run_tier1(tree)
    shutil.rmtree(tree)
    if mutant.equivalent:
        seen = "tier-1 passes" if passed else failure
        return "equivalent", f"{mutant.equivalent} ({seen})"
    return ("survived", "every tier-1 test passes") if passed else ("killed", failure)


def main(names: list[str]) -> int:
    valid = [mutant.name for mutant in MUTANTS]
    unknown = [name for name in names if name not in valid]
    if unknown:
        print(f"unknown mutant {', '.join(unknown)}; valid: {', '.join(valid)}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    with tempfile.TemporaryDirectory(prefix="cvteleport-mutants-") as tmp:
        scratch = Path(tmp)
        _copy_tree(scratch / "baseline")
        passed, failure = _run_tier1(scratch / "baseline")
        if not passed:
            print(f"unmutated tier-1 fails ({failure}); no mutant can be judged", file=sys.stderr)
            return 2
        bad = 0
        for mutant in chosen:
            start = time.perf_counter()
            status, detail = _probe(mutant, scratch)
            bad += status in ("survived", "stale")
            elapsed = time.perf_counter() - start
            print(f"{mutant.name:<24} {status:<10} {elapsed:5.1f} s  {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
