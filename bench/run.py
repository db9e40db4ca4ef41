"""Benchmark of cvteleport: one process, one client, closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sample-photon --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload in turn

Each operation starts when the previous one has ended and been checked.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the run alternates untraced and traced operations and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
with provenance goes to ``bench/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("sample-photon", "sweep-polarization", "sample-generic")
SETUP_PROBES = 7


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _import_package():
    """Import cvteleport from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cvteleport" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvteleport sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvteleport

    if not Path(cvteleport.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cvteleport imported from {cvteleport.__file__}, not {SRC}")
    import workloads

    return workloads


def probe_setup(workload: str, seed: int) -> float:
    """Time from spawning a fresh process until it has built the workload's inputs.

    The fresh process meters its own speed with ``speed.interpreter_slice`` and
    reports the factor and the time its slices took; the time returned is
    the wall time less those slices, scaled to the reference speed.
    """
    argv = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    word, *values = line.split()
    if word != "ready" or len(values) != 2 or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed")
    factor, overhead = (float(value) for value in values)
    return (elapsed - overhead) * factor


def run_operation(workload, tracer=None):
    """Run and check one operation; return (seconds, scaled seconds, verdict).

    An untraced operation runs under a ``speed.SpeedMeter``; its seconds
    exclude the meter's slices. A traced one runs without it, so that no
    slice lands in a span's self time, and its scaled seconds are None.
    """
    from workloads import Verdict

    gc.collect()
    meter = speed.SpeedMeter(speed.mixed_slice, speed.MIXED_SLICE_S) if tracer is None else None
    verdict = None
    start = time.perf_counter()
    try:
        with meter or tracer.installed():
            output = workload.run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        n = workload.checks_per_op
        verdict = Verdict(n, n, n)
    elapsed = time.perf_counter() - start
    if verdict is None:
        verdict = workload.check(output)
    if meter is None:
        return elapsed, None, verdict
    return meter.own_s, meter.scaled_s, verdict


def layer_values(tracer) -> dict:
    import spans

    values = {}
    for name in spans.SPAN_NAMES:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.self_s[name]
    for name in spans.COUNTER_NAMES:
        values[name] = tracer.counters[name]
    drawn = tracer.calls["teleport.beta_density"]
    accepted = tracer.calls["teleport.teleport_output"]
    values["sampler.acceptance_ratio"] = accepted / drawn if drawn else 0.0
    return values


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name == "tables.bytes_out":
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(workload, seconds: float, trace: bool, probe=None) -> dict:
    """Warm up once, then run operations in a closed loop for ``seconds``.

    Each untraced operation's time is kept both as measured and scaled to
    the reference speed of ``speed.SpeedMeter``.

    ``probe``, when given, measures set-up before each of the first
    ``SETUP_PROBES`` operations; its time is not counted against
    ``seconds``.
    """
    import spans

    _, _, warm = run_operation(workload)
    verdicts = [warm]
    untraced, scaled, traced, layers, setup = [], [], [], [], []
    probing = 0.0
    start = time.perf_counter()
    while True:
        if probe is not None and len(setup) < SETUP_PROBES:
            probe_start = time.perf_counter()
            setup.append(probe())
            probing += time.perf_counter() - probe_start
        tracer = spans.Tracer() if trace and len(untraced) > len(traced) else None
        elapsed, scaled_s, verdict = run_operation(workload, tracer)
        verdicts.append(verdict)
        if tracer is None:
            untraced.append(elapsed)
            scaled.append(scaled_s)
        else:
            traced.append(elapsed)
            layers.append(layer_values(tracer))
        done = len(verdicts) - 1
        spent = time.perf_counter() - start - probing
        if spent * (done + 1) / done > seconds and (traced or not trace):
            break
    return {
        "untraced_s": untraced,
        "scaled_s": scaled,
        "traced_s": traced,
        "setup_s": setup,
        "layers": layers,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "unexpected": sum(v.unexpected for v in verdicts),
    }


def metrics_for(workload, run: dict, trace: bool) -> dict:
    if trace:
        layers = run["layers"]
        metrics = {
            name: _metric(statistics.median(op[name] for op in layers), layer_unit(name))
            for name in layers[0]
        }
        overhead = statistics.median(run["traced_s"]) / statistics.median(run["untraced_s"])
        metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
        return metrics
    times = run["scaled_s"]
    return {
        "op_s": _metric(statistics.median(times), "s"),
        "items_per_s": _metric(workload.items_per_op * len(times) / sum(times), "1/s"),
        "setup_s": _metric(statistics.median(run["setup_s"]), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "cvteleport").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def report(workload, run: dict, metrics: dict) -> None:
    """Human-readable lines, one per metric, ahead of the JSON line."""
    for name, metric in metrics.items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    if "op_s" in metrics:
        times = sorted(run["scaled_s"])
        print(f"{workload.name} op_s is the median of {len(times)} operations")
        if len(times) > 20:
            # the highest percentile with ten samples beyond it
            k = len(times) - 11
            print(f"{workload.name} op_s p{100 * (k + 1) / len(times):.0f} {times[k]:.6g} s")
        print(
            f"{workload.name} op_s and items_per_s are scaled to the reference speed; "
            f"unscaled median {statistics.median(run['untraced_s']):.6g} s"
        )
        print(f"{workload.name} items_per_s counts {workload.item} per second")
    print(
        f"{workload.name} fail_ratio {run['failed'] / run['attempted']:.6g} "
        f"({run['failed']}/{run['attempted']} {workload.checks_unit}; "
        f"{run['unexpected']} outside the known truncation defect)"
    )


def run_one(args) -> int:
    workloads = _import_package()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    probe = None if args.trace else functools.partial(probe_setup, args.workload, args.seed)
    run = measure(workload, args.seconds, bool(args.trace), probe)
    metrics = metrics_for(workload, run, bool(args.trace))
    report(workload, run, metrics)
    result = {
        "correct": run["unexpected"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "run": run,
        **result,
    }
    print(f"{args.workload} provenance {json.dumps(record['provenance'])}")
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak memory."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        with speed.SpeedMeter(speed.interpreter_slice, speed.INTERPRETER_SLICE_S) as meter:
            workloads = _import_package()
            workloads.WORKLOADS[args.workload](args.seed)
        print(f"ready {meter.factor!r} {meter.overhead_s!r}", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    # Pinned before numpy is first imported, here and in every child process.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("CVTELEPORT_CUTOFF", None)
    sys.exit(main())
