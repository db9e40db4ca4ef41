"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import os
import signal
import time
from pathlib import Path

# Pinned before numpy is first imported, as bench/run.py pins it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

workloads = run._import_package()

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))

# Root spans enclose the whole operation; outside them only the wrapper
# installation and the stdout capture run, which must stay this small.
UNSPANNED_SHARE = 0.05


def tiny(name: str):
    if name == "sample-photon":
        return workloads.SamplePhoton(seed=3, shots=2000)
    if name == "sample-generic":
        return workloads.SampleGeneric(seed=3, shots=20)
    return workloads.SweepPolarization(seed=0, q_range="0:0.98:0.49")


def _patched_attributes() -> dict:
    return {
        (spec, attr): vars(spans.resolve_owner(spec)).get(attr)
        for spec, attr, _, _ in spans.PATCH_POINTS
    }


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def measured(request):
    """A tiny closed-loop run: one warm-up, one untraced and one traced operation."""
    workload = tiny(request.param)
    probe = functools.partial(run.probe_setup, request.param, 0)
    return workload, run.measure(workload, seconds=0.0, trace=True, probe=probe)


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def traced(request):
    """One untraced and one traced operation, timed as ``run.run_operation`` times them."""
    workload = tiny(request.param)
    plain = workload.run()
    before = _patched_attributes()
    tracer = spans.Tracer()
    start = time.perf_counter()
    with tracer.installed():
        output = workload.run()
    elapsed = time.perf_counter() - start
    return {
        "workload": workload,
        "plain": plain,
        "output": output,
        "before": before,
        "after": _patched_attributes(),
        "tracer": tracer,
        "elapsed": elapsed,
    }


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_every_metric_is_emitted(measured):
    workload, result = measured
    assert result["attempted"] == 3 * workload.checks_per_op
    assert result["unexpected"] == 0
    end_to_end = run.metrics_for(workload, result, trace=False)
    per_layer = run.metrics_for(workload, result, trace=True)
    for specs, metrics in (
        (BENCHMARK["end_to_end"], end_to_end),
        (BENCHMARK["per_layer"], per_layer),
    ):
        assert [spec["name"] for spec in specs] == list(metrics)
        assert [spec["unit"] for spec in specs] == [m["unit"] for m in metrics.values()]
    assert all(m["value"] > 0 for m in end_to_end.values())


def test_traced_output_is_bit_identical(traced):
    workload = traced["workload"]
    assert workload.digest(traced["output"]) == workload.digest(traced["plain"])


def test_wrapped_attributes_are_restored(traced):
    before = traced["before"]
    with spans.Tracer().installed():
        during = _patched_attributes()
    assert all(during[key] is not value for key, value in before.items() if value is not None)
    assert all(traced["after"][key] is value for key, value in before.items())


def test_self_times_add_up_to_the_operation(traced):
    covered = sum(traced["tracer"].self_s.values())
    assert traced["elapsed"] * (1.0 - UNSPANNED_SHARE) <= covered <= traced["elapsed"]


def test_speed_meter_accounts_for_the_wall_time_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with speed.SpeedMeter(speed.mixed_slice, speed.MIXED_SLICE_S) as meter:
        while time.perf_counter() - start < 0.2:
            speed.interpreter_slice()
    wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert meter.overhead_s > 0.0 and meter.scaled_s > 0.0
    assert 0.95 * wall <= meter.own_s + meter.overhead_s <= wall


def test_checks_reject_altered_output():
    sweep = tiny("sweep-polarization")
    payload = json.loads(sweep.run())
    assert sweep.check(json.dumps(payload)) == workloads.Verdict(3, 1, 0)
    payload["rows"][1][payload["columns"].index("p_trans_quad")] += 1e-5
    assert sweep.check(json.dumps(payload)) == workloads.Verdict(3, 2, 1)

    photon = tiny("sample-photon")
    text = photon.run()
    assert photon.check(text).failed == 0
    assert photon.check(text.replace(",1\r\n", ",0\r\n", 1)).failed == 1
