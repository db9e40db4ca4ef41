"""Per-layer spans recorded from outside the package.

A traced operation runs with wrappers installed over cvteleport's public
functions, in the module namespace where each caller looks the name up, so
``fock.displacement_matrix`` is counted separately for the statistics, the
sampler and the teleport modules. Nothing in the package is edited; every
attribute is put back when the operation ends. A span's self time is its
duration minus the durations of the spans it encloses.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _matrix_elements(result) -> tuple[str, int]:
    return "fock.displacement_matrix.elements", result.matrix.size


def _table_bytes(result) -> tuple[str, int]:
    # json.dumps escapes to ASCII and the CSV holds numbers, so characters are bytes
    return "tables.bytes_out", len(result)


def _overflow(result) -> tuple[str, int]:
    return "sampler.overflow_shots", result.overflow


# (owner, attribute, span name, counter taken from the result). The owner is
# the namespace the caller resolves the name in: transfer_operator is patched
# in teleport because teleport_output calls it there, teleport_output and
# beta_density in sampler because the rejection sampler calls them there.
PATCH_POINTS = (
    ("cvteleport.cli", "main", "cli.main", None),
    ("cvteleport.cli", "run_shots", "sampler.run_shots", _overflow),
    ("cvteleport.sampler", "run_shots", "sampler.run_shots", _overflow),
    ("cvteleport.sampler", "sample_photon_count", "sampler.sample_photon_count", None),
    ("cvteleport.sampler", "beta_density", "teleport.beta_density", None),
    ("cvteleport.sampler", "teleport_output", "teleport.teleport_output", None),
    ("cvteleport.teleport", "transfer_operator", "teleport.transfer_operator", None),
    ("cvteleport.polarization", "transfer_operator", "teleport.transfer_operator", None),
    (
        "cvteleport.statistics",
        "displacement_matrix",
        "fock.displacement_matrix.by_statistics",
        _matrix_elements,
    ),
    (
        "cvteleport.sampler",
        "displacement_matrix",
        "fock.displacement_matrix.by_sampler",
        _matrix_elements,
    ),
    (
        "cvteleport.teleport",
        "displacement_matrix",
        "fock.displacement_matrix.by_teleport",
        _matrix_elements,
    ),
    (
        "cvteleport.statistics",
        "photon_statistics_quadrature",
        "statistics.photon_statistics_quadrature",
        None,
    ),
    (
        "cvteleport.polarization",
        "photon_statistics_quadrature",
        "statistics.photon_statistics_quadrature",
        None,
    ),
    (
        "cvteleport.polarization",
        "polarization_budget_numerical",
        "polarization.polarization_budget_numerical",
        None,
    ),
    ("cvteleport.tables:OutputTable", "to_csv", "tables.to_csv", _table_bytes),
    ("cvteleport.tables:OutputTable", "to_json", "tables.to_json", _table_bytes),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in PATCH_POINTS))
COUNTER_NAMES = (
    "fock.displacement_matrix.elements",
    "tables.bytes_out",
    "sampler.overflow_shots",
)


def resolve_owner(spec: str):
    """The module, or ``module:Class``, that holds a patched attribute."""
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Call counts, self times and counters for one traced operation."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._child_time: list[float] = []

    def _wrap(self, fn, span: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._child_time.pop()
                self.calls[span] += 1
                self.self_s[span] += duration - children
                if self._child_time:
                    self._child_time[-1] += duration
            if counter is not None:
                name, amount = counter(result)
                self.counters[name] += amount
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper whose attribute exists; restore them all on exit."""
        saved = []
        try:
            for spec, attr, span, counter in PATCH_POINTS:
                owner = resolve_owner(spec)
                original = vars(owner).get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
