"""Outside-in span tracing of the groundstate modules.

``traced(tracer)`` replaces each function in TARGETS, for the duration of
a ``with`` block, by a wrapper that records one span per call: run id,
span id, parent span id, name, start and end (perf_counter_ns).  Names
bound by ``from ... import`` are patched where they are called from, so
e.g. ``estimate_c0_delta0`` is patched on ``experiment_cli``, not on
``groundstate_space``.  Spans are kept in memory; ``dump`` writes them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT_SPAN = "experiment_cli.main"

#: (owner, attribute, span name); owner is a module path or module:Class
TARGETS = (
    ("groundstate.experiment_cli", "make_grid", "radial_grid.make_grid"),
    ("groundstate.experiment_cli", "summarize_spectrum", "spectral.summarize_spectrum"),
    ("groundstate.spectral", "principal_eigenpair", "spectral.principal_eigenpair"),
    ("groundstate.spectral", "second_eigenvalue", "spectral.second_eigenvalue"),
    ("groundstate.spectral:DiscreteOperator", "solve_shifted", "spectral.solve_shifted"),
    ("groundstate.spectral:DiscreteOperator", "matvec", "spectral.matvec"),
    ("groundstate.experiment_cli", "estimate_c0_delta0", "groundstate_space.estimate_c0_delta0"),
    (
        "groundstate.groundstate_space",
        "projected_resolvent_norm",
        "groundstate_space.projected_resolvent_norm",
    ),
    ("groundstate.experiment_cli", "certify_theorem1", "linear_solver.certify_theorem1"),
    (
        "groundstate.experiment_cli",
        "two_start_diagnostics",
        "semilinear_solver.two_start_diagnostics",
    ),
    ("groundstate.semilinear_solver", "apply_T", "semilinear_solver.apply_T"),
    (
        "groundstate.semilinear_solver",
        "brezis_oswald_check",
        "semilinear_solver.brezis_oswald_check",
    ),
    ("groundstate.experiment_cli", "system_two_start", "coop_system.system_two_start"),
    ("groundstate.coop_system", "solve_system", "coop_system.solve_system"),
    (
        "groundstate.coop_system",
        "coupled_uniqueness_check",
        "coop_system.coupled_uniqueness_check",
    ),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder; spans are (run, id, parent, name, t0, t1)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans.append((self.run_id, sid, parent, name, t0, t1))

    def dump(self, path: Path) -> None:
        fields = ["run", "id", "parent", "name", "start_ns", "end_ns"]
        with gzip.open(path, "wt") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


def _wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


@contextmanager
def patched(targets, make_wrapper):
    """Replace each (owner, attribute) by make_wrapper(span_name, original)."""
    saved = []
    try:
        for owner_path, attr, name in targets:
            owner = _owner(owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced(tracer: Tracer):
    return patched(TARGETS, lambda name, fn: _wrapper(tracer, name, fn))


def self_time_ns(spans, span_id: int) -> int:
    """Duration of one span minus the part of it its children cover."""
    own = next(s for s in spans if s[1] == span_id)
    children = sorted((s[4], s[5]) for s in spans if s[2] == span_id)
    covered, cursor = 0, own[4]
    for t0, t1 in children:
        t0 = max(t0, cursor)
        if t1 > t0:
            covered += t1 - t0
            cursor = t1
    return own[5] - own[4] - covered


class SpanStats:
    """Per-run totals and call counts of recorded spans, by name."""

    def __init__(self, spans) -> None:
        by_run = defaultdict(list)
        for span in spans:
            by_run[span[0]].append(span)
        self.runs = sorted(by_run)
        self.total_ns = defaultdict(lambda: defaultdict(int))  # name -> run -> ns
        self.calls = defaultdict(lambda: defaultdict(int))
        self.durations_ms = defaultdict(list)  # name -> every call, all runs
        self.root_self_ms = []
        for run_spans in by_run.values():
            for run, sid, _, name, t0, t1 in run_spans:
                self.total_ns[name][run] += t1 - t0
                self.calls[name][run] += 1
                self.durations_ms[name].append((t1 - t0) / 1e6)
                if name == ROOT_SPAN:
                    self.root_self_ms.append(self_time_ns(run_spans, sid) / 1e6)

    def median_ms(self, name: str) -> float:
        return statistics.median(self.total_ns[name][r] for r in self.runs) / 1e6

    def median_calls(self, name: str) -> float:
        return statistics.median(self.calls[name][r] for r in self.runs)

    def percentile_ms(self, name: str, q: float) -> float:
        """q-th percentile over single calls; 0 for a span never called."""
        calls = self.durations_ms[name]
        return float(np.percentile(calls, q)) if calls else 0.0

    def share(self, name: str) -> float:
        """Median over runs of the span's time as a fraction of the run."""
        return statistics.median(
            self.total_ns[name][r] / self.total_ns[ROOT_SPAN][r] for r in self.runs
        )

    def problems(self, expected) -> list[str]:
        """Listed spans that recorded nothing, and counts that differ by run."""
        out = [f"span {name} recorded nothing" for name in expected if not self.calls[name]]
        out += [
            f"{name} call count differs between runs of one seed"
            for name in list(self.calls)
            if len({self.calls[name][r] for r in self.runs}) > 1
        ]
        return out
