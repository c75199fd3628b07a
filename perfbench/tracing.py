"""Span tracing of switchcert's layers, installed from outside the package.

``install`` replaces each traced function with a wrapper at every name the
program looks it up under: ``cli`` imports ``monte_carlo`` and friends into
its own namespace, so those are patched there, and methods such as
``Supervisor.request`` are patched on their class.  A module or attribute
that does not exist is skipped, so a layer a later version removes reports
zero calls instead of crashing the benchmark.

Each call records one span (name, start, end, parent) in flat arrays; the
per-layer metrics are derived from those spans afterwards.  A span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Counter hooks: called before the traced call, they may return a callable
# that receives the call's result.

def _count_campaign(counters, fn, args, kwargs):
    arguments = _bound(fn, args, kwargs)
    counters["episode_steps"] += arguments["episode_count"] * arguments["horizon"]


def _count_margin_campaign(counters, fn, args, kwargs):
    arguments = _bound(fn, args, kwargs)
    counters["margin_evaluations"] += 1
    counters["margin_episodes"] += arguments["episode_count"]
    counters["episode_steps"] += arguments["episode_count"] * arguments["horizon"]


def _count_request(counters, fn, args, kwargs):
    supervisor = args[0]
    requested = args[1] if len(args) > 1 else kwargs["requested"]
    if int(requested) == supervisor.current:
        return None
    counters["switch_requests"] += 1

    def after(admitted):
        if not admitted:
            counters["deferred"] += 1

    return after


def _count_validate(counters, fn, args, kwargs):
    counters["validate_steps"] += len(_bound(fn, args, kwargs)["signal"])


ROOT_SPAN = "cli"

# (module, class or None, attribute, span name, counter hook or None)
PATCHES = (
    ("switchcert.library_io", None, "library_from_dict", "library_io.load", None),
    ("switchcert.walker", None, "library_from_dict", "library_io.load", None),
    ("switchcert.library_io", None, "library_fingerprint", "library_io.fingerprint", None),
    ("switchcert.simulation", None, "library_fingerprint", "library_io.fingerprint", None),
    ("switchcert.certificates", None, "library_fingerprint", "library_io.fingerprint", None),
    ("switchcert.walker", None, "library_fingerprint", "library_io.fingerprint", None),
    ("switchcert.cli", None, "synthesize_certificate", "certificates.synthesize", None),
    ("switchcert.certificates", None, "omega_grid", "certificates.omega", None),
    ("switchcert.certificates", None, "omega_analytic", "certificates.omega", None),
    ("switchcert.certificates", None, "mu_grid", "certificates.mu", None),
    ("switchcert.certificates", None, "mu_analytic", "certificates.mu", None),
    ("switchcert.certificates", None, "feasibility_check", "certificates.containment", None),
    ("switchcert.cli", None, "estimate_disturbance_margin", "certificates.margin", None),
    ("switchcert.cli", None, "monte_carlo", "simulation.step", _count_campaign),
    ("switchcert.simulation", None, "campaign_has_violation", "simulation.step", _count_margin_campaign),
    ("switchcert.simulation", None, "derive_rng", "simulation.draw_rng", None),
    ("switchcert.simulation", None, "sample_initial_state", "simulation.draw_x0", None),
    ("switchcert.simulation", None, "sample_admissible_signal", "simulation.draw_signal", None),
    ("switchcert.simulation", None, "sample_disturbances", "simulation.draw_dist", None),
    ("switchcert.simulation", None, "run", "simulation.trace", None),
    ("switchcert.simulation", "Trace", "to_csv", "simulation.trace", None),
    ("switchcert.switching", "Supervisor", "request", "switching.request", _count_request),
    ("switchcert.cli", None, "validate_dwell_time", "switching.validate", _count_validate),
    ("switchcert.walker", None, "validate_dwell_time", "switching.validate", _count_validate),
    ("switchcert.switching", "SwitchingSignal", "from_csv", "switching.csv_read", None),
    ("switchcert.cli", None, "run_scenario", "walker.loop", None),
    ("switchcert.walker", None, "integrate_stride_force", "walker.force", None),
    ("switchcert.walker", None, "stride_update", "walker.stride_update", None),
    ("switchcert.walker", "ScenarioTrace", "write_outputs", "walker.write", None),
    ("switchcert.walker", "ScenarioTrace", "write_ellipses", "walker.write", None),
)

# Per-layer self-time metrics: name -> the span whose self time they sum.
SELF_TIMES = {
    "library_io.load_s": "library_io.load",
    "library_io.fingerprint_s": "library_io.fingerprint",
    "certificates.synthesize_s": "certificates.synthesize",
    "certificates.omega_s": "certificates.omega",
    "certificates.mu_s": "certificates.mu",
    "certificates.containment_s": "certificates.containment",
    "certificates.margin_s": "certificates.margin",
    "simulation.draw_rng_s": "simulation.draw_rng",
    "simulation.draw_x0_s": ("simulation.draw_x0",),
    "simulation.draw_signal_s": "simulation.draw_signal",
    "simulation.draw_dist_s": "simulation.draw_dist",
    "simulation.step_s": "simulation.step",
    "simulation.trace_s": "simulation.trace",
    "switching.request_s": "switching.request",
    "switching.validate_s": "switching.validate",
    "switching.csv_read_s": "switching.csv_read",
    "walker.force_s": "walker.force",
    "walker.stride_update_s": "walker.stride_update",
    "walker.loop_s": "walker.loop",
    "walker.write_s": "walker.write",
    "cli.self_s": ROOT_SPAN,
}
# Per-layer call counts: name -> the span whose calls they count.
CALL_COUNTS = {
    "library_io.fingerprint_calls": "library_io.fingerprint",
    "certificates.kappa_evaluated": "certificates.omega",
    "switching.request_calls": "switching.request",
    "walker.strides": "walker.stride_update",
}
# Per-layer metrics derived from counters.
DERIVED = ("certificates.margin_evaluations", "certificates.margin_episodes",
           "simulation.episode_steps", "simulation.step_ns_per_episode_step",
           "switching.deferred_ratio", "switching.validate_steps")
METRIC_NAMES = (*SELF_TIMES, *CALL_COUNTS, *DERIVED)


class Tracer:
    """In-memory span recorder with counters, one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(counters, fn, args,
        kwargs)`` runs before the call and may return a callable that
        receives the result."""
        nid = self._intern(name)
        stack, clock = self._stack, self._clock
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = hook(counters, fn, args, kwargs) if hook is not None else None
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        if np.any(np.isnan(end)):
            raise RuntimeError("a span is still open")
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=duration.size)
        totals = np.bincount(name_id, weights=duration - children, minlength=len(self._names))
        return {name: float(totals[i]) for i, name in enumerate(self._names)}

    def call_counts(self) -> dict[str, int]:
        if not self.name_id:
            return {}
        counts = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                             minlength=len(self._names))
        return {name: int(counts[i]) for i, name in enumerate(self._names)}


def install(tracer: Tracer) -> list[str]:
    """Patch every traced name that exists; return the ones that do not."""
    missing = []
    for module_name, class_name, attr, span, hook in PATCHES:
        where = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            missing.append(where)
            continue
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is None or not hasattr(owner, attr):
            missing.append(where)
            continue
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, span, hook)))
        else:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), span, hook))
    return missing


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation."""
    self_times = tracer.self_times()
    calls = tracer.call_counts()
    counters = tracer.counters
    metrics = {name: self_times.get(span, 0.0) for name, span in SELF_TIMES.items()}
    metrics.update({name: float(calls.get(span, 0)) for name, span in CALL_COUNTS.items()})
    steps = counters["episode_steps"]
    switch_requests = counters["switch_requests"]
    derived = {
        "certificates.margin_evaluations": float(counters["margin_evaluations"]),
        "certificates.margin_episodes": float(counters["margin_episodes"]),
        "simulation.episode_steps": float(steps),
        "simulation.step_ns_per_episode_step":
            metrics["simulation.step_s"] * 1e9 / steps if steps else 0.0,
        "switching.deferred_ratio":
            counters["deferred"] / switch_requests if switch_requests else 0.0,
        "switching.validate_steps": float(counters["validate_steps"]),
    }
    assert tuple(derived) == DERIVED
    metrics.update(derived)
    return metrics

