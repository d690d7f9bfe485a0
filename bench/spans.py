"""Spans around the public functions of each ``bntune`` layer.

The traced run times the layers from outside: for the length of a traced
pass, :func:`installed` rebinds the module attributes through which the
library (and the benchmark) reach each layer, so every call records a span
with its name, start, end, parent span and request id.  Nothing inside the
library changes; leaving the context puts the original functions back.

Self time of a span is its duration minus the time its direct children
cover.  Calls are sequential, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from bntune.errors import CoverageUnreachable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``request`` tags the spans of the current request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args, kwargs, count: Callable | None = None):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.request)
        self.spans.append(span)
        self._stack.append(span.id)
        outcome = None
        span.start = time.perf_counter()
        try:
            outcome = fn(*args, **kwargs)
            return outcome
        except CoverageUnreachable as exc:
            outcome = exc.partial
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            # Counting happens after the span has closed, so it is not timed.
            if count is not None and outcome is not None:
                span.counts = count(outcome)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced


def _chain_counts(compiled) -> dict:
    chain, _ = compiled
    return {"states": chain.n_states, "transitions": chain.transition_count}


def _mdp_counts(mdp) -> dict:
    return {"actions": sum(len(acts) for acts in mdp.actions)}


def _partition_counts(result) -> dict:
    accepting, rejecting, unknown = result.counts
    return {
        "verifications": result.verifications,
        "accepting": accepting,
        "rejecting": rejecting,
        "unknown": unknown,
        "unknown_volume": float(sum(box.volume() for box in result.unknown)),
    }


def _tune_counts(result) -> dict:
    return {"iterations": len(result.iterations)}


def _modules():
    # ``bntune.tune`` names the function once the package is imported, so the
    # modules are taken from the import system rather than as attributes.
    return {name: importlib.import_module(f"bntune.{name}") for name in
            ("formats", "pmc", "lifting", "refine", "tune")}


#: (module, attribute, span name, counter).  A layer reached under two module
#: names (``tune`` imports ``partition``, ``compile_tailored`` and
#: ``reach_prob`` by name) is rebound under both.
TRACED = (
    ("formats", "parse_network", "formats.parse", None),
    ("formats", "parse_param_spec", "formats.parse", None),
    ("pmc", "compile_tailored", "pmc.compile", _chain_counts),
    ("tune", "compile_tailored", "pmc.compile", _chain_counts),
    ("pmc", "reach_prob", "pmc.reach_prob", None),
    ("tune", "reach_prob", "pmc.reach_prob", None),
    ("lifting", "relax", "lifting.relax", None),
    ("lifting", "substitute", "lifting.substitute", _mdp_counts),
    ("refine", "partition", "refine.partition", _partition_counts),
    ("tune", "partition", "refine.partition", _partition_counts),
    ("tune", "minimal_instantiation", "tune.minimal_instantiation", None),
    ("tune", "tune", "tune.tune", _tune_counts),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the layers' public functions through ``tracer`` while the block runs."""
    modules = _modules()
    saved = []
    base_verifier = modules["refine"].RegionVerifier

    class TracedVerifier(base_verifier):
        def verify(self, region):
            return tracer.call("lifting.verify", super().verify, (region,), {})

    try:
        for module_name, attr, span_name, count in TRACED:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, count))
        saved.append((modules["refine"], "RegionVerifier", base_verifier))
        modules["refine"].RegionVerifier = TracedVerifier
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- summaries ---------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration
    return own


def high_percentile(n: int) -> float:
    """The highest of p75/p90/p95/p99/p99.9 that leaves ten of ``n`` samples above it.

    With fewer than twenty samples none qualifies and p50 is used.
    """
    best = 500
    for permille in (750, 900, 950, 990, 999):
        if n * (1000 - permille) >= 10 * 1000:
            best = permille
    return best / 10


def percentile(samples: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (as ``statistics.quantiles``)."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return cuts[round(pct * 10) - 1]


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counters of one traced iteration (set-up plus one pass)."""
    own = self_times(spans)

    def total(name: str) -> float:
        return sum((s.duration for s in spans if s.name == name), 0.0)

    def own_total(name: str) -> float:
        return sum((own[s.id] for s in spans if s.name == name), 0.0)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def counted(name: str, key: str) -> list:
        return [s.counts[key] for s in spans if s.name == name and key in s.counts]

    verifications = sum(counted("refine.partition", "verifications"))
    accepting = sum(counted("refine.partition", "accepting"))
    rejecting = sum(counted("refine.partition", "rejecting"))
    return {
        "formats.parse_s": total("formats.parse"),
        "pmc.compile_s": total("pmc.compile"),
        "pmc.states": max(counted("pmc.compile", "states"), default=0),
        "pmc.transitions": max(counted("pmc.compile", "transitions"), default=0),
        "pmc.reach_prob_s": total("pmc.reach_prob"),
        "pmc.reach_prob_calls": calls("pmc.reach_prob"),
        "lifting.relax_s": total("lifting.relax"),
        "lifting.substitute_s": total("lifting.substitute"),
        "lifting.substitute_calls": calls("lifting.substitute"),
        "lifting.verify_calls": calls("lifting.verify"),
        "lifting.verify_s": total("lifting.verify"),
        "lifting.solve_self_s": own_total("lifting.verify"),
        "lifting.mdp_actions": max(counted("lifting.substitute", "actions"), default=0),
        "refine.self_s": own_total("refine.partition"),
        "refine.verifications": verifications,
        "refine.accepting": accepting,
        "refine.rejecting": rejecting,
        "refine.unknown": sum(counted("refine.partition", "unknown")),
        "refine.conclusive_ratio": (accepting + rejecting) / verifications if verifications else 0.0,
        "refine.unknown_volume": sum(counted("refine.partition", "unknown_volume")),
        "tune.self_s": own_total("tune.tune"),
        "tune.iterations": sum(counted("tune.tune", "iterations")),
        "tune.minimal_instantiation_s": total("tune.minimal_instantiation"),
    }
