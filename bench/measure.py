"""Runs one workload in this process and prints its measurements as JSON.

Started by ``run.py`` in a fresh process per workload (so peak RSS belongs to
that workload alone); see ``run.py`` for the command line.

Untraced (``--trace 0``): run laps while another lap of the median length
still fits in ``--seconds`` (at least one).  A lap sets up several times,
runs one pass over the requests of its last set-up, and checks that pass's
outputs.  A pass's wall time is the time spent inside its solving calls.
Set-up and pass times are medians over the whole run, so both sample the
machine across the run rather than at one moment.  Peak RSS is read after
the first pass, before any check.

Traced (``--trace 1``): alternate untraced passes with traced iterations (a
traced set-up followed by a traced pass) in the same way, with at least one
of each.  Per-layer figures are medians over the traced iterations; the
tracing overhead is the traced minus the untraced median pass time.  Spans
are written to ``.bench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import spans
from workloads import ROOT, WORKLOADS

#: In each lap, set-up repeats at least this often and until this many seconds have gone.
SETUP_REPEATS = 2
SETUP_SECONDS = 0.1


class Outcome:
    """Counts requests and keeps the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{name}: {reason}")


def solve(requests, tracer: spans.Tracer | None = None) -> tuple[list[float], list]:
    """Run every request once; return the time inside each solving call and the results."""
    gc.collect()  # start every pass from the same heap, untimed
    times, results = [], []
    for request in requests:
        if tracer is not None:
            tracer.request = request.name
        start = time.perf_counter()
        try:
            result = request.run()
        except Exception as exc:  # a request that raises counts as failed
            result = exc
        times.append(time.perf_counter() - start)
        results.append(result)
    return times, results


def check(requests, results, outcome: Outcome) -> None:
    for request, result in zip(requests, results):
        if isinstance(result, Exception):
            outcome.record(request.name, f"raised {type(result).__name__}: {result}")
            continue
        try:
            reason = request.check(result)
        except Exception as exc:  # a check that cannot finish is a failed check
            reason = f"check raised {type(exc).__name__}: {exc}"
        outcome.record(request.name, reason)


def timed_setup(workload) -> tuple[float, list]:
    gc.collect()
    start = time.perf_counter()
    requests = workload.setup()
    return time.perf_counter() - start, requests


def fits(started: float, seconds: float, laps: list[float]) -> bool:
    """Whether one more lap of the median length still ends within ``seconds``."""
    return time.perf_counter() - started + statistics.median(laps) <= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(workload, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    setup_times, walls, per_request, laps = [], [], [], []
    started = time.perf_counter()
    while not laps or fits(started, seconds, laps):
        lap_start = time.perf_counter()
        batch = []
        while len(batch) < SETUP_REPEATS or sum(batch) < SETUP_SECONDS:
            requests = None  # the previous set-up's objects go before the next is timed
            elapsed, requests = timed_setup(workload)
            batch.append(elapsed)
        setup_times += batch
        times, results = solve(requests)
        walls.append(sum(times))
        per_request.append(times)
        if len(walls) == 1:
            # Set-up plus one pass: later passes only add heap fragmentation,
            # and the checks' reference computations would set a peak of their own.
            peak = peak_rss_mb()
        check(requests, results, outcome)
        requests = results = None
        laps.append(time.perf_counter() - lap_start)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak,
    }
    return metrics, {"passes": walls, "per_request": per_request, "setups": len(setup_times)}


def traced(workload, seconds: float, outcome: Outcome, spans_file: Path) -> tuple[dict, dict]:
    requests = workload.setup()
    plain_walls, traced_walls, iterations, answers = [], [], [], []
    started = time.perf_counter()
    while not traced_walls or fits(started, seconds, plain_walls + traced_walls):
        if len(plain_walls) <= len(traced_walls):
            times, results = solve(requests)
            plain_walls.append(sum(times))
            answers.append((requests, results))
            continue
        tracer = spans.Tracer()
        with spans.installed(tracer):
            tracer.request = "setup"
            traced_requests = workload.setup()
            times, results = solve(traced_requests, tracer)
        traced_walls.append(sum(times))
        answers.append((traced_requests, results))
        iterations.append(tracer.spans)
    for checked_requests, results in answers:
        check(checked_requests, results, outcome)

    per_iteration = [spans.layer_totals(recorded) for recorded in iterations]
    metrics = {name: statistics.median(it[name] for it in per_iteration) for name in per_iteration[0]}
    verify_ms = [s.duration * 1e3 for recorded in iterations for s in recorded
                 if s.name == "lifting.verify"]
    high = spans.high_percentile(len(verify_ms))
    metrics["lifting.verify_samples"] = len(verify_ms)
    metrics["lifting.verify_p50_ms"] = spans.percentile(verify_ms, 50.0) if verify_ms else 0.0
    metrics["lifting.verify_high_ms"] = spans.percentile(verify_ms, high) if verify_ms else 0.0
    metrics["lifting.verify_high_pct"] = high
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)

    spans_file.parent.mkdir(parents=True, exist_ok=True)
    with spans_file.open("w") as out:
        for number, recorded in enumerate(iterations):
            for span in recorded:
                out.write(json.dumps({"iteration": number, **asdict(span)}) + "\n")
    return metrics, {"passes": plain_walls, "traced_passes": traced_walls}


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    outcome = Outcome()
    if args.trace:
        spans_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, info = traced(workload, args.seconds, outcome, spans_file)
    else:
        metrics, info = untraced(workload, args.seconds, outcome)
    print(json.dumps({
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "reasons": outcome.reasons,
        "metrics": metrics,
        "info": {"numpy": np.__version__, "blas": blas_info(), **info},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
