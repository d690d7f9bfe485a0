"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import spans
from bntune.refine import PartitionResult
from bntune.tune import Status, TuneResult
from workloads import WORKLOADS, Chain, Covid, Layered, layered_tables

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_self_time_subtracts_direct_children_only():
    recorded = [
        spans.Span(0, "tune.tune", None, "r", 0.0, 10.0),
        spans.Span(1, "refine.partition", 0, "r", 1.0, 9.0),
        spans.Span(2, "lifting.verify", 1, "r", 2.0, 5.0),
        spans.Span(3, "lifting.substitute", 2, "r", 2.0, 3.0),
    ]
    assert spans.self_times(recorded) == {0: 2.0, 1: 5.0, 2: 2.0, 3: 1.0}


@pytest.mark.parametrize(
    "samples, pct", [(5, 50.0), (19, 50.0), (40, 75.0), (203, 95.0), (693, 95.0),
                     (1000, 99.0), (10000, 99.9)]
)
def test_high_percentile_leaves_ten_samples_above(samples, pct):
    assert spans.high_percentile(samples) == pct


def test_percentile_interpolates():
    assert spans.percentile([1.0, 2.0, 3.0], 50.0) == 2.0
    assert spans.percentile([4.0], 99.0) == 4.0


def test_layered_tables_are_seeded_with_two_parents_one_level_up():
    variables, tables = layered_tables(3, 4, seed=7)
    assert (variables, tables) == layered_tables(3, 4, seed=7)
    assert len(variables) == 12
    for name, _, parents in variables:
        level = int(name[1:].split("_")[0])
        assert len(parents) == (2 if level else 0)
        assert all(p.startswith(f"L{level - 1}_") for p in parents)
        for row in tables[name].values():
            assert Fraction(row[0]) + Fraction(row[1]) == 1


def test_traced_pass_records_nested_spans_and_restores_the_layers():
    refine = importlib.import_module("bntune.refine")
    tune_module = importlib.import_module("bntune.tune")
    originals = (refine.RegionVerifier, tune_module.partition, tune_module.tune)
    workload = Chain(12, seed=0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        (request,) = workload.setup()
        tracer.request = request.name
        result = request.run()
    assert (refine.RegionVerifier, tune_module.partition, tune_module.tune) == originals
    assert request.check(result) is None

    by_id = {s.id: s for s in tracer.spans}
    parent_of = {s.name: by_id[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parent_of["refine.partition"] == "tune.tune"
    assert parent_of["lifting.verify"] == "refine.partition"
    assert parent_of["lifting.substitute"] == "lifting.verify"
    totals = spans.layer_totals(tracer.spans)
    assert totals["lifting.verify_calls"] == totals["refine.verifications"] > 0
    assert totals["tune.iterations"] == len(result.iterations)
    assert 0 < totals["refine.conclusive_ratio"] <= 1
    assert all(s.end >= s.start for s in tracer.spans)


def test_covid_checks_reject_a_wrong_status_or_a_longer_distance():
    requests = {r.name: r for r in Covid(seed=0).setup()}
    request = requests["ec-le-0.009"]
    far = {"p": Fraction(1, 2), "q": Fraction(1, 2)}
    worse = TuneResult(Status.TUNED, far, 0.5, "ec", None, None, 1.0, ())
    assert "exceeds the reference" in request.check(worse)
    wrong = TuneResult(Status.UNKNOWN, None, None, "ec", None, None, 1.0, ())
    assert "status unknown" in request.check(wrong)


def test_layered_check_rejects_boxes_that_miss_volume():
    _, split = Layered(3, 3, seed=0).setup()
    whole = split.run()
    assert split.check(whole) is None
    first, *rest = whole.accepting + whole.rejecting + whole.unknown
    half, _ = first.split(0)
    short = PartitionResult((), (), (half, *rest), Fraction(0), 1)
    assert "do not add up" in split.check(short)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "covid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
