"""Region partitioning: coverage goals, exact tiling, guards, CSV export."""

from __future__ import annotations

import importlib
import random
from collections import deque
from fractions import Fraction

import pytest

from bntune import (
    Constraint,
    Region,
    compile_chain,
    compile_tailored,
    net_from_tables,
    parametrize,
    reach_prob,
)
from bntune.errors import CoverageUnreachable
from bntune.lifting import RegionVerifier, Verdict
from bntune.pmc import ReachSpec
from bntune.refine import PartitionResult, boxes_csv, partition
from bntune.tune import tune
from conftest import (
    covid_tune_requests,
    layered_tables,
    random_constraint,
    random_net,
    random_parametrization,
    random_region,
    state_index,
)


@pytest.fixture
def toy_chain(toy_pbn):
    pmc = compile_chain(toy_pbn)
    yes = state_index(pmc, 1, (("T", "yes"),))
    return pmc, yes


def toy_spec(yes, direction="<=", threshold=Fraction(1, 2)):
    return ReachSpec(frozenset({yes}), direction, threshold)


FULL = Region.from_bounds({"x": (Fraction(1, 5), Fraction(3, 5))})


def all_boxes(result: PartitionResult):
    return list(result.accepting) + list(result.rejecting) + list(result.unknown)


def test_toy_partition_splits_around_the_threshold(toy_chain):
    pmc, yes = toy_chain
    res = partition(pmc, toy_spec(yes), FULL)
    assert res.coverage == Fraction(127, 128) >= Fraction(99, 100)
    for box in res.accepting:
        assert box.interval("x")[1] <= Fraction(1, 2)
    for box in res.rejecting:
        assert box.interval("x")[0] >= Fraction(1, 2)
    for box in res.unknown:
        lb, ub = box.interval("x")
        assert abs(float((lb + ub) / 2) - 0.5) < 0.01


def test_partition_tiles_the_region_exactly(toy_chain):
    pmc, yes = toy_chain
    res = partition(pmc, toy_spec(yes), FULL)
    boxes = sorted(all_boxes(res), key=lambda b: b.interval("x"))
    assert boxes[0].interval("x")[0] == Fraction(1, 5)
    assert boxes[-1].interval("x")[1] == Fraction(3, 5)
    for left, right in zip(boxes, boxes[1:]):
        assert left.interval("x")[1] == right.interval("x")[0]
    assert sum(b.volume() for b in boxes) == FULL.volume()


def test_partition_coverage_is_the_conclusive_share(toy_chain):
    pmc, yes = toy_chain
    res = partition(pmc, toy_spec(yes), FULL)
    conclusive = sum(b.volume() for b in res.accepting) + sum(
        b.volume() for b in res.rejecting
    )
    assert res.coverage == conclusive / FULL.volume()


def test_partition_verdicts_are_reproducible(toy_chain):
    pmc, yes = toy_chain
    res = partition(pmc, toy_spec(yes), FULL)
    fresh = RegionVerifier(pmc, toy_spec(yes))
    assert all(fresh.verify(box) is Verdict.ACCEPTING for box in res.accepting)
    assert all(fresh.verify(box) is Verdict.REJECTING for box in res.rejecting)


def test_partition_is_deterministic(toy_chain):
    pmc, yes = toy_chain
    first = partition(pmc, toy_spec(yes), FULL)
    second = partition(pmc, toy_spec(yes), FULL)
    assert first == second


def test_eta_zero_still_verifies_once(toy_chain):
    pmc, yes = toy_chain
    res = partition(pmc, toy_spec(yes), FULL, eta=Fraction(0))
    assert res.verifications == 1
    assert res.counts == (0, 0, 1)
    assert res.unknown == (FULL,)


def test_conclusive_region_needs_one_verification(toy_chain):
    pmc, yes = toy_chain
    res = partition(pmc, toy_spec(yes, threshold=Fraction(7, 10)), FULL, eta=Fraction(1))
    assert res.verifications == 1
    assert res.accepting == (FULL,)
    assert res.coverage == 1


def test_full_coverage_unreachable_on_boundary_regions(toy_chain):
    # Boxes straddling the threshold never classify under the margin, so a
    # coverage goal of 1 runs into the verification guard.
    pmc, yes = toy_chain
    with pytest.raises(CoverageUnreachable) as excinfo:
        partition(pmc, toy_spec(yes), FULL, eta=Fraction(1), guard=50)
    partial = excinfo.value.partial
    assert partial is not None
    assert partial.verifications == 50
    assert partial.coverage < 1
    assert sum(b.volume() for b in all_boxes(partial)) == FULL.volume()


def test_guard_trips_exactly(toy_chain):
    pmc, yes = toy_chain
    with pytest.raises(CoverageUnreachable) as excinfo:
        partition(pmc, toy_spec(yes), FULL, guard=3)
    assert excinfo.value.partial.verifications == 3


def test_eta_validation(toy_chain):
    pmc, yes = toy_chain
    with pytest.raises(ValueError):
        partition(pmc, toy_spec(yes), FULL, eta=Fraction(3, 2))
    with pytest.raises(ValueError):
        partition(pmc, toy_spec(yes), FULL, eta=Fraction(-1, 10))


def test_guard_validation(toy_chain):
    # A guard below one would still spend a verification before giving up.
    pmc, yes = toy_chain
    stub = StubVerifier()
    for guard in (0, -1):
        with pytest.raises(ValueError):
            partition(pmc, toy_spec(yes), FULL, guard=guard, verifier=stub)
    assert stub.calls == 0


def test_until_accepting_digs_out_a_small_accepting_sliver(toy_chain):
    # Only [0.59, 0.6] is accepting for >= 0.59 — 2.5% of the region, well
    # under the 10% slack of eta = 0.9, so the plain run may stop without it.
    pmc, yes = toy_chain
    spec = toy_spec(yes, ">=", Fraction(59, 100))
    plain = partition(pmc, spec, FULL, eta=Fraction(9, 10))
    assert plain.accepting == ()
    assert plain.coverage == Fraction(15, 16)
    eager = partition(pmc, spec, FULL, eta=Fraction(9, 10), until_accepting=True)
    assert len(eager.accepting) >= 1
    assert eager.accepting[0].interval("x") == (Fraction(19, 32), Fraction(3, 5))


def test_until_accepting_terminates_when_nothing_accepts(toy_chain):
    pmc, yes = toy_chain
    spec = toy_spec(yes, ">=", Fraction(7, 10))
    res = partition(pmc, spec, FULL, eta=Fraction(9, 10), until_accepting=True)
    assert res.accepting == ()
    assert res.rejecting == (FULL,)
    assert res.coverage == 1


class StubVerifier:
    """Scripted verdicts: accept left of 0.35, reject right of 0.45.

    It has only ``verify``, all that ``partition`` asks of a verifier."""

    def __init__(self):
        self.calls = 0

    def verify(self, box):
        self.calls += 1
        lb, ub = box.interval("x")
        if ub <= Fraction(7, 20):
            return Verdict.ACCEPTING
        if lb >= Fraction(9, 20):
            return Verdict.REJECTING
        return Verdict.INCONCLUSIVE


def test_injected_verifier_drives_the_partition(toy_chain):
    pmc, yes = toy_chain
    stub = StubVerifier()
    res = partition(pmc, toy_spec(yes), FULL, eta=Fraction(7, 10), verifier=stub)
    assert stub.calls == res.verifications
    assert res.coverage >= Fraction(7, 10)
    assert all(box.interval("x")[1] <= Fraction(7, 20) for box in res.accepting)
    assert all(box.interval("x")[0] >= Fraction(9, 20) for box in res.rejecting)


def screening_setup(covid_pbn, covid_constraint):
    pmc, spec = compile_tailored(covid_pbn, covid_constraint)
    region = Region.from_bounds(
        {"p": (Fraction(3, 5), Fraction(9, 10)), "q": (Fraction(9, 10), Fraction(99, 100))}
    )
    return pmc, spec, region


def test_partition_is_valid_and_deterministic(covid_pbn, covid_constraint):
    pmc, spec, region = screening_setup(covid_pbn, covid_constraint)
    res = partition(pmc, spec, region, eta=Fraction(9, 10))
    again = partition(pmc, spec, region, eta=Fraction(9, 10))
    assert res == again
    assert res.coverage >= Fraction(9, 10)
    assert sum(b.volume() for b in all_boxes(res)) == region.volume()
    fresh = RegionVerifier(pmc, spec)
    assert all(fresh.verify(box) is Verdict.ACCEPTING for box in res.accepting)
    assert all(fresh.verify(box) is Verdict.REJECTING for box in res.rejecting)


def test_partition_keeps_degenerate_axes(covid_pbn, covid_constraint):
    pmc, spec = compile_tailored(covid_pbn, covid_constraint)
    region = Region.from_bounds(
        {"p": (Fraction(7, 10), Fraction(7, 10)), "q": (Fraction(9, 10), Fraction(99, 100))}
    )
    res = partition(pmc, spec, region, eta=Fraction(9, 10))
    assert all(
        box.interval("p") == (Fraction(7, 10), Fraction(7, 10))
        for box in all_boxes(res)
    )
    assert res.coverage == 1  # everything rejects at p = 0.7
    assert res.accepting == ()


def covid_tune_partitions(monkeypatch) -> list[tuple[Region, PartitionResult]]:
    """(region, result) of every partition that the bench's four covid tune
    requests run, a partial result where the partition gave up."""
    seen = []

    def recording(pmc, spec, region, *args, **kwargs):
        try:
            result = partition(pmc, spec, region, *args, **kwargs)
        except CoverageUnreachable as exc:
            seen.append((region, exc.partial))
            raise
        seen.append((region, result))
        return result

    monkeypatch.setattr(importlib.import_module("bntune.tune"), "partition", recording)
    for pbn, constraint, measure, hyper in covid_tune_requests():
        tune(pbn, constraint, measure, hyper)
    assert len(seen) >= 12
    return seen


def test_coverage_is_the_conclusive_share_on_every_covid_partition(monkeypatch):
    for region, result in covid_tune_partitions(monkeypatch):
        conclusive = sum(box.volume() for box in result.accepting + result.rejecting)
        assert result.coverage == conclusive / region.volume()


# -- the order of the result lists -----------------------------------------------


def assert_in_interval_order(result: PartitionResult) -> None:
    for boxes in (result.accepting, result.rejecting, result.unknown):
        assert list(boxes) == sorted(boxes, key=lambda box: box.intervals)


def test_result_lists_follow_the_exact_intervals_on_every_covid_partition(monkeypatch):
    # The radius boxes have non-dyadic ends such as 18/25 +- h, so the
    # lattice order must agree with Fraction order on those.
    seen = covid_tune_partitions(monkeypatch)
    for _, result in seen:
        assert_in_interval_order(result)
    assert max(max(map(len, (r.accepting, r.rejecting, r.unknown))) for _, r in seen) >= 8


def layered_with_a_dead_axis(seed: int, k: int):
    """The bench's 4x4 layered net with ``k`` parameters: ``k - 1`` on random
    rows of the ancestors of ``L3_0``, the hypothesis, and one on a
    last-level table that it does not depend on, at a random place in the
    order."""
    rng = random.Random(seed)
    variables, tables = layered_tables(4, 4, seed)
    parents = {name: above for name, _, above in variables}
    ancestors, todo = set(), list(parents["L3_0"])
    while todo:
        name = todo.pop()
        if name not in ancestors:
            ancestors.add(name)
            todo.extend(parents[name])
    rows = [(name, key, 0) for name in sorted(ancestors) for key in tables[name]]
    coords = rng.sample(rows, k - 1)
    dead = (f"L3_{rng.randint(1, 3)}", ("t", "t"), 0)
    coords.insert(rng.randint(0, k - 1), dead)
    names = {coord: f"x{i}" for i, coord in enumerate(coords)}
    pbn = parametrize(net_from_tables(variables, tables), coords, names)
    return pbn, Constraint((("L3_0", "t"),), (), "<=", Fraction(1)), names[dead], rng


def test_result_lists_follow_the_exact_intervals_on_layered_nets_with_a_dead_axis():
    lists = 0
    for seed in (1, 2):
        for k in range(3, 7):
            pbn, constraint, dead, rng = layered_with_a_dead_axis(seed, k)
            pmc, spec = compile_tailored(pbn, constraint)
            live = {name for _, local in pmc.lowered.parametric for name in local}
            assert dead not in live and len(live) >= 2, (seed, k)
            region = random_region(rng, pbn)
            _, result = outcome(partition, pmc, crossing_spec(pmc, spec, region), region, 1, guard=80)
            assert_in_interval_order(result)
            lists += sum(len(boxes) > 2 for boxes in (result.accepting, result.rejecting, result.unknown))
    assert lists >= 8


def test_boxes_csv_layout(toy_chain):
    pmc, yes = toy_chain
    res = partition(pmc, toy_spec(yes), FULL)
    text = boxes_csv(res)
    lines = text.splitlines()
    assert lines[0] == "verdict,x_low,x_high"
    assert lines[1] == "accepting,0.2,0.4"
    assert len(lines) == 1 + sum(res.counts)
    assert text.endswith("\n") and "\r" not in text


def test_boxes_csv_multi_parameter_header(covid_pbn, covid_constraint):
    pmc, spec, region = screening_setup(covid_pbn, covid_constraint)
    res = partition(pmc, spec, region, eta=Fraction(1, 2))
    lines = boxes_csv(res).splitlines()
    assert lines[0] == "verdict,p_low,p_high,q_low,q_high"
    assert all(line.count(",") == 4 for line in lines[1:])


# -- equivalence with the widest-axis rule --------------------------------------


def widest_axis_partition(pmc, spec, region, eta, *, guard, until_accepting=False):
    """The rule depth splitting replaced, kept as a reference: split the live
    axis that is widest relative to the input, the first one on ties, and
    count coverage from exact box volumes."""
    verifier = RegionVerifier(pmc, spec)
    on_edges = {name for _, local in pmc.lowered.parametric for name in local}
    live = [
        i
        for i, (name, (lb, ub)) in enumerate(zip(region.params, region.intervals))
        if ub > lb and name in on_edges
    ]
    total = region.volume()
    accepting, rejecting, unknown = [], [], []
    covered, verifications = Fraction(0), 0
    queue = deque([region])

    def result():
        return PartitionResult(
            tuple(sorted(accepting, key=lambda box: box.intervals)),
            tuple(sorted(rejecting, key=lambda box: box.intervals)),
            tuple(sorted(unknown + list(queue), key=lambda box: box.intervals)),
            covered / total,
            verifications,
        )

    done = False
    while queue and not done:
        box = queue.popleft()
        verdict = verifier.verify(box)
        verifications += 1
        if verdict is Verdict.ACCEPTING:
            accepting.append(box)
            covered += box.volume()
        elif verdict is Verdict.REJECTING:
            rejecting.append(box)
            covered += box.volume()
        searching = until_accepting and not accepting and covered < total
        done = covered >= eta * total and not searching
        if verdict is Verdict.INCONCLUSIVE:
            if done or not live:
                unknown.append(box)
            else:
                relative = [
                    (box.intervals[i][1] - box.intervals[i][0])
                    / (region.intervals[i][1] - region.intervals[i][0])
                    for i in live
                ]
                queue.extend(box.split(live[relative.index(max(relative))]))
        if not done and verifications >= guard:
            raise CoverageUnreachable("guard", partial=result())
    if covered < eta * total:
        raise CoverageUnreachable("coverage", partial=result())
    return result()


def outcome(run, *args, **kwargs):
    try:
        return "complete", run(*args, **kwargs)
    except CoverageUnreachable as exc:
        return "partial", exc.partial


def assert_same_as_widest_axis(pmc, spec, region, *, guard):
    for eta in (Fraction(9, 10), Fraction(99, 100), Fraction(1)):
        for until_accepting in (False, True):
            kwargs = dict(guard=guard, until_accepting=until_accepting)
            expected = outcome(widest_axis_partition, pmc, spec, region, eta, **kwargs)
            assert outcome(partition, pmc, spec, region, eta, **kwargs) == expected


def crossing_spec(pmc, spec, region):
    """``spec`` with its threshold moved to the probability at the region's
    centre, so that the boundary runs through the region."""
    at_centre = reach_prob(pmc, region.center(), spec.targets)
    return ReachSpec(spec.targets, spec.direction, Fraction(at_centre).limit_denominator(10**6))


def test_depth_splitting_matches_the_widest_axis_rule_on_random_nets():
    rng = random.Random(2024)
    split_two_axes = 0
    for _ in range(40):
        net = random_net(rng)
        pbn = random_parametrization(rng, net)
        pmc, spec = compile_tailored(pbn, random_constraint(rng, net))
        region = random_region(rng, pbn)
        spec = crossing_spec(pmc, spec, region)
        assert_same_as_widest_axis(pmc, spec, region, guard=60)
        _, result = outcome(partition, pmc, spec, region, 1, guard=60)
        boxes = result.accepting + result.rejecting + result.unknown
        split = [i for i in range(len(region.params)) if len({b.intervals[i] for b in boxes}) > 1]
        split_two_axes += len(split) >= 2
    assert split_two_axes >= 5


def test_depth_splitting_matches_the_widest_axis_rule_around_dead_axes():
    # Given B, C is barren for A, so r labels no edge; d is degenerate in the
    # region.  Only s and p are live, and the dead axes lie between them.
    variables = [("A", ("y", "n"), ()), ("C", ("y", "n"), ("A",)), ("B", ("y", "n"), ("A",))]
    tables = {
        "A": {(): ("0.3", "0.7")},
        "C": {("y",): ("0.6", "0.4"), ("n",): ("0.2", "0.8")},
        "B": {("y",): ("0.9", "0.1"), ("n",): ("0.25", "0.75")},
    }
    coords = [("A", (), 0), ("C", ("y",), 0), ("B", ("y",), 0), ("B", ("n",), 0)]
    pbn = parametrize(net_from_tables(variables, tables), coords, dict(zip(coords, "srdp")))
    constraint = Constraint((("A", "y"),), (("B", "y"),), ">=", Fraction(3, 5))
    pmc, spec = compile_tailored(pbn, constraint)
    region = Region.from_bounds(
        {"s": ("0.2", "0.4"), "r": ("0.5", "0.7"), "d": ("0.9", "0.9"), "p": ("0.2", "0.3")}
    )
    assert region.params == pmc.parameter_names
    _, result = outcome(partition, pmc, spec, region, 1, guard=60)
    boxes = result.accepting + result.rejecting + result.unknown
    assert all(len({box.interval(name) for box in boxes}) == 1 for name in "rd")
    assert all(len({box.interval(name) for box in boxes}) > 1 for name in "sp")
    assert_same_as_widest_axis(pmc, spec, region, guard=60)
