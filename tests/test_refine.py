"""Region partitioning: coverage goals, exact tiling, guards, CSV export."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bntune import Region, compile_chain, compile_tailored
from bntune.errors import CoverageUnreachable
from bntune.lifting import RegionVerifier, Verdict, relax
from bntune.pmc import ReachSpec
from bntune.refine import PartitionResult, boxes_csv, partition
from conftest import state_index


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

    Like a :class:`RegionVerifier`, it carries the chain's relaxation, from
    which ``partition`` takes the live axes."""

    def __init__(self, pmc):
        self.relaxed = relax(pmc)
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
    stub = StubVerifier(pmc)
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
