"""Acceptance suite: one test per numbered criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  The random-model criteria share one seeded corpus of fifty small
parametric networks, so every run checks the identical models.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bntune.bn import Constraint, instantiate
from bntune.lifting import RegionVerifier, Verdict
from bntune.oracle import cd_exact, infer
from bntune.pmc import compile_tailored, reach_prob, sensitivity_function
from bntune.refine import partition
from bntune.tune import (
    Hyper,
    Status,
    distance_cd,
    expand_region_cd,
    minimal_instantiation,
    tune,
)

from conftest import (
    build_covid_constraint,
    build_covid_net,
    build_covid_pbn,
    build_toy_pbn,
    covid_posterior,
    random_constraint,
    random_net,
    random_parametrization,
    random_region,
    random_single_cpt_parametrization,
    region_samples,
)

CORPUS_SEED = 175
CORPUS_SIZE = 50


@pytest.fixture(scope="module")
def corpus():
    """Fifty random pBNs (<= 5 nodes, <= 3 parameters) with regions, verified."""
    rng = random.Random(CORPUS_SEED)
    items = []
    for _ in range(CORPUS_SIZE):
        net = random_net(rng)
        pbn = random_parametrization(rng, net)
        constraint = random_constraint(rng, net)
        region = random_region(rng, pbn)
        chain, spec = compile_tailored(pbn, constraint)
        verifier = RegionVerifier(chain, spec)
        verdict = verifier.verify(region)
        items.append((pbn, constraint, region, chain, spec, verifier, verdict))
    return items


def test_criterion_01_screening_posterior():
    """The residual-risk posterior of the screening network, within 1e-5."""
    started = time.perf_counter()
    net = build_covid_net()
    constraint = build_covid_constraint()
    posterior = infer(net, constraint.hypothesis, constraint.evidence)
    elapsed = time.perf_counter() - started
    assert posterior == pytest.approx(0.011089, abs=1e-5)
    assert elapsed < 1.0


def test_criterion_02_sensitivity_closed_form():
    """State elimination agrees with 361/(34900pq + 8758q + 361) at 100 points."""
    started = time.perf_counter()
    pbn = build_covid_pbn()
    chain, spec = compile_tailored(pbn, build_covid_constraint())
    form = sensitivity_function(chain, tuple(sorted(spec.targets)))
    rng = random.Random(2)
    for _ in range(100):
        u = {"p": rng.uniform(0.001, 0.999), "q": rng.uniform(0.001, 0.999)}
        got = form.numerator.evaluate(u) / form.denominator.evaluate(u)
        assert got == pytest.approx(covid_posterior(u["p"], u["q"]), abs=1e-9)
    assert time.perf_counter() - started < 1.0


def test_criterion_03_worked_example_tuning():
    """Default tuning run: Tuned, constraint holds exactly, distance bounded."""
    started = time.perf_counter()
    pbn = build_covid_pbn()
    constraint = build_covid_constraint()
    result = tune(pbn, constraint)
    elapsed = time.perf_counter() - started
    assert result.status is Status.TUNED
    posterior = infer(
        instantiate(pbn, result.instantiation), constraint.hypothesis, constraint.evidence
    )
    assert constraint.satisfied_by(posterior)
    # Best reachable squared distance plus the slack a 0.99 coverage factor
    # may leave unclassified: 0.040913125 + (1 - 0.99) * d0**2.
    assert result.distance_squared <= 0.040913125 + 0.01 * 2.0
    assert elapsed < 60.0


def test_criterion_04_spot_reach_value():
    """Reach probability at (p, q) = (0.92075, 0.97475), within 1e-5.

    The expected value is derived by hand from the screening network's CPT
    entries, in exact arithmetic, with the evidence e = (Antigen=pos,
    PCR=pos):

        P(no,  e) = 0.95 * (0.1 * 0.005 + 0.9 * 0.01) * 0.04   = 0.000361
        P(yes, e) = 0.05 * (0.698 * p + 0.302 * 0.58) * q
        P(no | e) = P(no, e) / (P(no, e) + P(yes, e))
                  = 361 / (34900pq + 8758q + 361)

    which at this point is 57760000/6435303613 ~= 0.0089755.  That is the
    closed form criterion 02 checks, and at the original (0.72, 0.95) it
    gives the 0.011089 of criterion 01.  An earlier constant, 0.008798, was
    dropped: no network that satisfies criteria 01 and 02 can give it here.
    """
    p, q = Fraction("0.92075"), Fraction("0.97475")
    # COVID-19 = no: prior, Symptoms summed out of Antigen(no, .), PCR(no).
    joint_no = (
        Fraction("0.95")
        * (Fraction("0.1") * Fraction("0.005") + Fraction("0.9") * Fraction("0.01"))
        * Fraction("0.04")
    )
    # COVID-19 = yes: Antigen(yes, yes) = p is tuned, Antigen(yes, no) = 0.58.
    joint_yes = (
        Fraction("0.05")
        * (Fraction("0.698") * p + Fraction("0.302") * Fraction("0.58"))
        * q
    )
    expected = joint_no / (joint_no + joint_yes)
    assert expected == Fraction(57760000, 6435303613)

    pbn = build_covid_pbn()
    chain, spec = compile_tailored(pbn, build_covid_constraint())
    reach = reach_prob(chain, {"p": 0.92075, "q": 0.97475}, spec.targets)
    assert reach == pytest.approx(float(expected), abs=1e-5)


def test_criterion_05_verdict_soundness(corpus):
    """Accepting verdicts hold at 1000/1000 samples; Rejecting at 0/1000."""
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 1)
    conclusive = 0
    for pbn, constraint, region, _chain, _spec, _verifier, verdict in corpus:
        if verdict is Verdict.INCONCLUSIVE:
            continue
        conclusive += 1
        for u in region_samples(rng, region, 1000):
            posterior = infer(
                instantiate(pbn, u), constraint.hypothesis, constraint.evidence
            )
            satisfied = constraint.satisfied_by(posterior)
            assert satisfied == (verdict is Verdict.ACCEPTING)
    assert conclusive >= 10  # the property must actually bite
    assert time.perf_counter() - started < 300.0


def test_criterion_06_bounds_sandwich(corpus):
    """Region bounds bracket the exact reach value at 100 samples per region."""
    rng = random.Random(CORPUS_SEED + 2)
    for _pbn, _constraint, region, chain, spec, verifier, _verdict in corpus:
        low, high = verifier.bounds(region)
        for u in region_samples(rng, region, 100):
            exact = reach_prob(chain, u, spec.targets)
            assert low - 1e-8 <= exact <= high + 1e-8


@pytest.mark.parametrize("eta", [Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000)])
def test_criterion_07_coverage_contract(eta):
    """Unknown volume <= (1 - eta) * total, and the boxes tile the space."""
    toy = build_toy_pbn()
    chain, spec = compile_tailored(
        toy, Constraint((("T", "yes"),), (), "<=", Fraction(1, 2))
    )
    space = toy.space()
    result = partition(chain, spec, space, eta)
    unknown = sum((box.volume() for box in result.unknown), Fraction(0))
    assert float(unknown) <= float((1 - eta) * space.volume()) + 1e-9
    tiled = sum(
        (box.volume() for box in result.accepting + result.rejecting + result.unknown),
        Fraction(0),
    )
    assert tiled == space.volume()

    # The same contract on a two-parameter model.
    covid = build_covid_pbn()
    chain2, spec2 = compile_tailored(covid, build_covid_constraint())
    space2 = covid.space()
    result2 = partition(chain2, spec2, space2, Fraction(9, 10))
    unknown2 = sum((box.volume() for box in result2.unknown), Fraction(0))
    assert float(unknown2) <= float(Fraction(1, 10) * space2.volume()) + 1e-9
    tiled2 = sum(
        (b.volume() for b in result2.accepting + result2.rejecting + result2.unknown),
        Fraction(0),
    )
    assert tiled2 == space2.volume()


def _grid_points(region, total=10_000):
    """Axis-aligned grid of roughly ``total`` points covering the region."""
    count = math.ceil(total ** (1 / len(region.params)))
    axes = [np.linspace(float(lb), float(ub), count) for lb, ub in region.intervals]
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _euclidean(grids, origin, names):
    squares = np.zeros_like(grids[0])
    for grid, name in zip(grids, names):
        squares += (grid - float(origin[name])) ** 2
    return np.sqrt(squares)


def _log_ratio(grids, origin, names):
    high = np.ones_like(grids[0])
    low = np.ones_like(grids[0])
    for grid, name in zip(grids, names):
        pivot = float(origin[name])
        up = grid / pivot
        down = (1.0 - grid) / (1.0 - pivot)
        high = np.maximum(high, np.maximum(up, down))
        low = np.minimum(low, np.minimum(up, down))
    return np.log(high) - np.log(low)


def test_criterion_08_candidate_beats_grid():
    """The clamped candidate is distance-minimal against 10^4 grid samples."""
    rng = random.Random(908)
    for measure, sample_distance in (("ec", _euclidean), ("cd", _log_ratio)):
        for _ in range(500):
            net = random_net(rng)
            if measure == "ec":
                pbn = random_parametrization(rng, net)
            else:
                pbn = random_single_cpt_parametrization(rng, net)
            region = random_region(rng, pbn)
            u0 = pbn.origin_instantiation()
            candidate, dist = minimal_instantiation(pbn, [region], measure=measure)
            names = region.params
            grid_dists = sample_distance(_grid_points(region), u0, names)
            candidate_dist = sample_distance(
                [np.array([float(candidate[n])]) for n in names], u0, names
            )[0]
            assert candidate_dist <= grid_dists.min()
            assert candidate_dist == pytest.approx(dist, abs=1e-9)


def test_criterion_09_cd_expansion_vertices():
    """CD boxes stay within radius and the closed form matches the joint ratio."""
    rng = random.Random(31)
    for _ in range(25):
        net = random_net(rng)
        pbn = random_single_cpt_parametrization(rng, net)
        u0 = pbn.origin_instantiation()
        base = instantiate(pbn, u0)
        for epsilon in (0.05, 0.2, 0.8):
            region = expand_region_cd(pbn, u0, epsilon)
            for vertex in region.vertices():
                closed_form = distance_cd(pbn, vertex)
                assert closed_form <= epsilon + 1e-9
                exact = cd_exact(base, instantiate(pbn, vertex))
                assert closed_form == pytest.approx(exact, abs=1e-9)


def test_criterion_10_infeasible_single_verification():
    """An unreachable threshold at full coverage: one final full-space check."""
    pbn = build_covid_pbn()
    constraint = Constraint(
        (("COVID-19", "no"),),
        (("Antigen", "pos"), ("PCR", "pos")),
        "<=",
        Fraction(0),
    )
    result = tune(pbn, constraint, hyper=Hyper(eta=Fraction(1)))
    assert result.status is Status.INFEASIBLE
    final = result.iterations[-1]
    assert final.region == pbn.space()
    assert final.verifications == 1


def test_smoke_large_chain_tune():
    """A 30-node synthetic chain with 2 parameters tunes in under 5 minutes."""
    from bntune.bn import net_from_tables, parametrize

    variables = [("V0", ("yes", "no"), ())]
    tables = {"V0": {(): ("0.5", "0.5")}}
    for i in range(1, 30):
        variables.append((f"V{i}", ("yes", "no"), (f"V{i-1}",)))
        tables[f"V{i}"] = {
            ("yes",): ("0.95", "0.05"),
            ("no",): ("0.05", "0.95"),
        }
    net = net_from_tables(variables, tables)
    coords = [("V0", (), 0), ("V15", ("yes",), 0)]
    pbn = parametrize(net, coords, {coords[0]: "x", coords[1]: "y"})

    probe = Constraint((("V29", "yes"),), (("V5", "yes"),), "<=", Fraction(1))
    chain, spec = compile_tailored(pbn, probe)
    baseline = reach_prob(chain, pbn.origin_instantiation(), spec.targets)
    threshold = Fraction(baseline).limit_denominator(10**6) - Fraction(5, 1000)
    constraint = Constraint((("V29", "yes"),), (("V5", "yes"),), "<=", threshold)

    started = time.perf_counter()
    result = tune(pbn, constraint)
    elapsed = time.perf_counter() - started
    assert result.status is Status.TUNED
    chain2, spec2 = compile_tailored(pbn, constraint)
    assert reach_prob(chain2, result.instantiation, spec2.targets) <= float(threshold)
    assert elapsed < 300.0
