"""Tests for distance measures, candidate boxes, and the tuning loop."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from bntune import lifting, refine
from bntune.bn import Constraint, parametrize
from bntune.errors import EmptyInput, UnsupportedForCD
from bntune.formats import parse_param_spec
from bntune.oracle import cd_exact, infer
from bntune.pmc import compile_tailored
from bntune.bn import instantiate
from bntune.poly import Region, as_fraction
from bntune.tune import (
    Hyper,
    Status,
    d0_upper,
    distance_cd,
    distance_ec,
    expand_region_cd,
    expand_region_ec,
    minimal_instantiation,
    tune,
)

from conftest import covid_posterior, covid_tune_requests


def holds(region: Region, u) -> bool:
    """Whether every coordinate of ``u`` lies in its interval of ``region``."""
    return all(lb <= u[name] <= ub for name, (lb, ub) in zip(region.params, region.intervals))


# ---------------------------------------------------------------------------
# distance measures
# ---------------------------------------------------------------------------


def test_distance_ec_at_origin_is_zero(covid_pbn):
    u0 = {"p": 0.72, "q": 0.95}
    assert distance_ec(covid_pbn, u0) == 0.0


def test_distance_ec_single_axis(toy_pbn):
    assert distance_ec(toy_pbn, {"x": 0.5}) == pytest.approx(0.1, abs=1e-12)


def test_distance_ec_known_point(covid_pbn):
    # Euclidean distance from (0.72, 0.95) to (0.92075, 0.97475); the squared
    # value is the quantity compared against tuning quality targets.
    d = distance_ec(covid_pbn, {"p": 0.92075, "q": 0.97475})
    assert d * d == pytest.approx(0.040913125, abs=1e-12)
    assert d == pytest.approx(math.sqrt(0.20075**2 + 0.02475**2), abs=1e-12)


def _single_row_pbn(values=("0.5", "0.5"), intervals=None):
    """One-node pBN whose only CPT row is tunable (CD-compatible)."""
    from bntune.bn import net_from_tables

    net = net_from_tables(
        [("T", ("yes", "no"), ())],
        {"T": {(): tuple(values)}},
    )
    return parametrize(net, [("T", (), 0)], {("T", (), 0): "x"}, intervals)


def test_distance_cd_symmetric_row():
    pbn = _single_row_pbn()
    d = distance_cd(pbn, {"x": 0.6})
    # ratios 0.6/0.5 and 0.4/0.5 -> log(1.2) - log(0.8) = log(1.5)
    assert d == pytest.approx(math.log(1.5), abs=1e-12)


def test_distance_cd_matches_joint_oracle():
    pbn = _single_row_pbn()
    u = {"x": 0.6}
    d = distance_cd(pbn, u)
    exact = cd_exact(
        instantiate(pbn, pbn.origin_instantiation()), instantiate(pbn, u)
    )
    assert d == pytest.approx(exact, abs=1e-9)


def test_distance_cd_at_origin_is_zero():
    pbn = _single_row_pbn()
    assert distance_cd(pbn, {"x": 0.5}) == 0.0


def test_distance_cd_asymmetric_row():
    pbn = _single_row_pbn(("0.72", "0.28"))
    d = distance_cd(pbn, {"x": 0.92075})
    expected = math.log(0.92075 / 0.72) - math.log(0.07925 / 0.28)
    assert d == pytest.approx(expected, abs=1e-12)


def test_distance_cd_rejects_multiple_cpts(covid_pbn):
    # p and q live in different CPTs; the CD measure only supports one.
    with pytest.raises(UnsupportedForCD):
        distance_cd(covid_pbn, {"p": 0.8, "q": 0.96})


# ---------------------------------------------------------------------------
# d0 upper bounds
# ---------------------------------------------------------------------------


def test_d0_upper_ec_is_sqrt_dimension(toy_pbn, covid_pbn):
    assert d0_upper(toy_pbn, measure="ec") == 1.0
    assert d0_upper(covid_pbn, measure="ec") == math.sqrt(2)


def test_d0_upper_cd_from_entry_extremes():
    # Row (0.72, 0.28) with parameter range (delta, 1-delta): the worst case
    # pushes the first entry to 1-delta and the second to delta.
    pbn = _single_row_pbn(("0.72", "0.28"))
    delta = 1e-6
    expected = math.log((1 - delta) / 0.28) - math.log(delta / 0.72)
    got = d0_upper(pbn, measure="cd")
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(14.759971166804625, abs=1e-9)


def test_d0_upper_cd_rejects_multiple_cpts(covid_pbn):
    with pytest.raises(UnsupportedForCD):
        d0_upper(covid_pbn, measure="cd")


def test_d0_upper_unknown_measure(toy_pbn):
    with pytest.raises(ValueError):
        d0_upper(toy_pbn, measure="manhattan")


# ---------------------------------------------------------------------------
# candidate regions around the origin
# ---------------------------------------------------------------------------


def test_expand_region_ec_single_parameter(toy_pbn):
    region = expand_region_ec(toy_pbn, toy_pbn.origin_instantiation(), 0.1)
    lo, hi = region.interval("x")
    assert float(lo) == pytest.approx(0.3, abs=1e-15)
    assert float(hi) == pytest.approx(0.5, abs=1e-15)


_HALF = Fraction(0.2 / math.sqrt(2))


@pytest.mark.parametrize(
    "interval,epsilon,want",
    [
        # A huge radius saturates both ends of both declared intervals.
        ("0.2, 0.9", 5.0, (
            (Fraction(1, 5), Fraction(9, 10)),
            (Fraction(1, 10**6), 1 - Fraction(1, 10**6)),
        )),
        # The origin 0.72 lies above [0.1, 0.2] and the radius box misses it:
        # no declared point lies within the radius.
        ("0.1, 0.2", 0.05, None),
        # The radius box reaches into [0.1, 0.65]: their meet is the box that
        # clamping the origin to 0.65 first would give.
        ("0.1, 0.65", 0.2, (
            (Fraction(18, 25) - _HALF, Fraction(13, 20)),
            (Fraction(19, 20) - _HALF, 1 - Fraction(1, 10**6)),
        )),
    ],
    ids=["saturates", "misses", "origin-outside"],
)
def test_expand_region_ec_meets_the_declared_box(covid_net, interval, epsilon, want):
    params = f"""
        param p {{ entry: Antigen(yes, yes): pos; interval: {interval}; }}
        param q {{ entry: PCR(yes): pos; }}
    """
    pbn = parse_param_spec(params, covid_net)
    region = expand_region_ec(pbn, pbn.origin_instantiation(), epsilon)
    assert (None if region is None else region.intervals) == want


def test_expand_region_ec_zero_radius_is_origin(toy_pbn):
    region = expand_region_ec(toy_pbn, toy_pbn.origin_instantiation(), 0)
    assert region.interval("x") == (Fraction(2, 5), Fraction(2, 5))
    assert holds(region, toy_pbn.origin_instantiation())


def test_expand_region_ec_two_parameters(covid_pbn):
    # Radius is split across axes: halfwidth epsilon / sqrt(2) on each.
    u0 = covid_pbn.origin_instantiation()
    region = expand_region_ec(covid_pbn, u0, 0.125)
    half = 0.125 / math.sqrt(2)
    p_lo, p_hi = region.interval("p")
    q_lo, q_hi = region.interval("q")
    assert float(p_lo) == pytest.approx(0.72 - half, abs=1e-15)
    assert float(p_hi) == pytest.approx(0.72 + half, abs=1e-15)
    assert float(q_lo) == pytest.approx(0.95 - half, abs=1e-15)
    # 0.95 + half exceeds the declared upper bound 1 - delta, so it clamps.
    assert q_hi == 1 - Fraction(1, 10**6)
    assert holds(region, u0)


def test_expand_region_ec_monotone_in_radius(covid_pbn):
    u0 = covid_pbn.origin_instantiation()
    small = expand_region_ec(covid_pbn, u0, 0.05)
    large = expand_region_ec(covid_pbn, u0, 0.2)
    for name in ("p", "q"):
        s_lo, s_hi = small.interval(name)
        l_lo, l_hi = large.interval(name)
        assert l_lo <= s_lo <= s_hi <= l_hi


def test_expand_region_ec_vertices_within_radius(covid_pbn):
    u0 = covid_pbn.origin_instantiation()
    region = expand_region_ec(covid_pbn, u0, 0.125)
    for vertex in region.vertices():
        assert distance_ec(covid_pbn, vertex) <= 0.125 + 1e-12


def test_expand_region_cd_symmetric_pivot():
    pbn = _single_row_pbn()
    region = expand_region_cd(pbn, pbn.origin_instantiation(), 0.2)
    lo, hi = region.interval("x")
    assert float(lo) == pytest.approx(0.45241870901797976, abs=1e-15)
    assert float(hi) == pytest.approx(0.5475812909820202, abs=1e-15)


def test_expand_region_cd_skewed_pivot():
    # Pivot 0.9: the upper end is limited by the complementary entry's ratio
    # (1 - 0.9*e^{eps/2} would leave the complement too small), not by the
    # declared interval.
    pbn = _single_row_pbn(("0.9", "0.1"))
    region = expand_region_cd(pbn, pbn.origin_instantiation(), 1.0)
    lo, hi = region.interval("x")
    assert float(lo) == pytest.approx(0.8351278729299872, abs=1e-15)
    assert float(hi) == pytest.approx(0.9393469340287367, abs=1e-15)
    assert float(hi) == pytest.approx(1 - 0.1 / math.exp(0.5), abs=1e-12)


@pytest.mark.parametrize("pivot,eps", [("0.5", 0.2), ("0.9", 1.0), ("0.72", 0.4)])
def test_expand_region_cd_vertices_within_radius(pivot, eps):
    pbn = _single_row_pbn((pivot, str(1 - Fraction(pivot))))
    region = expand_region_cd(pbn, pbn.origin_instantiation(), eps)
    for vertex in region.vertices():
        assert distance_cd(pbn, vertex) <= eps + 1e-9


@pytest.mark.parametrize(
    "pivot,interval,epsilon,want",
    [
        # The box around the origin 0.5 misses [0.1, 0.2].
        ("0.5", (Fraction(1, 10), Fraction(1, 5)), 0.2, None),
        # It reaches into [0.1, 0.47], the origin still outside.
        ("0.5", (Fraction(1, 10), Fraction(47, 100)), 0.2,
         ((Fraction(0.5 / math.exp(0.1)), Fraction(47, 100)),)),
        # At radius zero the float ends round past 1/10; the box is the origin.
        ("0.1", None, 0.0, ((Fraction(1, 10), Fraction(1, 10)),)),
    ],
    ids=["misses", "origin-outside", "zero-radius"],
)
def test_expand_region_cd_meets_the_declared_box(pivot, interval, epsilon, want):
    pbn = _single_row_pbn((pivot, str(1 - Fraction(pivot))), interval and {"x": interval})
    region = expand_region_cd(pbn, pbn.origin_instantiation(), epsilon)
    assert (None if region is None else region.intervals) == want


def test_expand_region_cd_rejects_multiple_cpts(covid_pbn):
    with pytest.raises(UnsupportedForCD):
        expand_region_cd(covid_pbn, covid_pbn.origin_instantiation(), 0.1)


# ---------------------------------------------------------------------------
# minimal instantiation over accepted boxes
# ---------------------------------------------------------------------------


def test_minimal_instantiation_projects_origin(covid_pbn):
    box = Region.from_bounds(
        {"p": ("0.960375", "0.97028175"), "q": ("0.9431875", "0.9495")}
    )
    point, dist = minimal_instantiation(covid_pbn, [box], measure="ec")
    assert point == {"p": as_fraction("0.960375"), "q": as_fraction("0.9495")}
    assert dist == pytest.approx(math.hypot(0.960375 - 0.72, 0.95 - 0.9495), abs=1e-12)


def test_minimal_instantiation_origin_inside_box(covid_pbn):
    u0 = covid_pbn.origin_instantiation()
    box = Region.from_bounds({"p": ("0.7", "0.8"), "q": ("0.9", "0.96")})
    point, dist = minimal_instantiation(covid_pbn, [box], measure="ec")
    assert point == dict(u0)
    assert dist == 0.0


def test_minimal_instantiation_picks_best_box(covid_pbn):
    far = Region.from_bounds(
        {"p": ("0.960375", "0.97028175"), "q": ("0.9431875", "0.9495")}
    )
    winner = Region.from_bounds(
        {"p": ("0.92075", "0.960375"), "q": ("0.97475", "0.999999")}
    )
    point, dist = minimal_instantiation(covid_pbn, [far, winner], measure="ec")
    assert point == {"p": as_fraction("0.92075"), "q": as_fraction("0.97475")}
    assert dist * dist == pytest.approx(0.040913125, abs=1e-12)


def test_minimal_instantiation_tie_keeps_earliest(toy_pbn):
    # 0.4 - 0.25 and 0.55 - 0.4 are the same float, so this is an exact tie.
    left = Region.from_bounds({"x": ("0.2", "0.25")})
    right = Region.from_bounds({"x": ("0.55", "0.6")})
    point, dist = minimal_instantiation(toy_pbn, [left, right], measure="ec")
    assert point == {"x": as_fraction("0.25")}
    assert dist == pytest.approx(0.15, abs=1e-12)


def test_minimal_instantiation_cd_measure():
    pbn = _single_row_pbn()
    box = Region.from_bounds({"x": ("0.6", "0.7")})
    point, dist = minimal_instantiation(pbn, [box], measure="cd")
    assert point == {"x": as_fraction("0.6")}
    assert dist == pytest.approx(math.log(1.5), abs=1e-12)


def test_minimal_instantiation_requires_boxes(toy_pbn):
    with pytest.raises(EmptyInput):
        minimal_instantiation(toy_pbn, [], measure="ec")


# ---------------------------------------------------------------------------
# the tuning loop
# ---------------------------------------------------------------------------


def test_tune_already_satisfied(toy_pbn):
    constraint = Constraint((("T", "yes"),), (), "<=", Fraction(45, 100))
    result = tune(toy_pbn, constraint)
    assert result.status is Status.SATISFIED
    assert result.instantiation == dict(toy_pbn.origin_instantiation())
    assert result.distance == 0.0
    assert result.epsilon_final is None
    assert result.iterations == ()
    assert result.probability == pytest.approx(0.4, abs=1e-12)


def test_tune_covid_euclidean_defaults(covid_pbn, covid_constraint):
    result = tune(covid_pbn, covid_constraint)
    assert result.status is Status.TUNED
    assert result.measure == "ec"
    assert result.d0 == pytest.approx(math.sqrt(2), abs=1e-12)
    # Pinned outcome of the default coverage factor, eta = 0.99.
    d2 = result.distance**2
    assert d2 == pytest.approx(0.03393790957125098, rel=1e-9)
    assert result.probability == pytest.approx(0.008993168210347551, rel=1e-9)
    assert result.probability <= 0.009
    assert len(result.iterations) == 4
    # The found instantiation must satisfy the constraint per the exact oracle.
    net = instantiate(covid_pbn, result.instantiation)
    posterior = infer(net, covid_constraint.hypothesis, covid_constraint.evidence)
    assert posterior <= 0.009
    assert posterior == pytest.approx(
        covid_posterior(
            float(result.instantiation["p"]), float(result.instantiation["q"])
        ),
        abs=1e-12,
    )
    # Distance never exceeds the radius of the last candidate region.
    assert result.distance <= float(result.epsilon_final) + 1e-12


def test_tune_covid_lower_bound_direction(covid_pbn):
    constraint = Constraint(
        (("COVID-19", "no"),),
        (("Antigen", "pos"), ("PCR", "pos")),
        ">=",
        Fraction(2, 100),
    )
    result = tune(covid_pbn, constraint)
    assert result.status is Status.TUNED
    assert result.probability >= 0.02
    assert result.probability == pytest.approx(0.020025425289304153, rel=1e-6)
    net = instantiate(covid_pbn, result.instantiation)
    assert infer(net, constraint.hypothesis, constraint.evidence) >= 0.02


def test_tune_covid_cd_measure(covid_net, covid_constraint):
    # Both tunable rows live in the PCR table, so the CD measure applies.
    rows = [("PCR", ("yes",), 0), ("PCR", ("no",), 0)]
    pbn = parametrize(covid_net, rows, {rows[0]: "q", rows[1]: "r"})
    result = tune(
        pbn, covid_constraint, measure="cd", hyper=Hyper(eta=Fraction(9, 10))
    )
    assert result.status is Status.TUNED
    assert result.measure == "cd"
    assert result.distance == pytest.approx(0.25750661700409927, rel=1e-6)
    net = instantiate(pbn, result.instantiation)
    posterior = infer(net, covid_constraint.hypothesis, covid_constraint.evidence)
    assert posterior <= 0.009
    assert distance_cd(pbn, result.instantiation) == pytest.approx(
        result.distance, abs=1e-12
    )


def test_tune_infeasible(covid_pbn):
    # Probability zero is unreachable: the numerator is a positive constant.
    constraint = Constraint(
        (("COVID-19", "no"),),
        (("Antigen", "pos"), ("PCR", "pos")),
        "<=",
        Fraction(0),
    )
    result = tune(covid_pbn, constraint, hyper=Hyper(eta=Fraction(1)))
    assert result.status is Status.INFEASIBLE
    assert result.instantiation is None
    assert result.distance is None
    # Every iteration conclusively rejects its whole candidate region in a
    # single verification call.
    assert len(result.iterations) == 6
    assert [it.verifications for it in result.iterations] == [1] * 6
    assert all(it.accepting == 0 for it in result.iterations)


def test_tune_infeasible_with_a_wide_declared_interval(covid_net):
    # p may come closer to 0 and 1 than the default interval [1e-6, 1 - 1e-6]
    # allows; the last candidate box must still be the whole declared box.
    params = """
        param p { entry: Antigen(yes, yes): pos; interval: 1e-9, 0.999999999; }
        param q { entry: PCR(yes): pos; }
    """
    pbn = parse_param_spec(params, covid_net)
    assert pbn.interval("p") == (Fraction(1, 10**9), 1 - Fraction(1, 10**9))
    constraint = Constraint(
        (("COVID-19", "no"),), (("Antigen", "pos"), ("PCR", "pos")), "<=", Fraction(0)
    )
    result = tune(pbn, constraint)
    assert result.status is Status.INFEASIBLE
    assert result.iterations[-1].region == pbn.space()


def test_tune_infeasible_under_cd(covid_net):
    # The cd expander never reaches the declared box, even at radius d0; the
    # schedule's last box is the declared box itself.
    rows = [("PCR", ("yes",), 0), ("PCR", ("no",), 0)]
    pbn = parametrize(covid_net, rows, {rows[0]: "q", rows[1]: "r"})
    assert expand_region_cd(pbn, pbn.origin_instantiation(), d0_upper(pbn, "cd")) != pbn.space()
    constraint = Constraint(
        (("COVID-19", "no"),), (("Antigen", "pos"), ("PCR", "pos")), "<=", Fraction(0)
    )
    result = tune(pbn, constraint, measure="cd")
    assert result.status is Status.INFEASIBLE
    assert result.iterations[-1].region == pbn.space()


def test_tune_with_the_origin_outside_its_interval(covid_net):
    # p's original value 0.72 lies above its declared interval [0.1, 0.2].
    # Every radius box before the last misses [0.1, 0.2], so those steps are
    # skipped and only the declared box is partitioned.
    params = """
        param p { entry: Antigen(yes, yes): pos; interval: 0.1, 0.2; }
        param q { entry: PCR(yes): pos; }
    """
    pbn = parse_param_spec(params, covid_net)
    evidence = (("Antigen", "pos"), ("PCR", "pos"))
    raised = Constraint((("COVID-19", "no"),), evidence, ">=", Fraction(2, 100))
    result = tune(pbn, raised)
    assert result.status is Status.TUNED
    assert result.instantiation == {"p": Fraction(1, 5), "q": Fraction(19, 20)}
    assert result.distance == pytest.approx(0.52)
    assert result.distance <= result.epsilon_final == d0_upper(pbn)
    assert [it.region for it in result.iterations] == [pbn.space()]
    # With [0.1, 0.65] the first two steps miss and the next two run.
    wider = parse_param_spec(params.replace("0.1, 0.2", "0.1, 0.65"), covid_net)
    result = tune(wider, raised)
    assert result.status is Status.TUNED
    assert len(result.iterations) == 2
    assert result.distance <= result.epsilon_final < d0_upper(wider)
    lowered = Constraint((("COVID-19", "no"),), evidence, "<=", Fraction(9, 1000))
    result = tune(pbn, lowered)
    assert result.status is Status.INFEASIBLE
    space = pbn.space()
    for it in result.iterations:
        assert all(
            dlb <= lb <= ub <= dub
            for (lb, ub), (dlb, dub) in zip(it.region.intervals, space.intervals)
        )


def test_tune_unknown_when_coverage_unreachable(toy_pbn):
    # lambda = 0.2 sits exactly at the image of the left boundary x = 0.2, so
    # boxes touching it never classify; a small guard gives up quickly.
    constraint = Constraint((("T", "yes"),), (), "<=", Fraction(2, 10))
    result = tune(toy_pbn, constraint, hyper=Hyper(guard=64))
    assert result.status is Status.UNKNOWN
    assert result.instantiation is None
    assert result.distance is None
    assert result.iterations  # it tried before giving up


def test_tune_skips_a_repeated_box_when_unknown(toy_pbn):
    # From radius 0.25 on, every step clamps to the declared box [0.2, 0.6];
    # partitioning it again with the same verifier would spend the same 2000
    # verifications for the same partial result.
    constraint = Constraint((("T", "yes"),), (), "<=", Fraction(2, 10))
    result = tune(toy_pbn, constraint, hyper=Hyper(guard=2000))
    assert result.status is Status.UNKNOWN
    assert [it.verifications for it in result.iterations] == [1, 1, 1, 2000]
    assert [it.epsilon for it in result.iterations] == [1 / 32, 1 / 16, 1 / 8, 1 / 4]
    assert result.iterations[-1].region == toy_pbn.space()


def test_tune_skips_a_repeated_box_when_infeasible(toy_pbn):
    # The declared box, reached at radius 0.25, is proven fully rejecting
    # once; the schedule's last step, the declared box itself, is not rerun.
    constraint = Constraint((("T", "yes"),), (), "<=", Fraction(1, 10))
    result = tune(toy_pbn, constraint)
    assert result.status is Status.INFEASIBLE
    assert len(result.iterations) == 4
    assert result.iterations[-1].region == toy_pbn.space()
    assert result.iterations[-1].coverage == 1
    regions = [it.region for it in result.iterations]
    assert len(set(regions)) == len(regions)


def test_tune_toy_distance_near_optimum(toy_pbn):
    # Satisfying P(T=yes) <= 0.3 needs x <= 0.3: optimal move is 0.1.
    constraint = Constraint((("T", "yes"),), (), "<=", Fraction(3, 10))
    result = tune(toy_pbn, constraint)
    assert result.status is Status.TUNED
    assert 0.1 <= result.distance <= 0.11
    assert float(result.instantiation["x"]) <= 0.3
    assert result.probability <= 0.3


def test_tune_rejects_unknown_measure(toy_pbn):
    constraint = Constraint((("T", "yes"),), (), "<=", Fraction(3, 10))
    with pytest.raises(ValueError):
        tune(toy_pbn, constraint, measure="l1")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta": Fraction(3, 2)},
        {"eta": Fraction(-1, 10)},
        {"eta": Fraction(1, 2), "guard": -1},
        {"eta": Fraction(101, 100)},
        {"guard": -5},
        {"guard": 0},
    ],
)
def test_hyper_validation(kwargs):
    with pytest.raises(ValueError):
        Hyper(**kwargs)


def test_hyper_reads_eta_as_partition_does():
    # Stored as as_fraction reads it: a string or a float means its decimal.
    assert Hyper(eta="0.9").eta == Fraction(9, 10)
    eta = Hyper(eta=0.1).eta
    assert type(eta) is Fraction and eta == Fraction(1, 10)


@pytest.mark.parametrize(
    "eta, guard, message",
    [
        ("1.5", 1, "eta must be within [0, 1], got 3/2"),
        (-0.1, 1, "eta must be within [0, 1], got -1/10"),
        (Fraction(1, 2), 0, "guard must allow at least one verification, got 0"),
    ],
    ids=["eta-string", "eta-float", "guard"],
)
def test_hyper_and_partition_check_the_limits_alike(covid_pbn, covid_constraint, eta, guard, message):
    chain, spec = compile_tailored(covid_pbn, covid_constraint)
    for check in (
        lambda: Hyper(eta, guard),
        lambda: refine.partition(chain, spec, covid_pbn.space(), eta, guard=guard),
    ):
        with pytest.raises(ValueError) as raised:
            check()
        assert str(raised.value) == message


def test_tune_iteration_stats_shape(covid_pbn, covid_constraint):
    result = tune(covid_pbn, covid_constraint, hyper=Hyper())
    last = result.iterations[-1]
    assert last.verifications >= last.accepting + last.rejecting + last.unknown
    assert 0 <= float(last.coverage) <= 1
    assert float(last.coverage) >= 0.99
    assert float(last.epsilon) > 0
    assert holds(last.region, covid_pbn.origin_instantiation())


def test_tune_verifiers_share_the_corners_of_one_chain(monkeypatch):
    # Each partitioning of a run builds its own verifier, all on the run's
    # one chain, which evaluates each (state, corner) once for all of them
    # across every run on it: the three ec requests share one chain.
    chains = []
    evaluated = 0

    class RecordingVerifier(refine.RegionVerifier):
        def __init__(self, pmc, spec):
            chains.append(pmc)
            super().__init__(pmc, spec)

    original_distribution = lifting._distribution

    def counting_distribution(out, point, memo):
        nonlocal evaluated
        evaluated += 1
        return original_distribution(out, point, memo)

    monkeypatch.setattr(refine, "RegionVerifier", RecordingVerifier)
    monkeypatch.setattr(lifting, "_distribution", counting_distribution)
    runs = []
    for pbn, constraint, measure, hyper in covid_tune_requests():
        chains.clear()
        evaluated = 0
        result = tune(pbn, constraint, measure, hyper)
        assert len(chains) == len(result.iterations) > 0
        (chain,) = {id(c): c for c in chains}.values()
        runs.append((chain, evaluated))
    distinct = {id(chain): chain for chain, _ in runs}
    assert len(distinct) == 2
    assert [evaluated for _, evaluated in runs] == [35, 23, 15, 5]
    assert sum(len(chain._corners) for chain in distinct.values()) == 78
    for chain in distinct.values():
        assert len(chain._corners) == sum(n for c, n in runs if c is chain)
