"""Parameter lifting: relaxation, endpoint substitution, and region verdicts."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from bntune import (
    ONE,
    Polynomial,
    Region,
    compile_chain,
    compile_tailored,
    parametrize,
    reach_prob,
    topological_order,
)
from bntune.bn import Constraint
from bntune.errors import BadRegion, NotWellFormed, TooLarge, UnboundParameter
from bntune import lifting
from bntune.lifting import (
    MARGIN,
    RegionVerifier,
    Verdict,
    relax,
    substitute,
)
from bntune.pmc import PMC, LeveledSolver, ReachSpec, StateLabel, sensitivity_function
from bntune.oracle import infer
from bntune.refine import partition
from bntune.tune import tune
from bntune import instantiate, net_from_tables
from conftest import (
    build_covid_constraint,
    build_covid_net,
    build_covid_pbn,
    build_layered_6x6,
    covid_tune_requests,
    layered_tables,
    random_constraint,
    random_net,
    random_parametrization,
    state_index,
)

X = Polynomial.parameter("x")
C = Polynomial.constant


def toy_chain(toy_pbn):
    pmc = compile_chain(toy_pbn)
    yes = state_index(pmc, 1, (("T", "yes"),))
    return pmc, yes


def toy_box(lo, hi):
    return Region.from_bounds({"x": (Fraction(lo), Fraction(hi))})


def shared_param_chain():
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ("A",))],
        {"A": {(): ("0.3", "0.7")},
         "B": {("a",): ("0.3", "0.7"), ("b",): ("0.5", "0.5")}},
    )
    coords = [("A", (), 0), ("B", ("a",), 0)]
    pbn = parametrize(net, coords, {c: "t" for c in coords})
    return pbn, compile_chain(pbn)


def test_relax_is_identity_for_state_local_parameters(covid_pbn, covid_constraint):
    pmc, _ = compile_tailored(covid_pbn, covid_constraint)
    assert relax(pmc) is pmc
    assert sorted(local for _, local in pmc.lowered.parametric) == [("p",), ("q",)]


def test_relax_copies_parameters_shared_across_states():
    # Each state picks its own corner of the shared parameter, so the chain is
    # kept as it is and both states list ``t`` as their own parameter.
    _, pmc = shared_param_chain()
    assert relax(pmc) is pmc
    assert [local for _, local in pmc.lowered.parametric] == [("t",), ("t",)]
    for s, _ in pmc.lowered.parametric:
        assert pmc.lowered.actions[s] is None


def test_relaxation_bounds_contain_the_shared_parameter_bounds():
    pbn, pmc = shared_param_chain()
    leaf = state_index(pmc, 2, (("B", "a"),))
    box = Region.from_bounds({"t": (Fraction(1, 5), Fraction(2, 5))})
    spec = ReachSpec(frozenset({leaf}), "<=", Fraction(1))
    lo, hi = RegionVerifier(pmc, spec).bounds(box)
    # True range of P(B=a) = t^2 + (1-t)/2 over [0.2, 0.4].
    samples = [Fraction(1, 5) + Fraction(i, 100) for i in range(21)]
    values = [t * t + (1 - t) / 2 for t in samples]
    assert lo <= min(values) and max(values) <= hi
    # The relaxation stays within one-directional slack of the true range.
    assert lo <= float(min(values)) <= lo + 0.08
    assert hi - 0.08 <= float(max(values)) <= hi


def test_substitute_builds_endpoint_actions(toy_pbn):
    pmc, yes = toy_chain(toy_pbn)
    mdp = substitute(relax(pmc), toy_box("1/5", "3/5"))
    assert mdp.actions[pmc.initial] == (
        ((yes, 0.2), (3 - yes, 0.8)),
        ((yes, 0.6), (3 - yes, 0.4)),
    )
    # Leaves keep their single self-loop action.
    assert mdp.actions[yes] == (((yes, 1.0),),)


def test_substitute_screening_example():
    # Tune the antigen false-positive entry for asymptomatic non-carriers:
    # over t in [0.0075, 0.0125] the branching state gets the two endpoint
    # distributions (0.0075, 0.9925) and (0.0125, 0.9875).
    net = build_covid_net()
    coord = ("Antigen", ("no", "no"), 0)
    pbn = parametrize(net, [coord], {coord: "t"})
    pmc, _ = compile_tailored(pbn, build_covid_constraint())
    src = state_index(pmc, 2, (("COVID-19", "no"), ("Symptoms", "no")), hypothesis=True)
    box = Region.from_bounds({"t": (Fraction(75, 10000), Fraction(125, 10000))})
    mdp = substitute(relax(pmc), box)
    weight_sets = {tuple(sorted(w for _, w in action)) for action in mdp.actions[src]}
    assert weight_sets == {(0.0075, 0.9925), (0.0125, 0.9875)}


def test_substitute_enumerates_per_state_combinations():
    y = Polynomial.parameter("y")
    states = (
        StateLabel(0, ()),
        StateLabel(1, (("V", "a"),)),
        StateLabel(1, (("V", "b"),)),
        StateLabel(1, (("V", "c"),)),
    )
    edges = (
        ((1, X), (2, y), (3, ONE - X - y)),
        ((1, ONE),),
        ((2, ONE),),
        ((3, ONE),),
    )
    params = (("x", (Fraction(1, 10), Fraction(2, 10))), ("y", (Fraction(3, 10), Fraction(4, 10))))
    pmc = PMC(states, 0, edges, params)
    box = Region.from_bounds(dict(params))
    mdp = substitute(relax(pmc), box)
    assert len(mdp.actions[0]) == 4
    for action in mdp.actions[0]:
        assert sum(w for _, w in action) == pytest.approx(1.0, abs=1e-12)


def test_substitute_dedups_degenerate_axes(toy_pbn):
    pmc, _ = toy_chain(toy_pbn)
    mdp = substitute(relax(pmc), toy_box("2/5", "2/5"))
    assert len(mdp.actions[pmc.initial]) == 1


def test_substitute_rejects_region_outside_declared_space(toy_pbn):
    pmc, _ = toy_chain(toy_pbn)
    with pytest.raises(BadRegion):
        substitute(relax(pmc), toy_box("1/10", "3/10"))


def test_substitute_rejects_missing_parameters(toy_pbn):
    pmc, _ = toy_chain(toy_pbn)
    with pytest.raises(UnboundParameter):
        substitute(relax(pmc), Region.from_bounds({"y": (Fraction(1, 4), Fraction(1, 2))}))


# -- the declared-box check, made once per box tree -----------------------------


def toy_verifier(lo: str, hi: str) -> RegionVerifier:
    """A verifier of Pr(T = yes) <= 1/2 on the toy net, with x declared in [lo, hi]."""
    net = net_from_tables([("T", ("yes", "no"), ())], {"T": {(): ("0.4", "0.6")}})
    coord = ("T", (), 0)
    pbn = parametrize(net, [coord], {coord: "x"}, intervals={"x": (Fraction(lo), Fraction(hi))})
    pmc, yes = toy_chain(pbn)
    return RegionVerifier(pmc, ReachSpec(frozenset({yes}), "<=", Fraction(1, 2)))


def assert_rejected(verifier: RegionVerifier, box: Region, error=BadRegion) -> None:
    with pytest.raises(error):
        substitute(verifier.pmc, box)
    with pytest.raises(error):
        verifier.verify(box)


def test_a_constructed_box_is_checked_after_halves_of_the_declared_box():
    verifier = toy_verifier("1/5", "3/5")
    for half in toy_box("1/5", "3/5").split(0):
        verifier.verify(half)
    assert_rejected(verifier, toy_box("1/10", "2/5"))
    assert_rejected(verifier, toy_box("2/5", "7/10"))


def test_halves_of_a_box_never_checked_are_checked():
    verifier = toy_verifier("1/5", "3/5")
    left, right = toy_box("1/10", "3/10").split(0)
    assert_rejected(verifier, left)
    # The other half, [1/5, 3/10], lies inside the declared box.
    assert verifier.verify(right) is Verdict.ACCEPTING
    # A box that failed its check passes no mark to its halves either.
    outside = toy_box("1/10", "1/5")
    assert_rejected(verifier, outside)
    for half in outside.split(0):
        assert_rejected(verifier, half)
    # Halves split along another axis keep the offending one.
    pmc, spec = compile_tailored(build_covid_pbn(), build_covid_constraint())
    covid = RegionVerifier(pmc, spec)
    box = Region.from_bounds({"p": ("1e-7", "0.5"), "q": ("0.5", "0.75")})
    for half in box.split(1):
        assert_rejected(covid, half)
    unbound = Region.from_bounds({"q": ("0.5", "0.75"), "r": ("0.5", "0.75")})
    for half in unbound.split(0):
        assert_rejected(covid, half, UnboundParameter)


def test_a_box_checked_against_one_chain_is_checked_again_against_a_narrower_one():
    wide, narrow = toy_verifier("1/5", "3/5"), toy_verifier("3/10", "1/2")
    box = toy_box("1/5", "3/5")
    halves = box.split(0)
    for checked in (box, *halves):
        wide.verify(checked)
    for checked in (box, *halves):
        assert_rejected(narrow, checked)


def test_substitute_rejects_weights_leaving_the_unit_interval():
    states = (StateLabel(0, ()), StateLabel(1, (("V", "a"),)), StateLabel(1, (("V", "b"),)))
    edges = (((1, C(2) * X), (2, ONE - C(2) * X)), ((1, ONE),), ((2, ONE),))
    pmc = PMC(states, 0, edges, (("x", (Fraction(4, 10), Fraction(6, 10))),))
    with pytest.raises(NotWellFormed):
        substitute(relax(pmc), toy_box("2/5", "3/5"))


def test_constant_weight_error_comes_from_relax_and_the_constructor():
    # s1 is parameter-free, so its weight 3/2 is checked once per chain, by
    # relax, before any box is given.
    states = (StateLabel(0, ()), StateLabel(1, (("V", "a"),)), StateLabel(1, (("V", "b"),)),
              StateLabel(2, (("W", "a"),)), StateLabel(2, (("W", "b"),)))
    edges = (((1, X), (2, ONE - X)), ((3, C(Fraction(3, 2))),), ((4, ONE),), ((3, ONE),),
             ((4, ONE),))
    pmc = PMC(states, 0, edges, (("x", (Fraction(1, 5), Fraction(3, 5))),))
    with pytest.raises(NotWellFormed):
        relax(pmc)
    with pytest.raises(NotWellFormed):
        RegionVerifier(pmc, ReachSpec(frozenset({3}), "<=", Fraction(1, 2)))
    # The chain's solver collapses the lowering, so the closed form checks
    # it too.
    with pytest.raises(NotWellFormed):
        sensitivity_function(pmc, {3})
    # Each weight of the row (3/4, 3/4) is within [0, 1], but its mass is
    # not; reach_prob checks a point with the same test as relax.
    three_quarters = C(Fraction(3, 4))
    over_full = PMC(states[:3], 0, (((1, three_quarters), (2, three_quarters)), ((1, ONE),),
                                    ((2, ONE),)), ())
    with pytest.raises(NotWellFormed):
        relax(over_full)
    with pytest.raises(NotWellFormed):
        reach_prob(over_full, {}, {1})


def test_substitute_guards_state_local_parameter_blowup():
    n = 11
    names = [f"x{i}" for i in range(n)]
    rest = ONE
    edges_out = []
    for i, name in enumerate(names):
        poly = Polynomial.parameter(name)
        rest = rest - poly
        edges_out.append((i + 1, poly))
    edges_out.append((n + 1, rest))
    states = tuple(
        [StateLabel(0, ())] + [StateLabel(1, (("V", str(i)),)) for i in range(n + 1)]
    )
    edges = tuple([tuple(edges_out)] + [((i, ONE),) for i in range(1, n + 2)])
    params = tuple((name, (Fraction(1, 100), Fraction(2, 100))) for name in names)
    pmc = PMC(states, 0, edges, params)
    with pytest.raises(TooLarge):
        relax(pmc)


def whole_pass(pmc: PMC, targets) -> LeveledSolver:
    """The uncollapsed solver: every state of the chain stays in the pass."""
    return LeveledSolver(pmc.states, pmc.initial, pmc.edges, targets)


def test_uncollapsed_solver_extremal_on_the_toy_chain(toy_pbn):
    pmc, yes = toy_chain(toy_pbn)
    actions = substitute(relax(pmc), toy_box("1/5", "3/5")).actions
    solver = whole_pass(pmc, {yes})
    assert solver.extremal(actions, True) == pytest.approx(0.6, abs=1e-9)
    assert solver.extremal(actions, False) == pytest.approx(0.2, abs=1e-9)


def test_initial_target_has_value_one(toy_pbn):
    pmc, _ = toy_chain(toy_pbn)
    box = toy_box("1/5", "3/5")
    actions = substitute(relax(pmc), box).actions
    assert whole_pass(pmc, {pmc.initial}).extremal(actions, False) == 1.0
    spec = ReachSpec(frozenset({pmc.initial}), ">=", Fraction(1, 2))
    lo, hi = RegionVerifier(pmc, spec).bounds(box)
    assert 1 - 1e-12 <= lo <= hi == 1.0


def test_non_leveled_chain_is_rejected():
    # s2 steps back to s1 instead of one level down or to the initial state,
    # so the cycle s1 -> s2 -> s1 avoids the initial state.
    states = (StateLabel(0, ()), StateLabel(1, (("V", "a"),)), StateLabel(2, (("W", "a"),)),
              StateLabel(2, (("W", "b"),)))
    half = C(Fraction(1, 2))
    edges = (((1, ONE),), ((2, half), (3, half)), ((1, half), (3, half)), ((3, ONE),))
    pmc = PMC(states, 0, edges, ())
    with pytest.raises(NotWellFormed):
        reach_prob(pmc, {}, {3})
    with pytest.raises(NotWellFormed):
        RegionVerifier(pmc, ReachSpec(frozenset({3}), "<=", Fraction(1, 2)))
    with pytest.raises(NotWellFormed):
        sensitivity_function(pmc, {3})


def restart_corner_chain():
    """The initial state restarts with probability 2x and splits the rest
    evenly between a target and a dead leaf; x in [1/4, 1/2]."""
    states = (StateLabel(0, ()), StateLabel(1, (("V", "a"),)), StateLabel(1, (("V", "b"),)))
    rest = (ONE - C(2) * X) * C(Fraction(1, 2))
    edges = (((0, C(2) * X), (1, rest), (2, rest)), ((1, ONE),), ((2, ONE),))
    return PMC(states, 0, edges, (("x", (Fraction(1, 4), Fraction(1, 2))),))


def test_corner_that_always_restarts_has_value_zero():
    # At x = 1/2 every path restarts forever, so the least fixed point is 0;
    # every other x reaches the target with probability 1/2.
    pmc = restart_corner_chain()
    box = toy_box("1/4", "1/2")
    actions = substitute(relax(pmc), box).actions
    solver = whole_pass(pmc, {1})
    assert solver.extremal(actions, False) == 0.0
    assert solver.extremal(actions, True) == 0.5
    lo, hi = RegionVerifier(pmc, ReachSpec(frozenset({1}), "<=", Fraction(1))).bounds(box)
    assert lo == 0.0 and 0.5 <= hi <= 0.5 + 1e-12


def test_bounds_bracket_exact_corner_values_tightly(covid_pbn, covid_constraint):
    # Each COVID parameter sits in one state, so the box's extremes are at its
    # corners: the padded bounds must contain every corner's exact value and
    # exceed the extremes by no more than rounding.
    pmc, spec = compile_tailored(covid_pbn, covid_constraint)
    form = sensitivity_function(pmc, spec.targets)
    verifier = RegionVerifier(pmc, spec)
    rng = random.Random(300)
    for _ in range(300):
        bounds = {
            name: sorted(Fraction(rng.randint(1, 999), 1000) for _ in range(2))
            for name in ("p", "q")
        }
        box = Region.from_bounds(bounds)
        lo, hi = verifier.bounds(box)
        corners = [form.evaluate({"p": a, "q": b}) for a in bounds["p"] for b in bounds["q"]]
        assert Fraction(lo) <= min(corners) and max(corners) <= Fraction(hi)
        assert Fraction(hi) - max(corners) <= Fraction(1, 10**12)
        assert min(corners) - Fraction(lo) <= Fraction(1, 10**12)


def chain30():
    """The 30-node copy chain with parameters at levels 0 and 15, evidence on V5."""
    variables = [("V0", ("yes", "no"), ())]
    tables = {"V0": {(): ("0.5", "0.5")}}
    for i in range(1, 30):
        variables.append((f"V{i}", ("yes", "no"), (f"V{i - 1}",)))
        tables[f"V{i}"] = {("yes",): ("0.95", "0.05"), ("no",): ("0.05", "0.95")}
    coords = [("V0", (), 0), ("V15", ("yes",), 0)]
    pbn = parametrize(net_from_tables(variables, tables), coords,
                      {coords[0]: "x", coords[1]: "y"})
    return pbn, Constraint((("V29", "yes"),), (("V5", "yes"),), "<=", Fraction(535, 1000))


def restart_heavy_net():
    """A seeded random net whose tailored chain has 25 restart edges and
    parameters shared between states (each state relaxes its own copy)."""
    rng = random.Random(330)
    net = random_net(rng, max_nodes=6)
    pbn = random_parametrization(rng, net)
    return pbn, random_constraint(rng, net)


def random_box(rng: random.Random, pbn) -> Region:
    """A sub-box of the declared space on a 1/1000 grid; some axes degenerate."""
    bounds = {}
    for name in pbn.parameter_names:
        lo, hi = pbn.interval(name)
        ends = sorted(rng.randint(1, 999) for _ in range(2 if rng.random() < 0.9 else 1))
        bounds[name] = tuple(lo + (hi - lo) * Fraction(k, 1000) for k in (ends[0], ends[-1]))
    return Region.from_bounds(bounds)


def reference_bounds(pmc: PMC, targets, region: Region) -> tuple[float, float, float]:
    """Bounds from scratch, and their pad: every weight at every corner in
    Fractions, then float(), solved by the uncollapsed solver."""
    actions = []
    for out in pmc.edges:
        local = sorted({name for _, w in out for name in w.parameters})
        axes = [sorted(set(region.interval(name))) for name in local]
        distributions = {}
        for corner in itertools.product(*axes):
            point = dict(zip(local, corner))
            distributions[tuple((t, float(w.evaluate(point))) for t, w in out)] = None
        actions.append(tuple(distributions))
    solver = whole_pass(pmc, targets)
    pad = solver.pad
    lo = max(solver.extremal(actions, False) * (1 - pad), 0.0)
    hi = min(solver.extremal(actions, True) * (1 + pad), 1.0)
    return lo, hi, pad


def reference_verdict(spec: ReachSpec, lo: float, hi: float) -> Verdict:
    threshold = float(spec.threshold)
    if spec.direction == "<=":
        if hi <= threshold - MARGIN:
            return Verdict.ACCEPTING
        return Verdict.REJECTING if lo > threshold + MARGIN else Verdict.INCONCLUSIVE
    if lo >= threshold + MARGIN:
        return Verdict.ACCEPTING
    return Verdict.REJECTING if hi < threshold - MARGIN else Verdict.INCONCLUSIVE


def exact_corner_extrema(pmc: PMC, targets, region: Region) -> tuple[Fraction, Fraction]:
    """Least and greatest reachability over every corner policy, in Fractions.

    A corner policy gives each state one corner of its own parameters'
    intervals, as the relaxation does.  Each policy is solved exactly by one
    deepest-level-first pass in which a restart reads zero: x = T/E.
    """
    choices = []
    for out in pmc.edges:
        local = sorted({name for _, w in out for name in w.parameters})
        axes = [sorted(set(region.interval(name))) for name in local]
        corners = {
            tuple((t, w.evaluate(dict(zip(local, corner)))) for t, w in out): None
            for corner in itertools.product(*axes)
        }
        choices.append(tuple(corners))
    assert math.prod(map(len, choices)) <= 2**12
    if pmc.initial in targets:
        return Fraction(1), Fraction(1)
    order = sorted(range(pmc.n_states), key=lambda s: pmc.states[s].level, reverse=True)
    values = []
    for policy in itertools.product(*choices):
        t_of = [Fraction(0)] * pmc.n_states
        e_of = [Fraction(0)] * pmc.n_states
        for s in order:
            if s in targets:
                t_of[s] = e_of[s] = Fraction(1)
            elif s != pmc.initial and all(t == s for t, _ in policy[s]):
                e_of[s] = Fraction(1)
            else:
                t_of[s] = sum((p * t_of[t] for t, p in policy[s] if t != pmc.initial), Fraction(0))
                e_of[s] = sum((p * e_of[t] for t, p in policy[s] if t != pmc.initial), Fraction(0))
        t, e = t_of[pmc.initial], e_of[pmc.initial]
        values.append(t / e if e else Fraction(0))
    return min(values), max(values)


@pytest.mark.parametrize(
    "build",
    [lambda: (build_covid_pbn(), build_covid_constraint()), chain30, restart_heavy_net],
    ids=["covid", "chain30", "restart-heavy"],
)
def test_long_lived_verifier_matches_a_from_scratch_reference(build):
    # One verifier serves every box, so its relaxation and its collapsed
    # forms are reused.  Each box must still give the verdict of a reference
    # that shares nothing with it and solves the whole chain in level order,
    # and bounds that differ from the reference's only by rounding (each
    # side within its pad of the exact optimum) and that bracket the exact
    # corner extrema.
    pbn, constraint = build()
    pmc, spec = compile_tailored(pbn, constraint)
    verifier = RegionVerifier(pmc, spec)
    rng = random.Random(4)
    verdicts = set()
    for _ in range(300):
        box = random_box(rng, pbn)
        ref_lo, ref_hi, ref_pad = reference_bounds(pmc, spec.targets, box)
        lo, hi = verifier.bounds(box)
        slack = verifier.solver.pad + ref_pad
        assert abs(lo - ref_lo) <= slack * ref_lo and abs(hi - ref_hi) <= slack * ref_hi
        exact_lo, exact_hi = exact_corner_extrema(pmc, spec.targets, box)
        assert Fraction(lo) <= exact_lo and exact_hi <= Fraction(hi)
        verdict = verifier.verify(box)
        assert verdict is reference_verdict(spec, ref_lo, ref_hi)
        verdicts.add(verdict)
    assert len(verdicts) >= 2


def test_collapsed_verifier_brackets_exact_extrema_on_random_nets():
    # The verifier's collapsed pass against two references that share none
    # of its work: the exact corner extrema, and the uncollapsed solver on
    # the corner MDP, whose padded optima must give the same verdict.
    for seed in range(60):
        rng = random.Random(seed)
        net = random_net(rng)
        pbn = random_parametrization(rng, net)
        constraint = random_constraint(rng, net)
        pmc, spec = compile_tailored(pbn, constraint)
        verifier = RegionVerifier(pmc, spec)
        for _ in range(5):
            box = random_box(rng, pbn)
            lo, hi = verifier.bounds(box)
            exact_lo, exact_hi = exact_corner_extrema(pmc, spec.targets, box)
            assert Fraction(lo) <= exact_lo and exact_hi <= Fraction(hi), seed
            ref_lo, ref_hi, _ = reference_bounds(pmc, spec.targets, box)
            assert verifier.verify(box) is reference_verdict(spec, ref_lo, ref_hi), seed


# -- one greedy round per side ---------------------------------------------------


def layered_4x4(seed: int):
    """A seeded 4x4 layered net with six parameters, two on each of levels 1 to 3."""
    variables, tables = layered_tables(4, 4, seed)
    rng = random.Random(seed)
    coords = [
        (f"L{level}_{w}", ("t", "t"), 0)
        for level in (1, 2, 3)
        for w in sorted(rng.sample(range(4), 2))
    ]
    return parametrize(net_from_tables(variables, tables), coords), rng


def box_around_origin(rng: random.Random, pbn) -> Region:
    """A box around the original values, of half-width 10**-4 to 10**-1.5 per axis."""
    bounds = {}
    for name, origin in pbn.origin_instantiation().items():
        lo, hi = pbn.interval(name)
        half = Fraction(round(10 ** rng.uniform(-4, -1.5) * 10**6), 10**6)
        bounds[name] = (max(lo, origin - half), min(hi, origin + half))
    return Region.from_bounds(bounds)


def test_one_greedy_round_per_side_gives_the_verdict_of_the_padded_bounds(monkeypatch):
    # verify decides each side with one round at the threshold moved by
    # MARGIN; bounds runs policy iteration.  Each box must get the verdict
    # that the padded bounds give, from at most two rounds.
    rounds = [0]
    solver_round = LeveledSolver._round

    def counted(self, *args):
        rounds[-1] += 1
        return solver_round(self, *args)

    monkeypatch.setattr(LeveledSolver, "_round", counted)
    verdicts = Counter()
    differing = []
    for seed in range(5):
        pbn, rng = layered_4x4(seed)
        for evidence in ((), (("L3_3", "f"),)):
            probe = Constraint((("L3_0", "t"),), evidence, "<=", Fraction(1))
            pmc, spec = compile_tailored(pbn, probe)
            p0 = reach_prob(pmc, pbn.origin_instantiation(), spec.targets)
            for direction in ("<=", ">="):
                for _ in range(60):
                    threshold = Fraction(p0 + rng.uniform(-0.01, 0.01)).limit_denominator(10**9)
                    verifier = RegionVerifier(pmc, ReachSpec(spec.targets, direction, threshold))
                    box = box_around_origin(rng, pbn)
                    rounds.append(0)
                    verdict = verifier.verify(box)
                    assert rounds[-1] <= 2
                    lo, hi = verifier.bounds(box)
                    expected = reference_verdict(verifier.spec, lo, hi)
                    verdicts[verdict] += 1
                    if verdict is not expected:
                        differing.append(
                            f"{box} {direction} {float(threshold)!r}: verify gives "
                            f"{verdict.value}, bounds ({lo!r}, {hi!r}) give {expected.value}"
                        )
    assert not differing, "\n".join(differing)
    assert sum(verdicts.values()) == 1200
    assert min(verdicts[v] for v in Verdict) >= 50, verdicts


def test_kept_corners_give_the_actions_of_a_fresh_substitution(
    monkeypatch, covid_pbn, covid_constraint
):
    # Every box of a partition gets, from the chain's kept corners, the
    # process that substituting it on a fresh copy of the chain gives.
    constraint = Constraint(
        covid_constraint.hypothesis, covid_constraint.evidence, ">=", Fraction(2, 100)
    )
    pmc, spec = compile_tailored(covid_pbn, constraint)
    original = lifting.substitute
    boxes = 0

    def comparing(chain, region):
        nonlocal boxes
        boxes += 1
        mdp = original(chain, region)
        fresh = PMC(chain.states, chain.initial, chain.edges, chain.params)
        assert mdp == original(fresh, region)
        return mdp

    monkeypatch.setattr(lifting, "substitute", comparing)
    result = partition(pmc, spec, covid_pbn.space(), Fraction(95, 100))
    assert result.verifications == boxes > 100
    # Two parametric states of two corners each per box, but most corners repeat.
    assert len(pmc.lowered.parametric) == 2
    assert 0 < len(pmc._corners) < boxes


def test_covid_tune_requests_evaluate_each_corner_once_without_fraction_keys(monkeypatch):
    # Over the bench's four covid tune requests, each distinct (state,
    # corner) of a chain is evaluated once, 108 in all; substituting a
    # split box neither hashes nor compares a Fraction.
    evaluated = []
    halves: dict[int, Region] = {}  # by id; holding them keeps the ids unique
    fraction_calls = Counter()
    watch = {"request": 0, "split box": False, "split calls": 0}

    def counted(name):
        original = getattr(Fraction, name)

        def wrapper(self, *args):
            if watch["split box"]:
                fraction_calls[name] += 1
            return original(self, *args)

        return wrapper

    for name in ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counted(name))

    split = Region.split

    def recording_split(region, axis):
        made = split(region, axis)
        halves.update((id(half), half) for half in made)
        return made

    original_distribution = lifting._distribution

    def counting_distribution(out, point, memo):
        corner = tuple((name, v.numerator, v.denominator) for name, v in point.items())
        evaluated.append((watch["request"], id(out), corner))
        return original_distribution(out, point, memo)

    original_substitute = lifting.substitute

    def watching(pmc, region):
        is_half = id(region) in halves
        watch["split calls"] += is_half
        watch["split box"] = is_half
        try:
            return original_substitute(pmc, region)
        finally:
            watch["split box"] = False

    monkeypatch.setattr(Region, "split", recording_split)
    monkeypatch.setattr(lifting, "_distribution", counting_distribution)
    monkeypatch.setattr(lifting, "substitute", watching)
    for request, (pbn, constraint, measure, hyper) in enumerate(covid_tune_requests()):
        watch["request"] = request
        tune(pbn, constraint, measure, hyper)
    assert len(evaluated) == len(set(evaluated)) == 108
    assert watch["split calls"] == 188
    assert fraction_calls == Counter()


def test_a_corner_that_raises_is_not_kept():
    # 2x leaves [0, 1] at x = 3/5: each box with that corner raises, also
    # after a box on the same chain raised there, under any verifier.
    states = (StateLabel(0, ()), StateLabel(1, (("V", "a"),)), StateLabel(1, (("V", "b"),)))
    edges = (((1, C(2) * X), (2, ONE - C(2) * X)), ((1, ONE),), ((2, ONE),))
    pmc = PMC(states, 0, edges, (("x", (Fraction(4, 10), Fraction(6, 10))),))
    spec = ReachSpec(frozenset({1}), "<=", Fraction(1, 2))
    verifier = RegionVerifier(pmc, spec)
    with pytest.raises(NotWellFormed):
        verifier.verify(toy_box("2/5", "3/5"))
    assert verifier.verify(toy_box("2/5", "1/2")) is Verdict.REJECTING
    with pytest.raises(NotWellFormed):
        verifier.verify(toy_box("1/2", "3/5"))
    assert set(pmc._corners) == {(0, ((2, 5),)), (0, ((1, 2),))}
    with pytest.raises(NotWellFormed):
        RegionVerifier(pmc, spec).verify(toy_box("1/2", "3/5"))


def test_the_chain_keeps_its_corners_for_every_verifier(
    monkeypatch, covid_pbn, covid_constraint
):
    # A second verifier on the same chain finds every corner of a box that
    # the first verified; an equal but distinct chain keeps none of them.
    pmc, spec = compile_tailored(covid_pbn, covid_constraint)
    box = Region.from_bounds({"p": (Fraction(1, 10), Fraction(3, 10)),
                              "q": (Fraction(1, 5), Fraction(2, 5))})
    verdict = RegionVerifier(pmc, spec).verify(box)
    assert len(pmc._corners) == 4  # two parametric states, two corners each
    evaluated = []
    original_distribution = lifting._distribution

    def counting_distribution(out, point, memo):
        evaluated.append(point)
        return original_distribution(out, point, memo)

    monkeypatch.setattr(lifting, "_distribution", counting_distribution)
    assert RegionVerifier(pmc, spec).verify(box) is verdict
    assert evaluated == []
    twin = PMC(pmc.states, pmc.initial, pmc.edges, pmc.params)
    assert twin == pmc and twin._corners == {}
    assert RegionVerifier(twin, spec).verify(box) is verdict
    assert len(evaluated) == 4 and twin._corners == pmc._corners


# -- the work of one round -------------------------------------------------------


def multiply_adds(solver: LeveledSolver, actions) -> int:
    """Multiply-adds of one round: a form's coefficients, or every pair of every action."""
    return sum(
        len(solver._forms[s]) if s in solver._forms else sum(map(len, actions[s]))
        for s in solver._pass
    )


def assert_no_more_work_than_the_whole_pass(pmc: PMC, spec: ReachSpec, box: Region) -> RegionVerifier:
    verifier = RegionVerifier(pmc, spec)
    whole = LeveledSolver(pmc.states, pmc.initial, pmc.edges, spec.targets)
    actions = substitute(pmc, box).actions
    assert multiply_adds(verifier.solver, actions) <= multiply_adds(whole, actions)
    assert {s for s, _ in pmc.lowered.parametric} <= set(verifier.solver._pass)
    assert verifier.solver._pass[-1] == pmc.initial
    return verifier


def test_layered_6x6_pass_is_its_parametric_skeleton():
    # 3 of the 317 states carry a parameter; the pass keeps them and the two
    # collapsed states that they read directly, of two coefficients each.
    pbn, constraint = build_layered_6x6()
    pmc, spec = compile_tailored(pbn, constraint)
    verifier = assert_no_more_work_than_the_whole_pass(pmc, spec, pbn.space())
    assert len(pmc.lowered.parametric) == 3
    assert len(verifier.solver._pass) == 5
    assert sorted(map(len, verifier.solver._forms.values())) == [2, 2]


def test_collapsed_pass_does_no_more_work_on_random_nets():
    expanding = 0
    for seed in range(60):
        rng = random.Random(seed)
        net = random_net(rng, max_nodes=6)
        pbn = random_parametrization(rng, net)
        pmc, spec = compile_tailored(pbn, random_constraint(rng, net))
        verifier = assert_no_more_work_than_the_whole_pass(pmc, spec, random_box(rng, pbn))
        expanding += bool(verifier.solver._forms)
    assert expanding >= 5


def fan_out_chain():
    """s1 is parameter-free with two successors, s2 and s3, each of which fans
    out to two parametric states; the parametric states s4..s7 reach the
    target s8 with probability x and the leaf s9 otherwise."""
    states = (
        StateLabel(0, ()),
        StateLabel(1, (("A", "a"),)),
        *(StateLabel(2, (("B", v),)) for v in "ab"),
        *(StateLabel(3, (("C", v),)) for v in "abcd"),
        *(StateLabel(4, (("D", v),)) for v in "ab"),
    )
    half = C(Fraction(1, 2))
    edges = (
        ((1, ONE),),
        ((2, half), (3, half)),
        ((4, half), (5, half)),
        ((6, half), (7, half)),
        *(((8, X), (9, ONE - X)) for _ in range(4)),
        ((8, ONE),),
        ((9, ONE),),
    )
    return PMC(states, 0, edges, (("x", (Fraction(0), Fraction(1))),))


def test_fan_out_state_stays_in_the_pass():
    # Collapsing s1 would give it a form over four states in place of its
    # two successors, so it stays; s2 and s3 collapse and are expanded for it.
    pmc = fan_out_chain()
    spec = ReachSpec(frozenset({8}), "<=", Fraction(1, 2))
    box = toy_box("1/5", "3/5")
    verifier = assert_no_more_work_than_the_whole_pass(pmc, spec, box)
    assert 1 in verifier.solver._pass and 1 not in verifier.solver._forms
    assert sorted(verifier.solver._forms) == [2, 3]
    lo, hi = verifier.bounds(box)
    assert lo <= 0.2 <= lo + 1e-13 and hi - 1e-13 <= 0.6 <= hi


# -- one lowering per chain ---------------------------------------------------


def test_layered_6x6_lowers_each_weight_once(monkeypatch):
    # reach_prob, two verifiers and sensitivity_function on one chain share
    # its lowering and its one solver: a constant weight object is evaluated
    # once, and a parametric one once per point that reach_prob is given.
    pbn, constraint = build_layered_6x6()
    pmc, spec = compile_tailored(pbn, constraint)
    entries = {id(e): e for cpt in pbn.cpts for _, row in cpt.rows for e in row}
    # Without evidence there are no restarts: every edge but a leaf's loop
    # is a forward edge.
    leaves = {s for s, out in enumerate(pmc.edges) if out == ((s, ONE),)}
    for s, out in enumerate(pmc.edges):
        if s not in leaves:
            assert all(entries[id(w)] is w for _, w in out)

    calls = Counter()
    evaluate_rounded = Polynomial.evaluate_rounded
    solver_init = LeveledSolver.__init__
    structures = []

    def counting(self, u):
        calls[id(self)] += 1
        return evaluate_rounded(self, u)

    def recording(self, *args):
        structures.append(self)
        solver_init(self, *args)

    monkeypatch.setattr(Polynomial, "evaluate_rounded", counting)
    monkeypatch.setattr(LeveledSolver, "__init__", recording)
    parametric = {s for s, out in enumerate(pmc.edges) if any(w.parameters for _, w in out)}
    constant = [w for s, out in enumerate(pmc.edges) if s not in parametric for _, w in out]
    constant_ids = {id(w) for w in constant}
    parametric_ids = {id(w) for s in parametric for _, w in pmc.edges[s]}
    assert len(constant_ids) < len(constant) // 4  # edges share their entries
    per_point = Counter(parametric_ids)

    u0 = pbn.origin_instantiation()
    p0 = reach_prob(pmc, u0, spec.targets)
    assert calls == Counter(constant_ids) + per_point
    verifier = RegionVerifier(pmc, spec)
    assert calls == Counter(constant_ids) + per_point
    assert reach_prob(pmc, pbn.space().center(), spec.targets) != p0
    assert calls == Counter(constant_ids) + per_point + per_point
    sensitivity_function(pmc, spec.targets)
    other = RegionVerifier(pmc, spec)
    # One solver for the chain and its target set, collapsed once: every
    # caller walks the same 5 states of its pass.
    assert structures == [pmc.solver(spec.targets)]
    assert verifier.solver is structures[0] and other.solver is structures[0]
    assert len(structures[0].order) == 315 and len(structures[0]._pass) == 5
    # The declaration order gives a wider chain with the same pass.
    wide, wide_spec = compile_tailored(pbn, constraint, order=topological_order(pbn))
    solver = wide.solver(wide_spec.targets)
    assert len(solver.order) == 707 and len(solver._pass) == 5


def _chain_results(pmc, spec, box, points, order):
    """reach_prob at ``points`` and the verifier's bounds on ``box``, computed on
    ``pmc`` in the given ``order`` of the three per-chain callers."""
    results = {}
    for step in order:
        if step == "reach":
            results["reach"] = [reach_prob(pmc, u, spec.targets) for u in points]
        elif step == "verifier":
            results["bounds"] = RegionVerifier(pmc, spec).bounds(box)
        else:
            sensitivity_function(pmc, spec.targets)
    return results


def test_shared_lowering_is_independent_of_the_call_order():
    orders = [
        ("reach", "verifier"),
        ("verifier", "reach"),
        ("sensitivity", "verifier", "reach"),
        ("reach", "sensitivity", "verifier"),
    ]
    for seed in range(40):
        rng = random.Random(seed)
        net = random_net(rng)
        pbn = random_parametrization(rng, net)
        constraint = random_constraint(rng, net)
        box = random_box(rng, pbn)
        points = [pbn.origin_instantiation(), box.center()]
        # Each reference value comes from a chain of its own.
        fresh = {"reach": []}
        for u in points:
            pmc, spec = compile_tailored(pbn, constraint)
            fresh["reach"].append(reach_prob(pmc, u, spec.targets))
        fresh["bounds"] = RegionVerifier(*compile_tailored(pbn, constraint)).bounds(box)
        for order in orders:
            pmc, spec = compile_tailored(pbn, constraint)
            assert _chain_results(pmc, spec, box, points, order) == fresh, (seed, order)


def test_verifier_reaches_relax_and_substitute_through_the_module(
    monkeypatch, covid_pbn, covid_constraint
):
    # The benchmark times these two layers by rebinding lifting's module
    # attributes, so a partition must call them through the module.
    calls = {"relax": 0, "substitute": 0}

    def counting(name):
        original = getattr(lifting, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(lifting, name, counting(name))
    pmc, spec = compile_tailored(covid_pbn, covid_constraint)
    result = partition(pmc, spec, covid_pbn.space(), Fraction(9, 10))
    assert result.verifications > 1
    assert calls == {"relax": 1, "substitute": result.verifications}


def verdict_of(toy_pbn, direction, threshold, box=("1/5", "3/5")):
    pmc, yes = toy_chain(toy_pbn)
    spec = ReachSpec(frozenset({yes}), direction, Fraction(threshold))
    return RegionVerifier(pmc, spec).verify(toy_box(*box))


def test_verdicts_for_upper_bounded_constraints(toy_pbn):
    assert verdict_of(toy_pbn, "<=", "7/10") is Verdict.ACCEPTING
    assert verdict_of(toy_pbn, "<=", "1/10") is Verdict.REJECTING
    assert verdict_of(toy_pbn, "<=", "1/2") is Verdict.INCONCLUSIVE


def test_verdicts_for_lower_bounded_constraints(toy_pbn):
    assert verdict_of(toy_pbn, ">=", "1/10") is Verdict.ACCEPTING
    assert verdict_of(toy_pbn, ">=", "7/10") is Verdict.REJECTING
    assert verdict_of(toy_pbn, ">=", "1/2") is Verdict.INCONCLUSIVE


def test_exact_threshold_stays_inconclusive(toy_pbn):
    # The margin keeps boundary regions inconclusive instead of guessing.
    assert verdict_of(toy_pbn, "<=", "3/5") is Verdict.INCONCLUSIVE
    assert verdict_of(toy_pbn, ">=", "1/5") is Verdict.INCONCLUSIVE


def test_bounds_bracket_the_exact_range(toy_pbn):
    pmc, yes = toy_chain(toy_pbn)
    spec = ReachSpec(frozenset({yes}), "<=", Fraction(1, 2))
    lo, hi = RegionVerifier(pmc, spec).bounds(toy_box("1/5", "3/5"))
    assert lo == pytest.approx(0.2, abs=1e-9) and lo <= 0.2
    assert hi == pytest.approx(0.6, abs=1e-9) and hi >= 0.6
    assert 0.0 <= lo <= hi <= 1.0


def test_bounds_sandwich_sampled_reachability(covid_pbn, covid_constraint):
    pmc, spec = compile_tailored(covid_pbn, covid_constraint)
    rng = random.Random(11)
    for _ in range(5):
        a, b = sorted(rng.uniform(0.1, 0.95) for _ in range(2))
        c, d = sorted(rng.uniform(0.1, 0.95) for _ in range(2))
        box = Region.from_bounds({"p": (a, b), "q": (c, d)})
        lo, hi = RegionVerifier(pmc, spec).bounds(box)
        for _ in range(20):
            u = {"p": rng.uniform(a, b), "q": rng.uniform(c, d)}
            assert lo <= reach_prob(pmc, u, spec.targets) <= hi


def test_bounds_shrink_under_refinement(covid_pbn, covid_constraint):
    pmc, spec = compile_tailored(covid_pbn, covid_constraint)
    box = Region.from_bounds({"p": (Fraction(3, 5), Fraction(9, 10)), "q": (Fraction(9, 10), Fraction(99, 100))})
    verifier = RegionVerifier(pmc, spec)
    lo, hi = verifier.bounds(box)
    left, right = box.split(0)
    for part in (left, right):
        sub_lo, sub_hi = verifier.bounds(part)
        assert sub_lo >= lo - 5e-10
        assert sub_hi <= hi + 5e-10


def test_bounds_agreement_with_enumeration_oracle(covid_pbn, covid_constraint):
    pmc, spec = compile_tailored(covid_pbn, covid_constraint)
    box = Region.from_bounds({"p": (Fraction(7, 10), Fraction(3, 4)), "q": (Fraction(9, 10), Fraction(24, 25))})
    lo, hi = RegionVerifier(pmc, spec).bounds(box)
    rng = random.Random(5)
    for _ in range(20):
        u = {"p": rng.uniform(0.7, 0.75), "q": rng.uniform(0.9, 0.96)}
        exact = infer(
            instantiate(covid_pbn, u), covid_constraint.hypothesis, covid_constraint.evidence
        )
        assert lo - 1e-10 <= exact <= hi + 1e-10
