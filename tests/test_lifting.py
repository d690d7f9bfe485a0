"""Parameter lifting: relaxation, endpoint substitution, and region verdicts."""

from __future__ import annotations

import itertools
import random
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
)
from bntune.bn import Constraint
from bntune.errors import BadRegion, NotWellFormed, TooLarge, UnboundParameter
from bntune.lifting import (
    MARGIN,
    BoundMDP,
    RegionVerifier,
    Verdict,
    extremal_reach,
    region_bounds,
    relax,
    substitute,
)
from bntune.pmc import PMC, LeveledSolver, ReachSpec, StateLabel, sensitivity_function
from bntune.oracle import infer
from bntune import instantiate, net_from_tables
from conftest import (
    CP,
    CQ,
    build_covid_constraint,
    build_covid_net,
    build_covid_pbn,
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
    relaxed = relax(pmc)
    assert relaxed.pmc is pmc
    assert relaxed.origin_map == {"p": "p", "q": "q"}


def test_relax_copies_parameters_shared_across_states():
    _, pmc = shared_param_chain()
    relaxed = relax(pmc)
    assert relaxed.pmc is not pmc
    copies = [name for name, _ in relaxed.pmc.params]
    assert len(copies) == 2 and all(name.startswith("t@") for name in copies)
    assert relaxed.origin_map == {copies[0]: "t", copies[1]: "t"}
    # The relaxed chain is the original chain with per-state renames only.
    assert relaxed.pmc.n_states == pmc.n_states
    assert relaxed.pmc.transition_count == pmc.transition_count


def test_relaxation_bounds_contain_the_shared_parameter_bounds():
    pbn, pmc = shared_param_chain()
    leaf = state_index(pmc, 2, (("B", "a"),))
    box = Region.from_bounds({"t": (Fraction(1, 5), Fraction(2, 5))})
    lo, hi = region_bounds(pmc, {leaf}, box)
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


def test_substitute_rejects_weights_leaving_the_unit_interval():
    states = (StateLabel(0, ()), StateLabel(1, (("V", "a"),)), StateLabel(1, (("V", "b"),)))
    edges = (((1, C(2) * X), (2, ONE - C(2) * X)), ((1, ONE),), ((2, ONE),))
    pmc = PMC(states, 0, edges, (("x", (Fraction(4, 10), Fraction(6, 10))),))
    with pytest.raises(NotWellFormed):
        substitute(relax(pmc), toy_box("2/5", "3/5"))


def test_constant_weight_error_comes_from_substitute_not_the_constructor():
    # s1 is parameter-free, so its weight 3/2 is checked once per relaxed
    # chain; the check still runs on the first substitution, not earlier.
    states = (StateLabel(0, ()), StateLabel(1, (("V", "a"),)), StateLabel(1, (("V", "b"),)),
              StateLabel(2, (("W", "a"),)), StateLabel(2, (("W", "b"),)))
    edges = (((1, X), (2, ONE - X)), ((3, C(Fraction(3, 2))),), ((4, ONE),), ((3, ONE),),
             ((4, ONE),))
    pmc = PMC(states, 0, edges, (("x", (Fraction(1, 5), Fraction(3, 5))),))
    verifier = RegionVerifier(pmc, ReachSpec(frozenset({3}), "<=", Fraction(1, 2)))
    with pytest.raises(NotWellFormed):
        substitute(relax(pmc), toy_box("1/5", "3/5"))
    with pytest.raises(NotWellFormed):
        verifier.verify(toy_box("1/5", "3/5"))


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
        substitute(relax(pmc), Region.from_bounds(dict(params)))


def test_extremal_reach_on_the_toy_chain(toy_pbn):
    pmc, yes = toy_chain(toy_pbn)
    mdp = substitute(relax(pmc), toy_box("1/5", "3/5"))
    assert extremal_reach(mdp, {yes}, "max") == pytest.approx(0.6, abs=1e-9)
    assert extremal_reach(mdp, {yes}, "min") == pytest.approx(0.2, abs=1e-9)


def test_extremal_reach_initial_target_and_validation(toy_pbn):
    pmc, yes = toy_chain(toy_pbn)
    mdp = substitute(relax(pmc), toy_box("1/5", "3/5"))
    assert extremal_reach(mdp, {pmc.initial}, "min") == 1.0
    with pytest.raises(ValueError):
        extremal_reach(mdp, {yes}, "median")


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
    mdp = substitute(relax(pmc), Region((), ()))
    with pytest.raises(NotWellFormed):
        extremal_reach(mdp, {3}, "max")


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
    mdp = substitute(relax(pmc), box)
    assert extremal_reach(mdp, {1}, "min") == 0.0
    assert extremal_reach(mdp, {1}, "max") == 0.5
    lo, hi = region_bounds(pmc, {1}, box)
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
    parameters shared between states (so relaxation makes copies)."""
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


def reference_bounds(pmc: PMC, targets, region: Region) -> tuple[float, float]:
    """Bounds from scratch: every weight at every corner in Fractions, then float()."""
    relaxed = relax(pmc)
    chain, origin = relaxed.pmc, relaxed.origin_map
    actions = []
    for out in chain.edges:
        local = sorted({name for _, w in out for name in w.parameters})
        axes = [sorted(set(region.interval(origin[name]))) for name in local]
        distributions = {}
        for corner in itertools.product(*axes):
            point = dict(zip(local, corner))
            distributions[tuple((t, float(w.evaluate(point))) for t, w in out)] = None
        actions.append(tuple(distributions))
    mdp = BoundMDP(chain.states, chain.initial, tuple(actions))
    pad = LeveledSolver(chain.states, chain.initial, chain.edges, targets).pad
    lo = max(extremal_reach(mdp, targets, "min") * (1 - pad), 0.0)
    hi = min(extremal_reach(mdp, targets, "max") * (1 + pad), 1.0)
    return lo, hi


def reference_verdict(spec: ReachSpec, lo: float, hi: float) -> Verdict:
    threshold = float(spec.threshold)
    if spec.direction == "<=":
        if hi <= threshold - MARGIN:
            return Verdict.ACCEPTING
        return Verdict.REJECTING if lo > threshold + MARGIN else Verdict.INCONCLUSIVE
    if lo >= threshold + MARGIN:
        return Verdict.ACCEPTING
    return Verdict.REJECTING if hi < threshold - MARGIN else Verdict.INCONCLUSIVE


@pytest.mark.parametrize(
    "build",
    [lambda: (build_covid_pbn(), build_covid_constraint()), chain30, restart_heavy_net],
    ids=["covid", "chain30", "restart-heavy"],
)
def test_long_lived_verifier_matches_a_from_scratch_reference(build):
    # One verifier serves every box, so its substitution plan and its settled
    # states are reused; each box must still give exactly the bounds and the
    # verdict of a reference that shares nothing with it.
    pbn, constraint = build()
    pmc, spec = compile_tailored(pbn, constraint)
    verifier = RegionVerifier(pmc, spec)
    rng = random.Random(4)
    verdicts = set()
    for _ in range(300):
        box = random_box(rng, pbn)
        lo, hi = reference_bounds(pmc, spec.targets, box)
        assert verifier.bounds(box) == (lo, hi)
        verdict = verifier.verify(box)
        assert verdict is reference_verdict(spec, lo, hi)
        verdicts.add(verdict)
    assert len(verdicts) >= 2


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


def test_verifier_counts_verifications(toy_pbn):
    pmc, yes = toy_chain(toy_pbn)
    spec = ReachSpec(frozenset({yes}), "<=", Fraction(1, 2))
    verifier = RegionVerifier(pmc, spec)
    assert verifier.verifications == 0
    verifier.verify(toy_box("1/5", "3/5"))
    verifier.verify(toy_box("1/5", "2/5"))
    assert verifier.verifications == 2


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
    lo, hi = region_bounds(pmc, spec.targets, box)
    left, right = box.split(0)
    for part in (left, right):
        sub_lo, sub_hi = region_bounds(pmc, spec.targets, part)
        assert sub_lo >= lo - 5e-10
        assert sub_hi <= hi + 5e-10


def test_bounds_agreement_with_enumeration_oracle(covid_pbn, covid_constraint):
    pmc, spec = compile_tailored(covid_pbn, covid_constraint)
    box = Region.from_bounds({"p": (Fraction(7, 10), Fraction(3, 4)), "q": (Fraction(9, 10), Fraction(24, 25))})
    lo, hi = region_bounds(pmc, spec.targets, box)
    rng = random.Random(5)
    for _ in range(20):
        u = {"p": rng.uniform(0.7, 0.75), "q": rng.uniform(0.9, 0.96)}
        exact = infer(
            instantiate(covid_pbn, u), covid_constraint.hypothesis, covid_constraint.evidence
        )
        assert lo - 1e-10 <= exact <= hi + 1e-10
