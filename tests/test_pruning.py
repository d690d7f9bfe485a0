"""Barren-variable pruning in the tailored chain, and partitioning that splits only live axes.

A variable that is neither a hypothesis or evidence variable nor an ancestor
of one is barren: it sums out to one and cannot change the conditional, so
``compile_tailored`` leaves it out.  The plain chain keeps every variable and
serves as the independent cross-check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from bntune import (
    Constraint,
    Region,
    compile_chain,
    compile_tailored,
    conditional_via_ratio,
    instantiate,
    net_from_tables,
    parametrize,
    reach_prob,
    sensitivity_function,
    topological_order,
    tune,
)
from bntune.errors import BadOrder, CoverageUnreachable
from bntune.oracle import infer
from bntune.refine import partition
from conftest import build_layered_6x6, random_constraint, random_net, random_parametrization


def ancestral_set(net, roots) -> set[str]:
    found, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name not in found:
            found.add(name)
            stack.extend(net.variable_map[name].parents)
    return found


def exact_conditional(pbn, constraint: Constraint, u) -> Fraction:
    """Pr(H | E) at ``u`` by enumerating the full joint in exact arithmetic."""
    names = [v.name for v in pbn.variables]
    both = evidence = Fraction(0)
    for values in itertools.product(*(v.values for v in pbn.variables)):
        world = dict(zip(names, values))
        weight = Fraction(1)
        for var in pbn.variables:
            row = pbn.cpt_map[var.name].row(tuple(world[p] for p in var.parents))
            weight *= row[var.values.index(world[var.name])].evaluate(u)
        if all(world[v] == x for v, x in constraint.evidence):
            evidence += weight
            if all(world[v] == x for v, x in constraint.hypothesis):
                both += weight
    return both / evidence


def rational_point(rng: random.Random, pbn) -> dict[str, Fraction]:
    point = {}
    for name, (lb, ub) in pbn.params:
        point[name] = min(max(Fraction(rng.randint(1, 99), 100), lb), ub)
    return point


# -- a hand-built net with barren descendants and a barren parameter -----------
#
#   A -> B -> E      hypothesis A = y, evidence B = y
#   A -> C -> D      C, D and E are barren; r sits in D's table

HAND_VARIABLES = [
    ("A", ("y", "n"), ()),
    ("C", ("y", "n"), ("A",)),
    ("B", ("y", "n"), ("A",)),
    ("D", ("y", "n"), ("C",)),
    ("E", ("y", "n", "m"), ("B",)),
]
HAND_TABLES = {
    "A": {(): ("0.3", "0.7")},
    "C": {("y",): ("0.6", "0.4"), ("n",): ("0.2", "0.8")},
    "B": {("y",): ("0.9", "0.1"), ("n",): ("0.25", "0.75")},
    "D": {("y",): ("0.5", "0.5"), ("n",): ("0.35", "0.65")},
    "E": {("y",): ("0.1", "0.2", "0.7"), ("n",): ("0.3", "0.3", "0.4")},
}
P_COORD = ("B", ("y",), 0)
R_COORD = ("D", ("n",), 0)
S_COORD = ("A", (), 0)


@pytest.fixture
def hand_pbn():
    net = net_from_tables(HAND_VARIABLES, HAND_TABLES)
    coords = [S_COORD, P_COORD, R_COORD]
    return parametrize(net, coords, dict(zip(coords, "spr")))


def hand_constraint(threshold=Fraction(3, 5), direction=">="):
    return Constraint((("A", "y"),), (("B", "y"),), direction, threshold)


def test_hand_net_expands_only_the_ancestral_set(hand_pbn):
    chain, spec = compile_tailored(hand_pbn, hand_constraint())
    assert {s.level for s in chain.states} == {0, 1, 2}
    labeled = {name for s in chain.states for name, _ in s.assignment}
    assert labeled == {"A", "B"}
    assert all(chain.states[t].level == 2 for t in spec.targets)
    assert chain.parameter_names == ("s", "p", "r")
    on_edges = {p for out in chain.edges for _, w in out for p in w.parameters}
    assert on_edges == {"s", "p"}
    assert compile_chain(hand_pbn).n_states > chain.n_states


def test_hand_net_conditional_is_unchanged(hand_pbn):
    constraint = hand_constraint()
    chain, spec = compile_tailored(hand_pbn, constraint)
    plain = compile_chain(hand_pbn)
    sens = sensitivity_function(chain, spec.targets)
    rng = random.Random(11)
    for _ in range(50):
        u = rational_point(rng, hand_pbn)
        exact = exact_conditional(hand_pbn, constraint, u)
        assert sens.evaluate(u) == exact
        p = reach_prob(chain, u, spec.targets)
        assert p == pytest.approx(float(exact), rel=1e-13)
        assert p == pytest.approx(conditional_via_ratio(plain, constraint, u), rel=1e-12)
        net = instantiate(hand_pbn, u)
        assert p == pytest.approx(infer(net, constraint.hypothesis, constraint.evidence), rel=1e-12)


def test_order_is_validated_over_every_variable(hand_pbn):
    constraint = hand_constraint()
    with pytest.raises(BadOrder):
        compile_tailored(hand_pbn, constraint, order=["A", "B", "D", "E"])  # C omitted
    with pytest.raises(BadOrder):
        compile_tailored(hand_pbn, constraint, order=["A", "B", "D", "C", "E"])  # D before C
    chain, _ = compile_tailored(hand_pbn, constraint, order=["A", "B", "E", "C", "D"])
    assert {name for s in chain.states for name, _ in s.assignment} == {"A", "B"}


def test_partition_never_splits_a_barren_axis(hand_pbn):
    chain, spec = compile_tailored(hand_pbn, hand_constraint())
    space = hand_pbn.space()
    result = partition(chain, spec, space, Fraction(19, 20))
    boxes = result.accepting + result.rejecting + result.unknown
    assert result.verifications > 1
    assert all(box.interval("r") == space.interval("r") for box in boxes)
    assert len({box.interval("p") for box in boxes}) > 1
    assert sum(box.volume() for box in boxes) == space.volume()


def test_an_inconclusive_box_with_only_barren_axes_stays_whole(hand_pbn):
    u0 = hand_pbn.origin_instantiation()
    at_u0 = exact_conditional(hand_pbn, hand_constraint(), u0)
    chain, spec = compile_tailored(hand_pbn, hand_constraint(at_u0))
    space = hand_pbn.space()
    fixed = Region(space.params, ((u0["s"], u0["s"]), (u0["p"], u0["p"]), space.interval("r")))
    with pytest.raises(CoverageUnreachable) as caught:
        partition(chain, spec, fixed, 1, guard=50)
    assert caught.value.partial.verifications == 1
    assert caught.value.partial.unknown == (fixed,)


def test_tune_leaves_a_barren_parameter_at_its_original_value(hand_pbn):
    constraint = hand_constraint(Fraction(7, 10))
    result = tune(hand_pbn, constraint)
    assert result.status.value == "tuned"
    assert result.instantiation["r"] == hand_pbn.origin_instantiation()["r"]
    assert exact_conditional(hand_pbn, constraint, result.instantiation) >= Fraction(7, 10)


# -- random nets -----------------------------------------------------------------


def test_pruned_chain_matches_the_unpruned_references_on_random_nets():
    pruned_somewhere = barren_parameters = 0
    for seed in range(240):
        rng = random.Random(seed)
        net = random_net(rng, max_nodes=6)
        pbn = random_parametrization(rng, net)
        constraint = random_constraint(rng, net)
        chain, spec = compile_tailored(pbn, constraint)
        relevant = ancestral_set(net, [v for v, _ in constraint.hypothesis + constraint.evidence])
        assert {name for s in chain.states for name, _ in s.assignment} <= relevant
        assert max(s.level for s in chain.states) == len(relevant)
        assert chain.params == pbn.params
        pruned_somewhere += len(relevant) < len(net.variables)
        on_edges = {p for out in chain.edges for _, w in out for p in w.parameters}
        barren_parameters += len(set(pbn.parameter_names) - on_edges)

        plain = compile_chain(pbn)
        sens = sensitivity_function(chain, spec.targets)
        for u in (pbn.origin_instantiation(), rational_point(rng, pbn)):
            exact = exact_conditional(pbn, constraint, u)
            assert sens.evaluate(u) == exact, seed
            p = reach_prob(chain, u, spec.targets)
            assert p == pytest.approx(float(exact), rel=1e-12, abs=1e-15), seed
            assert p == pytest.approx(conditional_via_ratio(plain, constraint, u), rel=1e-9), seed
            net_u = instantiate(pbn, u)
            oracle = infer(net_u, constraint.hypothesis, constraint.evidence)
            assert p == pytest.approx(oracle, rel=1e-12, abs=1e-15), seed
    assert pruned_somewhere >= 50
    assert barren_parameters >= 20


# -- the benchmark's layered net -------------------------------------------------


def test_layered_6x6_tailored_chain_is_pruned():
    pbn, constraint = build_layered_6x6()
    chain, spec = compile_tailored(pbn, constraint)
    # The default order keeps the carried sets narrow; the declaration order
    # gives the wider chain.
    assert chain.n_states == 317
    assert compile_tailored(pbn, constraint, order=topological_order(pbn))[0].n_states == 709
    assert chain.parameter_names == ("x", "y")
    u0 = pbn.origin_instantiation()
    p0 = reach_prob(chain, u0, spec.targets)
    assert p0 == pytest.approx(conditional_via_ratio(compile_chain(pbn), constraint, u0), abs=1e-12)
