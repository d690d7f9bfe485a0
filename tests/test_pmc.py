"""Chain compilation, exact reachability, and sensitivity-function extraction."""

from __future__ import annotations

import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest

from bntune import (
    CPT,
    ONE,
    Constraint,
    ParamBN,
    Polynomial,
    Region,
    Variable,
    compile_chain,
    compile_tailored,
    conditional_via_ratio,
    instantiate,
    net_from_tables,
    parametrize,
    reach_prob,
    sensitivity_function,
    to_dot,
)
from bntune import lifting
from bntune.errors import BadOrder, EvidenceImpossible, NotWellFormed, TooLarge, UnknownValue
from bntune.lifting import substitute
from bntune.oracle import infer, joint_table
from bntune.pmc import PMC, LeveledSolver, ReachSpec, SensitivityFunction, StateLabel
from bntune.tune import Status, tune
from conftest import (
    build_covid_pbn,
    build_layered_6x6,
    covid_posterior,
    edge_map,
    layered_tables,
    random_constraint,
    random_net,
    random_parametrization,
    state_index,
)

P = Polynomial.parameter("p")
Q = Polynomial.parameter("q")


@pytest.fixture
def tailored(covid_pbn, covid_constraint):
    return compile_tailored(covid_pbn, covid_constraint)


def test_plain_chain_shape(covid_pbn):
    pmc = compile_chain(covid_pbn)
    assert pmc.n_states == 13
    src = state_index(pmc, 2, (("COVID-19", "yes"), ("Symptoms", "yes")))
    dst = state_index(pmc, 3, (("COVID-19", "yes"), ("Antigen", "pos")))
    assert edge_map(pmc, src)[dst] == P


def test_tailored_chain_shape(tailored):
    pmc, spec = tailored
    assert pmc.n_states == 11
    assert spec.targets == frozenset({10})
    assert spec.direction == "<=" and spec.threshold == Fraction(9, 1000)
    target = pmc.states[10]
    assert target.level == 4 and target.hypothesis is True


def test_tailored_restart_edge(tailored):
    pmc, _ = tailored
    src = state_index(
        pmc, 2, (("COVID-19", "yes"), ("Symptoms", "yes")), hypothesis=False
    )
    # Choosing Antigen=neg violates the evidence, so that branch restarts.
    assert edge_map(pmc, src)[pmc.initial] == ONE - P


def test_leaves_are_absorbing(tailored):
    pmc, _ = tailored
    for i, label in enumerate(pmc.states):
        if label.level == 4:
            assert pmc.edges[i] == ((i, ONE),)


def test_rows_stay_symbolically_stochastic(covid_pbn, tailored):
    for pmc in (compile_chain(covid_pbn), tailored[0]):
        for i in range(pmc.n_states):
            total = Polynomial.constant(0)
            for _, poly in pmc.edges[i]:
                total = total + poly
            assert total == ONE


def test_single_binary_node_chain():
    net = net_from_tables([("T", ("yes", "no"), ())], {"T": {(): ("0.3", "0.7")}})
    pbn = parametrize(net, [])
    pmc = compile_chain(pbn)
    assert pmc.n_states == 3
    weights = sorted(
        poly.constant_value() for _, poly in pmc.edges[pmc.initial]
    )
    assert weights == [Fraction(3, 10), Fraction(7, 10)]


def test_independent_nodes_forget_the_first():
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ())],
        {"A": {(): ("0.3", "0.7")}, "B": {(): ("0.2", "0.8")}},
    )
    pbn = parametrize(net, [])
    pmc = compile_chain(pbn)
    assert pmc.n_states == 5  # init + 2 A-states + 2 merged B-leaves
    # Leaf reach probabilities match the joint marginals of B.
    table = joint_table(net)
    for value in ("a", "b"):
        leaf = state_index(pmc, 2, (("B", value),))
        marginal = sum(p for key, p in table.items() if key[1] == value)
        assert reach_prob(pmc, {}, {leaf}) == pytest.approx(marginal, abs=1e-12)


def test_zero_entries_never_become_edges():
    net = net_from_tables(
        [("A", ("a", "b", "c"), ())], {"A": {(): ("0.6", "0.4", "0")}}
    )
    pmc = compile_chain(parametrize(net, []))
    assert pmc.n_states == 3  # the probability-0 leaf is never created


def test_evidence_on_root_restarts_from_initial(covid_pbn):
    constraint = Constraint(
        (("PCR", "pos"),), (("COVID-19", "yes"),), "<=", Fraction(1, 2)
    )
    pmc, spec = compile_tailored(covid_pbn, constraint)
    assert edge_map(pmc, pmc.initial)[pmc.initial] == Polynomial.constant(
        Fraction(19, 20)
    )
    got = reach_prob(pmc, covid_pbn.origin_instantiation(), spec.targets)
    want = infer(
        instantiate(covid_pbn, covid_pbn.origin_instantiation()),
        constraint.hypothesis,
        constraint.evidence,
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_reach_of_initial_is_one(tailored):
    pmc, _ = tailored
    u0 = build_covid_pbn().origin_instantiation()
    assert reach_prob(pmc, u0, {pmc.initial}) == 1.0


def test_reach_at_origin(tailored, covid_pbn):
    pmc, spec = tailored
    got = reach_prob(pmc, covid_pbn.origin_instantiation(), spec.targets)
    assert got == pytest.approx(covid_posterior(0.72, 0.95), abs=1e-12)


def test_reach_matches_closed_form_pointwise(tailored):
    pmc, spec = tailored
    got = reach_prob(pmc, {"p": 0.92075, "q": 0.97475}, spec.targets)
    assert got == pytest.approx(covid_posterior(0.92075, 0.97475), abs=1e-10)


def test_reach_is_within_rounding_of_the_closed_form(tailored):
    # The leveled solve divides two sums of non-negative products, so it
    # keeps (nearly) full float precision; the dense solve it replaced was
    # up to about 1800 units in the last place off.
    pmc, spec = tailored
    form = sensitivity_function(pmc, spec.targets)
    rng = random.Random(2024)
    for _ in range(2000):
        u = {name: Fraction(rng.randint(1, 9999), 10000) for name in ("p", "q")}
        exact = form.evaluate(u)
        got = reach_prob(pmc, u, spec.targets)
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**14) * exact
    # On random nets with evidence, reach goes through the collapsed forms
    # and stays within the solver's pad of the exact value.
    collapsed = 0
    for seed in range(300):
        rng = random.Random(seed)
        net = random_net(rng)
        pbn = random_parametrization(rng, net)
        pmc, spec = compile_tailored(pbn, random_constraint(rng, net))
        solver = pmc.solver(spec.targets)
        collapsed += bool(solver._forms)
        form = sensitivity_function(pmc, spec.targets)
        for _ in range(3):
            u = {}
            for name in pbn.parameter_names:
                lo, hi = pbn.interval(name)
                u[name] = lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
            exact = form.evaluate(u)
            got = reach_prob(pmc, u, spec.targets)
            assert abs(Fraction(got) - exact) <= Fraction(solver.pad) * exact, seed
    assert collapsed >= 20


def test_reach_agrees_with_enumeration(tailored, covid_pbn, covid_constraint):
    pmc, spec = tailored
    rng = random.Random(7)
    for _ in range(100):
        u = {"p": rng.uniform(0.05, 0.95), "q": rng.uniform(0.05, 0.95)}
        got = reach_prob(pmc, u, spec.targets)
        want = infer(
            instantiate(covid_pbn, u),
            covid_constraint.hypothesis,
            covid_constraint.evidence,
        )
        assert got == pytest.approx(want, abs=1e-10)


def test_alternate_topological_order_preserves_the_conditional(
    covid_pbn, covid_constraint
):
    order = ("COVID-19", "PCR", "Symptoms", "Antigen")
    pmc, spec = compile_tailored(covid_pbn, covid_constraint, order=order)
    got = reach_prob(pmc, covid_pbn.origin_instantiation(), spec.targets)
    assert got == pytest.approx(covid_posterior(0.72, 0.95), abs=1e-12)


def test_non_topological_order_rejected(covid_pbn):
    with pytest.raises(BadOrder):
        compile_chain(covid_pbn, order=("Symptoms", "COVID-19", "Antigen", "PCR"))


def test_impossible_evidence_rejected():
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ("A",))],
        {"A": {(): ("1", "0")},
         "B": {("a",): ("0.5", "0.5"), ("b",): ("0.5", "0.5")}},
    )
    pbn = parametrize(net, [("B", ("a",), 0)])
    constraint = Constraint((("B", "a"),), (("A", "b"),), "<=", Fraction(1, 2))
    with pytest.raises(EvidenceImpossible):
        compile_tailored(pbn, constraint)


def evidence_row_net(origin: Fraction) -> ParamBN:
    """A -> B, where B's rows are (2x - 1, 2 - 2x) under a and (x - 1/2, 3/2 - x) under b.

    No entry is identically zero, but the evidence B = y has probability zero
    exactly at x = 1/2.
    """
    x, c = Polynomial.parameter("x"), Polynomial.constant
    variables = (Variable("A", ("a", "b")), Variable("B", ("y", "n"), ("A",)))
    cpts = (
        CPT("A", (((), (c(Fraction(2, 5)), c(Fraction(3, 5)))),)),
        CPT("B", (
            (("a",), (c(2) * x - c(1), c(2) - c(2) * x)),
            (("b",), (x - c(Fraction(1, 2)), c(Fraction(3, 2)) - x)),
        )),
    )
    return ParamBN(variables, cpts, (("x", (Fraction(1, 2), Fraction(9, 10))),),
                   origin=(("x", origin),))


def test_evidence_impossible_at_the_origin_is_rejected():
    constraint = Constraint((("A", "a"),), (("B", "y"),), "<=", Fraction(1, 2))
    with pytest.raises(EvidenceImpossible):
        compile_tailored(evidence_row_net(Fraction(1, 2)), constraint)
    pbn = evidence_row_net(Fraction(3, 4))
    chain, spec = compile_tailored(pbn, constraint)
    u0 = pbn.origin_instantiation()
    got = reach_prob(chain, u0, spec.targets)
    # 0.4 * 1/2 / (0.4 * 1/2 + 0.6 * 1/4)
    assert got == pytest.approx(4 / 7, abs=1e-15)
    expected = infer(instantiate(pbn, u0), constraint.hypothesis, constraint.evidence)
    assert got == pytest.approx(expected, abs=1e-15)


def test_structurally_unreachable_hypothesis_rejected():
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ("A",))],
        {"A": {(): ("0.5", "0.5")},
         "B": {("a",): ("1", "0"), ("b",): ("0", "1")}},
    )
    pbn = parametrize(net, [("A", (), 0)])
    constraint = Constraint((("B", "a"),), (("A", "b"),), "<=", Fraction(1, 2))
    with pytest.raises(NotWellFormed):
        compile_tailored(pbn, constraint)


# -- the network's most recent query -------------------------------------------


def test_a_repeated_query_gets_the_same_chain_and_its_own_spec(covid_pbn, covid_constraint):
    # Direction and threshold go only into the spec.
    chain, spec = compile_tailored(covid_pbn, covid_constraint)
    other = Constraint(
        covid_constraint.hypothesis, covid_constraint.evidence, ">=", Fraction(2, 100)
    )
    again, other_spec = compile_tailored(covid_pbn, other)
    assert again is chain
    assert other_spec is not spec
    assert other_spec == ReachSpec(spec.targets, ">=", Fraction(2, 100))
    assert spec == ReachSpec(spec.targets, "<=", Fraction(9, 1000))
    assert compile_tailored(covid_pbn, covid_constraint)[0] is chain


def test_other_evidence_or_an_explicit_order_compiles_a_new_chain(covid_pbn, covid_constraint):
    chain, _ = compile_tailored(covid_pbn, covid_constraint)
    fewer = Constraint(covid_constraint.hypothesis, (("PCR", "pos"),), "<=", Fraction(9, 1000))
    other, _ = compile_tailored(covid_pbn, fewer)
    assert other is not chain
    # The network keeps one query, so the first one compiles again.
    first, _ = compile_tailored(covid_pbn, covid_constraint)
    assert first is not chain and first == chain
    order = ("COVID-19", "Symptoms", "Antigen", "PCR")
    ordered, _ = compile_tailored(covid_pbn, covid_constraint, order=order)
    assert ordered is not first
    assert compile_tailored(covid_pbn, covid_constraint, order=list(order))[0] is ordered
    assert compile_tailored(covid_pbn, covid_constraint)[0] is not ordered


def cache_probe_net():
    """A -> B with A = a certain and B = a certain under it."""
    return net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ("A",))],
        {"A": {(): ("1", "0")},
         "B": {("a",): ("1", "0"), ("b",): ("0.5", "0.5")}},
    )


@pytest.mark.parametrize(
    "hypothesis, evidence, error, message",
    [
        ((("B", "a"),), (("A", "b"),), EvidenceImpossible, "the evidence has probability zero"),
        ((("B", "maybe"),), (), UnknownValue, "variable B has no value 'maybe'"),
        ((("B", "b"),), (("A", "a"),), NotWellFormed, "no leaf satisfies the hypothesis"),
    ],
    ids=["evidence-impossible", "unknown-value", "no-target"],
)
def test_a_query_that_raises_raises_again_and_keeps_the_previous_chain(
    hypothesis, evidence, error, message
):
    net = cache_probe_net()
    good = Constraint((("B", "a"),), (), "<=", Fraction(1, 2))
    chain, _ = compile_tailored(net, good)
    bad = Constraint(hypothesis, evidence, "<=", Fraction(1, 2))
    for _ in range(2):
        with pytest.raises(error, match=message):
            compile_tailored(net, bad)
    assert compile_tailored(net, good)[0] is chain


def test_the_network_holds_one_chain(covid_pbn, covid_constraint):
    chain, _ = compile_tailored(covid_pbn, covid_constraint)
    first = weakref.ref(chain)
    del chain
    gc.collect()
    assert first() is not None  # the network keeps it for a repeat
    compile_tailored(covid_pbn, Constraint((("PCR", "pos"),), (), "<=", Fraction(1, 2)))
    gc.collect()
    assert first() is None


def test_a_second_tune_run_of_one_query_evaluates_no_corner(
    monkeypatch, covid_pbn, covid_constraint
):
    # Demo 04's pattern: the same query tuned twice on one network gives
    # the answer of a run on a fresh network, and finds every corner kept.
    evaluated = 0
    original = lifting._distribution

    def counting(out, point, memo):
        nonlocal evaluated
        evaluated += 1
        return original(out, point, memo)

    monkeypatch.setattr(lifting, "_distribution", counting)
    first = tune(covid_pbn, covid_constraint)
    assert first.status is Status.TUNED and evaluated > 0
    evaluated = 0
    assert tune(covid_pbn, covid_constraint) == first
    assert evaluated == 0
    assert tune(build_covid_pbn(), covid_constraint) == first


def test_sensitivity_function_closed_form(tailored):
    pmc, spec = tailored
    fn = sensitivity_function(pmc, spec.targets)
    c = Polynomial.constant
    assert fn.numerator == c(361)
    assert fn.denominator == c(34900) * P * Q + c(8758) * Q + c(361)
    assert str(fn.denominator) == "34900*p*q + 8758*q + 361"


def test_sensitivity_function_evaluates_like_the_chain(tailored):
    pmc, spec = tailored
    fn = sensitivity_function(pmc, spec.targets)
    rng = random.Random(21)
    for _ in range(100):
        u = {"p": rng.uniform(0.01, 0.99), "q": rng.uniform(0.01, 0.99)}
        assert fn.evaluate(u) == pytest.approx(
            covid_posterior(u["p"], u["q"]), abs=1e-9
        )


def test_sensitivity_function_rounds_the_exact_ratio_once(tailored):
    pmc, spec = tailored
    fn = sensitivity_function(pmc, spec.targets)
    rng = random.Random(0)
    for _ in range(400):
        u = {"p": rng.random(), "q": rng.random()}
        exact = {name: Fraction(value) for name, value in u.items()}
        ratio = fn.numerator.evaluate(exact) / fn.denominator.evaluate(exact)
        assert fn.evaluate(u) == float(ratio)
        assert fn.evaluate(exact) == ratio
    half = SensitivityFunction(ONE, P * 2 - 1)
    assert half.evaluate({"p": Fraction(3, 4)}) == 2
    with pytest.raises(ZeroDivisionError):
        half.evaluate({"p": 0.5})
    with pytest.raises(ZeroDivisionError):
        half.evaluate({"p": Fraction(1, 2)})


def test_sensitivity_function_parameter_free():
    net = net_from_tables([("T", ("yes", "no"), ())], {"T": {(): ("0.3", "0.7")}})
    pbn = parametrize(net, [])
    pmc = compile_chain(pbn)
    leaf = state_index(pmc, 1, (("T", "yes"),))
    fn = sensitivity_function(pmc, {leaf})
    assert fn.evaluate({}) == pytest.approx(0.3, abs=1e-12)


def test_sensitivity_function_single_parameter(toy_pbn):
    pmc = compile_chain(toy_pbn)
    leaf = state_index(pmc, 1, (("T", "yes"),))
    fn = sensitivity_function(pmc, {leaf})
    assert fn.numerator == Polynomial.parameter("x")
    assert fn.denominator == ONE


def test_sensitivity_guard(tailored, monkeypatch):
    pmc, spec = tailored
    monkeypatch.setattr("bntune.pmc.ELIMINATION_GUARD", 2)
    with pytest.raises(TooLarge):
        sensitivity_function(pmc, spec.targets)


def test_sensitivity_function_on_a_row_that_misses_a_unit_sum():
    # A's row sums to 1 - 5e-10, within the row-sum tolerance.  The closed
    # form must divide by the mass that ends at a target or leaf, as the
    # solver and the oracle do, not by one minus the restart mass.
    net = net_from_tables(
        [("A", ("t", "f"), ()), ("B", ("t", "f"), ("A",))],
        {"A": {(): ("0.3", "0.6999999995")},
         "B": {("t",): ("0.8", "0.2"), ("f",): ("0.4", "0.6")}},
    )
    pbn = parametrize(net, [("B", ("t",), 0)], {("B", ("t",), 0): "x"})
    constraint = Constraint((("A", "t"),), (("B", "t"),), ">=", Fraction(1, 2))
    pmc, spec = compile_tailored(pbn, constraint)
    u0 = pbn.origin_instantiation()
    want = infer(instantiate(pbn, u0), constraint.hypothesis, constraint.evidence)
    assert reach_prob(pmc, u0, spec.targets) == pytest.approx(want, rel=1e-15)
    assert sensitivity_function(pmc, spec.targets).evaluate(u0) == pytest.approx(want, rel=1e-15)


def test_conditional_via_ratio(covid_pbn, covid_constraint):
    plain = compile_chain(covid_pbn)
    u0 = covid_pbn.origin_instantiation()
    got = conditional_via_ratio(plain, covid_constraint, u0)
    assert got == pytest.approx(covid_posterior(0.72, 0.95), abs=1e-12)
    rng = random.Random(3)
    for _ in range(20):
        u = {"p": rng.uniform(0.05, 0.95), "q": rng.uniform(0.05, 0.95)}
        want = infer(
            instantiate(covid_pbn, u),
            covid_constraint.hypothesis,
            covid_constraint.evidence,
        )
        assert conditional_via_ratio(plain, covid_constraint, u) == pytest.approx(
            want, abs=1e-10
        )


def test_conditional_via_ratio_empty_evidence(covid_pbn):
    plain = compile_chain(covid_pbn)
    constraint = Constraint((("PCR", "pos"),), (), "<=", Fraction(1, 2))
    got = conditional_via_ratio(plain, constraint, covid_pbn.origin_instantiation())
    want = infer(
        instantiate(covid_pbn, covid_pbn.origin_instantiation()),
        constraint.hypothesis,
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_to_dot_renders_the_graph(tailored):
    pmc, spec = tailored
    dot = to_dot(pmc, spec.targets)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert "COVID-19=yes, Symptoms=yes" in dot
    assert 'style=bold' in dot
    assert '[label="p"]' in dot


# -- the compiler's output -----------------------------------------------------


def layered_pbn(size: int) -> ParamBN:
    """The bench's seeded size x size layered net with x on L0_0 and y on a middle row."""
    variables, tables = layered_tables(size, size, 1)
    coords = (("L0_0", (), 0), (f"L{size // 2}_0", ("t", "t"), 0))
    return parametrize(net_from_tables(variables, tables), coords, {coords[0]: "x", coords[1]: "y"})


def chain_digest(pmc: PMC, spec: ReachSpec | None) -> str:
    pinned = repr((pmc.states, pmc.initial, pmc.edges, pmc.params, spec))
    return hashlib.sha256(pinned.encode()).hexdigest()


#: Per layered net size L: the tailored chains of Pr(L{L-1}_0 = t) <= 0.51
#: given no evidence, L{L-1}_1 = f, and L{L-1}_1 = f with L{L-2}_2 = t, then
#: the plain chain.  Recorded before the builder stopped building a label
#: per edge; every state number, label, edge and weight must stay the same.
COMPILED = {
    4: ("41d0d03d2f835106699ee347cf3e6c5caa3505826451536ea56471f2f85049c2",
        "aa03154f092b2a1269386225259e1231943190f5fb16977b0f48678d8281a925",
        "e10a290366357b0b86eefafa9531410a20695c1d1cb5b179fc5bccb2293c7014",
        "e4f5f497597629894f648f39f53cd982fb796665d45c80a2055fc7322050f3ac"),
    5: ("c2dca2c5b9cd9e5a21d4bb3979f646e6e87a5e36252ff712bca7e1d1317acbd7",
        "6753dad08540b8fa4c71231019348b20c97a63631cdd3f2505004ed2353ea7db",
        "ad5b802b2544775da96c3de7730fbe8c03d7e440998465d457f7c229f77444b3",
        "e2f0cc2cc4d70dc8d008493b5004b3be7a67f8cae21e9e303e5e3648b29a7153"),
    6: ("0534bf43b37d23cdaa81d37c040d9571a4476c5242f260b345b9b465d88f2cab",
        "53b4024c1a09a3c5faeed9ac43d34117321cc0527f7cce9a8b12c212896d3614",
        "bf398d8b9034818547bea98ba60d03cca88ecfd9242d299f9db68eeb0b0308aa",
        "4801c2286bf9d6c2a45e53c4656dd1e8158f1c4b632669ae5e7b693204629994"),
    7: ("eacd1d724cbd549fea1c621e5656a44f12125667f313b17ba47979d90f566985",
        "f3230255a363a1846c65f4146655c7519183b24933ad4be76ec887219ca042f2",
        "6ae964c486945167cd1b853ba82da8664575635f37d5f6936bcc868a90936707",
        "bd3718f6325f023aa584c59a605022bc427574a7396419820abcc7aea1329d79"),
}


@pytest.mark.parametrize("size", sorted(COMPILED))
def test_compiled_layered_chains_are_pinned(size):
    pbn = layered_pbn(size)
    last, second = (f"L{size - 1}_1", "f"), (f"L{size - 2}_2", "t")
    digests = []
    for evidence in ((), (last,), (last, second)):
        probe = Constraint(((f"L{size - 1}_0", "t"),), evidence, "<=", Fraction(51, 100))
        digests.append(chain_digest(*compile_tailored(pbn, probe)))
    digests.append(chain_digest(compile_chain(pbn), None))
    assert tuple(digests) == COMPILED[size]


def test_compiled_covid_chains_are_pinned(covid_pbn, covid_constraint):
    assert chain_digest(*compile_tailored(covid_pbn, covid_constraint)) == (
        "ad34398d4c3251d83d51ab239a9dd4fbc62b1d2a771136f963127c57cedbeb51"
    )
    assert chain_digest(compile_chain(covid_pbn), None) == (
        "d82e3273cecb97770b2dae627bd393d563219be7c3088f24741d658312a56c04"
    )


def test_compile_builds_one_label_per_state(monkeypatch):
    built = []

    def counting_label(*args, **kwargs):
        built.append(args)
        return StateLabel(*args, **kwargs)

    monkeypatch.setattr("bntune.pmc.StateLabel", counting_label)
    pmc, _ = compile_tailored(*build_layered_6x6())
    assert len(built) == pmc.n_states == 317


# -- the chain's first use: lowering and collapse -----------------------------


@pytest.mark.parametrize(
    "size, evidence, states, passed, digest",
    [
        (6, (), 317, 5, "b3ee07a52c6c60f39261c272e089c7ce6b471f40a0da823538f06ef0469dcb8d"),
        (6, (("L5_1", "f"), ("L4_2", "t")), 1141, 535,
         "cdf17ed012a1f29ef01af098ee14324697ea0fd57c1b10e08a86cc0f9db9d786"),
        (5, (("L4_1", "f"),), 421, 55,
         "8d08a3cbbaa0ed53a4f459cee94498c160ba95d1345ee7699b7e6fdfaa9c307f"),
    ],
)
def test_lowering_and_collapse_keep_their_floats(size, evidence, states, passed, digest):
    # The digests pin every float, order and form of the lowering and the
    # collapsed solver on the bench's seeded layered nets; they were recorded
    # before the two passes were rewritten to skip work on constant states.
    pbn = layered_pbn(size)
    probe = Constraint(((f"L{size - 1}_0", "t"),), evidence, "<=", Fraction(1))
    pmc, spec = compile_tailored(pbn, probe)
    s = pmc.solver(spec.targets)
    assert (pmc.n_states, len(s._pass)) == (states, passed)
    pinned = repr((pmc.lowered, s.order, s.pad, s._base_t, s._base_e, s._forms, s._pass))
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest


def test_a_state_without_edges_and_a_self_loop_are_both_leaves():
    # s3 loops on itself and s4 has no out-edge: both end the mass (E = 1)
    # without reaching the target s5, in the collapsed solver as in the
    # uncollapsed one.  s1 is parameter-free and collapses to a constant;
    # s2 carries x and stays in the pass.
    x = Polynomial.parameter("x")
    quarter = Polynomial.constant(Fraction(1, 4))
    states = (
        StateLabel(0, ()),
        *(StateLabel(1, (("A", v),)) for v in "ab"),
        *(StateLabel(2, (("B", v),)) for v in "abc"),
    )
    edges = (
        ((1, quarter), (2, ONE - quarter)),
        ((3, quarter), (5, ONE - quarter)),
        ((4, x), (5, ONE - x)),
        ((3, ONE),),
        (),
        ((5, ONE),),
    )
    pmc = PMC(states, 0, edges, (("x", (Fraction(1, 4), Fraction(1, 2))),))
    leaves = {s for s, out in enumerate(edges) if s not in (0, 5) and all(t == s for t, _ in out)}
    assert leaves == {3, 4}
    whole = LeveledSolver(states, 0, edges, {5})
    collapsed = pmc.solver({5})
    for solver in (whole, collapsed):
        assert set(range(6)).difference(solver.order) == leaves | {5}
        assert [solver._base_e[s] for s in (3, 4, 5)] == [1.0, 1.0, 1.0]
        assert [solver._base_t[s] for s in (3, 4, 5)] == [0.0, 0.0, 1.0]
    assert collapsed._pass == [2, 0] and collapsed._forms == {}
    actions = substitute(pmc, Region.from_bounds({"x": (Fraction(1, 4), Fraction(1, 2))})).actions
    for maximize, value in ((True, 0.75), (False, 0.5625)):
        assert collapsed.extremal(actions, maximize) == whole.extremal(actions, maximize) == value
    assert reach_prob(pmc, {"x": Fraction(1, 2)}, {5}) == 0.5625
