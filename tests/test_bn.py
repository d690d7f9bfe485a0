"""Network model: parametrization, co-variation, instantiation, validation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bntune import (
    ONE,
    Constraint,
    Polynomial,
    Region,
    RegionVerifier,
    Verdict,
    compile_tailored,
    instantiate,
    net_from_tables,
    parametrize,
    topological_order,
)
from bntune.bn import CPT, BayesNet, ParamBN, Variable
from bntune.errors import (
    BadOrder,
    NotWellFormed,
    UnboundParameter,
    UnknownValue,
    UnsupportedMultiEntryRow,
    ZeroEntry,
)
from conftest import CP, CQ, random_net, random_parametrization

P = Polynomial.parameter("p")
X = Polynomial.parameter("x")


def ternary_net():
    return net_from_tables(
        [("A", ("a", "b", "c"), ())],
        {"A": {(): ("0.6", "0.3", "0.1")}},
    )


def test_parametrize_binary_row(covid_pbn):
    row = covid_pbn.cpt_map["Antigen"].row(("yes", "yes"))
    q = Polynomial.parameter("p")
    assert row == (q, ONE - q)


def test_parametrize_ternary_row_covariation():
    pbn = parametrize(ternary_net(), [("A", (), 0)], {("A", (), 0): "x"})
    row = pbn.cpt_map["A"].row(())
    c = Polynomial.constant
    assert row == (
        X,
        c(Fraction(3, 4)) * (ONE - X),
        c(Fraction(1, 4)) * (ONE - X),
    )


def test_untouched_rows_stay_constant(covid_pbn):
    assert covid_pbn.cpt_map["Antigen"].row(("yes", "no")) == (
        Polynomial.constant(Fraction(58, 100)),
        Polynomial.constant(Fraction(42, 100)),
    )
    assert covid_pbn.cpt_map["Symptoms"].parameters == frozenset()


def test_origin_instantiation(covid_pbn):
    assert covid_pbn.origin_instantiation() == {
        "p": Fraction(72, 100),
        "q": Fraction(95, 100),
    }


def test_instantiate_at_origin_roundtrips(covid_net, covid_pbn):
    back = instantiate(covid_pbn, covid_pbn.origin_instantiation())
    assert back == covid_net


def test_instantiate_recomputes_covaried_entries():
    pbn = parametrize(ternary_net(), [("A", (), 0)], {("A", (), 0): "x"})
    net = instantiate(pbn, {"x": Fraction(1, 5)})
    row = net.cpt_map["A"].row(())
    assert [e.constant_value() for e in row] == [
        Fraction(1, 5),
        Fraction(3, 5),
        Fraction(1, 5),
    ]


def test_covariation_preserves_ratios():
    pbn = parametrize(ternary_net(), [("A", (), 0)], {("A", (), 0): "x"})
    for x in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10)):
        row = instantiate(pbn, {"x": x}).cpt_map["A"].row(())
        values = [e.constant_value() for e in row]
        assert sum(values) == 1
        assert values[1] == 3 * values[2]


def test_covariation_preserves_zeros():
    net = net_from_tables(
        [("A", ("a", "b", "c"), ())],
        {"A": {(): ("0.6", "0.4", "0")}},
    )
    pbn = parametrize(net, [("A", (), 0)], {("A", (), 0): "x"})
    row = pbn.cpt_map["A"].row(())
    assert row == (X, ONE - X, Polynomial.constant(0))
    for entry in row:
        lo, hi = entry.bounds(pbn.space())
        assert 0 <= lo <= hi <= 1


def test_parametrize_near_unit_row_sums_to_one():
    # The row misses one by 1e-10; its co-varied form sums to one exactly.
    net = net_from_tables(
        [("A", ("a", "b", "c"), ())],
        {"A": {(): ("0.3333333333", "0.3333333333", "0.3333333333")}},
    )
    pbn = parametrize(net, [("A", (), 0)], {("A", (), 0): "x"})
    row = pbn.cpt_map["A"].row(())
    assert sum(row[1:], row[0]) == ONE
    half = (ONE - X) * Fraction(1, 2)
    assert row == (X, half, half)


def test_parametrize_rejects_a_row_whose_rest_is_zero():
    net = net_from_tables([("A", ("a", "b"), ())], {"A": {(): ("0.9999999995", "0")}})
    with pytest.raises(ZeroEntry, match="sums to 0"):
        parametrize(net, [("A", (), 0)])


def one_minus_t_row(row, index, name):
    """The co-variation r * (1 - x) / (1 - t), which assumes an exact row."""
    x = Polynomial.parameter(name)
    t = row[index].constant_value()
    return tuple(
        x if i == index else (ONE - x) * (e.constant_value() / (1 - t)) for i, e in enumerate(row)
    )


def test_parametrize_on_exact_rows_equals_the_one_minus_t_formula():
    rng = random.Random(16)
    for _ in range(300):
        net = random_net(rng)
        pbn = random_parametrization(rng, net)
        bare = {Polynomial.parameter(name): name for name in pbn.parameter_names}
        for before, after in zip(net.cpts, pbn.cpts):
            for (key, row), (_, new_row) in zip(before.rows, after.rows):
                pivots = [(i, bare[e]) for i, e in enumerate(new_row) if e in bare]
                if pivots:
                    assert new_row == one_minus_t_row(row, *pivots[0]), (before.owner, key)
                else:
                    assert new_row == row


def test_parametrize_default_names(covid_net):
    # Auto-names bind to the selected entries in selection order, while the
    # parameter tuple follows the network's declaration order.
    pbn = parametrize(covid_net, [CQ, CP])
    assert pbn.cpt_map["PCR"].row(("yes",))[0] == Polynomial.parameter("x1")
    assert pbn.cpt_map["Antigen"].row(("yes", "yes"))[0] == Polynomial.parameter("x2")
    assert pbn.parameter_names == ("x2", "x1")
    # Auto-naming skips names that are explicitly taken.
    pbn = parametrize(covid_net, [CQ, CP], {CP: "x1"})
    assert pbn.cpt_map["PCR"].row(("yes",))[0] == Polynomial.parameter("x2")


def test_parametrize_rejects_degenerate_pivots():
    net = net_from_tables([("A", ("a", "b"), ())], {"A": {(): ("1", "0")}})
    with pytest.raises(ZeroEntry):
        parametrize(net, [("A", (), 0)])
    with pytest.raises(ZeroEntry):
        parametrize(net, [("A", (), 1)])


def test_parametrize_rejects_two_pivots_in_one_row(covid_net):
    with pytest.raises(UnsupportedMultiEntryRow):
        parametrize(covid_net, [("PCR", ("yes",), 0), ("PCR", ("yes",), 1)])


def test_shared_name_ties_rows_with_equal_pivots():
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ("A",))],
        {"A": {(): ("0.3", "0.7")},
         "B": {("a",): ("0.3", "0.7"), ("b",): ("0.5", "0.5")}},
    )
    coords = [("A", (), 0), ("B", ("a",), 0)]
    pbn = parametrize(net, coords, {coord: "t" for coord in coords})
    assert pbn.parameter_names == ("t",)
    assert pbn.cpt_map["A"].row(())[0] == Polynomial.parameter("t")
    assert pbn.cpt_map["B"].row(("a",))[0] == Polynomial.parameter("t")


def test_shared_name_rejects_unequal_pivots():
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ("A",))],
        {"A": {(): ("0.3", "0.7")},
         "B": {("a",): ("0.4", "0.6"), ("b",): ("0.5", "0.5")}},
    )
    coords = [("A", (), 0), ("B", ("a",), 0)]
    with pytest.raises(NotWellFormed):
        parametrize(net, coords, {coord: "t" for coord in coords})


def test_declared_intervals_default_and_explicit(covid_net):
    delta = Fraction(1, 10**6)
    pbn = parametrize(covid_net, [CP], {CP: "p"})
    assert pbn.interval("p") == (delta, 1 - delta)
    pbn = parametrize(
        covid_net, [CP], {CP: "p"}, intervals={"p": (Fraction(1, 2), Fraction(9, 10))}
    )
    assert pbn.interval("p") == (Fraction(1, 2), Fraction(9, 10))
    space = pbn.space()
    assert space.params == ("p",)
    assert space.interval("p") == (Fraction(1, 2), Fraction(9, 10))


def test_instantiate_rejects_out_of_range_entries(toy_pbn):
    # The row rule of the evaluated table rejects the entry x = 3/2.
    with pytest.raises(NotWellFormed, match=r"entry 3/2 in table of T is outside \[0, 1\]"):
        instantiate(toy_pbn, {"x": 1.5})


def test_instantiate_requires_exactly_the_parameters(toy_pbn):
    with pytest.raises(UnboundParameter):
        instantiate(toy_pbn, {})
    with pytest.raises(UnboundParameter):
        instantiate(toy_pbn, {"x": 0.3, "y": 0.4})


def test_verifier_rejects_a_box_where_an_entry_leaves_the_unit_interval():
    # A = (2x, 1 - 2x) is a distribution only for x <= 1/2.  The verifier
    # evaluates the entries on every box it is given, which is the check.
    two_x = Polynomial.constant(2) * X
    pbn = ParamBN(
        (Variable("A", ("a", "b"), ()),),
        (CPT("A", (((), (two_x, ONE - two_x)),)),),
        (("x", (Fraction(2, 5), Fraction(3, 5))),),
    )
    chain, spec = compile_tailored(pbn, Constraint((("A", "a"),), (), "<=", Fraction(7, 10)))
    verifier = RegionVerifier(chain, spec)
    with pytest.raises(NotWellFormed):
        verifier.verify(Region.from_bounds({"x": (Fraction(11, 20), Fraction(3, 5))}))
    # On [2/5, 1/2] both entries stay within [0, 1], and P(A=a) = 2x >= 4/5.
    inside = Region.from_bounds({"x": (Fraction(2, 5), Fraction(1, 2))})
    assert verifier.verify(inside) is Verdict.REJECTING


def test_bayes_net_is_a_param_bn_without_parameters(covid_net):
    assert isinstance(covid_net, ParamBN)
    assert covid_net.params == () and covid_net.origin is None
    with pytest.raises(NotWellFormed):
        BayesNet(covid_net.variables, covid_net.cpts, (("x", (Fraction(1, 4), Fraction(3, 4))),))
    with pytest.raises(UnboundParameter):
        BayesNet((Variable("A", ("a", "b"), ()),), (CPT("A", (((), (X, ONE - X)),)),))


def test_symbolic_row_sum_enforced_at_construction():
    with pytest.raises(NotWellFormed):
        ParamBN(
            (Variable("A", ("a", "b"), ()),),
            (CPT("A", (((), (X, X)),)),),
            (("x", (Fraction(4, 10), Fraction(6, 10))),),
            (("x", Fraction(1, 2)),),
        )


def test_topological_order_prefers_declaration_and_validates():
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ("A",)), ("C", ("a", "b"), ())],
        {"A": {(): ("0.3", "0.7")},
         "B": {("a",): ("0.2", "0.8"), ("b",): ("0.6", "0.4")},
         "C": {(): ("0.5", "0.5")}},
    )
    assert topological_order(net) == ("A", "B", "C")
    assert topological_order(net, ("C", "A", "B")) == ("C", "A", "B")
    with pytest.raises(BadOrder):
        topological_order(net, ("B", "A", "C"))
    with pytest.raises(BadOrder):
        topological_order(net, ("A", "B"))


def test_cycle_rejected():
    with pytest.raises(NotWellFormed):
        net_from_tables(
            [("A", ("a", "b"), ("B",)), ("B", ("a", "b"), ("A",))],
            {"A": {("a",): ("0.5", "0.5"), ("b",): ("0.5", "0.5")},
             "B": {("a",): ("0.5", "0.5"), ("b",): ("0.5", "0.5")}},
        )


def test_variable_invariants():
    with pytest.raises(NotWellFormed):
        Variable("A", ("a",), ())
    with pytest.raises(NotWellFormed):
        Variable("A", ("a", "a"), ())
    with pytest.raises(NotWellFormed):
        Variable("A", ("a", "b"), ("B", "B"))


def test_net_from_tables_rejects_bad_rows():
    with pytest.raises(NotWellFormed):
        net_from_tables([("A", ("a", "b"), ())], {"A": {(): ("0.5", "0.6")}})
    with pytest.raises(NotWellFormed):
        net_from_tables([("A", ("a", "b"), ())], {})
    with pytest.raises(NotWellFormed):
        net_from_tables(
            [("A", ("a", "b"), ())],
            {"A": {(): ("0.5", "0.5")}, "B": {(): ("0.5", "0.5")}},
        )


def test_constraint_invariants():
    with pytest.raises(NotWellFormed):
        Constraint((("A", "a"),), (("A", "b"),), "<=", Fraction(1, 2))
    with pytest.raises(NotWellFormed):
        Constraint((("A", "a"),), (), "<=", Fraction(3, 2))
    with pytest.raises(NotWellFormed):
        Constraint((), (("A", "a"),), "<=", Fraction(1, 2))
    with pytest.raises(NotWellFormed):
        Constraint((("A", "a"),), (), "<", Fraction(1, 2))


def test_constraint_check_against(covid_net):
    good = Constraint((("COVID-19", "no"),), (("PCR", "pos"),), "<=", Fraction(1, 2))
    good.check_against(covid_net)
    with pytest.raises(UnknownValue):
        Constraint((("Nope", "no"),), (), "<=", Fraction(1, 2)).check_against(covid_net)
    with pytest.raises(UnknownValue):
        Constraint((("COVID-19", "maybe"),), (), "<=", Fraction(1, 2)).check_against(covid_net)


def test_constraint_satisfied_by():
    le = Constraint((("A", "a"),), (), "<=", Fraction(1, 2))
    ge = Constraint((("A", "a"),), (), ">=", Fraction(1, 2))
    assert le.satisfied_by(0.5) and le.satisfied_by(0.2) and not le.satisfied_by(0.7)
    assert ge.satisfied_by(0.5) and ge.satisfied_by(0.7) and not ge.satisfied_by(0.2)


def test_parambn_topological_order(covid_pbn):
    assert topological_order(covid_pbn) == ("COVID-19", "Symptoms", "Antigen", "PCR")
