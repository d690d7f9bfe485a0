"""Network model: parametrization, co-variation, instantiation, validation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from bntune import (
    ONE,
    Constraint,
    Polynomial,
    Region,
    ReachSpec,
    RegionVerifier,
    Verdict,
    as_fraction,
    compile_tailored,
    instantiate,
    net_from_tables,
    parametrize,
    topological_order,
)
from bntune import bn
from bntune.bn import ROW_SUM_TOLERANCE, CPT, BayesNet, ParamBN, Variable, _toposort
from bntune.errors import (
    BadOrder,
    NotWellFormed,
    UnboundParameter,
    UnknownValue,
    UnsupportedMultiEntryRow,
    ZeroEntry,
)
from conftest import CP, CQ, layered_tables, random_net, random_parametrization

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


def test_intervals_must_name_a_selected_parameter(covid_net):
    # A misspelt key was once dropped, leaving p at the default [delta, 1 - delta].
    with pytest.raises(NotWellFormed, match="typo"):
        parametrize(covid_net, [CP], {CP: "p"}, intervals={"typo": (0.1, 0.2)})
    with pytest.raises(NotWellFormed, match="q"):
        parametrize(covid_net, [CP], {CP: "p"}, intervals={"p": (0.1, 0.2), "q": (0.1, 0.2)})


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


# -- the row rule ----------------------------------------------------------------


def constant_row_error(row) -> str | None:
    """The row rule's verdict on a constant row, in exact ``Fraction`` arithmetic:
    the reference for the rule's integer path."""
    for value in row:
        if not 0 <= value <= 1:
            return f"entry {Polynomial.constant(value)} in table of A is outside [0, 1]"
    total = sum(row)
    if abs(total - 1) > ROW_SUM_TOLERANCE:
        return f"row () of A sums to {float(total)}, not 1"
    return None


def row_error(row) -> str | None:
    try:
        CPT("A", (((), tuple(Polynomial.constant(v) for v in row)),))
    except NotWellFormed as exc:
        return str(exc)
    return None


HALF, TOL, TINY = Fraction(1, 2), ROW_SUM_TOLERANCE, Fraction(1, 10**30)
BIG = 3**80


@pytest.mark.parametrize(
    "row, error",
    [
        ((HALF, HALF + TOL), None),
        ((HALF, HALF - TOL), None),
        ((HALF - TOL / 3, HALF, TOL / 3 + TOL), None),
        ((HALF, HALF + TOL + TINY), "row () of A sums to 1.000000001, not 1"),
        ((HALF, HALF - TOL - TINY), "row () of A sums to 0.999999999, not 1"),
        ((0, 1), None),
        ((1, 0, 0), None),
        ((Fraction(-1, 10), Fraction(11, 10)), "entry -1/10 in table of A is outside [0, 1]"),
        ((Fraction(11, 10), Fraction(-1, 10)), "entry 11/10 in table of A is outside [0, 1]"),
        ((HALF, Fraction(-1, BIG)), f"entry -1/{BIG} in table of A is outside [0, 1]"),
        ((0, 0), "row () of A sums to 0.0, not 1"),
        ((0, 0, 0), "row () of A sums to 0.0, not 1"),
        ((Fraction(1, BIG), 1 - Fraction(1, BIG)), None),
        ((Fraction(1, 7**60), Fraction(1, 11**60), 1 - Fraction(1, 7**60)), None),
        ((Fraction(1, 3), Fraction(1, 7), Fraction(11, 21) + Fraction(2, 10**9 + 7)),
         "row () of A sums to 1.000000002, not 1"),
        ((Fraction(BIG - 1, 2 * BIG), HALF + TOL - Fraction(1, 2 * BIG)), None),
        ((Fraction(BIG - 1, 2 * BIG), HALF + TOL + Fraction(1, BIG)),
         "row () of A sums to 1.000000001, not 1"),
    ],
)
def test_constant_row_rule_boundaries(row, error):
    assert row_error(row) == constant_row_error(row) == error


def test_constant_row_rule_matches_exact_arithmetic_on_random_rows():
    rng = random.Random(24)
    for _ in range(300):
        size = rng.randint(2, 4)
        denominators = [rng.choice((1, 2, 10, 10**9, 3**40, rng.randint(1, 10**12)))
                        for _ in range(size)]
        row = [Fraction(rng.randint(-1, d), d) for d in denominators]
        # Move the last entry to land on, just inside or just outside the tolerance.
        miss = rng.choice((0, TOL, -TOL, TOL + TINY, -TOL - TINY, TOL / 2, 2 * TOL))
        row[-1] = 1 + miss - sum(row[:-1])
        assert row_error(row) == constant_row_error(row)


def test_parametric_rows_keep_the_symbolic_rule():
    CPT("A", (((), (X, ONE - X)),))
    with pytest.raises(NotWellFormed, match=r"parametric row \(\) of A does not sum to 1 symbolically"):
        CPT("A", (((), (X, Polynomial.constant(HALF))),))
    # A constant entry of a parametric row is range-checked before the sum.
    with pytest.raises(NotWellFormed, match=r"entry 3/2 in table of A is outside \[0, 1\]"):
        CPT("A", (((), (X, Polynomial.constant(Fraction(3, 2)))),))


# -- the parent graph --------------------------------------------------------------


def quadratic_toposort(variables) -> tuple[str, ...]:
    """The reference order: repeatedly place the earliest-declared variable
    whose parents are all placed, rescanning every name each step."""
    remaining = {v.name: set(v.parents) for v in variables}
    order: list[str] = []
    while remaining:
        ready = [v.name for v in variables if v.name in remaining and not remaining[v.name]]
        if not ready:
            raise NotWellFormed("the parent graph has a cycle")
        order.append(ready[0])
        del remaining[ready[0]]
        for deps in remaining.values():
            deps.discard(ready[0])
    return tuple(order)


def test_toposort_matches_the_quadratic_reference():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 40)
        rank = list(range(n))
        rng.shuffle(rank)  # node i may only have parents of lower rank
        by_rank = sorted(range(n), key=rank.__getitem__)
        variables = []
        for i in range(n):
            earlier = by_rank[: rank[i]]
            parents = rng.sample(earlier, min(len(earlier), rng.randint(0, 3)))
            variables.append(Variable(f"V{i}", ("a", "b"), tuple(f"V{p}" for p in parents)))
        assert _toposort(tuple(variables)) == quadratic_toposort(variables)


def test_toposort_rejects_a_cycle_below_a_free_variable():
    variables = (
        Variable("A", ("a", "b"), ()),
        Variable("B", ("a", "b"), ("A", "D")),
        Variable("C", ("a", "b"), ("B",)),
        Variable("D", ("a", "b"), ("C",)),
        Variable("E", ("a", "b"), ("A",)),
    )
    for sort in (_toposort, quadratic_toposort):
        with pytest.raises(NotWellFormed, match="the parent graph has a cycle"):
            sort(variables)


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


def test_net_from_tables_shares_one_constant_per_literal():
    variables, tables = layered_tables(6, 6, 1)
    net = net_from_tables(variables, tables)
    first: dict[str, Polynomial] = {}
    entries = []
    for name, rows in tables.items():
        for key, literals in rows.items():
            for literal, entry in zip(literals, net.cpt_map[name].row(key), strict=True):
                assert entry == Polynomial.constant(as_fraction(literal))
                assert first.setdefault(literal, entry) is entry
                entries.append(entry)
    assert len(entries) == 252
    assert len({id(e) for e in entries}) == len(first) == 88


def test_net_from_tables_tells_equal_literals_of_other_types_apart():
    # 0.1 == Fraction(0.1) and they hash alike, but the float reads as 1/10.
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("x", "y"), ("A",))],
        {
            "A": {(): ("0.5", "0.5")},
            "B": {("a",): (0.1, 0.9), ("b",): (Fraction(0.1), 1 - Fraction(0.1))},
        },
    )
    table = net.cpt_map["B"]
    assert table.row(("a",))[0].constant_value() == Fraction(1, 10)
    assert table.row(("b",))[0].constant_value() == Fraction(0.1)
    assert net.cpt_map["A"].row(())[0] is net.cpt_map["A"].row(())[1]


@pytest.fixture
def table_checks(monkeypatch):
    """The owners of the tables that ``bn._check_table`` checks, in order."""
    owners = []
    check_table = bn._check_table

    def counted(variable, table, by_name):
        owners.append(table.owner)
        check_table(variable, table, by_name)

    monkeypatch.setattr(bn, "_check_table", counted)
    return owners


def test_parametrize_checks_only_the_tables_it_rebuilds(table_checks):
    net = net_from_tables(*layered_tables(6, 6, 1))
    assert len(table_checks) == 36
    coords = (("L0_0", (), 0), ("L3_0", ("t", "t"), 0))
    pbn = parametrize(net, coords, {coords[0]: "x", coords[1]: "y"})
    assert table_checks[36:] == ["L0_0", "L3_0"]
    back = instantiate(pbn, pbn.origin_instantiation())
    assert table_checks[38:] == ["L0_0", "L3_0"]
    assert back == net and back.variables is net.variables


def test_a_checked_table_is_checked_again_under_other_variables(table_checks):
    a, b = Variable("A", ("a", "b")), Variable("B", ("x", "y"), ("A",))
    half = (Polynomial.constant(Fraction(1, 2)),) * 2
    net = BayesNet((a, b), (CPT("A", (((), half),)), CPT("B", ((("a",), half), (("b",), half)))))
    # A parent that gains a value leaves a row of B's table uncovered.
    grown = Variable("A", ("a", "b", "c"))
    third = (Polynomial.constant(Fraction(1, 3)),) * 3
    with pytest.raises(NotWellFormed, match="table of B does not cover"):
        BayesNet((grown, b), (CPT("A", (((), third),)), net.cpts[1]))
    # A variable that gains a value makes each row of its table too short.
    with pytest.raises(NotWellFormed, match="row .* of B has 2 entries, expected 3"):
        BayesNet((a, Variable("B", ("x", "y", "z"), ("A",))), net.cpts)
    # An equal tuple that is another object checks every table again.
    del table_checks[:]
    BayesNet(tuple([a, b]), net.cpts)
    assert table_checks == ["A", "B"]
    # A list may change between two networks, so it never marks a table.
    listed = [a, b]
    BayesNet(listed, net.cpts)
    listed[1] = Variable("B", ("x", "y", "z"), ("A",))
    with pytest.raises(NotWellFormed, match="row .* of B has 2 entries, expected 3"):
        BayesNet(listed, net.cpts)


def test_constraint_invariants():
    with pytest.raises(NotWellFormed):
        Constraint((("A", "a"),), (("A", "b"),), "<=", Fraction(1, 2))
    with pytest.raises(NotWellFormed):
        Constraint((("A", "a"),), (), "<=", Fraction(3, 2))
    with pytest.raises(NotWellFormed):
        Constraint((), (("A", "a"),), "<=", Fraction(1, 2))
    with pytest.raises(NotWellFormed):
        Constraint((("A", "a"),), (), "<", Fraction(1, 2))


#: The message of an empty hypothesis or target set, the one fault whose
#: message names the class's own field.
EMPTY_MESSAGE = {
    Constraint: "the hypothesis needs at least one literal",
    ReachSpec: "a reachability constraint needs at least one target state",
}


@pytest.mark.parametrize("cls", [Constraint, ReachSpec], ids=lambda cls: cls.__name__)
@pytest.mark.parametrize(
    "empty, direction, threshold, message",
    [
        (True, "<=", Fraction(1, 2), None),
        (False, "<", Fraction(1, 2), "direction must be '<=' or '>=', got '<'"),
        (False, "<=", Fraction(3, 2), "threshold 3/2 is outside [0, 1]"),
        (False, ">=", Fraction(-1, 10), "threshold -1/10 is outside [0, 1]"),
    ],
    ids=["empty", "direction", "above-one", "below-zero"],
)
def test_constraint_and_reach_spec_reject_each_fault_alike(cls, empty, direction, threshold, message):
    # One comparison rule: each input with one fault raises the same error
    # from a Constraint and from a ReachSpec.
    with pytest.raises(NotWellFormed) as raised:
        if cls is Constraint:
            Constraint(() if empty else (("A", "a"),), (), direction, threshold)
        else:
            ReachSpec(frozenset() if empty else frozenset({1}), direction, threshold)
    assert str(raised.value) == (message or EMPTY_MESSAGE[cls])


def test_reach_spec_reads_a_float_threshold_as_its_decimal():
    assert ReachSpec(frozenset({1}), "<=", 0.1).threshold == Fraction(1, 10)


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


def test_constraint_and_compiled_spec_read_one_threshold():
    # A float threshold means the decimal it was written as, in the
    # constraint and in the chain's spec alike, so both give one verdict on
    # the float nearest the threshold and on its two neighbours.
    net = net_from_tables([("A", ("a", "b"), ())], {"A": {(): ("0.5", "0.5")}})
    for t in (0.1, 0.3, 1 / 3):
        for direction in ("<=", ">="):
            constraint = Constraint((("A", "a"),), (), direction, t)
            _, spec = compile_tailored(net, constraint)
            assert spec.threshold == constraint.threshold == as_fraction(t)
            for p in (math.nextafter(t, 0.0), float(t), math.nextafter(t, 1.0)):
                assert constraint.satisfied_by(p) == spec.satisfied_by(p), (t, direction, p)
    assert Constraint((("A", "a"),), (), "<=", 0.1) == Constraint(
        (("A", "a"),), (), "<=", Fraction(1, 10)
    )


def test_parambn_topological_order(covid_pbn):
    assert topological_order(covid_pbn) == ("COVID-19", "Symptoms", "Antigen", "PCR")
