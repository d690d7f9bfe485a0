"""Brute-force references: enumeration inference, CD distance, grid tuning."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from bntune import Constraint, net_from_tables, parametrize
from bntune.errors import EvidenceImpossible, TooLarge, UnsupportedForCD
from bntune.oracle import cd_exact, grid_min_distance, infer, joint_table
from conftest import covid_posterior


def single_node(p="0.3"):
    q = str(1 - Fraction(p))
    return net_from_tables([("v", ("yes", "no"), ())], {"v": {(): (p, q)}})


def test_infer_screening_posterior(covid_net):
    got = infer(
        covid_net,
        (("COVID-19", "no"),),
        (("Antigen", "pos"), ("PCR", "pos")),
    )
    assert got == pytest.approx(covid_posterior(0.72, 0.95), abs=1e-12)
    assert got == pytest.approx(0.011089, abs=1e-5)


def test_infer_single_node_prior():
    assert infer(single_node(), (("v", "yes"),)) == pytest.approx(0.3, abs=1e-12)


def test_infer_hypothesis_equal_to_evidence():
    net = single_node()
    assert infer(net, (("v", "yes"),), (("v", "yes"),)) == 1.0


def test_infer_impossible_evidence():
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ("A",))],
        {"A": {(): ("1", "0")},
         "B": {("a",): ("0.5", "0.5"), ("b",): ("0.5", "0.5")}},
    )
    with pytest.raises(EvidenceImpossible):
        infer(net, (("B", "a"),), (("A", "b"),))


def test_infer_enumeration_guard():
    n = 23
    variables = [(f"V{i}", ("yes", "no"), ()) for i in range(n)]
    tables = {f"V{i}": {(): ("0.5", "0.5")} for i in range(n)}
    net = net_from_tables(variables, tables)
    with pytest.raises(TooLarge):
        infer(net, (("V0", "yes"),))


def test_joint_table_is_a_distribution(covid_net):
    table = joint_table(covid_net)
    assert len(table) == 16
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)
    assert all(p >= 0 for p in table.values())


def test_joint_table_factorizes_independent_nodes():
    net = net_from_tables(
        [("A", ("a", "b"), ()), ("B", ("a", "b"), ())],
        {"A": {(): ("0.3", "0.7")}, "B": {(): ("0.2", "0.8")}},
    )
    table = joint_table(net)
    # Keys are value tuples in variable declaration order.
    assert table[("a", "b")] == pytest.approx(0.3 * 0.8, abs=1e-15)


def test_cd_exact_identical_networks(covid_net):
    assert cd_exact(covid_net, covid_net) == 0.0


def test_cd_exact_proportional_disturbance():
    def two_node(first_row):
        return net_from_tables(
            [("A", ("a", "b"), ()), ("B", ("a", "b"), ("A",))],
            {"A": {(): first_row},
             "B": {("a",): ("0.2", "0.8"), ("b",): ("0.6", "0.4")}},
        )

    got = cd_exact(two_node(("0.5", "0.5")), two_node(("0.6", "0.4")))
    assert got == pytest.approx(math.log(1.5), abs=1e-12)


def test_cd_exact_ignores_shared_zeros():
    def ternary(row):
        return net_from_tables([("A", ("a", "b", "c"), ())], {"A": {(): row}})

    got = cd_exact(ternary(("0.5", "0.5", "0")), ternary(("0.6", "0.4", "0")))
    assert got == pytest.approx(math.log(1.2) - math.log(0.8), abs=1e-12)


def test_cd_exact_one_sided_zero_is_infinite():
    def ternary(row):
        return net_from_tables([("A", ("a", "b", "c"), ())], {"A": {(): row}})

    assert cd_exact(ternary(("0.5", "0.5", "0")), ternary(("0.5", "0.4", "0.1"))) == math.inf
    assert cd_exact(ternary(("0.5", "0.4", "0.1")), ternary(("0.5", "0.5", "0"))) == math.inf


def test_cd_exact_requires_matching_variables():
    net_a = single_node()
    net_b = net_from_tables([("w", ("yes", "no"), ())], {"w": {(): ("0.3", "0.7")}})
    # The same variable with its labels in another order (an equal distribution),
    # or with a third value that only one network has, is not the same structure.
    swapped = net_from_tables([("v", ("no", "yes"), ())], {"v": {(): ("0.7", "0.3")}})
    wider = net_from_tables([("v", ("yes", "no", "maybe"), ())], {"v": {(): ("0.3", "0.6", "0.1")}})
    for first, second in ((net_a, net_b), (net_a, swapped), (net_a, wider), (wider, net_a)):
        with pytest.raises(UnsupportedForCD):
            cd_exact(first, second)


def toy_prior_pbn(p="0.6"):
    net = net_from_tables([("T", ("yes", "no"), ())], {"T": {(): (p, str(1 - Fraction(p)))}})
    return parametrize(net, [("T", (), 0)], {("T", (), 0): "x"})


def test_grid_toy_moves_to_the_boundary():
    pbn = toy_prior_pbn()
    point, dist = grid_min_distance(pbn, Constraint((("T", "yes"),), (), "<=", Fraction(1, 2)))
    assert point is not None and point["x"] <= 0.5
    assert dist == pytest.approx(0.1, abs=2e-3)


def test_grid_returns_origin_when_already_satisfied():
    pbn = toy_prior_pbn()
    point, dist = grid_min_distance(pbn, Constraint((("T", "yes"),), (), "<=", Fraction(7, 10)))
    assert point == {"x": 0.6}
    assert dist == 0.0


def test_grid_reports_unsatisfiable():
    pbn = toy_prior_pbn()
    point, dist = grid_min_distance(pbn, Constraint((("T", "yes"),), (), "<=", Fraction(0)))
    assert point is None and dist == math.inf


def test_grid_rejects_an_unknown_measure_first():
    pbn = toy_prior_pbn()
    for threshold in (Fraction(7, 10), Fraction(1, 2)):  # the origin satisfies the first
        with pytest.raises(ValueError, match="bogus"):
            grid_min_distance(pbn, Constraint((("T", "yes"),), (), "<=", threshold), "bogus")


def test_grid_screening_network(covid_pbn, covid_constraint):
    point, dist = grid_min_distance(covid_pbn, covid_constraint)
    assert point is not None
    # The returned point satisfies the constraint per the closed form...
    assert covid_posterior(point["p"], point["q"]) <= 0.009
    # ...and the distance is consistent with the returned point.
    by_hand = math.sqrt((point["p"] - 0.72) ** 2 + (point["q"] - 0.95) ** 2)
    assert dist == pytest.approx(by_hand, abs=1e-12)
    assert dist**2 == pytest.approx(0.031061238002, abs=2e-3)


def test_grid_cd_measure_matches_single_cpt_closed_form():
    from bntune import distance_cd

    pbn = toy_prior_pbn()
    point, dist = grid_min_distance(
        pbn, Constraint((("T", "yes"),), (), "<=", Fraction(1, 2)), measure="cd"
    )
    assert point is not None
    assert dist == pytest.approx(distance_cd(pbn, point), abs=1e-9)


def test_grid_parameter_guard(covid_net):
    coords = [
        ("Antigen", ("yes", "yes"), 0),
        ("Antigen", ("yes", "no"), 0),
        ("Antigen", ("no", "yes"), 0),
        ("Antigen", ("no", "no"), 0),
    ]
    pbn = parametrize(covid_net, coords)
    with pytest.raises(TooLarge):
        grid_min_distance(pbn, Constraint((("COVID-19", "no"),), (), "<=", Fraction(1, 2)))
