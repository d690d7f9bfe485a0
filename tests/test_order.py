"""The compiler's default expansion order, and an explicit order winning over it.

Without an ``order``, the builder expands next the ready variable (all parents
expanded) that leaves the fewest carried value combinations.  The order
changes the chain's shape, never the answer: the layered nets below are
compiled in the default and in the declaration order and compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bntune import (
    Constraint,
    compile_chain,
    compile_tailored,
    net_from_tables,
    parametrize,
    parse_constraint,
    parse_network,
    parse_param_spec,
    reach_prob,
    sensitivity_function,
    to_dot,
    topological_order,
)
from bntune.cli import main
from bntune.errors import CoverageUnreachable
from bntune.refine import partition
from conftest import build_layered_6x6, layered_tables

FILES = Path(__file__).resolve().parent.parent / "demos" / "files"
DEMO_CONSTRAINT = "P(COVID-19=no | Antigen=pos & PCR=pos) <= 0.009"


def expansion_order(pmc) -> list[str]:
    """The variable expanded at each level: the last one its states carry."""
    by_level = {s.level: s.assignment[-1][0] for s in pmc.states if s.assignment}
    return [by_level[level] for level in sorted(by_level)]


def widths(pmc) -> list[int]:
    """States per level."""
    counts = Counter(state.level for state in pmc.states)
    return [counts[level] for level in sorted(counts)]


# -- the rule -------------------------------------------------------------------


def three_pairs():
    """Roots A, B, C, each with one child X, Y, Z, declared roots first."""
    row = ("0.3", "0.7")
    variables = [(name, ("t", "f"), ()) for name in "ABC"]
    variables += [(child, ("t", "f"), (root,)) for root, child in zip("ABC", "XYZ")]
    tables = {name: {(): row} for name in "ABC"}
    tables.update({child: {("t",): row, ("f",): row} for child in "XYZ"})
    return net_from_tables(variables, tables)


def test_default_order_expands_each_child_after_its_parent():
    net = three_pairs()
    chain = compile_chain(net)
    # Each root is dropped as soon as its child is expanded: at most one
    # variable is carried into the next level.  Ties (the three roots at
    # the start) go to the earliest declared.
    assert expansion_order(chain) == ["A", "X", "B", "Y", "C", "Z"]
    assert widths(chain) == [1, 2, 2, 2, 2, 2, 2]
    declared = compile_chain(net, order=topological_order(net))
    assert expansion_order(declared) == ["A", "B", "C", "X", "Y", "Z"]
    assert widths(declared) == [1, 2, 4, 8, 8, 4, 2]


def test_default_order_of_the_demo_network_is_its_declaration_order():
    net = parse_network((FILES / "diagnostic.net").read_text())
    pbn = parse_param_spec((FILES / "diagnostic.params").read_text(), net)
    declared = topological_order(pbn)
    for chain in (compile_chain(pbn), compile_tailored(pbn, parse_constraint(DEMO_CONSTRAINT, pbn))[0]):
        expanded = expansion_order(chain)
        assert expanded == [v for v in declared if v in expanded]


# -- same answers in either order -----------------------------------------------


def layered(size: int, with_evidence: bool) -> tuple:
    """The bench's seeded layered net at ``size`` x ``size``, parametrized as the
    bench does (x on L0_0, y on the middle level's first table)."""
    variables, tables = layered_tables(size, size, 1)
    coords = (("L0_0", (), 0), (f"L{size // 2}_0", ("t", "t"), 0))
    pbn = parametrize(net_from_tables(variables, tables), coords, {coords[0]: "x", coords[1]: "y"})
    evidence = ((f"L{size - 1}_1", "f"), (f"L{size - 2}_2", "t")) if with_evidence else ()
    return pbn, ((f"L{size - 1}_0", "t"),), evidence


def guarded_partition(chain, spec, box):
    try:
        return partition(chain, spec, box, guard=32)
    except CoverageUnreachable as exc:
        return exc.partial


def inside(inner, outer) -> bool:
    return all(
        olb <= ilb and iub <= oub
        for (ilb, iub), (olb, oub) in zip(inner.intervals, outer.intervals)
    )


@pytest.mark.parametrize(
    "size, with_evidence, states",
    [(4, False, (69, 61)), (4, True, (193, 169)), (5, False, (253, 193)), (5, True, (593, 453))],
)
def test_default_and_declaration_orders_give_the_same_answers(size, with_evidence, states):
    pbn, hypothesis, evidence = layered(size, with_evidence)
    probe = Constraint(hypothesis, evidence, "<=", Fraction(1))
    declared, declared_spec = compile_tailored(pbn, probe, order=topological_order(pbn))
    chain, spec = compile_tailored(pbn, probe)
    assert (declared.n_states, chain.n_states) == states

    rng = random.Random(size * 2 + with_evidence)
    points = [pbn.origin_instantiation()] + [
        {name: Fraction(rng.randrange(1, 1000), 1000) for name in pbn.parameter_names}
        for _ in range(3)
    ]
    for u in points:
        assert reach_prob(chain, u, spec.targets) == pytest.approx(
            reach_prob(declared, u, declared_spec.targets), rel=0, abs=1e-12
        )
    u = points[1]
    assert sensitivity_function(chain, spec.targets).evaluate(u) == sensitivity_function(
        declared, declared_spec.targets
    ).evaluate(u)

    # The conditional is monotone in each parameter, so its range over the
    # declared box is spanned by the corners; halfway, both verdicts occur.
    corners = [reach_prob(chain, v, spec.targets) for v in pbn.space().vertices()]
    threshold = Fraction((min(corners) + max(corners)) / 2).limit_denominator(1000)
    constraint = Constraint(hypothesis, evidence, "<=", threshold)
    results = [
        guarded_partition(*compile_tailored(pbn, constraint, order=order), pbn.space())
        for order in (topological_order(pbn), None)
    ]
    for first, second in (results, results[::-1]):
        assert first.accepting and first.rejecting
        for box in first.accepting:
            assert not any(inside(box, r) or inside(r, box) for r in second.rejecting)


# -- an explicit order wins -----------------------------------------------------


def test_declaration_order_rebuilds_the_declaration_order_chains():
    # The committed demo chain and this digest of the bench net's chain were
    # both rendered when the declaration order was the default.
    net = parse_network((FILES / "diagnostic.net").read_text())
    pbn = parse_param_spec((FILES / "diagnostic.params").read_text(), net)
    constraint = parse_constraint(DEMO_CONSTRAINT, pbn)
    chain, spec = compile_tailored(pbn, constraint, order=topological_order(pbn))
    committed = (FILES.parent / "diagnostic-chain.dot").read_text()
    assert to_dot(chain, tuple(sorted(spec.targets))) == committed

    pbn, constraint = build_layered_6x6()
    chain, spec = compile_tailored(pbn, constraint, order=topological_order(pbn))
    assert chain.n_states == 709
    dot = to_dot(chain, tuple(sorted(spec.targets))).encode()
    assert hashlib.sha256(dot).hexdigest() == (
        "334b020ab453ae314d64ed1c02c32e7bb7b296d8a64a677036be926ff46edb92"
    )


@pytest.mark.parametrize("command", ["compile", "verify", "partition", "tune"])
def test_cli_on_the_demo_files_is_unchanged_by_an_explicit_order(capsys, command):
    net = parse_network((FILES / "diagnostic.net").read_text())
    declared = ",".join(topological_order(net))
    argv = [command, str(FILES / "diagnostic.net"), "-p", str(FILES / "diagnostic.params")]
    argv += ["-c", DEMO_CONSTRAINT]
    payloads = []
    for extra in ([], ["--order", declared]):
        main(argv + extra)
        payload = json.loads(capsys.readouterr().out)
        payload.pop("timings_ms", None)
        payloads.append(payload)
    assert payloads[0] == payloads[1]
