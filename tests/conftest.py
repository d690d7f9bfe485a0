"""Shared fixtures: the diagnostic screening network and random model corpora.

The screening network models a disease with four variables (infection,
symptoms, a rapid antigen test, and a PCR test).  Two entries are tunable:
the antigen true-positive rate ``p`` and the PCR true-positive rate ``q``.
The stock requirement used throughout the suite bounds the residual risk
``P(COVID-19 = no | Antigen = pos, PCR = pos)`` by 0.009.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bntune import (
    BayesNet,
    Constraint,
    ParamBN,
    Region,
    net_from_tables,
    parametrize,
)
from bntune.tune import Hyper

ROOT = Path(__file__).resolve().parent.parent

VARIABLES = [
    ("COVID-19", ("yes", "no"), ()),
    ("Symptoms", ("yes", "no"), ("COVID-19",)),
    ("Antigen", ("pos", "neg"), ("COVID-19", "Symptoms")),
    ("PCR", ("pos", "neg"), ("COVID-19",)),
]

TABLES = {
    "COVID-19": {(): ("0.05", "0.95")},
    "Symptoms": {("yes",): ("0.698", "0.302"), ("no",): ("0.1", "0.9")},
    "Antigen": {
        ("yes", "yes"): ("0.72", "0.28"),
        ("yes", "no"): ("0.58", "0.42"),
        ("no", "yes"): ("0.005", "0.995"),
        ("no", "no"): ("0.01", "0.99"),
    },
    "PCR": {("yes",): ("0.95", "0.05"), ("no",): ("0.04", "0.96")},
}

#: Tunable entries: antigen sensitivity ``p`` and PCR sensitivity ``q``.
CP = ("Antigen", ("yes", "yes"), 0)
CQ = ("PCR", ("yes",), 0)

#: The same network and parameter selection in the text file formats.
COVID_NET_TEXT = """
# A four-node diagnostic screening network.
var COVID-19 { values: yes, no; }
var Symptoms { values: yes, no; parents: COVID-19; }
var Antigen  { values: pos, neg; parents: COVID-19, Symptoms; }
var PCR      { values: pos, neg; parents: COVID-19; }

cpt COVID-19 { (): 0.05, 0.95; }
cpt Symptoms {
  (yes): 0.698, 0.302;
  (no):  0.1, 0.9;
}
cpt Antigen {
  (yes, yes): 0.72, 0.28;
  (yes, no):  0.58, 0.42;
  (no, yes):  0.005, 0.995;
  (no, no):   0.01, 0.99;
}
cpt PCR {
  (yes): 0.95, 0.05;
  (no):  0.04, 0.96;
}
"""

COVID_PARAMS_TEXT = """
param p { entry: Antigen(yes, yes): pos; covariation: linear-proportional; }
param q { entry: PCR(yes): pos; }
"""

COVID_CONSTRAINT_TEXT = "P(COVID-19=no | Antigen=pos & PCR=pos) <= 0.009"


def build_covid_net() -> BayesNet:
    return net_from_tables(VARIABLES, TABLES)


def build_covid_pbn() -> ParamBN:
    return parametrize(build_covid_net(), [CP, CQ], {CP: "p", CQ: "q"})


def build_covid_constraint() -> Constraint:
    return Constraint(
        (("COVID-19", "no"),),
        (("Antigen", "pos"), ("PCR", "pos")),
        "<=",
        Fraction(9, 1000),
    )


def covid_tune_requests() -> list[tuple[ParamBN, Constraint, str, Hyper]]:
    """The four tune requests of the bench's covid workload, as (pbn, constraint,
    measure, hyper): ``ec`` and ``cd``, both directions, one infeasible."""
    rows = (("PCR", ("yes",), 0), ("PCR", ("no",), 0))
    pcr = parametrize(build_covid_net(), rows, dict(zip(rows, "qr")))
    pbn = build_covid_pbn()
    hypothesis, evidence = (("COVID-19", "no"),), (("Antigen", "pos"), ("PCR", "pos"))
    return [
        (chosen, Constraint(hypothesis, evidence, direction, threshold), measure, hyper)
        for chosen, measure, direction, threshold, hyper in (
            (pbn, "ec", "<=", Fraction(9, 1000), Hyper()),
            (pcr, "cd", "<=", Fraction(9, 1000), Hyper(eta=Fraction(9, 10))),
            (pbn, "ec", ">=", Fraction(2, 100), Hyper()),
            (pbn, "ec", "<=", Fraction(0), Hyper(eta=Fraction(1))),
        )
    ]


def covid_posterior(p, q):
    """Closed form of the constrained posterior as a function of (p, q)."""
    return 361.0 / (34900.0 * p * q + 8758.0 * q + 361.0)


def build_toy_pbn() -> ParamBN:
    """One binary node with prior (x, 1 - x), x in [0.2, 0.6], pivot 0.4."""
    net = net_from_tables(
        [("T", ("yes", "no"), ())],
        {"T": {(): ("0.4", "0.6")}},
    )
    coord = ("T", (), 0)
    return parametrize(
        net,
        [coord],
        {coord: "x"},
        intervals={"x": (Fraction(1, 5), Fraction(3, 5))},
    )


@pytest.fixture
def covid_net() -> BayesNet:
    return build_covid_net()


@pytest.fixture
def covid_pbn() -> ParamBN:
    return build_covid_pbn()


@pytest.fixture
def covid_constraint() -> Constraint:
    return build_covid_constraint()


@pytest.fixture
def toy_pbn() -> ParamBN:
    return build_toy_pbn()


def state_index(pmc, level, assignment, hypothesis=None) -> int:
    """Index of the chain state with the given label, or AssertionError."""
    for i, label in enumerate(pmc.states):
        if (
            label.level == level
            and label.assignment == assignment
            and label.hypothesis == hypothesis
        ):
            return i
    raise AssertionError(f"no state at level {level} with {assignment}")


def edge_map(pmc, source):
    return {target: poly for target, poly in pmc.edges[source]}


def _positive_row(rng: random.Random, width: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(1, 9) for _ in range(width)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_net(rng: random.Random, *, max_nodes: int = 5) -> BayesNet:
    """A random chain-free DAG with strictly positive tables."""
    n_nodes = rng.randint(2, max_nodes)
    variables = []
    tables = {}
    for i in range(n_nodes):
        name = f"N{i}"
        width = 2 if rng.random() < 0.8 else 3
        values = ("a", "b", "c")[:width]
        pool = [f"N{j}" for j in range(i)]
        parents = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 2))))
        variables.append((name, values, parents))
        tables[name] = {
            key: _positive_row(rng, width)
            for key in _product_keys(variables, parents)
        }
    return net_from_tables(variables, tables)


def _product_keys(variables, parents):
    lookup = {name: values for name, values, _ in variables}
    keys = [()]
    for parent in parents:
        keys = [key + (value,) for key in keys for value in lookup[parent]]
    return keys


def random_parametrization(
    rng: random.Random, net: BayesNet, *, max_params: int = 3
) -> ParamBN:
    """Pick up to ``max_params`` pivots in distinct rows of ``net``."""
    rows = [
        (cpt.owner, key, len(entries))
        for cpt in net.cpts
        for key, entries in cpt.rows
    ]
    rng.shuffle(rows)
    count = rng.randint(1, min(max_params, len(rows)))
    coords = [
        (owner, key, rng.randrange(width)) for owner, key, width in rows[:count]
    ]
    return parametrize(net, coords)


def random_single_cpt_parametrization(
    rng: random.Random, net: BayesNet, *, max_params: int = 3
) -> ParamBN:
    """Pivots confined to one CPT, one per row (needed by the CD measure)."""
    owner = rng.choice(sorted(c.owner for c in net.cpts))
    cpt = net.cpt_map[owner]
    keys = [key for key, _ in cpt.rows]
    rng.shuffle(keys)
    count = rng.randint(1, min(max_params, len(keys)))
    coords = [
        (owner, key, rng.randrange(len(cpt.row(key)))) for key in keys[:count]
    ]
    return parametrize(net, coords)


def random_constraint(rng: random.Random, net: BayesNet) -> Constraint:
    lookup = net.variable_map
    names = sorted(lookup)
    hyp_var = rng.choice(names)
    hypothesis = ((hyp_var, rng.choice(lookup[hyp_var].values)),)
    others = [name for name in names if name != hyp_var]
    evidence = tuple(
        (name, rng.choice(lookup[name].values))
        for name in rng.sample(others, rng.randint(0, min(2, len(others))))
    )
    direction = rng.choice(("<=", ">="))
    threshold = Fraction(rng.randint(1, 99), 100)
    return Constraint(hypothesis, evidence, direction, threshold)


def random_region(rng: random.Random, pbn: ParamBN) -> Region:
    """A random sub-box of ``pbn``'s declared space around each pivot."""
    intervals = {}
    for name in pbn.parameter_names:
        pivot = pbn.origin_instantiation()[name]
        lo = max(Fraction(1, 100), pivot * Fraction(rng.randint(2, 9), 10))
        hi = min(
            Fraction(99, 100),
            pivot + (1 - pivot) * Fraction(rng.randint(1, 8), 10),
        )
        declared_lo, declared_hi = pbn.interval(name)
        lo = max(lo, declared_lo)
        hi = min(hi, declared_hi)
        intervals[name] = (lo, hi)
    return Region.from_bounds(intervals)


def region_samples(
    rng: random.Random, region: Region, count: int
) -> list[dict[str, float]]:
    """Uniform float samples from ``region``, clamped to stay inside it."""
    points = []
    for _ in range(count):
        point = {}
        for name in region.params:
            lo, hi = region.interval(name)
            point[name] = min(max(rng.uniform(float(lo), float(hi)), float(lo)), float(hi))
        points.append(point)
    return points


def layered_tables(levels: int, width: int, seed: int):
    """The benchmark's seeded layered-network generator, ``workloads.layered_tables``."""
    module = sys.modules.get("workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module
        spec.loader.exec_module(module)
    return module.layered_tables(levels, width, seed)


def build_layered_6x6() -> tuple[ParamBN, Constraint]:
    """The benchmark's layered-6x6 net: x on L0_0, y on L3_0[t,t], Pr(L5_0 = t) <= 0.51."""
    variables, tables = layered_tables(6, 6, 1)
    coords = (("L0_0", (), 0), ("L3_0", ("t", "t"), 0))
    pbn = parametrize(net_from_tables(variables, tables), coords, {coords[0]: "x", coords[1]: "y"})
    return pbn, Constraint((("L5_0", "t"),), (), "<=", Fraction(51, 100))
