"""The benchmark's workloads: their inputs, requests and correctness checks.

A workload's inputs are built here; the library receives only the built
objects.  ``setup()`` is the timed set-up (parse or build the network,
parametrise it, compile the evidence-tailored chains) and returns the
requests.  A request is one solving call plus a check of its output; the
check returns ``None`` when the output is correct and a reason otherwise.

Library layers are reached as module attributes (``pmc.reach_prob``, not a
name imported from ``pmc``) so that the traced run can rebind them.
Checks run outside the traced pass and are never timed.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from bntune import oracle
from bntune.bn import Constraint
from bntune.errors import CoverageUnreachable
from bntune.tune import Hyper, Status

bn = importlib.import_module("bntune.bn")
formats = importlib.import_module("bntune.formats")
pmc = importlib.import_module("bntune.pmc")
refine = importlib.import_module("bntune.refine")
tuning = importlib.import_module("bntune.tune")

ROOT = Path(__file__).resolve().parent.parent
COVID_FILES = ROOT / "demos" / "files"

#: Relative slack on "no greater than the reference distance": the reference
#: is a float from the same formula, so only the last bits may move.
DISTANCE_SLACK = 1e-12


@dataclass
class Request:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _distance_check(result, status: Status, reference: float | None) -> str | None:
    if result.status is not status:
        return f"status {result.status.value}, expected {status.value}"
    if reference is not None and not result.distance <= reference * (1 + DISTANCE_SLACK):
        return f"distance {result.distance!r} exceeds the reference {reference!r}"
    return None


# -- covid: the paper's running example, from the text formats ---------------

COVID_HYPOTHESIS = (("COVID-19", "no"),)
COVID_EVIDENCE = (("Antigen", "pos"), ("PCR", "pos"))
#: The two PCR rows: the only parametrisation of this network whose parameters
#: share one table, which the Chan-Darwiche (cd) distance needs.
PCR_ROWS = (("PCR", ("yes",), 0), ("PCR", ("no",), 0))


@dataclass(frozen=True)
class CovidRequest:
    name: str
    cd: bool  # parametrise the PCR rows (cd distance) instead of p and q
    direction: str
    threshold: Fraction
    hyper: Hyper
    status: Status
    #: Distance of the seed implementation's answer; a correct answer is no farther.
    reference: float | None


COVID_REQUESTS = (
    # distance**2 = 0.03393790957125098
    CovidRequest("ec-le-0.009", False, "<=", Fraction(9, 1000), Hyper(), Status.TUNED,
                 0.18422244589422587),
    CovidRequest("cd-le-0.009", True, "<=", Fraction(9, 1000), Hyper(eta=Fraction(9, 10)),
                 Status.TUNED, 0.25750661700409927),
    CovidRequest("ec-ge-0.02", False, ">=", Fraction(2, 100), Hyper(), Status.TUNED,
                 0.3520342457195063),
    CovidRequest("ec-le-0", False, "<=", Fraction(0), Hyper(eta=Fraction(1)),
                 Status.INFEASIBLE, None),
)


class Covid:
    """Four ``tune`` requests on the diagnostic network; the seed orders them."""

    def __init__(self, seed: int):
        self.net_text = (COVID_FILES / "diagnostic.net").read_text()
        self.params_text = (COVID_FILES / "diagnostic.params").read_text()
        self.requests = list(COVID_REQUESTS)
        random.Random(seed).shuffle(self.requests)

    def setup(self) -> list[Request]:
        net = formats.parse_network(self.net_text)
        pq = formats.parse_param_spec(self.params_text, net)
        pcr = bn.parametrize(net, PCR_ROWS, {PCR_ROWS[0]: "q", PCR_ROWS[1]: "r"})
        out = []
        for spec in self.requests:
            pbn = pcr if spec.cd else pq
            constraint = Constraint(COVID_HYPOTHESIS, COVID_EVIDENCE, spec.direction, spec.threshold)
            pmc.compile_tailored(pbn, constraint)  # timed as set-up; tune compiles its own
            out.append(self._request(spec, pbn, constraint))
        return out

    @staticmethod
    def _request(spec: CovidRequest, pbn, constraint: Constraint) -> Request:
        measure = "cd" if spec.cd else "ec"

        def run():
            return tuning.tune(pbn, constraint, measure, spec.hyper)

        def check(result) -> str | None:
            failure = _distance_check(result, spec.status, spec.reference)
            if failure or result.instantiation is None:
                return failure
            net = bn.instantiate(pbn, result.instantiation)
            posterior = oracle.infer(net, constraint.hypothesis, constraint.evidence)
            if not constraint.satisfied_by(posterior):
                return f"oracle posterior {posterior!r} violates {spec.direction} {spec.threshold}"
            return None

        return Request(spec.name, run, check)


# -- chain-N: the smoke test's chain ------------------------------------------


def chain_tables(n: int):
    """``V0 -> V1 -> ... -> V(n-1)``, binary, each node copying its parent with 0.95."""
    variables = [("V0", ("yes", "no"), ())]
    tables = {"V0": {(): ("0.5", "0.5")}}
    for i in range(1, n):
        variables.append((f"V{i}", ("yes", "no"), (f"V{i - 1}",)))
        tables[f"V{i}"] = {("yes",): ("0.95", "0.05"), ("no",): ("0.05", "0.95")}
    return variables, tables


class Chain:
    """One ``tune`` request: lower P(last | V5) by 0.005 via parameters x (V0) and y.

    The inputs do not depend on the seed.
    """

    REFERENCE = {30: 0.031738554687499976}

    def __init__(self, n: int, seed: int):
        self.n = n
        self.variables, self.tables = chain_tables(n)
        self.coords = (("V0", (), 0), (f"V{n // 2}", ("yes",), 0))
        self.hypothesis = ((f"V{n - 1}", "yes"),)
        self.evidence = (("V5", "yes"),)
        # Threshold = baseline - 0.005, derived once and untimed.
        pbn = self._pbn()
        probe = Constraint(self.hypothesis, self.evidence, "<=", Fraction(1))
        chain, spec = pmc.compile_tailored(pbn, probe)
        baseline = pmc.reach_prob(chain, pbn.origin_instantiation(), spec.targets)
        self.threshold = Fraction(baseline).limit_denominator(10**6) - Fraction(5, 1000)

    def _pbn(self):
        net = bn.net_from_tables(self.variables, self.tables)
        return bn.parametrize(net, self.coords, {self.coords[0]: "x", self.coords[1]: "y"})

    def setup(self) -> list[Request]:
        pbn = self._pbn()
        constraint = Constraint(self.hypothesis, self.evidence, "<=", self.threshold)
        chain, spec = pmc.compile_tailored(pbn, constraint)
        reference = self.REFERENCE.get(self.n)

        def run():
            return tuning.tune(pbn, constraint)

        def check(result) -> str | None:
            failure = _distance_check(result, Status.TUNED, reference)
            if failure:
                return failure
            prob = pmc.reach_prob(chain, result.instantiation, spec.targets)
            if not prob <= self.threshold:
                return f"reach_prob {prob!r} at the answer exceeds {float(self.threshold)!r}"
            return None

        return [Request(f"chain{self.n}-tune", run, check)]


# -- layered-LxW: a seeded layered network ------------------------------------


def layered_tables(levels: int, width: int, seed: int):
    """``levels`` x ``width`` binary nodes; each non-root node has 2 parents one level up.

    Entries are two-digit decimals in [0.05, 0.95].
    """
    rng = random.Random(seed)
    variables, tables = [], {}
    for level in range(levels):
        above = [f"L{level - 1}_{k}" for k in range(width)]
        for w in range(width):
            parents = tuple(sorted(rng.sample(above, 2))) if level else ()
            variables.append((f"L{level}_{w}", ("t", "f"), parents))
            keys = [(a, b) for a in ("t", "f") for b in ("t", "f")] if parents else [()]
            rows = {}
            for key in keys:
                v = rng.randint(5, 95)
                rows[key] = (f"0.{v:02d}", f"0.{100 - v:02d}")
            tables[f"L{level}_{w}"] = rows
    return variables, tables


class Layered:
    """One ``reach_prob`` at the original values, then a guarded ``partition``.

    The network is fixed (structure seed ``NET_SEED``) so that every run does
    the same work; ``seed`` draws the sample points that check the verdicts.
    """

    NET_SEED = 1
    #: Inside the declared box's bounds [0.5036, 0.5293] on 6x6, so verdicts mix.
    THRESHOLD = Fraction(51, 100)
    GUARD = 16

    def __init__(self, levels: int, width: int, seed: int):
        self.variables, self.tables = layered_tables(levels, width, self.NET_SEED)
        self.coords = (("L0_0", (), 0), (f"L{levels // 2}_0", ("t", "t"), 0))
        self.hypothesis = ((f"L{levels - 1}_0", "t"),)
        self.rng = random.Random(seed)
        self.name = f"layered-{levels}x{width}"
        self.expected_p0: float | None = None
        self.checked_boxes = None

    def setup(self) -> list[Request]:
        net = bn.net_from_tables(self.variables, self.tables)
        pbn = bn.parametrize(net, self.coords, {self.coords[0]: "x", self.coords[1]: "y"})
        constraint = Constraint(self.hypothesis, (), "<=", self.THRESHOLD)
        chain, spec = pmc.compile_tailored(pbn, constraint)
        u0 = pbn.origin_instantiation()
        space = pbn.space()

        def reach():
            return pmc.reach_prob(chain, u0, spec.targets)

        def check_reach(p0) -> str | None:
            if self.expected_p0 is None:
                # Independent path: the plain (untailored) chain of the same net.
                plain = pmc.compile_chain(pbn)
                self.expected_p0 = pmc.conditional_via_ratio(plain, constraint, u0)
            if not math.isclose(p0, self.expected_p0, rel_tol=0, abs_tol=1e-9):
                return f"reach_prob {p0!r}, plain chain gives {self.expected_p0!r}"
            return None

        def split():
            try:
                return refine.partition(chain, spec, space, guard=self.GUARD)
            except CoverageUnreachable as exc:
                return exc.partial

        def check_split(result) -> str | None:
            boxes = result.accepting + result.rejecting + result.unknown
            if sum(box.volume() for box in boxes) != space.volume():
                return "box volumes do not add up to the declared box"
            lists = (result.accepting, result.rejecting, result.unknown)
            if self.checked_boxes is not None:
                return None if lists == self.checked_boxes else "boxes differ between passes"
            for verdict, group in (("accepting", result.accepting), ("rejecting", result.rejecting)):
                for box in group:
                    point = {
                        name: lb + (ub - lb) * Fraction(self.rng.randrange(1, 1024), 1024)
                        for name, (lb, ub) in zip(box.params, box.intervals)
                    }
                    prob = pmc.reach_prob(chain, point, spec.targets)
                    if spec.satisfied_by(prob) != (verdict == "accepting"):
                        return f"{verdict} box {box} has reach_prob {prob!r} at {point}"
            self.checked_boxes = lists
            return None

        return [
            Request(f"{self.name}-reach_prob", reach, check_reach),
            Request(f"{self.name}-partition", split, check_split),
        ]


WORKLOADS = {
    "covid": Covid,
    "chain30": lambda seed: Chain(30, seed),
    "layered-6x6": lambda seed: Layered(6, 6, seed),
}
