"""Sound verification of a reachability constraint over a whole parameter box.

Instead of solving the parametric system, every state first gets a private
copy of each parameter appearing on its outgoing edges (*relaxation*, which
can only widen the set of reachable probabilities).  Over the relaxed box the
extremal reachability values are attained when each state independently picks
an endpoint of its local intervals, so substituting all endpoint combinations
per state yields a small Markov decision process whose optimal values bracket
the original probability on the box from both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import BadRegion, NotWellFormed, TooLarge, UnboundParameter
from .pmc import PMC, LeveledSolver, ReachSpec, StateLabel
from .poly import Region

#: Decision margin around the threshold: bounds closer than this are inconclusive.
MARGIN = 1e-8
#: Per-state cap on local parameters (2**cap endpoint combinations).
LOCAL_PARAM_GUARD = 10


class Verdict(str, Enum):
    """Outcome of checking one box against the constraint."""

    ACCEPTING = "accepting"  # every point of the box satisfies the constraint
    REJECTING = "rejecting"  # no point of the box satisfies the constraint
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class RelaxedPMC:
    """A chain whose parameters are private to single states.

    ``origin`` maps each (possibly copied) parameter back to the parameter of
    the underlying chain it was copied from.
    """

    pmc: PMC
    origin: tuple[tuple[str, str], ...]

    @property
    def origin_map(self) -> dict[str, str]:
        return dict(self.origin)


@dataclass(frozen=True)
class BoundMDP:
    """Per-state endpoint substitutions of a relaxed chain.

    ``actions[s]`` holds one transition distribution per endpoint combination
    of the parameters local to state ``s`` (duplicates removed).
    """

    states: tuple[StateLabel, ...]
    initial: int
    actions: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.actions)


def relax(pmc: PMC) -> RelaxedPMC:
    """Give each state a private copy of every parameter it shares with another state.

    A parameter used by at most one state keeps its name.  Reachability
    probabilities over a box of the copies bound those of the original box,
    because the original behaviours (all copies equal) remain available.
    """
    occurrences: dict[str, list[int]] = {}
    for s, out in enumerate(pmc.edges):
        mentioned: set[str] = set()
        for _, weight in out:
            mentioned.update(weight.parameters)
        for name in sorted(mentioned):
            occurrences.setdefault(name, []).append(s)

    rename_per_state: dict[int, dict[str, str]] = {}
    origin: list[tuple[str, str]] = []
    new_params: list[tuple[str, tuple[Fraction, Fraction]]] = []
    for name, interval in pmc.params:
        states = occurrences.get(name, [])
        if len(states) >= 2:
            for s in states:
                copy = f"{name}@{s}"
                rename_per_state.setdefault(s, {})[name] = copy
                origin.append((copy, name))
                new_params.append((copy, interval))
        else:
            origin.append((name, name))
            new_params.append((name, interval))

    if not rename_per_state:
        return RelaxedPMC(pmc, tuple(origin))
    new_edges = tuple(
        tuple((t, w.rename(rename_per_state.get(s, {}))) for t, w in out)
        for s, out in enumerate(pmc.edges)
    )
    relaxed = PMC(pmc.states, pmc.initial, new_edges, tuple(new_params))
    return RelaxedPMC(relaxed, tuple(origin))


def substitute(relaxed: RelaxedPMC, region: Region) -> BoundMDP:
    """Instantiate every endpoint combination of each state's local parameters.

    ``region`` ranges over the *original* parameter names; each copy inherits
    the interval of its origin.  The region must lie inside the intervals the
    chain declares for its parameters.  Each weight is its exact value at the
    corner, rounded once, as the solver's rounding bound assumes.
    """
    pmc = relaxed.pmc
    origin = relaxed.origin_map
    local_interval: dict[str, tuple[Fraction, Fraction]] = {}
    for name, (dlb, dub) in pmc.params:
        source = origin.get(name, name)
        try:
            lb, ub = region.interval(source)
        except KeyError:
            raise UnboundParameter(f"region gives no interval for parameter {source!r}") from None
        if lb < dlb or ub > dub:
            raise BadRegion(
                f"interval [{lb}, {ub}] for {source!r} leaves the declared [{dlb}, {dub}]"
            )
        local_interval[name] = (lb, ub)

    all_actions = []
    for out in pmc.edges:
        local = sorted({p for _, w in out for p in w.parameters})
        unknown = [p for p in local if p not in local_interval]
        if unknown:
            raise UnboundParameter(f"chain uses undeclared parameter(s) {unknown}")
        if len(local) > LOCAL_PARAM_GUARD:
            raise TooLarge(
                f"{len(local)} parameters in one state exceed the guard of {LOCAL_PARAM_GUARD}"
            )
        choices = []
        for name in local:
            lb, ub = local_interval[name]
            choices.append((lb,) if lb == ub else (lb, ub))
        state_actions: dict[tuple[tuple[int, float], ...], None] = {}
        for corner in itertools.product(*choices):
            point = dict(zip(local, corner))
            distribution = []
            total = 0.0
            for t, w in out:
                p = w.evaluate_rounded(point)
                if not -1e-9 <= p <= 1 + 1e-9:
                    raise NotWellFormed(f"weight {w} evaluates to {p} outside [0, 1]")
                p = min(max(p, 0.0), 1.0)
                distribution.append((t, p))
                total += p
            if total > 1 + 1e-7:
                raise NotWellFormed(f"outgoing mass {total} exceeds 1")
            state_actions[tuple(distribution)] = None
        all_actions.append(tuple(state_actions))
    return BoundMDP(pmc.states, pmc.initial, tuple(all_actions))


# -- optimal reachability in the bounding process ---------------------------


def extremal_reach(
    mdp: BoundMDP,
    targets: frozenset[int] | set[int],
    mode: str = "max",
) -> float:
    """Optimal probability of reaching ``targets`` from the initial state.

    ``mode='max'`` over-approximates the supremum of the original chain's
    reachability probability over the box; ``mode='min'`` under-approximates
    the infimum.  Policy iteration with :class:`LeveledSolver` computes the
    optimum itself, unpadded; raises :class:`NotWellFormed` for a process
    that is not leveled.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    edges = [[pair for action in acts for pair in action] for acts in mdp.actions]
    solver = LeveledSolver(mdp.states, mdp.initial, edges, targets)
    return solver.extremal(mdp.actions, mode == "max")


class RegionVerifier:
    """Checks many boxes against one constraint, reusing work across calls.

    The relaxation and the solver's structure check and level order are
    shared between calls, which matters when a partitioning loop verifies
    thousands of sibling boxes.  Sharing the level order is sound because it
    depends only on which edges the chain has, and every box's process keeps
    exactly the chain's edges.
    """

    def __init__(self, pmc: PMC, spec: ReachSpec):
        self.spec = spec
        self.relaxed = relax(pmc)
        self.verifications = 0
        chain = self.relaxed.pmc
        self.solver = LeveledSolver(chain.states, chain.initial, chain.edges, spec.targets)

    def _bound(self, mdp: BoundMDP, maximize: bool) -> float:
        """The optimum, padded outwards by the solver's rounding bound."""
        value = self.solver.extremal(mdp.actions, maximize)
        if maximize:
            return min(value * (1 + self.solver.pad), 1.0)
        return max(value * (1 - self.solver.pad), 0.0)

    def bounds(self, region: Region) -> tuple[float, float]:
        """Sound lower and upper bounds on the probability over the box.

        The optima are widened by :attr:`LeveledSolver.pad`, the bound on
        their rounding error derived there, so the returned pair still
        brackets the true range.
        """
        mdp = substitute(self.relaxed, region)
        return self._bound(mdp, False), self._bound(mdp, True)

    def verify(self, region: Region) -> Verdict:
        """Classify the box, computing only the bounds the decision needs."""
        self.verifications += 1
        mdp = substitute(self.relaxed, region)
        threshold = float(self.spec.threshold)
        if self.spec.direction == "<=":
            if self._bound(mdp, True) <= threshold - MARGIN:
                return Verdict.ACCEPTING
            if self._bound(mdp, False) > threshold + MARGIN:
                return Verdict.REJECTING
            return Verdict.INCONCLUSIVE
        if self._bound(mdp, False) >= threshold + MARGIN:
            return Verdict.ACCEPTING
        if self._bound(mdp, True) < threshold - MARGIN:
            return Verdict.REJECTING
        return Verdict.INCONCLUSIVE


def verify_region(pmc: PMC, spec: ReachSpec, region: Region) -> Verdict:
    """One-shot sound classification of a box against the constraint."""
    return RegionVerifier(pmc, spec).verify(region)


def region_bounds(
    pmc: PMC, targets: frozenset[int] | set[int], region: Region
) -> tuple[float, float]:
    """Sound bounds on Pr(reach targets) over the box, without a threshold."""
    dummy = ReachSpec(frozenset(targets), "<=", Fraction(1))
    return RegionVerifier(pmc, dummy).bounds(region)
