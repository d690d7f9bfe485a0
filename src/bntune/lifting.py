"""Sound verification of a reachability constraint over a whole parameter box.

Instead of solving the parametric system, each state chooses the values of
the parameters on its outgoing edges independently of the other states
(*relaxation*, which can only widen the set of reachable probabilities).  Over
the relaxed box the extremal reachability values are attained when each state
independently picks an endpoint of its own intervals, so substituting all
endpoint combinations per state yields a small Markov decision process whose
optimal values bracket the original probability on the box from both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import BadRegion, TooLarge, UnboundParameter
from .pmc import PMC, LeveledSolver, ReachSpec, StateLabel, _distribution
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
class BoundMDP:
    """Per-state endpoint substitutions of a chain over one box.

    ``actions[s]`` holds one transition distribution per endpoint combination
    of the parameters local to state ``s`` (duplicates removed).
    """

    states: tuple[StateLabel, ...]
    initial: int
    actions: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]


def relax(pmc: PMC) -> PMC:
    """Check that :func:`substitute` can bound the chain, and return it unchanged.

    Each state chooses a corner of its own parameters' intervals
    independently of the others, which relaxes a parameter shared across
    states to one free value per state.  That needs no copy of the chain:
    :attr:`PMC.lowered` already lists each parametric state with its own
    parameters.  Raises :class:`UnboundParameter` for an undeclared
    parameter, :class:`TooLarge` for too many parameters in one state, and
    :class:`NotWellFormed` for a parameter-free state whose weights are not a
    sub-distribution.
    """
    names = set(pmc.parameter_names)
    for _, local in pmc.lowered.parametric:
        unknown = [p for p in local if p not in names]
        if unknown:
            raise UnboundParameter(f"chain uses undeclared parameter(s) {unknown}")
        if len(local) > LOCAL_PARAM_GUARD:
            raise TooLarge(
                f"{len(local)} parameters in one state exceed the guard of {LOCAL_PARAM_GUARD}"
            )
    return pmc


def substitute(
    pmc: PMC,
    region: Region,
    corners: dict[tuple[int, tuple[Fraction, ...]], tuple[tuple[int, float], ...]] | None = None,
) -> BoundMDP:
    """Instantiate every endpoint combination of each state's own parameters.

    The region must give every parameter of the chain an interval inside the
    declared one.  Each weight is its exact value at the corner, rounded
    once, as the solver's rounding bound assumes.  Only the parametric states
    of :attr:`PMC.lowered` are evaluated per box; the parameter-free states
    share its actions.  ``corners`` maps (parametric state, corner values, in
    the order of the state's sorted parameter names) to the state's checked
    action there: a corner found in it is not evaluated again, and each
    corner evaluated is added, so sibling boxes that share most corners
    evaluate only the new ones.  A corner that raises is not added.
    """
    choices: dict[str, tuple[Fraction, ...]] = {}
    for name, (dlb, dub) in pmc.params:
        try:
            lb, ub = region.interval(name)
        except KeyError:
            raise UnboundParameter(f"region gives no interval for parameter {name!r}") from None
        if lb < dlb or ub > dub:
            raise BadRegion(
                f"interval [{lb}, {ub}] for {name!r} leaves the declared [{dlb}, {dub}]"
            )
        choices[name] = (lb,) if lb == ub else (lb, ub)

    if corners is None:
        corners = {}
    all_actions = list(pmc.lowered.actions)
    for s, local in pmc.lowered.parametric:
        state_actions: dict[tuple[tuple[int, float], ...], None] = {}
        for corner in itertools.product(*(choices[name] for name in local)):
            action = corners.get((s, corner))
            if action is None:
                action = _distribution(pmc.edges[s], dict(zip(local, corner)), {})
                corners[s, corner] = action
            state_actions[action] = None
        all_actions[s] = tuple(state_actions)
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

    The chain's lowering and the solver's structure check and level order
    are shared between calls, which matters when a partitioning loop
    verifies thousands of sibling boxes.  Sharing the level order is sound
    because it depends only on which edges the chain has, and every box's
    process keeps exactly the chain's edges.  Both are taken from the chain,
    which builds them once for all its callers (:attr:`PMC.lowered`,
    :meth:`PMC.solver`), so a :func:`reach_prob` on the same chain, before
    or after, does not repeat them.  The chain's solver has collapsed the
    states that no box changes, the parameter-free ones, into affine forms,
    so each bound walks only the chain's parametric skeleton.

    Only what a box changes is evaluated: the verifier keeps every corner
    action that :func:`substitute` has computed for it, keyed by state and
    corner values, so a box evaluates only the corners that no earlier box
    of this verifier had.  A kept action is the one that evaluating the
    corner again would give, bit for bit.  The corners last as long as the
    verifier: one :func:`tune.tune` run, or one :func:`refine.partition`
    run that builds its own, whose guard bounds the boxes, and so the
    corners, that it sees.

    :meth:`verify` decides each side of the threshold with one greedy round
    (:meth:`LeveledSolver.greedy`) at the threshold moved by ``MARGIN``
    towards the side to be shown, instead of computing the bound.  The
    picked policy's padded value lies beyond that point only if every
    policy's exact value does (up to the tie caveat of
    :class:`LeveledSolver`), so a conclusive verdict is as sound as one from
    :meth:`bounds`.  The two give the same verdict unless the optimum lies
    within the pad of that point; there :meth:`verify` may decide a box
    that :meth:`bounds` leaves inconclusive, as the picked policy need not
    be the optimal one.
    """

    def __init__(self, pmc: PMC, spec: ReachSpec):
        self.spec = spec
        self.pmc = relax(pmc)
        self.solver = pmc.solver(spec.targets)
        self._corners: dict = {}

    def _padded(self, value: float, maximize: bool) -> float:
        """``value`` widened outwards by the solver's rounding bound."""
        if maximize:
            return min(value * (1 + self.solver.pad), 1.0)
        return max(value * (1 - self.solver.pad), 0.0)

    def _greedy(self, actions, x: float, maximize: bool) -> float:
        """The padded value of the policy that one greedy round at ``x`` picks."""
        return self._padded(self.solver.greedy(actions, x, maximize), maximize)

    def bounds(self, region: Region) -> tuple[float, float]:
        """Sound lower and upper bounds on the probability over the box.

        The optima, from policy iteration, are widened by
        :attr:`LeveledSolver.pad`, the bound on their rounding error derived
        there, so the returned pair still brackets the true range.
        """
        actions = substitute(self.pmc, region, self._corners).actions
        return (
            self._padded(self.solver.extremal(actions, False), False),
            self._padded(self.solver.extremal(actions, True), True),
        )

    def verify(self, region: Region) -> Verdict:
        """Classify the box, deciding only the sides that the verdict needs."""
        actions = substitute(self.pmc, region, self._corners).actions
        threshold = float(self.spec.threshold)
        below, above = threshold - MARGIN, threshold + MARGIN
        if self.spec.direction == "<=":
            if self._greedy(actions, below, True) <= below:
                return Verdict.ACCEPTING
            if self._greedy(actions, above, False) > above:
                return Verdict.REJECTING
            return Verdict.INCONCLUSIVE
        if self._greedy(actions, above, False) >= above:
            return Verdict.ACCEPTING
        if self._greedy(actions, below, True) < below:
            return Verdict.REJECTING
        return Verdict.INCONCLUSIVE

