"""Compiling a network into a level-structured Markov chain with polynomial labels.

The chain expands one variable per level along a topological order.  A
variable's value is carried in the state only while a later table still needs
it (don't-care abstraction).  For conditional queries the chain can be
tailored to the evidence: transitions that would violate an evidence literal
restart at the initial state, which turns the conditional into plain
reachability of the hypothesis-satisfying leaves.  A tailored chain expands
only the hypothesis and evidence variables and their ancestors: every other
variable is *barren*, sums out to one and cannot change the conditional.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .bn import Constraint, Instantiation, ParamBN, _check_comparison, topological_order
from .errors import (
    EvidenceImpossible,
    NotWellFormed,
    TooLarge,
)
from .poly import ONE, ZERO, Polynomial, _binary_fraction, _exact_point

#: State-space guard for exact symbolic elimination.
ELIMINATION_GUARD = 10**4


@dataclass(frozen=True)
class StateLabel:
    """What a chain state remembers: expansion level, the values of its
    level's carried set (each earlier variable that a later table still
    needs, then the level's own variable), and (for evidence-tailored
    chains) whether the hypothesis still holds."""

    level: int
    assignment: tuple[tuple[str, str], ...]
    hypothesis: bool | None = None

    def __str__(self) -> str:
        body = ", ".join(f"{n}={v}" for n, v in self.assignment) or "init"
        if self.hypothesis is None:
            return body
        return f"{body} | {'H' if self.hypothesis else '!H'}"


@dataclass(frozen=True)
class Lowering:
    """The part of a chain's point evaluation that no point changes.

    ``actions[s]`` is the single checked float action of a parameter-free
    state and ``None`` for a parametric one; ``parametric`` lists each
    parametric state with its sorted own parameter names.
    """

    actions: tuple[tuple[tuple[tuple[int, float], ...], ...] | None, ...]
    parametric: tuple[tuple[int, tuple[str, ...]], ...]


@dataclass(frozen=True)
class PMC:
    """A Markov chain whose transition probabilities are polynomials.

    The per-chain work shared by :func:`reach_prob`, :func:`lifting.relax`,
    :func:`lifting.substitute`, :class:`lifting.RegionVerifier`,
    :func:`refine.partition` and :func:`sensitivity_function` is done on
    first use and kept on the chain: its :attr:`lowered` form, per target
    set the one collapsed :class:`LeveledSolver` of :meth:`solver`, and the
    checked action of every (parametric state, corner) that
    :func:`lifting.substitute` has evaluated.  An equal but distinct chain
    shares none of it; :func:`compile_tailored` returns the same chain for
    a repeat of a network's most recent query, so its callers share it all.
    """

    states: tuple[StateLabel, ...]
    initial: int
    edges: tuple[tuple[tuple[int, Polynomial], ...], ...]
    params: tuple[tuple[str, tuple[Fraction, Fraction]], ...]

    @cached_property
    def lowered(self) -> Lowering:
        """Every parameter-free state's weights, evaluated and checked once.

        A weight object that several edges share is evaluated once.  Raises
        :class:`NotWellFormed` for a parameter-free state whose weights are
        not a sub-distribution.
        """
        memo: dict[int, float] = {}
        actions: list[tuple | None] = []
        parametric = []
        for s, out in enumerate(self.edges):
            for _, w in out:
                if w.parameters:  # the first parametric weight: name them all
                    local = sorted({p for _, w in out for p in w.parameters})
                    parametric.append((s, tuple(local)))
                    actions.append(None)
                    break
            else:
                actions.append((_distribution(out, {}, memo),))
        return Lowering(tuple(actions), tuple(parametric))

    @cached_property
    def _solvers(self) -> dict[frozenset[int], "LeveledSolver"]:
        return {}

    @cached_property
    def _corners(self) -> dict[tuple[int, tuple[tuple[int, int], ...]], tuple]:
        return {}

    def solver(self, targets: Iterable[int]) -> "LeveledSolver":
        """The chain's :class:`LeveledSolver` for ``targets``, built once.

        It collapses the parameter-free states with the actions of
        :attr:`lowered`, so it raises :class:`NotWellFormed` where that does.
        Callers share it; no method changes it.
        """
        targets = frozenset(targets)
        solver = self._solvers.get(targets)
        if solver is None:
            solver = LeveledSolver(
                self.states, self.initial, self.edges, targets, self.lowered.actions
            )
            self._solvers[targets] = solver
        return solver

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        return sum(len(out) for out in self.edges)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)


@dataclass(frozen=True)
class ReachSpec:
    """A reachability constraint: compare Pr(reach targets) against a threshold,
    by the comparison rule of :class:`Constraint`, whose checks and
    ``satisfied_by`` it shares."""

    targets: frozenset[int]
    direction: str
    threshold: Fraction

    def __post_init__(self):
        if not self.targets:
            raise NotWellFormed("a reachability constraint needs at least one target state")
        _check_comparison(self)

    satisfied_by = Constraint.satisfied_by


def _narrow_order(
    net: ParamBN, expanded: set[str], given: Sequence[str] | None = None
) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """A topological order of ``expanded`` and, per level, its carried set.

    A level's carried set is every earlier variable that an unexpanded one
    still lists as a parent, in expansion order, then the level's own
    variable.  ``given`` is an explicit order: it is validated over every
    variable, restricted to ``expanded`` and followed.  Without it the sweep
    is greedy, as in elimination-order heuristics: of the variables whose
    parents are all expanded, take the one after which the carried set has
    the fewest value combinations; ties go to the earliest declared.
    ``expanded`` must hold every parent of its members.
    """
    sizes = {v.name: len(v.values) for v in net.variables if v.name in expanded}
    parents = {name: net.variable_map[name].parents for name in sizes}
    children: dict[str, list[str]] = {name: [] for name in sizes}
    for name, ps in parents.items():
        for p in ps:
            children[p].append(name)
    unready = {name: len(ps) for name, ps in parents.items()}
    # Each carried variable's count of unexpanded children, in expansion
    # order; `combos` is the number of their value combinations.
    pending: dict[str, int] = {}
    combos = 1
    position = {name: i for i, name in enumerate(sizes)}
    ready = [name for name, n in unready.items() if not n]
    if given is not None:
        given = [v for v in topological_order(net, given) if v in expanded]
    order: list[str] = []
    carried: list[tuple[str, ...]] = []

    def cost(name: str) -> tuple[int, int]:
        dropped = math.prod(sizes[p] for p in parents[name] if pending[p] == 1)
        return sizes[name] * (combos // dropped), position[name]

    while ready:
        chosen = min(ready, key=cost) if given is None else given[len(order)]
        ready.remove(chosen)
        order.append(chosen)
        for p in parents[chosen]:
            pending[p] -= 1
            if not pending[p]:
                del pending[p]
                combos //= sizes[p]
        carried.append((*pending, chosen))
        if children[chosen]:
            pending[chosen] = len(children[chosen])
            combos *= sizes[chosen]
        for child in children[chosen]:
            unready[child] -= 1
            if not unready[child]:
                ready.append(child)
    return tuple(order), carried


def _build(
    net: ParamBN, order: Sequence[str] | None, constraint: Constraint | None
) -> tuple[PMC, list[int]]:
    """The chain of a plain or evidence-tailored compilation, and its leaves,
    the states of the last level.

    A tailored build expands only the ancestral set of the hypothesis and
    evidence variables.  :func:`_narrow_order` follows a given order, or
    picks one, and yields each level's carried set: the variables whose
    values the level's states label.  A state of a level is named by a
    plain tuple key: the values of the level's carried set, in its order,
    then the hypothesis flag.  A source's row and its targets' keys are
    read off the source's key by one picker each (:func:`_picker`) of
    positions computed once per level, and a :class:`StateLabel` is built
    only for a new state.  The next level is numbered in the order its
    states are first reached, and each state's edges are sorted by target.

    A tailored build raises :class:`EvidenceImpossible` when no leaf is
    reachable along edges that are positive at the recorded original
    values (any built edge, when there are none): every path restarts.
    """
    variable_map = net.variable_map
    tailored = constraint is not None
    evidence = dict(constraint.evidence) if tailored else {}
    hypothesis = dict(constraint.hypothesis) if tailored else {}
    expanded = set() if tailored else set(variable_map)
    stack = [*hypothesis, *evidence]  # a tailored build's ancestral set
    while stack:
        name = stack.pop()
        if name not in expanded:
            expanded.add(name)
            stack.extend(variable_map[name].parents)
    order, carried = _narrow_order(net, expanded, order)
    point = None if net.origin is None else dict(net.origin)
    initial, holds = 0, True if tailored else None
    states = [StateLabel(0, (), holds)]
    edges: list[list[tuple[int, Polynomial]]] = [[]]
    frontier = [(initial, (holds,))]
    # Forward edges never merge, as the just-expanded variable stays in
    # the key, so each keeps its table entry itself (edges share entry
    # objects) and each entry is tested on its own.  The test is memoized
    # by id: hashing a Polynomial costs more than it saves.  Only the
    # restart edges of one source are summed.
    reached = {initial}
    positive: dict[int, bool] = {}
    previous: tuple[str, ...] = ()
    for level, (var_name, keep) in enumerate(zip(order, carried)):
        variable = variable_map[var_name]
        table = net.cpt_map[var_name]
        ev_value = evidence.get(var_name)
        hyp_value = hypothesis.get(var_name)
        at = {name: i for i, name in enumerate(previous)}
        parents_of = _picker([at[p] for p in variable.parents])
        kept_of = _picker([at[w] for w in keep[:-1]])
        ids: dict[tuple, int] = {}
        next_frontier: list[tuple[int, tuple]] = []
        for source, key in frontier:
            row = table.row(parents_of(key))
            values = kept_of(key)
            hyp = key[-1]
            live = tailored and source in reached
            out = edges[source]
            restart = None
            for value, entry in zip(variable.values, row):
                if entry.is_zero():
                    continue
                if ev_value is not None and value != ev_value:
                    restart = entry if restart is None else restart + entry
                    continue
                holds = hyp if hyp_value is None else hyp and value == hyp_value
                target_key = (*values, value, holds)
                target = ids.get(target_key)
                if target is None:
                    target = ids[target_key] = len(states)
                    states.append(StateLabel(level + 1, tuple(zip(keep, target_key)), holds))
                    edges.append([])
                    next_frontier.append((target, target_key))
                out.append((target, entry))
                if live and target not in reached:
                    entry_id = id(entry)
                    if entry_id not in positive:
                        positive[entry_id] = point is None or entry.evaluate_rounded(point) > 0.0
                    if positive[entry_id]:
                        reached.add(target)
            if restart is not None:
                out.append((initial, restart))
        frontier = next_frontier
        previous = keep
    leaves = [s for s, _ in frontier]
    if tailored and reached.isdisjoint(leaves):
        raise EvidenceImpossible("the evidence has probability zero; every path restarts")
    for leaf in leaves:
        edges[leaf].append((leaf, ONE))
    # A state's targets are distinct, so sorting never compares weights.
    packed = tuple(tuple(sorted(out)) for out in edges)
    return PMC(tuple(states), initial, packed, net.params), leaves


def _picker(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The function that picks the items at ``positions`` of a tuple, as a tuple."""
    if not positions:
        return lambda key: ()
    if len(positions) == 1:
        (i,) = positions
        return lambda key: (key[i],)
    return operator.itemgetter(*positions)


def compile_chain(net: ParamBN, order: Sequence[str] | None = None) -> PMC:
    """Compile a network into its level-structured chain.

    ``order`` must be a topological order of the variables.  Without one,
    the ready variable that leaves the fewest carried value combinations is
    expanded next (ties in declaration order).  A state labels an expanded
    variable only while a later table still needs its value.
    """
    return _build(net, order, None)[0]


def compile_tailored(
    net: ParamBN,
    constraint: Constraint,
    order: Sequence[str] | None = None,
) -> tuple[PMC, ReachSpec]:
    """Compile the evidence-tailored chain and its reachability constraint.

    Only the hypothesis and evidence variables and their ancestors are
    expanded; any other variable is barren and leaves the conditional
    unchanged.  ``order`` must still list every variable; without one, the
    expanded variables are ordered as in :func:`compile_chain`.  The chain keeps
    every declared parameter in ``params``, even one that no edge carries.
    Transitions into states that would violate an evidence literal restart at
    the initial state, so the probability of reaching the hypothesis-true
    leaves equals the conditional probability of the hypothesis given the
    evidence, at every instantiation that keeps the chain's topology.  The
    spec keeps the constraint's threshold, so both give one verdict.

    The network keeps the chain and target set of its most recent query,
    keyed by the constraint's hypothesis and evidence and the order (as a
    tuple, or ``None``).  A repeat of that query, whatever its direction and
    threshold, returns the same chain with a new spec, so every caller and
    every :func:`tune.tune` run on it shares the chain's lowering, solvers
    and corners (see :class:`PMC`).  Only one query is kept, so a chain is
    not held once the network compiles another.  The constraint is checked
    against the network on every call; a compilation that raises leaves the
    kept one in place.

    The evidence must have positive probability at the network's recorded
    original values, when it has them, and otherwise along some path of
    nonzero entries; else :class:`EvidenceImpossible` is raised.
    """
    constraint.check_against(net)
    if order is not None:
        order = tuple(order)
    key = (constraint.hypothesis, constraint.evidence, order)
    kept = net._tailored
    if kept is None or kept[0] != key:
        chain, leaves = _build(net, order, constraint)
        targets = frozenset(s for s in leaves if chain.states[s].hypothesis)
        if not targets:
            raise NotWellFormed("no leaf satisfies the hypothesis; its probability is identically 0")
        kept = (key, chain, targets)
        object.__setattr__(net, "_tailored", kept)
    _, chain, targets = kept
    return chain, ReachSpec(targets, constraint.direction, constraint.threshold)


class LeveledSolver:
    """Reachability values of a leveled chain, or of its endpoint MDP, in one pass per round.

    Compiled chains are *leveled*: every edge goes from level l to l+1 or
    restarts at the initial state, and a leaf's only edge loops on itself.
    The constructor checks this once, raising :class:`NotWellFormed` for any
    other edge, and orders the states deepest level first.

    Under a fixed choice of one action per state (a policy), every state's
    value is T + R*x, where x is the initial state's value.  One pass in
    level order computes T, the mass that hits a target before a restart,
    and E, the mass that ends at a target or leaf without restarting; R is
    the restart mass 1 - E.  So x = T/E at the initial state.  T and E are
    sums of products of non-negative floats, so no subtraction cancels
    digits.  When E = 0 every path restarts forever, and the least fixed
    point x = 0 is the value.

    A round at a given x picks each state's action with the best gain
    T - x*E, the largest for the maximum and the least for the minimum (the
    best T + R*x, without its cancellation), and solves the policy it
    picked.  A state's gain is its action's weighted sum of its
    successors' gains (a target's is 1 - x, a leaf's -x, a restart's 0), so
    choosing per state, deepest level first, gives the initial state the
    best gain over all policies.  :meth:`extremal` runs policy iteration on
    x.  The first round runs at x = 0, where the gain is T itself: a zero
    there is exact and means that some policy (min) or every policy (max)
    never reaches a target, so the value is 0.  Later rounds stop once x no
    longer improves, which includes the policy repeating.  The greedy gain
    at the initial state is then the best T - x*E over all policies, and its
    sign bounds every policy's T/E by x.  Rounds are capped at the number of
    states.

    One round decides a threshold x (Dinkelbach, *On Nonlinear Fractional
    Programming*, 1967): max T/E <= x exactly when max (T - x*E) <= 0.
    :meth:`greedy` runs that round and returns the picked policy's T/E.  For
    the maximum, every policy's T/E is at most x exactly when the picked
    one's is.  If the picked T/E is at most x and x >= 0, its gain, and so
    every policy's, is at most 0, and T <= x*E bounds each T/E by x; a
    policy with E = 0 has T = 0 (T <= E), gain 0 and value 0 <= x, so the
    same sign covers it.  If the picked T/E exceeds x, or x < 0, the picked
    policy is itself a counterexample.  For the minimum, every policy's T/E
    exceeds x exactly when the picked one's does (for x < 0 both hold): a
    picked T/E above x >= 0 means T > 0, so E > 0 and its gain, the least,
    is positive; every policy then has T > x*E, and none has E = 0, whose
    gain is 0.  So
    a side of a threshold needs one round, and policy iteration is needed
    only for the value itself.

    Given ``actions``, the constructor also collapses every state that has
    a single fixed action and no parameter into an affine form over the
    states that stay in the pass; a round then walks only those states and
    expands the forms that they read directly.  ``actions[s]`` is ``None``
    for a parametric state and otherwise the single action that every later
    call passes unchanged.  Deepest level first, each parameter-free state
    other than the initial one gets the form (T, E) = (T0, E0) + sum_j
    c_j*(T_j, E_j): T0 and E0 collect the mass of its paths into targets and
    leaves (a restart reads zero), c_j that of its paths into the state j of
    the pass.  A state stays in the pass when it is parametric, is the
    initial state, or would get more coefficients than its action has
    successors, so no form is longer than the action it replaces.  A form
    without coefficients is a constant.  A state whose successors are all
    constants (targets, leaves, restarts and such forms) gets one without a
    coefficient sum.  Without ``actions`` every state stays in the pass, and
    :meth:`extremal` walks the whole level order for any actions over the
    chain's edges: the reference that the tests hold the collapsed solver
    to.  :attr:`order` keeps every state in level order either way.  No
    method changes the solver after its constructor, so one solver serves a
    chain's every caller (see :meth:`PMC.solver`).

    Rounding.  Let u = 2**-53, gamma_n = n*u/(1 - n*u), d the number of
    levels and k the largest out-degree.  Each weight is the exact value at
    a rational point rounded once (:meth:`Polynomial.evaluate_rounded`), a
    relative error of at most u.  Every operand is non-negative, so a
    computed T (or E) is a sum over the paths that the exact T counts of
    each path's exact weight product times one factor (1 + delta), |delta|
    <= u, per rounding that the path's term went through.  Summing a state's
    action, in a round or into a form's constant or coefficients in the
    constructor, costs a term at most k + 1 roundings per edge: the
    weight's, one product, and at most k - 1 additions, since each successor
    adds at most one summand to any one sum.  A round expands a form only
    where a state of the pass reads it, so at most once per edge of a path,
    and an expansion costs a term at most k + 1 roundings more: one product
    and at most k additions, since a form has at most k coefficients.  A
    path has at most d edges, so T and E at the initial state are each
    within gamma_n of the exact T and E of the chosen policy, n = 2d(k+1),
    and T/E, with its one division, within gamma_m for m = 2n + 1, as
    (1 + gamma_n)/(1 - gamma_n) = 1 + gamma_{2n}.  So the value that
    :meth:`greedy` returns is within gamma_m of the exact value of the
    policy it picked, relative to it.  :attr:`pad` is 2*gamma_m: the
    factor 2 covers turning that into a bound on the exact value, which
    divides by 1 - gamma_m, and the two roundings of the multiplication
    that applies the pad.  The pad covers the policy that a
    round picks, whether policy iteration settles on it or :meth:`greedy`
    picks it at a threshold.  A round compares gains in floating point,
    so two policies whose gains agree to within their rounding may be
    ranked either way.  The pad does not cover that case; it moves x by at
    most about d*m*u*E_max/E, where E is the ending mass of the policy
    passed over and E_max the largest ending mass of any policy.
    """

    def __init__(
        self,
        states: Sequence[StateLabel],
        initial: int,
        edges: Sequence[Sequence[tuple[int, object]]],
        targets: Iterable[int],
        actions=None,
    ):
        targets = frozenset(targets)
        levels = [state.level for state in states]
        self.initial = initial
        self._base_t = base_t = [0.0] * len(states)
        self._base_e = base_e = [0.0] * len(states)
        order: list[int] = []
        for s, out in enumerate(edges):
            if s in targets:
                base_t[s] = base_e[s] = 1.0
            elif s != initial and (not out or (len(out) == 1 and out[0][0] == s)):
                base_e[s] = 1.0  # a leaf: the mass ends here
            else:
                below = levels[s] + 1
                for t, _ in out:
                    if t != initial and levels[t] != below:
                        raise NotWellFormed(
                            f"edge s{s} -> s{t} goes from level {levels[s]} to level "
                            f"{levels[t]}; leveled chains only step one level down or restart"
                        )
                if s != initial:
                    order.append(s)
        # Deepest level first; the initial state last, so that its restart
        # edges still read the zero T and E of a restart.
        order.sort(key=levels.__getitem__, reverse=True)
        if initial not in targets:
            order.append(initial)
        #: Every state that a pass without forms visits, deepest level first.
        self.order = tuple(order)
        m = 4 * len(set(levels)) * (max(map(len, edges), default=0) + 1) + 1
        #: Relative pad that makes a computed value a sound bound (see above).
        self.pad = 2 * m * 2.0**-53 / (1 - m * 2.0**-53)
        self._forms: dict[int, tuple[tuple[int, float], ...]] = {}
        self._pass = order
        if actions is None:
            return
        # A successor in neither `in_pass` nor `forms` is a constant; the
        # initial state joins the pass last, so a restart reads zero.
        forms: dict[int, tuple[tuple[int, float], ...]] = {}
        in_pass: set[int] = set()
        for s in order:  # successors come first, being one level deeper
            if s == initial or actions[s] is None:
                in_pass.add(s)
                continue
            (action,) = actions[s]
            t = e = 0.0
            linear = False
            for succ, p in action:
                if succ in in_pass:
                    linear = True
                else:
                    t += p * base_t[succ]
                    e += p * base_e[succ]
                    linear = linear or succ in forms
            if linear:
                coefficients: dict[int, float] = {}
                for succ, p in action:
                    form = ((succ, 1.0),) if succ in in_pass else forms.get(succ, ())
                    for j, c in form:
                        coefficients[j] = coefficients[j] + p * c if j in coefficients else p * c
                if len(coefficients) > len(action):
                    in_pass.add(s)
                    continue
                forms[s] = tuple(coefficients.items())
            base_t[s], base_e[s] = t, e
        read = {succ for s in in_pass for succ, _ in edges[s]}
        self._forms = {s: forms[s] for s in read if s in forms}
        keep = in_pass.union(self._forms)
        self._pass = [s for s in order if s in keep]

    def _round(self, actions, x: float, maximize: bool) -> tuple[float, float]:
        """T and E at the initial state under the greedy policy at ``x``."""
        t_of = self._base_t.copy()
        e_of = self._base_e.copy()
        forms = self._forms
        for s in self._pass:
            form = forms.get(s)
            if form is not None:
                t, e = t_of[s], e_of[s]
                for j, c in form:
                    t += c * t_of[j]
                    e += c * e_of[j]
                t_of[s], e_of[s] = t, e
                continue
            best = None
            for action in actions[s]:
                t = e = 0.0
                for succ, p in action:
                    t += p * t_of[succ]
                    e += p * e_of[succ]
                gain = t - x * e
                if best is None or (gain > best if maximize else gain < best):
                    best, best_t, best_e = gain, t, e
            t_of[s], e_of[s] = best_t, best_e
        return t_of[self.initial], e_of[self.initial]

    def greedy(self, actions, x: float, maximize: bool) -> float:
        """The value T/E of the policy with the best (``maximize``) or worst
        gain T - x*E.  It is at most ``x`` exactly when every policy's value
        is (``maximize``), and exceeds ``x`` exactly when every policy's
        value does (otherwise); see above."""
        t, e = self._round(actions, x, maximize)
        return t / e if e else 0.0

    def extremal(self, actions, maximize: bool) -> float:
        """The best (``maximize``) or worst value over all policies."""
        t, e = self._round(actions, 0.0, maximize)
        if t == 0.0:
            return 0.0
        x = t / e
        for _ in range(len(actions)):
            t, e = self._round(actions, x, maximize)
            y = t / e if e else 0.0
            if not (y > x if maximize else y < x):
                return x
            x = y
        raise NotWellFormed(f"policy iteration did not settle within {len(actions)} rounds")


def _distribution(
    out, point: Mapping[str, Fraction], memo: dict[int, float]
) -> tuple[tuple[int, float], ...]:
    """One state's weights at the rational ``point``, checked to form a sub-distribution.

    Each weight is its exact value rounded once, so a valid one is already
    in [0, 1].  The mass may exceed 1 by the rounding that constant rows of
    parsed files keep (``bn.ROW_SUM_TOLERANCE``).  ``memo`` maps the ``id``
    of each weight evaluated so far to its checked value; states that share
    a weight object and a memo evaluate it once, so one memo serves one
    point and the weights it names.  Raises :class:`NotWellFormed`.
    """
    distribution = []
    total = 0.0
    for target, weight in out:
        value = memo.get(id(weight))
        if value is None:
            value = weight.evaluate_rounded(point)
            if not -1e-12 <= value <= 1 + 1e-12:
                raise NotWellFormed(
                    f"transition weight {weight} evaluates to {value} outside [0, 1]"
                )
            value = memo[id(weight)] = min(max(value, 0.0), 1.0)
        distribution.append((target, value))
        total += value
    if total > 1 + 1e-7:
        raise NotWellFormed(f"outgoing mass {total} exceeds 1")
    return tuple(distribution)


def reach_prob(pmc: PMC, u: Instantiation, targets: Iterable[int]) -> float:
    """Exact probability of reaching ``targets`` from the initial state at ``u``.

    The instantiated chain is solved directly by :class:`LeveledSolver`, not
    iterated, so the result is within the solver's rounding bound of the
    exact value.  Only the parametric states are evaluated at ``u``; the
    parameter-free ones are the chain's shared :meth:`PMC.solver` collapsed
    into affine forms, the solver that also bounds boxes.  Every state's
    weights must form a sub-distribution at ``u``, as
    :func:`lifting.substitute` requires at each corner.  Raises
    :class:`NotWellFormed` for a weight outside [0, 1], for outgoing mass
    above 1, and for a chain that is not leveled.
    """
    point = {name: _binary_fraction(v) for name, v in u.items()}
    lowered = pmc.lowered
    actions = list(lowered.actions)
    memo: dict[int, float] = {}
    for s, _ in lowered.parametric:
        actions[s] = (_distribution(pmc.edges[s], point, memo),)
    # One action per state, so the round's policy is the chain itself.
    return pmc.solver(targets).greedy(actions, 0.0, True)


@dataclass(frozen=True)
class SensitivityFunction:
    """Reachability probability as a ratio of two polynomials."""

    numerator: Polynomial
    denominator: Polynomial

    def evaluate(self, u: Mapping) -> Fraction | float:
        """The ratio at ``u``, read as :meth:`Polynomial.evaluate` reads it.

        Both polynomials are evaluated exactly at the same point, floats at
        their exact binary value, and the exact ratio is returned as a
        ``Fraction``, or, when some argument is a float, rounded once to a
        float.  A zero denominator raises ``ZeroDivisionError``.
        """
        point, rounded = _exact_point(self.numerator.parameters | self.denominator.parameters, u)
        n1, d1 = self.numerator._exact(point)
        n2, d2 = self.denominator._exact(point)
        if not n2:
            raise ZeroDivisionError("sensitivity function denominator is zero here")
        return n1 * d2 / (d1 * n2) if rounded else Fraction(n1 * d2, d1 * n2)

    def __str__(self) -> str:
        return f"({self.numerator}) / ({self.denominator})"


def sensitivity_function(pmc: PMC, targets: Iterable[int]) -> SensitivityFunction:
    """Closed form of the reachability probability, in the level order of :meth:`PMC.solver`.

    One deepest-level-first pass over :attr:`LeveledSolver.order` builds,
    per state, two polynomials, summed as the solver sums its floats: the
    target mass T and the ending mass E, the mass that ends at a target or
    leaf without restarting.  The probability is T/E at the initial state.
    E equals 1 - R for the restart mass R only where every row sums to one
    exactly; constant rows need only come within ``bn.ROW_SUM_TOLERANCE``.
    Numerator and denominator are normalized to coprime integer
    coefficients.  Raises :class:`TooLarge` beyond ``ELIMINATION_GUARD``
    states, :class:`NotWellFormed` for a chain that is not leveled, and, as
    the solver evaluates :attr:`PMC.lowered`, for a parameter-free state
    whose weights are not a sub-distribution.
    """
    if pmc.n_states > ELIMINATION_GUARD:
        raise TooLarge(
            f"{pmc.n_states} states exceed the elimination guard of {ELIMINATION_GUARD}"
        )
    targets = frozenset(targets)
    order = pmc.solver(targets).order
    if pmc.initial in targets:
        return SensitivityFunction(ONE, ONE)
    # Targets and leaves are the states the pass skips; both end the mass.
    # The initial state comes last, so its restart edges read E = 0.
    t_of = dict.fromkeys(targets, ONE)
    e_of = dict.fromkeys(set(range(pmc.n_states)).difference(order), ONE)
    for s in order:
        t = e = ZERO
        for succ, w in pmc.edges[s]:
            if succ in t_of:
                t = t + w * t_of[succ]
            if succ in e_of:
                e = e + w * e_of[succ]
        t_of[s], e_of[s] = t, e
    return SensitivityFunction(*_normalize_ratio(t_of[pmc.initial], e_of[pmc.initial]))


def _normalize_ratio(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Scale to coprime integer coefficients with a positive denominator."""
    coeffs = [c for _, c in num.terms] + [c for _, c in den.terms]
    if not coeffs:
        return num, den
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    scaled = [c * lcm for c in coeffs]
    content = 0
    for c in scaled:
        content = math.gcd(content, abs(c.numerator))
    factor = Fraction(lcm, content or 1)
    num, den = num * factor, den * factor
    lead = den.terms[-1][1] if den.terms else Fraction(1)
    if lead < 0:
        num, den = -num, -den
    return num, den


def conditional_via_ratio(pmc_plain: PMC, constraint: Constraint, u: Instantiation) -> float:
    """Conditional probability from the plain chain, as a ratio of reach probabilities.

    ``Pr(H | E) = (1 - Pr(reach a state violating H or E)) / (1 - Pr(reach a
    state violating E))`` — the cross-check for the evidence-tailored chain.
    """
    not_he = _violating_states(pmc_plain, constraint.hypothesis + constraint.evidence)
    not_e = _violating_states(pmc_plain, constraint.evidence)
    p_he = 1.0 - (reach_prob(pmc_plain, u, not_he) if not_he else 0.0)
    p_e = 1.0 - (reach_prob(pmc_plain, u, not_e) if not_e else 0.0)
    if p_e == 0.0:
        raise EvidenceImpossible("the evidence has probability zero")
    return p_he / p_e


def _violating_states(pmc: PMC, literals: Sequence[tuple[str, str]]) -> set[int]:
    wanted = dict(literals)
    violating = set()
    for i, state in enumerate(pmc.states):
        for var, value in state.assignment:
            if var in wanted and value != wanted[var]:
                violating.add(i)
                break
    return violating


def to_dot(pmc: PMC, targets: Iterable[int] = ()) -> str:
    """GraphViz rendering with state labels and polynomial edge labels."""
    targets = set(targets)
    lines = ["digraph chain {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    for i, state in enumerate(pmc.states):
        shape = "doublecircle" if i in targets else "circle"
        style = ', style=bold' if i == pmc.initial else ""
        lines.append(f'  s{i} [shape={shape}, label="s{i}\\n{state}"{style}];')
    for s, out in enumerate(pmc.edges):
        for t, w in out:
            lines.append(f'  s{s} -> s{t} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
