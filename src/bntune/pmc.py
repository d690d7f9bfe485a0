"""Compiling a network into a level-structured Markov chain with polynomial labels.

The chain expands one variable per level along a topological order.  A
variable's value is carried in the state only while a later table still needs
it (don't-care abstraction).  For conditional queries the chain can be
tailored to the evidence: transitions that would violate an evidence literal
restart at the initial state, which turns the conditional into plain
reachability of the hypothesis-satisfying leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .bn import BayesNet, Constraint, Instantiation, ParamBN, topological_order
from .errors import (
    EvidenceImpossible,
    NotWellFormed,
    TooLarge,
)
from .poly import ONE, ZERO, Polynomial, _binary_fraction, as_fraction

#: State-space guard for exact symbolic elimination.
ELIMINATION_GUARD = 10**4


@dataclass(frozen=True)
class StateLabel:
    """What a chain state remembers: expansion level, retained values, and
    (for evidence-tailored chains) whether the hypothesis still holds."""

    level: int
    assignment: tuple[tuple[str, str], ...]
    hypothesis: bool | None = None

    def value_of(self, var: str) -> str | None:
        for name, value in self.assignment:
            if name == var:
                return value
        return None

    def __str__(self) -> str:
        body = ", ".join(f"{n}={v}" for n, v in self.assignment) or "init"
        if self.hypothesis is None:
            return body
        return f"{body} | {'H' if self.hypothesis else '!H'}"


@dataclass(frozen=True)
class PMC:
    """A Markov chain whose transition probabilities are polynomials."""

    states: tuple[StateLabel, ...]
    initial: int
    edges: tuple[tuple[tuple[int, Polynomial], ...], ...]
    params: tuple[tuple[str, tuple[Fraction, Fraction]], ...]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        return sum(len(out) for out in self.edges)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    def successors(self, state: int) -> tuple[tuple[int, Polynomial], ...]:
        return self.edges[state]


@dataclass(frozen=True)
class ReachSpec:
    """A reachability constraint: compare Pr(reach targets) against a threshold."""

    targets: frozenset[int]
    direction: str
    threshold: Fraction

    def __post_init__(self):
        if not self.targets:
            raise NotWellFormed("a reachability constraint needs at least one target state")
        if self.direction not in ("<=", ">="):
            raise NotWellFormed(f"direction must be '<=' or '>=', got {self.direction!r}")
        if not (0 <= self.threshold <= 1):
            raise NotWellFormed(f"threshold {self.threshold} is outside [0, 1]")

    def satisfied_by(self, probability: float | Fraction) -> bool:
        if self.direction == "<=":
            return probability <= self.threshold
        return probability >= self.threshold


def _net_parts(net: BayesNet | ParamBN):
    params = getattr(net, "params", ())
    return net.variables, net.cpt_map, net.variable_map, tuple(params)


def _retained_sets(order: Sequence[str], variable_map, forget: bool) -> list[tuple[str, ...]]:
    """Per level, which already-expanded variables the state still labels.

    The just-expanded variable is always labeled at its own level; an earlier
    variable is kept only while a later variable's table lists it as a parent.
    """
    n = len(order)
    retained: list[tuple[str, ...]] = [()]
    for level in range(1, n + 1):
        if not forget:
            retained.append(tuple(order[:level]))
            continue
        needed_later = set()
        for later in order[level:]:
            needed_later.update(variable_map[later].parents)
        retained.append(
            tuple(v for v in order[:level] if v == order[level - 1] or v in needed_later)
        )
    return retained


class _Builder:
    """Shared machinery for plain and evidence-tailored compilation."""

    def __init__(self, net, order, constraint: Constraint | None, forget: bool):
        self.variables, self.cpt_map, self.variable_map, self.params = _net_parts(net)
        self.order = topological_order(net, order)
        self.constraint = constraint
        self.evidence = dict(constraint.evidence) if constraint else {}
        self.hypothesis = dict(constraint.hypothesis) if constraint else {}
        self.retained = _retained_sets(self.order, self.variable_map, forget)
        self.states: list[StateLabel] = []
        self.index: dict[StateLabel, int] = {}
        self.edges: list[dict[int, Polynomial]] = []

    def intern(self, label: StateLabel) -> int:
        if label not in self.index:
            self.index[label] = len(self.states)
            self.states.append(label)
            self.edges.append({})
        return self.index[label]

    def add_edge(self, source: int, target: int, weight: Polynomial) -> None:
        out = self.edges[source]
        out[target] = out.get(target, ZERO) + weight

    def build(self) -> PMC:
        tailored = self.constraint is not None
        initial = self.intern(StateLabel(0, (), True if tailored else None))
        frontier = [initial]
        for level, var_name in enumerate(self.order):
            variable = self.variable_map[var_name]
            table = self.cpt_map[var_name]
            keep = self.retained[level + 1]
            ev_value = self.evidence.get(var_name)
            hyp_value = self.hypothesis.get(var_name)
            next_frontier: list[int] = []
            seen: set[int] = set()
            for source in frontier:
                label = self.states[source]
                parent_values = tuple(label.value_of(p) for p in variable.parents)
                row = table.row(parent_values)
                values = dict(label.assignment)
                for value_label, entry in zip(variable.values, row):
                    if entry.is_zero():
                        continue
                    if ev_value is not None and value_label != ev_value:
                        self.add_edge(source, initial, entry)
                        continue
                    hyp = label.hypothesis
                    if hyp is not None and hyp_value is not None:
                        hyp = hyp and (value_label == hyp_value)
                    values[var_name] = value_label
                    assignment = tuple((w, values[w]) for w in keep)
                    target = self.intern(StateLabel(level + 1, assignment, hyp))
                    self.add_edge(source, target, entry)
                    if target not in seen:
                        seen.add(target)
                        next_frontier.append(target)
            frontier = next_frontier
        for leaf in frontier:
            self.add_edge(leaf, leaf, ONE)
        packed = tuple(tuple(sorted(out.items())) for out in self.edges)
        return PMC(tuple(self.states), initial, packed, self.params)


def compile_chain(
    net: BayesNet | ParamBN,
    order: Sequence[str] | None = None,
    *,
    forget: bool = True,
) -> PMC:
    """Compile a network into its level-structured chain.

    ``order`` must be a topological order of the variables (default: the
    declaration order, repaired to a topological one).  ``forget=False``
    disables the don't-care abstraction, labeling states with every expanded
    variable; reachability probabilities are the same either way.
    """
    return _Builder(net, order, None, forget).build()


def compile_tailored(
    net: BayesNet | ParamBN,
    constraint: Constraint,
    order: Sequence[str] | None = None,
    u0: Instantiation | None = None,
    *,
    forget: bool = True,
) -> tuple[PMC, ReachSpec]:
    """Compile the evidence-tailored chain and its reachability constraint.

    Transitions into states that would violate an evidence literal restart at
    the initial state, so the probability of reaching the hypothesis-true
    leaves equals the conditional probability of the hypothesis given the
    evidence, at every instantiation that keeps the chain's topology.

    The evidence must have positive probability at ``u0`` (default: the
    network's recorded original values, when present); otherwise
    :class:`EvidenceImpossible` is raised.
    """
    constraint.check_against(net)
    chain = _Builder(net, order, constraint, forget).build()
    # The leaf level is the number of variables, not the deepest surviving
    # state: when every branch restarts, the chain collapses to the initial
    # state alone and the evidence is impossible.
    n_levels = len(net.variables)
    targets = frozenset(
        i for i, s in enumerate(chain.states) if s.level == n_levels and s.hypothesis
    )
    if u0 is None and isinstance(net, ParamBN) and net.origin is not None:
        u0 = net.origin_instantiation()
    _check_evidence_reachable(chain, u0, n_levels)
    if not targets:
        raise NotWellFormed("no leaf satisfies the hypothesis; its probability is identically 0")
    return chain, ReachSpec(targets, constraint.direction, as_fraction(constraint.threshold))


def _check_evidence_reachable(chain: PMC, u0: Instantiation | None, n_levels: int) -> None:
    """The evidence is possible iff some absorbing leaf is reachable via positive edges."""

    point = None if u0 is None else {k: float(v) for k, v in u0.items()}

    def positive(weight: Polynomial) -> bool:
        if point is None:
            return not weight.is_zero()
        return weight.evaluate_numeric(point) > 0.0

    stack = [chain.initial]
    visited = {chain.initial}
    while stack:
        state = stack.pop()
        if chain.states[state].level == n_levels:
            return
        for target, weight in chain.edges[state]:
            if target not in visited and positive(weight):
                visited.add(target)
                stack.append(target)
    raise EvidenceImpossible("the evidence has probability zero; every path restarts")


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

    :meth:`extremal` runs policy iteration on x.  A round picks each state's
    action with the best gain T - x*E at the current x (the best T + R*x,
    without its cancellation) and re-solves.  The first round runs at
    x = 0, where the gain is T itself: a zero there is exact and means that
    some policy (min) or every policy (max) never reaches a target, so the
    value is 0.  Later rounds stop once x no longer improves, which includes
    the policy repeating.  The greedy gain at the initial state is then the
    best T - x*E over all policies, and its sign bounds every policy's T/E
    by x.  Rounds are capped at the number of states.

    Rounding.  Let u = 2**-53, gamma_n = n*u/(1 - n*u), d the number of
    levels and k the largest out-degree.  Each weight is the exact value at
    a rational point rounded once (:meth:`Polynomial.evaluate_rounded`), a
    relative error of at most u.  Along each edge of a path the pass adds
    one product and at most k - 1 additions.  A path has at most d edges, so
    T and E at the initial state are each within gamma_{d(k+1)} of the exact
    T and E of the chosen policy, and T/E, with its one division, within
    gamma_m for m = 2d(k+1) + 1.  :attr:`pad` is 2*gamma_m: the factor 2
    covers turning that into a bound on the exact value, which divides by
    1 - gamma_m, and the two roundings of the multiplication that applies
    the pad.  Policy iteration compares gains in floating point, so two
    policies whose gains agree to within their rounding may be ranked
    either way.  The pad does not cover that case; it moves x by at most
    about d*m*u*E_max/E, where E is the ending mass of the policy passed
    over and E_max the largest ending mass of any policy.
    """

    def __init__(
        self,
        states: Sequence[StateLabel],
        initial: int,
        edges: Sequence[Sequence[tuple[int, object]]],
        targets: Iterable[int],
    ):
        targets = frozenset(targets)
        levels = [state.level for state in states]
        self.initial = initial
        self._base_t = [0.0] * len(states)
        self._base_e = [0.0] * len(states)
        self._order: list[int] = []
        degree = 0
        for s, out in enumerate(edges):
            degree = max(degree, len(out))
            if s in targets:
                self._base_t[s] = self._base_e[s] = 1.0
            elif s != initial and all(t == s for t, _ in out):
                self._base_e[s] = 1.0  # a leaf: the mass ends here
            else:
                for t, _ in out:
                    if t != initial and levels[t] != levels[s] + 1:
                        raise NotWellFormed(
                            f"edge s{s} -> s{t} goes from level {levels[s]} to level "
                            f"{levels[t]}; leveled chains only step one level down or restart"
                        )
                if s != initial:
                    self._order.append(s)
        # Deepest level first; the initial state last, so that its restart
        # edges still read the zero T and E of a restart.
        self._order.sort(key=levels.__getitem__, reverse=True)
        if initial not in targets:
            self._order.append(initial)
        m = 2 * len(set(levels)) * (degree + 1) + 1
        #: Relative pad that makes a computed value a sound bound (see above).
        self.pad = 2 * m * 2.0**-53 / (1 - m * 2.0**-53)

    def settle(self, actions, fixed: Iterable[int]) -> None:
        """Fold the states whose T and E no box and no x can change into the base values.

        ``fixed`` names states whose single action in ``actions`` every later
        call passes unchanged.  Such a state is *settled* when each of its
        successors is settled (leaves and targets are) or is the initial
        state, whose T and E a pass reads as their base values.  Settled
        states leave the pass order; their T and E come from the same float
        operations, in the same order, that :meth:`_round` would apply, so
        every later value is the same float.
        """
        fixed = set(fixed)
        live = set(self._order)
        for s in self._order:  # successors come first, being one level deeper
            if s == self.initial or s not in fixed:
                continue
            (action,) = actions[s]
            if any(succ in live and succ != self.initial for succ, _ in action):
                continue
            t = e = 0.0
            for succ, p in action:
                t += p * self._base_t[succ]
                e += p * self._base_e[succ]
            self._base_t[s], self._base_e[s] = t, e
            live.discard(s)
        self._order = [s for s in self._order if s in live]

    def _round(self, actions, x: float, maximize: bool) -> tuple[float, float]:
        """T and E at the initial state under the greedy policy at ``x``."""
        t_of = self._base_t.copy()
        e_of = self._base_e.copy()
        for s in self._order:
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

    def reach(self, actions) -> float:
        """The value of a chain with one action per state."""
        t, e = self._round(actions, 0.0, True)
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


def reach_prob(pmc: PMC, u: Instantiation, targets: Iterable[int]) -> float:
    """Exact probability of reaching ``targets`` from the initial state at ``u``.

    The instantiated chain is solved directly by :class:`LeveledSolver`, not
    iterated, so the result is accurate to floating point and serves as the
    reference for the interval-based methods.  Raises :class:`NotWellFormed`
    for a chain that is not leveled.
    """
    point = {name: _binary_fraction(v) for name, v in u.items()}
    actions = []
    for out in pmc.edges:
        distribution = []
        for target, weight in out:
            value = weight.evaluate_rounded(point)
            if not (-1e-12 <= value <= 1 + 1e-12):
                raise NotWellFormed(f"transition weight {weight} evaluates to {value} outside [0, 1]")
            distribution.append((target, min(max(value, 0.0), 1.0)))
        actions.append((tuple(distribution),))
    return LeveledSolver(pmc.states, pmc.initial, pmc.edges, targets).reach(actions)


@dataclass(frozen=True)
class SensitivityFunction:
    """Reachability probability as a ratio of two polynomials."""

    numerator: Polynomial
    denominator: Polynomial

    def evaluate(self, u: Mapping) -> Fraction | float:
        num = self.numerator.evaluate(u)
        den = self.denominator.evaluate(u)
        if den == 0:
            raise ZeroDivisionError("sensitivity function denominator is zero here")
        return num / den

    def __str__(self) -> str:
        return f"({self.numerator}) / ({self.denominator})"


def sensitivity_function(
    pmc: PMC, targets: Iterable[int], guard: int = ELIMINATION_GUARD
) -> SensitivityFunction:
    """Closed form of the reachability probability, by symbolic state elimination.

    States are removed leaves-first (all cycles of a compiled chain pass
    through the initial state, so interior states never carry self-loops); the
    single division happens at the initial state.  Numerator and denominator
    are normalized to coprime integer coefficients.
    """
    if pmc.n_states > guard:
        raise TooLarge(f"{pmc.n_states} states exceed the elimination guard of {guard}")
    targets = set(targets)
    if pmc.initial in targets:
        return SensitivityFunction(ONE, ONE)

    virtual = -1  # merged target
    adj: dict[int, dict[int, Polynomial]] = {}
    for s, out in enumerate(pmc.edges):
        if s in targets:
            continue
        if s != pmc.initial and out == ((s, ONE),):
            adj[s] = {}  # absorbing non-target state: entering mass never reaches a target
            continue
        row: dict[int, Polynomial] = {}
        for t, w in out:
            key = virtual if t in targets else t
            row[key] = row.get(key, ZERO) + w
        adj[s] = row

    by_level = sorted(
        (s for s in adj if s != pmc.initial),
        key=lambda s: (-pmc.states[s].level, -s),
    )
    predecessors: dict[int, set[int]] = {s: set() for s in list(adj) + [virtual]}
    for s, row in adj.items():
        for t in row:
            if t in predecessors:
                predecessors[t].add(s)

    for s in by_level:
        row = adj.pop(s)
        loop = row.pop(s, ZERO)
        if not loop.is_zero():
            raise NotWellFormed(
                "state elimination needs interior states without self-loops; "
                "compiled chains always satisfy this"
            )
        for p in predecessors[s]:
            if p not in adj or s not in adj[p]:
                continue
            into = adj[p].pop(s)
            for t, w in row.items():
                adj[p][t] = adj[p].get(t, ZERO) + into * w
                if t in predecessors:
                    predecessors[t].add(p)
        for t in row:
            if t in predecessors:
                predecessors[t].discard(s)

    init_row = adj[pmc.initial]
    numerator = init_row.get(virtual, ZERO)
    denominator = ONE - init_row.get(pmc.initial, ZERO)
    return SensitivityFunction(*_normalize_ratio(numerator, denominator))


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
