"""Brute-force reference computations used to cross-check the fast paths.

Every function here walks one enumeration, :func:`_joint`: each joint
assignment of the network in turn, with the table entry that each variable
takes under it (guarded against blow-up).  It is deliberately naive: these
functions are the ground truth the test suite compares against, so they
share no code with the chain-based implementation.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence

from .bn import BayesNet, Constraint, ParamBN, instantiate
from .errors import EvidenceImpossible, TooLarge, UnsupportedForCD

#: Joint state spaces above this size are refused rather than sampled.
ENUMERATION_GUARD = 2**22

Literals = Sequence[tuple[str, str]]


def _joint(
    net: BayesNet, entry: Callable = lambda e: float(e.constant_value())
) -> Iterator[tuple[tuple[int, ...], list]]:
    """Each joint assignment of ``net`` (value indices in declaration order)
    with its per-variable table entries, each read through ``entry``.

    Raises :class:`TooLarge` at once, before any assignment, when the joint
    space exceeds the enumeration guard.
    """
    size = math.prod(len(v.values) for v in net.variables)
    if size > ENUMERATION_GUARD:
        raise TooLarge(f"joint space of {size} states exceeds the enumeration guard")
    positions = {v.name: i for i, v in enumerate(net.variables)}
    tables = []
    for v, table in zip(net.variables, net.cpts):
        parents = [net.variable_map[p] for p in v.parents]
        rows = {
            tuple(p.value_index(label) for p, label in zip(parents, key)): tuple(map(entry, row))
            for key, row in table.rows
        }
        tables.append((tuple(positions[p] for p in v.parents), rows))
    return (
        (w, [rows[tuple(w[j] for j in parent_pos)][k] for (parent_pos, rows), k in zip(tables, w)])
        for w in itertools.product(*(range(len(v.values)) for v in net.variables))
    )


def _holds(net: BayesNet, literals: Literals) -> Callable[[tuple[int, ...]], bool]:
    """Whether a joint assignment of ``net`` meets every literal."""
    positions = {v.name: i for i, v in enumerate(net.variables)}
    wanted = [(positions[var], net.variable_map[var].value_index(value)) for var, value in literals]
    return lambda w: all(w[pos] == k for pos, k in wanted)


def infer(bn: BayesNet, hypothesis: Literals, evidence: Literals = ()) -> float:
    """``Pr(hypothesis | evidence)`` by full joint enumeration.

    Raises :class:`EvidenceImpossible` if the evidence has probability zero and
    :class:`TooLarge` if the joint space exceeds the enumeration guard.
    """
    joint = _joint(bn)
    hyp, ev = _holds(bn, hypothesis), _holds(bn, evidence)
    p_evidence = p_both = 0.0
    for w, entries in joint:
        if ev(w):
            weight = math.prod(entries)
            p_evidence += weight
            if hyp(w):
                p_both += weight
    if p_evidence == 0.0:
        raise EvidenceImpossible("the evidence has probability zero")
    return p_both / p_evidence


def joint_table(bn: BayesNet) -> dict[tuple[str, ...], float]:
    """The full joint distribution as a mapping from value-label tuples."""
    labels = [v.values for v in bn.variables]
    return {
        tuple(labels[i][k] for i, k in enumerate(w)): math.prod(entries)
        for w, entries in _joint(bn)
    }


def cd_exact(bn1: BayesNet, bn2: BayesNet) -> float:
    """Log-ratio distance between two joint distributions over the same structure.

    ln of the largest assignment-probability ratio minus ln of the smallest,
    where assignments of probability zero under both networks count as ratio 1
    and a zero under exactly one network makes the distance infinite.  The
    two networks must declare the same variables with the same value labels,
    in the same order; otherwise raises :class:`UnsupportedForCD`.
    """
    if [(v.name, v.values) for v in bn1.variables] != [(v.name, v.values) for v in bn2.variables]:
        raise UnsupportedForCD("networks must share the same variables and values, in order")
    max_ratio = -math.inf
    min_ratio = math.inf
    for (_, entries1), (_, entries2) in zip(_joint(bn1), _joint(bn2)):
        p1, p2 = math.prod(entries1), math.prod(entries2)
        if p1 == 0.0 and p2 == 0.0:
            ratio = 1.0
        elif p1 == 0.0 or p2 == 0.0:
            return math.inf
        else:
            ratio = p2 / p1
        max_ratio = max(max_ratio, ratio)
        min_ratio = min(min_ratio, ratio)
    return math.log(max_ratio) - math.log(min_ratio)


def grid_min_distance(
    pbn: ParamBN,
    constraint: Constraint,
    measure: str = "ec",
    resolution: float = 1e-3,
) -> tuple[dict[str, float] | None, float]:
    """Exhaustive grid search for the closest constraint-satisfying instantiation.

    Evaluates the conditional probability at every grid point of the declared
    parameter box (at most three parameters) and returns the satisfying point
    of least distance from the recorded original values, or ``(None, inf)``
    when no grid point satisfies the constraint.  ``measure`` is ``"ec"`` or
    ``"cd"``; any other raises :class:`ValueError` before any other work.
    """
    if measure not in ("ec", "cd"):
        raise ValueError(f"unknown distance measure {measure!r}")
    import numpy as np  # here only, so that importing bntune does not load numpy

    names = pbn.parameter_names
    if len(names) > 3:
        raise TooLarge(f"{len(names)} parameters exceed the grid search guard of 3")
    joint = _joint(pbn, lambda e: e)
    constraint.check_against(pbn)
    u0 = {name: float(value) for name, value in pbn.origin_instantiation().items()}
    try:
        if constraint.satisfied_by(
            infer(instantiate(pbn, u0), constraint.hypothesis, constraint.evidence)
        ):
            return dict(u0), 0.0
    except EvidenceImpossible:
        pass

    axes = []
    for name in names:
        lb, ub = pbn.interval(name)
        pts = np.arange(float(lb), float(ub), resolution)
        pts = np.append(pts, float(ub))
        axes.append(pts)
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = {name: m.ravel() for name, m in zip(names, mesh)}
    n_points = next(iter(grid.values())).size

    hyp, ev = _holds(pbn, constraint.hypothesis), _holds(pbn, constraint.evidence)
    p_evidence = np.zeros(n_points)
    p_both = np.zeros(n_points)
    if measure == "cd":
        max_ratio = np.full(n_points, -np.inf)
        min_ratio = np.full(n_points, np.inf)
    for w, entries in joint:
        if any(e.is_zero() for e in entries):
            continue  # zero under every instantiation: ratio 1, no probability mass
        weight = math.prod(e.evaluate_numeric(grid) for e in entries)
        if measure == "cd":
            ratio = weight / math.prod(e.evaluate_numeric(u0) for e in entries)
            np.maximum(max_ratio, ratio, out=max_ratio)
            np.minimum(min_ratio, ratio, out=min_ratio)
        if ev(w):
            p_evidence += weight
            if hyp(w):
                p_both += weight

    valid = p_evidence > 0.0
    conditional = np.divide(p_both, p_evidence, out=np.zeros(n_points), where=valid)
    threshold = float(constraint.threshold)
    if constraint.direction == "<=":
        satisfied = valid & (conditional <= threshold)
    else:
        satisfied = valid & (conditional >= threshold)
    if not satisfied.any():
        return None, math.inf

    if measure == "ec":
        distance = np.sqrt(sum((grid[name] - u0[name]) ** 2 for name in names))
    else:
        distance = np.log(max_ratio) - np.log(min_ratio)
    distance = np.where(satisfied, distance, np.inf)
    best = int(np.argmin(distance))
    point = {name: float(grid[name][best]) for name in names}
    return point, float(distance[best])
