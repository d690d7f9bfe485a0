"""Brute-force reference computations used to cross-check the fast paths.

Everything here enumerates the joint state space directly (guarded against
blow-up) and is deliberately naive: these functions are the ground truth the
test suite compares against, so they share no code with the chain-based
implementation.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .bn import BayesNet, Constraint, ParamBN, instantiate
from .errors import EvidenceImpossible, TooLarge, UnsupportedForCD

#: Joint state spaces above this size are refused rather than sampled.
ENUMERATION_GUARD = 2**22

Literals = Sequence[tuple[str, str]]


def _joint_size(net: ParamBN) -> int:
    size = 1
    for v in net.variables:
        size *= len(v.values)
    return size


def _prepared(net: BayesNet):
    """Per-variable lookup tables keyed by value indices, for fast enumeration."""
    positions = {v.name: i for i, v in enumerate(net.variables)}
    prepared = []
    for v, table in zip(net.variables, net.cpts):
        parent_pos = tuple(positions[p] for p in v.parents)
        label_to_index = [
            {label: k for k, label in enumerate(net.variable_map[p].values)} for p in v.parents
        ]
        rows: dict[tuple[int, ...], tuple[float, ...]] = {}
        for key, row in table.rows:
            idx_key = tuple(label_to_index[j][label] for j, label in enumerate(key))
            rows[idx_key] = tuple(float(e.constant_value()) for e in row)
        prepared.append((parent_pos, rows))
    return positions, prepared


def _literal_indices(net: ParamBN, literals: Literals) -> list[tuple[int, int]]:
    positions = {v.name: i for i, v in enumerate(net.variables)}
    out = []
    for var, value in literals:
        v = net.variable_map[var]
        out.append((positions[var], v.value_index(value)))
    return out


def _assignments(net: BayesNet):
    return itertools.product(*(range(len(v.values)) for v in net.variables))


def infer(bn: BayesNet, hypothesis: Literals, evidence: Literals = ()) -> float:
    """``Pr(hypothesis | evidence)`` by full joint enumeration.

    Raises :class:`EvidenceImpossible` if the evidence has probability zero and
    :class:`TooLarge` if the joint space exceeds the enumeration guard.
    """
    if _joint_size(bn) > ENUMERATION_GUARD:
        raise TooLarge(f"joint space of {_joint_size(bn)} states exceeds the enumeration guard")
    _, prepared = _prepared(bn)
    hyp = _literal_indices(bn, hypothesis)
    ev = _literal_indices(bn, evidence)

    p_evidence = 0.0
    p_both = 0.0
    for w in _assignments(bn):
        weight = 1.0
        for (parent_pos, rows), value_index in zip(prepared, w):
            weight *= rows[tuple(w[j] for j in parent_pos)][value_index]
            if weight == 0.0:
                break
        if weight == 0.0:
            continue
        if all(w[pos] == val for pos, val in ev):
            p_evidence += weight
            if all(w[pos] == val for pos, val in hyp):
                p_both += weight
    if p_evidence == 0.0:
        raise EvidenceImpossible("the evidence has probability zero")
    return p_both / p_evidence


def joint_table(bn: BayesNet) -> dict[tuple[str, ...], float]:
    """The full joint distribution as a mapping from value-label tuples."""
    if _joint_size(bn) > ENUMERATION_GUARD:
        raise TooLarge(f"joint space of {_joint_size(bn)} states exceeds the enumeration guard")
    _, prepared = _prepared(bn)
    labels = [v.values for v in bn.variables]
    table: dict[tuple[str, ...], float] = {}
    for w in _assignments(bn):
        weight = 1.0
        for (parent_pos, rows), value_index in zip(prepared, w):
            weight *= rows[tuple(w[j] for j in parent_pos)][value_index]
        table[tuple(labels[i][k] for i, k in enumerate(w))] = weight
    return table


def cd_exact(bn1: BayesNet, bn2: BayesNet) -> float:
    """Log-ratio distance between two joint distributions over the same structure.

    ln of the largest assignment-probability ratio minus ln of the smallest,
    where assignments of probability zero under both networks count as ratio 1
    and a zero under exactly one network makes the distance infinite.
    """
    if tuple(v.name for v in bn1.variables) != tuple(v.name for v in bn2.variables):
        raise UnsupportedForCD("networks must share the same variables")
    if _joint_size(bn1) > ENUMERATION_GUARD:
        raise TooLarge(f"joint space of {_joint_size(bn1)} states exceeds the enumeration guard")
    _, prep1 = _prepared(bn1)
    _, prep2 = _prepared(bn2)

    max_ratio = -math.inf
    min_ratio = math.inf
    saw_any = False
    for w in _assignments(bn1):
        p1 = 1.0
        for (parent_pos, rows), value_index in zip(prep1, w):
            p1 *= rows[tuple(w[j] for j in parent_pos)][value_index]
        p2 = 1.0
        for (parent_pos, rows), value_index in zip(prep2, w):
            p2 *= rows[tuple(w[j] for j in parent_pos)][value_index]
        if p1 == 0.0 and p2 == 0.0:
            ratio = 1.0
        elif p1 == 0.0 or p2 == 0.0:
            return math.inf
        else:
            ratio = p2 / p1
        saw_any = True
        max_ratio = max(max_ratio, ratio)
        min_ratio = min(min_ratio, ratio)
    if not saw_any:
        return 0.0
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
    when no grid point satisfies the constraint.
    """
    import numpy as np  # here only, so that importing bntune does not load numpy

    names = pbn.parameter_names
    if len(names) > 3:
        raise TooLarge(f"{len(names)} parameters exceed the grid search guard of 3")
    if _joint_size(pbn) > ENUMERATION_GUARD:
        raise TooLarge("joint space exceeds the enumeration guard")
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

    hyp = _literal_indices(pbn, constraint.hypothesis)
    ev = _literal_indices(pbn, constraint.evidence)
    positions = {v.name: i for i, v in enumerate(pbn.variables)}
    row_lookup = []
    for v, table in zip(pbn.variables, pbn.cpts):
        parent_pos = tuple(positions[p] for p in v.parents)
        label_to_index = [
            {label: k for k, label in enumerate(pbn.variable_map[p].values)} for p in v.parents
        ]
        rows = {}
        for key, row in table.rows:
            idx_key = tuple(label_to_index[j][label] for j, label in enumerate(key))
            rows[idx_key] = row
        row_lookup.append((parent_pos, rows))

    p_evidence = np.zeros(n_points)
    p_both = np.zeros(n_points)
    track_cd = measure == "cd"
    if track_cd:
        max_ratio = np.full(n_points, -np.inf)
        min_ratio = np.full(n_points, np.inf)
    for w in _assignments(pbn):
        weight = np.ones(n_points)
        base = 1.0
        zero = False
        for (parent_pos, rows), value_index in zip(row_lookup, w):
            entry = rows[tuple(w[j] for j in parent_pos)][value_index]
            if entry.is_zero():
                zero = True
                break
            weight = weight * entry.evaluate_numeric(grid)
            base *= entry.evaluate_numeric(u0)
        if zero:
            continue  # zero under every instantiation: ratio 1, no probability mass
        if track_cd:
            ratio = weight / base
            np.maximum(max_ratio, ratio, out=max_ratio)
            np.minimum(min_ratio, ratio, out=min_ratio)
        if all(w[pos] == val for pos, val in ev):
            p_evidence += weight
            if all(w[pos] == val for pos, val in hyp):
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
        squared = np.zeros(n_points)
        for name in names:
            squared += (grid[name] - u0[name]) ** 2
        distance = np.sqrt(squared)
    elif track_cd:
        distance = np.log(max_ratio) - np.log(min_ratio)
    else:
        raise ValueError(f"unknown distance measure {measure!r}")

    distance = np.where(satisfied, distance, np.inf)
    best = int(np.argmin(distance))
    point = {name: float(grid[name][best]) for name in names}
    return point, float(distance[best])

