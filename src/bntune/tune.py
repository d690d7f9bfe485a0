"""Finding a nearby parameter instantiation that satisfies the constraint.

Starting from the original values, candidate boxes of growing size are carved
out around them and partitioned into accepting/rejecting parts; as soon as
accepting volume appears, the accepting point closest to the original values
is returned.  The radii are fixed, ``d0 / 32`` doubling up to ``d0``, and the
last box is the declared box itself, under either distance, so a fully
rejecting last box proves infeasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .bn import Constraint, Instantiation, ParamBN
from .errors import CoverageUnreachable, EmptyInput, NotWellFormed, UnsupportedForCD
from .pmc import compile_tailored, reach_prob
from .poly import Region, _binary_fraction
from .refine import BOX_GUARD, DEFAULT_ETA, _check_limits, partition

#: The schedule: ``_STEPS`` radii, each ``1 / _GAMMA`` times the one before,
#: the last being ``d0``.
_GAMMA = 0.5
_STEPS = 6


class Status(str, Enum):
    """How a tuning run ended."""

    SATISFIED = "satisfied"  # the original values already satisfy the constraint
    TUNED = "tuned"  # a satisfying instantiation was found
    INFEASIBLE = "infeasible"  # no point of the declared box satisfies the constraint
    UNKNOWN = "unknown"  # search exhausted without a proof either way

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Hyper:
    """Search hyper-parameters.

    ``eta`` is the coverage factor each partitioning must reach (the share of
    a candidate box that must be conclusively classified), stored as
    :func:`partition` reads it (:func:`as_fraction`); ``guard`` caps the
    number of box verifications each partitioning may spend.  Both are
    checked by :func:`partition`'s rule.  The schedule of candidate radii
    is fixed (see :func:`tune`).
    """

    eta: Fraction = DEFAULT_ETA
    guard: int = BOX_GUARD

    def __post_init__(self):
        object.__setattr__(self, "eta", _check_limits(self.eta, self.guard))


@dataclass(frozen=True)
class IterationStats:
    """Effort and outcome of one candidate box."""

    epsilon: float
    region: Region
    verifications: int
    accepting: int
    rejecting: int
    unknown: int
    coverage: Fraction


@dataclass(frozen=True)
class TuneResult:
    status: Status
    instantiation: dict[str, Fraction] | None
    distance: float | None
    measure: str
    probability: float | None
    epsilon_final: float | None
    d0: float
    iterations: tuple[IterationStats, ...]

    @property
    def distance_squared(self) -> float | None:
        return None if self.distance is None else self.distance * self.distance


# -- distances ---------------------------------------------------------------


def distance_ec(pbn: ParamBN, u: Instantiation) -> float:
    """Euclidean distance between ``u`` and the original parameter values."""
    return _distance_ec(pbn)(u)


def _distance_ec(pbn: ParamBN) -> Callable[[Instantiation], float]:
    u0 = pbn.origin_instantiation()
    origin = [(x, float(u0[x])) for x in pbn.parameter_names]
    return lambda u: math.sqrt(sum((float(u[x]) - v) ** 2 for x, v in origin))


def _single_tuned_cpt(pbn: ParamBN):
    owners = [cpt for cpt in pbn.cpts if cpt.parameters]
    if len(owners) > 1:
        raise UnsupportedForCD(
            "the log-ratio distance needs all parameters in one table; "
            f"found them in {sorted(c.owner for c in owners)}"
        )
    return owners[0] if owners else None


def distance_cd(pbn: ParamBN, u: Instantiation) -> float:
    """Log-ratio distance: ln(max entry ratio) - ln(min entry ratio).

    Closed form of the joint-distribution ratio distance when all parameters
    sit in one table: each table entry contributes new/old (an unchanged or
    doubly-zero entry contributes 1); a single zero-crossing entry makes the
    distance infinite.
    """
    return _distance_cd(pbn)(u)


def _distance_cd(pbn: ParamBN) -> Callable[[Instantiation], float]:
    """:func:`distance_cd` of any point; the original entries are evaluated once."""
    cpt = _single_tuned_cpt(pbn)
    if cpt is None:
        return lambda u: 0.0
    u0 = pbn.origin_instantiation()
    entries = [(entry, entry.evaluate(u0)) for _, row in cpt.rows for entry in row]

    def distance(u: Instantiation) -> float:
        hi, lo = Fraction(1), Fraction(1)
        for entry, old in entries:
            new = entry.evaluate(u)
            if old == 0 and new == 0:
                continue
            if old == 0 or new == 0:
                return math.inf
            ratio = new / old
            hi = max(hi, ratio)
            lo = min(lo, ratio)
        return float(math.log(hi) - math.log(lo))

    return distance


def d0_upper(pbn: ParamBN, measure: str = "ec") -> float:
    """An upper bound on the distance of any instantiation in the declared box.

    It is the radius of the schedule's last step, whose box is the declared
    box itself.  Raises :class:`ValueError` for an unknown ``measure``.
    """
    _measure(measure)
    if measure == "ec":
        return math.sqrt(len(pbn.params))
    cpt = _single_tuned_cpt(pbn)
    if cpt is None:
        return 0.0
    u0 = pbn.origin_instantiation()
    box = pbn.space()
    hi, lo = Fraction(1), Fraction(1)
    for _, row in cpt.rows:
        for entry in row:
            if entry.is_constant:
                continue
            old = entry.evaluate(u0)
            elo, ehi = entry.bounds(box)
            hi = max(hi, ehi / old)
            lo = min(lo, elo / old)
    return float(math.log(hi) - math.log(lo))


# -- candidate boxes -----------------------------------------------------------


def _met(pbn: ParamBN, intervals) -> Region | None:
    """The box of ``intervals``, one per declared parameter, met with the
    declared box, or ``None`` when one of them misses its declared interval."""
    met = tuple(
        (max(lo, dlb), min(hi, dub))
        for (lo, hi), (_, (dlb, dub)) in zip(intervals, pbn.params)
    )
    return Region(pbn.parameter_names, met) if all(lo <= hi for lo, hi in met) else None


def expand_region_ec(pbn: ParamBN, u0: Mapping[str, Fraction], epsilon: float) -> Region | None:
    """The largest axis-aligned box around ``u0`` with Euclidean radius
    ``epsilon``, met with the declared box (``None`` if they do not meet)."""
    halfwidth = _binary_fraction(epsilon / math.sqrt(max(len(pbn.params), 1)))
    centers = [Fraction(u0[name]) for name in pbn.parameter_names]
    return _met(pbn, [(center - halfwidth, center + halfwidth) for center in centers])


def expand_region_cd(pbn: ParamBN, u0: Mapping[str, Fraction], epsilon: float) -> Region | None:
    """A box around ``u0`` inside log-ratio distance ``epsilon``, met with the
    declared box (``None`` if they do not meet).

    Every point of the box built here lies within the radius, up to the
    float rounding of its ends.  With ``a = exp(epsilon/2)``, keeping both
    ``x/x0`` and ``(1-x)/(1-x0)`` inside ``[1/a, a]`` keeps every entry
    ratio of the tuned table inside ``[1/a, a]`` (co-varied entries scale
    with ``(1-x)/(1-x0)``), so the distance over the whole box stays at most
    ``epsilon``.
    """
    _single_tuned_cpt(pbn)  # reject multi-table parameter sets up front
    alpha = math.exp(float(epsilon) / 2.0)
    intervals = []
    for name in pbn.parameter_names:
        center = Fraction(u0[name])
        c = float(center)
        lo = _binary_fraction(max(c / alpha, 1.0 - (1.0 - c) * alpha))
        hi = _binary_fraction(min(c * alpha, 1.0 - (1.0 - c) / alpha))
        # At tiny radii the float ends can round past ``u0``, which the
        # exact box contains.
        intervals.append((min(lo, center), max(hi, center)))
    return _met(pbn, intervals)


#: Per distance measure: the distance from a network's original values, as a
#: function of the point, and the candidate box of a radius.
_MEASURES = {"ec": (_distance_ec, expand_region_ec), "cd": (_distance_cd, expand_region_cd)}


def _measure(measure: str):
    try:
        return _MEASURES[measure]
    except KeyError:
        raise ValueError(f"measure must be 'ec' or 'cd', got {measure!r}") from None


def minimal_instantiation(
    pbn: ParamBN,
    boxes: Sequence[Region],
    measure: str = "ec",
) -> tuple[dict[str, Fraction], float]:
    """The point of the given boxes closest to the original values.

    Both supported distances decrease axis-wise towards the original value,
    so per box the closest point clamps the original values into the box;
    ties between boxes keep the earliest box.
    """
    distance_from, _ = _measure(measure)
    if not boxes:
        raise EmptyInput("no boxes to pick an instantiation from")
    centers = {name: Fraction(v) for name, v in pbn.origin_instantiation().items()}
    distance = distance_from(pbn)
    best_point: dict[str, Fraction] | None = None
    best = math.inf
    for box in boxes:
        bounds = zip(box.params, box.intervals)
        point = {name: min(max(centers[name], lb), ub) for name, (lb, ub) in bounds}
        d = distance(point)
        if d < best:
            best_point, best = point, d
    assert best_point is not None
    return best_point, best


# -- the search loop -----------------------------------------------------------


def tune(
    pbn: ParamBN,
    constraint: Constraint,
    measure: str = "ec",
    hyper: Hyper = Hyper(),
    order: Sequence[str] | None = None,
) -> TuneResult:
    """Search for a satisfying instantiation of minimal distance.

    Returns immediately when the original values satisfy the constraint.
    Otherwise candidate boxes grow along a fixed schedule of six radii,
    ``d0 / 32``, ``d0 / 16``, ... up to ``d0``: the first five boxes are
    the measure's expander's radius boxes around the original values, met
    with the declared box, and the last is the declared box itself.  A step
    whose radius box misses a declared interval holds no declared point and
    is skipped, so every answer lies within its ``epsilon_final`` of the
    original values, up to the float rounding of the box's ends.  A step
    whose box equals the previous step's box is skipped too, since it would
    be partitioned the same way again.
    Each box is partitioned until an accepting part turns up or the box is
    proven fully rejecting, so even accepting slivers far below the coverage
    allowance are found.  The first box with accepting volume yields the
    result.  When the last box is conclusively rejecting everywhere, no
    point of the declared box satisfies the constraint and the result is
    infeasible; anything short of that proof ends as unknown.  A
    partitioning that hits its box guard contributes whatever it classified
    so far.  Every step partitions the run's one chain, so the nested boxes
    share the corners that it keeps (:func:`lifting.substitute`).  Raises :class:`ValueError` for an unknown ``measure``.
    """
    d0 = d0_upper(pbn, measure)
    _, expand = _measure(measure)
    u0 = pbn.origin_instantiation()
    chain, spec = compile_tailored(pbn, constraint, order=order)
    p0 = reach_prob(chain, u0, spec.targets)
    if spec.satisfied_by(p0):
        return TuneResult(Status.SATISFIED, dict(u0), 0.0, measure, p0, None, d0, ())

    stats: list[IterationStats] = []
    for k in reversed(range(_STEPS)):
        epsilon = d0 * _GAMMA**k
        region = expand(pbn, u0, epsilon) if k else pbn.space()
        # ``None`` is a radius box that holds no declared point.  The boxes
        # only grow, so a repeated box directly follows the step that
        # already partitioned it, at a smaller radius.
        if region is None or (stats and region == stats[-1].region):
            continue
        try:
            result = partition(
                chain,
                spec,
                region,
                hyper.eta,
                guard=hyper.guard,
                until_accepting=True,
            )
        except CoverageUnreachable as exc:
            result = exc.partial
        stats.append(
            IterationStats(
                epsilon, region, result.verifications, *result.counts, result.coverage
            )
        )
        if result.accepting:
            point, dist = minimal_instantiation(pbn, result.accepting, measure)
            prob = reach_prob(chain, point, spec.targets)
            if not spec.satisfied_by(prob):  # pragma: no cover - soundness guard
                raise NotWellFormed(
                    f"accepting box yielded probability {prob} violating the constraint"
                )
            return TuneResult(
                Status.TUNED, point, dist, measure, prob, epsilon, d0, tuple(stats)
            )

    status = Status.INFEASIBLE if result.coverage == 1 else Status.UNKNOWN
    return TuneResult(status, None, None, measure, None, d0, d0, tuple(stats))
