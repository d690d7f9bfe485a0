"""Partitioning a parameter box into accepting, rejecting, and unknown parts.

A work queue of boxes is verified in breadth-first order; inconclusive boxes
are bisected along one *live* axis until the conclusively classified volume
reaches the coverage factor, i.e. the requested share of the input box.  An
axis is live when its parameter labels some edge of the chain; the others
cannot change any verdict, so they stay whole.  Every queued box is the input
box bisected some number ``d`` of times, cycling through the live axes, so
its share of the input volume is exactly ``1 / 2**d`` and the reported
coverage is an exact rational without measuring any box.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
import csv

from .errors import CoverageUnreachable
from .lifting import RegionVerifier, Verdict
from .pmc import PMC, ReachSpec
from .poly import Region, as_fraction

#: Cap on the number of box verifications in one partitioning run.
BOX_GUARD = 2**16

#: Default coverage factor: the share of a box that must be classified.
DEFAULT_ETA = Fraction(99, 100)


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of partitioning: the box lists, exact coverage, and effort."""

    accepting: tuple[Region, ...]
    rejecting: tuple[Region, ...]
    unknown: tuple[Region, ...]
    coverage: Fraction
    verifications: int

    @property
    def counts(self) -> tuple[int, int, int]:
        return len(self.accepting), len(self.rejecting), len(self.unknown)


def _check_limits(eta: float | Fraction | str, guard: int) -> Fraction:
    """The search limits' rule, one for :func:`partition` and
    :class:`tune.Hyper`: ``eta``, read by :func:`as_fraction` and returned,
    lies in [0, 1], and ``guard`` allows at least one verification.  Raises
    :class:`ValueError` otherwise."""
    eta = as_fraction(eta)
    if not 0 <= eta <= 1:
        raise ValueError(f"eta must be within [0, 1], got {eta}")
    if guard < 1:
        raise ValueError(f"guard must allow at least one verification, got {guard}")
    return eta


def partition(
    pmc: PMC,
    spec: ReachSpec,
    region: Region,
    eta: float | Fraction = DEFAULT_ETA,
    *,
    guard: int = BOX_GUARD,
    verifier: RegionVerifier | None = None,
    until_accepting: bool = False,
) -> PartitionResult:
    """Split ``region`` until at least an ``eta`` share is conclusive.

    ``eta`` is the coverage factor: the run ends once the accepting and
    rejecting boxes together cover at least ``eta`` of the input volume, so at
    most a ``1 - eta`` share stays inconclusive.  The three returned box lists
    partition ``region`` exactly (their rational volumes add up to the input
    volume).  At least one verification happens even when ``eta`` is 0.
    With ``until_accepting`` the loop keeps refining past
    the coverage goal until it has found at least one accepting box or
    classified the whole region, so accepting parts smaller than the ``1 -
    eta`` allowance cannot be skipped over.  Only live axes are bisected:
    those of the parameters in ``pmc.lowered.parametric``.  Of the
    verifier, built from ``pmc`` and ``spec`` when none is given, only
    ``verify`` is called.

    A box at bisection depth ``d`` is split on live axis ``d`` modulo their
    number, so the live axes take turns and every box at depth ``d`` holds
    exactly ``1 / 2**d`` of the input volume.  Each box list is in the
    order of the boxes' ``intervals``, found without comparing a bound: per
    live axis a box keeps its index among the ``2**k`` slices that ``k``
    splits cut, and the indices, scaled to a common depth, order the boxes
    as their exact bounds do.  Raises :class:`ValueError`
    for an ``eta`` outside [0, 1] or a ``guard`` below 1, and
    :class:`CoverageUnreachable`, carrying the partial result, when
    ``guard`` verifications were spent or only unsplittable inconclusive
    boxes remain.
    """
    eta = _check_limits(eta, guard)
    if verifier is None:
        verifier = RegionVerifier(pmc, spec)
    on_edges = {name for _, local in pmc.lowered.parametric for name in local}
    live_axes = [
        i
        for i, (name, (lb, ub)) in enumerate(zip(region.params, region.intervals))
        if ub > lb and name in on_edges
    ]
    # Each box is kept with its depth and, per live axis, its bisection index:
    # the box is sub-interval ``index[p]`` of the ``2**k`` that ``k`` splits
    # of live axis ``p`` cut the input interval into.
    Entry = tuple[Region, int, tuple[int, ...]]
    accepting: list[Entry] = []
    rejecting: list[Entry] = []
    unknown: list[Entry] = []
    # The conclusive share of the input volume is covered / 2**scale; depths
    # never decrease in breadth-first order, so a shift keeps it exact.
    covered, scale = 0, 0
    verifications = 0
    queue: deque[Entry] = deque([(region, 0, (0,) * len(live_axes))])

    def splits(depth: int, p: int) -> int:
        """How often a box at ``depth`` has been bisected along live axis ``p``."""
        return (depth + len(live_axes) - 1 - p) // len(live_axes)

    def ordered(entries: list[Entry]) -> tuple[Region, ...]:
        """The boxes in the order of their exact intervals, found on the lattice.

        On live axis ``p`` a box spans lattice steps ``index[p] << shift``
        to ``(index[p] + 1) << shift``, where a step is the width of the
        deepest box and ``shift`` the number of splits of ``p`` between the
        two depths.  A step count grows with the exact bound it stands for,
        and the other axes are the same for every box.
        """
        deepest = max((depth for _, depth, _ in entries), default=0)

        def ends(entry: Entry) -> list[int]:
            _, depth, index = entry
            key = []
            for p, j in enumerate(index):
                shift = splits(deepest, p) - splits(depth, p)
                key += (j << shift, (j + 1) << shift)
            return key

        return tuple(box for box, _, _ in sorted(entries, key=ends))

    def result() -> PartitionResult:
        return PartitionResult(
            ordered(accepting),
            ordered(rejecting),
            ordered(unknown + list(queue)),
            Fraction(covered, 1 << scale),
            verifications,
        )

    def give_up() -> CoverageUnreachable:
        return CoverageUnreachable(
            f"conclusive coverage {covered / (1 << scale):.6g} after "
            f"{verifications} verifications, needed {float(eta):.6g}",
            partial=result(),
        )

    done = False
    while queue and not done:
        entry = box, depth, index = queue.popleft()
        covered <<= depth - scale
        scale = depth
        verdict = verifier.verify(box)
        verifications += 1
        if verdict is Verdict.ACCEPTING:
            accepting.append(entry)
        elif verdict is Verdict.REJECTING:
            rejecting.append(entry)
        if verdict is not Verdict.INCONCLUSIVE:
            covered += 1
        searching = until_accepting and not accepting and covered < 1 << scale
        done = covered * eta.denominator >= eta.numerator << scale and not searching
        if verdict is Verdict.INCONCLUSIVE:
            if done or not live_axes:
                unknown.append(entry)
            else:
                p = depth % len(live_axes)
                left, right = box.split(live_axes[p])
                j = 2 * index[p]
                queue.append((left, depth + 1, index[:p] + (j,) + index[p + 1 :]))
                queue.append((right, depth + 1, index[:p] + (j + 1,) + index[p + 1 :]))
        if not done and verifications >= guard:
            raise give_up()
    if covered * eta.denominator < eta.numerator << scale:
        raise give_up()
    return result()


def boxes_csv(partition_result: PartitionResult) -> str:
    """Render the box lists as CSV: verdict, then low/high columns per parameter."""
    groups = (
        ("accepting", partition_result.accepting),
        ("rejecting", partition_result.rejecting),
        ("unknown", partition_result.unknown),
    )
    params: tuple[str, ...] = ()
    for _, boxes in groups:
        if boxes:
            params = boxes[0].params
            break
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["verdict"]
    for name in params:
        header += [f"{name}_low", f"{name}_high"]
    writer.writerow(header)
    for verdict, boxes in groups:
        for box in boxes:
            row = [verdict]
            for lb, ub in box.intervals:
                row += [repr(float(lb)), repr(float(ub))]
            writer.writerow(row)
    return out.getvalue()
