"""Partitioning a parameter box into accepting, rejecting, and unknown parts.

A work queue of boxes is verified in breadth-first order; inconclusive boxes
are bisected along their widest *live* axis until the conclusively classified
volume reaches the coverage factor, i.e. the requested share of the input
box.  An axis is live when its parameter labels some edge of the chain; the
others cannot change any verdict, so they stay whole.  All bookkeeping uses
exact rational volumes, so the reported coverage is exact.
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


def partition(
    pmc: PMC,
    spec: ReachSpec,
    region: Region,
    eta: float | Fraction = Fraction(99, 100),
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
    those of the parameters in ``verifier.relaxed.parametric``, the
    verifier being built from ``pmc`` and ``spec`` when none is given.  Raises
    :class:`CoverageUnreachable`, carrying the partial result, when ``guard``
    verifications were spent or only unsplittable inconclusive boxes remain.
    """
    eta = as_fraction(eta)
    if not 0 <= eta <= 1:
        raise ValueError(f"eta must be within [0, 1], got {eta}")
    if verifier is None:
        verifier = RegionVerifier(pmc, spec)
    axes = [i for i, (lb, ub) in enumerate(region.intervals) if ub > lb]
    input_widths = {i: region.intervals[i][1] - region.intervals[i][0] for i in axes}
    on_edges = {name for _, local in verifier.relaxed.parametric for name in local}
    live_axes = [i for i in axes if region.params[i] in on_edges]

    def widest_axis(box: Region) -> int | None:
        best, best_width = None, Fraction(0)
        for i in live_axes:
            lb, ub = box.intervals[i]
            width = (ub - lb) / input_widths[i]
            if width > best_width:
                best, best_width = i, width
        return best

    total = region.volume()
    threshold = eta * total
    accepting: list[Region] = []
    rejecting: list[Region] = []
    unknown: list[Region] = []
    covered = Fraction(0)
    verifications = 0
    queue: deque[Region] = deque([region])

    def result() -> PartitionResult:
        leftovers = unknown + list(queue)
        return PartitionResult(
            tuple(sorted(accepting, key=Region.sort_key)),
            tuple(sorted(rejecting, key=Region.sort_key)),
            tuple(sorted(leftovers, key=Region.sort_key)),
            covered / total,
            verifications,
        )

    def give_up() -> CoverageUnreachable:
        return CoverageUnreachable(
            f"conclusive coverage {float(covered / total):.6g} after "
            f"{verifications} verifications, needed {float(eta):.6g}",
            partial=result(),
        )

    done = False
    while queue and not done:
        box = queue.popleft()
        verdict = verifier.verify(box)
        verifications += 1
        if verdict is Verdict.ACCEPTING:
            accepting.append(box)
            covered += box.volume()
        elif verdict is Verdict.REJECTING:
            rejecting.append(box)
            covered += box.volume()
        searching = until_accepting and not accepting and covered < total
        done = covered >= threshold and not searching
        if verdict is Verdict.INCONCLUSIVE:
            axis = None if done else widest_axis(box)
            if axis is None:
                unknown.append(box)
            else:
                queue.extend(box.split(axis))
        if not done and verifications >= guard:
            raise give_up()
    if covered < threshold:
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
