"""Combination rules and normalizations.

Every rule returns a FusionReport: the combined mass plus the audit trail
needed to reconstruct the numbers (pairwise product trace, conflict,
normalization divisor). Rules are pure functions over immutable inputs,
and iteration follows ascending bitmask order, so identical inputs yield
bit-identical reports.

Guard summary: every rule but average rejects negative weights (only the
average rule combines counter-evidence); dempster additionally requires
classical inputs and defined (non-total) conflict.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from math import inf, isfinite
from typing import Iterator, Sequence

from .errors import RuleGuardError, ValidationError
from .frame import FocalSet
from .mass import (
    CLASSICAL_RANGE,
    SUM_EPSILON,
    MassFunction,
    MassRange,
    RangeClass,
    SumClass,
    Weights,
    checked_fsum,
    classify_range,
    classify_sum,
    interval_union,
)


class RuleId(Enum):
    """Identifier of a combination rule, as spelled in documents and CLI flags."""

    CONJUNCTIVE = "conjunctive"
    DEMPSTER = "dempster"
    PCR5 = "pcr5"
    TOTAL_PROPORTIONAL = "total-proportional"
    AVERAGE = "average"


@dataclass(frozen=True)
class TraceRecord:
    """One pairwise product: m1(x) * m2(y) landed on x ∩ y."""

    x: FocalSet
    y: FocalSet
    product: float
    assigned_to: FocalSet


class ProductTrace(Sequence[TraceRecord]):
    """The pairwise products of two masses as TraceRecords, built only when read.

    Each focal set of m1 against each of m2, in ascending bitmask order.
    Only the inputs are kept, so len() is free; equality is by the records.
    """

    __slots__ = ("_m1", "_m2")

    def __init__(self, m1: MassFunction, m2: MassFunction) -> None:
        self._m1 = m1
        self._m2 = m2

    def __len__(self) -> int:
        return len(self._m1.weights.bits) * len(self._m2.weights.bits)

    def __iter__(self) -> Iterator[TraceRecord]:
        second = tuple(self._m2.weights.items())
        for x, w1 in self._m1.weights.items():
            for y, w2 in second:
                yield TraceRecord(x, y, w1 * w2, x & y)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return "ProductTrace(%d records)" % len(self)


@dataclass(frozen=True)
class FusionReport:
    """A combined mass with its audit fields.

    conflict is the weight that fell on the empty set before any
    redistribution; normalization rescales it alongside the weights.
    trace lists every pairwise product (empty for average).
    divisor accumulates every rescaling applied (1 when none was).
    skipped_fractions counts conflicting products discarded because both
    source weights were zero, which makes the proportional split's
    denominator zero; such products are themselves zero, so conservation
    is unaffected.
    """

    result: MassFunction
    conflict: float
    trace: Sequence[TraceRecord]
    divisor: float
    rule: RuleId
    skipped_fractions: int = 0


def _check_pair(m1: MassFunction, m2: MassFunction) -> None:
    if m1.frame != m2.frame:
        raise ValidationError("cannot combine masses over different frames")
    if m1.has_negative or m2.has_negative:
        raise RuleGuardError(
            "negative weights present; only the average rule combines counter-evidence"
        )


def _products(m1: MassFunction, m2: MassFunction) -> dict[int, list[float]]:
    """Pairwise products over declared focal sets, bucketed by intersection bitmask.

    Products are taken in trace order; the caller has checked the frames.
    """
    buckets: defaultdict[int, list[float]] = defaultdict(list)
    second = tuple(m2.weights.bits.items())
    for x, w1 in m1.weights.bits.items():
        for y, w2 in second:
            buckets[x & y].append(w1 * w2)
    return buckets


def conjunctive(m1: MassFunction, m2: MassFunction) -> FusionReport:
    """Unnormalized conjunctive combination.

    Each pair of focal sets contributes the product of its weights to
    their intersection; disjoint pairs pile up on the empty set, and that
    pile is reported as the conflict. The grand total of the result
    equals the product of the input totals.
    """
    _check_pair(m1, m2)
    weights = {bits: checked_fsum(parts) for bits, parts in _products(m1, m2).items()}
    result = MassFunction(m1.frame, Weights(m1.frame, weights), interval_union(m1.range, m2.range))
    return FusionReport(result, weights.get(0, 0.0), ProductTrace(m1, m2), 1.0, RuleId.CONJUNCTIVE)


def dempster(m1: MassFunction, m2: MassFunction) -> FusionReport:
    """Dempster's rule: conjunctive combination renormalized by 1 - k."""
    for position, m in (("first", m1), ("second", m2)):
        range_class = classify_range(m)
        sum_class = classify_sum(m)
        if range_class is not RangeClass.CLASSICAL or sum_class is not SumClass.BALANCED:
            raise RuleGuardError(
                "dempster requires classical masses summing to 1, but the %s input "
                "is %s by range and %s by sum; permitted here: pcr5, "
                "total-proportional, conjunctive (average for negative weights)"
                % (position, range_class.value, sum_class.value)
            )
    base = conjunctive(m1, m2)
    k = base.conflict
    if k >= 1.0 - SUM_EPSILON:
        raise RuleGuardError(
            "conflict k=%r leaves nothing to renormalize; dempster is undefined" % k
        )
    scale = 1.0 - k
    weights = {b: w / scale for b, w in base.result.weights.bits.items() if b}
    result = MassFunction(m1.frame, Weights(m1.frame, weights), CLASSICAL_RANGE)
    return FusionReport(result, k, base.trace, scale, RuleId.DEMPSTER)


def pcr5(m1: MassFunction, m2: MassFunction) -> FusionReport:
    """Conjunctive combination with per-product conflict redistribution.

    Every conflicting product m1(x)*m2(y) (x and y disjoint) is split back
    onto x and y in proportion to the source weights that produced it:
    x receives m1(x)*p/(m1(x)+m2(y)) and y the rest. The empty set ends at
    zero and the grand total is conserved. Products whose proportional
    denominator is zero are discarded and counted.
    """
    _check_pair(m1, m2)
    for m in (m1, m2):
        if m.conflict_weight != 0.0:
            raise RuleGuardError(
                "pcr5 inputs must not carry weight on the empty set; "
                "redistribute or renormalize first"
            )
    # The products of _products, each conflicting one split as it is taken.
    buckets: defaultdict[int, list[float]] = defaultdict(list)
    shares: defaultdict[int, list[float]] = defaultdict(list)
    skipped = 0
    second = tuple(m2.weights.bits.items())
    for x, w1 in m1.weights.bits.items():
        for y, w2 in second:
            landing = x & y
            p = w1 * w2
            buckets[landing].append(p)
            if landing:
                continue
            denom = w1 + w2
            if denom == 0.0:
                skipped += 1
                continue
            shares[x].append(w1 * p / denom)
            shares[y].append(w2 * p / denom)
    weights = {bits: checked_fsum(parts) for bits, parts in buckets.items()}
    combined = {
        bits: checked_fsum([weights.get(bits, 0.0), *shares.get(bits, [])])
        for bits in (weights.keys() | shares.keys()) - {0}
    }
    result = MassFunction(m1.frame, Weights(m1.frame, combined), interval_union(m1.range, m2.range))
    return FusionReport(result, weights.get(0, 0.0), ProductTrace(m1, m2), 1.0, RuleId.PCR5, skipped)


def over_normalize(report: FusionReport, target: MassRange) -> FusionReport:
    """Rescale a report so its grand total becomes target.lo + target.hi.

    The divisor is the current grand total over the target's sum; for two
    strict sources this equals (sum m1)(sum m2)/(lo+hi). Every weight,
    the conflict field, and the empty-set bucket are divided by it; the
    trace keeps the raw products. The result adopts the target range.
    """
    if target.total <= 0.0:
        raise RuleGuardError(
            "target range sums to %r; normalization needs a positive total"
            % target.total
        )
    grand = report.result.total
    divisor = grand / target.total
    if not 0.0 < divisor < inf:
        raise RuleGuardError(
            "grand total %r gives normalization divisor %r, outside (0, inf)"
            % (grand, divisor)
        )
    weights = {b: w / divisor for b, w in report.result.weights.bits.items()}
    result = MassFunction(report.result.frame, Weights(report.result.frame, weights), target)
    return replace(
        report,
        result=result,
        conflict=report.conflict / divisor,
        divisor=report.divisor * divisor,
    )


def total_proportional(report: FusionReport) -> FusionReport:
    """Redistribute the empty-set weight over all focal sets pro rata.

    Each focal weight w becomes w*(1 + k/S) where k is the empty-set
    weight and S the focal total, so ratios between focal sets and the
    grand total are both preserved. Distinct from pcr5, which splits each
    conflicting product between the two sets that produced it; this rule
    feeds every focal set, conflicting or not.
    """
    result = report.result
    k = result.conflict_weight
    if k == 0.0:
        return replace(report, rule=RuleId.TOTAL_PROPORTIONAL)
    focal_total = result.focal_total
    if focal_total <= 0.0:
        raise RuleGuardError(
            "no positive focal weight to absorb conflict %r onto" % k
        )
    factor = 1.0 + k / focal_total
    if not isfinite(factor):
        raise RuleGuardError(
            "conflict %r over focal total %r overflows the redistribution factor" % (k, focal_total)
        )
    weights = {b: w * factor for b, w in result.weights.bits.items() if b}
    redistributed = MassFunction(result.frame, Weights(result.frame, weights), result.range)
    return replace(report, result=redistributed, rule=RuleId.TOTAL_PROPORTIONAL)


def average(masses: Sequence[MassFunction]) -> FusionReport:
    """Per-focal-set arithmetic mean; the only rule that accepts negative weights.

    Produces no conflict: the empty set stays at zero and the result range
    is the union of the input ranges.
    """
    pool = tuple(masses)
    if len(pool) < 2:
        raise ValidationError("average needs at least two masses, got %d" % len(pool))
    frame = pool[0].frame
    for m in pool[1:]:
        if m.frame != frame:
            raise ValidationError("cannot combine masses over different frames")
    keys = {b for m in pool for b in m.weights.bits} - {0}
    weights = {b: checked_fsum(m.weights.bits.get(b, 0.0) for m in pool) / len(pool) for b in keys}
    result = MassFunction(frame, Weights(frame, weights), interval_union(*(m.range for m in pool)))
    return FusionReport(result, 0.0, (), 1.0, RuleId.AVERAGE)


def fuse(
    m1: MassFunction,
    m2: MassFunction,
    rule: RuleId = RuleId.PCR5,
    target: MassRange | None = None,
    *,
    normalize: bool = True,
) -> FusionReport:
    """Combine, redistribute the conflict, then rescale onto target.

    Redistribution is pcr5's per-product split, total-proportional's pro
    rata spread, Dempster's renormalization, or none (conjunctive). The
    normalize flag appends the rescaling stage to pcr5 and
    total-proportional; target defaults to the union of the input ranges.
    Average takes no stage: it is the mean of the two inputs.
    """
    if rule is RuleId.AVERAGE:
        return average((m1, m2))
    if rule is RuleId.CONJUNCTIVE:
        return conjunctive(m1, m2)
    if rule is RuleId.DEMPSTER:
        return dempster(m1, m2)
    if rule is RuleId.PCR5:
        report = pcr5(m1, m2)
    elif rule is RuleId.TOTAL_PROPORTIONAL:
        report = total_proportional(conjunctive(m1, m2))
    else:
        raise ValidationError("unknown rule %r" % rule)
    if not normalize:
        return report
    return over_normalize(report, target or interval_union(m1.range, m2.range))
