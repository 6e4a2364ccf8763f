"""Combination rules and normalizations.

Every rule returns a FusionReport: the combined mass plus the same audit
fields for every rule at every source count (conflict, normalization
divisor, rule, skipped products). The pairwise products of two masses are
an explicit call, pairwise_products. Every rule runs one pipeline:
combine, exactly in integers, the n-ary conjunctive or average's per-set
sums; redistribute, in _fold_report, the empty-set weight (none for
conjunctive and average; Dempster's renormalization, total-proportional's
pro rata spread, pcr5's float shares of each conflicting product of two
masses), each field rounded once; rescale onto a target, inside
total-proportional's one quotient or by over_normalize for pcr5. combine
is the one dispatcher: it picks the rule and runs pcr5 as a left fold.
Rules are pure functions over immutable inputs, and iteration follows
ascending bitmask order, so identical inputs yield bit-identical reports.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from math import inf, ldexp, prod
from operator import add, mul, sub
from typing import Sequence

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


def pairwise_products(m1: MassFunction, m2: MassFunction) -> tuple[TraceRecord, ...]:
    """Every pairwise product of two masses over one frame, as TraceRecords.

    Each focal set of m1 against each of m2, in ascending bitmask order.
    A record's product is the float m1(x) * m2(y), while the rules take
    their products exactly and round once, so adding up records can
    differ from a report's weights and conflict in the last place.
    """
    if m1.frame != m2.frame:
        raise ValidationError("cannot combine masses over different frames")
    second = tuple(m2.weights.items())
    return tuple(TraceRecord(x, y, w1 * w2, x & y) for x, w1 in m1.weights.items() for y, w2 in second)


@dataclass(frozen=True)
class FusionReport:
    """A combined mass with its audit fields.

    conflict is the weight that fell on the empty set before any
    redistribution: the empty-set weight of the exact conjunctive
    combination, rounded once; normalization rescales it alongside the
    weights.
    divisor accumulates every rescaling applied (1 when none was), so
    Dempster's is 1 - conflict however many masses it combined, and a
    rescale's is the grand total over the target's total.
    skipped_fractions counts conflicting products discarded because both
    source weights were zero, which makes the proportional split's
    denominator zero; such products are themselves zero, so conservation
    is unaffected. A pcr5 fold of three or more masses counts those of
    every fold step.
    """

    result: MassFunction
    conflict: float
    divisor: float
    rule: RuleId
    skipped_fractions: int = 0


def _check_pool(pool: Sequence[MassFunction], rule: RuleId) -> None:
    """Refuse a pool that rule cannot combine, before any arithmetic, by an error that does not depend on its order.

    In this order: dempster requires classical masses summing to 1; the
    masses must share one frame; every rule but average refuses negative
    weights (only the average rule combines counter-evidence); pcr5
    refuses weight on the empty set. Refusals of computed values, such as
    Dempster's total conflict, are raised where each is computed.
    """
    if rule is RuleId.DEMPSTER:
        classes = [(classify_range(m), classify_sum(m)) for m in pool]
        refused = [c for c in classes if c != (RangeClass.CLASSICAL, SumClass.BALANCED)]
        if refused:
            kinds = ", ".join(
                "%s by range and %s by sum" % (r.value, s.value)
                for r in RangeClass for s in SumClass if (r, s) in refused
            )
            raise RuleGuardError(
                "dempster requires classical masses summing to 1, but refuses %d of %d inputs: %s; "
                "permitted here: pcr5, total-proportional, conjunctive (average for negative weights)"
                % (len(refused), len(pool), kinds)
            )
    frame = pool[0].frame
    if any(m.frame != frame for m in pool):
        raise ValidationError("cannot combine masses over different frames")
    if rule is not RuleId.AVERAGE and any(m.has_negative for m in pool):
        raise RuleGuardError(
            "negative weights present; only the average rule combines counter-evidence"
        )
    if rule is RuleId.PCR5 and any(m.conflict_weight != 0.0 for m in pool):
        raise RuleGuardError(
            "pcr5 inputs must not carry weight on the empty set; "
            "redistribute or renormalize first"
        )


def conjunctive(m1: MassFunction, m2: MassFunction) -> FusionReport:
    """Unnormalized conjunctive combination.

    Each pair of focal sets contributes the product of its weights to
    their intersection; disjoint pairs pile up on the empty set, and that
    pile is reported as the conflict. The grand total of the result
    equals the product of the input totals. Computed by combine.
    """
    return combine((m1, m2), RuleId.CONJUNCTIVE)


def dempster(m1: MassFunction, m2: MassFunction) -> FusionReport:
    """Dempster's rule: conjunctive combination renormalized by 1 - k. Computed by combine."""
    return combine((m1, m2), RuleId.DEMPSTER)


def pcr5(m1: MassFunction, m2: MassFunction) -> FusionReport:
    """Conjunctive combination with per-product conflict redistribution.

    The conjunctive part and the conflict are conjunctive's: taken exactly,
    then rounded once. Every conflicting product p = m1(x)*m2(y) (x
    and y disjoint) is then split back onto x and y in proportion to the
    source weights that produced it: x receives m1(x)*p/(m1(x)+m2(y)) and
    y receives m2(y)*p/(m1(x)+m2(y)), in floats (where m1(x)*p overflows,
    as m1(x)/(m1(x)+m2(y)) times p). The empty set ends at zero
    and the grand total is conserved. Products whose proportional
    denominator is zero are discarded and counted. The shares are the
    pcr5 redistribution of _fold_report.
    """
    _check_pool((m1, m2), RuleId.PCR5)
    return _fold_report((m1, m2), RuleId.PCR5, *_conjunctive_numerators((m1, m2)))


def over_normalize(report: FusionReport, target: MassRange) -> FusionReport:
    """Rescale a report so its grand total becomes target.lo + target.hi.

    The divisor is the current grand total over the target's sum; for two
    strict sources this equals (sum m1)(sum m2)/(lo+hi). Every weight,
    the conflict field, and the empty-set bucket are divided by it, in
    floats; below the normal range, it and they are first scaled up by a
    power of two, so it keeps its digits. The result adopts the target
    range. combine rescales pcr5 this way; total-proportional inside its
    spread instead.
    """
    num, den = report.result.total.as_integer_ratio()
    divisor = _rescale_divisor(num, den, target)
    tn, td = target.total.as_integer_ratio()
    # The exact ratio exceeds 2**(bit length of num*td - that of den*tn - 1), so 2**s lifts it to 2**-1022 or
    # more; past 2**1023 the rest multiplies each quotient, by then at least 2**900.
    s = max(0, (den * tn).bit_length() - (num * td).bit_length() - 1021)
    scaled, unit, rest = _rescale_divisor(num << s, den, target), 2.0 ** min(s, 1023), 2.0 ** max(s - 1023, 0)
    weights = {b: w * unit / scaled * rest for b, w in report.result.weights.bits.items()}
    result = MassFunction(report.result.frame, Weights._ascending(report.result.frame, weights), target)
    return replace(report, result=result, conflict=report.conflict * unit / scaled * rest, divisor=report.divisor * divisor)


def _rescale_divisor(num: int, den: int, target: MassRange) -> float:
    """num/den over target's total, rounded once, to 0.0 if it underflows; refused if a total is not positive or it overflows."""
    if target.total <= 0.0:
        raise RuleGuardError("target range sums to %r; normalization needs a positive total" % target.total)
    tn, td = target.total.as_integer_ratio()
    try:
        divisor = num * td / (den * tn)
    except OverflowError:  # a grand total itself beyond the float range is _quotient's ValidationError
        raise RuleGuardError("target total %r is too small for grand total %r: the divisor is beyond the float range"
                             % (target.total, _quotient(num, den))) from None
    if num <= 0:
        raise RuleGuardError("grand total %r gives normalization divisor %r, outside (0, inf)"
                             % (_quotient(num, den), divisor))
    return divisor


def total_proportional(report: FusionReport) -> FusionReport:
    """Redistribute the empty-set weight over all focal sets pro rata.

    Each focal weight w becomes w*(1 + k/S) where k is the empty-set
    weight and S the focal total, so ratios between focal sets and the
    grand total are both preserved. Distinct from pcr5, which splits each
    conflicting product between the two sets that produced it; this rule
    feeds every focal set, conflicting or not. Each weight is taken
    exactly and rounded once, by the spread of _fold_report.
    """
    _check_pool((report.result,), RuleId.TOTAL_PROPORTIONAL)
    spread = _fold_report((report.result,), RuleId.TOTAL_PROPORTIONAL, *_scaled(report.result))
    return replace(report, result=spread.result, rule=RuleId.TOTAL_PROPORTIONAL)


def average(masses: Sequence[MassFunction]) -> FusionReport:
    """Per-focal-set arithmetic mean, the exact sum over the pool size rounded once; the only rule that accepts negative weights.

    Produces no conflict: the empty set stays at zero and the result range
    is the union of the input ranges.
    """
    pool = tuple(masses)
    if len(pool) < 2:
        raise ValidationError("average needs at least two masses, got %d" % len(pool))
    _check_pool(pool, RuleId.AVERAGE)
    ratios = [(b, w.as_integer_ratio()) for m in pool for b, w in m.weights.bits.items() if b]
    den = max([d for _, (_, d) in ratios], default=1)
    sums: defaultdict[int, int] = defaultdict(int)
    for b, (n, d) in ratios:
        sums[b] += n * (den // d)
    return _fold_report(pool, RuleId.AVERAGE, sums, den * len(pool))


def fuse(
    m1: MassFunction,
    m2: MassFunction,
    rule: RuleId = RuleId.PCR5,
    target: MassRange | None = None,
    *,
    normalize: bool = True,
) -> FusionReport:
    """Combine, redistribute the conflict, then rescale onto target: combine of the two masses."""
    return combine((m1, m2), rule, target, normalize=normalize)


def combine(
    masses: Sequence[MassFunction],
    rule: RuleId = RuleId.PCR5,
    target: MassRange | None = None,
    *,
    normalize: bool = True,
) -> FusionReport:
    """Two or more masses through one pipeline: combine, redistribute the conflict, rescale.

    average, the per-set mean of the whole pool, checks the pool itself;
    for the other rules _check_pool first refuses a pool the rule cannot
    combine, by the same error in any order of the masses. pcr5 is not
    associative, so it runs as a left fold of pairwise pcr5 calls, each
    intermediate result left unnormalized, and over three or more masses
    it depends on their order. conjunctive, dempster and total-proportional
    take the n-ary conjunctive combination exactly, each field rounded
    once: its empty-set weight is the conflict; dempster renormalizes the
    rest by 1 - conflict, its divisor, and total-proportional spreads the
    conflict over the focal sets pro rata, so a vacuous mass changes none
    of their fields. Their reports and average's, refusals included, are
    the same in any order of the masses. Last, with normalize, pcr5 and
    total-proportional rescale once onto target, by default the union of
    the input ranges: inside its one quotient or by over_normalize.
    """
    pool = tuple(masses)
    if len(pool) < 2:
        raise ValidationError("a fold needs at least two masses, got %d" % len(pool))
    if not isinstance(rule, RuleId):
        raise ValidationError("unknown rule %r; choose a RuleId" % (rule,))
    if rule is RuleId.AVERAGE:
        return average(pool)
    _check_pool(pool, rule)
    rescale = normalize and rule in (RuleId.PCR5, RuleId.TOTAL_PROPORTIONAL)
    target = (target or interval_union(*(m.range for m in pool))) if rescale else None
    if rule is not RuleId.PCR5:
        return _fold_report(pool, rule, *_conjunctive_numerators(pool), target)
    report = pcr5(pool[0], pool[1])
    for m in pool[2:]:
        step = pcr5(report.result, m)
        report = replace(step, skipped_fractions=report.skipped_fractions + step.skipped_fractions)
    return over_normalize(report, target) if target else report


def _conjunctive_numerators(pool: Sequence[MassFunction]) -> tuple[dict[int, int], int]:
    """The exact n-ary conjunctive of pool: every reached set's integer numerator, and their denominator.

    Taken by the commonality transforms or by pairwise products, whichever
    _dense_is_cheaper picks; both give the same numerators and keys.
    """
    sources, dens = zip(*map(_scaled, pool))
    width = len(pool[0].frame)
    conjoin = _dense_conjunctive if _dense_is_cheaper(sources, width) else _sparse_conjunctive
    return conjoin(sources, width), prod(dens)


def _scaled(m: MassFunction) -> tuple[dict[int, int], int]:
    """m's weights as integer numerators over one power of two, and that denominator."""
    bits = m.weights.bits
    ratios = [w.as_integer_ratio() for w in bits.values()]
    den = max([d for _, d in ratios], default=1)
    return dict(zip(bits, [n * (den // d) for n, d in ratios])), den


def _quotients(numerators: dict[int, int], scale: int, base: int) -> dict[int, float]:
    """Each nonempty set's n * scale / base, correctly rounded; a value beyond the float range is a ValidationError."""
    shift = 1 - base.bit_length()
    if scale == 1 and not base & (base - 1) and shift >= -1022:
        # base is 2**-shift, so every nonzero n / base is normal: float(n) scaled exactly.
        try:
            return {b: ldexp(n, shift) for b, n in numerators.items() if b}
        except OverflowError:  # some n beyond the float range, though its quotient may not be
            pass
    return {b: _quotient(n * scale, base) for b, n in numerators.items() if b}


def _quotient(num: int, den: int) -> float:
    """num / den correctly rounded; a value beyond the float range is a ValidationError."""
    try:
        return num / den
    except OverflowError:
        raise ValidationError("fused weight beyond the float range") from None


def _dense_is_cheaper(sources: Sequence[dict[int, int]], width: int) -> bool:
    """Whether the commonality transforms cost less than the pairwise products.

    The products take one Python loop step per pair of reached set and
    focal set, and a prefix reaches at most 2**width sets. The transforms
    take width * 2**(width - 1) bigint steps a source, plus the inverse,
    run as slices. Timed on 2 to 12 labels with 3 and 5 sources, the two
    paths break even where the product count is about
    (sources + 1) * width * 2**width.
    """
    size = 1 << width
    reached = len(sources[0])
    products = 0
    for source in sources[1:]:
        products += reached * len(source)
        reached = min(reached * len(source), size)
    return products > (len(sources) + 1) * width * size


def _sparse_conjunctive(sources: Sequence[dict[int, int]], width: int) -> dict[int, int]:
    """The exact n-ary conjunctive by pairwise products, left to right.

    Returns the numerator of every reached set, a key also when only zero
    products reach it.
    """
    acc = sources[0]
    for source in sources[1:]:
        combined: defaultdict[int, int] = defaultdict(int)
        second = tuple(source.items())
        for x, a in acc.items():
            for y, b in second:
                combined[x & y] += a * b
        acc = combined
    return acc


def _dense_conjunctive(sources: Sequence[dict[int, int]], width: int) -> dict[int, int]:
    """The same as _sparse_conjunctive, through commonalities: q = q_1 * ... * q_n.

    A set is reached when some choice of one focal set a source meets
    exactly there. With every weight nonzero, that is when its exact weight
    is; otherwise a 0/1 count of those choices takes the same transforms.
    """
    weights = _commonality_product(sources, width)
    if all(all(source.values()) for source in sources):
        return {b: w for b, w in enumerate(weights) if w}
    counts = _commonality_product([dict.fromkeys(source, 1) for source in sources], width)
    return {b: weights[b] for b, c in enumerate(counts) if c}


def _commonality_product(sources: Sequence[dict[int, int]], width: int) -> list[int]:
    """The Möbius inverse of the product of the sources' commonalities."""
    size = 1 << width
    product: list[int] | None = None
    for source in sources:
        q = [0] * size
        for b, n in source.items():
            q[b] = n
        _superset_sums(q, width, add)
        product = q if product is None else list(map(mul, product, q))
    return _superset_sums(product, width, sub)


def _superset_sums(values: list[int], width: int, op) -> list[int]:
    """Combine each entry with the entries of its supersets by op, one label at a time, in place.

    With add this is the zeta transform, q(A) = sum of m(B) over B ⊇ A;
    with sub it is its inverse, the Möbius transform.
    """
    size = len(values)
    for label in range(width):
        step = 1 << label
        span = step << 1
        # Entries without the label against their partners with it, in
        # whichever takes fewer slices: strided runs or contiguous blocks.
        if step * span <= size:
            for low in range(step):
                values[low::span] = map(op, values[low::span], values[low + step::span])
        else:
            for base in range(0, size, span):
                mid = base + step
                values[base:mid] = map(op, values[base:mid], values[mid:base + span])
    return values


def _fold_report(
    pool: Sequence[MassFunction],
    rule: RuleId,
    numerators: dict[int, int],
    den: int,
    target: MassRange | None = None,
) -> FusionReport:
    """The report of the rule over pool, from the numerators of its exact n-ary conjunctive over den.

    The one redistribute stage. With e the numerator on the empty set,
    the conflict is e/den, and each nonempty numerator n is rounded once:
    conjunctive keeps n/den, and the conflict on the empty set; average
    keeps n/den, its numerators the per-set sums and den len(pool) times
    the sources' denominator, so e = 0, conflict 0 and divisor 1; dempster
    renormalizes onto the classical range, n/(den - e), with the divisor
    (den - e)/den, that is 1 - conflict; total-proportional spreads the
    conflict pro rata and rescales onto target, of total T, as one
    quotient n*T/(g - e), with g the sum of all numerators, the conflict
    e*T/g and the divisor g/(den*T) (with no target T = g/den: the factor
    1 + k/S and divisor 1), refusing a conflict with no focal weight, then
    as over_normalize does; pcr5 keeps n/den and adds to it, for the two
    masses of pool, the float shares of each conflicting product (see
    pcr5) by one fsum, counting the products it skips. Other results take
    the union of pool's ranges.
    """
    frame = pool[0].frame
    e = numerators.get(0, 0)
    scale, base, divisor, skipped = 1, den, 1.0, 0
    if rule is RuleId.TOTAL_PROPORTIONAL and (e or target):
        g = sum(numerators.values())
        if e == g and e:
            raise RuleGuardError("no positive focal weight to absorb conflict %r onto" % _quotient(e, den))
        divisor = _rescale_divisor(g, den, target) if target else 1.0
        scale, unit = target.total.as_integer_ratio() if target else (g, den)
        base = (g - e) * unit
        k = _quotient(e * scale, g * unit)
    else:
        k = _quotient(e, den)
    if rule is RuleId.DEMPSTER:
        if k >= 1.0 - SUM_EPSILON:
            raise RuleGuardError("conflict k=%r leaves nothing to renormalize; dempster is undefined" % k)
        base, divisor, target = den - e, _quotient(den - e, den), CLASSICAL_RANGE
    weights = _quotients(numerators, scale, base)
    if rule is RuleId.CONJUNCTIVE:
        weights[0] = k
    elif rule is RuleId.PCR5:
        m1, m2 = pool
        shares: defaultdict[int, list[float]] = defaultdict(list)
        second = tuple(m2.weights.bits.items())
        for x, w1 in m1.weights.bits.items():
            for y, w2 in second:
                if x & y:
                    continue
                denom = w1 + w2
                if denom == 0.0:
                    skipped += 1
                    continue
                p = w1 * w2
                sx, sy = w1 * p / denom, w2 * p / denom
                if sx == inf or sy == inf:  # w1 * p or w2 * p overflowed: scale p by a ratio of at most 1 instead
                    sx, sy = w1 / denom * p, w2 / denom * p
                shares[x].append(sx)
                shares[y].append(sy)
        for b, parts in shares.items():
            weights[b] = checked_fsum([weights.get(b, 0.0), *parts])
    result = MassFunction(frame, Weights(frame, weights), target or interval_union(*(m.range for m in pool)))
    return FusionReport(result, k, divisor, rule, skipped)
