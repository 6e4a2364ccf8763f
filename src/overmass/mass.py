"""Mass functions over the powerset with extended weight ranges.

A classical mass assigns nonnegative weights summing to 1. The extended
kinds handled here allow weights above 1 (over), below 0 (under), or both
(off), with the weight interval declared per mass. Range and sum
diagnostics are deliberately separate: a mass can be classical by its
declared interval yet deficient by its total, and both facts are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .errors import ValidationError
from .frame import FocalSet, Frame, parse_focal

#: Tolerance for sum checks; coarse enough to absorb double rounding,
#: tight enough to flag genuine violations of the declared total.
SUM_EPSILON = 1e-9


def checked_fsum(values: Iterable[float]) -> float:
    """math.fsum, raising ValidationError when the sum overflows a float."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValidationError("weights sum beyond the float range") from None


@dataclass(frozen=True)
class MassRange:
    """Closed weight interval [lo, hi] with lo <= 0 and hi >= 1."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError("range bounds must be finite, got [%r, %r]" % (self.lo, self.hi))
        if self.lo > 0.0:
            raise ValidationError("range lower bound must be <= 0, got %r" % self.lo)
        if self.hi < 1.0:
            raise ValidationError("range upper bound must be >= 1, got %r" % self.hi)

    @property
    def total(self) -> float:
        """lo + hi: the required total of a strictly valid mass on this range."""
        return self.lo + self.hi

    def contains(self, w: float) -> bool:
        return self.lo <= w <= self.hi

    def union(self, other: MassRange) -> MassRange:
        return interval_union(self, other)


CLASSICAL_RANGE = MassRange(0.0, 1.0)


class RangeClass(Enum):
    """Kind of a mass by its declared interval alone."""

    CLASSICAL = "classical"
    OVER = "over"
    UNDER = "under"
    OFF = "off"


class SumClass(Enum):
    """Kind of a mass by its weight total alone."""

    BALANCED = "balanced"
    SURPLUS = "surplus"
    DEFICIT = "deficit"
    NEGATIVE_TOTAL = "negative-total"


@dataclass(frozen=True)
class BeliefInterval:
    """Belief/plausibility pair for one queried set.

    ``classical`` is False when the underlying mass carries negative
    weights, in which case bel <= pl is no longer guaranteed and the
    values sit outside classical semantics.
    """

    bel: float
    pl: float
    classical: bool = True


@dataclass(frozen=True)
class MassFunction:
    """Immutable assignment of real weights to focal sets of one frame.

    This container performs only structural checks (keys belong to the
    frame, weights are finite); bound and sum validation for source masses
    lives in :func:`make_mass`, so that combination rules can hold
    intermediate results (e.g. raw conjunctive products carrying conflict
    on the empty set) without artificial rejections.

    Entries are stored in ascending bitmask order, and an empty-set entry
    is kept only when its weight is nonzero.
    """

    frame: Frame
    weights: Mapping[FocalSet, float]
    range: MassRange

    def __post_init__(self) -> None:
        for fs in self.weights:
            if not isinstance(fs, FocalSet):
                raise ValidationError("mass keys must be FocalSet, got %r" % (fs,))
            if fs.frame != self.frame:
                raise ValidationError("focal set %s belongs to a different frame" % fs)
        cleaned: dict[FocalSet, float] = {}
        for fs, w in sorted(self.weights.items(), key=lambda item: item[0].bits):
            w = float(w)
            if not math.isfinite(w):
                raise ValidationError("weight %r on %s is not finite" % (w, fs))
            if fs.is_empty and w == 0.0:
                continue
            cleaned[fs] = w
        object.__setattr__(self, "weights", MappingProxyType(cleaned))

    def __getitem__(self, key: Union[FocalSet, str]) -> float:
        if isinstance(key, str):
            key = parse_focal(key, self.frame)
        return self.weights.get(key, 0.0)

    @property
    def total(self) -> float:
        """Sum of every stored weight, conflict bucket included."""
        return checked_fsum(self.weights.values())

    @property
    def focal_total(self) -> float:
        """Sum of weights on nonempty sets."""
        return checked_fsum(w for fs, w in self.weights.items() if not fs.is_empty)

    @property
    def conflict_weight(self) -> float:
        """Weight sitting on the empty set (0 for source masses)."""
        return self[self.frame.empty_set()]

    @property
    def has_negative(self) -> bool:
        return any(w < 0.0 for w in self.weights.values())

    def focal_sets(self, include_empty: bool = False) -> tuple[FocalSet, ...]:
        """Declared focal sets in ascending bitmask order."""
        return tuple(fs for fs in self.weights if include_empty or not fs.is_empty)


def make_mass(
    frame: Frame,
    assignments: Mapping[Union[FocalSet, str], float],
    mass_range: MassRange,
    *,
    strict: bool = False,
) -> MassFunction:
    """Build and validate a source mass function.

    String keys are parsed as focal expressions against the frame. Every
    weight must lie in the declared range and the empty set must carry no
    weight. With ``strict=True`` the weights must additionally sum to
    lo + hi (within SUM_EPSILON), the exact-total reading of the extended
    definitions; the lenient default accepts any in-bound weights, which
    is what sum-based diagnostics such as deficit detection need.
    """
    resolved: dict[FocalSet, float] = {}
    for key, w in assignments.items():
        fs = parse_focal(key, frame) if isinstance(key, str) else key
        if fs in resolved:
            raise ValidationError("focal set %s assigned twice" % fs)
        resolved[fs] = float(w)

    for fs, w in resolved.items():
        if fs.is_empty:
            if w != 0.0:
                raise ValidationError("source mass assigns %r to the empty set" % w)
            continue
        if not mass_range.contains(w):
            raise ValidationError(
                "weight %r on %s outside declared range [%r, %r]" % (w, fs, mass_range.lo, mass_range.hi)
            )

    if strict:
        total = checked_fsum(resolved.values())
        if abs(total - mass_range.total) > SUM_EPSILON:
            raise ValidationError(
                "strict mass must sum to lo+hi = %r, got %r" % (mass_range.total, total)
            )

    return MassFunction(frame, resolved, mass_range)


def classify_range(m: MassFunction) -> RangeClass:
    """Classify a mass by the sign structure of its declared interval."""
    lo_zero = abs(m.range.lo) <= SUM_EPSILON
    hi_one = abs(m.range.hi - 1.0) <= SUM_EPSILON
    if lo_zero and hi_one:
        return RangeClass.CLASSICAL
    if lo_zero:
        return RangeClass.OVER
    if hi_one:
        return RangeClass.UNDER
    return RangeClass.OFF


def classify_sum(m: MassFunction) -> SumClass:
    """Classify a mass by its weight total relative to 1 and 0."""
    total = m.total
    if total > 1.0 + SUM_EPSILON:
        return SumClass.SURPLUS
    if abs(total - 1.0) <= SUM_EPSILON:
        return SumClass.BALANCED
    if total >= 0.0:
        return SumClass.DEFICIT
    return SumClass.NEGATIVE_TOTAL


def _require_query(m: MassFunction, a: FocalSet) -> None:
    if a.frame != m.frame:
        raise ValidationError("query set belongs to a different frame")
    if a.is_empty:
        raise ValidationError("belief and plausibility are undefined for the empty set")


def belief(m: MassFunction, a: FocalSet) -> float:
    """Total weight of nonempty focal sets contained in ``a``."""
    _require_query(m, a)
    return checked_fsum(w for fs, w in m.weights.items() if not fs.is_empty and fs.issubset(a))


def plausibility(m: MassFunction, a: FocalSet) -> float:
    """Total weight of focal sets intersecting ``a``."""
    _require_query(m, a)
    return checked_fsum(w for fs, w in m.weights.items() if fs.intersects(a))


def belief_interval(m: MassFunction, a: FocalSet) -> BeliefInterval:
    """Belief and plausibility of ``a``, flagged when negative weights are present."""
    return BeliefInterval(belief(m, a), plausibility(m, a), classical=not m.has_negative)


def interval_union(r1: MassRange, r2: MassRange) -> MassRange:
    """Smallest interval accommodating both ranges: [min lo, max hi]."""
    return MassRange(min(r1.lo, r2.lo), max(r1.hi, r2.hi))


def union_of_ranges(ranges: Iterable[MassRange]) -> MassRange:
    """Fold interval_union over at least one range."""
    result: MassRange | None = None
    for r in ranges:
        result = r if result is None else interval_union(result, r)
    if result is None:
        raise ValidationError("need at least one range")
    return result


def best_focal(m: MassFunction) -> FocalSet | None:
    """Nonempty focal set with the largest weight; lowest bitmask wins ties."""
    best: FocalSet | None = None
    for fs, w in m.weights.items():
        if fs.is_empty:
            continue
        if best is None or w > m.weights[best]:
            best = fs
    return best


def best_singleton(m: MassFunction) -> FocalSet | None:
    """Declared singleton with the largest weight; lowest bitmask wins ties."""
    best: FocalSet | None = None
    for fs, w in m.weights.items():
        if fs.cardinality != 1:
            continue
        if best is None or w > m.weights[best]:
            best = fs
    return best
