"""Mass functions over the powerset with extended weight ranges.

A classical mass assigns nonnegative weights summing to 1. The extended
kinds handled here allow weights above 1 (over), below 0 (under), or both
(off), with the weight interval declared per mass. Range and sum
diagnostics are deliberately separate: a mass can be classical by its
declared interval yet deficient by its total, and both facts are reported.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Union

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


def _as_float(value: float) -> float:
    """float(value) for a real number; ValidationError for a bool, a string, any other type, or beyond the float range."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError("%r is not a real number" % (value,))
    try:
        return float(value)
    except OverflowError:
        raise ValidationError("number too large for a float") from None


@dataclass(frozen=True)
class MassRange:
    """Closed weight interval [lo, hi] with lo <= 0 and hi >= 1."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _as_float(self.lo))
        object.__setattr__(self, "hi", _as_float(self.hi))
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


class Weights(Mapping[FocalSet, float]):
    """A mass's weights as a read-only Mapping from FocalSet, stored by bitmask.

    ``bits`` maps bitmask to weight in ascending order, keeping an
    empty-set entry only when its weight is nonzero; the library works on
    it and builds a FocalSet only for a key it hands out. Construction is
    the one place weights become floats and are checked to be finite.
    """

    __slots__ = ("frame", "bits")

    def __init__(self, frame: Frame, bits: Mapping[int, float]) -> None:
        cleaned: dict[int, float] = {}
        for b in sorted(bits):
            w = bits[b]
            if type(w) is not float or not math.isfinite(w):  # a finite float passes as it is
                w = _as_float(w)
                if not math.isfinite(w):
                    raise ValidationError("weight %r on %s is not finite" % (w, FocalSet(frame, b)))
            if b or w != 0.0:
                cleaned[b] = w
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "bits", MappingProxyType(cleaned))

    @classmethod
    def _ascending(cls, frame: Frame, bits: dict[int, float]) -> Weights:
        """Floats keyed in ascending order, kept as they are; by Weights() if one is not finite or ∅ holds 0."""
        if not all(map(math.isfinite, bits.values())) or bits.get(0) == 0.0:
            return cls(frame, bits)
        self = cls.__new__(cls)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "bits", MappingProxyType(bits))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Weights is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Weights is read-only")

    def __getitem__(self, key: FocalSet) -> float:
        if isinstance(key, FocalSet) and key.frame == self.frame and key.bits in self.bits:
            return self.bits[key.bits]
        raise KeyError(key)

    def __iter__(self) -> Iterator[FocalSet]:
        return (FocalSet(self.frame, b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Weights):
            return self.frame == other.frame and self.bits == other.bits
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return "Weights(%r)" % dict(zip(self.frame._names(self.bits), self.bits.values()))


@dataclass(frozen=True)
class MassFunction:
    """Immutable assignment of real weights to focal sets of one frame.

    This container performs only structural checks (keys belong to the
    frame, weights are finite); bound and sum validation for source masses
    lives in :func:`make_mass`, so that combination rules can hold
    intermediate results (e.g. raw conjunctive products carrying conflict
    on the empty set) without artificial rejections.

    ``weights`` may be given as a FocalSet-keyed mapping, whose keys are
    checked here, or as a :class:`Weights` of the same frame, which is
    kept as it is.
    """

    frame: Frame
    weights: Weights
    range: MassRange

    def __post_init__(self) -> None:
        weights = self.weights
        if isinstance(weights, Weights):
            if weights.frame != self.frame:
                raise ValidationError("weights belong to a different frame")
            return
        for fs in weights:
            if not isinstance(fs, FocalSet):
                raise ValidationError("mass keys must be FocalSet, got %r" % (fs,))
            if fs.frame != self.frame:
                raise ValidationError("focal set %s belongs to a different frame" % fs)
        object.__setattr__(self, "weights", Weights(self.frame, {fs.bits: w for fs, w in weights.items()}))

    def __getitem__(self, key: Union[FocalSet, str]) -> float:
        if isinstance(key, str):
            key = parse_focal(key, self.frame)
        return self.weights.get(key, 0.0)

    @property
    def total(self) -> float:
        """Sum of every stored weight, conflict bucket included."""
        return checked_fsum(self.weights.bits.values())

    @property
    def focal_total(self) -> float:
        """Sum of weights on nonempty sets."""
        return checked_fsum(w for b, w in self.weights.bits.items() if b)

    @property
    def conflict_weight(self) -> float:
        """Weight sitting on the empty set (0 for source masses)."""
        return self.weights.bits.get(0, 0.0)

    @property
    def has_negative(self) -> bool:
        return min(self.weights.bits.values(), default=0.0) < 0.0

    def focal_sets(self) -> tuple[FocalSet, ...]:
        """Declared nonempty focal sets in ascending bitmask order."""
        return tuple(FocalSet(self.frame, b) for b in self.weights.bits if b)


def make_mass(
    frame: Frame,
    assignments: Mapping[Union[FocalSet, str], float],
    mass_range: MassRange,
    *,
    strict: bool = False,
) -> MassFunction:
    """Build and validate a source mass function.

    String keys are parsed straight to bitmasks against the frame; any
    other key must be a FocalSet of the frame, and no set may come twice.
    Once every key has parsed, each weight must lie in the declared range
    and the empty set must carry none. With ``strict=True`` the weights
    must additionally sum to lo + hi (within SUM_EPSILON), the exact-total
    reading of the extended definitions; the lenient default accepts any
    in-bound weights, which is what sum-based diagnostics need.
    """
    lo, hi = mass_range.lo, mass_range.hi
    resolved: dict[int, float] = {}
    out_of_bounds = None  # first set failing a bound check; a bad key anywhere is reported first
    for key, w in assignments.items():
        if isinstance(key, str):
            b = frame._parse_bits(key)
        elif isinstance(key, FocalSet) and key.frame == frame:
            b = key.bits
        else:
            raise ValidationError("mass keys must be focal expressions or FocalSets of this frame, got %r" % (key,))
        if b in resolved:
            raise ValidationError("focal set %s assigned twice" % FocalSet(frame, b))
        w = resolved[b] = _as_float(w)
        if out_of_bounds is None and not (lo <= w <= hi if b else w == 0.0):
            out_of_bounds = b
    if out_of_bounds is not None:
        w = resolved[out_of_bounds]
        raise ValidationError(
            "weight %r on %s outside declared range [%r, %r]" % (w, FocalSet(frame, out_of_bounds), lo, hi)
            if out_of_bounds else "source mass assigns %r to the empty set" % w
        )

    if strict:
        total = checked_fsum(resolved.values())
        if abs(total - mass_range.total) > SUM_EPSILON:
            raise ValidationError(
                "strict mass must sum to lo+hi = %r, got %r" % (mass_range.total, total)
            )

    return MassFunction(frame, Weights(frame, resolved), mass_range)


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
    q, bits = a.bits, m.weights.bits
    if 1 << q.bit_count() >= len(bits):
        return checked_fsum(w for b, w in bits.items() if b and not b & ~q)
    # Fewer subsets of a than focal sets: look each up, in ascending order as the scan meets them.
    found, s = [], -q & q
    while s:
        if s in bits:
            found.append(bits[s])
        s = (s - q) & q
    return checked_fsum(found)


def plausibility(m: MassFunction, a: FocalSet) -> float:
    """Total weight of focal sets intersecting ``a``."""
    _require_query(m, a)
    q = a.bits
    return checked_fsum(w for b, w in m.weights.bits.items() if b & q)


def belief_interval(m: MassFunction, a: FocalSet) -> BeliefInterval:
    """Belief and plausibility of ``a``, flagged when negative weights are present."""
    return BeliefInterval(belief(m, a), plausibility(m, a), classical=not m.has_negative)


def interval_union(first: MassRange, *rest: MassRange) -> MassRange:
    """Smallest interval holding every given range: [min lo, max hi], or the given range that holds the rest."""
    ranges = (first, *rest)
    lo, hi = min([r.lo for r in ranges]), max([r.hi for r in ranges])
    for r in ranges:
        if r.lo == lo and r.hi == hi:
            return r
    return MassRange(lo, hi)


def best_focal(m: MassFunction) -> FocalSet | None:
    """Nonempty focal set with the largest weight; lowest bitmask wins ties."""
    return max(m.focal_sets(), key=m.__getitem__, default=None)


def best_singleton(m: MassFunction) -> FocalSet | None:
    """Declared singleton with the largest weight; lowest bitmask wins ties."""
    return max((fs for fs in m.focal_sets() if fs.cardinality == 1), key=m.__getitem__, default=None)
