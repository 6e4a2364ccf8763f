"""Frame of discernment and canonical bitmask representation of its subsets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Sequence

from .errors import ParseError, ValidationError

#: Separator used in textual focal-set expressions such as "A|B".
SEPARATOR = "|"

#: Largest supported frame; keeps every subset mask in one machine word and
#: the full powerset enumerable (2**16 subsets).
MAX_FRAME_SIZE = 16

#: How the empty set is rendered.
EMPTY_SYMBOL = "∅"


@dataclass(frozen=True)
class Frame:
    """Ordered universe of mutually exclusive element labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ValidationError("a frame needs at least 2 elements, got %d" % len(self.labels))
        if len(self.labels) > MAX_FRAME_SIZE:
            raise ValidationError(
                "frame size %d exceeds the supported maximum of %d" % (len(self.labels), MAX_FRAME_SIZE)
            )
        bit_of: dict[str, int] = {}  # label -> bit; not a field, so equality, hash and repr stay by labels
        for i, label in enumerate(self.labels):
            if not isinstance(label, str) or not label:
                raise ValidationError("labels must be nonempty strings, got %r" % (label,))
            if SEPARATOR in label:
                raise ValidationError("label %r contains the reserved separator %r" % (label, SEPARATOR))
            if label == EMPTY_SYMBOL:
                raise ValidationError("label %r is reserved for the empty set" % label)
            if label != label.strip():
                raise ValidationError("label %r has leading or trailing whitespace" % label)
            if label in bit_of:
                raise ValidationError("duplicate label %r" % label)
            bit_of[label] = 1 << i
        object.__setattr__(self, "_bit_of", bit_of)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        """Position of a label, raising ParseError for unknown ones."""
        try:
            return self._bit_of[label].bit_length() - 1
        except (KeyError, TypeError):
            raise ParseError("unknown label %r (frame is %s)" % (label, list(self.labels))) from None

    def _parse_bits(self, expr: str) -> int:
        if not isinstance(expr, str) or not expr.strip():
            raise ParseError("empty focal-set expression")
        bit_of = self._bit_of
        bits = 0
        for token in expr.split(SEPARATOR):
            label = token.strip()
            if not label:
                raise ParseError("empty label in focal-set expression %r" % expr)
            bits |= bit_of[label] if label in bit_of else 1 << self.index(label)  # index raises for an unknown label
        return bits

    def _format_bits(self, bits: int) -> str:
        """The inverse of _parse_bits: the labels of the set bits joined by the separator, or the empty symbol."""
        labels = self.labels
        names = []
        while bits:
            low = bits & -bits
            names.append(labels[low.bit_length() - 1])
            bits ^= low
        return SEPARATOR.join(names) or EMPTY_SYMBOL

    def _names(self, masks: Collection[int]) -> list[str]:
        """_format_bits of each mask; by tables of names for the low 8 labels and the rest, given as many masks."""
        labels = self.labels
        if len(masks) < (1 << min(len(labels), 8)) + (1 << max(len(labels) - 8, 0)):
            return [self._format_bits(b) for b in masks]
        low, high = _name_table(labels[:8]), _name_table(labels[8:])
        return [(low[b & 255] + high[b >> 8]).strip(SEPARATOR) or EMPTY_SYMBOL for b in masks]

    def empty_set(self) -> FocalSet:
        return FocalSet(self, 0)

    def full_set(self) -> FocalSet:
        return FocalSet(self, (1 << len(self.labels)) - 1)

    def singleton(self, label: str) -> FocalSet:
        return FocalSet(self, 1 << self.index(label))

    def subset(self, labels: Sequence[str]) -> FocalSet:
        bits = 0
        for label in labels:
            bits |= 1 << self.index(label)
        return FocalSet(self, bits)


@dataclass(frozen=True)
class FocalSet:
    """Subset of a frame in canonical form: bit i set iff labels[i] is a member.

    The all-zero mask is the empty set, which is a legal value (it is the
    conflict bucket of combined masses).
    """

    frame: Frame
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << len(self.frame)):
            raise ValidationError("bitmask %#x out of range for a frame of %d elements" % (self.bits, len(self.frame)))

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def labels(self) -> tuple[str, ...]:
        """Member labels in frame order."""
        return tuple(label for i, label in enumerate(self.frame.labels) if self.bits >> i & 1)

    def __contains__(self, label: str) -> bool:
        return bool(self.bits >> self.frame.index(label) & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels())

    def __and__(self, other: FocalSet) -> FocalSet:
        """Set intersection; empty when the operands are disjoint."""
        _require_same_frame(self, other)
        return FocalSet(self.frame, self.bits & other.bits)

    def __or__(self, other: FocalSet) -> FocalSet:
        """Set union."""
        _require_same_frame(self, other)
        return FocalSet(self.frame, self.bits | other.bits)

    def issubset(self, other: FocalSet) -> bool:
        _require_same_frame(self, other)
        return self.bits & ~other.bits == 0

    def __str__(self) -> str:
        """Textual form: member labels joined by the separator, or the empty symbol."""
        return self.frame._format_bits(self.bits)


def _name_table(labels: Sequence[str]) -> list[str]:
    """The name of every subset of labels by its mask, each member led by the separator."""
    names = [""]
    for label in labels:
        names += [name + SEPARATOR + label for name in names]
    return names


def _require_same_frame(a: FocalSet, b: FocalSet) -> None:
    if a.frame != b.frame:
        raise ValidationError("focal sets belong to different frames: %s vs %s" % (list(a.frame.labels), list(b.frame.labels)))


def make_frame(labels: Sequence[str]) -> Frame:
    """Build a frame from an ordered sequence of at least two unique labels."""
    return Frame(tuple(labels))


def parse_focal(expr: str, frame: Frame) -> FocalSet:
    """Parse an expression like "A|B" into a FocalSet over the given frame.

    Whitespace around each label is ignored; labels may repeat, in any order.
    """
    return FocalSet(frame, frame._parse_bits(expr))


def enumerate_powerset(frame: Frame) -> list[FocalSet]:
    """All 2**n subsets of the frame, empty set first, in ascending bitmask order."""
    return [FocalSet(frame, bits) for bits in range(1 << len(frame))]
