import dataclasses
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from overmass.errors import ParseError, ValidationError
from overmass.frame import (
    EMPTY_SYMBOL,
    FocalSet,
    Frame,
    enumerate_powerset,
    make_frame,
    parse_focal,
)


@pytest.fixture
def ab():
    return make_frame(["A", "B"])


class TestMakeFrame:
    def test_two_elements(self, ab):
        assert ab.labels == ("A", "B")
        assert len(ab) == 2

    def test_three_elements(self):
        frame = make_frame(["θ1", "θ2", "θ3"])
        assert len(frame) == 3

    def test_ordering_preserved(self):
        assert make_frame(["Z", "A", "M"]).labels == ("Z", "A", "M")

    def test_duplicate_label(self):
        with pytest.raises(ValidationError):
            make_frame(["A", "A"])

    def test_too_few_labels(self):
        with pytest.raises(ValidationError):
            make_frame(["A"])

    def test_separator_in_label(self):
        with pytest.raises(ValidationError):
            make_frame(["A|B", "C"])

    def test_whitespace_label(self):
        with pytest.raises(ValidationError):
            make_frame([" A", "B"])

    def test_empty_label(self):
        with pytest.raises(ValidationError):
            make_frame(["", "B"])

    def test_empty_symbol_label(self):
        with pytest.raises(ValidationError) as err:
            make_frame([EMPTY_SYMBOL, "B"])
        assert str(err.value) == "label '%s' is reserved for the empty set" % EMPTY_SYMBOL

    def test_labels_are_the_only_field(self):
        assert [f.name for f in dataclasses.fields(Frame)] == ["labels"]
        a, b = make_frame(["A", "B", "C"]), make_frame(("A", "B", "C"))
        assert a == b and hash(a) == hash(b)
        assert a != make_frame(["A", "C", "B"])
        assert repr(a) == "Frame(labels=('A', 'B', 'C'))"
        assert eval(repr(a)) == a

    def test_pickle_round_trip(self):
        frame = make_frame(["A", "B", "C"])
        copy = pickle.loads(pickle.dumps(frame))
        assert copy == frame and hash(copy) == hash(frame)
        assert parse_focal("C|A", copy).bits == 0b101

    def test_size_cap(self):
        labels = ["e%d" % i for i in range(17)]
        with pytest.raises(ValidationError):
            make_frame(labels)
        assert len(make_frame(labels[:16])) == 16


class TestParseFocal:
    def test_full_union(self, ab):
        fs = parse_focal("A|B", ab)
        assert fs == ab.full_set()
        assert set(fs) == {"A", "B"}

    def test_singleton(self, ab):
        fs = parse_focal("B", ab)
        assert fs == ab.singleton("B")
        assert "B" in fs
        assert "A" not in fs
        with pytest.raises(ParseError, match=r"^unknown label 'C' \(frame is \['A', 'B'\]\)$"):
            "C" in fs

    def test_unknown_label(self, ab):
        with pytest.raises(ParseError) as err:
            parse_focal("A| C", ab)
        assert str(err.value) == "unknown label 'C' (frame is ['A', 'B'])"

    def test_empty_expression(self, ab):
        for expr in ("", "  ", None, 5):
            with pytest.raises(ParseError) as err:
                parse_focal(expr, ab)
            assert str(err.value) == "empty focal-set expression"

    def test_blank_component(self, ab):
        for expr in ("A|", "A||B", "| B", "A| |B"):
            with pytest.raises(ParseError) as err:
                parse_focal(expr, ab)
            assert str(err.value) == "empty label in focal-set expression %r" % expr

    def test_first_bad_label_is_reported(self, ab):
        with pytest.raises(ParseError, match="unknown label 'C'"):
            parse_focal("C||A", ab)
        with pytest.raises(ParseError, match="empty label"):
            parse_focal("A||C", ab)

    def test_whitespace_tolerated(self, ab):
        assert parse_focal(" A | B ", ab) == ab.full_set()

    def test_render_normalizes_to_frame_order(self, ab):
        assert str(parse_focal("B|A", ab)) == "A|B"

    def test_empty_set_renders_symbol(self, ab):
        assert str(ab.empty_set()) == EMPTY_SYMBOL


#: Labels that need care in text and CSV: non-ASCII, a comma, quotes, inner space.
AWKWARD_LABELS = ("θ1", "fire, north", 'say "B"', "ü", "x y", "日本") + tuple("L%d" % i for i in range(10))


def reference_name(labels, bits):
    return "|".join(label for i, label in enumerate(labels) if bits >> i & 1) or "∅"


def assert_names(frame, masks):
    # Enough masks name them from the two tables, a few by walking their bits.
    want = [reference_name(frame.labels, bits) for bits in masks]
    assert frame._names(masks) == want
    assert frame._names(masks[:5]) == want[:5]


class TestFormatBits:
    def test_every_subset_of_ten_labels(self):
        frame = make_frame(["L%d" % i for i in range(10)])
        for bits in range(1 << 10):
            name = frame._format_bits(bits)
            assert name == reference_name(frame.labels, bits) == str(FocalSet(frame, bits))
            assert bits == 0 or frame._parse_bits(name) == bits
        assert_names(frame, list(range(1 << 10)))

    def test_random_masks_of_sixteen_awkward_labels(self):
        frame = make_frame(AWKWARD_LABELS)
        rng = random.Random(16)
        masks = [0, (1 << 16) - 1] + [rng.randrange(1 << 16) for _ in range(2000)]
        for bits in masks:
            name = frame._format_bits(bits)
            assert name == reference_name(AWKWARD_LABELS, bits)
            assert bits == 0 or frame._parse_bits(name) == bits
        assert_names(frame, masks)


class TestSetAlgebra:
    def test_disjoint_intersection(self, ab):
        a, b = ab.singleton("A"), ab.singleton("B")
        assert (a & b).is_empty

    def test_subset_absorption(self, ab):
        a = ab.singleton("A")
        assert (a & ab.full_set()) == a

    def test_intersection_idempotent(self, ab):
        full = ab.full_set()
        assert (full & full) == full

    def test_union_of_singletons(self, ab):
        assert (ab.singleton("A") | ab.singleton("B")) == ab.full_set()

    def test_union_identity(self, ab):
        a = ab.singleton("A")
        assert (a | ab.empty_set()) == a

    def test_union_absorption(self, ab):
        assert (ab.full_set() | ab.singleton("B")) == ab.full_set()

    def test_frame_mismatch(self, ab):
        other = make_frame(["A", "C"])
        with pytest.raises(ValidationError):
            ab.singleton("A") & other.singleton("A")
        with pytest.raises(ValidationError):
            ab.singleton("A") | other.singleton("A")

    def test_bits_out_of_range(self, ab):
        with pytest.raises(ValidationError):
            FocalSet(ab, 1 << 2)
        with pytest.raises(ValidationError):
            FocalSet(ab, -1)


class TestPowerset:
    def test_two_element_frame(self, ab):
        subsets = enumerate_powerset(ab)
        assert [fs.bits for fs in subsets] == [0, 1, 2, 3]
        assert subsets[0].is_empty
        assert subsets[-1] == ab.full_set()

    def test_three_element_count(self):
        assert len(enumerate_powerset(make_frame(["a", "b", "c"]))) == 8

    def test_twelve_element_count(self):
        frame = make_frame(["e%d" % i for i in range(12)])
        subsets = enumerate_powerset(frame)
        assert len(subsets) == 4096
        assert len(set(subsets)) == 4096

    def test_ascending_bitmask_order(self):
        frame = make_frame(["x", "y", "z"])
        for i, fs in enumerate(enumerate_powerset(frame)):
            assert fs.bits == i


@st.composite
def frame_and_two_sets(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    frame = make_frame(["L%d" % i for i in range(n)])
    a = FocalSet(frame, draw(st.integers(0, 2**n - 1)))
    b = FocalSet(frame, draw(st.integers(0, 2**n - 1)))
    return frame, a, b


@given(frame_and_two_sets())
def test_intersection_contained_in_both(case):
    _, a, b = case
    both = a & b
    assert both.issubset(a)
    assert both.issubset(b)


@given(frame_and_two_sets())
def test_operands_contained_in_union(case):
    _, a, b = case
    joined = a | b
    assert a.issubset(joined)
    assert b.issubset(joined)


@given(frame_and_two_sets())
def test_parse_render_round_trip(case):
    frame, a, _ = case
    if a.is_empty:
        return
    assert parse_focal(str(a), frame) == a


@given(frame_and_two_sets())
def test_cardinality_matches_labels(case):
    _, a, _ = case
    assert a.cardinality == len(list(a))


@st.composite
def spelled_subset(draw):
    """A nonempty label subset, spelled in any order, with repeats and surrounding whitespace."""
    n = draw(st.integers(min_value=2, max_value=16))
    labels = ["L%d" % i for i in range(n)] if draw(st.booleans()) else ["x y", "θ"] + ["e%d" % i for i in range(n - 2)]
    frame = make_frame(labels)
    members = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    pads = st.sampled_from(["", " ", "\t", "  ", "\n"])
    expr = "|".join(draw(pads) + labels[i] + draw(pads) for i in members)
    return frame, expr, sum(1 << i for i in set(members))


@given(spelled_subset())
def test_parse_focal_gives_reference_bits(case):
    frame, expr, bits = case
    assert parse_focal(expr, frame) == FocalSet(frame, bits)
