import pytest
from hypothesis import given
from hypothesis import strategies as st

from overmass.errors import ParseError, ValidationError
from overmass.frame import (
    EMPTY_SYMBOL,
    FocalSet,
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
        assert parse_focal("B", ab) == ab.singleton("B")

    def test_unknown_label(self, ab):
        with pytest.raises(ParseError):
            parse_focal("C", ab)

    def test_empty_expression(self, ab):
        with pytest.raises(ParseError):
            parse_focal("", ab)

    def test_blank_component(self, ab):
        with pytest.raises(ParseError):
            parse_focal("A|", ab)

    def test_whitespace_tolerated(self, ab):
        assert parse_focal(" A | B ", ab) == ab.full_set()

    def test_render_normalizes_to_frame_order(self, ab):
        assert str(parse_focal("B|A", ab)) == "A|B"

    def test_empty_set_renders_symbol(self, ab):
        assert str(ab.empty_set()) == EMPTY_SYMBOL


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
