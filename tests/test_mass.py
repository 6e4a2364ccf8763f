import re
from fractions import Fraction

import pytest

from overmass.cli import render_csv, render_table
from overmass.errors import ParseError, ValidationError
from overmass.frame import FocalSet, make_frame, parse_focal
from overmass.mass import (
    CLASSICAL_RANGE,
    MassFunction,
    MassRange,
    RangeClass,
    SumClass,
    Weights,
    belief,
    belief_interval,
    best_focal,
    best_singleton,
    classify_range,
    classify_sum,
    interval_union,
    make_mass,
    plausibility,
)
from overmass.rules import RuleId, fuse


@pytest.fixture
def ab():
    return make_frame(["A", "B"])


class TestMassRange:
    def test_total(self):
        assert MassRange(-0.2, 1.0).total == pytest.approx(0.8)
        assert CLASSICAL_RANGE.total == 1.0

    def test_lower_bound_must_not_be_positive(self):
        with pytest.raises(ValidationError):
            MassRange(0.1, 1.2)

    def test_upper_bound_must_reach_one(self):
        with pytest.raises(ValidationError):
            MassRange(0.0, 0.9)

    def test_bounds_must_be_finite(self):
        for lo, hi in ((0.0, float("inf")), (float("-inf"), 1.0), (float("nan"), float("nan"))):
            with pytest.raises(ValidationError):
                MassRange(lo, hi)

    @pytest.mark.parametrize("bounds", [("x", 2), (0, "1.5"), (None, 1), (0, True), (False, 1)])
    def test_bounds_must_be_real_numbers(self, bounds):
        with pytest.raises(ValidationError, match="is not a real number"):
            MassRange(*bounds)

    def test_contains(self):
        r = MassRange(-0.1, 1.2)
        assert r.contains(-0.1) and r.contains(1.2) and r.contains(0.5)
        assert not r.contains(-0.11)
        assert not r.contains(1.21)


class TestMakeMass:
    def test_strict_widened_scale(self, ab):
        m = make_mass(ab, {"A": 0.6, "B": 0.3, "A|B": 0.2}, MassRange(0, 1.1), strict=True)
        assert m["A"] == 0.6
        assert m.total == pytest.approx(1.1)

    def test_strict_negative_scale(self, ab):
        m = make_mass(ab, {"A": -0.2, "B": 0.7, "A|B": 0.3}, MassRange(-0.2, 1), strict=True)
        assert m.total == pytest.approx(0.8)
        assert m.has_negative

    def test_strict_classical(self, ab):
        m = make_mass(ab, {"A": 0.5, "B": 0.5}, CLASSICAL_RANGE, strict=True)
        assert classify_sum(m) is SumClass.BALANCED

    def test_weight_above_upper_bound(self, ab):
        with pytest.raises(ValidationError):
            make_mass(ab, {"A": 1.3}, MassRange(0, 1.1))

    def test_weight_below_lower_bound(self, ab):
        with pytest.raises(ValidationError):
            make_mass(ab, {"A": -0.3, "B": 1.0}, MassRange(-0.2, 1))

    def test_strict_sum_violation(self, ab):
        with pytest.raises(ValidationError):
            make_mass(ab, {"A": 0.5, "B": 0.5}, MassRange(0, 1.1), strict=True)

    def test_lenient_accepts_deficit(self, ab):
        m = make_mass(ab, {"A": 0.3}, CLASSICAL_RANGE)
        assert classify_sum(m) is SumClass.DEFICIT

    def test_nonzero_empty_set_rejected(self, ab):
        with pytest.raises(ValidationError):
            make_mass(ab, {ab.empty_set(): 0.1, "A": 0.9}, CLASSICAL_RANGE)

    def test_empty_expression_is_a_parse_error(self, ab):
        with pytest.raises(ParseError):
            make_mass(ab, {"": 0.5}, CLASSICAL_RANGE)

    def test_explicit_zero_empty_set_dropped(self, ab):
        m = make_mass(ab, {ab.empty_set(): 0.0, "A": 1.0}, CLASSICAL_RANGE)
        assert ab.empty_set() not in m.weights

    def test_duplicate_assignment(self, ab):
        with pytest.raises(ValidationError, match=r"^focal set A\|B assigned twice$"):
            make_mass(ab, {"A|B": 0.5, " B|A ": 0.3}, CLASSICAL_RANGE)
        with pytest.raises(ValidationError, match="^focal set A assigned twice$"):
            make_mass(ab, {"A": 0.5, ab.singleton("A"): 0.3}, CLASSICAL_RANGE)

    def test_malformed_key_reported_before_a_bad_weight(self, ab):
        with pytest.raises(ParseError, match="unknown label 'C'"):
            make_mass(ab, {"A": 7.0, "C": 0.5}, CLASSICAL_RANGE)
        with pytest.raises(ValidationError, match="assigned twice"):
            make_mass(ab, {"A": 7.0, "A ": 0.5}, CLASSICAL_RANGE)
        with pytest.raises(ValidationError, match=r"^weight 7\.0 on B outside declared range \[0\.0, 1\.0\]$"):
            make_mass(ab, {"A": 0.5, "B": 7.0, "A|B": -1.0}, CLASSICAL_RANGE)
        with pytest.raises(ValidationError, match=r"^source mass assigns 0\.5 to the empty set$"):
            make_mass(ab, {ab.empty_set(): 0.5, "A": 7.0}, CLASSICAL_RANGE)

    def test_key_neither_expression_nor_focal_set_of_the_frame(self, ab):
        for key in (5, None, ("A",), make_frame(["A", "C"]).singleton("A")):
            message = "mass keys must be focal expressions or FocalSets of this frame, got %r" % (key,)
            with pytest.raises(ValidationError) as err:
                make_mass(ab, {key: 0.5}, CLASSICAL_RANGE)
            assert str(err.value) == message

    def test_unknown_label(self, ab):
        with pytest.raises(ParseError):
            make_mass(ab, {"C": 0.5}, CLASSICAL_RANGE)

    @pytest.mark.parametrize("weight", ["0.5", "abc", True, False, None, [0.5], 0.5j])
    def test_weight_must_be_a_real_number(self, ab, weight):
        with pytest.raises(ValidationError, match=r"^%s is not a real number$" % re.escape(repr(weight))):
            make_mass(ab, {"A": weight}, CLASSICAL_RANGE)
        with pytest.raises(ValidationError, match="is not a real number"):
            Weights(ab, {1: weight})

    def test_integer_and_rational_weights_become_floats(self, ab):
        m = make_mass(ab, {"A": 1, "B": Fraction(1, 4)}, MassRange(0, 1.5))
        assert m.weights.bits == {1: 1.0, 2: 0.25} and all(type(w) is float for w in m.weights.bits.values())

    def test_strict_accepts_published_tables(self, ab):
        tables = [
            ({"A": 0.6, "B": 0.3, "A|B": 0.2}, MassRange(0, 1.1)),
            ({"A": 0.5, "B": 0.5, "A|B": 0.1}, MassRange(0, 1.1)),
            ({"A": 0.7, "B": 0.3, "A|B": 0.1}, MassRange(0, 1.1)),
            ({"A": 0.4, "B": 0.6, "A|B": 0.2}, MassRange(0, 1.2)),
            ({"A": -0.2, "B": 0.7, "A|B": 0.3}, MassRange(-0.2, 1)),
            ({"A": 0.4, "B": -0.1, "A|B": 0.5}, MassRange(-0.2, 1)),
            ({"A": 0.3, "B": 0.6, "A|B": 0.2}, MassRange(0, 1.1)),
        ]
        for assignments, mass_range in tables:
            make_mass(ab, assignments, mass_range, strict=True)


class TestMassFunction:
    def test_getitem_accepts_expressions_and_sets(self, ab):
        m = make_mass(ab, {"A": 0.6, "A|B": 0.4}, CLASSICAL_RANGE)
        assert m["A"] == 0.6
        assert m[ab.full_set()] == 0.4
        assert m["B"] == 0.0

    def test_weights_sorted_by_bitmask(self, ab):
        m = make_mass(ab, {"A|B": 0.2, "B": 0.3, "A": 0.5}, CLASSICAL_RANGE)
        assert [fs.bits for fs in m.weights] == [1, 2, 3]

    def test_conflict_bucket_kept_when_nonzero(self, ab):
        m = MassFunction(ab, {ab.empty_set(): 0.45, ab.singleton("A"): 0.55}, CLASSICAL_RANGE)
        assert m.conflict_weight == 0.45
        assert m.focal_total == pytest.approx(0.55)
        assert m.total == pytest.approx(1.0)

    def test_non_finite_weight_rejected(self, ab):
        for w in (float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                MassFunction(ab, {ab.singleton("A"): w}, CLASSICAL_RANGE)

    def test_overflowing_total_is_a_validation_error(self, ab):
        m = MassFunction(ab, {ab.singleton("A"): 1e308, ab.singleton("B"): 1e308}, CLASSICAL_RANGE)
        with pytest.raises(ValidationError):
            m.total

    @pytest.mark.parametrize(
        "build",
        [
            lambda ab: MassRange(0, 10**400),
            lambda ab: make_mass(ab, {"A": 10**400}, MassRange(0, 1)),
            lambda ab: MassFunction(ab, {ab.singleton("A"): 10**400}, CLASSICAL_RANGE),
        ],
        ids=["range-bound", "make-mass-weight", "mass-function-weight"],
    )
    def test_integer_beyond_float_range_is_a_validation_error(self, ab, build):
        with pytest.raises(ValidationError, match="too large for a float"):
            build(ab)

    def test_foreign_frame_key_rejected(self, ab):
        other = make_frame(["A", "C"])
        with pytest.raises(ValidationError, match="different frame"):
            MassFunction(ab, {other.singleton("A"): 1.0}, CLASSICAL_RANGE)
        for key in ("A", 1):
            with pytest.raises(ValidationError, match="mass keys must be FocalSet"):
                MassFunction(ab, {key: 1.0}, CLASSICAL_RANGE)

    def test_focal_sets_excludes_empty(self, ab):
        m = MassFunction(ab, {ab.empty_set(): 0.2, ab.singleton("B"): 0.8}, CLASSICAL_RANGE)
        assert m.focal_sets() == (ab.singleton("B"),)
        assert next(iter(m.weights)).is_empty


class TestWeights:
    @pytest.fixture
    def m(self, ab):
        return make_mass(ab, {"A|B": 0.2, "B": 0.3, "A": 0.5}, CLASSICAL_RANGE)

    def test_mapping_view(self, ab, m):
        a, b, both = ab.singleton("A"), ab.singleton("B"), ab.full_set()
        assert list(m.weights) == [a, b, both]
        assert m.weights.bits == {1: 0.5, 2: 0.3, 3: 0.2}
        assert list(m.weights.bits) == [1, 2, 3]
        assert dict(m.weights) == {a: 0.5, b: 0.3, both: 0.2}
        assert m.weights == {both: 0.2, a: 0.5, b: 0.3}
        assert m.weights != {a: 0.5, b: 0.3}
        assert a in m.weights and ab.empty_set() not in m.weights
        assert m.weights[b] == 0.3 and len(m.weights) == 3

    def test_foreign_key_missing(self, m):
        foreign = make_frame(["A", "B", "C"]).singleton("A")
        assert foreign.bits == 1 and foreign not in m.weights
        with pytest.raises(KeyError):
            m.weights[foreign]
        with pytest.raises(KeyError):
            m.weights[1]
        assert m[foreign] == 0.0

    def test_read_only(self, ab, m):
        with pytest.raises(TypeError):
            m.weights[ab.singleton("A")] = 1.0
        with pytest.raises(TypeError):
            m.weights.bits[1] = 1.0
        with pytest.raises(AttributeError):
            m.weights.bits = {2: 9.0}
        with pytest.raises(AttributeError):
            m.weights.frame = make_frame(["A", "C"])
        with pytest.raises(AttributeError):
            del m.weights.bits
        assert m.total == 1.0 and m["B"] == 0.3

    def test_repr_names_sets(self, m):
        assert repr(m.weights) == "Weights({'A': 0.5, 'B': 0.3, 'A|B': 0.2})"
        assert " at 0x" not in repr(m)

    def test_built_from_bits(self, ab):
        weights = Weights(ab, {3: 1, 0: 0.0, 1: 0.25})
        assert weights.bits == {1: 0.25, 3: 1.0} and type(weights.bits[3]) is float
        assert MassFunction(ab, weights, CLASSICAL_RANGE).weights is weights
        assert Weights(ab, {0: 0.5}).bits == {0: 0.5}
        for w in (float("inf"), float("nan"), 10**400):
            with pytest.raises(ValidationError):
                Weights(ab, {1: w})

    def test_converts_and_checks_each_weight(self, ab):
        abc = make_frame("ABC")
        weights = Weights(abc, {6: Fraction(1, 4), 0: -0.0, 1: 0.0, 3: 2})
        assert weights.bits == {1: 0.0, 3: 2.0, 6: 0.25} and all(type(w) is float for w in weights.bits.values())
        assert repr(weights) == "Weights({'A': 0.0, 'A|B': 2.0, 'B|C': 0.25})"
        for bad in (True, "0.5"):
            with pytest.raises(ValidationError, match="is not a real number"):
                Weights(ab, {1: bad})
        with pytest.raises(ValidationError, match=r"^weight inf on A\|B is not finite$"):
            Weights(abc, {5: float("nan"), 3: float("inf")})
        # The first bad weight in ascending bit order is the one reported, whatever is wrong with it.
        with pytest.raises(ValidationError, match=r"^weight inf on A is not finite$"):
            Weights(abc, {2: "0.5", 1: float("inf")})
        with pytest.raises(ValidationError, match="is not a real number"):
            Weights(abc, {1: "0.5", 2: float("inf")})

    def test_weights_of_another_frame_rejected(self, ab):
        weights = Weights(make_frame(["A", "C"]), {1: 1.0})
        with pytest.raises(ValidationError, match="different frame"):
            MassFunction(ab, weights, CLASSICAL_RANGE)

    def test_hot_paths_build_no_focal_sets(self, monkeypatch):
        built = []
        post_init = FocalSet.__post_init__

        def counted(fs):
            built.append(fs.bits)
            post_init(fs)

        frame = make_frame("ABCDEF")
        m1, m2 = (
            MassFunction(frame, {FocalSet(frame, b): 0.01 * (b % 7 + 1) for b in bits}, MassRange(0, 1.5))
            for bits in (range(1, 64, 3), range(2, 64, 5))
        )
        query = frame.subset("ABC")
        monkeypatch.setattr(FocalSet, "__post_init__", counted)
        report = fuse(m1, m2, RuleId.PCR5)
        assert report.result.total == pytest.approx(1.5)
        assert belief_interval(report.result, query).classical
        assert len(report.result.weights) > len(m1.weights)
        assert report == fuse(m1, m2, RuleId.PCR5) and report != fuse(m2, m1, RuleId.CONJUNCTIVE)
        assert built == []
        columns = render_table(report).splitlines()[0].split()
        assert columns[-2:] == ["∅", "sum"] and built == []
        assert render_csv(report).splitlines()[0].split(",") == columns and built == []


class TestClassification:
    def test_range_classes(self, ab):
        cases = [
            (MassRange(0, 1), RangeClass.CLASSICAL),
            (MassRange(0, 1.1), RangeClass.OVER),
            (MassRange(-0.2, 1), RangeClass.UNDER),
            (MassRange(-0.1, 1.2), RangeClass.OFF),
        ]
        for mass_range, expected in cases:
            m = MassFunction(ab, {ab.singleton("A"): 0.5}, mass_range)
            assert classify_range(m) is expected

    def test_sum_classes(self, ab):
        def with_total(total):
            return MassFunction(ab, {ab.singleton("A"): total}, MassRange(-2, 2))

        assert classify_sum(with_total(1.1)) is SumClass.SURPLUS
        assert classify_sum(with_total(1.0)) is SumClass.BALANCED
        assert classify_sum(with_total(0.3)) is SumClass.DEFICIT
        assert classify_sum(with_total(0.0)) is SumClass.DEFICIT
        assert classify_sum(with_total(-0.4)) is SumClass.NEGATIVE_TOTAL

    def test_diagnostics_are_independent(self, ab):
        # deficit by sum yet classical by declared range
        m = make_mass(ab, {"A": 0.3}, CLASSICAL_RANGE)
        assert classify_range(m) is RangeClass.CLASSICAL
        assert classify_sum(m) is SumClass.DEFICIT


class TestBeliefPlausibility:
    @pytest.fixture
    def fused(self, ab):
        # a widened-scale result carrying weight 1.1 in total
        return MassFunction(
            ab,
            {ab.singleton("A"): 0.44, ab.singleton("B"): 0.64, ab.full_set(): 0.02},
            MassRange(0, 1.1),
        )

    def test_belief_values(self, ab, fused):
        assert belief(fused, ab.singleton("A")) == pytest.approx(0.44)
        assert belief(fused, ab.full_set()) == pytest.approx(1.1)

    def test_plausibility_values(self, ab, fused):
        assert plausibility(fused, ab.singleton("A")) == pytest.approx(0.46)
        assert plausibility(fused, ab.singleton("B")) == pytest.approx(0.66)
        assert plausibility(fused, ab.full_set()) == pytest.approx(1.1)

    def test_vacuous_mass(self, ab):
        m = make_mass(ab, {"A|B": 1.0}, CLASSICAL_RANGE, strict=True)
        assert belief(m, ab.singleton("A")) == 0.0
        assert plausibility(m, ab.singleton("A")) == 1.0

    def test_derived_oracle_values(self, ab):
        m = make_mass(ab, {"A": 0.18, "B": 0.28, "A|B": 0.12}, CLASSICAL_RANGE)
        assert belief(m, ab.singleton("B")) == pytest.approx(0.28)
        assert plausibility(m, ab.singleton("A")) == pytest.approx(0.30)

    def test_empty_query_rejected(self, ab, fused):
        with pytest.raises(ValidationError):
            belief(fused, ab.empty_set())
        with pytest.raises(ValidationError):
            plausibility(fused, ab.empty_set())
        foreign = make_frame(["A", "C"]).singleton("A")
        for query in (belief, plausibility, belief_interval):
            with pytest.raises(ValidationError, match="different frame"):
                query(fused, foreign)

    def test_conflict_bucket_invisible_to_bel_pl(self, ab):
        bare = MassFunction(ab, {ab.singleton("A"): 0.5}, CLASSICAL_RANGE)
        with_bucket = MassFunction(
            ab, {ab.empty_set(): 0.3, ab.singleton("A"): 0.5}, CLASSICAL_RANGE
        )
        a = ab.singleton("A")
        assert belief(bare, a) == belief(with_bucket, a)
        assert plausibility(bare, a) == plausibility(with_bucket, a)

    def test_interval_flags_negative_weights(self, ab):
        m = make_mass(ab, {"A": -0.2, "B": 0.7, "A|B": 0.3}, MassRange(-0.2, 1))
        bi = belief_interval(m, ab.singleton("A"))
        assert not bi.classical
        clean = make_mass(ab, {"A": 0.5, "B": 0.5}, CLASSICAL_RANGE)
        assert belief_interval(clean, ab.singleton("A")).classical

    def test_bel_not_above_pl_for_nonnegative(self, ab):
        m = make_mass(ab, {"A": 0.2, "B": 0.3, "A|B": 0.4}, CLASSICAL_RANGE)
        for expr in ("A", "B", "A|B"):
            fs = parse_focal(expr, ab)
            assert belief(m, fs) <= plausibility(m, fs) + 1e-12


class TestIntervalUnion:
    def test_published_cases(self):
        assert interval_union(MassRange(-0.4, 1), MassRange(0, 1)) == MassRange(-0.4, 1)
        assert interval_union(MassRange(0, 1.2), MassRange(-0.1, 1)) == MassRange(-0.1, 1.2)
        assert interval_union(MassRange(0, 1.3), MassRange(-0.2, 1)) == MassRange(-0.2, 1.3)

    def test_commutative(self):
        r1, r2 = MassRange(-0.3, 1.1), MassRange(-0.1, 1.4)
        assert interval_union(r1, r2) == interval_union(r2, r1)

    def test_idempotent(self):
        r = MassRange(-0.5, 1.5)
        assert interval_union(r, r) == r

    def test_covering_range_returned_as_is(self):
        wide = MassRange(-0.1, 1.2)
        assert interval_union(MassRange(0, 1.1), wide) is wide
        assert interval_union(wide, MassRange(0, 1.1), MassRange(-0.1, 1)) is wide

    def test_associative(self):
        r1, r2, r3 = MassRange(-0.3, 1.0), MassRange(0, 1.4), MassRange(-0.1, 1.2)
        assert interval_union(interval_union(r1, r2), r3) == interval_union(
            r1, interval_union(r2, r3)
        )

    def test_union_with_classical_contains_original(self):
        r = MassRange(-0.3, 1.2)
        joined = interval_union(r, CLASSICAL_RANGE)
        assert joined.lo <= r.lo and joined.hi >= r.hi

    def test_fold_helper(self):
        ranges = [MassRange(0, 1.2), MassRange(-0.1, 1), MassRange(-0.05, 1.1)]
        assert interval_union(*ranges) == MassRange(-0.1, 1.2)


class TestArgmax:
    def test_best_focal(self, ab):
        m = make_mass(ab, {"A": 0.1, "B": 0.3, "A|B": 0.4}, CLASSICAL_RANGE)
        assert best_focal(m) == ab.full_set()

    def test_best_singleton(self, ab):
        m = make_mass(ab, {"A": 0.1, "B": 0.3, "A|B": 0.4}, CLASSICAL_RANGE)
        assert best_singleton(m) == ab.singleton("B")

    def test_tie_break_lowest_bitmask(self, ab):
        m = make_mass(ab, {"B": 0.5, "A": 0.5}, CLASSICAL_RANGE)
        assert best_focal(m) == ab.singleton("A")
        assert best_singleton(m) == ab.singleton("A")

    def test_no_singletons(self, ab):
        m = make_mass(ab, {"A|B": 1.0}, CLASSICAL_RANGE)
        assert best_singleton(m) is None
        assert best_focal(m) == ab.full_set()
