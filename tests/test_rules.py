"""Rule-level tests against independently recomputed (frozen) values."""

import pytest

from fold_reference import fraction_fold
from overmass.errors import RuleGuardError, ValidationError
from overmass.frame import make_frame
from overmass.mass import (
    CLASSICAL_RANGE,
    MassFunction,
    MassRange,
    best_focal,
    make_mass,
)
from overmass.rules import (
    FusionReport,
    RuleId,
    average,
    combine,
    conjunctive,
    dempster,
    fuse,
    over_normalize,
    pairwise_products,
    pcr5,
    total_proportional,
)


@pytest.fixture
def ab():
    return make_frame(["A", "B"])


def widened(frame, assignments, hi=1.1):
    return make_mass(frame, assignments, MassRange(0, hi), strict=True)


@pytest.fixture
def shared_pair(ab):
    # two sources on [0, 1.1]; conjunctive conflict 0.45
    m1 = widened(ab, {"A": 0.6, "B": 0.3, "A|B": 0.2})
    m2 = widened(ab, {"A": 0.5, "B": 0.5, "A|B": 0.1})
    return m1, m2


@pytest.fixture
def mixed_pair(ab):
    # [0, 1.1] x [0, 1.2]; conjunctive conflict 0.54
    m1 = widened(ab, {"A": 0.7, "B": 0.3, "A|B": 0.1}, hi=1.1)
    m2 = widened(ab, {"A": 0.4, "B": 0.6, "A|B": 0.2}, hi=1.2)
    return m1, m2


@pytest.fixture
def swapped_pair(ab):
    # as shared_pair but with the first source's singletons swapped
    m1 = widened(ab, {"A": 0.3, "B": 0.6, "A|B": 0.2})
    m2 = widened(ab, {"A": 0.5, "B": 0.5, "A|B": 0.1})
    return m1, m2


class TestConjunctive:
    def test_swapped_pair_exact(self, ab, swapped_pair):
        report = conjunctive(*swapped_pair)
        assert report.result["A"] == pytest.approx(0.28, abs=1e-9)
        assert report.result["B"] == pytest.approx(0.46, abs=1e-9)
        assert report.result["A|B"] == pytest.approx(0.02, abs=1e-9)
        assert report.result.conflict_weight == pytest.approx(0.45, abs=1e-9)
        assert report.conflict == pytest.approx(0.45, abs=1e-9)
        assert report.divisor == 1.0
        assert report.rule is RuleId.CONJUNCTIVE

    def test_mixed_pair_exact(self, mixed_pair):
        report = conjunctive(*mixed_pair)
        assert report.result["A"] == pytest.approx(0.46, abs=1e-9)
        assert report.result["B"] == pytest.approx(0.30, abs=1e-9)
        assert report.result["A|B"] == pytest.approx(0.02, abs=1e-9)
        assert report.conflict == pytest.approx(0.54, abs=1e-9)

    def test_vacuous_is_neutral(self, ab):
        vac = make_mass(ab, {"A|B": 1.0}, CLASSICAL_RANGE, strict=True)
        m = make_mass(ab, {"A": 0.6, "B": 0.4}, CLASSICAL_RANGE, strict=True)
        report = conjunctive(vac, m)
        assert dict(report.result.weights) == dict(m.weights)
        assert report.conflict == 0.0

    def test_result_range_is_union(self, mixed_pair):
        report = conjunctive(*mixed_pair)
        assert report.result.range == MassRange(0, 1.2)

    def test_product_identity(self, mixed_pair):
        m1, m2 = mixed_pair
        report = conjunctive(m1, m2)
        assert report.result.total == pytest.approx(m1.total * m2.total, abs=1e-9)
        assert sum(r.product for r in pairwise_products(m1, m2)) == pytest.approx(
            m1.total * m2.total, abs=1e-9
        )

    def test_trace_conflict_consistency(self, shared_pair):
        report = conjunctive(*shared_pair)
        from_trace = sum(r.product for r in pairwise_products(*shared_pair) if r.assigned_to.is_empty)
        assert from_trace == pytest.approx(report.conflict, abs=1e-12)

    def test_frame_mismatch(self, ab):
        other = make_frame(["A", "C"])
        m1 = make_mass(ab, {"A": 1.0}, CLASSICAL_RANGE)
        m2 = make_mass(other, {"A": 1.0}, CLASSICAL_RANGE)
        with pytest.raises(ValidationError):
            conjunctive(m1, m2)
        with pytest.raises(ValidationError, match="different frames"):
            pairwise_products(m1, m2)

    def test_negative_weights_rejected(self, ab):
        m1 = make_mass(ab, {"A": -0.2, "B": 0.7, "A|B": 0.3}, MassRange(-0.2, 1))
        m2 = make_mass(ab, {"A": 0.5, "B": 0.5}, CLASSICAL_RANGE)
        with pytest.raises(RuleGuardError):
            conjunctive(m1, m2)

    def test_accepts_conflict_carrying_intermediate(self, ab):
        inter = MassFunction(
            ab, {ab.empty_set(): 0.5, ab.singleton("A"): 0.5}, CLASSICAL_RANGE
        )
        m = make_mass(ab, {"A": 1.0}, CLASSICAL_RANGE)
        report = conjunctive(inter, m)
        assert report.conflict == pytest.approx(0.5)
        assert report.result["A"] == pytest.approx(0.5)


class TestConflictMass:
    def test_values(self, shared_pair, mixed_pair):
        assert conjunctive(*shared_pair).conflict == pytest.approx(0.45, abs=1e-9)
        assert conjunctive(*mixed_pair).conflict == pytest.approx(0.54, abs=1e-9)

    def test_nested_sources_have_none(self, ab):
        m1 = make_mass(ab, {"A": 0.6, "A|B": 0.4}, CLASSICAL_RANGE, strict=True)
        m2 = make_mass(ab, {"A": 0.2, "A|B": 0.8}, CLASSICAL_RANGE, strict=True)
        assert conjunctive(m1, m2).conflict == 0.0


class TestDempster:
    def test_agreement_fixed_point(self, ab):
        m = make_mass(ab, {"A": 1.0}, CLASSICAL_RANGE, strict=True)
        assert dempster(m, m).result["A"] == pytest.approx(1.0)

    def test_derived_pair(self, ab):
        m1 = make_mass(ab, {"A": 0.6, "A|B": 0.4}, CLASSICAL_RANGE, strict=True)
        m2 = make_mass(ab, {"B": 0.7, "A|B": 0.3}, CLASSICAL_RANGE, strict=True)
        out = dempster(m1, m2).result
        assert out["A"] == pytest.approx(0.3103, abs=1e-4)
        assert out["B"] == pytest.approx(0.4828, abs=1e-4)
        assert out["A|B"] == pytest.approx(0.2069, abs=1e-4)
        assert out.total == pytest.approx(1.0, abs=1e-9)
        assert out.conflict_weight == 0.0

    def test_lone_survivor(self):
        frame = make_frame(["A", "B", "C"])
        m1 = make_mass(frame, {"A": 0.9, "C": 0.1}, CLASSICAL_RANGE, strict=True)
        m2 = make_mass(frame, {"B": 0.9, "C": 0.1}, CLASSICAL_RANGE, strict=True)
        assert dempster(m1, m2).result["C"] == pytest.approx(1.0, abs=1e-9)

    def test_total_conflict_undefined(self, ab):
        m1 = make_mass(ab, {"A": 1.0}, CLASSICAL_RANGE, strict=True)
        m2 = make_mass(ab, {"B": 1.0}, CLASSICAL_RANGE, strict=True)
        with pytest.raises(RuleGuardError):
            dempster(m1, m2)

    def test_widened_range_rejected(self, ab, shared_pair):
        with pytest.raises(RuleGuardError) as err:
            dempster(*shared_pair)
        assert "pcr5" in str(err.value)

    def test_unbalanced_sum_rejected(self, ab):
        m = make_mass(ab, {"A": 0.5, "B": 0.3}, CLASSICAL_RANGE)
        ok = make_mass(ab, {"A": 0.5, "B": 0.5}, CLASSICAL_RANGE)
        with pytest.raises(RuleGuardError):
            dempster(m, ok)


class TestPcr5:
    def test_mixed_pair_raw(self, mixed_pair):
        report = pcr5(*mixed_pair)
        assert report.result["A"] == pytest.approx(0.7547252747252747, abs=1e-12)
        assert report.result["B"] == pytest.approx(0.5452747252747252, abs=1e-12)
        assert report.result["A|B"] == pytest.approx(0.02, abs=1e-12)
        assert report.result.conflict_weight == 0.0
        assert report.conflict == pytest.approx(0.54, abs=1e-9)

    def test_swapped_pair_raw(self, swapped_pair):
        report = pcr5(*swapped_pair)
        assert report.result["A"] == pytest.approx(0.4726136363636364, abs=1e-12)
        assert report.result["B"] == pytest.approx(0.7173863636363635, abs=1e-12)
        assert report.result["A|B"] == pytest.approx(0.02, abs=1e-12)

    def test_no_disjoint_pairs_reduces_to_conjunctive(self, ab):
        # With nothing to split, pcr5 is the exact conjunctive rounded once.
        m1 = make_mass(ab, {"A": 0.6, "A|B": 0.4}, CLASSICAL_RANGE, strict=True)
        m2 = make_mass(ab, {"A": 0.2, "A|B": 0.8}, CLASSICAL_RANGE, strict=True)
        assert pcr5(m1, m2).result.weights.bits == conjunctive(m1, m2).result.weights.bits

    def test_conservation(self, mixed_pair):
        base = conjunctive(*mixed_pair)
        redistributed = pcr5(*mixed_pair)
        assert redistributed.result.total == pytest.approx(
            base.result.total, abs=1e-9
        )

    def test_zero_denominator_skipped(self, ab):
        m1 = make_mass(ab, {"A": 0.0, "B": 1.0}, CLASSICAL_RANGE)
        m2 = make_mass(ab, {"A": 1.0, "B": 0.0}, CLASSICAL_RANGE)
        report = pcr5(m1, m2)
        assert report.skipped_fractions == 1
        assert report.result["A"] == pytest.approx(0.5)
        assert report.result["B"] == pytest.approx(0.5)
        assert report.result.total == pytest.approx(1.0, abs=1e-12)

    def test_negative_weights_rejected(self, ab):
        neg = make_mass(ab, {"A": -0.1, "B": 1.0}, MassRange(-0.1, 1))
        ok = make_mass(ab, {"A": 0.5, "B": 0.5}, CLASSICAL_RANGE)
        with pytest.raises(RuleGuardError):
            pcr5(neg, ok)

    def test_conflict_carrying_input_rejected(self, ab):
        inter = MassFunction(
            ab, {ab.empty_set(): 0.5, ab.singleton("A"): 0.5}, CLASSICAL_RANGE
        )
        ok = make_mass(ab, {"A": 1.0}, CLASSICAL_RANGE)
        with pytest.raises(RuleGuardError):
            pcr5(inter, ok)


class TestOverNormalize:
    def test_shared_pair_conjunctive(self, swapped_pair):
        # the A/B-swapped variant of this table normalizes the same way
        report = over_normalize(conjunctive(*swapped_pair), MassRange(0, 1.1))
        assert report.result["A"] == pytest.approx(0.2545454545454546, abs=1e-12)
        assert report.result["B"] == pytest.approx(0.4181818181818181, abs=1e-12)
        assert report.result["A|B"] == pytest.approx(0.018181818181818184, abs=1e-12)
        assert report.result.conflict_weight == pytest.approx(0.409090909090909, abs=1e-12)
        assert report.result.total == pytest.approx(1.1, abs=1e-9)
        assert report.divisor == pytest.approx(1.1, abs=1e-9)
        assert report.conflict == pytest.approx(0.45 / 1.1, abs=1e-12)

    def test_classical_identity(self, ab):
        m1 = make_mass(ab, {"A": 0.6, "A|B": 0.4}, CLASSICAL_RANGE, strict=True)
        m2 = make_mass(ab, {"A": 0.2, "A|B": 0.8}, CLASSICAL_RANGE, strict=True)
        base = conjunctive(m1, m2)
        scaled = over_normalize(base, CLASSICAL_RANGE)
        assert scaled.divisor == pytest.approx(1.0, abs=1e-12)
        for fs, w in base.result.weights.items():
            assert scaled.result[fs] == pytest.approx(w, abs=1e-12)

    def test_mixed_pipeline(self, mixed_pair):
        report = over_normalize(pcr5(*mixed_pair), MassRange(0, 1.2))
        assert report.result["A"] == pytest.approx(0.686, abs=0.001)
        assert report.result["B"] == pytest.approx(0.496, abs=0.001)
        assert report.result["A|B"] == pytest.approx(0.018, abs=0.001)
        assert report.result.total == pytest.approx(1.2, abs=1e-9)
        assert report.divisor == pytest.approx(1.1, abs=1e-9)

    @pytest.mark.parametrize("rule, weights", [
        pytest.param(RuleId.TOTAL_PROPORTIONAL, {0b01: 1.5}, id="total-proportional"),
        # pcr5 keeps B for its zero share of B's conflict with A.
        pytest.param(RuleId.PCR5, {0b01: 1.5, 0b10: 0.0}, id="pcr5"),
    ])
    def test_result_adopts_target_range(self, ab, mixed_pair, rule, weights):
        report = over_normalize(pcr5(*mixed_pair), MassRange(0, 1.2))
        assert report.result.range == MassRange(0, 1.2)
        # A grand total of 1e-323 rescales onto [0, 1.5] and stays inside it;
        # pcr5's divisor, 1e-323 / 1.5, is subnormal.
        tiny = [make_mass(ab, {"A": 5e-324, "B": 5e-324}, MassRange(0, 1.5)),
                make_mass(ab, {"A": 1.0}, MassRange(0, 1.5))]
        report = combine(tiny, rule)
        assert (dict(report.result.weights.bits), report.result.range) == (weights, tiny[0].range)
        assert (report.result.total, report.conflict) == (1.5, 0.75)

    def test_nonpositive_target_sum_rejected(self, mixed_pair):
        report = conjunctive(*mixed_pair)
        with pytest.raises(RuleGuardError):
            over_normalize(report, MassRange(-1.2, 1.2))

    def test_nonpositive_grand_total_rejected(self, ab):
        empty_total = MassFunction(ab, {ab.singleton("A"): 0.0}, CLASSICAL_RANGE)
        report = FusionReport(empty_total, 0.0, 1.0, RuleId.CONJUNCTIVE)
        with pytest.raises(RuleGuardError):
            over_normalize(report, CLASSICAL_RANGE)


class TestTotalProportional:
    def test_normalize_first_sequence(self, ab):
        m1 = widened(ab, {"A": 0.6, "B": 0.3, "A|B": 0.2})
        m2 = widened(ab, {"A": 0.5, "B": 0.5, "A|B": 0.1})
        scaled = over_normalize(conjunctive(m1, m2), MassRange(0, 1.1))
        report = total_proportional(scaled)
        assert report.result["A"] == pytest.approx(0.6657894736842104, abs=1e-12)
        assert report.result["B"] == pytest.approx(0.4052631578947369, abs=1e-12)
        assert report.result["A|B"] == pytest.approx(0.028947368421052635, abs=1e-12)
        assert report.result.total == pytest.approx(1.1, abs=1e-9)
        assert report.result.conflict_weight == 0.0
        assert report.conflict == pytest.approx(0.45 / 1.1, abs=1e-12)
        assert report.rule is RuleId.TOTAL_PROPORTIONAL

    def test_no_conflict_is_identity(self, ab):
        m1 = make_mass(ab, {"A": 0.6, "A|B": 0.4}, CLASSICAL_RANGE, strict=True)
        base = conjunctive(m1, m1)
        report = total_proportional(base)
        assert dict(report.result.weights) == dict(base.result.weights)
        assert report.rule is RuleId.TOTAL_PROPORTIONAL

    def test_symmetric_split(self, ab):
        result = MassFunction(
            ab,
            {ab.empty_set(): 0.5, ab.singleton("A"): 0.5, ab.singleton("B"): 0.5},
            MassRange(0, 1.5),
        )
        report = total_proportional(
            FusionReport(result, 0.5, 1.0, RuleId.CONJUNCTIVE)
        )
        assert report.result["A"] == pytest.approx(0.75, abs=1e-12)
        assert report.result["B"] == pytest.approx(0.75, abs=1e-12)

    def test_grand_total_and_ratios_preserved(self, mixed_pair):
        base = conjunctive(*mixed_pair)
        report = total_proportional(base)
        assert report.result.total == pytest.approx(base.result.total, abs=1e-9)
        assert report.result["A"] / report.result["B"] == pytest.approx(
            base.result["A"] / base.result["B"], rel=1e-12
        )

    def test_nothing_to_redistribute_onto(self, ab):
        only_conflict = MassFunction(
            ab, {ab.empty_set(): 0.5}, CLASSICAL_RANGE
        )
        report = FusionReport(only_conflict, 0.5, 1.0, RuleId.CONJUNCTIVE)
        with pytest.raises(RuleGuardError):
            total_proportional(report)

    def test_subnormal_focal_total_takes_the_whole_conflict(self):
        # The factor 1 + k/S is past the float range here, but no code forms it: B gets 2.2e-311 + 1.0.
        abc = make_frame(["A", "B", "C"])
        m1 = make_mass(abc, {"B": 2.225073858507e-311, "A|C": 1.0}, MassRange(0, 1.5))
        m2 = make_mass(abc, {"B": 1.0}, MassRange(0, 1.5))
        report = total_proportional(conjunctive(m1, m2))
        assert report == fraction_fold((m1, m2), RuleId.TOTAL_PROPORTIONAL)
        assert dict(report.result.weights.bits) == {0b010: 1.0}

    def test_negative_weights_refused(self, ab):
        result = MassFunction(
            ab,
            {ab.empty_set(): 0.3, ab.singleton("A"): -0.2, ab.singleton("B"): 0.7},
            MassRange(-0.2, 1.0),
        )
        with pytest.raises(RuleGuardError, match="^negative weights present; only the average rule"):
            total_proportional(FusionReport(result, 0.3, 1.0, RuleId.CONJUNCTIVE))


class TestAverage:
    def test_published_pair(self, ab):
        under = MassRange(-0.2, 1)
        m1 = make_mass(ab, {"A": -0.2, "B": 0.7, "A|B": 0.3}, under, strict=True)
        m2 = make_mass(ab, {"A": 0.4, "B": -0.1, "A|B": 0.5}, under, strict=True)
        report = average((m1, m2))
        assert report.result["A"] == pytest.approx(0.1, abs=1e-12)
        assert report.result["B"] == pytest.approx(0.3, abs=1e-12)
        assert report.result["A|B"] == pytest.approx(0.4, abs=1e-12)
        assert report.conflict == 0.0
        assert report.result.range == MassRange(-0.2, 1)

    def test_idempotent(self, ab):
        m = make_mass(ab, {"A": 0.4, "B": 0.6}, CLASSICAL_RANGE, strict=True)
        assert average((m, m)).result == m
        empty = make_mass(ab, {}, CLASSICAL_RANGE)
        assert average((empty, empty)).result == empty

    def test_cancellation(self):
        frame = make_frame(["fire", "clear"])
        pro = make_mass(frame, {"fire": 0.8}, CLASSICAL_RANGE)
        contra = make_mass(frame, {"fire": -0.8}, MassRange(-0.8, 1))
        report = average((pro, contra))
        assert report.result["fire"] == pytest.approx(0.0, abs=1e-12)
        assert report.result.range == MassRange(-0.8, 1)

    def test_three_sources(self, ab):
        masses = [
            make_mass(ab, {"A": w}, CLASSICAL_RANGE) for w in (0.9, 1.0, 0.8)
        ]
        report = average(masses)
        assert report.result["A"] == pytest.approx(0.9, abs=1e-12)

    def test_commutative(self, ab):
        m1 = make_mass(ab, {"A": 0.2, "B": 0.5}, CLASSICAL_RANGE)
        m2 = make_mass(ab, {"A": 0.6, "A|B": 0.1}, CLASSICAL_RANGE)
        m3 = make_mass(ab, {"B": 0.9}, CLASSICAL_RANGE)
        assert average((m1, m2, m3)).result == average((m3, m1, m2)).result

    def test_too_few(self, ab):
        m = make_mass(ab, {"A": 1.0}, CLASSICAL_RANGE)
        with pytest.raises(ValidationError):
            average((m,))
        with pytest.raises(ValidationError):
            average(())

    def test_frame_mismatch(self, ab):
        other = make_frame(["A", "C"])
        with pytest.raises(ValidationError):
            average((make_mass(ab, {"A": 1.0}, CLASSICAL_RANGE),
                     make_mass(other, {"A": 1.0}, CLASSICAL_RANGE)))


class TestFuseDispatcher:
    def test_swapped_pipeline(self, swapped_pair):
        report = fuse(*swapped_pair, rule=RuleId.PCR5)
        assert report.result["A"] == pytest.approx(0.4296487603305786, abs=1e-12)
        assert report.result["B"] == pytest.approx(0.6521694214876033, abs=1e-12)
        assert report.result["A|B"] == pytest.approx(0.018181818181818188, abs=1e-12)
        assert report.result.total == pytest.approx(1.1, abs=1e-9)

    def test_default_target_is_range_union(self, mixed_pair):
        report = fuse(*mixed_pair, rule=RuleId.PCR5)
        assert report.result.range == MassRange(0, 1.2)
        assert report.result.total == pytest.approx(1.2, abs=1e-9)

    def test_negative_weights_force_average(self, ab):
        neg = make_mass(ab, {"A": -0.2, "B": 0.7, "A|B": 0.3}, MassRange(-0.2, 1))
        ok = make_mass(ab, {"A": 0.5, "B": 0.5}, CLASSICAL_RANGE)
        for rule in (RuleId.CONJUNCTIVE, RuleId.DEMPSTER, RuleId.PCR5,
                     RuleId.TOTAL_PROPORTIONAL):
            with pytest.raises(RuleGuardError) as err:
                fuse(neg, ok, rule=rule)
            assert "average" in str(err.value)
            if rule is not RuleId.DEMPSTER:
                # The pair check every product rule shares names only the way out.
                assert [r.value for r in RuleId if r.value in str(err.value)] == ["average"]
        assert fuse(neg, ok, rule=RuleId.AVERAGE).rule is RuleId.AVERAGE

    def test_dempster_route(self, ab):
        m1 = make_mass(ab, {"A": 0.6, "A|B": 0.4}, CLASSICAL_RANGE, strict=True)
        m2 = make_mass(ab, {"B": 0.7, "A|B": 0.3}, CLASSICAL_RANGE, strict=True)
        report = fuse(m1, m2, rule=RuleId.DEMPSTER)
        assert report.rule is RuleId.DEMPSTER
        assert report.result.total == pytest.approx(1.0, abs=1e-9)
        assert report.divisor == pytest.approx(1.0 - report.conflict, abs=1e-12)

    def test_conjunctive_ignores_normalize_flag(self, mixed_pair):
        raw = fuse(*mixed_pair, rule=RuleId.CONJUNCTIVE, normalize=True)
        assert raw.result.total == pytest.approx(1.32, abs=1e-9)
        assert raw.divisor == 1.0

    def test_normalize_off_keeps_raw_totals(self, mixed_pair):
        report = fuse(*mixed_pair, rule=RuleId.PCR5, normalize=False)
        assert report.result.total == pytest.approx(1.32, abs=1e-9)

    def test_deterministic_reports(self, mixed_pair):
        assert fuse(*mixed_pair) == fuse(*mixed_pair)
