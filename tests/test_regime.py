import pytest

from overmass.frame import FocalSet, make_frame
from overmass.mass import CLASSICAL_RANGE, MassFunction, MassRange, Weights, make_mass
from overmass.regime import (
    CONFLICT_WARNING_THRESHOLD,
    AdvisoryKind,
    assess,
    assess_fusion,
)
from overmass.rules import (
    RuleId,
    average,
    conjunctive,
    dempster,
    fuse,
    pcr5,
)


@pytest.fixture
def watch():
    return make_frame(["fire", "clear"])


@pytest.fixture
def ab():
    return make_frame(["A", "B"])


class TestAssess:
    def test_surplus_aggregate(self, watch):
        # three independent detections of the same event, stacked
        m = make_mass(watch, {"fire": 2.7}, MassRange(0, 2.7))
        advisory = assess(m)
        assert advisory.kind is AdvisoryKind.CRITICAL_PRIORITY
        assert "2.7" in advisory.rationale

    def test_surplus_after_averaging_stays_critical(self, watch):
        masses = [
            make_mass(watch, {"fire": w}, MassRange(0, 1.3)) for w in (0.9, 1.0, 1.3)
        ]
        fused = average(masses)
        # mean is ~1.07, still above 1
        assert assess(fused.result).kind is AdvisoryKind.CRITICAL_PRIORITY

    def test_deficit(self, watch):
        m = make_mass(watch, {"fire": 0.3}, CLASSICAL_RANGE)
        advisory = assess(m)
        assert advisory.kind is AdvisoryKind.RECONNAISSANCE
        assert "0.3" in advisory.rationale
        assert "0.7" in advisory.rationale

    def test_counter_evidence_weights(self, watch):
        m = make_mass(watch, {"fire": -0.8}, MassRange(-0.8, 1))
        advisory = assess(m)
        assert advisory.kind is AdvisoryKind.COUNTER_EVIDENCE_DISCOUNT
        assert "fire=-0.8" in advisory.rationale
        assert "sum=" in advisory.rationale

    def test_cancelled_counter_evidence_still_flagged(self, watch):
        pro = make_mass(watch, {"fire": 0.8}, CLASSICAL_RANGE)
        contra = make_mass(watch, {"fire": -0.8}, MassRange(-0.8, 1))
        fused = average((pro, contra))
        # no negative weight survives, but the declared range reveals one fed in
        assert fused.result["fire"] == pytest.approx(0.0)
        advisory = assess(fused.result)
        assert advisory.kind is AdvisoryKind.COUNTER_EVIDENCE_DISCOUNT

    def test_negative_beats_surplus(self, ab):
        m = make_mass(ab, {"A": -0.1, "B": 1.3}, MassRange(-0.1, 1.3))
        assert m.total > 1
        assert assess(m).kind is AdvisoryKind.COUNTER_EVIDENCE_DISCOUNT

    def test_nominal(self, ab):
        m = make_mass(ab, {"A": 0.5, "B": 0.5}, CLASSICAL_RANGE, strict=True)
        advisory = assess(m)
        assert advisory.kind is AdvisoryKind.NOMINAL

    def test_every_negative_weight_listed(self, ab):
        m = make_mass(ab, {"A": -0.2, "B": -0.05, "A|B": 0.9}, MassRange(-0.2, 1))
        assert assess(m).rationale == (
            "sum=0.65; counter-evidence: A=-0.2, B=-0.05; discount or cancel the contradicted reports"
        )
        # Sets named past the 8th label of a 10-label frame, in ascending bitmask order.
        frame = make_frame(list("ABCDEFGHIJ"))
        weights = {"I": -0.125, "A|J": -1e-12, "C|D|I|J": -0.3, "B": 2.5, "A|B|C|D|E|F|G|H|I|J": 0.25}
        m = make_mass(frame, weights, MassRange(-0.5, 3))
        assert assess(m).rationale == (
            "sum=2.325; counter-evidence: I=-0.125, A|J=-1e-12, C|D|I|J=-0.3; "
            "discount or cancel the contradicted reports"
        )
        # 341 negative sets, more than the 260 entries of the frame's two name tables.
        bits = {b: -1.0 / b for b in range(1, 1024, 3)}
        m = MassFunction(frame, Weights(frame, bits), MassRange(-8, 1))
        listed = ", ".join("%s=%.9g" % (FocalSet(frame, b), w) for b, w in bits.items())
        assert assess(m).rationale == (
            "sum=%.9g; counter-evidence: %s; discount or cancel the contradicted reports" % (m.total, listed)
        )

    def test_total_over_assorted_masses(self, ab):
        masses = [
            make_mass(ab, {"A": 0.5, "B": 0.5}, CLASSICAL_RANGE),
            make_mass(ab, {"A": 0.2}, CLASSICAL_RANGE),
            make_mass(ab, {"A": 0.9, "B": 0.3}, MassRange(0, 1.2)),
            make_mass(ab, {"A": -0.1, "B": 0.9}, MassRange(-0.1, 1)),
        ]
        for m in masses:
            assert assess(m).kind in AdvisoryKind


class TestAssessFusion:
    def test_widened_pipeline_reports_conflict(self, ab):
        m1 = make_mass(ab, {"A": 0.6, "B": 0.3, "A|B": 0.2}, MassRange(0, 1.1), strict=True)
        m2 = make_mass(ab, {"A": 0.5, "B": 0.5, "A|B": 0.1}, MassRange(0, 1.1), strict=True)
        report = fuse(m1, m2, rule=RuleId.TOTAL_PROPORTIONAL)
        advisory = assess_fusion(report)
        assert advisory.kind is AdvisoryKind.CRITICAL_PRIORITY
        assert "0.409" in advisory.rationale
        assert "divisor" in advisory.rationale

    def test_classical_dempster_is_nominal(self, ab):
        m1 = make_mass(ab, {"A": 0.6, "A|B": 0.4}, CLASSICAL_RANGE, strict=True)
        m2 = make_mass(ab, {"B": 0.7, "A|B": 0.3}, CLASSICAL_RANGE, strict=True)
        report = fuse(m1, m2, rule=RuleId.DEMPSTER)
        assert assess_fusion(report).kind is AdvisoryKind.NOMINAL

    def test_averaged_counter_evidence(self, watch):
        pro = make_mass(watch, {"fire": 0.8}, CLASSICAL_RANGE)
        contra = make_mass(watch, {"fire": -0.8}, MassRange(-0.8, 1))
        report = average((pro, contra))
        assert assess_fusion(report).kind is AdvisoryKind.COUNTER_EVIDENCE_DISCOUNT

    def test_high_conflict_warns(self, ab):
        m1 = make_mass(ab, {"A": 0.7, "B": 0.3, "A|B": 0.1}, MassRange(0, 1.1), strict=True)
        m2 = make_mass(ab, {"A": 0.4, "B": 0.6, "A|B": 0.2}, MassRange(0, 1.2), strict=True)
        report = pcr5(m1, m2)  # raw conflict 0.54
        assert "warning" in assess_fusion(report).rationale

    def test_moderate_conflict_does_not_warn(self, ab):
        m1 = make_mass(ab, {"A": 0.3, "B": 0.6, "A|B": 0.2}, MassRange(0, 1.1), strict=True)
        m2 = make_mass(ab, {"A": 0.5, "B": 0.5, "A|B": 0.1}, MassRange(0, 1.1), strict=True)
        report = conjunctive(m1, m2)  # conflict 0.45
        assert "warning" not in assess_fusion(report).rationale

    def test_threshold_is_the_documented_constant(self, ab):
        assert CONFLICT_WARNING_THRESHOLD == 0.5

    def test_dempster_report_mentions_divisor(self, ab):
        m1 = make_mass(ab, {"A": 0.6, "A|B": 0.4}, CLASSICAL_RANGE, strict=True)
        m2 = make_mass(ab, {"B": 0.7, "A|B": 0.3}, CLASSICAL_RANGE, strict=True)
        advisory = assess_fusion(fuse(m1, m2, rule=RuleId.DEMPSTER))
        assert "k=0.42" in advisory.rationale
