"""combine under conjunctive, Dempster and total-proportional: two or more sources, exact and rounded once."""

import json
from dataclasses import replace
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fold_reference import fraction_fold
from overmass import rules
from overmass.cli import PipelineSpec, ScenarioDocument, Source, main, run_pipeline
from overmass.errors import RuleGuardError, ValidationError
from overmass.frame import make_frame
from overmass.mass import CLASSICAL_RANGE, SUM_EPSILON, MassFunction, MassRange, Weights, make_mass
from overmass.rules import RuleId, average, combine, over_normalize, pcr5

LABELS = "ABCDEF"
FOLDED = (RuleId.CONJUNCTIVE, RuleId.DEMPSTER, RuleId.TOTAL_PROPORTIONAL)


@st.composite
def source_lists(draw, rule, max_labels=6):
    """2 to 5 masses on one frame, some weights tiny down to the least subnormal.

    Zero weights except under Dempster, whose masses sum to 1 within SUM_EPSILON.
    """
    n = draw(st.integers(min_value=2, max_value=max_labels))
    frame = make_frame(LABELS[:n])
    full = (1 << n) - 1
    masses = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        sets = draw(st.lists(st.integers(min_value=1, max_value=full), min_size=1, max_size=8, unique=True))
        weight = st.one_of(st.floats(min_value=0.001, max_value=1.0), st.sampled_from([5e-324, 2.2e-311, 1e-200]))
        if rule is not RuleId.DEMPSTER:
            weight = st.one_of(st.just(0.0), weight)
        weights = [draw(weight) for _ in sets]
        if rule is RuleId.DEMPSTER:
            total = sum(weights) / (1 + draw(st.floats(min_value=-SUM_EPSILON / 2, max_value=SUM_EPSILON / 2)))
            weights = [w / total for w in weights]
        mass_range = CLASSICAL_RANGE if rule is RuleId.DEMPSTER else MassRange(0.0, 1.5)
        masses.append(MassFunction(frame, Weights(frame, dict(zip(sets, weights))), mass_range))
    return masses


def outcome(fold):
    """The report, or the refusal."""
    try:
        return fold()
    except RuleGuardError:
        return RuleGuardError


@settings(deadline=None)
@given(st.data())
def test_equals_the_fraction_fold_rounded_once(data):
    rule = data.draw(st.sampled_from(FOLDED))
    masses = data.draw(source_lists(rule))
    want = outcome(lambda: fraction_fold(masses, rule))
    assert outcome(lambda: combine(masses, rule, normalize=False)) == want
    if rule is RuleId.TOTAL_PROPORTIONAL and want is not RuleGuardError:
        assert outcome(lambda: combine(masses, rule)) == outcome(lambda: over_normalize(want, want.result.range))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_weights_do_not_depend_on_source_order(data):
    # Whole reports: weights, range, conflict, divisor, and whether the rule refuses.
    for rule in FOLDED:
        masses = data.draw(source_lists(rule, max_labels=4))
        for normalize in (False, True):
            first, *rest = [outcome(lambda: combine(order, rule, normalize=normalize))
                            for order in permutations(masses)]
            assert all(report == first for report in rest)


def pipeline(masses, rule, normalize):
    sources = tuple(Source("m%d" % i, m) for i, m in enumerate(masses, 1))
    return run_pipeline(ScenarioDocument(masses[0].frame, sources, PipelineSpec(rule, normalize=normalize)))


@settings(deadline=None)
@given(st.data())
def test_a_vacuous_source_changes_no_field(data):
    # The vacuous mass is the neutral element of conjunctive combination. Every
    # field stays, refusals included.
    rule = data.draw(st.sampled_from(FOLDED))
    masses = data.draw(source_lists(rule, max_labels=4))
    frame = masses[0].frame
    vacuous = MassFunction(frame, Weights(frame, {(1 << len(frame)) - 1: 1.0}), CLASSICAL_RANGE)
    for normalize in (False, True):
        assert outcome(lambda: pipeline([*masses, vacuous], rule, normalize)) == outcome(
            lambda: pipeline(masses, rule, normalize))


def scaled_paths(masses):
    scaled = [rules._scaled(m) for m in masses]
    sources = [numerators for numerators, _ in scaled]
    width = len(masses[0].frame)
    return scaled, rules._dense_conjunctive(sources, width), rules._sparse_conjunctive(sources, width)


def test_dense_and_sparse_paths_give_identical_reports():
    abc = make_frame(["A", "B", "C"])
    # A is reached only through the zero weight on it: A ∩ A|B ∩ A|B|C.
    masses = [
        make_mass(abc, {"A": 0.0, "B": 0.6, "C": 0.4}, CLASSICAL_RANGE),
        make_mass(abc, {"A|B": 0.5, "C": 0.5}, CLASSICAL_RANGE),
        make_mass(abc, {"A|B|C": 0.8, "B|C": 0.2}, CLASSICAL_RANGE),
    ]
    scaled, dense, sparse = scaled_paths(masses)
    assert dense == sparse
    assert dense[0b001] == 0
    den = prod(d for _, d in scaled)
    for rule in FOLDED:
        report = rules._fold_report(masses, rule, dense, den)
        assert report == rules._fold_report(masses, rule, sparse, den) == fraction_fold(masses, rule)
        assert report.result.weights.bits[0b001] == 0.0


@settings(deadline=None)
@given(st.data())
def test_dense_and_sparse_paths_agree(data):
    masses = data.draw(source_lists(data.draw(st.sampled_from(FOLDED))))
    scaled, dense, sparse = scaled_paths(masses)
    assert dense == sparse


class TestGuards:
    ab = make_frame(["A", "B"])

    def fold(self, rule, *assignments, mass_range=CLASSICAL_RANGE):
        return combine([make_mass(self.ab, a, mass_range) for a in assignments], rule)

    def test_dempster_total_conflict_refused(self):
        with pytest.raises(RuleGuardError, match="leaves nothing to renormalize"):
            self.fold(RuleId.DEMPSTER, {"A": 1.0}, {"B": 1.0}, {"A|B": 1.0})

    def test_dempster_near_balanced_sources_fold_exactly(self):
        # Each source is within SUM_EPSILON of 1, though a two-source step of them is not.
        surplus = {"A": 0.5, "B": 0.5 + 0.9e-9}
        masses = [make_mass(self.ab, a, CLASSICAL_RANGE) for a in (surplus, surplus, {"A|B": 1.0})]
        assert combine(masses, RuleId.DEMPSTER) == fraction_fold(masses, RuleId.DEMPSTER)

    def test_dempster_source_off_balance_refused_before_the_fold(self):
        off = {"A": 0.5, "B": 0.5 + 1.1e-9}
        for assignments in ((off, {"A": 1.0}, {"A|B": 1.0}), ({"A": 1.0}, {"A|B": 1.0}, off)):
            with pytest.raises(RuleGuardError, match="but refuses 1 of 3 inputs: classical by range and surplus by sum;"):
                self.fold(RuleId.DEMPSTER, *assignments)

    def test_dempster_refusal_names_no_position(self):
        over = MassRange(0, 1.5)
        masses = [
            make_mass(self.ab, {"A": 0.5}, CLASSICAL_RANGE),
            make_mass(self.ab, {"A|B": 1.0}, over),
            make_mass(self.ab, {"A": 0.5, "B": 0.5 + 1.1e-9}, CLASSICAL_RANGE),
            make_mass(self.ab, {"A": 1.0}, CLASSICAL_RANGE),
            make_mass(self.ab, {"B": 1.0}, over),
        ]
        messages = set()
        for order in permutations(masses):
            with pytest.raises(RuleGuardError) as refusal:
                combine(order, RuleId.DEMPSTER)
            messages.add(str(refusal.value))
        assert messages == {
            "dempster requires classical masses summing to 1, but refuses 4 of 5 inputs: "
            "classical by range and surplus by sum, classical by range and deficit by sum, "
            "over by range and balanced by sum; "
            "permitted here: pcr5, total-proportional, conjunctive (average for negative weights)"
        }

    def test_every_source_checked_before_the_fold(self):
        with pytest.raises(RuleGuardError, match="but refuses 1 of 3 inputs: over by range and balanced by sum;"):
            combine(
                [make_mass(self.ab, {"A": 1.0}, CLASSICAL_RANGE), make_mass(self.ab, {"B": 1.0}, CLASSICAL_RANGE),
                 make_mass(self.ab, {"A|B": 1.0}, MassRange(0, 1.5))],
                RuleId.DEMPSTER,
            )
        for rule in FOLDED:
            with pytest.raises(RuleGuardError, match="negative weights"):
                self.fold(rule, {"A": 0.5}, {"A": 0.5}, {"A": -0.1, "B": 0.5}, mass_range=MassRange(-0.2, 1))

    def test_pool_refusal_does_not_depend_on_order(self):
        # Faults in two or more masses: a negative weight, weight on the empty set,
        # another frame, a range over [0, 1] (refused by dempster alone).
        negative = make_mass(self.ab, {"A": -0.1, "B": 0.6}, MassRange(-0.2, 1))
        empty = MassFunction(self.ab, Weights(self.ab, {0: 0.2, 0b01: 0.8}), CLASSICAL_RANGE)
        other = make_mass(make_frame(["A", "B", "C"]), {"A": 1.0}, CLASSICAL_RANGE)
        over = make_mass(self.ab, {"A|B": 1.0}, MassRange(0, 1.5))
        fine = make_mass(self.ab, {"A": 0.5, "B": 0.5}, CLASSICAL_RANGE)
        for pool in ((negative, empty, other), (negative, empty, fine), (over, negative, other), (empty, over, negative)):
            for rule in RuleId:
                outcomes = []
                for order in permutations(pool):
                    try:
                        outcomes.append(combine(order, rule))
                    except (RuleGuardError, ValidationError) as refusal:
                        outcomes.append((type(refusal), str(refusal)))
                assert outcomes == outcomes[:1] * 6, rule
                assert rule is RuleId.AVERAGE or isinstance(outcomes[0], tuple), rule

    def test_pcr5_fold_refuses_before_its_first_step(self, monkeypatch):
        calls = []
        step = rules.pcr5

        def counted(m1, m2):
            calls.append((m1, m2))
            return step(m1, m2)

        monkeypatch.setattr(rules, "pcr5", counted)
        masses = [make_mass(self.ab, {"A": 0.6, "B": 0.4}, CLASSICAL_RANGE),
                  make_mass(self.ab, {"A|B": 1.0}, CLASSICAL_RANGE),
                  make_mass(self.ab, {"A": -0.1, "B": 0.6}, MassRange(-0.2, 1))]
        with pytest.raises(RuleGuardError, match="^negative weights present"):
            combine(masses, RuleId.PCR5)
        assert calls == []
        combine(masses[:2] * 2, RuleId.PCR5)
        assert len(calls) == 3

    def test_total_proportional_needs_focal_weight(self):
        with pytest.raises(RuleGuardError, match="no positive focal weight to absorb conflict 1.0"):
            self.fold(RuleId.TOTAL_PROPORTIONAL, {"A": 1.0}, {"B": 1.0}, {"A|B": 1.0})

    def test_total_proportional_refusal_does_not_depend_on_order(self):
        # A source of total 0 zeroes the combination, so no order leaves conflict without focal weight.
        masses = [make_mass(self.ab, a, MassRange(0, 1.5)) for a in ({"A": 0.0}, {"A": 1.0}, {"A": 0.0, "B": 1.0})]
        for order in permutations(masses):
            report = combine(order, RuleId.TOTAL_PROPORTIONAL, normalize=False)
            assert (dict(report.result.weights.bits), report.conflict, report.divisor) == ({0b01: 0.0}, 0.0, 1.0)
            with pytest.raises(RuleGuardError, match="grand total 0.0 gives normalization divisor 0.0"):
                combine(order, RuleId.TOTAL_PROPORTIONAL)

    def test_total_proportional_spreads_onto_a_subnormal_focal_total(self):
        # The focal total is 2.2e-311 against a conflict of 1.0; every order gives the exact spread.
        abc = make_frame(["A", "B", "C"])
        masses = [
            make_mass(abc, {"B": 2.225073858507e-311, "A|C": 1.0}, MassRange(0, 1.5)),
            make_mass(abc, {"B": 1.0}, MassRange(0, 1.5)),
            make_mass(abc, {"A|B|C": 1.0}, MassRange(0, 1.5)),
        ]
        want = fraction_fold(masses, RuleId.TOTAL_PROPORTIONAL)
        assert dict(want.result.weights.bits) == {0b010: 1.0}
        for order in permutations(masses):
            assert combine(order, RuleId.TOTAL_PROPORTIONAL, normalize=False) == want

    def test_pcr5_folds_left_average_takes_the_pool_and_single_masses_rejected(self):
        weights = ({"A": 0.7, "B": 0.5}, {"B": 0.6, "A|B": 0.4}, {"A": 0.9})
        a, b, c = (make_mass(self.ab, w, MassRange(0, 1.2)) for w in weights)
        target = MassRange(-0.1, 1.3)
        assert combine([a, b, c], RuleId.PCR5, target) == over_normalize(pcr5(pcr5(a, b).result, c), target)
        assert combine([a, b, c], RuleId.AVERAGE) == average([a, b, c])
        for rule in RuleId:
            with pytest.raises(ValidationError, match="a fold needs at least two masses, got 1"):
                combine([a], rule)
        with pytest.raises(ValidationError, match="unknown rule 'pcr5'"):
            combine([a, b], "pcr5")

    def test_pcr5_fold_counts_the_skipped_products_of_every_step(self):
        # The first step skips A against C (both weights zero); the second skips none.
        abc = make_frame(["A", "B", "C"])
        weights = ({"A": 0.0, "B": 1.0}, {"C": 0.0, "A|B|C": 1.0}, {"A|B|C": 1.0})
        m1, m2, m3 = (make_mass(abc, w, CLASSICAL_RANGE) for w in weights)
        assert pcr5(m1, m2).skipped_fractions == 1
        assert pcr5(pcr5(m1, m2).result, m3).skipped_fractions == 0
        for order in ([m1, m2, m3], [m3, m2, m1], [m1, m2]):
            assert combine(order, RuleId.PCR5).skipped_fractions == 1
        report = combine([m1, m2, m3], RuleId.PCR5)
        assert report == replace(over_normalize(pcr5(pcr5(m1, m2).result, m3), CLASSICAL_RANGE), skipped_fractions=1)


def overflow_document(*weights, rule):
    sources = [{"range": [0, 1e300], "masses": {"A": w}} for w in weights]
    return json.dumps({"frame": ["A", "B"], "sources": sources, "pipeline": {"rule": rule}})


@pytest.mark.parametrize("rule", ["conjunctive", "total-proportional"])
def test_intermediate_overflow_no_longer_fails(tmp_path, capsys, rule):
    # The left fold in floats overflowed at 1e200 * 1e200; the exact fold does not.
    path = tmp_path / "doc.json"
    path.write_text(overflow_document(1e200, 1e200, 1e-200, rule=rule), encoding="utf-8")
    assert main(["fuse", "--input", str(path), "--precision", "0"]) == 0
    head, body = capsys.readouterr().out.splitlines()[:2]
    assert head.split()[0] == "A"
    assert float(body.split()[0]) == pytest.approx(1e200 if rule == "conjunctive" else 1e300, rel=1e-12)


@pytest.mark.parametrize("rule", ["conjunctive", "total-proportional"])
def test_overflowing_result_is_a_validation_error(tmp_path, capsys, rule):
    path = tmp_path / "doc.json"
    path.write_text(overflow_document(1e200, 1e200, 1e200, rule=rule), encoding="utf-8")
    assert main(["fuse", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beyond the float range" in captured.err
