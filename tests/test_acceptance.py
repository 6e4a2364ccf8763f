"""Acceptance gate: one test per published criterion, each at its stated
tolerance, with a pass/fail line per criterion in the terminal summary.
"""

import json
import random
import time

import pytest

from overmass.cli import main
from overmass.errors import RuleGuardError
from overmass.frame import enumerate_powerset, make_frame, parse_focal
from overmass.mass import (
    MassFunction,
    MassRange,
    belief,
    best_focal,
    best_singleton,
    interval_union,
    make_mass,
    plausibility,
)
from overmass.rules import (
    RuleId,
    conjunctive,
    dempster,
    fuse,
    over_normalize,
    pcr5,
    total_proportional,
)

AB = make_frame(["A", "B"])


def widened(assignments, hi=1.1):
    return make_mass(AB, assignments, MassRange(0.0, hi), strict=True)


class TestWorkedExamples:
    def test_mixed_scales_pcr5_rescale(self, acceptance):
        with acceptance(
            "criterion 1: mixed scales, pcr5 then rescale to [0, 1.2], "
            "±0.001, under 1ms"
        ):
            m1 = widened({"A": 0.7, "B": 0.3, "A|B": 0.1})
            m2 = make_mass(
                AB, {"A": 0.4, "B": 0.6, "A|B": 0.2}, MassRange(0.0, 1.2), strict=True
            )
            target = MassRange(0.0, 1.2)
            report = fuse(m1, m2, RuleId.PCR5, target=target)
            assert report.result["A"] == pytest.approx(0.686, abs=0.001)
            assert report.result["B"] == pytest.approx(0.496, abs=0.001)
            assert report.result["A|B"] == pytest.approx(0.018, abs=0.001)
            assert report.result.total == pytest.approx(1.2, abs=1e-9)

            best = min(
                _timed(lambda: fuse(m1, m2, RuleId.PCR5, target=target))
                for _ in range(20)
            )
            assert best < 1e-3, "fusion took %.2e s" % best

    def test_conjunctive_then_belief_bounds(self, acceptance):
        with acceptance(
            "criterion 2: conjunctive exact, pcr5+rescale ±0.02, "
            "Bel/Pl bounds on the fused result"
        ):
            m1 = widened({"A": 0.3, "B": 0.6, "A|B": 0.2})
            m2 = widened({"A": 0.5, "B": 0.5, "A|B": 0.1})
            raw = conjunctive(m1, m2)
            assert raw.result["A"] == pytest.approx(0.28, abs=1e-9)
            assert raw.result["B"] == pytest.approx(0.46, abs=1e-9)
            assert raw.result["A|B"] == pytest.approx(0.02, abs=1e-9)
            assert raw.conflict == pytest.approx(0.45, abs=1e-9)

            fused = fuse(m1, m2, RuleId.PCR5).result
            assert fused["A"] == pytest.approx(0.44, abs=0.02)
            assert fused["B"] == pytest.approx(0.64, abs=0.02)
            assert fused["A|B"] == pytest.approx(0.02, abs=0.02)
            a = parse_focal("A", AB)
            both = parse_focal("A|B", AB)
            assert belief(fused, a) == pytest.approx(0.44, abs=0.02)
            assert plausibility(fused, a) == pytest.approx(0.46, abs=0.02)
            assert belief(fused, both) == pytest.approx(1.1, abs=1e-6)

    def test_shared_scale_total_proportional(self, acceptance):
        with acceptance(
            "criterion 3: shared widened scale, normalize first then "
            "spread conflict, ±0.01, total 1.1"
        ):
            m1 = widened({"A": 0.6, "B": 0.3, "A|B": 0.2})
            m2 = widened({"A": 0.5, "B": 0.5, "A|B": 0.1})
            report = fuse(m1, m2, RuleId.TOTAL_PROPORTIONAL)
            assert report.result["A"] == pytest.approx(0.67, abs=0.01)
            assert report.result["B"] == pytest.approx(0.40, abs=0.01)
            assert report.result["A|B"] == pytest.approx(0.03, abs=0.01)
            assert report.result.total == pytest.approx(1.1, abs=1e-9)

    def test_counter_evidence_average(self, acceptance):
        with acceptance(
            "criterion 4: counter-evidence averaged exactly, zero conflict, "
            "argmax A|B, best singleton B"
        ):
            under = MassRange(-0.2, 1.0)
            m1 = make_mass(AB, {"A": -0.2, "B": 0.7, "A|B": 0.3}, under, strict=True)
            m2 = make_mass(AB, {"A": 0.4, "B": -0.1, "A|B": 0.5}, under, strict=True)
            report = fuse(m1, m2, RuleId.AVERAGE)
            assert report.result["A"] == pytest.approx(0.1, abs=1e-9)
            assert report.result["B"] == pytest.approx(0.3, abs=1e-9)
            assert report.result["A|B"] == pytest.approx(0.4, abs=1e-9)
            assert report.conflict == 0.0
            assert str(best_focal(report.result)) == "A|B"
            assert str(best_singleton(report.result)) == "B"

    def test_interval_unions(self, acceptance):
        with acceptance("criterion 5: range unions are exact"):
            assert interval_union(MassRange(0.0, 1.1), MassRange(0.0, 1.2)) == MassRange(0.0, 1.2)
            assert interval_union(MassRange(-0.2, 1.0), MassRange(0.0, 1.1)) == MassRange(-0.2, 1.1)
            assert interval_union(MassRange(-0.1, 1.3), MassRange(-0.4, 1.0)) == MassRange(-0.4, 1.3)


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _random_mass(rng, frame, allow_zero=False):
    sets = [fs for fs in enumerate_powerset(frame) if not fs.is_empty]
    count = rng.randint(1, min(5, len(sets)))
    chosen = rng.sample(sets, count)
    weights = {}
    for fs in chosen:
        if allow_zero and rng.random() < 0.1:
            weights[fs] = 0.0
        else:
            weights[fs] = rng.uniform(0.01, 1.2)
    return MassFunction(frame, weights, MassRange(0.0, 1.5))


class TestBulkInvariants:
    def test_thousand_random_pairs(self, acceptance):
        with acceptance(
            "criterion 6: 1000 random pairs hold every rule invariant "
            "at 1e-9, in under 5 seconds"
        ):
            rng = random.Random(20250819)
            target = MassRange(0.0, 1.5)
            skipped_dempster = 0
            start = time.perf_counter()
            for _ in range(1000):
                frame = make_frame(("A", "B", "C", "D")[: rng.randint(2, 4)])
                m1 = _random_mass(rng, frame)
                m2 = _random_mass(rng, frame)

                raw = conjunctive(m1, m2)
                assert abs(raw.result.total - m1.total * m2.total) <= 1e-9

                spread = pcr5(m1, m2)
                assert spread.result.conflict_weight == 0.0
                assert abs(spread.result.total - m1.total * m2.total) <= 1e-9

                scaled = over_normalize(spread, target)
                assert abs(scaled.result.total - target.total) <= 1e-9
                assert best_focal(scaled.result) == best_focal(spread.result)

                if raw.result.focal_total > 1e-9:
                    evened = total_proportional(raw)
                    assert abs(evened.result.total - raw.result.total) <= 1e-9
                    assert best_focal(evened.result) == best_focal(raw.result)

                c1 = _classicalize(m1)
                c2 = _classicalize(m2)
                if conjunctive(c1, c2).conflict < 1.0 - 1e-6:
                    fused = dempster(c1, c2).result
                    assert abs(fused.total - 1.0) <= 1e-9
                else:
                    skipped_dempster += 1
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, "bulk run took %.2f s" % elapsed
            assert skipped_dempster < 1000

    def test_pcr5_against_reference(self, acceptance):
        with acceptance(
            "criterion 7: pcr5 matches an independent reference on 200 "
            "random instances within 1e-12"
        ):
            rng = random.Random(7)
            for _ in range(200):
                frame = make_frame(("A", "B", "C")[: rng.randint(2, 3)])
                m1 = _random_mass_small(rng, frame)
                m2 = _random_mass_small(rng, frame)
                expected = _reference_pcr5(m1, m2)
                got = pcr5(m1, m2).result
                for fs in enumerate_powerset(frame):
                    if fs.is_empty:
                        continue
                    assert abs(got[fs] - expected.get(fs.bits, 0.0)) <= 1e-12


def _classicalize(m):
    total = m.total
    return MassFunction(
        m.frame,
        {fs: w / total for fs, w in m.weights.items()},
        MassRange(0.0, 1.0),
    )


def _random_mass_small(rng, frame):
    sets = [fs for fs in enumerate_powerset(frame) if not fs.is_empty]
    chosen = rng.sample(sets, rng.randint(1, min(4, len(sets))))
    weights = {}
    for fs in chosen:
        weights[fs] = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 1.2)
    return MassFunction(frame, weights, MassRange(0.0, 1.5))


def _reference_pcr5(m1, m2):
    """Straight-from-the-definition redistribution, no shared code paths."""
    acc = {}
    for x, w1 in m1.weights.items():
        for y, w2 in m2.weights.items():
            p = w1 * w2
            meet = x & y
            if not meet.is_empty:
                acc[meet.bits] = acc.get(meet.bits, 0.0) + p
                continue
            denom = w1 + w2
            if denom == 0.0:
                continue
            acc[x.bits] = acc.get(x.bits, 0.0) + w1 * p / denom
            acc[y.bits] = acc.get(y.bits, 0.0) + w2 * p / denom
    return acc


NEGATIVE_DOC = {
    "frame": ["A", "B"],
    "sources": [
        {"name": "u1", "range": [-0.2, 1], "masses": {"A": -0.2, "B": 0.7, "A|B": 0.3}},
        {"name": "u2", "range": [-0.2, 1], "masses": {"A": 0.4, "B": -0.1, "A|B": 0.5}},
    ],
}


class TestGuardsAndExamples:
    def test_negative_weights_rejected_everywhere(self, acceptance, tmp_path):
        with acceptance(
            "criterion 8: negative weights are refused by every rule but "
            "average, in the library and at the command line"
        ):
            under = MassRange(-0.2, 1.0)
            m1 = make_mass(AB, {"A": -0.2, "B": 0.7, "A|B": 0.3}, under, strict=True)
            m2 = make_mass(AB, {"A": 0.4, "B": -0.1, "A|B": 0.5}, under, strict=True)
            for rule in (
                RuleId.CONJUNCTIVE,
                RuleId.DEMPSTER,
                RuleId.PCR5,
                RuleId.TOTAL_PROPORTIONAL,
            ):
                with pytest.raises(RuleGuardError):
                    fuse(m1, m2, rule)
            assert fuse(m1, m2, RuleId.AVERAGE).result["B"] == pytest.approx(0.3)

            path = tmp_path / "negative.json"
            path.write_text(json.dumps(NEGATIVE_DOC), encoding="utf-8")
            for rule in ("conjunctive", "dempster", "pcr5", "total-proportional"):
                assert main(["fuse", "--input", str(path), "--rule", rule]) == 3
            assert main(["fuse", "--input", str(path), "--rule", "average"]) == 0

    def test_bundled_examples_reproduce(self, acceptance, capsys):
        with acceptance(
            "criterion 9: the bundled worked examples reproduce their "
            "published tables"
        ):
            assert main(["paper-examples"]) == 0
            out = capsys.readouterr().out
            assert "promotion, shared scale" in out
            assert "promotion, mixed scales" in out
            assert "counter-evidence averaging" in out
            assert "belief bounds after redistribution" in out
            assert "|delta|" in out
            assert "MISMATCH" not in out
