"""The two-source rules against references that share none of their code.

Every rule's conjunctive part is the exact combination of the pair,
rounded once. conjunctive, dempster, total-proportional and average are
combine of the pair, so they must equal the rational reference rounded
once, field for field, average with or without a rescale. pcr5 is
checked against an oracle built on the same rational reference: its
conflict and each set's conjunctive weight are the reference's, and its
shares are taken in a second pass over the eager trace, one FocalSet
intersection and one TraceRecord per product. The rule must reproduce it
exactly, not approximately: each set's weight is its conjunctive weight
and the same multiset of float shares, summed by the same correctly
rounded fsum. pairwise_products must equal that eager trace on every
pair, and no rule may build a TraceRecord.
"""

import random
from dataclasses import fields

from hypothesis import example, given
from hypothesis import strategies as st

from fold_reference import fraction_fold
from overmass import rules
from overmass.errors import RuleGuardError
from overmass.frame import FocalSet, enumerate_powerset, make_frame, parse_focal
from overmass.mass import (
    CLASSICAL_RANGE,
    MassFunction,
    MassRange,
    RangeClass,
    SumClass,
    checked_fsum,
    classify_range,
    classify_sum,
    interval_union,
)
from overmass.rules import (
    FusionReport,
    RuleId,
    TraceRecord,
    combine,
    conjunctive,
    dempster,
    fuse,
    over_normalize,
    pairwise_products,
    pcr5,
    total_proportional,
)

LABELS = "ABCDEFGHIJKLMNOP"


def oracle_trace(m1, m2):
    return tuple(
        TraceRecord(x, y, w1 * w2, x & y) for x, w1 in m1.weights.items() for y, w2 in m2.weights.items()
    )


def exact_reference(rule, m1, m2):
    """fraction_fold of the pair behind the guards the rules apply first."""
    if rule is RuleId.DEMPSTER:
        for m in (m1, m2):
            if classify_range(m) is not RangeClass.CLASSICAL or classify_sum(m) is not SumClass.BALANCED:
                raise RuleGuardError("dempster requires classical masses summing to 1")
    rules._check_pool((m1, m2), rule)
    return fraction_fold((m1, m2), rule)


def oracle_pcr5(m1, m2):
    rules._check_pool((m1, m2), RuleId.PCR5)
    exact = fraction_fold((m1, m2), RuleId.CONJUNCTIVE)
    weights, conflict = exact.result.weights, exact.conflict
    trace = oracle_trace(m1, m2)
    empty = m1.frame.empty_set()
    shares = {}
    skipped = 0
    for rec in trace:
        if not rec.assigned_to.is_empty:
            continue
        w1 = m1[rec.x]
        w2 = m2[rec.y]
        denom = w1 + w2
        if denom == 0.0:
            skipped += 1
            continue
        shares.setdefault(rec.x, []).append(w1 * rec.product / denom)
        shares.setdefault(rec.y, []).append(w2 * rec.product / denom)
    keys = sorted((set(weights) | set(shares)) - {empty}, key=lambda fs: fs.bits)
    combined = {
        fs: checked_fsum([weights.get(fs, 0.0), *shares.get(fs, [])]) for fs in keys
    }
    result = MassFunction(m1.frame, combined, interval_union(m1.range, m2.range))
    return FusionReport(result, conflict, 1.0, RuleId.PCR5, skipped)


EXACT_RULES = (RuleId.CONJUNCTIVE, RuleId.DEMPSTER, RuleId.TOTAL_PROPORTIONAL, RuleId.AVERAGE)


# Zero weights make pcr5 skip products.
WEIGHTS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.5))
# Weights as documents spell them, whose products are seldom exact floats.
DECIMALS = st.integers(min_value=1, max_value=1500).map(lambda n: n / 1000)


@st.composite
def mass_pairs(draw, weight=WEIGHTS, overlapping=False):
    """Two masses on one frame; overlapping ones have every focal set hold the first label."""
    frame = make_frame(LABELS[: draw(st.integers(min_value=2, max_value=6))])
    sets = [fs for fs in enumerate_powerset(frame) if fs.bits & 1 or not (overlapping or fs.is_empty)]
    # Normalized pairs reach dempster.
    normalized = draw(st.booleans())
    mass_range = CLASSICAL_RANGE if normalized else MassRange(0.0, 1.5)
    pair = []
    for _ in range(2):
        chosen = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=12, unique=True))
        assignments = {fs: draw(weight) for fs in chosen}
        total = sum(assignments.values())
        if normalized and total > 0.0:
            assignments = {fs: w / total for fs, w in assignments.items()}
        pair.append(MassFunction(frame, assignments, mass_range))
    return pair


def _outcome(rule, m1, m2):
    try:
        report = rule(m1, m2)
    except RuleGuardError:
        return "refused"
    return (
        list(report.result.weights.items()),
        report.result.range,
        report.conflict,
        report.divisor,
        report.rule,
        report.skipped_fractions,
    )


@given(mass_pairs())
def test_kernel_equals_eager_oracle_exactly(pair):
    m1, m2 = pair
    assert _outcome(pcr5, m1, m2) == _outcome(oracle_pcr5, m1, m2)
    assert pairwise_products(m1, m2) == oracle_trace(m1, m2)


@given(mass_pairs(DECIMALS), mass_pairs(DECIMALS, overlapping=True))
def test_pcr5_combines_as_conjunctive(pair, overlapping):
    assert pcr5(*pair).conflict == conjunctive(*pair).conflict
    assert pcr5(*overlapping).result.weights == conjunctive(*overlapping).result.weights


def pair_of(*weights):
    """Two masses on the frame [A, B] over [0, 1.5], from focal expressions and weights."""
    frame = make_frame(["A", "B"])
    return [MassFunction(frame, {parse_focal(k, frame): w for k, w in m.items()}, MassRange(0.0, 1.5)) for m in weights]


@given(mass_pairs())
# Quotients over 2**1022, at 2**-1022, and over 2**1024, below it (one rounded twice by float(n) scaled).
@example(pair_of({"A": 2.0**-511, "B": 0.5}, {"A": 2.0**-511}))
@example(pair_of({"A": 1.5 * 2.0**-511}, {"A": 2.0**-512, "A|B": 0.25}))
@example(pair_of({"A": 8.568220937434891e-179}, {"A": 6.694059545176138e-131}))
# A numerator of 2**1024 or more over a small power of two, with a finite quotient.
@example(pair_of({"A": 1e300, "B": 0.3}, {"A": 1e-5, "A|B": 1.0}))
def test_exact_rules_equal_the_fraction_fold_exactly(pair):
    m1, m2 = pair
    assert pairwise_products(m1, m2) == oracle_trace(m1, m2)
    named = {RuleId.CONJUNCTIVE: conjunctive, RuleId.DEMPSTER: dempster}
    for rule in EXACT_RULES:
        want = _outcome(lambda a, b: exact_reference(rule, a, b), m1, m2)
        assert _outcome(lambda a, b: fuse(a, b, rule, normalize=False), m1, m2) == want
        if rule in named:
            assert _outcome(named[rule], m1, m2) == want
        elif want != "refused":
            rescaled = _outcome(lambda a, b: fraction_fold((a, b), rule, interval_union(a.range, b.range)), m1, m2)
            assert _outcome(lambda a, b: fuse(a, b, rule), m1, m2) == rescaled


def test_no_rule_builds_a_trace_record(monkeypatch):
    built = []

    class CountedRecord(TraceRecord):
        def __init__(self, *fields):
            built.append(fields)
            super().__init__(*fields)

    monkeypatch.setattr(rules, "TraceRecord", CountedRecord)
    frame = make_frame(LABELS[:4])
    m = MassFunction(frame, {fs: 0.1 for fs in enumerate_powerset(frame)[1:]}, MassRange(0, 1.5))

    def reports():
        pairs = [conjunctive(m, m), pcr5(m, m), total_proportional(conjunctive(m, m)), fuse(m, m)]
        triples = [combine((m, m, m), rule) for rule in (RuleId.CONJUNCTIVE, RuleId.TOTAL_PROPORTIONAL)]
        return pairs + triples + [over_normalize(report, MassRange(0, 1.2)) for report in pairs + triples]

    assert reports() == reports()
    assert built == []
    assert len(pairwise_products(m, m)) == len(built) == 15 * 15


def test_every_report_has_the_same_fields():
    assert [f.name for f in fields(FusionReport)] == ["result", "conflict", "divisor", "rule", "skipped_fractions"]


def test_full_size_pcr5_trace_length():
    frame = make_frame(LABELS)
    rng = random.Random(16)

    def source():
        masks = rng.sample(range(1, 1 << 16), 256)
        return MassFunction(frame, {FocalSet(frame, b): rng.random() / 256 for b in masks}, MassRange(0, 1.2))

    m1, m2 = source(), source()
    products = pairwise_products(m1, m2)
    assert len(products) == 65536
    assert products == oracle_trace(m1, m2)
