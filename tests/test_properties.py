"""Randomized invariants over the combination rules.

Everything here states a law that must hold for any admissible input, not
a worked example; the concrete numbers live in the other test files.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from overmass.errors import ValidationError
from overmass.frame import FocalSet, enumerate_powerset, make_frame
from overmass.mass import (
    SUM_EPSILON,
    MassFunction,
    MassRange,
    Weights,
    belief,
    best_focal,
    checked_fsum,
    interval_union,
)
from overmass.rules import (
    average,
    conjunctive,
    dempster,
    over_normalize,
    pairwise_products,
    pcr5,
    total_proportional,
)

LABELS = ("A", "B", "C", "D")

weights_st = st.floats(min_value=0.01, max_value=1.4, allow_nan=False)


@st.composite
def mass_functions(draw, frame=None):
    if frame is None:
        n = draw(st.integers(min_value=2, max_value=4))
        frame = make_frame(LABELS[:n])
    sets = [fs for fs in enumerate_powerset(frame) if not fs.is_empty]
    chosen = draw(
        st.lists(st.sampled_from(sets), min_size=1, max_size=5, unique=True)
    )
    assignments = {fs: draw(weights_st) for fs in chosen}
    return MassFunction(frame, assignments, MassRange(0.0, 1.5))


@st.composite
def mass_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    frame = make_frame(LABELS[:n])
    return draw(mass_functions(frame=frame)), draw(mass_functions(frame=frame))


ranges_st = st.builds(
    MassRange,
    st.floats(min_value=-2.0, max_value=0.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
)


@given(mass_pairs())
def test_conjunctive_product_identity(pair):
    m1, m2 = pair
    report = conjunctive(m1, m2)
    grand = math.fsum(report.result.weights.values())
    assert abs(grand - m1.total * m2.total) <= 1e-9


@given(mass_pairs())
def test_conjunctive_trace_covers_every_product(pair):
    m1, m2 = pair
    report = conjunctive(m1, m2)
    assert len(pairwise_products(m1, m2)) == len(m1.focal_sets()) * len(m2.focal_sets())
    assert report.conflict == report.result.conflict_weight


@given(mass_pairs())
def test_pcr5_conserves_total_and_clears_conflict(pair):
    m1, m2 = pair
    report = pcr5(m1, m2)
    assert report.result.conflict_weight == 0.0
    assert abs(report.result.total - m1.total * m2.total) <= 1e-9
    assert all(w >= 0.0 for w in report.result.weights.values())


@given(mass_pairs())
def test_pcr5_never_loses_to_conjunctive(pair):
    # Redistribution only adds to surviving sets.
    m1, m2 = pair
    base = conjunctive(m1, m2).result
    redistributed = pcr5(m1, m2).result
    for fs in base.focal_sets():
        assert redistributed[fs] >= base[fs] - 1e-12


@given(mass_pairs(), st.floats(min_value=1.0, max_value=2.0, allow_nan=False))
def test_over_normalize_hits_target_sum(pair, hi):
    m1, m2 = pair
    target = MassRange(0.0, hi)
    report = conjunctive(m1, m2)
    assume(report.result.total > SUM_EPSILON)
    scaled = over_normalize(report, target)
    # result.total already counts the rescaled conflict bucket
    assert abs(scaled.result.total - target.total) <= 1e-9
    assert scaled.result.range == target


def _clear_leader(m):
    """True when the top weight is an exact tie or leads by a safe margin.

    Rescaling is order-preserving in exact arithmetic; a gap below one ulp
    can legitimately collapse after division, so those draws are skipped.
    """
    ws = sorted((m[fs] for fs in m.focal_sets()), reverse=True)
    if len(ws) < 2:
        return True
    gap = ws[0] - ws[1]
    return gap == 0.0 or gap > 1e-9


@given(mass_pairs())
def test_over_normalize_preserves_argmax(pair):
    m1, m2 = pair
    report = pcr5(m1, m2)
    assume(report.result.total > SUM_EPSILON)
    assume(_clear_leader(report.result))
    scaled = over_normalize(report, MassRange(0.0, 1.5))
    assert best_focal(scaled.result) == best_focal(report.result)


@given(mass_pairs())
def test_total_proportional_preserves_grand_total_and_ratios(pair):
    m1, m2 = pair
    report = conjunctive(m1, m2)
    assume(report.result.focal_total > SUM_EPSILON)
    spread = total_proportional(report)
    before = report.result.total  # conflict bucket included
    after = spread.result.total
    assert abs(after - before) <= 1e-9
    for a in report.result.focal_sets():
        for b in report.result.focal_sets():
            if report.result[b] > 1e-6:
                assert math.isclose(
                    spread.result[a] / spread.result[b],
                    report.result[a] / report.result[b],
                    rel_tol=1e-9,
                )


@given(mass_pairs())
def test_total_proportional_preserves_argmax(pair):
    m1, m2 = pair
    report = conjunctive(m1, m2)
    assume(report.result.focal_total > SUM_EPSILON)
    assume(_clear_leader(report.result))
    assert best_focal(total_proportional(report).result) == best_focal(report.result)


@given(mass_pairs())
def test_dempster_yields_balanced_classical_mass(pair):
    # Classicalize the inputs first; the rule itself demands [0, 1] sums.
    m1, m2 = pair
    assume(m1.total > SUM_EPSILON and m2.total > SUM_EPSILON)
    c1 = MassFunction(
        m1.frame,
        {fs: w / m1.total for fs, w in m1.weights.items()},
        MassRange(0.0, 1.0),
    )
    c2 = MassFunction(
        m2.frame,
        {fs: w / m2.total for fs, w in m2.weights.items()},
        MassRange(0.0, 1.0),
    )
    k = conjunctive(c1, c2).conflict
    assume(k < 1.0 - 1e-3)
    fused = dempster(c1, c2).result
    assert abs(fused.total - 1.0) <= 1e-9
    assert fused.conflict_weight == 0.0


@given(mass_pairs())
def test_average_is_commutative(pair):
    m1, m2 = pair
    forward = average((m1, m2)).result
    backward = average((m2, m1)).result
    assert forward.weights == backward.weights


@given(mass_functions())
def test_average_of_identical_sources_is_identity(m):
    averaged = average((m, m, m)).result
    for fs in m.focal_sets():
        assert math.isclose(averaged[fs], m[fs], rel_tol=1e-12)


@given(ranges_st, ranges_st, ranges_st)
def test_interval_union_laws(r1, r2, r3):
    assert interval_union(r1, r2) == interval_union(r2, r1)
    assert interval_union(r1, interval_union(r2, r3)) == interval_union(
        interval_union(r1, r2), r3
    )
    assert interval_union(r1, r1) == r1


@given(ranges_st, ranges_st)
def test_interval_union_contains_both(r1, r2):
    merged = interval_union(r1, r2)
    assert merged.lo <= min(r1.lo, r2.lo)
    assert merged.hi >= max(r1.hi, r2.hi)


@settings(max_examples=50)
@given(mass_pairs())
def test_rescaling_commutes_with_total_proportional(pair):
    # Why the pipeline has one stage order: both orders agree.
    m1, m2 = pair
    report = conjunctive(m1, m2)
    assume(report.result.focal_total > SUM_EPSILON)
    assume(report.result.total + report.result.conflict_weight > SUM_EPSILON)
    target = MassRange(0.0, 1.5)
    first = total_proportional(over_normalize(report, target))
    second = over_normalize(total_proportional(report), target)
    for fs in first.result.focal_sets():
        assert math.isclose(first.result[fs], second.result[fs], rel_tol=1e-9, abs_tol=1e-12)


# Whether fsum overflows on the way depends on the order of these.
HUGE = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7e308, 9e307])
BELIEF_WEIGHTS = st.one_of(
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-311, -1e-300]),
    HUGE,
)


@st.composite
def belief_queries(draw):
    """A query with few or many of 2 to 10 labels; a mass, weight on ∅ allowed, with huge weights inside the query."""
    n = draw(st.one_of(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=10)))
    size = draw(st.one_of(st.integers(min_value=1, max_value=min(n, 3)), st.integers(min_value=1, max_value=n)))
    q = sum(1 << i for i in draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)))
    full = (1 << n) - 1
    weights = {b: draw(BELIEF_WEIGHTS) for b in draw(st.lists(st.integers(0, full), min_size=1, max_size=40))}
    inside = draw(st.lists(st.integers(0, full), max_size=8))
    weights.update({b & q: draw(st.one_of(HUGE, BELIEF_WEIGHTS)) for b in inside})
    frame = make_frame(["L%d" % i for i in range(n)])
    return MassFunction(frame, Weights(frame, weights), MassRange(-1.7e308, 1.7e308)), FocalSet(frame, q)


def scanned(m, q):
    """The weight of every nonempty set under q, summed in ascending order: the value, or the error's type and text."""
    try:
        return checked_fsum(w for b, w in m.weights.bits.items() if b and not b & ~q.bits).hex()
    except ValidationError as exc:
        return type(exc), str(exc)


def order_matters(first, second, third):
    """A lookup-side query on {L0, L1}, whose three subsets' weights overflow fsum in one order and not in the other."""
    frame = make_frame(["L0", "L1", "L2", "L3"])
    weights = Weights(frame, {0b0001: first, 0b0010: second, 0b0011: third, 0b0100: 1.0, 0b1000: 1.0})
    return MassFunction(frame, weights, MassRange(-1.7e308, 1.7e308)), FocalSet(frame, 0b0011)


@settings(max_examples=300)
@given(belief_queries())
@example(order_matters(1e308, 1e308, -1e308))
@example(order_matters(-1e308, 1e308, 1e308))
def test_belief_by_subset_lookup_equals_the_scan(case):
    # Below 2**|A| focal sets belief looks up each subset of A; the scan is the reference on either side.
    m, a = case
    try:
        got = belief(m, a).hex()
    except ValidationError as exc:
        got = type(exc), str(exc)
    assert got == scanned(m, a)
