"""Every fuse document gives a finite result that keeps its total, or one typed error line.

Documents come from a small grammar: 2 to 10 labels, one of them awkward
in CSV or on a terminal; 2 to 5 sources whose weights are normal, zero,
subnormal or huge, some written as JSON integers, and negative too under
average; past 8 labels a source may hold a run of hundreds of sets, so
that a result's names come from the frame's two name tables; every rule,
strict or not, with or without normalize, with or without a target. Each
document runs through main(["fuse", ..., "--precision", "17", "--format",
"csv"]) in process.

The contract: the exit code is 0, 1, 2 or 3. A nonzero exit prints
nothing on stdout and one line on stderr, with that code's prefix. Exit
0 prints only finite cells, and a sum that equals, within TOLERANCE of
the exact value, the target total of a rescaled pcr5 or
total-proportional result, 1 for dempster, the mean of the source totals
for average and their product for conjunctive. The exact value is taken
in rationals, and a cell at 17 decimals may also be off by 1e-17. Under
conjunctive, dempster, total-proportional and average, every order of
the sources (of five, each rotation forward and backward) prints
the same stdout with the same exit code, and the same stderr on exits 0
and 3; exits 1 and 2 name the first faulty source in document order.
"""

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overmass.cli import main
from overmass.rules import RuleId

TOLERANCE = Fraction(1, 10**9)
LAST_DECIMAL = Fraction(1, 10**17)
PREFIXES = {1: "validation error: ", 2: "parse error: ", 3: "rule guard: "}
ORDER_FREE = (RuleId.CONJUNCTIVE, RuleId.DEMPSTER, RuleId.TOTAL_PROPORTIONAL, RuleId.AVERAGE)
AWKWARD_LABELS = ("é", "a,b", 'q"t', "x y", "Ω")
TARGETS = ((0.0, 1.5), (-0.1, 1.3), (0.0, 1.0), (0.0, 1e300), (-1.0, 1.0))

WEIGHTS = st.one_of(
    st.floats(min_value=0.001, max_value=1.5),
    st.integers(min_value=1, max_value=1500).map(lambda n: n / 1000),
    st.just(0.0),
    st.sampled_from([5e-324, 1e-320, 2.2e-311, 1e-200]),
    st.sampled_from([1e200, 1e300, 1.7e308]),
    st.sampled_from([0, 1, 2, 10**300]),
)
#: Sets in a wide source: more than the two name tables of a 9- or 10-label frame hold.
WIDE = 280


@st.composite
def documents(draw):
    """A document whose pipeline record holds its rule, normalize and target."""
    size = st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=4, max_value=9))
    labels = list("ABCDEFGHI"[:draw(size)])
    labels.insert(draw(st.integers(min_value=0, max_value=len(labels))), draw(st.sampled_from(AWKWARD_LABELS)))
    rule = draw(st.sampled_from(RuleId))
    strict = not draw(st.integers(min_value=0, max_value=3))
    full = (1 << len(labels)) - 1
    # A wide document's first source is a run of WIDE sets, and the others
    # hold the full set, so every rule reaches them all.
    wide = len(labels) > 8 and draw(st.booleans())
    sources = []
    for i in range(draw(st.integers(min_value=2, max_value=5))):
        sets = draw(st.lists(st.integers(min_value=1, max_value=full), min_size=1, max_size=4, unique=True))
        if wide:
            start = draw(st.integers(min_value=1, max_value=full + 1 - WIDE))
            sets = range(start, start + WIDE) if i == 0 else sorted({*sets, full})
        classical = rule is RuleId.DEMPSTER and draw(st.booleans())
        weight = st.floats(min_value=0.001, max_value=1.0) if classical else WEIGHTS
        if rule is RuleId.AVERAGE:
            weight = st.one_of(weight, weight.map(lambda w: -w))
        weights = [draw(weight) for _ in sets]
        if classical:
            weights = [w / sum(weights) for w in weights]
            lo, hi = 0.0, 1.0
        else:
            # Mostly a range that holds every weight; sometimes one that may not.
            lo, hi = 0.0, draw(st.sampled_from([1.0, 1.5]))
            total = sum(weights)
            if strict and total > 0 and draw(st.integers(min_value=0, max_value=3)):
                weights = [w / total * hi for w in weights]  # a strict source that may sum to its range
            if draw(st.integers(min_value=0, max_value=4)):
                lo, hi = min(lo, *weights), max(hi, *weights)
        masses = {"|".join(l for j, l in enumerate(labels) if b >> j & 1): w for b, w in zip(sets, weights)}
        sources.append({"name": "s%d" % i, "range": [lo, hi], "masses": masses})
    pipeline = {"rule": rule.value, "normalize": draw(st.booleans()), "strict": strict}
    target = draw(st.one_of(st.none(), st.sampled_from(TARGETS)))
    if target is not None:
        pipeline["target"] = list(target)
    return {"frame": labels, "sources": sources, "pipeline": pipeline}


def fuse(path, doc):
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["fuse", "--input", str(path), "--precision", "17", "--format", "csv"])
    return code, out.getvalue(), err.getvalue()


def expected_sum(doc):
    """The exact total the result must print, with the scale its rounding errors are relative to; None if unchecked."""
    rule, pipeline = RuleId(doc["pipeline"]["rule"]), doc["pipeline"]
    totals = [sum(map(Fraction, s["masses"].values())) for s in doc["sources"]]
    if rule in (RuleId.PCR5, RuleId.TOTAL_PROPORTIONAL) and pipeline["normalize"]:
        lo, hi = pipeline.get("target") or (min(s["range"][0] for s in doc["sources"]),
                                            max(s["range"][1] for s in doc["sources"]))
        total = Fraction(lo + hi)
        return total, abs(total)
    if rule is RuleId.DEMPSTER:
        return Fraction(1), Fraction(1)
    if rule is RuleId.AVERAGE:
        # Negative weights cancel, so the error is relative to the mean of the absolute weights.
        scale = sum(abs(Fraction(w)) for s in doc["sources"] for w in s["masses"].values())
        return sum(totals) / len(totals), scale / len(totals)
    if rule is RuleId.CONJUNCTIVE:
        return math.prod(totals), math.prod(totals)
    return None


def orders(sources):
    """Every order of up to four sources; of five, each rotation, forward and backward."""
    if len(sources) <= 4:
        return permutations(sources)
    rotations = [sources[i:] + sources[:i] for i in range(len(sources))]
    return rotations + [r[::-1] for r in rotations]


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(documents())
def test_a_result_or_one_typed_error(path, doc):
    code, out, err = fuse(path, doc)
    assert code in (0, 1, 2, 3)
    if code:
        assert out == ""
        assert err.startswith(PREFIXES[code]) and err.endswith("\n") and err.count("\n") == 1
    else:
        header, cells = csv.reader(out.splitlines())
        assert len(header) == len(cells) and all(math.isfinite(float(cell)) for cell in cells)
        want = expected_sum(doc)
        if want is not None:
            total, scale = want
            assert abs(Fraction(cells[-1]) - total) <= TOLERANCE * scale + LAST_DECIMAL
    if RuleId(doc["pipeline"]["rule"]) in ORDER_FREE:
        for order in orders(doc["sources"]):
            again = fuse(path, {**doc, "sources": list(order)})
            assert again[:2] == (code, out)
            assert code in (1, 2) or again[2] == err
