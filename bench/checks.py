"""Output checks, run outside every timed span.

A document passes when it produced exactly what its generator planned: the
planted typed error, or a finite result whose totals obey the documented
conservation laws, agreeing with the independent reference where one
exists, with advisories and Bel/Pl answers consistent with the rendered
result. Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from math import fsum

import reference
import workloads
from workloads import Case

#: Agreement with the independent reference (acceptance criterion 7).
REFERENCE_TOL = 1e-12
#: Totals and sums recomputed from rendered digits.
TOTAL_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """What one document produced: a rendered table plus answers, or an error."""

    table: str | None
    answers: tuple = ()
    error: str | None = None
    detail: str = ""

    def digest(self) -> bytes:
        return hashlib.blake2b(repr((self.table, self.answers, self.error)).encode()).digest()


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def parse_table(text: str) -> tuple[dict[str, float], list[str]]:
    """Header -> value for a two-row rendered table, plus any format problems."""
    lines = text.split("\n")
    if len(lines) != 2:
        return {}, ["table has %d lines, expected 2" % len(lines)]
    heads, cells = lines[0].split(), lines[1].split()
    if len(heads) != len(cells) or len(set(heads)) != len(heads):
        return {}, ["table headers and cells do not pair up"]
    try:
        table = {h: float(c) for h, c in zip(heads, cells)}
    except ValueError as exc:
        return {}, ["unparseable cell: %s" % exc]
    problems = []
    if heads[-2:] != [reference.EMPTY, "sum"]:
        problems.append("table does not end with the empty set and the sum")
    bad = [h for h, v in table.items() if not math.isfinite(v)]
    if bad:
        problems.append("non-finite values on %s" % bad[:5])
    return table, problems


def check(case: Case, out: Outcome) -> list[str]:
    if case.expect_error is not None:
        if out.error != case.expect_error:
            return ["expected %s, got %s" % (case.expect_error, out.error or "a result")]
        return []
    if out.error is not None:
        return ["unexpected %s: %s" % (out.error, out.detail)]
    table, problems = parse_table(out.table or "")
    if problems:
        return problems
    return _check_result(case, table) + _check_answers(case, table, out.answers)


def _check_result(case: Case, table: dict[str, float]) -> list[str]:
    raw = case.raw
    rule = raw.get("pipeline", {}).get("rule", "pcr5")
    problems = []
    values = [v for h, v in table.items() if h != "sum"]
    if not _close(table["sum"], fsum(values), TOTAL_TOL):
        problems.append("sum column %r disagrees with its cells %r" % (table["sum"], fsum(values)))
    want = reference.expected_total(raw)
    if not _close(table["sum"], want, TOTAL_TOL):
        problems.append("grand total %r, expected %r" % (table["sum"], want))
    if rule in ("pcr5", "total-proportional", "dempster") and table[reference.EMPTY] != 0.0:
        problems.append("empty set carries %r after %s" % (table[reference.EMPTY], rule))

    ref = reference.fused(raw)
    if ref is not None:
        labels = raw["frame"]
        expected = {
            reference.EMPTY if s == 0 else workloads.expr(s, labels): w
            for s, w in ref.items()
        }
        expected.setdefault(reference.EMPTY, 0.0)
        got = {h: v for h, v in table.items() if h != "sum"}
        if set(got) != set(expected):
            problems.append(
                "focal sets differ from the reference: %d extra, %d missing"
                % (len(set(got) - set(expected)), len(set(expected) - set(got)))
            )
        else:
            worst = max((abs(got[h] - w), h) for h, w in expected.items())
            if not all(_close(got[h], w, REFERENCE_TOL) for h, w in expected.items()):
                problems.append("reference disagreement %.3g on %s" % worst)
    return problems


def _check_answers(case: Case, table: dict[str, float], answers: tuple) -> list[str]:
    raw = case.raw
    problems = []
    expected_kinds = []
    if case.assess_sources:
        for s in raw["sources"]:
            weights = [float(w) for w in s["masses"].values()]
            expected_kinds.append(("assess", s["name"], reference.advisory(weights, float(s["range"][0]))))
    if case.assess_fused:
        weights = [v for h, v in table.items() if h != "sum"]
        expected_kinds.append(("fusion", "", reference.advisory(weights, reference.result_lo(raw))))
    kinds = [a[:3] for a in answers if a[0] in ("assess", "fusion")]
    if kinds != expected_kinds:
        problems.append("advisories %r, expected %r" % (kinds, expected_kinds))
    for a in answers:
        if a[0] == "fusion" and "conflict k=" not in a[3]:
            problems.append("fusion advisory lacks the conflict: %r" % a[3])

    belpl = [a for a in answers if a[0] == "belpl"]
    if [a[1] for a in belpl] != list(case.queries):
        problems.append("answered queries %r, asked %r" % ([a[1] for a in belpl], case.queries))
    for _, query, bel, pl in belpl:
        want_bel, want_pl = reference.belief_pl(table, raw["frame"], query)
        if not (_close(bel, want_bel, TOTAL_TOL) and _close(pl, want_pl, TOTAL_TOL)):
            problems.append("Bel/Pl(%s) = %r/%r, expected %r/%r" % (query, bel, pl, want_bel, want_pl))
    return problems


#: Exit codes of ``overmass fuse`` per planted error type.
EXIT_CODES = {None: 0, "ValidationError": 1, "ParseError": 2, "RuleGuardError": 3}


def check_cli(case: Case, code: int, stdout: str) -> list[str]:
    """Judge one ``fuse`` process by its exit code and, on success, its table."""
    want = EXIT_CODES[case.expect_error]
    if code != want:
        return ["exit code %d, expected %d: %s" % (code, want, stdout.strip()[-200:])]
    if want:
        return []
    lines = stdout.split("\n")
    return check(case, Outcome("\n".join(lines[:2])))
