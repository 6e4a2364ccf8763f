"""Self-test: the generators are deterministic and the checks are not vacuous.

Returns a list of problems; an empty list means every planted fault was
caught. It runs before every measurement and on its own with ``--self-test``.
"""

from __future__ import annotations

from dataclasses import replace

import checks
import reference
import workloads
from checks import Outcome
from runner import run_document


def _shift(table: str, moves: dict[str, float]) -> str:
    """Re-render a table with some cells moved by the given amounts."""
    heads, cells = (line.split() for line in table.split("\n"))
    cells = ["%.15f" % (float(c) + moves.get(h, 0.0)) for h, c in zip(heads, cells)]
    return "  ".join(heads) + "\n" + "  ".join(cells)


def run(seed: int) -> list[str]:
    problems = []
    for name in workloads.GENERATORS:
        first = [c.text for c in workloads.build(name, seed).cases]
        again = [c.text for c in workloads.build(name, seed).cases]
        other = [c.text for c in workloads.build(name, seed + 1).cases]
        if first != again:
            problems.append("%s: the same seed gave different documents" % name)
        if first == other:
            problems.append("%s: different seeds gave the same documents" % name)

    cases = workloads.build("paper-small", seed).cases
    by_kind: dict[str, workloads.Case] = {}
    for case in cases:
        rule = case.raw["pipeline"]["rule"]
        if case.expect_error is not None:
            by_kind.setdefault("error", case)
        elif reference.fused(case.raw) is not None and len(case.raw["sources"]) == 2 and all(
            "|".join(case.raw["frame"]) in src["masses"] for src in case.raw["sources"]
        ):
            by_kind.setdefault("reference-" + rule, case)
        elif rule in ("dempster", "total-proportional"):
            by_kind.setdefault("total-" + rule, case)
        if len(by_kind) == 5:
            break
    if len(by_kind) != 5:
        return problems + ["paper-small lacks a case of each kind: %s" % sorted(by_kind)]

    for kind, case in sorted(by_kind.items()):
        out = run_document(case)
        if checks.check(case, out):
            problems.append("%s: a correct outcome was flagged: %s" % (kind, checks.check(case, out)))
        if kind == "error":
            for wrong in (Outcome("A  ∅  sum\n1.0  0.0  1.0"), Outcome(None, (), "ParseError")):
                if not checks.check(case, wrong):
                    problems.append("a missing or wrong expected error was not flagged")
            continue
        heads = out.table.split("\n")[0].split()
        focal = [h for h in heads if h not in (reference.EMPTY, "sum")]
        if kind.startswith("reference") and len(focal) >= 2:
            # Opposite moves keep every total intact: only the reference can see them.
            moved = _shift(out.table, {focal[0]: 1e-6, focal[1]: -1e-6})
        else:
            moved = _shift(out.table, {focal[0]: 1e-6, "sum": 1e-6})
        # Without queries, only the reference or the total check can see the move.
        bare = replace(case, queries=(), assess_sources=False, assess_fused=False)
        bad = Outcome(moved)
        if checks.check(bare, Outcome(out.table)) or not checks.check(bare, bad):
            problems.append("%s: a result moved by 1e-6 was not flagged" % kind)
        if bad.digest() == out.digest():
            problems.append("%s: a moved result has the same digest" % kind)
        belpl = tuple(a if a[0] != "belpl" else (a[0], a[1], a[2] + 1e-6, a[3]) for a in out.answers)
        if not checks.check(case, replace(out, answers=belpl)):
            problems.append("%s: a Bel answer moved by 1e-6 was not flagged" % kind)

    error_case = by_kind["error"]
    if not checks.check_cli(error_case, 0, "A  ∅  sum\n1.0  0.0  1.0\n"):
        problems.append("a fuse process that should have failed was not flagged")
    return problems
