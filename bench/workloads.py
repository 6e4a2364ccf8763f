"""Seeded scenario documents for each benchmark workload.

Every document is generated here, from ``random.Random(f"{workload}:{seed}")``,
so one seed always yields the same byte strings. The program under test only
ever sees the JSON text; the generator also records what the document is
expected to produce (a result, or exactly one typed error), which the checks
in ``checks.py`` use.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

LETTERS = "ABCDEFGHIJKLMNOP"

RULES = ("conjunctive", "dempster", "pcr5", "total-proportional", "average")

#: Error type names the generator plants, as the library spells them.
GUARD = "RuleGuardError"
INVALID = "ValidationError"


@dataclass(frozen=True)
class Case:
    """One scenario document plus everything the checks need to judge it."""

    doc_id: int
    text: str
    raw: dict
    expect_error: str | None = None
    queries: tuple[str, ...] = ()
    assess_sources: bool = False
    assess_fused: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple[Case, ...]


def expr(mask: int, labels: list[str]) -> str:
    return "|".join(label for i, label in enumerate(labels) if mask >> i & 1)


def _weights(rng: random.Random, count: int, total: float, exact: bool) -> list[float]:
    """Positive weights summing to ``total``; rounded to 6 decimals unless exact."""
    if count == 1:
        return [total if exact else round(total, 6)]
    raw = [rng.uniform(0.05, 1.0) for _ in range(count)]
    scale = total / sum(raw)
    if exact:
        return [min(w * scale, total) for w in raw]
    return [round(w * scale, 6) for w in raw]


def _source(
    rng: random.Random,
    name: str,
    labels: list[str],
    masks: list[int],
    hi: float,
    strict: bool,
) -> dict:
    """A source on the range [0, hi]; strict ones sum to exactly hi."""
    # A lenient source may fall short of or overshoot 1, never its range.
    total = hi if strict else rng.uniform(0.7, 1.0) * hi
    weights = _weights(rng, len(masks), total, strict)
    masses = {expr(m, labels): w for m, w in zip(masks, weights)}
    return {"name": name, "range": [0.0, hi], "masses": masses}


def _pick_masks(rng: random.Random, n: int, count: int, with_full: bool) -> list[int]:
    full = (1 << n) - 1
    pool = list(range(1, full)) if with_full else list(range(1, full + 1))
    chosen = rng.sample(pool, count - 1 if with_full else count)
    if with_full:
        chosen.append(full)
    return sorted(chosen)


def _dump(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def _small_case(rng: random.Random, doc_id: int, *, queries: bool) -> Case:
    """A document the size of the published worked examples.

    Every tenth document (doc_id % 10 == 7) is planted to fail with one typed
    error, cycling through four ways of provoking it.
    """
    n = rng.choice((2, 3, 4))
    labels = list(LETTERS[:n])
    full = (1 << n) - 1
    nsrc = rng.choice((2, 3))
    planted = doc_id % 10 == 7
    rule = rng.choice(RULES[:4]) if planted else RULES[doc_id % len(RULES)]
    pipeline: dict = {"rule": rule}
    expect: str | None = None
    classical = rule == "dempster" and not planted

    sources = []
    for i in range(nsrc):
        hi = 1.0 if classical else rng.choice((1.0, 1.1, 1.2, 1.5))
        # Dempster and total-proportional need some product off the empty set.
        masks = _pick_masks(
            rng, n, rng.randint(1, full), with_full=rule in ("dempster", "total-proportional")
        )
        strict = classical or rng.random() < 0.4
        sources.append(_source(rng, "s%d" % (i + 1), labels, masks, hi, strict))
    if classical:
        pipeline["strict"] = rng.random() < 0.5
    if rule == "average":
        # Counter-evidence on one source: only the average rule accepts it.
        s = sources[rng.randrange(nsrc)]
        s["range"] = [-0.2, s["range"][1]]
        s["masses"][rng.choice(sorted(s["masses"]))] = -round(rng.uniform(0.01, 0.2), 6)
    if rule in ("pcr5", "total-proportional"):
        pipeline["normalize"] = rng.random() < 0.7
        if rng.random() < 0.3:
            pipeline["target"] = [0.0, rng.choice((1.0, 1.1, 1.3))]

    if planted:
        kind = (doc_id // 10) % 4
        victim = sources[rng.randrange(nsrc)]
        key = rng.choice(sorted(victim["masses"]))
        if kind == 0:
            victim["range"] = [-0.2, victim["range"][1]]
            victim["masses"][key] = -0.1
            expect = GUARD
        elif kind == 1:
            pipeline = {"rule": "dempster"}
            for s in sources:
                s["range"] = [0.0, 1.5]
            expect = GUARD
        elif kind == 2:
            victim["masses"][key] = victim["range"][1] + 0.25
            expect = INVALID
        else:
            pipeline["strict"] = True
            victim["masses"][key] = victim["masses"][key] + 0.125
            expect = INVALID

    raw = {"frame": labels, "sources": sources, "pipeline": pipeline}
    query = (expr(rng.randint(1, full), labels),) if queries else ()
    return Case(
        doc_id,
        _dump(raw),
        raw,
        expect_error=expect,
        queries=query,
        assess_sources=queries,
        assess_fused=queries,
    )


def _sized_case(
    rng: random.Random,
    doc_id: int,
    n: int,
    focal: int,
    nsrc: int,
    rule: str,
    nqueries: int,
) -> Case:
    labels = list(LETTERS[:n])
    full = (1 << n) - 1
    classical = rule == "dempster"
    sources = []
    for i in range(nsrc):
        masks = _pick_masks(rng, n, focal, with_full=True)
        hi = 1.0 if classical else rng.choice((1.1, 1.2, 1.3))
        strict = classical or rng.random() < 0.5
        sources.append(_source(rng, "s%d" % (i + 1), labels, masks, hi, strict))
    pipeline = {"rule": rule}
    if rule in ("pcr5", "total-proportional"):
        pipeline["normalize"] = True
    raw = {"frame": labels, "sources": sources, "pipeline": pipeline}
    queries = tuple(expr(rng.randint(1, full), labels) for _ in range(nqueries))
    return Case(doc_id, _dump(raw), raw, queries=queries)


def paper_small(seed: int) -> list[Case]:
    rng = random.Random("paper-small:%d" % seed)
    return [_small_case(rng, i, queries=True) for i in range(1000)]


def cli_cold(seed: int) -> list[Case]:
    """Small documents without queries, for ``main()`` in the traced run (cli.main.ms)."""
    rng = random.Random("cli-cold:%d" % seed)
    return [_small_case(rng, i, queries=False) for i in range(40)]


def wide_pcr5(seed: int) -> list[Case]:
    # Ten 12-label documents per 16-label one. The large document is under a
    # tenth of the samples, so the median and the tail rung both land among
    # the 12-label ones; its time still counts in docs_per_s.
    rng = random.Random("wide-pcr5:%d" % seed)
    shapes = ((12, 128),) * 10 + ((16, 256),)
    return [_sized_case(rng, i, n, focal, 2, "pcr5", 3) for i, (n, focal) in enumerate(shapes)]


def dense_fold(seed: int) -> list[Case]:
    # Nine 7-label folds, three per rule, and one 8-label conjunctive fold,
    # for the same reason as above.
    rng = random.Random("dense-fold:%d" % seed)
    rules = ("conjunctive", "total-proportional", "dempster")
    shapes = [(7, 115, 5, rule) for rule in rules * 3] + [(8, 230, 4, "conjunctive")]
    return [_sized_case(rng, i, n, f, s, rule, 0) for i, (n, f, s, rule) in enumerate(shapes)]


def warmup(seed: int) -> list[Case]:
    """One valid small document per rule: the calls a program makes before real work."""
    rng = random.Random("warmup:%d" % seed)
    return [_small_case(rng, i, queries=True) for i in range(len(RULES))]


WHY = {
    "paper-small": "published-example sizes across all five rules and typed errors: "
    "parsing, validation, rendering and per-call overhead dominate",
    "wide-pcr5": "two sparse sources at 12 and 16 labels through pcr5 and rescaling, "
    "then Bel/Pl queries: the pairwise hot loop and large results",
    "dense-fold": "4-5 near-full-powerset sources over 7-8 labels folded by conjunctive, "
    "total-proportional and Dempster, no pcr5: the multi-source fold",
}

GENERATORS = {
    "paper-small": paper_small,
    "wide-pcr5": wide_pcr5,
    "dense-fold": dense_fold,
}


def build(name: str, seed: int) -> Workload:
    return Workload(name, WHY[name], tuple(GENERATORS[name](seed)))
