"""Independent reference arithmetic over integer bitmasks.

Nothing here imports the library: the reference reads the generated
document dictionaries directly, so an error shared by the library's parser
and its combination rules cannot hide itself. Subset i of a frame is the
integer whose bit k is set when the frame's k-th label is a member.
"""

from __future__ import annotations

from math import fsum

EMPTY = "∅"


def masks(raw: dict) -> list[dict[int, float]]:
    """Each source of a document as {bitmask: weight}."""
    labels = raw["frame"]
    index = {label: k for k, label in enumerate(labels)}
    sources = []
    for source in raw["sources"]:
        mass: dict[int, float] = {}
        for expr, w in source["masses"].items():
            bits = 0
            for label in expr.split("|"):
                bits |= 1 << index[label.strip()]
            mass[bits] = float(w)
        sources.append(mass)
    return sources


def conjunctive(m1: dict[int, float], m2: dict[int, float]) -> dict[int, float]:
    parts: dict[int, list[float]] = {}
    for x, w1 in m1.items():
        for y, w2 in m2.items():
            parts.setdefault(x & y, []).append(w1 * w2)
    return {s: fsum(p) for s, p in parts.items()}


def pcr5(m1: dict[int, float], m2: dict[int, float]) -> dict[int, float]:
    """Two-source PCR5 straight from its definition."""
    parts: dict[int, list[float]] = {}
    for x, w1 in m1.items():
        for y, w2 in m2.items():
            p = w1 * w2
            meet = x & y
            if meet:
                parts.setdefault(meet, []).append(p)
            elif w1 + w2 != 0.0:
                parts.setdefault(x, []).append(w1 * p / (w1 + w2))
                parts.setdefault(y, []).append(w2 * p / (w1 + w2))
    return {s: fsum(p) for s, p in parts.items()}


def target_total(raw: dict) -> float:
    """lo + hi of the pipeline target, or of the union of the source ranges."""
    target = raw.get("pipeline", {}).get("target")
    if target is not None:
        return float(target[0]) + float(target[1])
    return min(float(s["range"][0]) for s in raw["sources"]) + max(
        float(s["range"][1]) for s in raw["sources"]
    )


def expected_total(raw: dict) -> float:
    """Grand total the fused result must carry, from the documented conservation laws."""
    pipeline = raw.get("pipeline", {})
    rule = pipeline.get("rule", "pcr5")
    totals = [fsum(float(w) for w in s["masses"].values()) for s in raw["sources"]]
    if rule == "dempster":
        return 1.0
    if rule == "average":
        return fsum(totals) / len(totals)
    if rule in ("pcr5", "total-proportional") and pipeline.get("normalize", True):
        return target_total(raw)
    product = 1.0
    for t in totals:
        product *= t
    return product


def result_lo(raw: dict) -> float:
    """Lower bound of the fused result's declared range."""
    pipeline = raw.get("pipeline", {})
    rule = pipeline.get("rule", "pcr5")
    target = pipeline.get("target")
    if rule == "dempster":
        return 0.0
    if rule in ("pcr5", "total-proportional") and pipeline.get("normalize", True) and target is not None:
        return float(target[0])
    return min(float(s["range"][0]) for s in raw["sources"])


def fused(raw: dict) -> dict[int, float] | None:
    """Reference result for conjunctive folds and two-source PCR5, else None.

    Multi-source PCR5 depends on fold order, so it has no single reference.
    """
    pipeline = raw.get("pipeline", {})
    rule = pipeline.get("rule", "pcr5")
    sources = masks(raw)
    if rule == "conjunctive":
        acc = sources[0]
        for m in sources[1:]:
            acc = conjunctive(acc, m)
        return acc
    if rule == "pcr5" and len(sources) == 2:
        acc = pcr5(*sources)
        if pipeline.get("normalize", True):
            divisor = fsum(acc.values()) / target_total(raw)
            acc = {s: w / divisor for s, w in acc.items()}
        return acc
    return None


def advisory(weights: list[float], lo: float) -> str:
    """Advisory kind the regime layer documents for a mass with these weights."""
    total = fsum(weights)
    if any(w < 0.0 for w in weights) or lo < -1e-9:
        return "counter-evidence-discount"
    if total > 1.0 + 1e-9:
        return "critical-priority"
    if abs(total - 1.0) <= 1e-9:
        return "nominal"
    return "reconnaissance"


def belief_pl(table: dict[str, float], labels: list[str], query: str) -> tuple[float, float]:
    """Bel and Pl of a query set, summed over a rendered result table."""
    index = {label: k for k, label in enumerate(labels)}

    def bits(expr: str) -> int:
        return sum(1 << index[label] for label in expr.split("|"))

    q = bits(query)
    bel, pl = [], []
    for expr, w in table.items():
        if expr in (EMPTY, "sum"):
            continue
        s = bits(expr)
        if s & ~q == 0:
            bel.append(w)
        if s & q:
            pl.append(w)
    return fsum(bel), fsum(pl)
