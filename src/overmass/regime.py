"""Operational advisories derived from mass diagnostics.

Maps a mass function (or a fused report) to a dispatch recommendation.
Precedence is fixed: counter-evidence beats surplus beats deficit.
Surplus of independent corroborating reports reads as urgency; a deficit
reads as a coverage gap; negative weight, or a declared range that admits
it, reads as active contradiction that should discount the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .frame import FocalSet
from .mass import SUM_EPSILON, MassFunction, SumClass, classify_sum
from .rules import FusionReport

#: Conflict level above which assess_fusion appends a warning. Arbitrary.
CONFLICT_WARNING_THRESHOLD = 0.5


class AdvisoryKind(Enum):
    CRITICAL_PRIORITY = "critical-priority"
    RECONNAISSANCE = "reconnaissance"
    COUNTER_EVIDENCE_DISCOUNT = "counter-evidence-discount"
    NOMINAL = "nominal"


@dataclass(frozen=True)
class Advisory:
    """A recommendation with the numbers that triggered it.

    The rationale always states the weight sum, and lists every negative
    weight with its focal set when any is present.
    """

    kind: AdvisoryKind
    rationale: str
    triggering_sets: tuple[FocalSet, ...]


def assess(m: MassFunction) -> Advisory:
    """Classify one mass into an advisory.

    Counter-evidence first: any negative weight, or a declared range
    whose lower bound admits one, marks the body of evidence as carrying
    active contradiction even if averaging has already cancelled it out.
    Otherwise the weight total decides: surplus means independently
    corroborated signal, deficit means unassigned belief to go collect,
    balanced means business as usual.
    """
    total = m.total
    negatives = tuple((FocalSet(m.frame, b), w) for b, w in m.weights.bits.items() if w < 0.0)
    if negatives or m.range.lo < -SUM_EPSILON:
        if negatives:
            detail = "counter-evidence: " + ", ".join(
                "%s=%.9g" % (fs, w) for fs, w in negatives
            )
        else:
            detail = (
                "declared range [%g, %g] admits counter-evidence even though "
                "none survives in the weights" % (m.range.lo, m.range.hi)
            )
        rationale = (
            "sum=%.9g; %s; discount or cancel the contradicted reports"
            % (total, detail)
        )
        return Advisory(
            AdvisoryKind.COUNTER_EVIDENCE_DISCOUNT,
            rationale,
            tuple(fs for fs, _ in negatives),
        )

    sum_class = classify_sum(m)
    if sum_class is SumClass.SURPLUS:
        rationale = (
            "sum=%.9g exceeds 1; independent reports reinforce the same events"
            % total
        )
        triggering = tuple(FocalSet(m.frame, b) for b, w in m.weights.bits.items() if b and w > 0.0)
        return Advisory(AdvisoryKind.CRITICAL_PRIORITY, rationale, triggering)
    if sum_class is SumClass.DEFICIT:
        rationale = (
            "sum=%.9g leaves %.9g unassigned; coverage is incomplete"
            % (total, 1.0 - total)
        )
        return Advisory(AdvisoryKind.RECONNAISSANCE, rationale, m.focal_sets())
    rationale = "sum=%.9g; weights balance to a classical assignment" % total
    return Advisory(AdvisoryKind.NOMINAL, rationale, ())


def assess_fusion(report: FusionReport) -> Advisory:
    """Advisory for a fused result, annotated with conflict and divisor."""
    base = assess(report.result)
    extra = "; conflict k=%.9g; divisor=%.9g" % (report.conflict, report.divisor)
    if report.conflict > CONFLICT_WARNING_THRESHOLD:
        extra += "; warning: conflict exceeds %g" % CONFLICT_WARNING_THRESHOLD
    return replace(base, rationale=base.rationale + extra)
