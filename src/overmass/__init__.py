"""Evidence combination for mass functions whose weights may leave [0, 1].

Frames and focal sets live in :mod:`overmass.frame`, mass functions and
their diagnostics in :mod:`overmass.mass`, combination rules in
:mod:`overmass.rules`, dispatch advisories in :mod:`overmass.regime`, and
the document format plus CLI in :mod:`overmass.cli`, which importing this
package does not load.
"""

from .errors import EvidenceError, ParseError, RuleGuardError, ValidationError
from .frame import (
    EMPTY_SYMBOL, MAX_FRAME_SIZE, SEPARATOR, FocalSet, Frame, enumerate_powerset, make_frame,
    parse_focal,
)
from .mass import (
    CLASSICAL_RANGE, SUM_EPSILON, BeliefInterval, MassFunction, MassRange, RangeClass, SumClass,
    belief, belief_interval, best_focal, best_singleton, classify_range, classify_sum,
    interval_union, make_mass, plausibility,
)
from .rules import (
    FusionReport, RuleId, TraceRecord, average, conjunctive, dempster, fuse, over_normalize, pcr5,
    total_proportional,
)
from .regime import CONFLICT_WARNING_THRESHOLD, Advisory, AdvisoryKind, assess, assess_fusion

__version__ = "0.1.0"

__all__ = [
    "Advisory",
    "AdvisoryKind",
    "BeliefInterval",
    "CLASSICAL_RANGE",
    "CONFLICT_WARNING_THRESHOLD",
    "EMPTY_SYMBOL",
    "EvidenceError",
    "FocalSet",
    "Frame",
    "FusionReport",
    "MAX_FRAME_SIZE",
    "MassFunction",
    "MassRange",
    "ParseError",
    "RangeClass",
    "RuleGuardError",
    "RuleId",
    "SEPARATOR",
    "SUM_EPSILON",
    "SumClass",
    "TraceRecord",
    "ValidationError",
    "assess",
    "assess_fusion",
    "average",
    "belief",
    "belief_interval",
    "best_focal",
    "best_singleton",
    "classify_range",
    "classify_sum",
    "conjunctive",
    "dempster",
    "enumerate_powerset",
    "fuse",
    "interval_union",
    "make_frame",
    "make_mass",
    "over_normalize",
    "parse_focal",
    "pcr5",
    "plausibility",
    "total_proportional",
]
