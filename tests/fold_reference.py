"""The n-ary combination in exact rational arithmetic, rounded once.

The n-ary conjunctive combination is taken on ``fractions.Fraction``
instead of floats. Its empty-set weight is the conflict; the rule then
applies its one renormalisation (none, Dempster's division by 1 - k, or
total-proportional's factor 1 + k/S) with the guards that can fire on
nonnegative inputs. Only the returned report is rounded, field by field.
"""

from fractions import Fraction

from overmass.errors import RuleGuardError
from overmass.mass import CLASSICAL_RANGE, SUM_EPSILON, MassFunction, Weights, interval_union
from overmass.rules import FusionReport, RuleId


def fraction_fold(masses, rule):
    acc = {b: Fraction(w) for b, w in masses[0].weights.bits.items()}
    for m in masses[1:]:
        combined = {}
        for x, a in acc.items():
            for y, b in m.weights.bits.items():
                combined[x & y] = combined.get(x & y, 0) + a * Fraction(b)
        acc = combined
    k = acc.get(0, Fraction(0))
    divisor = Fraction(1)
    if rule is RuleId.DEMPSTER:
        if float(k) >= 1.0 - SUM_EPSILON:
            raise RuleGuardError("conflict leaves nothing to renormalize")
        divisor = 1 - k
        acc = {b: w / divisor for b, w in acc.items() if b}
    elif rule is RuleId.TOTAL_PROPORTIONAL and k:
        focal = sum(w for b, w in acc.items() if b)
        if focal == 0:
            raise RuleGuardError("no focal weight to absorb the conflict")
        acc = {b: w * (1 + k / focal) for b, w in acc.items() if b}
    frame = masses[0].frame
    if rule is RuleId.DEMPSTER:
        mass_range = CLASSICAL_RANGE
    else:
        mass_range = interval_union(*(m.range for m in masses))
    weights = Weights(frame, {b: float(w) for b, w in acc.items()})
    return FusionReport(MassFunction(frame, weights, mass_range), float(k), float(divisor), rule)
