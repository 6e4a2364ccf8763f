"""The n-ary combination in exact rational arithmetic, rounded once.

The n-ary conjunctive combination is taken on ``fractions.Fraction``
instead of floats. Its empty-set weight is the conflict; the rule then
applies its one renormalisation (none, Dempster's division by 1 - k, or
total-proportional's factor 1 + k/S) with the guards that can fire on
nonnegative inputs. Given a target, total-proportional's result is then
rescaled by T/grand, for T the target's total, with the conflict, and its
divisor is grand/T, which may underflow; as the library does, a rescale
is refused only for a target total or grand total that is not positive,
or a divisor beyond the float range. Only the returned report is
rounded, field by field. The average rule instead takes the mean of the
sources' weights on each nonempty set, with no conflict, divisor 1 and
the union of their ranges.
"""

from fractions import Fraction

from overmass.errors import RuleGuardError
from overmass.mass import CLASSICAL_RANGE, SUM_EPSILON, MassFunction, Weights, interval_union
from overmass.rules import FusionReport, RuleId


def fraction_fold(masses, rule, target=None):
    frame = masses[0].frame
    if rule is RuleId.AVERAGE:
        keys = sorted({b for m in masses for b in m.weights.bits} - {0})
        means = {b: sum(Fraction(m.weights.bits.get(b, 0.0)) for m in masses) / len(masses) for b in keys}
        result = MassFunction(frame, Weights(frame, {b: float(w) for b, w in means.items()}),
                              interval_union(*(m.range for m in masses)))
        return FusionReport(result, 0.0, 1.0, rule)
    acc = {b: Fraction(w) for b, w in masses[0].weights.bits.items()}
    for m in masses[1:]:
        combined = {}
        for x, a in acc.items():
            for y, b in m.weights.bits.items():
                combined[x & y] = combined.get(x & y, 0) + a * Fraction(b)
        acc = combined
    k = acc.get(0, Fraction(0))
    grand = sum(acc.values())
    divisor = Fraction(1)
    if rule is RuleId.DEMPSTER:
        if float(k) >= 1.0 - SUM_EPSILON:
            raise RuleGuardError("conflict leaves nothing to renormalize")
        divisor = 1 - k
        acc = {b: w / divisor for b, w in acc.items() if b}
    elif rule is RuleId.TOTAL_PROPORTIONAL and k:
        focal = sum(w for b, w in acc.items() if b)
        if focal == 0:
            # The library names the conflict, so one beyond the float range is refused as such first.
            raise RuleGuardError("no focal weight to absorb the conflict %r" % float(k))
        acc = {b: w * (1 + k / focal) for b, w in acc.items() if b}
    if rule is RuleId.DEMPSTER:
        mass_range = CLASSICAL_RANGE
    else:
        mass_range = interval_union(*(m.range for m in masses))
    if rule is RuleId.TOTAL_PROPORTIONAL and target is not None:
        if target.total <= 0.0:
            raise RuleGuardError("target range sums to %r; normalization needs a positive total" % target.total)
        if grand <= 0:
            raise RuleGuardError("grand total %r gives normalization divisor 0.0, outside (0, inf)" % float(grand))
        divisor = grand / Fraction(target.total)
        try:
            float(divisor)
        except OverflowError:
            # A grand total itself beyond the float range raises OverflowError here instead.
            raise RuleGuardError("target total %r is too small for grand total %r" % (target.total, float(grand)))
        acc = {b: w / divisor for b, w in acc.items()}
        k /= divisor
        mass_range = target
    weights = Weights(frame, {b: float(w) for b, w in acc.items()})
    return FusionReport(MassFunction(frame, weights, mass_range), float(k), float(divisor), rule)
