"""A left fold of fuse in exact rational arithmetic, rounded once: the reference for exact_fold.

Each step is the two-source rule as ``fuse(acc, m, rule, normalize=False)``
computes it, on ``fractions.Fraction`` instead of floats, with the step
guards that can fire on nonnegative inputs. Only the returned report is
rounded, field by field.
"""

from fractions import Fraction

from overmass.errors import RuleGuardError
from overmass.mass import CLASSICAL_RANGE, SUM_EPSILON, MassFunction, Weights, interval_union
from overmass.rules import FusionReport, RuleId


def fraction_left_fold(masses, rule):
    acc = {b: Fraction(w) for b, w in masses[0].weights.bits.items()}
    for step, m in enumerate(masses[1:]):
        if rule is RuleId.DEMPSTER and step and abs(float(sum(acc.values())) - 1.0) > SUM_EPSILON:
            raise RuleGuardError("accumulated mass is not balanced")
        combined = {}
        for x, a in acc.items():
            for y, b in m.weights.bits.items():
                combined[x & y] = combined.get(x & y, 0) + a * Fraction(b)
        k = combined.get(0, Fraction(0))
        divisor = Fraction(1)
        if rule is RuleId.CONJUNCTIVE or k == 0:
            acc = combined
        elif rule is RuleId.DEMPSTER:
            if float(k) >= 1.0 - SUM_EPSILON:
                raise RuleGuardError("conflict leaves nothing to renormalize")
            divisor = 1 - k
            acc = {b: w / divisor for b, w in combined.items() if b}
        else:
            focal = sum(w for b, w in combined.items() if b)
            if focal == 0:
                raise RuleGuardError("no focal weight to absorb the conflict")
            acc = {b: w * (1 + k / focal) for b, w in combined.items() if b}
    frame = masses[0].frame
    if rule is RuleId.DEMPSTER:
        mass_range = CLASSICAL_RANGE
    else:
        mass_range = interval_union(*(m.range for m in masses))
    weights = Weights(frame, {b: float(w) for b, w in acc.items()})
    return FusionReport(MassFunction(frame, weights, mass_range), float(k), (), float(divisor), rule)
