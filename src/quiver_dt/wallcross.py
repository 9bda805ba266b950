"""Transforms relating invariants at different stability conditions.

Tables of epsilon integrals cross from one slope function to another by
re-factorisation in the twisted algebra (see wallcross_epsilon).  The same
transform has a combinatorial form, a sum over ordered decompositions of
each class weighted by rational coefficients; those coefficients live in
the oracle module, and the tests check the re-factorisation against them.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from . import invariants
from .quiver import (DimVector, SelfDualQuiver, Slope, ValidationError,
                     graded_lex_key)
from .ratfunc import RatFunc, q_minus_qinv
from .torus import (TorusElem, TorusModElem, integrated_unit, series_diamond,
                    star_exp)


class SlopePair:
    """Source and target slope functions for a single crossing.

    Both live on the same quiver; the source is `plus`, the target `minus`.
    Any pair is admissible because the trivial slope function compares all
    classes equally, hence refines into both members.
    """

    def __init__(self, quiver: SelfDualQuiver, plus: Slope, minus: Slope):
        nv = len(quiver.vertices)
        if len(plus.weights) != nv or len(minus.weights) != nv:
            raise ValidationError("slope weight length does not match quiver")
        self.quiver = quiver
        self.plus = plus
        self.minus = minus

    def validate_self_dual(self) -> None:
        self.plus.validate_self_dual(self.quiver)
        self.minus.validate_self_dual(self.quiver)

    def is_self_dual(self) -> bool:
        try:
            self.validate_self_dual()
        except ValidationError:
            return False
        return True

    def reversed(self) -> "SlopePair":
        return SlopePair(self.quiver, self.minus, self.plus)


@dataclass
class EpsilonTable:
    """Epsilon integrals of every class up to a bound, at one slope."""

    quiver: SelfDualQuiver
    slope: Slope
    bound: int
    eps: Dict[DimVector, RatFunc]
    sd_eps: Optional[Dict[DimVector, RatFunc]] = field(default=None)

    def __eq__(self, other):
        if not isinstance(other, EpsilonTable):
            return NotImplemented
        return (self.quiver is other.quiver and self.bound == other.bound
                and self.slope.weights == other.slope.weights
                and self.eps == other.eps and self.sd_eps == other.sd_eps)


def epsilon_table(quiver: SelfDualQuiver, slope: Slope,
                  bound: int) -> EpsilonTable:
    """Tabulate epsilon integrals directly at the given slope."""
    eps = {a: invariants.epsilon_integral(quiver, slope, a, bound=bound)
           for a in quiver.dim_vectors_up_to(bound)}
    sd_eps = None
    try:
        slope.validate_self_dual(quiver)
    except ValidationError:
        pass
    else:
        sd_eps = {th: invariants.sd_epsilon_integral(quiver, slope, th,
                                                     bound=bound)
                  for th in quiver.sd_classes_up_to(bound)}
    return EpsilonTable(quiver, slope, bound, eps, sd_eps)


def wallcross_epsilon(table: EpsilonTable, pair: SlopePair) -> EpsilonTable:
    """Transform a table of epsilon integrals from the pair's source slope
    to its target slope, without recomputing anything semistable.

    The exponentials of the source slopes' epsilon elements, multiplied in
    descending slope order, give the integrated stack element.  On the
    self-dual side, the square-root series at slope 0, acted on by the
    positive slopes' factors in ascending order, gives the module stack
    element.  An engine at the target slope seeded with both factors them
    again by target slope.
    """
    if table.quiver is not pair.quiver:
        raise ValidationError("table and slope pair use different quivers")
    if table.slope.weights != pair.plus.weights:
        raise ValidationError("table was not computed at the source slope")
    q, bound = pair.quiver, table.bound
    pref = q_minus_qinv()
    groups: Dict[Fraction, Dict[DimVector, RatFunc]] = {}
    for a, e in table.eps.items():
        if e:
            groups.setdefault(pair.plus.value(a), {})[a] = pref * e
    factors = {s: star_exp(TorusElem(q, coeffs, bound), bound)
               for s, coeffs in groups.items()}
    stack = integrated_unit(q, bound)
    for s in sorted(factors, reverse=True):
        stack = stack.star(factors[s])

    sd_stack = None
    sd_side = table.sd_eps is not None and pair.is_self_dual()
    if sd_side:
        e0 = TorusElem(q, groups.get(Fraction(0), {}), bound)
        sd_stack = series_diamond(e0.scale(Fraction(1, 2)),
                                  TorusModElem(q, table.sd_eps, bound),
                                  lambda n: Fraction(1, math.factorial(n)),
                                  bound)
        for s in sorted(s for s in factors if s > 0):
            sd_stack = factors[s].diamond(sd_stack)

    eng = invariants._Engine.seeded(q, pair.minus, bound, stack, sd_stack)
    eps = {a: eng.epsilon(a) for a in eng.classes}
    sd_eps = None
    if sd_side:
        sd_eps = {th: eng.sd_dt_motivic(th)
                  for th in q.sd_classes_up_to(bound)}
    return EpsilonTable(q, pair.minus, bound, eps, sd_eps)


def diff_tables(got: EpsilonTable, want: EpsilonTable) -> List[dict]:
    """Per-class comparison report between two epsilon tables."""
    if got.bound != want.bound:
        raise ValidationError("cannot compare tables with different bounds")
    report = []
    for a in sorted(got.eps, key=graded_lex_key):
        report.append({"side": "linear", "class": a,
                       "match": got.eps[a] == want.eps[a]})
    if got.sd_eps is not None and want.sd_eps is not None:
        for th in sorted(got.sd_eps, key=graded_lex_key):
            report.append({"side": "self-dual", "class": th,
                           "match": got.sd_eps[th] == want.sd_eps[th]})
    return report
