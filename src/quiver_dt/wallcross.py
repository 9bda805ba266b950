"""Transforms relating invariants at different stability conditions.

Tables of epsilon integrals cross from one slope function to another by
re-factorisation in the twisted algebra (see wallcross_epsilon).  The same
transform has a combinatorial form, governed by coefficients attached to
ordered decompositions of a class: sign products for the semistable
integrals (coeff_S, coeff_Ssd), and rational averages over nested
regroupings for the epsilon integrals (coeff_U, coeff_Usd).  This module
evaluates those coefficients and verifies their composition law; the tests
check the re-factorisation against the sum they weight.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import invariants
from .quiver import (DimVector, SelfDualQuiver, Slope, ValidationError, vadd,
                     vsub, graded_lex_key)
from .ratfunc import RatFunc, binom_fraction, inv_q_minus_qinv, q_minus_qinv
from .torus import (TorusElem, TorusModElem, integrated_unit, series_diamond,
                    star_exp)

Parts = Sequence[DimVector]


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


def _partial_sums(parts: Parts) -> List[DimVector]:
    """Prefix sums: entry i is parts[0] + ... + parts[i-1]."""
    acc = tuple(0 for _ in parts[0])
    out = [acc]
    for p in parts:
        acc = vadd(acc, p)
        out.append(acc)
    return out


def coeff_S(parts: Parts, pair: SlopePair) -> int:
    """Sign of one ordered decomposition in the semistable-integral
    transform: a product over adjacent positions that is +1 when the source
    slopes step down while the target sees the left prefix at or below the
    right suffix, -1 in the opposite configuration, and 0 otherwise."""
    n = len(parts)
    if n <= 1:
        return 1
    tp = [pair.plus.value(p) for p in parts]
    pre = _partial_sums(parts)
    total = pre[-1]
    out = 1
    for i in range(1, n):
        left = pair.minus.value(pre[i])
        right = pair.minus.value(vsub(total, pre[i]))
        if tp[i - 1] > tp[i] and left <= right:
            pass
        elif tp[i - 1] <= tp[i] and left > right:
            out = -out
        else:
            return 0
    return out


def coeff_Ssd(parts: Parts, pair: SlopePair) -> int:
    """Self-dual analogue of coeff_S: every position contributes a factor,
    the slope after the last part counts as 0, and prefixes are compared
    against 0 on the target side."""
    n = len(parts)
    if n == 0:
        return 1
    tp = [pair.plus.value(p) for p in parts] + [Fraction(0)]
    pre = _partial_sums(parts)
    out = 1
    for i in range(1, n + 1):
        left = pair.minus.value(pre[i])
        if tp[i - 1] > tp[i] and left <= 0:
            pass
        elif tp[i - 1] <= tp[i] and left > 0:
            out = -out
        else:
            return 0
    return out


def _cuts(n: int, end_at_n: bool):
    """Strictly increasing cut points 0 < a_1 < ... < a_m, with a_m = n when
    end_at_n, else a_m <= n (including the empty sequence)."""
    if end_at_n:
        if n == 0:
            yield ()
            return
        for inner in itertools.chain.from_iterable(
                itertools.combinations(range(1, n), k) for k in range(n)):
            yield inner + (n,)
    else:
        for k in range(n + 1):
            yield from itertools.combinations(range(1, n + 1), k)


def _blocks(parts: Parts, cuts: Tuple[int, ...]) -> List[Parts]:
    lo = 0
    out = []
    for hi in cuts:
        out.append(parts[lo:hi])
        lo = hi
    return out


def _sum_parts(parts: Parts) -> DimVector:
    acc = parts[0]
    for p in parts[1:]:
        acc = vadd(acc, p)
    return acc


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _constant_blocks(parts: Parts, cuts: Tuple[int, ...],
                     slope: Slope) -> Optional[List[DimVector]]:
    """Block sums of the cut decomposition, or None unless every part in a
    block shares the slope of the block sum."""
    sums = []
    for block in _blocks(parts, cuts):
        s = _sum_parts(block)
        v = slope.value(s)
        if any(slope.value(p) != v for p in block):
            return None
        sums.append(s)
    return sums


def coeff_U(parts: Parts, pair: SlopePair) -> Fraction:
    """Rational weight of one ordered decomposition in the epsilon
    transform: a sum over two nested regroupings, the inner one constant in
    source slope and weighted by inverse factorials, the outer one constant
    in target slope and weighted by (-1)^(l-1)/l times sign coefficients of
    the regrouped sums."""
    n = len(parts)
    if n == 0:
        return Fraction(0)
    target = pair.minus.value(_sum_parts(parts))
    out = Fraction(0)
    for a_cuts in _cuts(n, end_at_n=True):
        betas = _constant_blocks(parts, a_cuts, pair.plus)
        if betas is None:
            continue
        inv_fact = Fraction(1)
        lo = 0
        for hi in a_cuts:
            inv_fact /= _factorial(hi - lo)
            lo = hi
        m = len(betas)
        for b_cuts in _cuts(m, end_at_n=True):
            ell = len(b_cuts)
            sign = 1
            ok = True
            lo = 0
            for hi in b_cuts:
                gamma = _sum_parts(betas[lo:hi])
                if pair.minus.value(gamma) != target:
                    ok = False
                    break
                sign *= coeff_S(betas[lo:hi], pair)
                if sign == 0:
                    ok = False
                    break
                lo = hi
            if not ok:
                continue
            out += Fraction((-1) ** (ell - 1) * sign, ell) * inv_fact
    return out


def coeff_Usd(parts: Parts, pair: SlopePair) -> Fraction:
    """Self-dual analogue of coeff_U.  The inner regrouping may stop short
    of the last part; leftover parts must have source slope 0 and contribute
    1 / (2^k k!).  The outer regrouping may also stop short, its blocks must
    have target slope 0, and the remaining inner sums contribute a self-dual
    sign coefficient."""
    n = len(parts)
    if n == 0:
        return Fraction(1)
    out = Fraction(0)
    for a_cuts in _cuts(n, end_at_n=False):
        a_top = a_cuts[-1] if a_cuts else 0
        if any(pair.plus.value(p) != 0 for p in parts[a_top:]):
            continue
        betas = _constant_blocks(parts[:a_top], a_cuts, pair.plus)
        if betas is None:
            continue
        inv_fact = Fraction(1)
        lo = 0
        for hi in a_cuts:
            inv_fact /= _factorial(hi - lo)
            lo = hi
        tail = n - a_top
        inv_fact /= 2 ** tail * _factorial(tail)
        m = len(betas)
        for b_cuts in _cuts(m, end_at_n=False):
            ell = len(b_cuts)
            sign = 1
            ok = True
            lo = 0
            for hi in b_cuts:
                if pair.minus.value(_sum_parts(betas[lo:hi])) != 0:
                    ok = False
                    break
                sign *= coeff_S(betas[lo:hi], pair)
                if sign == 0:
                    ok = False
                    break
                lo = hi
            if not ok:
                continue
            sign *= coeff_Ssd(betas[lo:], pair)
            if sign == 0:
                continue
            out += binom_fraction(Fraction(-1, 2), ell) * sign * inv_fact
    return out


def check_composition(parts: Parts, tau1: Slope, tau2: Slope,
                      tau3: Slope) -> bool:
    """Both sign coefficients compose across an intermediate slope function:
    crossing tau1 -> tau2 on blocks times tau2 -> tau3 on block sums."""
    quiver_len = len(parts[0]) if parts else len(tau1.weights)
    pair13 = _raw_pair(quiver_len, tau1, tau3)
    pair12 = _raw_pair(quiver_len, tau1, tau2)
    pair23 = _raw_pair(quiver_len, tau2, tau3)
    n = len(parts)

    lhs = coeff_S(parts, pair13)
    rhs = 0
    for a_cuts in _cuts(n, end_at_n=True):
        term = coeff_S([_sum_parts(b) for b in _blocks(parts, a_cuts)],
                       pair23)
        for block in _blocks(parts, a_cuts):
            term *= coeff_S(block, pair12)
        rhs += term
    if lhs != rhs:
        return False

    lhs_sd = coeff_Ssd(parts, pair13)
    rhs_sd = 0
    for a_cuts in _cuts(n, end_at_n=False):
        a_top = a_cuts[-1] if a_cuts else 0
        term = coeff_Ssd([_sum_parts(b) for b in _blocks(parts[:a_top], a_cuts)],
                         pair23)
        for block in _blocks(parts[:a_top], a_cuts):
            term *= coeff_S(block, pair12)
        term *= coeff_Ssd(parts[a_top:], pair12)
        rhs_sd += term
    return lhs_sd == rhs_sd


class _BareQuiver:
    """Stand-in carrying only a vertex count, for purely combinatorial
    coefficient evaluation detached from any particular quiver."""

    def __init__(self, n: int):
        self.vertices = [str(i) for i in range(n)]


def _raw_pair(n_vertices: int, plus: Slope, minus: Slope) -> SlopePair:
    return SlopePair(_BareQuiver(n_vertices), plus, minus)


# -- epsilon tables and their transforms ---------------------------------------


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
                                  lambda n: Fraction(1, _factorial(n)), bound)
        for s in sorted(s for s in factors if s > 0):
            sd_stack = factors[s].diamond(sd_stack)

    eng = invariants._Engine.seeded(q, pair.minus, bound, stack, sd_stack)
    inv = inv_q_minus_qinv()
    eps = {a: eng.dt_motivic(a) * inv for a in eng.classes}
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
