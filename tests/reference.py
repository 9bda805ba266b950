"""Reference computations for the tests, independent of the production
recursion and transform.

The naive enumerators recompute the semistable and epsilon integrals by
explicit enumeration of ordered decompositions, with none of the shared
recursion code.  The combinatorial wall-crossing coefficients (coeff_U,
coeff_Usd and the sign coefficients they build on) weight ordered
decompositions in the enumerative form of the transform that
wallcross_epsilon computes by re-factorisation.  bps_invariants inverts
the multiple-cover formula that expresses the motivic DT invariants
through the integer BPS invariants.

This module imports only quiver_dt.quiver, quiver_dt.motives and
quiver_dt.ratfunc, never quiver_dt.invariants or quiver_dt.wallcross, so
that agreement with them is a check and not a tautology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from quiver_dt.motives import sd_stack_class, stack_class
from quiver_dt.quiver import (DimVector, SelfDualQuiver, Slope, boxed_vectors,
                              vadd, vleq, vsub, vtotal)
from quiver_dt.ratfunc import RatFunc, q_minus_qinv


def binom_fraction(top: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient binom(top, n) for integer n >= 0."""
    out = Fraction(1)
    for i in range(n):
        out *= (top - i)
    for i in range(1, n + 1):
        out /= i
    return out


# -- naive decomposition enumerators --------------------------------------------

def _nonzero_boxed(limit: DimVector) -> List[DimVector]:
    return [v for v in boxed_vectors(limit) if vtotal(v) > 0]


def direct_semistable_integral(quiver: SelfDualQuiver, slope: Slope,
                               alpha: DimVector) -> RatFunc:
    """Semistable integral by explicit enumeration of ordered decompositions
    whose proper prefixes sit strictly above the total slope.  Exponential;
    for cross-checks on small classes only."""
    if vtotal(alpha) == 0:
        return RatFunc(1)
    target = slope.value(alpha)
    out = RatFunc(0)

    def finalize(parts: List[DimVector]) -> None:
        nonlocal out
        n = len(parts)
        expo = 0
        for i in range(n):
            for j in range(i + 1, n):
                expo += quiver.commutation_exponent(parts[i], parts[j])
        term = RatFunc.q_power(expo)
        for p in parts:
            term = term * stack_class(quiver, p)
        if n % 2 == 0:
            term = -term
        out = out + term

    def rec(prefix: DimVector, parts: List[DimVector]) -> None:
        rem = vsub(alpha, prefix)
        if vtotal(rem) == 0:
            finalize(parts)
            return
        for part in _nonzero_boxed(rem):
            nxt = vadd(prefix, part)
            if nxt != alpha and slope.value(nxt) <= target:
                continue
            rec(nxt, parts + [part])

    rec(tuple(0 for _ in alpha), [])
    return out


def direct_sd_semistable_integral(quiver: SelfDualQuiver, slope: Slope,
                                  theta: DimVector) -> RatFunc:
    """Self-dual semistable integral by explicit enumeration of pairs of an
    ordered linear decomposition with all prefix slopes strictly positive and
    a self-dual remainder class."""
    if not quiver.is_sd_class(theta):
        raise ValueError(f"{theta} is not a self-dual class")
    slope.validate_self_dual(quiver)
    out = RatFunc(0)
    zero = tuple(0 for _ in theta)

    def finalize(parts: List[DimVector], rho: DimVector) -> None:
        nonlocal out
        expo = Fraction(0)
        suffix = rho
        for part in reversed(parts):
            expo += quiver.sd_twist_exponent(part, suffix)
            suffix = vadd(suffix, vadd(part, quiver.dual_vector(part)))
        if expo.denominator != 1:
            raise ArithmeticError(
                f"non-integral twist exponent in decomposition {parts}, {rho}")
        term = RatFunc.q_power(int(expo))
        for p in parts:
            term = term * stack_class(quiver, p)
        term = term * sd_stack_class(quiver, rho)
        if len(parts) % 2:
            term = -term
        out = out + term

    def rec(prefix: DimVector, parts: List[DimVector]) -> None:
        used = vadd(prefix, quiver.dual_vector(prefix))
        rem = vsub(theta, used)
        if min(rem) >= 0 and quiver.is_sd_class(rem):
            finalize(parts, rem)
        if vtotal(rem) <= 0:
            return
        for part in _nonzero_boxed(rem):
            if not vleq(vadd(part, quiver.dual_vector(part)), rem):
                continue
            nxt = vadd(prefix, part)
            if slope.value(nxt) <= 0:
                continue
            rec(nxt, parts + [part])

    rec(zero, [])
    return out


def direct_epsilon_integral(quiver: SelfDualQuiver, slope: Slope,
                            alpha: DimVector) -> RatFunc:
    """Epsilon integral by explicit enumeration of ordered decompositions
    into parts of equal slope, on top of the naive semistable integrals."""
    if vtotal(alpha) == 0:
        return RatFunc(0)
    target = slope.value(alpha)
    out = RatFunc(0)

    def finalize(parts: List[DimVector]) -> None:
        nonlocal out
        n = len(parts)
        expo = 0
        for i in range(n):
            for j in range(i + 1, n):
                expo += quiver.commutation_exponent(parts[i], parts[j])
        term = RatFunc.q_power(expo)
        for p in parts:
            term = term * direct_semistable_integral(quiver, slope, p)
        coeff = Fraction(1, n) if n % 2 else Fraction(-1, n)
        out = out + term * RatFunc(coeff)

    def rec(prefix: DimVector, parts: List[DimVector]) -> None:
        rem = vsub(alpha, prefix)
        if vtotal(rem) == 0:
            finalize(parts)
            return
        for part in _nonzero_boxed(rem):
            if slope.value(part) != target:
                continue
            rec(vadd(prefix, part), parts + [part])

    rec(tuple(0 for _ in alpha), [])
    return out


def direct_sd_epsilon_integral(quiver: SelfDualQuiver, slope: Slope,
                               theta: DimVector) -> RatFunc:
    """Self-dual epsilon integral by explicit enumeration: ordered slope-zero
    linear parts with square-root binomial weights times a self-dual rest."""
    if not quiver.is_sd_class(theta):
        raise ValueError(f"{theta} is not a self-dual class")
    slope.validate_self_dual(quiver)
    out = RatFunc(0)
    zero = tuple(0 for _ in theta)

    def finalize(parts: List[DimVector], rho: DimVector) -> None:
        nonlocal out
        expo = Fraction(0)
        suffix = rho
        for part in reversed(parts):
            expo += quiver.sd_twist_exponent(part, suffix)
            suffix = vadd(suffix, vadd(part, quiver.dual_vector(part)))
        assert expo.denominator == 1
        term = RatFunc.q_power(int(expo))
        for p in parts:
            term = term * direct_semistable_integral(quiver, slope, p)
        term = term * direct_sd_semistable_integral(quiver, slope, rho)
        out = out + term * RatFunc(binom_fraction(Fraction(-1, 2), len(parts)))

    def rec(prefix: DimVector, parts: List[DimVector]) -> None:
        used = vadd(prefix, quiver.dual_vector(prefix))
        rem = vsub(theta, used)
        if min(rem) >= 0 and quiver.is_sd_class(rem):
            finalize(parts, rem)
        if vtotal(rem) <= 0:
            return
        for part in _nonzero_boxed(rem):
            if not vleq(vadd(part, quiver.dual_vector(part)), rem):
                continue
            if slope.value(part) != 0:
                continue
            rec(vadd(prefix, part), parts + [part])

    rec(zero, [])
    return out


# -- multiplicity-averaged identities --------------------------------------------

def _inverse_multiplicities(slope: Slope, parts: List[DimVector],
                            zero_weight: int) -> Fraction:
    """1 / prod_s m_s!, m_s the number of parts of slope value s, times
    zero_weight ** -m_0."""
    counts: dict = {}
    for p in parts:
        v = slope.value(p)
        counts[v] = counts.get(v, 0) + 1
    w = zero_weight ** counts.get(Fraction(0), 0)
    for m in counts.values():
        w *= math.factorial(m)
    return Fraction(1, w)


def averaged_stack_class(quiver: SelfDualQuiver, slope: Slope,
                         alpha: DimVector,
                         eps: Callable[[DimVector], RatFunc]) -> RatFunc:
    """The component integral of alpha as the sum, over the ordered
    decompositions alpha = a_1 + ... + a_n with slope values
    non-increasing, of q^(sum_{i<j} <a_i, a_j>) eps(a_1) ... eps(a_n) /
    prod_s m_s!, m_s the number of parts of value s.  eps(a) is the epsilon
    integral of a."""
    total = RatFunc(0)

    def rec(rem: DimVector, parts: List[DimVector], product: RatFunc) -> None:
        nonlocal total
        if vtotal(rem) == 0:
            expo = sum(quiver.commutation_exponent(parts[i], parts[j])
                       for i in range(len(parts))
                       for j in range(i + 1, len(parts)))
            total = total + (RatFunc.q_power(expo) * product
                             * _inverse_multiplicities(slope, parts, 1))
            return
        for part in _nonzero_boxed(rem):
            if parts and slope.value(parts[-1]) < slope.value(part):
                continue
            e = eps(part)
            if e:
                rec(vsub(rem, part), parts + [part], product * e)

    rec(alpha, [], RatFunc(1))
    return total


def averaged_sd_stack_class(quiver: SelfDualQuiver, slope: Slope,
                            theta: DimVector,
                            eps: Callable[[DimVector], RatFunc],
                            sd_eps: Callable[[DimVector], RatFunc]
                            ) -> RatFunc:
    """The self-dual component integral of theta as the sum, over theta =
    sum_i (a_i + a_i^v) + rho with slope values non-increasing and
    non-negative, of the twist q^(sum_i B(a_i, rho + sum_{j>i} (a_j +
    a_j^v))) times eps(a_1) ... eps(a_n) sd_eps(rho) / (2^m_0 prod_s m_s!),
    m_s the number of parts of value s.  sd_eps(rho) is the self-dual
    epsilon integral of rho."""
    total = RatFunc(0)

    def rec(rem: DimVector, parts: List[DimVector], product: RatFunc) -> None:
        nonlocal total
        residue = sd_eps(rem) if quiver.is_sd_class(rem) else RatFunc(0)
        if residue:
            expo = Fraction(0)
            suffix = rem
            for part in reversed(parts):
                expo += quiver.sd_twist_exponent(part, suffix)
                suffix = vadd(suffix, vadd(part, quiver.dual_vector(part)))
            total = total + (RatFunc.q_power(int(expo)) * product * residue
                             * _inverse_multiplicities(slope, parts, 2))
        for part in _nonzero_boxed(rem):
            if slope.value(part) < 0 or (
                    parts and slope.value(parts[-1]) < slope.value(part)):
                continue
            pd = vadd(part, quiver.dual_vector(part))
            if vleq(pd, rem):
                e = eps(part)
                if e:
                    rec(vsub(rem, pd), parts + [part], product * e)

    rec(theta, [], RatFunc(1))
    return total


# -- combinatorial wall-crossing coefficients -----------------------------------
#
# Each coefficient weighs one ordered decomposition of a class in the
# transform from the source slope `plus` to the target slope `minus`:
# sign products for the semistable integrals (coeff_S, coeff_Ssd), and
# rational averages over nested regroupings for the epsilon integrals
# (coeff_U, coeff_Usd).

Parts = Sequence[DimVector]


def _partial_sums(parts: Parts) -> List[DimVector]:
    """Prefix sums: entry i is parts[0] + ... + parts[i-1]."""
    acc = tuple(0 for _ in parts[0])
    out = [acc]
    for p in parts:
        acc = vadd(acc, p)
        out.append(acc)
    return out


def coeff_S(parts: Parts, plus: Slope, minus: Slope) -> int:
    """Sign of one ordered decomposition in the semistable-integral
    transform: a product over adjacent positions that is +1 when the source
    slopes step down while the target sees the left prefix at or below the
    right suffix, -1 in the opposite configuration, and 0 otherwise."""
    n = len(parts)
    if n <= 1:
        return 1
    tp = [plus.value(p) for p in parts]
    pre = _partial_sums(parts)
    total = pre[-1]
    out = 1
    for i in range(1, n):
        left = minus.value(pre[i])
        right = minus.value(vsub(total, pre[i]))
        if tp[i - 1] > tp[i] and left <= right:
            pass
        elif tp[i - 1] <= tp[i] and left > right:
            out = -out
        else:
            return 0
    return out


def coeff_Ssd(parts: Parts, plus: Slope, minus: Slope) -> int:
    """Self-dual analogue of coeff_S: every position contributes a factor,
    the slope after the last part counts as 0, and prefixes are compared
    against 0 on the target side."""
    n = len(parts)
    if n == 0:
        return 1
    tp = [plus.value(p) for p in parts] + [Fraction(0)]
    pre = _partial_sums(parts)
    out = 1
    for i in range(1, n + 1):
        left = minus.value(pre[i])
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


def _inv_block_factorials(cuts: Tuple[int, ...]) -> Fraction:
    """1 / prod of the block lengths' factorials."""
    out = Fraction(1)
    lo = 0
    for hi in cuts:
        out /= math.factorial(hi - lo)
        lo = hi
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


def coeff_U(parts: Parts, plus: Slope, minus: Slope) -> Fraction:
    """Rational weight of one ordered decomposition in the epsilon
    transform: a sum over two nested regroupings, the inner one constant in
    source slope and weighted by inverse factorials, the outer one constant
    in target slope and weighted by (-1)^(l-1)/l times sign coefficients of
    the regrouped sums."""
    n = len(parts)
    if n == 0:
        return Fraction(0)
    target = minus.value(_sum_parts(parts))
    out = Fraction(0)
    for a_cuts in _cuts(n, end_at_n=True):
        betas = _constant_blocks(parts, a_cuts, plus)
        if betas is None:
            continue
        inv_fact = _inv_block_factorials(a_cuts)
        for b_cuts in _cuts(len(betas), end_at_n=True):
            ell = len(b_cuts)
            sign = 1
            for block in _blocks(betas, b_cuts):
                if minus.value(_sum_parts(block)) != target:
                    sign = 0
                    break
                sign *= coeff_S(block, plus, minus)
                if sign == 0:
                    break
            if sign:
                out += Fraction((-1) ** (ell - 1) * sign, ell) * inv_fact
    return out


def coeff_Usd(parts: Parts, plus: Slope, minus: Slope) -> Fraction:
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
        if any(plus.value(p) != 0 for p in parts[a_top:]):
            continue
        betas = _constant_blocks(parts[:a_top], a_cuts, plus)
        if betas is None:
            continue
        tail = n - a_top
        inv_fact = (_inv_block_factorials(a_cuts)
                    / (2 ** tail * math.factorial(tail)))
        for b_cuts in _cuts(len(betas), end_at_n=False):
            sign = 1
            for block in _blocks(betas, b_cuts):
                if minus.value(_sum_parts(block)) != 0:
                    sign = 0
                    break
                sign *= coeff_S(block, plus, minus)
                if sign == 0:
                    break
            b_top = b_cuts[-1] if b_cuts else 0
            if sign:
                sign *= coeff_Ssd(betas[b_top:], plus, minus)
            if sign:
                out += (binom_fraction(Fraction(-1, 2), len(b_cuts)) * sign
                        * inv_fact)
    return out


def check_composition(parts: Parts, tau1: Slope, tau2: Slope,
                      tau3: Slope) -> bool:
    """Both sign coefficients compose across an intermediate slope function:
    crossing tau1 -> tau2 on blocks times tau2 -> tau3 on block sums."""
    n = len(parts)
    lhs = coeff_S(parts, tau1, tau3)
    rhs = 0
    for a_cuts in _cuts(n, end_at_n=True):
        blocks = _blocks(parts, a_cuts)
        term = coeff_S([_sum_parts(b) for b in blocks], tau2, tau3)
        for block in blocks:
            term *= coeff_S(block, tau1, tau2)
        rhs += term
    if lhs != rhs:
        return False

    lhs_sd = coeff_Ssd(parts, tau1, tau3)
    rhs_sd = 0
    for a_cuts in _cuts(n, end_at_n=False):
        a_top = a_cuts[-1] if a_cuts else 0
        blocks = _blocks(parts[:a_top], a_cuts)
        term = coeff_Ssd([_sum_parts(b) for b in blocks], tau2, tau3)
        for block in blocks:
            term *= coeff_S(block, tau1, tau2)
        term *= coeff_Ssd(parts[a_top:], tau1, tau2)
        rhs_sd += term
    return lhs_sd == rhs_sd


# -- integer BPS invariants -------------------------------------------------------

def _at_power(f: RatFunc, k: int) -> RatFunc:
    """f(q^k)."""
    if not f:
        return f
    return RatFunc.from_frac_polys(k * f.shift,
                                   {k * e: c for e, c in f.num.items()},
                                   {k * e: c for e, c in f.den.items()})


def bps_invariants(quiver: SelfDualQuiver,
                   dt_mot: Dict[DimVector, RatFunc]) -> Dict[DimVector, RatFunc]:
    """The BPS invariants Omega of the classes of dt_mot, which holds the
    motivic DT invariants of one slope at every class alpha / k of each of
    its classes alpha.  They solve

        DTmot(alpha) = sum over k | alpha of (-1)^((k - 1) chi(beta, beta)) / k
                       (q - 1/q) / (q^k - q^-k) Omega(beta)(q^k),

    beta = alpha / k and chi the Euler form, for the k = 1 term Omega(alpha),
    class by class in order of total."""
    omega: Dict[DimVector, RatFunc] = {}
    for a in sorted(dt_mot, key=vtotal):
        rest = dt_mot[a]
        g = math.gcd(*a)
        for k in range(2, g + 1):
            if g % k == 0:
                b = tuple(x // k for x in a)
                sign = -1 if (k - 1) * quiver.euler_form(b, b) % 2 else 1
                rest = rest - (RatFunc(Fraction(sign, k)) * q_minus_qinv()
                               / _at_power(q_minus_qinv(), k)
                               * _at_power(omega[b], k))
        omega[a] = rest
    return omega
