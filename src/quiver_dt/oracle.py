"""Sign calibration and independent cross-check machinery.

The twisted products leave two global signs undetermined: the orientation of
the antisymmetrized Euler pairing and the placement sign of the fixed-edge
linear term.  This module pins both against a table of reference quivers
whose invariants are known in closed form, verifies the resolved calibration
on every quiver it is asked to calibrate, and provides deliberately naive
enumerators that recompute the semistable and epsilon integrals without any
of the shared recursion code, for use as oracles in tests.  The
combinatorial wall-crossing coefficients (coeff_U, coeff_Usd and the sign
coefficients they build on) are test oracles of the same kind: they weight
ordered decompositions in the enumerative form of the transform that
wallcross_epsilon computes by re-factorisation.

The exponent forms are recomputed here from scratch by counting graded
blocks of the deformation complex at a graded point, so that agreement with
the Euler-form expressions in the quiver module is a genuine cross-check and
not a tautology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .motives import sd_stack_class, stack_class
from .quiver import (Calibration, DimVector, SelfDualQuiver, Slope,
                     boxed_vectors, kronecker_variant, make_calibration,
                     vadd, vleq, vsub, vtotal)
from .ratfunc import RatFunc, binom_fraction


class CalibrationError(RuntimeError):
    """Sign resolution failed or a calibrated identity broke."""


# Twist exponents B(e_i, 0) on the six double-arrow reference variants,
# keyed by (edge signs, vertex sign).  These values are forced by the known
# closed-form generating series of those quivers, which the acceptance suite
# reproduces end to end.
REFERENCE_TWISTS: Dict[Tuple[Tuple[int, int], int], int] = {
    ((1, 1), 1): -2,
    ((1, -1), 1): -1,
    ((-1, -1), 1): 0,
    ((1, 1), -1): 0,
    ((1, -1), -1): -1,
    ((-1, -1), -1): -2,
}

# Commutation exponent A((1,0),(0,1)) on the same quivers: forced by the
# projective-line motive showing up as the first nontrivial integral.
REFERENCE_COMMUTATION = -2

_UNIT = (1, 0)
_COUNIT = (0, 1)
_ZERO2 = (0, 0)


# -- first-principles exponent counts -----------------------------------------

def brute_force_commutation(quiver: SelfDualQuiver, alpha: DimVector,
                            beta: DimVector, orientation: int) -> int:
    """Euler count of the positive-weight deformation blocks at a graded
    point with one factor in weight one and the other in weight zero."""
    x, y = (alpha, beta) if orientation == -1 else (beta, alpha)
    nv = range(len(quiver.vertices))
    hom_g = sum(y[i] * x[i] for i in nv)
    hom_v = sum(y[s] * x[t] for s, t in quiver.edge_endpoints)
    hom_vd = sum(x[s] * y[t] for s, t in quiver.edge_endpoints)
    hom_gd = sum(x[i] * y[i] for i in nv)
    # degrees -1, 0, 1, 2
    return -hom_g + hom_v - hom_vd + hom_gd


def brute_force_sd_twist(quiver: SelfDualQuiver, alpha: DimVector,
                         theta: DimVector, orientation: int,
                         placement: int) -> Fraction:
    """Euler count of the positive-weight part of the involution-fixed
    deformation complex at a graded point with blocks of weight 1, 0, -1
    and dimensions alpha, theta, dual(alpha).

    Fixed dimensions are (dim + trace)/2 per block; the involution only has
    nonzero trace on the weight-two blocks of fixed edges, where it acts by
    a signed transpose.  placement is the undetermined global sign of that
    transpose; orientation picks which of alpha, dual(alpha) sits in weight
    one.
    """
    up = alpha if orientation == -1 else quiver.dual_vector(alpha)
    dn = quiver.dual_vector(up)
    md = theta
    nv = range(len(quiver.vertices))

    dim_g = sum(md[i] * up[i] + dn[i] * md[i] + dn[i] * up[i] for i in nv)
    dim_gd = sum(up[i] * md[i] + md[i] * dn[i] + up[i] * dn[i] for i in nv)
    dim_v = 0
    dim_vd = 0
    for s, t in quiver.edge_endpoints:
        dim_v += md[s] * up[t] + dn[s] * md[t] + dn[s] * up[t]
        dim_vd += up[s] * md[t] + md[s] * dn[t] + up[s] * dn[t]
    chi_dim = -dim_g + dim_v - dim_vd + dim_gd

    trace = 0
    for a in quiver.fixed_edges:
        s, t = quiver.edge_endpoints[a]
        trace += quiver.fixed_edge_sign(a) * (up[t] - up[s])
    return Fraction(chi_dim + placement * trace, 2)


# -- global sign resolution ----------------------------------------------------

_RESOLVED: Optional[Tuple[int, int]] = None
_RESOLVED_BRUTE: Optional[Tuple[int, int]] = None


def _reference_quivers():
    for (esigns, vsign) in REFERENCE_TWISTS:
        yield (esigns, vsign), kronecker_variant(esigns, vsign)


def resolve_global_signs() -> Tuple[int, int]:
    """Pin (orientation, placement) for the Euler-form expressions against
    the reference twist table.  Exactly one candidate must survive."""
    global _RESOLVED
    if _RESOLVED is not None:
        return _RESOLVED
    survivors = []
    for orientation in (1, -1):
        for placement in (1, -1):
            ok = True
            for key, ref in _reference_quivers():
                ref.set_calibration(make_calibration(ref, orientation, placement))
                if ref.sd_twist_exponent(_UNIT, _ZERO2) != REFERENCE_TWISTS[key]:
                    ok = False
                    break
                if ref.commutation_exponent(_UNIT, _COUNIT) != REFERENCE_COMMUTATION:
                    ok = False
                    break
            if ok:
                survivors.append((orientation, placement))
    if len(survivors) != 1:
        raise CalibrationError(
            f"sign resolution must leave exactly one candidate, got {survivors}")
    _RESOLVED = survivors[0]
    return _RESOLVED


def resolve_brute_force_signs() -> Tuple[int, int]:
    """Same resolution for the block-count expressions.  Kept separate so the
    two code paths are pinned independently before being compared."""
    global _RESOLVED_BRUTE
    if _RESOLVED_BRUTE is not None:
        return _RESOLVED_BRUTE
    survivors = []
    for orientation in (1, -1):
        for placement in (1, -1):
            ok = True
            for key, ref in _reference_quivers():
                want = Fraction(REFERENCE_TWISTS[key])
                if brute_force_sd_twist(ref, _UNIT, _ZERO2, orientation,
                                        placement) != want:
                    ok = False
                    break
                if brute_force_commutation(ref, _UNIT, _COUNIT,
                                           orientation) != REFERENCE_COMMUTATION:
                    ok = False
                    break
            if ok:
                survivors.append((orientation, placement))
    if len(survivors) != 1:
        raise CalibrationError(
            f"block-count sign resolution left {survivors}")
    _RESOLVED_BRUTE = survivors[0]
    return _RESOLVED_BRUTE


# -- per-quiver calibration -----------------------------------------------------

def calibrate_signs(quiver: SelfDualQuiver, check_bound: int = 2) -> Calibration:
    """Attach the resolved calibration to the quiver after verifying the
    exponent identities on all classes up to check_bound."""
    orientation, placement = resolve_global_signs()
    cal = make_calibration(quiver, orientation, placement)
    quiver.set_calibration(cal)
    verify_calibration(quiver, check_bound)
    return cal


def ensure_calibrated(quiver: SelfDualQuiver, check_bound: int = 2) -> None:
    if quiver.calibration is None:
        calibrate_signs(quiver, check_bound)


def verify_calibration(quiver: SelfDualQuiver, bound: int = 2) -> Dict[str, int]:
    """Check the calibrated exponent forms against the block counts and the
    structural identities they must satisfy.  Returns check counters; raises
    CalibrationError on the first failure."""
    if quiver.calibration is None:
        raise CalibrationError("quiver has no calibration attached")
    b_orient, b_place = resolve_brute_force_signs()
    zero = tuple(0 for _ in quiver.vertices)
    alphas = [zero] + quiver.dim_vectors_up_to(bound)
    thetas = quiver.sd_classes_up_to(bound)
    counts = {"commutation": 0, "twist": 0, "duality": 0, "additivity": 0,
              "associativity": 0}

    def fail(msg: str):
        raise CalibrationError(msg)

    for a in alphas:
        for b in alphas:
            got = quiver.commutation_exponent(a, b)
            if got != brute_force_commutation(quiver, a, b, b_orient):
                fail(f"commutation exponent mismatch at {a}, {b}")
            if got != -quiver.commutation_exponent(b, a):
                fail(f"commutation exponent not antisymmetric at {a}, {b}")
            da, db = quiver.dual_vector(a), quiver.dual_vector(b)
            if quiver.commutation_exponent(db, da) != got:
                fail(f"commutation exponent breaks duality at {a}, {b}")
            counts["commutation"] += 1

    for a in alphas:
        for th in thetas:
            got = quiver.sd_twist_exponent(a, th)
            if got != brute_force_sd_twist(quiver, a, th, b_orient, b_place):
                fail(f"twist exponent mismatch at {a}, {th}")
            if got.denominator != 1:
                fail(f"twist exponent not integral at {a}, {th}")
            if quiver.sd_twist_exponent(quiver.dual_vector(a), th) != -got:
                fail(f"twist exponent breaks duality at {a}, {th}")
            counts["twist"] += 1

    small = [zero] + quiver.dim_vectors_up_to(max(1, bound - 1))
    for a in small:
        for b in small:
            ab = vadd(a, b)
            comm_ab = quiver.commutation_exponent(a, b)
            for c in small:
                lhs = quiver.commutation_exponent(a, vadd(b, c))
                rhs = comm_ab + quiver.commutation_exponent(a, c)
                if lhs != rhs:
                    fail(f"commutation exponent not bilinear at {a}, {b}, {c}")
                counts["additivity"] += 1
            for th in thetas:
                lhs = comm_ab + quiver.sd_twist_exponent(ab, th)
                rhs = (quiver.sd_twist_exponent(a, quiver.sd_completion(b, th))
                       + quiver.sd_twist_exponent(b, th))
                if lhs != rhs:
                    fail(f"twist exponents break associativity at {a}, {b}, {th}")
                counts["associativity"] += 1

    counts["duality"] = counts["commutation"] + counts["twist"]
    return counts


# -- naive decomposition enumerators (test oracles) -----------------------------

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
            raise CalibrationError(
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


# -- combinatorial wall-crossing coefficients (test oracles) ---------------------
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


# -- calibration report ----------------------------------------------------------

def verify_reference_values() -> List[Tuple[str, bool, str]]:
    """Recompute a few closed-form invariants of the reference quivers through
    the full pipeline.  Returns (label, passed, detail) rows."""
    from . import invariants
    from .quiver import point_quiver

    rows: List[Tuple[str, bool, str]] = []

    for vsign, want in ((1, Fraction(-1, 4)), (-1, Fraction(1, 4))):
        q = point_quiver(vsign)
        ensure_calibrated(q)
        got = invariants.sd_epsilon_integral(q, Slope.trivial(q), (2,)).eval_at(-1)
        label = f"point({vsign:+d}) epsilon at class (2)"
        rows.append((label, got == want, f"got {got}, want {want}"))

    kron = kronecker_variant((1, 1), 1)
    ensure_calibrated(kron)
    slope = Slope.from_dict(kron, {"i": 1, "j": -1})
    got = invariants.dt_mot(kron, slope, (1, 1))
    want_rf = RatFunc.q_power(1) + RatFunc.q_power(-1)
    rows.append(("double-arrow motivic invariant at (1,1)", got == want_rf,
                 f"got {got}, want {want_rf}"))
    return rows


def explain_calibration(quiver: SelfDualQuiver, bound: int = 2) -> Tuple[str, bool]:
    """Human-readable calibration report for a quiver; returns (text, ok)."""
    lines: List[str] = []
    ok = True
    try:
        orientation, placement = resolve_global_signs()
        b_or, b_pl = resolve_brute_force_signs()
        lines.append("global sign resolution")
        lines.append(f"  euler-form family:  orientation={orientation:+d} "
                     f"placement={placement:+d}")
        lines.append(f"  block-count family: orientation={b_or:+d} "
                     f"placement={b_pl:+d}")
        lines.append("  reference twist table")
        for key, ref in _reference_quivers():
            ref.set_calibration(make_calibration(ref, orientation, placement))
            got = ref.sd_twist_exponent(_UNIT, _ZERO2)
            lines.append(f"    edge signs {key[0]}, vertex sign {key[1]:+d}: "
                         f"twist {got} (expected {REFERENCE_TWISTS[key]})")
        ensure_calibrated(quiver, bound)
        counts = verify_calibration(quiver, bound)
        kappa = ", ".join(str(k) for k in quiver.calibration.kappa)
        lines.append("quiver calibration")
        lines.append(f"  kappa weights: ({kappa})")
        lines.append(f"  identity checks up to bound {bound}: " +
                     ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        lines.append("reference pipeline values")
        for label, passed, detail in verify_reference_values():
            ok = ok and passed
            lines.append(f"  [{'ok' if passed else 'FAIL'}] {label}: {detail}")
    except CalibrationError as exc:
        ok = False
        lines.append(f"calibration failed: {exc}")
    return "\n".join(lines), ok
