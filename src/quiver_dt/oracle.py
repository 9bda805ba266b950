"""Sign calibration and its independent cross-check.

The twisted products leave two global signs undetermined: the orientation of
the antisymmetrized Euler pairing and the placement sign of the fixed-edge
linear term.  This module pins both against a table of reference quivers
whose invariants are known in closed form, verifies the resolved calibration
on every quiver it is asked to calibrate, and explains the result
(explain_calibration).  The Euler-form expressions and the block counts
below are each pinned on their own, through one loop over the four
candidate sign pairs (_sole_candidate) with a match test per family.

The exponent forms are recomputed here from scratch by counting graded
blocks of the deformation complex at a graded point, so that agreement with
the Euler-form expressions in the quiver module is a genuine cross-check and
not a tautology.  The naive enumerators and the combinatorial wall-crossing
coefficients that check the invariants and the transform are test code and
live in tests/reference.py.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Dict, List, Tuple

from .quiver import (Calibration, DimVector, SelfDualQuiver, Slope,
                     kronecker_variant, make_calibration, vadd)
from .ratfunc import RatFunc


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

def _reference_quivers():
    for (esigns, vsign) in REFERENCE_TWISTS:
        yield (esigns, vsign), kronecker_variant(esigns, vsign)


def _sole_candidate(matches, failure: str) -> Tuple[int, int]:
    """The one (orientation, placement) under which matches(key, ref,
    orientation, placement) holds on every reference quiver ref; otherwise
    CalibrationError, its message failure followed by the survivors."""
    survivors = [(orientation, placement)
                 for orientation in (1, -1) for placement in (1, -1)
                 if all(matches(key, ref, orientation, placement)
                        for key, ref in _reference_quivers())]
    if len(survivors) != 1:
        raise CalibrationError(f"{failure} {survivors}")
    return survivors[0]


def _euler_forms_match(key, ref: SelfDualQuiver, orientation: int,
                       placement: int) -> bool:
    ref.set_calibration(make_calibration(ref, orientation, placement))
    return (ref.sd_twist_exponent(_UNIT, _ZERO2) == REFERENCE_TWISTS[key]
            and ref.commutation_exponent(_UNIT, _COUNIT)
            == REFERENCE_COMMUTATION)


def _block_counts_match(key, ref: SelfDualQuiver, orientation: int,
                        placement: int) -> bool:
    return (brute_force_sd_twist(ref, _UNIT, _ZERO2, orientation, placement)
            == REFERENCE_TWISTS[key]
            and brute_force_commutation(ref, _UNIT, _COUNIT, orientation)
            == REFERENCE_COMMUTATION)


@cache
def resolve_global_signs() -> Tuple[int, int]:
    """Pin (orientation, placement) for the Euler-form expressions against
    the reference twist table.  Exactly one candidate must survive."""
    return _sole_candidate(
        _euler_forms_match,
        "sign resolution must leave exactly one candidate, got")


@cache
def resolve_brute_force_signs() -> Tuple[int, int]:
    """Same resolution for the block-count expressions.  Kept separate so the
    two code paths are pinned independently before being compared."""
    return _sole_candidate(_block_counts_match,
                           "block-count sign resolution left")


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
