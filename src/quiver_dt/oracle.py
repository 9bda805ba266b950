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

verify_calibration evaluates each exponent form once per distinct argument
pair of a call, into tables, and reads every identity on every tuple it
checks from them; the block counts are computed once per checked pair.
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

def calibrate_signs(quiver: SelfDualQuiver) -> Calibration:
    """Attach the resolved calibration to the quiver once the exponent
    identities hold on all classes up to bound 2, else give it back its
    earlier one; verify_calibration(quiver, bound) checks them further."""
    cal = make_calibration(quiver, *resolve_global_signs())
    _verify_attached(quiver, cal, 2)
    return cal


def _verify_attached(quiver: SelfDualQuiver, cal: Calibration,
                     bound: int) -> Dict[str, int]:
    """verify_calibration(quiver, bound) with cal attached, reattaching
    the quiver's earlier calibration, or none, if it fails."""
    earlier = quiver.calibration
    quiver.set_calibration(cal)
    try:
        return verify_calibration(quiver, bound)
    except CalibrationError:
        quiver.set_calibration(earlier)
        raise


def ensure_calibrated(quiver: SelfDualQuiver) -> None:
    if quiver.calibration is None:
        calibrate_signs(quiver)


def _row(form, seen: Dict[DimVector, dict], x: DimVector, ys) -> list:
    """[form(x, y) for y in ys], evaluating each argument pair once over all
    the rows built with the same seen (first argument -> {second: value})."""
    known = seen.setdefault(x, {})
    out = []
    for y in ys:
        value = known.get(y)
        if value is None:
            value = known[y] = form(x, y)
        out.append(value)
    return out


def verify_calibration(quiver: SelfDualQuiver, bound: int = 2) -> Dict[str, int]:
    """Check the calibrated exponent forms against the block counts and the
    structural identities they must satisfy.  Returns check counters; raises
    CalibrationError on the first failure.

    The checks run over class pairs, then class and self-dual class pairs,
    then triples of classes of total at most max(1, bound - 1), each in
    graded-lex order, and the first failing tuple in that order is the one
    reported.  Each exponent form is evaluated once per distinct argument
    pair and every identity is checked on every tuple, read from the
    tables; the block counts are computed once per pair."""
    if quiver.calibration is None:
        raise CalibrationError("quiver has no calibration attached")
    b_orient, b_place = resolve_brute_force_signs()
    comm, twist = quiver.commutation_exponent, quiver.sd_twist_exponent
    zero = tuple(0 for _ in quiver.vertices)
    alphas = [zero] + quiver.dim_vectors_up_to(bound)
    thetas = quiver.sd_classes_up_to(bound)
    # alphas is closed under the involution: position of each dual class
    at = {a: i for i, a in enumerate(alphas)}
    dual = [at[quiver.dual_vector(a)] for a in alphas]

    def fail(msg: str):
        raise CalibrationError(msg)

    seen_comm: Dict[DimVector, dict] = {}
    seen_twist: Dict[DimVector, dict] = {}
    comm_table = [_row(comm, seen_comm, a, alphas) for a in alphas]
    for i, a in enumerate(alphas):
        row, di = comm_table[i], dual[i]
        for j, b in enumerate(alphas):
            got = row[j]
            if got != brute_force_commutation(quiver, a, b, b_orient):
                fail(f"commutation exponent mismatch at {a}, {b}")
            if got != -comm_table[j][i]:
                fail(f"commutation exponent not antisymmetric at {a}, {b}")
            if comm_table[dual[j]][di] != got:
                fail(f"commutation exponent breaks duality at {a}, {b}")

    twist_table = [_row(twist, seen_twist, a, thetas) for a in alphas]
    for i, a in enumerate(alphas):
        row, dual_row = twist_table[i], twist_table[dual[i]]
        for k, th in enumerate(thetas):
            got = row[k]
            if got != brute_force_sd_twist(quiver, a, th, b_orient, b_place):
                fail(f"twist exponent mismatch at {a}, {th}")
            if got.denominator != 1:
                fail(f"twist exponent not integral at {a}, {th}")
            if dual_row[k] != -got:
                fail(f"twist exponent breaks duality at {a}, {th}")

    # Bilinearity and associativity on triples of small classes.  The sums
    # b + c and the completions b + th + dual(b) are numbered once per pair,
    # and for each a one row of each form runs over the distinct ones.
    # small starts with the zero class, so the number of b + 0 is that of b.
    small = [zero] + quiver.dim_vectors_up_to(max(1, bound - 1))
    sums: Dict[DimVector, int] = {}
    plus = [[sums.setdefault(vadd(b, c), len(sums)) for c in small]
            for b in small]
    completions: Dict[DimVector, int] = {}
    completed = [[completions.setdefault(quiver.sd_completion(b, th),
                                         len(completions)) for th in thetas]
                 for b in small]
    own = [row[0] for row in plus]
    twist_of_sum = [_row(twist, seen_twist, x, thetas) for x in sums]
    for i, a in enumerate(small):
        comm_a = _row(comm, seen_comm, a, sums)
        twist_a = _row(twist, seen_twist, a, completions)
        comm_a_small = [comm_a[p] for p in own]
        for j, b in enumerate(small):
            comm_ab = comm_a[own[j]]
            lhs = ([comm_a[p] for p in plus[j]]
                   + [comm_ab + t for t in twist_of_sum[plus[i][j]]])
            rhs = ([comm_ab + v for v in comm_a_small]
                   + [twist_a[p] + t
                      for p, t in zip(completed[j], twist_of_sum[own[j]])])
            if lhs != rhs:
                k = next(k for k, pair in enumerate(zip(lhs, rhs))
                         if pair[0] != pair[1])
                if k < len(small):
                    fail(f"commutation exponent not bilinear at {a}, {b}, "
                         f"{small[k]}")
                else:
                    fail(f"twist exponents break associativity at {a}, {b}, "
                         f"{thetas[k - len(small)]}")

    commutation, twists = len(alphas) ** 2, len(alphas) * len(thetas)
    return {"commutation": commutation, "twist": twists,
            "duality": commutation + twists,
            "additivity": len(small) ** 3,
            "associativity": len(small) ** 2 * len(thetas)}


# -- calibration report ----------------------------------------------------------

def verify_reference_values() -> List[Tuple[str, bool, str]]:
    """Recompute a few closed-form invariants of the reference quivers through
    the full pipeline.  Returns (label, passed, detail) rows."""
    from . import invariants
    from .quiver import point_quiver

    rows: List[Tuple[str, bool, str]] = []

    for vsign, want in ((1, Fraction(-1, 4)), (-1, Fraction(1, 4))):
        q = point_quiver(vsign)
        got = invariants.sd_epsilon_integral(q, Slope.trivial(q), (2,)).eval_at(-1)
        label = f"point({vsign:+d}) epsilon at class (2)"
        rows.append((label, got == want, f"got {got}, want {want}"))

    kron = kronecker_variant((1, 1), 1)
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
        counts = _verify_attached(
            quiver, quiver.calibration
            or make_calibration(quiver, orientation, placement), bound)
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
