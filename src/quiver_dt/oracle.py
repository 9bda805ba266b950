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
pair of a call, into tables, and checks every identity on every tuple a
whole row at a time; the block counts are computed once per class row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import floor
from operator import add, neg
from typing import Dict, List, Tuple

from .quiver import (Calibration, SelfDualQuiver, Slope,
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

def _count_table(quiver: SelfDualQuiver, rows, others) -> List[List[int]]:
    """For each (pairs, c) of rows, c plus the Euler count of the
    positive-weight deformation blocks at a graded point, for each class x
    of others as the unknown block: c + sum k_v x_v, the form k counted once
    per row and summed a column of others at a time.  pairs lists the block
    pairs (lower, upper) by weight, a class or None for the unknown block.
    A pair meets in Hom(lower_s, upper_t) in degree 0 and Hom(upper_s,
    lower_t) in degree 1 along each edge s -> t; its blocks at a vertex, in
    degrees -1 and 2, are dual and cancel."""
    homs = [(1, s, t) for s, t in quiver.edge_endpoints]
    homs += [(-1, t, s) for s, t in quiver.edge_endpoints]
    columns = list(zip(*others))
    table = []
    for pairs, c in rows:
        k = [0] * len(quiver.vertices)
        for lo, hi in pairs:
            for sign, i, j in homs:  # sign dim Hom(lo_i, hi_j)
                if lo is None:
                    k[i] += sign * hi[j]
                elif hi is None:
                    k[j] += sign * lo[i]
                else:
                    c += sign * lo[i] * hi[j]
        row = [c] * len(others)
        for kv, column in zip(k, columns):
            if kv:
                row = list(map(add, row, map(kv.__mul__, column)))
        table.append(row)
    return table


def commutation_counts(quiver: SelfDualQuiver, alphas, betas,
                       orientation: int) -> List[List[int]]:
    """The Euler count of the positive-weight deformation blocks at a graded
    point with one factor in weight one (alpha under orientation -1) and
    the other in weight zero: a row over betas per alpha in alphas."""
    return _count_table(quiver, (
        ([(None, alpha) if orientation == -1 else (alpha, None)], 0)
        for alpha in alphas), betas)


def twice_twist_counts(quiver: SelfDualQuiver, alphas, thetas,
                       orientation: int, placement: int) -> List[List[int]]:
    """Twice the Euler count of the positive-weight part of the
    involution-fixed deformation complex at a graded point with blocks of
    weight 1, 0, -1 and dimensions alpha, theta, dual(alpha), a row over
    thetas per alpha in alphas.  Fixed dimensions are (dim + trace)/2 per
    block; the involution only has nonzero trace on the weight-two blocks of
    fixed edges, where it acts by a signed transpose.  placement is the
    undetermined global sign of that transpose; orientation picks which of
    alpha, dual(alpha) sits in weight one."""
    fixed = [(quiver.fixed_edge_sign(a), *quiver.edge_endpoints[a])
             for a in quiver.fixed_edges]
    rows = []
    for alpha in alphas:
        up = alpha if orientation == -1 else quiver.dual_vector(alpha)
        dn = quiver.dual_vector(up)
        trace = sum(sign * (up[t] - up[s]) for sign, s, t in fixed)
        rows.append(([(None, up), (dn, None), (dn, up)], placement * trace))
    return _count_table(quiver, rows, thetas)


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
    return (twice_twist_counts(ref, [_UNIT], [_ZERO2], orientation, placement)
            == [[2 * REFERENCE_TWISTS[key]]]
            and commutation_counts(ref, [_UNIT], [_COUNIT], orientation)
            == [[REFERENCE_COMMUTATION]])


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


def _check_row(checks, others, *head) -> None:
    """Each check (got, want, kind) is a pair of rows that must be equal.
    Raise CalibrationError "kind at *head, others[k]" for the first position
    k, and at it the first check, where they differ."""
    gots, wants, _ = zip(*checks)
    if gots != wants:
        for k, other in enumerate(others):
            for got, want, kind in checks:
                if got[k] != want[k]:
                    where = ", ".join(map(str, head + (other,)))
                    raise CalibrationError(f"{kind} at {where}")


def verify_calibration(quiver: SelfDualQuiver, bound: int = 2) -> Dict[str, int]:
    """Check the calibrated exponent forms against the block counts and the
    structural identities they must satisfy.  Returns check counters; raises
    CalibrationError on the first failure.

    The checks run over class pairs, then class and self-dual class pairs,
    then triples of classes of total at most max(1, bound - 1), each in
    graded-lex order, and the first failing tuple in that order is the one
    reported.  Each exponent form is evaluated once per distinct argument
    pair, into tables by position; every identity is checked on every tuple
    a whole row at a time, against block counts made once per class row."""
    if quiver.calibration is None:
        raise CalibrationError("quiver has no calibration attached")
    b_orient, b_place = resolve_brute_force_signs()
    comm, twist = quiver.commutation_exponent, quiver.sd_twist_exponent
    alphas = [(0,) * len(quiver.vertices)] + quiver.dim_vectors_up_to(bound)
    thetas = quiver.sd_classes_up_to(bound)
    # alphas is closed under the involution: position of each dual class
    at = {a: i for i, a in enumerate(alphas)}
    dual = [at[quiver.dual_vector(a)] for a in alphas]

    comm_table = [[comm(a, b) for b in alphas] for a in alphas]
    cols = list(zip(*comm_table))
    counts = commutation_counts(quiver, alphas, alphas, b_orient)
    for i, (a, row) in enumerate(zip(alphas, comm_table)):
        _check_row([
            (row, counts[i], "commutation exponent mismatch"),
            (row, list(map(neg, cols[i])),
             "commutation exponent not antisymmetric"),
            (row, list(map(cols[dual[i]].__getitem__, dual)),
             "commutation exponent breaks duality")], alphas, a)

    twist_table = [[twist(a, th) for th in thetas] for a in alphas]
    counts = twice_twist_counts(quiver, alphas, thetas, b_orient, b_place)
    for i, (a, row) in enumerate(zip(alphas, twist_table)):
        _check_row([
            ([t + t for t in row], counts[i], "twist exponent mismatch"),
            (row, list(map(floor, row)), "twist exponent not integral"),
            (twist_table[dual[i]], list(map(neg, row)),
             "twist exponent breaks duality")], thetas, a)

    # Bilinearity and associativity on triples of small classes, a prefix
    # of alphas.  The sums b + c and the completions b + th + dual(b) are
    # numbered once per pair, after alphas and thetas (b + 0 is b and
    # 0 + th + 0 is th), and the form rows extend the tables over them.
    small = alphas[:1 + len(quiver.dim_vectors_up_to(max(1, bound - 1)))]
    sums, completions = dict(at), {th: k for k, th in enumerate(thetas)}
    plus = [[sums.setdefault(vadd(b, c), len(sums)) for c in small]
            for b in small]
    completed = [[completions.setdefault(quiver.sd_completion(b, th),
                                         len(completions)) for th in thetas]
                 for b in small]
    more_sums = list(sums)[len(alphas):]
    more_completions = list(completions)[len(thetas):]
    twist_of_sum = twist_table + [[twist(x, th) for th in thetas]
                                  for x in more_sums]
    n = len(small)
    for i, a in enumerate(small):
        comm_a = comm_table[i] + [comm(a, x) for x in more_sums]
        twist_a = twist_table[i] + [twist(a, y) for y in more_completions]
        for j, b in enumerate(small):
            ab = comm_a[j]
            _check_row([([comm_a[p] for p in plus[j]],
                         [ab + v for v in comm_a[:n]],
                         "commutation exponent not bilinear")], small, a, b)
            _check_row([([ab + t for t in twist_of_sum[plus[i][j]]],
                         [twist_a[p] + t
                          for p, t in zip(completed[j], twist_table[j])],
                         "twist exponents break associativity")], thetas,
                       a, b)

    commutation, twists = len(alphas) ** 2, len(alphas) * len(thetas)
    return {"commutation": commutation, "twist": twists,
            "duality": commutation + twists, "additivity": n ** 3,
            "associativity": n ** 2 * len(thetas)}


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
