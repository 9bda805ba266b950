import ast
import os
from fractions import Fraction

import pytest

from helpers import mixed_quiver
from reference import (direct_epsilon_integral, direct_sd_epsilon_integral,
                       direct_sd_semistable_integral,
                       direct_semistable_integral)
from suite import acceptance_suite
from quiver_dt import oracle
from quiver_dt.oracle import (CalibrationError, REFERENCE_TWISTS,
                              brute_force_commutation, brute_force_sd_twist,
                              calibrate_signs, ensure_calibrated,
                              resolve_brute_force_signs, resolve_global_signs,
                              verify_calibration)
from quiver_dt.quiver import (Calibration, SelfDualQuiver, Slope,
                              kronecker_variant, make_calibration,
                              point_quiver)
from quiver_dt.ratfunc import RatFunc


def q_pow(k):
    return RatFunc.q_power(k)


def test_sign_resolution_is_unique():
    assert resolve_global_signs() == (-1, 1)
    assert resolve_brute_force_signs() == (-1, 1)


def test_both_sign_resolutions_refuse_when_no_candidate_survives(monkeypatch):
    resolvers = (resolve_global_signs, resolve_brute_force_signs)
    # No orientation gives this commutation exponent on the reference quivers.
    monkeypatch.setattr(oracle, "REFERENCE_COMMUTATION", 7)
    for resolve in resolvers:
        resolve.cache_clear()
    try:
        with pytest.raises(CalibrationError) as euler:
            resolve_global_signs()
        with pytest.raises(CalibrationError) as blocks:
            resolve_brute_force_signs()
    finally:
        monkeypatch.undo()
        for resolve in resolvers:
            resolve.cache_clear()
    assert str(euler.value) == (
        "sign resolution must leave exactly one candidate, got []")
    assert str(blocks.value) == "block-count sign resolution left []"
    assert resolve_global_signs() == resolve_brute_force_signs() == (-1, 1)


def test_reference_table_reproduced_after_calibration():
    for (esigns, vsign), want in REFERENCE_TWISTS.items():
        ref = kronecker_variant(esigns, vsign)
        calibrate_signs(ref)
        assert ref.sd_twist_exponent((1, 0), (0, 0)) == want
        assert ref.commutation_exponent((1, 0), (0, 1)) == -2


def test_brute_force_counts_match_forms_on_mixed_quiver():
    q = mixed_quiver()
    calibrate_signs(q, check_bound=2)
    counts = verify_calibration(q, bound=2)
    assert counts["commutation"] > 0
    assert counts["twist"] > 0
    assert counts["associativity"] > 0
    # spot values through both code paths
    a, th = (1, 0, 0), (1, 0, 1)
    assert q.sd_twist_exponent(a, th) == brute_force_sd_twist(q, a, th, -1, 1)
    b = (0, 1, 0)
    assert q.commutation_exponent(a, b) == brute_force_commutation(q, a, b, -1)


def test_verification_rejects_corrupted_calibration():
    pt = point_quiver(1)
    pt.set_calibration(Calibration(-1, 1, (Fraction(1),)))
    with pytest.raises(CalibrationError):
        verify_calibration(pt, bound=2)

    kron = kronecker_variant((1, 1), 1)
    kron.set_calibration(make_calibration(kron, 1, 1))
    with pytest.raises(CalibrationError):
        verify_calibration(kron, bound=2)


def test_ensure_calibrated_idempotent():
    q = point_quiver(-1)
    ensure_calibrated(q)
    cal = q.calibration
    ensure_calibrated(q)
    assert q.calibration is cal


def frac(num_shift, num, den):
    return RatFunc.from_frac_polys(num_shift,
                                   {k: Fraction(v) for k, v in num.items()},
                                   {k: Fraction(v) for k, v in den.items()})


def test_direct_semistable_trivial_slope_gives_stack_classes():
    from quiver_dt.motives import stack_class
    q = kronecker_variant((1, 1), 1)
    calibrate_signs(q)
    slope = Slope.trivial(q)
    for alpha in [(1, 0), (1, 1), (2, 1)]:
        assert direct_semistable_integral(q, slope, alpha) == stack_class(q, alpha)


def test_direct_semistable_kronecker_frozen():
    q = kronecker_variant((1, 1), 1)
    calibrate_signs(q)
    slope = Slope.from_dict(q, {"i": 1, "j": -1})
    got = direct_semistable_integral(q, slope, (1, 1))
    want = (q_pow(2) + RatFunc(1)) / (q_pow(2) - RatFunc(1))
    assert got == want
    assert direct_semistable_integral(q, slope, (1, 0)) == q_pow(1) / (q_pow(2) - RatFunc(1))


def test_direct_sd_semistable_point_is_stack_class():
    from quiver_dt.motives import sd_stack_class
    for vsign in (1, -1):
        pt = point_quiver(vsign)
        calibrate_signs(pt)
        slope = Slope.trivial(pt)
        for theta in [(0,), (2,), (4,)]:
            got = direct_sd_semistable_integral(pt, slope, theta)
            assert got == sd_stack_class(pt, theta)


def test_direct_sd_semistable_kronecker_frozen():
    slope_map = {"i": 1, "j": -1}
    expected = {
        (1, 1): q_pow(1) + q_pow(-1),
        (1, -1): RatFunc(1),
        (-1, -1): RatFunc(0),
    }
    for esigns, want in expected.items():
        q = kronecker_variant(esigns, 1)
        calibrate_signs(q)
        slope = Slope.from_dict(q, slope_map)
        assert direct_sd_semistable_integral(q, slope, (1, 1)) == want


def test_direct_epsilon_kronecker_frozen():
    q = kronecker_variant((1, 1), 1)
    calibrate_signs(q)
    slope = Slope.from_dict(q, {"i": 1, "j": -1})
    got = direct_epsilon_integral(q, slope, (1, 1))
    want = (q_pow(2) + RatFunc(1)) / (q_pow(2) - RatFunc(1))
    assert got == want
    # multiplying by the integration prefactor lands on the motive of the
    # projective line
    prefactor = q_pow(1) - q_pow(-1)
    assert prefactor * got == q_pow(1) + q_pow(-1)


def test_direct_sd_epsilon_point_frozen():
    two = RatFunc(2)
    for vsign, scale in ((1, 1), (-1, -1)):
        pt = point_quiver(vsign)
        calibrate_signs(pt)
        slope = Slope.trivial(pt)
        got = direct_sd_epsilon_integral(pt, slope, (2,))
        want = RatFunc(scale) * q_pow(1) / (two * (q_pow(2) + RatFunc(1)))
        assert got == want
        assert got.eval_at(-1) == Fraction(-scale, 4)


def test_direct_enumerators_guard_inputs():
    q = kronecker_variant((1, 1), 1)
    calibrate_signs(q)
    slope = Slope.from_dict(q, {"i": 1, "j": -1})
    with pytest.raises(ValueError):
        direct_sd_semistable_integral(q, slope, (1, 0))
    assert direct_semistable_integral(q, slope, (0, 0)) == RatFunc(1)
    assert direct_sd_semistable_integral(q, slope, (0, 0)) == RatFunc(1)


def test_verification_catches_a_corrupted_integer_form():
    """Flipping one stored commutation coefficient, or one doubled kappa
    weight, of a calibrated quiver must fail the block-count check."""
    quivers = [SelfDualQuiver.from_data(q.to_data())
               for q, _ in acceptance_suite()]
    quivers += [kronecker_variant((1, 1), 1), mixed_quiver()]
    flips = {"_comm": 0, "_kappa2": 0}
    for q in quivers:
        calibrate_signs(q)
        for field in flips:
            good = getattr(q, field)
            for i, row in enumerate(good):
                # the coefficient is the last entry of a kappa row and the
                # third of a commutation row
                at = 1 if field == "_kappa2" else 2
                bad = row[:at] + (-row[at],) + row[at + 1:]
                setattr(q, field, good[:i] + (bad,) + good[i + 1:])
                with pytest.raises(CalibrationError):
                    verify_calibration(q, bound=2)
                setattr(q, field, good)
                flips[field] += 1
        verify_calibration(q, bound=2)
    assert flips["_comm"] >= 6 and flips["_kappa2"] >= 8


def test_reference_module_reads_no_production_recursion_or_transform():
    """tests/reference.py imports only the quiver, motive and rational
    function modules, so agreeing with invariants and wallcross is a check
    and not a tautology.  Names from the package namespace count as
    production code too: it re-exports invariants and wallcross."""
    path = os.path.join(os.path.dirname(__file__), "reference.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "quiver_dt":
                used.update(f"quiver_dt.{a.name}" for a in node.names)
            else:
                used.add(node.module)
    ours = {m for m in used if m.split(".")[0] == "quiver_dt"}
    assert ours == {"quiver_dt.quiver", "quiver_dt.motives",
                    "quiver_dt.ratfunc"}
    assert not ours & {"quiver_dt.invariants", "quiver_dt.wallcross"}
