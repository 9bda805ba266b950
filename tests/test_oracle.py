import ast
import json
import os
import re
from fractions import Fraction

import pytest

from helpers import mixed_quiver, perturb_block_counts
from reference import (direct_epsilon_integral, direct_sd_epsilon_integral,
                       direct_sd_semistable_integral,
                       direct_semistable_integral, sd_completion,
                       sd_stack_class, stack_class)
from suite import acceptance_suite, wide_quiver
from quiver_dt import oracle
from quiver_dt.invariants import dt_mot
from quiver_dt.oracle import (CalibrationError, REFERENCE_TWISTS,
                              calibrate_signs, ensure_calibrated,
                              explain_calibration,
                              resolve_brute_force_signs, resolve_global_signs,
                              verify_calibration)
from quiver_dt.quiver import (Calibration, SelfDualQuiver, Slope,
                              UncalibratedError, kronecker_variant,
                              make_calibration, point_quiver, vadd)
from quiver_dt.ratfunc import RatFunc


def q_pow(k):
    return RatFunc.q_power(k)


def brute_force_commutation(quiver, alpha, beta, orientation):
    """The commutation block count of one pair: the oracle's table on it."""
    return oracle.commutation_counts(quiver, [alpha], [beta],
                                     orientation)[0][0]


def brute_force_sd_twist(quiver, alpha, theta, orientation, placement):
    """The twist block count of one pair: half the oracle's table on it."""
    return Fraction(oracle.twice_twist_counts(
        quiver, [alpha], [theta], orientation, placement)[0][0], 2)


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
    calibrate_signs(q)
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


def count_verifications(monkeypatch):
    calls = []
    verify = oracle.verify_calibration

    def counting(quiver, bound=2):
        calls.append(quiver)
        return verify(quiver, bound)

    monkeypatch.setattr(oracle, "verify_calibration", counting)
    return calls


def test_a_calibration_that_fails_its_check_is_detached(monkeypatch):
    q = kronecker_variant((1, -1), 1)
    perturb_block_counts(monkeypatch)
    with pytest.raises(CalibrationError, match="mismatch at"):
        calibrate_signs(q)
    assert q.calibration is None
    with pytest.raises(UncalibratedError):
        q.commutation_exponent((1, 0), (0, 1))
    text, ok = explain_calibration(q)
    assert not ok
    assert text.endswith("calibration failed: commutation exponent mismatch "
                         "at (0, 1), (0, 2)")
    assert q.calibration is None
    monkeypatch.undo()
    fresh = kronecker_variant((1, -1), 1)
    want = dt_mot(fresh, Slope.trivial(fresh), (1, 1))
    calls = count_verifications(monkeypatch)
    assert dt_mot(q, Slope.trivial(q), (1, 1)) == want
    assert calls == [q]
    assert q.calibration is not None


def test_a_failed_check_keeps_the_calibration_the_call_found(monkeypatch):
    q = kronecker_variant((1, -1), 1)
    cal = calibrate_signs(q)
    perturb_block_counts(monkeypatch)
    text, ok = explain_calibration(q)
    assert not ok and "calibration failed" in text
    assert q.calibration is cal
    other = make_calibration(q, 1, 1)
    q.set_calibration(other)
    flipped = q.commutation_exponent((1, 0), (0, 1))
    with pytest.raises(CalibrationError):
        calibrate_signs(q)
    assert q.calibration is other
    assert q.commutation_exponent((1, 0), (0, 1)) == flipped == 2


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


def package_imports(name):
    """The quiver_dt modules the test module tests/name imports, itself or
    through the test modules it imports.  Names from the package namespace
    count as production code too: it re-exports invariants and
    wallcross."""
    here = os.path.dirname(__file__)
    local = {f[:-3] for f in os.listdir(here) if f.endswith(".py")}
    with open(os.path.join(here, name), encoding="utf-8") as fh:
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
    for module in used & local:
        ours |= package_imports(f"{module}.py")
    return ours


def test_reference_module_reads_no_production_recursion_or_transform():
    """tests/reference.py imports only the quiver, motive and rational
    function modules, and the torus algebra of tests/torus.py only the
    quiver and rational function modules and tests/reference.py, so
    agreeing with invariants and wallcross is a check and not a
    tautology."""
    ours = package_imports("reference.py")
    assert ours == {"quiver_dt.quiver", "quiver_dt.motives",
                    "quiver_dt.ratfunc"}
    assert not ours & {"quiver_dt.invariants", "quiver_dt.wallcross"}
    assert package_imports("torus.py") == ours


# Every function of the oracle that computes a block count.
BLOCK_COUNTS = ("_count_table", "commutation_counts", "twice_twist_counts")


def test_block_counts_name_no_production_form():
    """The block counts, by row and by pair, count blocks from the quiver's
    structure alone: agreeing with the Euler-form expressions is only a
    check while none reads those expressions or their data."""
    path = oracle.__file__
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name in BLOCK_COUNTS}
    assert len(bodies) == len(BLOCK_COUNTS)
    banned = {"commutation_exponent", "sd_twist_exponent", "euler_form",
              "_comm", "_kappa2"}
    for name, node in bodies.items():
        named = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                named.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                named.add(sub.attr)
        assert not named & banned, name
        # a block count calls no oracle function but another block count
        called = named & {f.name for f in tree.body
                          if isinstance(f, ast.FunctionDef)}
        assert called <= set(BLOCK_COUNTS), (name, called)


# -- the verification loop as it was before the forms were tabulated ---------

def loop_verify_calibration(quiver, bound=2):
    """verify_calibration as three nested loops that evaluate the forms at
    every tuple; the tabulated verify_calibration must return the same counts
    and raise the same first message."""
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
                rhs = (quiver.sd_twist_exponent(a, sd_completion(quiver, b, th))
                       + quiver.sd_twist_exponent(b, th))
                if lhs != rhs:
                    fail(f"twist exponents break associativity at {a}, {b}, {th}")
                counts["associativity"] += 1

    counts["duality"] = counts["commutation"] + counts["twist"]
    return counts


def outcome(verify, quiver, bound):
    """("ok", counts) or ("fail", first message) of one verification."""
    try:
        return "ok", verify(quiver, bound)
    except CalibrationError as exc:
        return "fail", str(exc)


def fixture_quivers():
    """Fresh calibrated copies of the acceptance suite, the six Kronecker
    fixtures and the mixed quiver."""
    quivers = [SelfDualQuiver.from_data(q.to_data())
               for q, _ in acceptance_suite()]
    folder = os.path.join(os.path.dirname(oracle.__file__), "fixtures")
    for name in sorted(os.listdir(folder)):
        if name.startswith("kronecker_"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                quivers.append(SelfDualQuiver.from_data(json.load(fh)))
    quivers.append(mixed_quiver())
    assert len(quivers) == 17
    for q in quivers:
        calibrate_signs(q)
    return quivers


def flipped(quiver, field, i):
    """Negate the coefficient of row i of _comm or _kappa2 in place; returns
    the unflipped rows."""
    good = getattr(quiver, field)
    at = 1 if field == "_kappa2" else 2
    row = good[i]
    setattr(quiver, field,
            good[:i] + (row[:at] + (-row[at],) + row[at + 1:],) + good[i + 1:])
    return good


def test_tabulated_verification_returns_the_loop_counts():
    for q in fixture_quivers():
        for bound in range(1, 6):
            got = verify_calibration(q, bound)
            want = loop_verify_calibration(q, bound)
            assert list(got.items()) == list(want.items()), (q.to_data(), bound)


def test_tabulated_verification_fails_first_where_the_loop_does():
    """Every flipped row of either integer form, at bounds 1 to 3, fails
    with the loop's first message, or passes where the loop passes."""
    failures = 0
    for q in fixture_quivers():
        for field in ("_comm", "_kappa2"):
            for i in range(len(getattr(q, field))):
                good = flipped(q, field, i)
                for bound in (1, 2, 3):
                    want = outcome(loop_verify_calibration, q, bound)
                    assert outcome(verify_calibration, q, bound) == want
                    failures += want[0] == "fail"
                setattr(q, field, good)
    assert failures >= 40


def wide_quivers():
    """Calibrated wide quivers at 8, 12 and 16 vertices: swapped vertex
    pairs joined by as many edges as vertices."""
    quivers = [wide_quiver(pairs, seed) for pairs, seed in
               ((4, 1), (4, 2), (6, 3), (8, 4))]
    for q in quivers:
        calibrate_signs(q)
    return quivers


def test_wide_quivers_verify_as_the_loop():
    """At bound 2, on wide quivers, the row-wise verification has the
    loop's outcome, as they are and, up to 12 vertices, with the first
    stored row of either integer form flipped."""
    failures = 0
    for q in wide_quivers():
        assert outcome(verify_calibration, q, 2) == outcome(
            loop_verify_calibration, q, 2)
        for field in ("_comm", "_kappa2"):
            if getattr(q, field) and len(q.vertices) <= 12:
                good = flipped(q, field, 0)
                want = outcome(loop_verify_calibration, q, 2)
                assert outcome(verify_calibration, q, 2) == want
                failures += want[0] == "fail"
                setattr(q, field, good)
    assert failures >= 4


def test_a_miscounted_edge_fails_calibration_on_wide_quivers(monkeypatch):
    """Count one edge s -> t's Hom(lower_s, upper_t) one too high, as
    x_s (upper_t + 1) for the unknown block x: calibrating a wide quiver
    must fail, with the loop's first message."""
    resolve_brute_force_signs()
    real = oracle._count_table

    def miscounted(quiver, rows, others):
        s, _ = quiver.edge_endpoints[0]
        return [[n + x[s] for n, x in zip(row, others)]
                for row in real(quiver, rows, others)]

    quivers = wide_quivers()
    monkeypatch.setattr(oracle, "_count_table", miscounted)
    for q in quivers:
        want = outcome(loop_verify_calibration, q, 2)
        assert want[0] == "fail" and "mismatch" in want[1], want
        assert outcome(verify_calibration, q, 2) == want
        with pytest.raises(CalibrationError, match=re.escape(want[1])):
            calibrate_signs(SelfDualQuiver.from_data(q.to_data()))


def shifted(form, at, delta):
    """form, plus delta where its arguments begin with the pair at."""
    def wrapped(*args):
        value = form(*args)
        return value + delta if args[:2] == at else value
    return wrapped


def shifted_counts(counts, at, delta):
    """A block-count function counts(quiver, alphas, others, ...), plus
    delta in the row of each alpha where it and an entry of others make the
    pair at."""
    def wrapped(quiver, alphas, others, *signs):
        table = counts(quiver, alphas, others, *signs)
        return [[n + delta if (alpha, other) == at else n
                 for n, other in zip(row, others)]
                for alpha, row in zip(alphas, table)]
    return wrapped


# One corrupted value per check kind on the mixed quiver at bound 3 (classes
# (i, j, k) with i and k swapped): the form, the argument pair, the shift,
# whether the block count moves with it, and the check that must fail first.
CORRUPTIONS = [
    ("commutation_exponent", ((0, 0, 1), (0, 1, 0)), 1, False,
     "commutation exponent mismatch"),
    ("commutation_exponent", ((0, 1, 0), (0, 0, 1)), 1, True,
     "commutation exponent not antisymmetric"),
    ("commutation_exponent", ((0, 1, 0), (1, 0, 0)), 1, True,
     "commutation exponent breaks duality"),
    ("sd_twist_exponent", ((0, 0, 2), (1, 0, 1)), 1, False,
     "twist exponent mismatch"),
    ("sd_twist_exponent", ((0, 0, 1), (0, 0, 0)), Fraction(1, 2), True,
     "twist exponent not integral"),
    ("sd_twist_exponent", ((1, 0, 0), (0, 0, 0)), 1, True,
     "twist exponent breaks duality"),
    ("commutation_exponent", ((0, 0, 1), (0, 0, 4)), 1, False,
     "commutation exponent not bilinear"),
    ("sd_twist_exponent", ((0, 0, 4), (0, 0, 0)), 1, False,
     "twist exponents break associativity"),
    ("sd_twist_exponent", ((0, 0, 1), (2, 0, 2)), -1, False,
     "twist exponents break associativity"),
]


@pytest.mark.parametrize("name, at, delta, counted, kind", CORRUPTIONS,
                         ids=["mismatch", "antisymmetry", "duality",
                              "twist-mismatch", "integrality",
                              "twist-duality", "bilinearity",
                              "associativity-sum",
                              "associativity-completion"])
def test_tabulated_verification_reports_each_broken_check_as_the_loop(
        name, at, delta, counted, kind, monkeypatch):
    q = mixed_quiver()
    calibrate_signs(q)
    setattr(q, name, shifted(getattr(q, name), at, delta))
    if counted:
        # move the block count with the form, so that the check after the
        # block-count comparison is the one that fails; the per-pair counts
        # the loop reads are the tables on one pair, and the twist table is
        # doubled
        counts, scale = (("commutation_counts", 1)
                         if name == "commutation_exponent"
                         else ("twice_twist_counts", 2))
        monkeypatch.setattr(oracle, counts, shifted_counts(
            getattr(oracle, counts), at, scale * delta))
    want = outcome(loop_verify_calibration, q, 3)
    assert want[0] == "fail" and want[1].startswith(kind), want
    assert outcome(verify_calibration, q, 3) == want


def test_each_form_is_evaluated_once_per_argument_pair(monkeypatch):
    """verify_calibration asks each exponent form once per distinct argument
    pair, and each block count once, for one row per class over every
    checked pair."""
    calls, rows, entries = {}, {}, {}
    for counts in ("commutation_counts", "twice_twist_counts"):
        def counting(quiver, alphas, others, *signs, counts=counts,
                     orig=getattr(oracle, counts)):
            table = orig(quiver, alphas, others, *signs)
            calls[counts] = calls.get(counts, 0) + 1
            rows[counts] = len(table)
            entries[counts] = sum(map(len, table))
            return table
        monkeypatch.setattr(oracle, counts, counting)
    for q in (mixed_quiver(), kronecker_variant((1, -1), -1)):
        calibrate_signs(q)
        pairs = {}
        for name in ("commutation_exponent", "sd_twist_exponent"):
            def counting(a, b, name=name, orig=getattr(q, name)):
                key = (name, a, b)
                pairs[key] = pairs.get(key, 0) + 1
                return orig(a, b)
            setattr(q, name, counting)
        calls.clear()
        counts = verify_calibration(q, bound=4)
        assert set(pairs.values()) == {1}
        classes = 1 + len(q.dim_vectors_up_to(4))
        assert calls == {"commutation_counts": 1, "twice_twist_counts": 1}
        assert rows == {"commutation_counts": classes,
                        "twice_twist_counts": classes}
        assert entries == {"commutation_counts": counts["commutation"],
                           "twice_twist_counts": counts["twist"]}
