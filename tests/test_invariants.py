import gc
import json
import weakref
from fractions import Fraction

import pytest

from helpers import calibrated_mixed, calibrated_two_pairs, mixed_quiver
from suite import acceptance_suite
from quiver_dt import invariants as inv
from quiver_dt.oracle import (calibrate_signs, direct_epsilon_integral,
                              direct_sd_epsilon_integral,
                              direct_sd_semistable_integral,
                              direct_semistable_integral)
from quiver_dt.motives import (over_gl_denominator, sd_stack_class,
                               stack_class)
from quiver_dt.quiver import (Calibration, Slope, ValidationError,
                              graded_lex_key, kronecker_variant,
                              make_calibration, point_quiver, vadd, vleq,
                              vsub, vtotal)
from quiver_dt.ratfunc import RatFunc, inv_q_minus_qinv, q_minus_qinv
from quiver_dt.torus import (TorusElem, integrated_unit, series_diamond,
                              star_exp, star_log_one_plus)


def q_pow(k):
    return RatFunc.q_power(k)


def setup_function(_fn):
    inv.clear_cache()


def calibrated_point(vsign=1):
    pt = point_quiver(vsign)
    calibrate_signs(pt)
    return pt


def calibrated_kron(esigns=(1, 1), vsign=1):
    q = kronecker_variant(esigns, vsign)
    calibrate_signs(q)
    return q


def hn_slope(q):
    return Slope.from_dict(q, {"i": 1, "j": -1})


def test_point_linear_invariants_frozen():
    pt = calibrated_point(1)
    t = Slope.trivial(pt)
    assert inv.epsilon_integral(pt, t, (1,)) == q_pow(1) / (q_pow(2) - RatFunc(1))
    assert inv.dt_mot(pt, t, (1,)) == RatFunc(1)
    for n in range(1, 5):
        assert inv.dt_num(pt, t, (n,)) == Fraction(1, n * n)


def test_point_sd_invariants_frozen():
    two = RatFunc(2)
    for vsign, scale, num in ((1, 1, Fraction(-1, 4)), (-1, -1, Fraction(1, 4))):
        pt = calibrated_point(vsign)
        t = Slope.trivial(pt)
        want = RatFunc(scale) * q_pow(1) / (two * (q_pow(2) + RatFunc(1)))
        assert inv.sd_dt_mot(pt, t, (2,)) == want
        assert inv.sd_dt_num(pt, t, (2,)) == num
    pt = calibrated_point(1)
    t = Slope.trivial(pt)
    assert inv.sd_dt_mot(pt, t, (1,)) == RatFunc(1)
    assert inv.sd_dt_mot(pt, t, (0,)) == RatFunc(1)


def test_kronecker_hn_slope_frozen():
    q = calibrated_kron()
    s = hn_slope(q)
    one = RatFunc(1)
    assert inv.semistable_integral(q, s, (1, 1)) == (q_pow(2) + one) / (q_pow(2) - one)
    assert inv.dt_mot(q, s, (1, 1)) == q_pow(1) + q_pow(-1)
    sd_expect = {(1, 1): q_pow(1) + q_pow(-1), (1, -1): one, (-1, -1): RatFunc(0)}
    for esigns, want in sd_expect.items():
        qq = calibrated_kron(esigns)
        got = inv.sd_dt_mot(qq, hn_slope(qq), (1, 1))
        assert got == want
    # second series coefficient of the (-1,-1) variant
    qq = calibrated_kron((-1, -1))
    assert inv.sd_dt_mot(qq, hn_slope(qq), (2, 2)) == RatFunc(Fraction(-1, 2))


def test_trivial_slope_semistable_equals_stack_class():
    q = calibrated_kron()
    t = Slope.trivial(q)
    for a in q.dim_vectors_up_to(3):
        assert inv.semistable_integral(q, t, a, bound=3) == stack_class(q, a)


def test_production_matches_direct_enumeration():
    cases = []
    q1 = calibrated_kron((1, -1))
    cases.append((q1, hn_slope(q1), 3))
    q2 = mixed_quiver()
    calibrate_signs(q2)
    cases.append((q2, Slope.from_dict(q2, {"i": 1, "k": -1}), 3))
    cases.append((q2, Slope.from_dict(q2, {"i": Fraction(1, 2), "k": Fraction(-1, 2)}), 2))
    for q, s, bound in cases:
        for a in q.dim_vectors_up_to(bound):
            assert inv.semistable_integral(q, s, a, bound=bound) == \
                direct_semistable_integral(q, s, a)
            got_eps = inv.epsilon_integral(q, s, a, bound=bound)
            assert got_eps == direct_epsilon_integral(q, s, a)
        for th in q.sd_classes_up_to(bound):
            assert inv.sd_semistable_integral(q, s, th, bound=bound) == \
                direct_sd_semistable_integral(q, s, th)
            assert inv.sd_epsilon_integral(q, s, th, bound=bound) == \
                direct_sd_epsilon_integral(q, s, th)


def test_bound_does_not_change_values():
    q = calibrated_kron()
    s = hn_slope(q)
    for a in q.dim_vectors_up_to(3):
        assert inv.semistable_integral(q, s, a, bound=3) == \
            inv.semistable_integral(q, s, a, bound=5)
        assert inv.dt_mot(q, s, a, bound=3) == inv.dt_mot(q, s, a, bound=5)


def test_class_beyond_the_bound_is_rejected():
    q = calibrated_kron()
    s = hn_slope(q)
    for fn, cls in ((inv.semistable_integral, (3, 2)), (inv.dt_mot, (3, 3)),
                    (inv.epsilon_integral, (4, 1)),
                    (inv.sd_dt_mot, (2, 2))):
        with pytest.raises(ValueError, match="beyond the bound 2"):
            fn(q, s, cls, bound=2)


@pytest.mark.parametrize("fn", [inv.dt_mot, inv.semistable_integral,
                                inv.sd_dt_mot])
@pytest.mark.parametrize("alpha", [(1,), (1, 2, 3), (1.0, 1), (-1, -1), 3],
                         ids=["too_short", "too_long", "float", "negative",
                              "not_a_sequence"])
def test_malformed_class_is_rejected(fn, alpha):
    q = calibrated_kron()
    with pytest.raises(ValidationError, match="is not a class"):
        fn(q, hn_slope(q), alpha)


@pytest.mark.parametrize("weights", [(1,), (1, -1, 5)],
                         ids=["too_short", "too_long"])
def test_slope_of_the_wrong_length_is_rejected(weights):
    q = calibrated_kron()
    s = Slope(tuple(Fraction(w) for w in weights))
    with pytest.raises(ValidationError,
                       match=f"{len(weights)} weights for 2 vertices"):
        inv.dt_num(q, s, (1, 1))
    with pytest.raises(ValidationError):
        inv.build_table(q, s, 2)


def test_new_calibration_is_not_served_from_the_cache():
    q = kronecker_variant((1, 1), 1)
    cal = calibrate_signs(q)
    s = hn_slope(q)
    before = inv.dt_mot(q, s, (2, 1), bound=3)
    sd_before = inv.sd_dt_mot(q, s, (1, 1), bound=3)
    q.set_calibration(make_calibration(q, -cal.orientation, -cal.placement))
    after = inv.dt_mot(q, s, (2, 1), bound=3)
    sd_after = inv.sd_dt_mot(q, s, (1, 1), bound=3)
    inv.clear_cache()
    assert after == inv.dt_mot(q, s, (2, 1), bound=3) != before
    assert sd_after == inv.sd_dt_mot(q, s, (1, 1), bound=3) != sd_before


def test_first_query_on_uncalibrated_quiver_builds_one_engine():
    q = kronecker_variant((1, 1), 1)
    inv.dt_mot(q, hn_slope(q), (1, 1), bound=2)
    inv.dt_mot(q, hn_slope(q), (1, 1), bound=2)
    assert q.calibration is not None
    assert list(inv._CACHE_OWNERS) == [q]
    assert len(q.engine_cache) == 1


def test_engines_do_not_outlive_their_quiver():
    q = calibrated_kron()
    inv.dt_mot(q, hn_slope(q), (2, 1), bound=3)
    assert len(q.engine_cache) == 1
    ref = weakref.ref(q)
    del q
    gc.collect()
    assert ref() is None
    assert not list(inv._CACHE_OWNERS)


def test_clear_cache_empties_every_live_quiver():
    qs = [calibrated_kron(), calibrated_point()]
    for q in qs:
        inv.dt_mot(q, Slope.trivial(q), (1,) * len(q.vertices), bound=2)
    assert all(q.engine_cache for q in qs)
    inv.clear_cache()
    assert not any(q.engine_cache for q in qs)
    assert not list(inv._CACHE_OWNERS)


# -- reference for the gated recursion ------------------------------------------

def full_region_dom_table(eng, s):
    """The gated recursion over every class of slope above s within the
    bound, each entry scanning the whole table, in RatFunc: the engine's
    domain before it was cut down to the reader box, and its arithmetic
    before the motive denominators were cleared."""
    q = eng.quiver
    dom = [eng.zero] + [g for g in eng.classes if eng.slope.value(g) > s]
    dom.sort(key=graded_lex_key)
    tab = {}
    for p in dom:
        if vtotal(p) == 0:
            tab[p] = RatFunc(1)
            continue
        acc = RatFunc(0)
        for pp, dpp in tab.items():
            if pp != p and vleq(pp, p):
                step = vsub(p, pp)
                acc = acc + dpp * stack_class(q, step) * RatFunc.q_power(
                    q.commutation_exponent(pp, step))
        tab[p] = -acc
    return tab


def reference_semistable(eng, tab, a):
    acc = RatFunc(0)
    for p, dp in tab.items():
        if p != a and vleq(p, a):
            step = vsub(a, p)
            acc = acc + dp * stack_class(eng.quiver, step) * RatFunc.q_power(
                eng.quiver.commutation_exponent(p, step))
    return acc


def reference_sd_semistable(eng, tab, th):
    q = eng.quiver
    acc = RatFunc(0)
    for g, dg in tab.items():
        gg = vadd(g, q.dual_vector(g))
        if not vleq(gg, th):
            continue
        rho = vsub(th, gg)
        if not q.is_sd_class(rho):
            continue
        tw = q.sd_twist_exponent(g, rho)
        acc = acc + dg * RatFunc.q_power(int(tw)) * eng.sd_stack(rho)
    return acc


def assert_engine_matches_full_region(q, slope, bound):
    eng = inv._engine(q, slope, bound)
    refs = {}
    for value, classes in eng.by_value.items():
        refs[value] = full_region_dom_table(eng, value)
        for a in classes:
            assert eng.semistable(a) == reference_semistable(
                eng, refs[value], a), (a, value)
    sd_classes = q.sd_classes_up_to(bound)
    zero = Fraction(0)
    # The engine's box at 0 leaves the self-dual readers out: under a
    # self-dual slope they all have slope 0.
    assert set(sd_classes) - {eng.zero} <= set(eng.by_value.get(zero, []))
    refs.setdefault(zero, full_region_dom_table(eng, zero))
    for th in sd_classes:
        assert eng.sd_semistable(th) == reference_sd_semistable(
            eng, refs[zero], th), th
    for value, tab in eng._dom.items():
        readers = eng.by_value.get(value, []) + (
            sd_classes if value == 0 else [])
        box = tuple(max(col) for col in zip(eng.zero, *readers))
        for p, dp in tab.items():
            assert vleq(p, box), (p, value)
            # the engine keeps D[p] = M(p) d[p] in Z[q, 1/q]
            assert over_gl_denominator(dp.poly, p) == refs[value][p]


@pytest.mark.parametrize("esigns", [(1, 1), (1, -1), (-1, -1)])
@pytest.mark.parametrize("vsign", [1, -1])
def test_dom_table_matches_full_region_on_kronecker(esigns, vsign):
    q = calibrated_kron(esigns, vsign)
    assert_engine_matches_full_region(q, hn_slope(q), 6)


def test_dom_table_matches_full_region_on_suite():
    for q, slopes in acceptance_suite():
        for slope in slopes:
            assert_engine_matches_full_region(q, slope, 4)


@pytest.mark.parametrize("make, weights", [
    (calibrated_mixed, {"i": 1, "k": -1}),
    (calibrated_mixed, {"i": Fraction(-1, 2), "k": Fraction(1, 2)}),
    (calibrated_two_pairs, {"a": 1, "d": -1, "b": 2, "c": -2}),
    (calibrated_two_pairs, {"a": 2, "d": -2, "b": -1, "c": 1}),
])
def test_dom_table_matches_full_region_with_a_commutation_form(make, weights):
    q = make()
    units = [tuple(int(i == j) for j in range(len(q.vertices)))
             for i in range(len(q.vertices))]
    assert any(q.commutation_exponent(a, b) for a in units for b in units)
    assert_engine_matches_full_region(q, Slope.from_dict(q, weights), 4)


def test_semistable_recursion_makes_no_ratfunc_arithmetic(monkeypatch):
    q = calibrated_kron()
    eng = inv._engine(q, hn_slope(q), 6)
    calls = []
    for name in ("__add__", "__mul__"):
        def counted(self, other, _orig=getattr(RatFunc, name)):
            calls.append(_orig)
            return _orig(self, other)
        monkeypatch.setattr(RatFunc, name, counted)
    for a in eng.classes:
        eng.semistable(a)
        eng.dt_motivic(a)
        eng.epsilon(a)
        eng.epsilon_element(eng.value[a])
    assert eng._dom and eng._logs and not calls


def assert_star_log_matches_torus(q, slope, bound):
    """The engine's star-log on integer numerators against the torus
    algebra's RatFunc series, at every slope value."""
    eng = inv._engine(q, slope, bound)
    for value in eng.by_value:
        want = star_log_one_plus(eng.semistable_element(value), bound)
        assert eng.epsilon_element(value) == want, value
        for a in eng.by_value[value]:
            assert eng.epsilon(a) == want.get(a) * inv_q_minus_qinv(), a


@pytest.mark.parametrize("esigns", [(1, 1), (1, -1), (-1, -1)])
@pytest.mark.parametrize("vsign", [1, -1])
def test_epsilon_element_matches_torus_star_log_on_kronecker(esigns, vsign):
    q = calibrated_kron(esigns, vsign)
    for slope in (Slope.trivial(q), hn_slope(q)):
        assert_star_log_matches_torus(q, slope, 6)


def test_epsilon_element_matches_torus_star_log_on_suite():
    for q, slopes in acceptance_suite():
        for slope in slopes:
            assert_star_log_matches_torus(q, slope, 4)


def test_exp_log_inversion_roundtrip():
    q = calibrated_kron()
    s = hn_slope(q)
    bound = 4
    for val in inv.slope_values(q, s, bound):
        x = inv.semistable_element(q, s, val, bound)
        e = inv.epsilon_element(q, s, val, bound)
        assert star_exp(e, bound) == integrated_unit(q, bound) + x


def test_sd_square_root_inversion_roundtrip():
    q = calibrated_kron()
    s = hn_slope(q)
    bound = 4
    e0 = inv.epsilon_element(q, s, Fraction(0), bound)
    esd = inv.sd_epsilon_element(q, s, bound)
    rebuilt = series_diamond(e0.scale(Fraction(1, 2)), esd,
                             lambda n: Fraction(1, _fact(n)), bound)
    assert rebuilt == inv.sd_semistable_element(q, s, bound)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_filtration_completeness_linear():
    q = calibrated_kron()
    s = hn_slope(q)
    bound = 4
    unit = integrated_unit(q, bound)
    prod = None
    for val in inv.slope_values(q, s, bound):
        factor = unit + inv.semistable_element(q, s, val, bound)
        prod = factor if prod is None else prod.star(factor)
    assert prod == inv.integrated_stack_element(q, bound)


def test_filtration_completeness_sd():
    q = calibrated_kron()
    s = hn_slope(q)
    bound = 4
    unit = integrated_unit(q, bound)
    acc = inv.sd_semistable_element(q, s, bound)
    for val in sorted(v for v in inv.slope_values(q, s, bound) if v > 0):
        acc = (unit + inv.semistable_element(q, s, val, bound)).diamond(acc)
    assert acc == inv.sd_stack_element(q, bound)


def avg_linear_identity(q, s, alpha):
    """Component integral as the multiplicity-averaged sum of epsilon
    products over slope-non-increasing ordered decompositions."""
    total = RatFunc(0)

    def rec(rem, parts):
        nonlocal total
        if vtotal(rem) == 0:
            n = len(parts)
            expo = 0
            for i in range(n):
                for j in range(i + 1, n):
                    expo += q.commutation_exponent(parts[i], parts[j])
            mult = {}
            for p in parts:
                key = s.value(p)
                mult[key] = mult.get(key, 0) + 1
            w = 1
            for m in mult.values():
                w *= _fact(m)
            term = RatFunc(Fraction(1, w)) * RatFunc.q_power(expo)
            for p in parts:
                term = term * inv.epsilon_integral(q, s, p, bound=vtotal(alpha))
            total = total + term
            return
        from quiver_dt.quiver import boxed_vectors, vsub
        for part in boxed_vectors(rem):
            if vtotal(part) == 0:
                continue
            if parts and s.value(parts[-1]) < s.value(part):
                continue
            rec(vsub(rem, part), parts + [part])

    rec(alpha, [])
    return total


def avg_sd_identity(q, s, theta):
    """Self-dual component integral as the |W^sd|-averaged sum over
    non-increasing nonnegative-slope linear parts and an epsilon residue."""
    from quiver_dt.quiver import boxed_vectors, vleq, vsub
    bound = vtotal(theta)
    total = RatFunc(0)

    def finalize(parts, rho):
        nonlocal total
        expo = Fraction(0)
        suffix = rho
        for part in reversed(parts):
            expo += q.sd_twist_exponent(part, suffix)
            suffix = vadd(suffix, vadd(part, q.dual_vector(part)))
        mult = {}
        for p in parts:
            key = s.value(p)
            mult[key] = mult.get(key, 0) + 1
        w = 2 ** mult.get(Fraction(0), 0)
        for m in mult.values():
            w *= _fact(m)
        term = RatFunc(Fraction(1, w)) * RatFunc.q_power(int(expo))
        for p in parts:
            term = term * inv.epsilon_integral(q, s, p, bound=bound)
        term = term * inv.sd_epsilon_integral(q, s, rho, bound=bound)
        total = total + term

    def rec(prefix, parts):
        used = vadd(prefix, q.dual_vector(prefix))
        rem = vsub(theta, used)
        if min(rem) >= 0 and q.is_sd_class(rem):
            finalize(parts, rem)
        if vtotal(rem) <= 0:
            return
        for part in boxed_vectors(rem):
            if vtotal(part) == 0:
                continue
            if not vleq(vadd(part, q.dual_vector(part)), rem):
                continue
            if s.value(part) < 0:
                continue
            if parts and s.value(parts[-1]) < s.value(part):
                continue
            rec(vadd(prefix, part), parts + [part])

    rec(tuple(0 for _ in theta), [])
    return total


def test_averaged_multiplicity_identities():
    q = calibrated_kron()
    s = hn_slope(q)
    for a in [(1, 1), (2, 1), (2, 2)]:
        assert avg_linear_identity(q, s, a) == stack_class(q, a)
    for th in [(1, 1), (2, 2)]:
        assert avg_sd_identity(q, s, th) == sd_stack_class(q, th)
    pt = calibrated_point(1)
    t = Slope.trivial(pt)
    for n in range(1, 4):
        assert avg_linear_identity(pt, t, (n,)) == stack_class(pt, (n,))
        assert avg_sd_identity(pt, t, (n,)) == sd_stack_class(pt, (n,))


def test_no_pole_report_clean_quivers():
    q = calibrated_kron((1, -1))
    table = inv.build_table(q, hn_slope(q), 3)
    assert inv.table_all_regular(table)
    report = inv.no_pole_report(table)
    assert all(r["ok"] for r in report)
    assert any(r["side"] == "self-dual" for r in report)


def test_no_pole_negative_control():
    pt = point_quiver(1)
    pt.set_calibration(Calibration(-1, 1, (Fraction(1),)))
    t = Slope.trivial(pt)
    with pytest.raises(inv.NoPoleViolation):
        inv.sd_dt_mot(pt, t, (2,))
    table = inv.build_table(pt, t, 2)
    assert not inv.table_all_regular(table)
    bad = [r for r in inv.no_pole_report(table)
           if r["side"] == "self-dual" and r["class"] == (2,)]
    assert bad and bad[0]["order_at_-1"] == 1 and bad[0]["order_at_1"] <= 0
    sd_two = [r for r in table.sd_rows if r.dim_vector == (2,)]
    assert sd_two and sd_two[0].dt_numeric is None


def test_table_rows_and_serialization():
    q = calibrated_kron()
    s = hn_slope(q)
    table = inv.build_table(q, s, 3)
    assert table.sd_included
    assert [r.dim_vector for r in table.rows] == \
        [(0, 0)] + q.dim_vectors_up_to(3)
    assert [r.dim_vector for r in table.sd_rows] == q.sd_classes_up_to(3)
    parsed = inv.InvariantTable.from_data(json.loads(table.to_json()))
    assert parsed == table
    csv_rows = table.csv_rows()
    assert csv_rows[0] == inv.InvariantTable.CSV_HEADER
    assert len(csv_rows) == 1 + len(table.rows) + len(table.sd_rows)


def test_table_skips_sd_for_non_self_dual_slope():
    q = calibrated_kron()
    s = Slope.from_dict(q, {"i": 1, "j": 1})
    table = inv.build_table(q, s, 2)
    assert not table.sd_included
    assert table.sd_rows == []
