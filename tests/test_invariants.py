import gc
import json
import math
import random
import re
import weakref
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (assert_mirror_changes_nothing,
                     assert_regions_change_nothing, calibrated_mixed,
                     calibrated_two_pairs, collector_off, epsilon_elem,
                     integrated_stack_element, mixed_quiver, sd_epsilon_elem,
                     sd_semistable_element, sd_stack_element,
                     semistable_element, spy_on_seeded, star_series,
                     zeroed_at)
from reference import (averaged_sd_stack_class, averaged_stack_class,
                       binom_fraction, bps_invariants, direct_epsilon_integral,
                       direct_sd_epsilon_integral,
                       direct_sd_semistable_integral,
                       direct_semistable_integral, sd_stack_class,
                       stack_class, vleq)
from suite import _rand_quiver, acceptance_suite
from torus import (INV_Q_MINUS_QINV, Q_MINUS_QINV, integrated_unit,
                   series_diamond, star_exp, star_log_one_plus)
from quiver_dt import (invariants as inv, quiver as quiver_module, ratfunc,
                       wallcross as wc)
from quiver_dt.cli import load_quiver, main as cli_main
from quiver_dt.oracle import (CalibrationError, calibrate_signs,
                              verify_calibration)
from quiver_dt.motives import (over_gl_denominator, q2_binomial,
                               sd_stack_exponent, stack_exponent)
from quiver_dt.quiver import (Calibration, Edge, SelfDualQuiver, Slope,
                              ValidationError, boxed_vectors, graded_lex_key,
                              kronecker_variant, make_calibration,
                              point_quiver, vadd, vsub, vtotal)
from quiver_dt.ratfunc import Laurent, PoleError, RatFunc, laurent_sum
from quiver_dt.wallcross import (SlopePair, diff_tables, epsilon_table,
                                 wallcross_epsilon)


FIXTURES = Path(inv.__file__).parent / "fixtures"
TWISTED = Path(__file__).parent / "fixtures"


def q_pow(k):
    return RatFunc.q_power(k)


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


@pytest.mark.parametrize("weights, equal", [
    ((0.5, -0.5), (Fraction(1, 2), Fraction(-1, 2))),
    (("1", "-1"), None),
    ((True, False), (1, 0))], ids=["float", "str", "bool"])
def test_slope_weight_that_is_not_rational_is_refused(weights, equal):
    """Refused whether or not an engine of equal weights is cached."""
    q = calibrated_kron()
    kind = type(weights[0]).__name__
    message = f"slope weight of type {kind} is not an int or a Fraction"
    for cached in (False, True):
        if cached and equal:
            inv.build_table(q, Slope(equal), 2)
        with pytest.raises(ValidationError, match=message):
            inv.build_table(q, Slope(weights), 2)
        with pytest.raises(ValidationError, match=message):
            inv.dt_num(q, Slope(weights), (1, 1))


def test_new_calibration_is_not_served_from_the_cache():
    q = kronecker_variant((1, 1), 1)
    cal = calibrate_signs(q)
    s = hn_slope(q)
    before = inv.dt_mot(q, s, (2, 1), bound=3)
    sd_before = inv.sd_dt_mot(q, s, (1, 1), bound=3)
    q.set_calibration(make_calibration(q, -cal.orientation, -cal.placement))
    after = inv.dt_mot(q, s, (2, 1), bound=3)
    sd_after = inv.sd_dt_mot(q, s, (1, 1), bound=3)
    q.engine_cache.clear()
    assert after == inv.dt_mot(q, s, (2, 1), bound=3) != before
    assert sd_after == inv.sd_dt_mot(q, s, (1, 1), bound=3) != sd_before


def test_a_new_calibration_empties_the_engine_cache():
    q = kronecker_pm_plus()
    s = hn_slope(q)

    def values():
        return ([inv.dt_mot(q, s, a) for a in q.dim_vectors_up_to(3)]
                + [inv.sd_dt_mot(q, s, th) for th in q.sd_classes_up_to(3)])

    first = values()
    cal = q.calibration
    q.set_calibration(make_calibration(q, -cal.orientation, -cal.placement))
    assert not q.engine_cache
    assert values() != first
    q.set_calibration(cal)
    assert not q.engine_cache
    assert values() == first
    engines = list(q.engine_cache.items())
    q.set_calibration(Calibration(cal.orientation, cal.placement,
                                  tuple(cal.kappa)))
    assert list(q.engine_cache.items()) == engines
    assert all(q.engine_cache[k] is eng for k, eng in engines)


def test_first_query_on_uncalibrated_quiver_builds_one_engine():
    q = kronecker_variant((1, 1), 1)
    inv.dt_mot(q, hn_slope(q), (1, 1), bound=2)
    inv.dt_mot(q, hn_slope(q), (1, 1), bound=2)
    assert q.calibration is not None
    assert len(q.engine_cache) == 1


def test_engines_do_not_outlive_their_quiver():
    q = calibrated_kron()
    inv.dt_mot(q, hn_slope(q), (2, 1), bound=3)
    assert len(q.engine_cache) == 1
    ref = weakref.ref(q)
    del q
    gc.collect()
    assert ref() is None


def test_a_quivers_engines_go_with_it_by_reference_counting():
    """With the cyclic collector off, the engines that a library session
    fills on a fresh quiver (a verified calibration, scalar queries, a
    table and a crossing) go, with all they memoise, when the quiver and
    the results do: an engine holds its quiver weakly, so no reference
    cycle keeps them, and the session leaves no cyclic garbage."""
    with collector_off():
        gc.collect()
        q = kronecker_variant((1, -1), 1)
        trivial, hn = Slope.trivial(q), hn_slope(q)
        scalars = [inv.dt_num(q, hn, (2, 1)), inv.sd_dt_mot(q, hn, (1, 1))]
        checks = verify_calibration(q, 3)
        table = inv.build_table(q, hn, 4)
        crossed = wallcross_epsilon(epsilon_table(q, trivial, 4),
                                    SlopePair(q, trivial, hn))
        diff = diff_tables(crossed, epsilon_table(q, hn, 4))
        engines = list(q.engine_cache.values())
        assert len(engines) == 2 and engines[0].quiver is q
        refs = [weakref.ref(x) for x in (q, *engines)]
        del q, scalars, checks, table, crossed, diff, engines
        assert [ref() for ref in refs] == [None] * 3
        assert gc.collect() == 0


def test_clear_cache_empties_the_pure_memos_and_leaves_engines():
    """clear_cache empties the module's memos of pure functions, as a fresh
    process has them; engines live on their quivers, and stay."""
    q = calibrated_kron()
    before = inv.dt_mot(q, hn_slope(q), (2, 1), bound=3)
    engines = dict(q.engine_cache)
    inv.clear_cache()
    assert not any(f.cache_info().currsize for f in (
        inv._box_steps, inv._below, inv._ray, inv._coeffs))
    assert q.engine_cache == engines
    fresh = calibrated_kron()
    assert inv.dt_mot(fresh, hn_slope(fresh), (2, 1), bound=3) == before


def test_slopes_on_one_ray_share_one_engine():
    """w, 2w and w/3 find one engine, keyed by the primitive integer vector
    on their ray and computing at its slope, whether the weights are ints
    or Fractions; -w keys a second, and the trivial slope keys zero."""
    q = calibrated_kron()
    for w in [(4, -2), (Fraction(4, 3), Fraction(-2, 3))]:
        q.engine_cache.clear()
        eng = inv._engine(q, Slope(w))
        for c in (2, Fraction(1, 3)):
            assert inv._engine(q, Slope(tuple(c * x for x in w))) is eng
        assert list(q.engine_cache) == [(2, -1)] == [eng.slope.weights]
        inv._engine(q, Slope(tuple(-x for x in w)))
        assert list(q.engine_cache) == [(2, -1), (-2, 1)]
        assert all(type(x) is int for key in q.engine_cache for x in key)
    q.engine_cache.clear()
    inv._engine(q, Slope.trivial(q))
    assert list(q.engine_cache) == [(0, 0)]


def suite_quiver_with_a_pair():
    """A calibrated suite-shaped quiver on three vertices: a swapped pair
    and a fixed vertex, with four edges."""
    q = _rand_quiver(random.Random(7), shapes=("P", "F"), n_edges=4)
    calibrate_signs(q)
    return q, [Slope.trivial(q),
               Slope.from_dict(q, {"v0": Fraction(2, 3),
                                   "v1": Fraction(-2, 3)}),
               Slope.from_dict(q, {"v0": -1, "v1": 1}),
               Slope.from_dict(q, {"v0": 2, "v1": -2})]


def count_calls(monkeypatch, calls, owner, name):
    """Patch owner.name through monkeypatch to append name to calls."""
    orig = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: calls.append(name) or orig(*args))


def test_a_warm_round_reads_every_finished_scalar_off_its_engine(
        monkeypatch):
    """After one round of scalar queries and tables, a second reads no pole
    order and no value at q = 1 or q = -1 off a polynomial (each DTmot
    object the engine keeps has them), and lists no classes."""
    q, slopes = suite_quiver_with_a_pair()

    def round_of_queries():
        out = []
        for s in slopes:
            for a in q.dim_vectors_up_to(4):
                out += [inv.dt_num(q, s, a), inv.dt_mot(q, s, a)]
            for th in q.sd_classes_up_to(4):
                out += [inv.sd_dt_mot(q, s, th), inv.sd_dt_num(q, s, th)]
            out.append(inv.build_table(q, s, 4).to_json())
        return out
    first = round_of_queries()
    calls = []
    for owner, name in [(ratfunc, "_at_point"),
                        (quiver_module, "graded_lex_key"),
                        (SelfDualQuiver, "is_sd_class")]:
        count_calls(monkeypatch, calls, owner, name)
    assert round_of_queries() == first
    assert not calls
    # A new bound lists its classes, and a fresh copy of a DTmot reads its
    # pole order and value off its polynomials, so the counters do count.
    q.sd_classes_up_to(5)
    fresh = RatFunc.from_data(
        inv.dt_mot(q, slopes[0], (0, 0, 2)).to_data())
    fresh.eval_at(-1)
    assert {"graded_lex_key", "is_sd_class", "_at_point"} <= set(calls)


def point_readings(x):
    """x's pole orders at q = 1 and q = -1 and its value at -1, or the
    order of its pole there."""
    try:
        value = x.eval_at(-1)
    except PoleError as err:
        value = ("pole", err.order)
    return x.pole_order_at(1), x.pole_order_at(-1), value


def memo_tables():
    """The tables of the package fixtures at bound 6 and of the quivers in
    tests/fixtures at bound 4, each at the trivial slope and at one slope
    that separates two vertices."""
    for path in sorted(FIXTURES.glob("*.json")):
        q = load_quiver(str(path))
        slopes = [Slope.trivial(q)]
        if {"i", "j"} <= set(q.vertices):
            slopes.append(hn_slope(q))
        for s in slopes:
            yield inv.build_table(q, s, 6)
    for name, other in (("cycle", {"i": 1, "k": -1}),
                        ("mixed", {"i": 1, "k": -1}),
                        ("two_pairs", {"a": 1, "d": -1})):
        q = load_quiver(str(TWISTED / f"{name}.json"))
        for s in (Slope.trivial(q), Slope.from_dict(q, other)):
            yield inv.build_table(q, s, 4)


def test_each_dtmot_keeps_what_a_fresh_copy_reads(monkeypatch):
    """Each row's DTmot keeps the pole orders at q = 1 and q = -1 and the
    value at -1 that a fresh copy of it reads off its polynomials, the
    row's DTnum is that value, and a second no-pole report of a table
    sweeps no polynomial."""
    calls = []
    count_calls(monkeypatch, calls, ratfunc, "_at_point")
    rows = 0
    for table in memo_tables():
        first = inv.no_pole_report(table)
        calls.clear()
        assert inv.no_pole_report(table) == first
        assert not calls
        for r in table.rows + table.sd_rows:
            got = point_readings(r.dt_motivic)
            assert got == point_readings(
                RatFunc.from_data(r.dt_motivic.to_data())), r.dim_vector
            assert r.dt_numeric == (None if got[1] > 0 else got[2])
            rows += 1
    assert calls and rows == 725


def test_a_warm_engine_call_hashes_no_fraction(monkeypatch):
    q, slopes = suite_quiver_with_a_pair()
    engines = [inv._engine(q, s) for s in slopes]
    calls = []
    count_calls(monkeypatch, calls, Fraction, "__hash__")
    assert [inv._engine(q, s) for s in slopes] == engines
    assert not calls
    hash(slopes[1].weights)
    assert calls


# -- reference for the gated recursion ------------------------------------------

def full_region_dom_table(eng, s, bound):
    """The gated recursion over every class of slope above s within the
    bound, each entry scanning the whole table, in RatFunc: the engine's
    domain before it was cut down to the classes a query reaches, and its
    arithmetic before the motive denominators were cleared."""
    q = eng.quiver
    dom = [eng.zero] + [g for g in q.dim_vectors_up_to(bound)
                        if eng.slope.value(g) > s]
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
        acc = acc + dg * RatFunc.q_power(int(tw)) * sd_stack_class(q, rho)
    return acc


def assert_engine_matches_full_region(q, slope, bound):
    """The engine's semistable values, and its self-dual ones at a self-dual
    slope, and every recursion entry of each value they read, against the
    full-region reference.  Values are read at the engine's own slope, the
    primitive integer vector on slope's ray: slope's are c > 0 times them."""
    eng = inv._engine(q, slope)
    classes = q.dim_vectors_up_to(bound)
    c = next((Fraction(w) / r for w, r in zip(slope.weights,
                                              eng.slope.weights) if r), 1)
    assert c > 0
    refs = {}
    for a in classes:
        value = eng.slope.value(a)
        assert slope.value(a) == c * value, a
        if value not in refs:
            refs[value] = full_region_dom_table(eng, value, bound)
        assert eng.semistable(a) == reference_semistable(
            eng, refs[value], a), (a, value)
    if slope.is_self_dual(q):
        sd_classes = q.sd_classes_up_to(bound)
        zero = Fraction(0)
        # Under a self-dual slope every self-dual class has slope 0.
        assert all(slope.value(th) == zero for th in sd_classes if any(th))
        refs.setdefault(zero, full_region_dom_table(eng, zero, bound))
        for th in sd_classes:
            assert eng.sd_semistable(th) == reference_sd_semistable(
                eng, refs[zero], th), th
    for value, ref in refs.items():
        for p in [eng.zero] + classes:
            dp = eng._dom_table((value.numerator, value.denominator), p)[p]
            if p in ref:
                # the engine keeps D(s, p) = M(p) d(s, p) in Z[q, 1/q]
                assert over_gl_denominator(dp, p) == ref[p], (p, value)
            else:
                assert dp is None, (p, value)


@pytest.mark.parametrize("esigns", [(1, 1), (1, -1), (-1, -1)])
@pytest.mark.parametrize("vsign", [1, -1])
def test_dom_table_matches_full_region_on_kronecker(esigns, vsign):
    q = calibrated_kron(esigns, vsign)
    assert_engine_matches_full_region(q, hn_slope(q), 6)


def test_dom_table_matches_full_region_on_suite():
    for q, slopes in acceptance_suite():
        for slope in slopes:
            assert_engine_matches_full_region(q, slope, 4)


# Self-dual slopes of the two shapes whose commutation form is nonzero.
COMMUTATION_CASES = [
    (calibrated_mixed, {"i": 1, "k": -1}),
    (calibrated_mixed, {"i": Fraction(-1, 2), "k": Fraction(1, 2)}),
    (calibrated_two_pairs, {"a": 1, "d": -1, "b": 2, "c": -2}),
    (calibrated_two_pairs, {"a": 2, "d": -2, "b": -1, "c": 1}),
]


@pytest.mark.parametrize("make, weights", COMMUTATION_CASES)
def test_dom_table_matches_full_region_with_a_commutation_form(make, weights):
    q = make()
    units = [tuple(int(i == j) for j in range(len(q.vertices)))
             for i in range(len(q.vertices))]
    assert any(q.commutation_exponent(a, b) for a in units for b in units)
    assert_engine_matches_full_region(q, Slope.from_dict(q, weights), 4)


# -- recursion entries shared across slope values -----------------------------

def region(eng, s, p):
    """The classes 0 < c <= p of value above s: the part of the region of s
    that D(s, p) reads."""
    return frozenset(c for c in boxed_vectors(p)
                     if any(c) and Fraction(*eng.value(c)) > Fraction(*s))


def test_table_computes_each_region_once(monkeypatch):
    """build_table on kronecker_pm_plus at i=1,j=-1, bound 16: 957
    _chain_sum calls while each slope value kept its own table."""
    q = kronecker_pm_plus()
    s = hn_slope(q)
    calls = []
    chain_sum = inv._chain_sum

    def counted(*args):
        calls.append(1)
        return chain_sum(*args)
    monkeypatch.setattr(inv, "_chain_sum", counted)
    inv.build_table(q, s, 16)
    assert len(calls) == 267
    eng = inv._engine(q, s)
    entries = dict(eng._regions.values())
    regions = set()
    for value, tab in eng._dom.items():
        for p, dp in tab.items():
            if any(p):
                assert dp is entries[eng._ids[value][p]], (value, p)
                if dp is not None:
                    regions.add((p, region(eng, value, p)))
    assert sum(e is not None for e in entries.values()) == len(regions) == 187


def test_equal_values_share_one_pair_and_one_table():
    """value((1, 1)) = 1/2 and value((2, 2)) = 2/4 at i=1, j=0: one reduced
    pair, one recursion table."""
    q = kronecker_pm_plus()
    eng = inv._engine(q, Slope.from_dict(q, {"i": 1}))
    assert eng.value((1, 1)) == eng.value((2, 2)) == (1, 2)
    assert eng.value((2, 0)) == (1, 1) and eng.value((0, 3)) == (0, 1)
    eng.semistable((1, 1))
    eng.semistable((2, 2))
    assert list(eng._dom) == [(1, 2)]
    assert eng._dom_table((1, 2), (1, 1)) is eng._dom_table((1, 2), (2, 2))


def test_no_query_reads_slope_value(monkeypatch):
    """Tables, scalars and the transform read slope values from the engine's
    integer weights, never through Slope.value."""
    cases = [(kronecker_pm_plus(), {"i": 1, "j": -1}, {"i": -1, "j": 1}),
             (calibrated_two_pairs(), {"a": 1, "d": -1, "b": 2, "c": -2},
              {"a": 2, "d": -2, "b": -1, "c": 1})]

    def refuse(self, alpha):
        raise AssertionError(f"Slope.value{alpha} was called")
    monkeypatch.setattr(Slope, "value", refuse)
    for q, plus, minus in cases:
        plus, minus = Slope.from_dict(q, plus), Slope.from_dict(q, minus)
        classes = q.dim_vectors_up_to(4)
        sd_classes = q.sd_classes_up_to(4)
        for a in classes:
            inv.semistable_integral(q, minus, a)
            inv.epsilon_integral(q, minus, a)
            inv.dt_num(q, minus, a)
        for th in sd_classes:
            inv.sd_semistable_integral(q, minus, th)
            inv.sd_dt_num(q, minus, th)
        assert inv.slope_values(q, minus, 4)
        assert inv.build_table(q, plus, 4).rows
        crossed = wallcross_epsilon(epsilon_table(q, plus, 4),
                                    SlopePair(q, plus, minus))
        assert crossed == epsilon_table(q, minus, 4)
        assert crossed.sd_eps


def test_sharing_changes_no_value_on_the_fixtures():
    for path in sorted(FIXTURES.glob("kronecker_*.json")):
        q = load_quiver(str(path))
        for w in ({}, {"i": 1, "j": -1}, {"i": -1, "j": 1}, {"i": 2, "j": 1}):
            assert_regions_change_nothing(q, Slope.from_dict(q, w), 7)


@pytest.mark.parametrize("make, weights", COMMUTATION_CASES + [
    (calibrated_mixed, {"i": 2, "j": 1, "k": -1})])
def test_sharing_changes_no_value_with_a_commutation_form(make, weights):
    q = make()
    assert_regions_change_nothing(q, Slope.from_dict(q, weights), 5)


def test_sharing_changes_no_value_in_the_seeded_engine():
    q = kronecker_pm_plus()
    args, _ = seeded_by_the_transform(q, 6)
    assert_regions_change_nothing(
        q, args[0].slope, 6,
        lambda q, s: inv._seeded_engine(inv._engine(q, s), *args[1:]))


def test_semistable_recursion_makes_no_ratfunc_arithmetic(monkeypatch):
    q = calibrated_kron()
    s = hn_slope(q)
    eng = inv._engine(q, s)
    calls = []
    for name in ("__add__", "__mul__"):
        def counted(self, other, _orig=getattr(RatFunc, name)):
            calls.append(_orig)
            return _orig(self, other)
        monkeypatch.setattr(RatFunc, name, counted)
    for a in q.dim_vectors_up_to(6):
        eng.semistable(a)
        eng.dt_motivic(a)
        eng.epsilon(a)
        inv.epsilon_element(q, s, Fraction(*eng.value(a)), 6)
    for th in q.sd_classes_up_to(6):
        eng.sd_semistable(th)
        eng.sd_dt_motivic(th)
    inv.sd_epsilon_element(q, s, 6)
    assert eng._dom and eng._memo["_log"] and not calls
    assert eng._memo["_sd_semistable_num"] and eng._memo["_root_weight"]
    # Some root weight is Miller's recurrence: its class's own twists vanish.
    steps = eng._memo["_steps"]
    assert any(eng.value(g)[0] == 0 and not any(t[3] for t in steps[g])
               for g in eng._memo["_root_weight"])


def assert_star_log_matches_torus(q, slope, bound):
    """The engine's star-log on integer numerators against the torus
    algebra's RatFunc series, at every slope value."""
    for value in inv.slope_values(q, slope, bound):
        want = star_log_one_plus(
            semistable_element(q, slope, value, bound), bound)
        assert epsilon_elem(q, slope, value, bound) == want, value
        for a in q.dim_vectors_up_to(bound):
            if slope.value(a) == value:
                assert inv.epsilon_integral(q, slope, a) == \
                    want.get(a) * INV_Q_MINUS_QINV, a


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


def assert_sd_epsilon_matches_torus_series(q, slope, bound):
    """The engine's per-class self-dual epsilon against the inverse square
    root series of the slope-0 semistable element acting on the self-dual
    semistable element, in the torus module."""
    want = series_diamond(semistable_element(q, slope, Fraction(0), bound),
                          sd_semistable_element(q, slope, bound),
                          lambda n: binom_fraction(Fraction(-1, 2), n), bound)
    assert sd_epsilon_elem(q, slope, bound) == want


def test_sd_epsilon_element_matches_torus_series():
    for esigns in ((1, 1), (1, -1), (-1, -1)):
        for vsign in (1, -1):
            q = calibrated_kron(esigns, vsign)
            for slope in (Slope.trivial(q), hn_slope(q)):
                assert_sd_epsilon_matches_torus_series(q, slope, 6)
    for q, slopes in acceptance_suite():
        for slope in slopes:
            assert_sd_epsilon_matches_torus_series(q, slope, 4)


def test_one_engine_serves_every_bound():
    q = calibrated_kron()
    s = hn_slope(q)
    for a in q.dim_vectors_up_to(5):
        inv.dt_num(q, s, a)
    for th in q.sd_classes_up_to(5):
        inv.sd_dt_mot(q, s, th)
    for bound in range(2, 6):
        for a in q.dim_vectors_up_to(bound):
            inv.dt_mot(q, s, a, bound=bound)
        for th in q.sd_classes_up_to(bound):
            inv.sd_dt_mot(q, s, th, bound=bound)
    inv.build_table(q, s, 5)
    epsilon_table(q, s, 4)
    assert len(q.engine_cache) == 1


def own_numerators(q, bound):
    """The quiver's own numerators q^e(a) and q^e_sd(theta) up to bound."""
    return ({a: Laurent({stack_exponent(q, a): 1})
             for a in q.dim_vectors_up_to(bound)},
            {th: Laurent({sd_stack_exponent(q, th): 1})
             for th in q.sd_classes_up_to(bound)})


def test_seeded_engine_refuses_a_class_beyond_its_bound():
    """Seeded with the quiver's own numerators but for a doubled one at (3,
    0), which no other class within the bound lies above."""
    q = calibrated_kron()
    s = hn_slope(q)
    nums, sd_nums = own_numerators(q, 3)
    nums[(3, 0)] = Laurent({e: 2 * c for e, c in nums[(3, 0)].poly.items()})
    eng = inv._seeded_engine(inv._engine(q, s), nums, sd_nums)
    assert eng.seed_bound == 3
    for a in q.dim_vectors_up_to(3):
        assert (eng.epsilon(a) == inv.epsilon_integral(q, s, a)) == (
            a != (3, 0)), a
    assert eng.sd_dt_motivic((1, 1)) == inv.sd_epsilon_integral(q, s, (1, 1))
    with pytest.raises(ValueError, match="beyond the seeded bound 3"):
        eng.epsilon((2, 2))
    with pytest.raises(ValueError, match="beyond the seeded bound 3"):
        eng.sd_dt_motivic((2, 2))


# -- duality mirror -------------------------------------------------------------

MIRRORED = ("_semistable_num", "semistable", "_log", "epsilon",
            "dt_motivic")


def test_mirror_changes_no_value_on_the_fixtures():
    count = 0
    for path in sorted(FIXTURES.glob("*.json")):
        q = load_quiver(str(path))
        slopes = [Slope.trivial(q)]
        if {"i", "j"} <= set(q.vertices):
            slopes += [hn_slope(q), Slope.from_dict(q, {"i": -1, "j": 1})]
        for s in slopes:
            assert_mirror_changes_nothing(q, s, 8)
            count += 1
    assert count == 2 + 6 * 3


@pytest.mark.parametrize("make, weights", COMMUTATION_CASES + [
    (calibrated_mixed, {}), (calibrated_two_pairs, {})])
def test_mirror_changes_no_value_with_a_commutation_form(make, weights):
    q = make()
    assert_mirror_changes_nothing(q, Slope.from_dict(q, weights), 6)


def kronecker_pm_plus():
    return load_quiver(str(FIXTURES / "kronecker_pm_plus.json"))


def assert_holds_one_class_per_pair(eng, names, size):
    """No recursion table at a negative value, and each memo holds more than
    size classes, where a and a^v, if both are read, hold one object."""
    q = eng.quiver
    assert min(Fraction(*s) for s in eng._dom) >= 0
    for name in names:
        memo = eng._memo[name]
        assert len(memo) > size, name
        for a in memo:
            assert memo.get(q.dual_vector(a), memo[a]) is memo[a], (name, a)


@pytest.mark.parametrize("weights, bound", [({"i": 1, "j": -1}, 9), ({}, 6)])
def test_self_dual_engine_computes_one_class_per_duality_pair(weights, bound):
    q = kronecker_pm_plus()
    s = Slope.from_dict(q, weights)
    inv.build_table(q, s, bound)
    eng = inv._engine(q, s)
    assert_holds_one_class_per_pair(eng, MIRRORED, 9)
    assert_holds_one_class_per_pair(eng, ("_root_weight",), 4)
    if not weights:
        # The Kronecker classes of value 0 do not commute.
        assert_holds_one_class_per_pair(eng, ("_powers", "_steps"), 4)


def assert_holds_both_halves(eng, names):
    for name in names:
        memo = eng._memo[name]
        assert any(a != eng.quiver.dual_vector(a) for a in memo), name
        for a in memo:
            assert eng.quiver.dual_vector(a) in memo, (name, a)


def seeded_by_the_transform(q, bound):
    """The arguments wallcross_epsilon passes to _seeded_engine crossing a
    table from i=-1,j=1 to i=1,j=-1 at the bound with its values of slope
    value 1 and -1 zeroed (zeroed_at), and the seeded engine it returns,
    which has computed every value the transform reads."""
    passed = []
    with pytest.MonkeyPatch.context() as m:
        seeded = spy_on_seeded(m)
        pick = wc._seeded_engine
        m.setattr(wc, "_seeded_engine",
                  lambda *args: passed.append(args) or pick(*args))
        pair = SlopePair(q, Slope.from_dict(q, {"i": -1, "j": 1}),
                         hn_slope(q))
        wallcross_epsilon(
            zeroed_at(epsilon_table(q, pair.plus, bound), pair, 1), pair)
    [args], [eng] = passed, seeded
    return args, eng


SEEDED = ("_semistable_num", "_log", "epsilon", "_root_weight")


def test_seeded_engine_mirrors_the_numerators_of_a_genuine_table():
    """A genuine table's stack element has the quiver's own numerators, so
    _seeded_engine returns the cached engine, which mirrors."""
    q = kronecker_pm_plus()
    s = hn_slope(q)
    args = (inv._engine(q, s), *own_numerators(q, 6))
    eng = inv._seeded_engine(*args)
    assert eng is args[0] and eng.seed_bound is None
    for a in args[1]:
        eng.epsilon(a)
    for th in args[2]:
        eng.sd_dt_motivic(th)
    assert eng.slope.is_self_dual(q)
    assert_holds_one_class_per_pair(eng, SEEDED, 3)
    assert_mirror_changes_nothing(
        q, eng.slope, 6,
        lambda q, s: inv._seeded_engine(inv._engine(q, s), *args[1:]))


def test_non_self_dual_and_seeded_engines_compute_both_halves():
    """At a slope that is not self-dual, and in an engine seeded at a
    self-dual slope with the crossing's numerators, zero at (1, 0) and (0,
    1), changed to q^e(1, 0) at (1, 0)."""
    q = kronecker_pm_plus()
    s = Slope.from_dict(q, {"i": 2, "j": -1})
    inv.build_table(q, s, 9)
    assert_holds_both_halves(inv._engine(q, s), MIRRORED)
    bound = 6
    (target, nums, sd_nums), _ = seeded_by_the_transform(q, bound)
    assert not nums[(1, 0)].poly and not nums[(0, 1)].poly
    nums = nums | {(1, 0): Laurent({stack_exponent(q, (1, 0)): 1})}
    eng = inv._seeded_engine(target, nums, sd_nums)
    assert eng.seed_bound == bound
    for a in q.dim_vectors_up_to(bound):
        eng.epsilon(a)
    for th in q.sd_classes_up_to(bound):
        eng.sd_dt_motivic(th)
    assert_holds_both_halves(eng, ("_semistable_num", "_log", "epsilon"))


def test_exp_log_inversion_roundtrip():
    q = calibrated_kron()
    s = hn_slope(q)
    bound = 4
    for val in inv.slope_values(q, s, bound):
        x = semistable_element(q, s, val, bound)
        e = epsilon_elem(q, s, val, bound)
        assert star_exp(e, bound) == integrated_unit(q, bound) + x


def test_sd_square_root_inversion_roundtrip():
    q = calibrated_kron()
    s = hn_slope(q)
    bound = 4
    e0 = epsilon_elem(q, s, Fraction(0), bound)
    esd = sd_epsilon_elem(q, s, bound)
    rebuilt = series_diamond(e0.scale(Fraction(1, 2)), esd,
                             lambda n: Fraction(1, math.factorial(n)), bound)
    assert rebuilt == sd_semistable_element(q, s, bound)


def test_filtration_completeness_linear():
    q = calibrated_kron()
    s = hn_slope(q)
    bound = 4
    unit = integrated_unit(q, bound)
    prod = None
    for val in inv.slope_values(q, s, bound):
        factor = unit + semistable_element(q, s, val, bound)
        prod = factor if prod is None else prod.star(factor)
    assert prod == integrated_stack_element(q, bound)


def test_filtration_completeness_sd():
    q = calibrated_kron()
    s = hn_slope(q)
    bound = 4
    unit = integrated_unit(q, bound)
    acc = sd_semistable_element(q, s, bound)
    for val in sorted(v for v in inv.slope_values(q, s, bound) if v > 0):
        acc = (unit + semistable_element(q, s, val, bound)).diamond(acc)
    assert acc == sd_stack_element(q, bound)


def avg_linear_identity(q, s, alpha):
    return averaged_stack_class(
        q, s, alpha, lambda a: inv.epsilon_integral(q, s, a,
                                                    bound=vtotal(alpha)))


def avg_sd_identity(q, s, theta):
    bound = vtotal(theta)
    return averaged_sd_stack_class(
        q, s, theta, lambda a: inv.epsilon_integral(q, s, a, bound=bound),
        lambda rho: inv.sd_epsilon_integral(q, s, rho, bound=bound))


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


def reference_no_pole_report(table):
    """The report read off (q^2 - 1) eps on the linear side and off eps on
    the self-dual side."""
    shift = RatFunc.q_power(2) - RatFunc(1)
    out = []
    for side, rows in (("linear", table.rows), ("self-dual", table.sd_rows)):
        for r in rows:
            val = shift * r.epsilon if side == "linear" else r.epsilon
            plus, minus = val.pole_order_at(1), val.pole_order_at(-1)
            out.append({"side": side, "class": r.dim_vector,
                        "order_at_1": plus, "order_at_-1": minus,
                        "ok": plus <= 0 and minus <= 0})
    return out


def table_cases(fixture_bound):
    """(quiver, slope, bound): every fixture at the fixture bound, at the
    trivial slope and at i=1,j=-1 where the fixture has those vertices, and
    every suite quiver at bound 4, at its six slopes and the trivial one."""
    for path in sorted(FIXTURES.glob("*.json")):
        q = load_quiver(str(path))
        slopes = [Slope.trivial(q)]
        if {"i", "j"} <= set(q.vertices):
            slopes.append(hn_slope(q))
        for s in slopes:
            yield q, s, fixture_bound
    for q, slopes in acceptance_suite():
        for s in slopes + [Slope.trivial(q)]:
            yield q, s, 4


def regularity_tables():
    """The tables of table_cases at fixture bound 5."""
    for q, s, bound in table_cases(5):
        yield inv.build_table(q, s, bound)


def test_no_pole_report_matches_the_epsilon_formula():
    count = 0
    for table in regularity_tables():
        got = inv.no_pole_report(table)
        want = reference_no_pole_report(table)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w, (table.quiver_data["vertices"], table.slope_data)
        count += 1
    assert count == 14 + 70


def test_dt_motivic_matches_the_integrated_log_numerator():
    count = 0
    for q, s, bound in table_cases(8):
        eng = inv._engine(q, s)
        for a in [eng.zero] + q.dim_vectors_up_to(bound):
            e = inv._ZERO
            if any(a):
                e = star_series(eng._semistable_num, eng._powers, a, 1,
                                inv._LOG)
            want = Q_MINUS_QINV * over_gl_denominator(e, a)
            assert eng.dt_motivic(a) == want, (q.vertices, s.weights, a)
        count += 1
    assert count == 14 + 70


def untrimmed_star_powers(quiver, g, value, x, powers):
    """invariants._star_powers as it was before it stopped at the last power
    whose sum has a term: always |g| powers, the later ones zero."""
    s = value(g)
    terms = [[] for _ in range(1, vtotal(g))]
    for p in boxed_vectors(g):
        if p == g or not any(p) or value(p) != s:
            continue
        step = vsub(g, p)
        xs = x(step)
        if xs.poly:
            rest = [xs] + [q2_binomial(n, k) for n, k in zip(g, p)
                           if 0 < k < n]
            tw = quiver.commutation_exponent(p, step)
            for n, pn in enumerate(powers(p)):
                terms[n].append((tw, [pn] + rest))
    return [x(g)] + [laurent_sum(t) for t in terms]


def test_epsilon_is_the_semistable_value_where_the_star_log_has_one_term():
    count = one_term = 0
    for q, s, bound in table_cases(8):
        eng = inv._engine(q, s)
        memo = {}

        def powers(g):
            if g not in memo:
                memo[g] = untrimmed_star_powers(q, g, eng.value,
                                                eng._semistable_num, powers)
            return memo[g]
        for a in q.dim_vectors_up_to(bound):
            full = powers(a)
            trimmed = eng._powers(a)
            assert len(full) == vtotal(a)
            assert [p.poly for p in full[:len(trimmed)]] == \
                [p.poly for p in trimmed]
            assert not any(p.poly for p in full[len(trimmed):])
            chain = any(eng.value(p) == eng.value(a)
                        and eng._semistable_num(vsub(a, p)).poly
                        for p in boxed_vectors(a) if any(p) and p != a)
            assert (len(trimmed) == 1) == (not chain)
            e = star_series(eng._semistable_num, powers, a, 1, inv._LOG)
            want = over_gl_denominator(e, a)
            got = eng.epsilon(a)
            assert got == want, (q.vertices, s.weights, a)
            # Where a's own twists vanish, the star-log is Miller's
            # recurrence, which has one term where no p has Z(p) and X(a - p)
            # nonzero.
            one = len(trimmed) == 1
            if not any(t[3] for t in eng._steps(a)):
                one = not any(eng.value(p) == eng.value(a)
                              and eng._log(p).poly
                              and eng._semistable_num(vsub(a, p)).poly
                              for p in boxed_vectors(a) if any(p) and p != a)
            assert (got is eng.semistable(a)) == one
            one_term += one
        assert eng.epsilon(eng.zero) == 0
        count += 1
    assert count == 14 + 70
    assert one_term > 0


def own_twists_vanish(q, slope, a):
    """Whether every decomposition a = p + (a - p) into two nonzero classes
    of a's slope value (the Fraction rule) has twist <p, a - p> = 0."""
    return all(q.commutation_exponent(p, vsub(a, p)) == 0
               for p in boxed_vectors(a)
               if any(p) and p != a and slope.value(p) == slope.value(a))


# Closed forms of the coefficients c_i of log(1 + t), (1 + t)^(-1/2) - 1
# and exp(t) - 1.
CLOSED_FORMS = {
    inv._LOG: lambda i: Fraction((-1) ** (i - 1), i),
    inv._ROOT: lambda i: Fraction((-1) ** i * math.comb(2 * i, i), 4 ** i),
    wc._EXP: lambda i: Fraction(1, math.factorial(i)),
}


@pytest.mark.parametrize("dx", [1, 2, 3, 60, 120])
def test_coeffs_are_the_closed_forms_as_reduced_constants(dx):
    """_coeffs, from the differential equation, gives c_i / dx^i for each
    closed form, i = 1..n, each as a constant Laurent in lowest terms, for
    n <= 24."""
    for abc, closed in CLOSED_FORMS.items():
        for n in range(1, 25):
            want = [closed(i) / dx ** i for i in range(1, n + 1)]
            ms = inv._coeffs(abc, n, dx)
            assert [(m.poly, m.den) for m in ms] == [
                ({0: c.numerator}, c.denominator) for c in want], (abc, n)


def test_miller_sums_only_where_the_classes_commute(monkeypatch):
    """On the PF-shaped mixed quiver, which has a commutation form, _series
    refuses Miller's recurrence (a step it is handed has a nonzero twist)
    at exactly the classes with a decomposition into two classes of their
    value of nonzero twist, and every sum the recurrence makes itself is at
    a class whose own twists vanish: the others take the star powers alone.  Sums inside the semistable recursion, the star
    powers and the star powers' series are not the recurrence's.  A class
    is read at the slope of the engine whose values _series is handed, or,
    for the transform's exp, at the source slope whose epsilon values it
    reads (crossing[0])."""
    q = calibrated_mixed()
    at, sums, took, refused, crossing = [], [], set(), set(), [None]

    def spied(name, fn, record, modules):
        def call(*args):
            # _series(g, steps, x, ...): x is an engine's bound method, or
            # the transform's own reader of the source table.
            x = args[2]
            at_g = (args[0], x.__self__.slope if hasattr(x, "__self__")
                    else crossing[0]) if record else None
            miller = record and not any(t[3] for t in args[1])
            if record:
                (took if miller else refused).add(at_g)
            at.append(at_g if miller else None)
            try:
                return fn(*args)
            finally:
                at.pop()
        for module in modules:
            monkeypatch.setattr(module, name, call)
    spied("_series", inv._series, True, (inv, wc))
    spied("_chain_sum", inv._chain_sum, False, (inv, wc))
    spied("_star_powers", inv._star_powers, False, (inv, wc))

    def summed(terms, sign=1):
        if at and at[-1] is not None:
            sums.append(at[-1])
        return laurent_sum(terms, sign)
    monkeypatch.setattr(inv, "laurent_sum", summed)
    target = Slope.from_dict(q, {"i": -1, "k": 1})
    for weights in ({"i": 2, "j": 1, "k": -1}, {}):
        slope = Slope.from_dict(q, weights)
        inv.build_table(q, slope, 5)
        if slope.is_self_dual(q):
            crossing[0] = slope
            wallcross_epsilon(epsilon_table(q, slope, 4),
                              SlopePair(q, slope, target))
        assert sums and took and refused, weights
        assert all(own_twists_vanish(q, s, g) for g, s in took), weights
        assert not any(own_twists_vanish(q, s, g) for g, s in refused)
        assert set(sums) <= took, weights
        q.engine_cache.clear()
        for group in (sums, took, refused):
            group.clear()


def test_no_star_power_is_built_on_kronecker_pm_plus(monkeypatch):
    """The classes of one value of a two-vertex quiver lie on a ray, so
    they commute: the table at i=1,j=-1 to bound 9 and a crossing from it
    at bound 5 build no star power."""
    q = kronecker_pm_plus()
    calls = []

    def refused(*args):
        calls.append(args[1])
        return inv._star_powers(*args)
    for module in (inv, wc):
        monkeypatch.setattr(module, "_star_powers", refused)
    slope = hn_slope(q)
    inv.build_table(q, slope, 9)
    wallcross_epsilon(epsilon_table(q, slope, 5),
                      SlopePair(q, slope, Slope.from_dict(q, {"i": -1,
                                                              "j": 1})))
    assert not calls


def test_a_half_integral_twist_is_a_calibration_error():
    """kappa = (1/2, 0, 0) on the mixed quiver makes the twist of (0, 0, 1)
    on the zero class half-integral: a self-dual value or crossing that
    sums over it raises CalibrationError in verify_calibration's words,
    not a TypeError from the integer arithmetic."""
    q = mixed_quiver()
    cal = calibrate_signs(q)
    trivial = Slope.trivial(q)
    table = epsilon_table(q, trivial, 2)
    q.set_calibration(Calibration(cal.orientation, cal.placement,
                                  (Fraction(1, 2), 0, 0)))
    message = re.escape("twist exponent not integral at (0, 0, 1), (0, 0, 0)")
    with pytest.raises(CalibrationError, match=message):
        inv.sd_dt_mot(q, trivial, (1, 0, 1))
    with pytest.raises(CalibrationError, match=message):
        inv.build_table(q, trivial, 3)
    pair = SlopePair(q, trivial, Slope.from_dict(q, {"i": -1, "k": 1}))
    with pytest.raises(CalibrationError, match=message):
        wallcross_epsilon(table, pair)


def test_table_all_regular_makes_no_ratfunc_multiplication(monkeypatch):
    q = calibrated_kron((1, -1))
    table = inv.build_table(q, hn_slope(q), 6)
    calls = []
    mul = RatFunc.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counted)
    assert inv.table_all_regular(table)
    assert calls == []


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


TRICKY_TEXT = st.text(st.characters() | st.sampled_from(
    '"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TRICKY_TEXT
    | st.integers(-10 ** 60, 10 ** 60),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(TRICKY_TEXT, inner, max_size=4)),
    max_leaves=40)


def _nested(depth):
    obj = []
    for i in range(depth):
        obj = [obj] if i % 2 else {"k": obj, "": {}}
    return obj


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
@example(_nested(60))
@example({"a\u00e9\x01\"\\": [-2 ** 200, 2 ** 200, [], {}, True, None]})
@example([True, None, False, [None, True, 0], {"b": None, "a": False}])
def test_json_text_is_json_dumps(obj):
    assert inv.json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def nested(x, depth):
    """x inside depth containers, lists and dicts in turn."""
    for i in range(depth):
        x = [x] if i % 2 else {"k": x, "a": 0}
    return x


def assert_writes_its_data(rf):
    for depth in (0, 2, 4):
        want = json.dumps(nested(rf.to_data(), depth), indent=2,
                          sort_keys=True)
        assert inv.json_text(nested(rf, depth)) == \
            inv.json_text(nested(rf.to_data(), depth)) == want, (rf, depth)


def test_json_text_writes_each_ratfunc_of_the_fixture_tables_as_its_data():
    count = 0
    for path in sorted(FIXTURES.glob("*.json")):
        q = load_quiver(str(path))
        slopes = [Slope.trivial(q)]
        if {"i", "j"} <= set(q.vertices):
            slopes.append(hn_slope(q))
        for s in slopes:
            table = inv.build_table(q, s, 6)
            for r in table.rows + table.sd_rows:
                for rf in (r.semistable, r.epsilon, r.dt_motivic):
                    assert_writes_its_data(rf)
                    count += 1
    assert count > 1000


@pytest.mark.parametrize("rf", [
    RatFunc(0), RatFunc(7), RatFunc(Fraction(-3, 4)), RatFunc.q_power(-3),
    RatFunc.from_frac_polys(-2, {0: Fraction(-1), 3: Fraction(5, 2)},
                            {0: Fraction(1)}),
    RatFunc.from_frac_polys(1, {0: Fraction(-2)},
                            {0: Fraction(2), 1: Fraction(3), 2: Fraction(-9)}),
    Q_MINUS_QINV, INV_Q_MINUS_QINV], ids=str)
def test_json_text_writes_a_ratfunc_as_its_data(rf):
    assert_writes_its_data(rf)


FRAC_POLYS = st.dictionaries(st.integers(0, 5),
                             st.fractions(max_denominator=12), max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(-6, 6), FRAC_POLYS, FRAC_POLYS.filter(
    lambda den: any(den.values())))
def test_json_text_writes_any_ratfunc_as_its_data(shift, num, den):
    assert_writes_its_data(RatFunc.from_frac_polys(shift, num, den))


def test_table_to_json_never_builds_ratfunc_data(monkeypatch):
    q = calibrated_kron((1, -1))
    table = inv.build_table(q, hn_slope(q), 6)
    want = inv.json_text(table.to_data())

    def refused(self):
        raise AssertionError("to_json called RatFunc.to_data")
    monkeypatch.setattr(RatFunc, "to_data", refused)
    assert table.to_json() == want


@pytest.mark.parametrize("obj", [
    1.5, (1, 2), {1: "a"}, {"a": Fraction(1)}, [b"x"], [True, None, 1.5],
    # a subclass of each type json_text writes is refused too
    [IntEnum("Level", "LOW").LOW], type("Name", (str,), {})("v"),
    {type("Key", (str,), {})("k"): 1}, type("Mapping", (dict,), {})(a=1),
    type("Items", (list,), {})([1]), [type("Sub", (RatFunc,), {})(1)]],
    ids=repr)
def test_json_text_refuses_other_types(obj):
    with pytest.raises(TypeError):
        inv.json_text(obj)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")),
                         ids=lambda p: p.stem)
def test_cli_json_output_is_json_dumps(path, tmp_path):
    runs = [["dt", "--bound", "5"], ["wallcross", "--bound", "3"]]
    if "kronecker" in path.stem:
        runs += [["dt", "--bound", "5", "--slope", "i=1,j=-1"],
                 ["wallcross", "--bound", "3", "--slope", "i=1,j=-1",
                  "--slope2", "i=-1,j=1"]]
    out = tmp_path / "out.json"
    for command, *args in runs:
        assert cli_main([command, str(path), "--output", str(out)]
                        + args) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"


# -- integer BPS invariants -------------------------------------------------------

def bps_at(q, s, bound):
    return bps_invariants(q, {a: inv.dt_mot(q, s, a)
                              for a in q.dim_vectors_up_to(bound)})


def is_integer_laurent(f):
    return f.den == {0: 1} and all(c.denominator == 1
                                   for c in f.num.values())


@pytest.mark.parametrize("name", ["point_plus", "point_minus"])
def test_point_is_one_bps_state_and_its_multiple_covers(name):
    q = load_quiver(str(FIXTURES / f"{name}.json"))
    s = Slope.trivial(q)
    for n in range(2, 13):
        assert inv.dt_mot(q, s, (n,)) == (RatFunc(Fraction((-1) ** (n - 1), n))
                                          * Q_MINUS_QINV
                                          / (q_pow(n) - q_pow(-n)))
    assert bps_at(q, s, 12) == {(n,): RatFunc(int(n == 1))
                                for n in range(1, 13)}


@pytest.mark.parametrize("edge_signs", [(1, 1, 1), (1, 1, -1), (1, -1, -1)])
def test_three_loop_bps_invariants_take_the_sign_by_parity(edge_signs):
    """chi(b, b) = 1 - 3 = -2 at the class (1) of one fixed vertex with
    three fixed loops, so the multiple-cover sign is read from a negative
    exponent; at q = 1 the BPS invariants are the 3-loop quiver's numerical
    DT invariants 1, 1, 3, 10."""
    loops = [Edge(f"l{i}", "x", "x") for i in range(3)]
    q = SelfDualQuiver(["x"], loops, {}, {}, {"x": 1},
                       {e.name: sign for e, sign in zip(loops, edge_signs)})
    calibrate_signs(q)
    omega = bps_at(q, Slope.trivial(q), 4)
    assert all(map(is_integer_laurent, omega.values()))
    assert omega[(2,)] == q_pow(9)
    assert [omega[(n,)].eval_at(1) for n in range(1, 5)] == [1, 1, 3, 10]


KRONECKER_FIXTURES = sorted(FIXTURES.glob("kronecker_*.json"))


def assert_kronecker_bps_spectrum(path, bound):
    """In the chamber i=1,j=-1 the BPS states are the real roots (n, n+1)
    and (n+1, n) and the imaginary root (1, 1), a P^1 family; at
    i=-1,j=1 only the simples are stable."""
    q = load_quiver(str(path))
    chamber = bps_at(q, hn_slope(q), bound)
    assert all(map(is_integer_laurent, chamber.values()))
    for a, omega in chamber.items():
        if a == (1, 1):
            assert omega == q_pow(1) + q_pow(-1)
        else:
            assert omega == RatFunc(int(abs(a[0] - a[1]) == 1)), a
    simples = bps_at(q, Slope.from_dict(q, {"i": -1, "j": 1}), bound)
    assert all(map(is_integer_laurent, simples.values()))
    assert simples == {a: RatFunc(int(a in ((1, 0), (0, 1))))
                       for a in simples}


@pytest.mark.parametrize("path", KRONECKER_FIXTURES, ids=lambda p: p.stem)
def test_kronecker_bps_invariants_are_integer_laurent_polynomials(path):
    assert_kronecker_bps_spectrum(path, 8)


@pytest.mark.parametrize("path", KRONECKER_FIXTURES, ids=lambda p: p.stem)
def test_kronecker_bps_invariants_at_bound_16(path):
    assert_kronecker_bps_spectrum(path, 16)
