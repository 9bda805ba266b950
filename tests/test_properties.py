"""Property tests on generated quivers, shaped like tests/suite.py but drawn
by hypothesis, checked against the independent enumerators of
tests/reference.py, for wall-crossing against the tables computed directly,
and for regularity and the exp/log and square-root inversions against the
paper's identities in the torus algebra, for the shared recursion entries
against the full-region recursion, and for the calibration check against
its loop form in tests/test_oracle.py, for integer BPS invariants, and for
the answers of the one engine that slopes on a ray share."""

from fractions import Fraction
from math import factorial, gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (assert_mirror_changes_nothing, crossed_without_mirror,
                     epsilon_elem, reversed_pair, sd_epsilon_elem,
                     sd_semistable_element, semistable_element)
from reference import (bps_invariants, direct_epsilon_integral,
                       direct_sd_epsilon_integral,
                       direct_sd_semistable_integral,
                       direct_semistable_integral)
from suite import _rand_quiver
from test_invariants import (assert_engine_matches_full_region,
                             is_integer_laurent)
from test_oracle import flipped, loop_verify_calibration, outcome
from torus import integrated_unit, series_diamond, star_exp
from quiver_dt import invariants as inv
from quiver_dt.oracle import calibrate_signs, verify_calibration
from quiver_dt.quiver import SelfDualQuiver, Slope
from quiver_dt.wallcross import (SlopePair, diff_tables, epsilon_table,
                                 wallcross_epsilon)

# A fixed number of small cases, replayed the same way on every run.
BUDGET = settings(max_examples=50, deadline=None, derandomize=True,
                  database=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much])


def _has_edge_between_distinct_vertices(quiver):
    return any(s != t for s, t in quiver.edge_endpoints)


@st.composite
def quiver_slope_bound(draw):
    """A suite-shaped quiver with a non-zero commutation form, a slope with
    small fractional weights (not necessarily self-dual) and a bound <= 3."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver)
                  .filter(_has_edge_between_distinct_vertices))
    weights = draw(st.lists(st.fractions(-3, 3, max_denominator=2),
                            min_size=len(quiver.vertices),
                            max_size=len(quiver.vertices)))
    return quiver, Slope(tuple(weights)), draw(st.integers(1, 3))


@BUDGET
@given(quiver_slope_bound())
def test_semistable_integral_matches_direct_enumeration(case):
    quiver, slope, bound = case
    calibrate_signs(quiver)
    for a in quiver.dim_vectors_up_to(bound):
        assert inv.semistable_integral(quiver, slope, a, bound=bound) == \
            direct_semistable_integral(quiver, slope, a), a


@BUDGET
@given(quiver_slope_bound())
def test_epsilon_integral_matches_direct_enumeration(case):
    quiver, slope, bound = case
    calibrate_signs(quiver)
    for a in quiver.dim_vectors_up_to(bound):
        assert inv.epsilon_integral(quiver, slope, a, bound=bound) == \
            direct_epsilon_integral(quiver, slope, a), a


@BUDGET
@given(quiver_slope_bound())
def test_recursion_entries_match_the_full_region(case):
    """Each recursion entry, shared between the slope values whose regions
    agree below it, against the gated recursion over the whole region."""
    quiver, slope, bound = case
    calibrate_signs(quiver)
    assert_engine_matches_full_region(quiver, slope, bound)


@st.composite
def quiver_sd_slope_bound(draw):
    """A suite-shaped quiver with a non-zero commutation form, a self-dual
    slope (w(dual i) = -w(i), so 0 at fixed vertices) with small fractional
    weights and a bound <= 4."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver)
                  .filter(_has_edge_between_distinct_vertices))
    weights = [0] * len(quiver.vertices)
    for i, j in quiver.vertex_pairs:
        weights[i] = draw(st.fractions(-3, 3, max_denominator=2))
        weights[j] = -weights[i]
    return quiver, Slope(tuple(weights)), draw(st.integers(1, 4))


@BUDGET
@given(quiver_sd_slope_bound())
def test_sd_integrals_match_direct_enumeration(case):
    quiver, slope, bound = case
    calibrate_signs(quiver)
    for th in quiver.sd_classes_up_to(bound):
        assert inv.sd_semistable_integral(quiver, slope, th, bound=bound) == \
            direct_sd_semistable_integral(quiver, slope, th), th
        assert inv.sd_epsilon_integral(quiver, slope, th, bound=bound) == \
            direct_sd_epsilon_integral(quiver, slope, th), th


@BUDGET
@given(quiver_sd_slope_bound())
def test_mirror_changes_no_value(case):
    quiver, slope, bound = case
    calibrate_signs(quiver)
    assert_mirror_changes_nothing(quiver, slope, bound)


def _has_commutation_form(quiver):
    """Calibrates the quiver; true when its commutation form is nonzero."""
    calibrate_signs(quiver)
    units = [tuple(int(i == j) for j in range(len(quiver.vertices)))
             for i in range(len(quiver.vertices))]
    return any(quiver.commutation_exponent(a, b)
               for a in units for b in units)


def _has_live_forms(quiver):
    """Calibrates the quiver; true when both its commutation form and its
    twist's linear term kappa are nonzero."""
    return _has_commutation_form(quiver) and any(quiver.calibration.kappa)


# Slope weights with mixed denominators, zeros and 40-digit numerators.
WEIGHTS = st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=12),
    st.builds(lambda n, d, sign: Fraction(sign * n, d),
              st.integers(10 ** 39, 10 ** 40 - 1), st.integers(1, 10 ** 9),
              st.sampled_from([1, -1])))


@st.composite
def quiver_rational_slope(draw):
    """A suite-shaped quiver with a nonzero commutation form and a slope of
    WEIGHTS, self-dual (w(dual i) = -w(i)) or not."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver)
                  .filter(_has_commutation_form))
    n = len(quiver.vertices)
    weights = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
    if draw(st.booleans()):
        for i, j in quiver.vertex_pairs:
            weights[j] = -weights[i]
        for i in quiver.fixed_vertices:
            weights[i] = 0
    return quiver, Slope(tuple(weights))


@BUDGET
@given(quiver_rational_slope())
def test_engine_values_are_the_fraction_rule_as_reduced_pairs(case):
    """Each engine value is the Fraction rule of the engine's own slope, the
    primitive integer vector on slope's ray, in lowest terms; the
    recursion's regions and the mirror's sign test read it as Fraction
    comparisons at slope do, slope_values is the Fraction rule of slope
    itself, and equal values share a table."""
    quiver, slope = case
    eng = inv._engine(quiver, slope)
    ray = eng.slope.weights
    assert all(type(r) is int for r in ray)
    assert gcd(*ray) == (1 if any(ray) else 0)
    c = next((Fraction(w) / r for w, r in zip(slope.weights, ray) if r), 1)
    assert c > 0 and all(w == c * r for w, r in zip(slope.weights, ray))
    classes = quiver.dim_vectors_up_to(3)
    own = {a: eng.slope.value(a) for a in classes}
    want = {a: slope.value(a) for a in classes}
    for a in classes:
        assert eng.value(a) == (own[a].numerator, own[a].denominator), a
    assert inv.slope_values(quiver, slope, 3) == sorted(set(want.values()),
                                                        reverse=True)
    tables = {}
    for a in classes:
        s = eng.value(a)
        tab = eng._dom_table(s, a)
        assert tables.setdefault(want[a], tab) is tab, a
        for p in classes:
            above = want[p] > want[a]
            assert (eng._dom_table(s, p)[p] is not None) == above, (a, p)
            assert eng._region_key(s, p, eng._ids[s])[1] == above, (a, p)
    if slope.is_self_dual(quiver):
        for a in classes:
            b = quiver.dual_vector(a)
            mirrored = want[a] < 0 or want[a] == 0 and b < a
            assert eng._rep(a) == (b if mirrored else a), a


@st.composite
def flip_case(draw):
    """A calibrated suite-shaped quiver with a nonzero commutation form, a
    bound from 1 to 4, and one row of its integer forms to flip."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver)
                  .filter(_has_commutation_form))
    field = draw(st.sampled_from(["_comm", "_kappa2"] if quiver._kappa2
                                 else ["_comm"]))
    row = draw(st.integers(0, len(getattr(quiver, field)) - 1))
    return quiver, draw(st.integers(1, 4)), field, row


@BUDGET
@given(flip_case())
def test_tabulated_verification_agrees_with_the_loop(case):
    """The same counts as the loop that evaluates the forms at every tuple,
    and after one flipped coefficient the same first failure."""
    quiver, bound, field, row = case
    assert verify_calibration(quiver, bound) == \
        loop_verify_calibration(quiver, bound)
    flipped(quiver, field, row)
    assert outcome(verify_calibration, quiver, bound) == \
        outcome(loop_verify_calibration, quiver, bound)


PAIR_WEIGHTS = [Fraction(n, d) for n in range(-3, 4) if n
                for d in (1, 2) if d == 1 or n % 2]


@st.composite
def crossing(draw):
    """A calibrated suite-shaped quiver with a nonzero commutation form and
    a nonzero kappa (so it has a vertex pair), two self-dual slopes with
    small nonzero fractional weights at the pairs, and a bound from 2 to
    4."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver)
                  .filter(_has_live_forms))
    slopes = []
    for _ in range(2):
        weights = [0] * len(quiver.vertices)
        for i, j in quiver.vertex_pairs:
            weights[i] = draw(st.sampled_from(PAIR_WEIGHTS))
            weights[j] = -weights[i]
        slopes.append(Slope(tuple(weights)))
    return SlopePair(quiver, *slopes), draw(st.integers(2, 4))


@BUDGET
@given(crossing())
def test_wallcross_matches_the_direct_table_and_crosses_back(case):
    pair, bound = case
    source = epsilon_table(pair.quiver, pair.plus, bound)
    crossed = wallcross_epsilon(source, pair)
    assert crossed.sd_eps is not None
    assert crossed == epsilon_table(pair.quiver, pair.minus, bound)
    assert wallcross_epsilon(crossed, reversed_pair(pair)) == source


@BUDGET
@given(crossing())
def test_mirror_changes_no_crossed_table(case):
    pair, bound = case
    source = epsilon_table(pair.quiver, pair.plus, bound)
    assert wallcross_epsilon(source, pair) == \
        crossed_without_mirror(source, pair)


@BUDGET
@given(crossing())
def test_tables_at_both_slopes_are_regular(case):
    pair, bound = case
    for slope in (pair.plus, pair.minus):
        assert inv.table_all_regular(inv.build_table(pair.quiver, slope,
                                                     bound))


@BUDGET
@given(crossing())
def test_star_exp_inverts_the_epsilon_element(case):
    pair, bound = case
    q, slope = pair.quiver, pair.plus
    unit = integrated_unit(q, bound)
    for val in inv.slope_values(q, slope, bound):
        e = epsilon_elem(q, slope, val, bound)
        assert star_exp(e, bound) == \
            unit + semistable_element(q, slope, val, bound), val


@BUDGET
@given(crossing())
def test_sd_square_root_inversion_roundtrip(case):
    pair, bound = case
    q, slope = pair.quiver, pair.plus
    e0 = epsilon_elem(q, slope, Fraction(0), bound)
    rebuilt = series_diamond(e0.scale(Fraction(1, 2)),
                             sd_epsilon_elem(q, slope, bound),
                             lambda n: Fraction(1, factorial(n)), bound)
    assert rebuilt == sd_semistable_element(q, slope, bound)


@st.composite
def scaled_slope(draw):
    """A suite-shaped quiver with a vertex pair, a self-dual slope w with
    small nonzero fractional weights at the pairs, a factor lam and a bound
    from 2 to 4."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver)
                  .filter(lambda q: q.vertex_pairs))
    weights = [0] * len(quiver.vertices)
    for i, j in quiver.vertex_pairs:
        weights[i] = draw(st.sampled_from(PAIR_WEIGHTS))
        weights[j] = -weights[i]
    lam = draw(st.sampled_from([2, Fraction(1, 3), Fraction(7, 2)]))
    return quiver, Slope(tuple(weights)), lam, draw(st.integers(2, 4))


def answers(q, slope, target, bound):
    """What the public queries hand back at slope up to the bound: the
    table's JSON, the epsilon table, dt_num and sd_dt_mot of every class,
    the slope values, the epsilon element of each, and the crossing to
    target with its report against the direct table."""
    eps = epsilon_table(q, slope, bound)
    crossed = wallcross_epsilon(eps, SlopePair(q, slope, target))
    values = inv.slope_values(q, slope, bound)
    return {
        "table": inv.build_table(q, slope, bound).to_json(),
        "eps": (eps.eps, eps.sd_eps),
        "dt_num": [inv.dt_num(q, slope, a)
                   for a in q.dim_vectors_up_to(bound)],
        "sd_dt_mot": [inv.sd_dt_mot(q, slope, th)
                      for th in q.sd_classes_up_to(bound)],
        "values": values,
        "elements": [inv.epsilon_element(q, slope, v, bound)
                     for v in values],
        "crossed": (crossed.eps, crossed.sd_eps),
        "diff": diff_tables(crossed, epsilon_table(q, target, bound)),
    }


@BUDGET
@given(scaled_slope())
def test_a_shared_engine_answers_as_a_fresh_one(case):
    """lam w on a quiver that has served w, where both find w's engine,
    answers as lam w alone on a fresh copy of the quiver, crossing to -w;
    its slope values are the Fraction rule at lam w, and its epsilon
    elements hold the classes of those values."""
    quiver, w, lam, bound = case
    fresh = SelfDualQuiver.from_data(quiver.to_data())
    scaled = Slope(tuple(lam * x for x in w.weights))
    target = Slope(tuple(-x for x in w.weights))
    answers(quiver, w, target, bound)
    shared = answers(quiver, scaled, target, bound)
    assert inv._engine(quiver, scaled) is inv._engine(quiver, w)
    assert shared == answers(fresh, scaled, target, bound)
    assert shared["values"] == sorted(
        {scaled.value(a) for a in quiver.dim_vectors_up_to(bound)},
        reverse=True)
    # Each element holds the classes of its value whose epsilon is nonzero.
    assert set().union(*shared["elements"]) == {
        a for a, e in shared["eps"][0].items() if e}
    for v, coeffs in zip(shared["values"], shared["elements"]):
        assert all(scaled.value(a) == v for a in coeffs), v


@st.composite
def bps_case(draw):
    """A suite-shaped quiver and the trivial slope or a self-dual slope with
    small fractional weights at its vertex pairs."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver))
    weights = [0] * len(quiver.vertices)
    if draw(st.booleans()):
        for i, j in quiver.vertex_pairs:
            weights[i] = draw(st.fractions(-3, 3, max_denominator=3))
            weights[j] = -weights[i]
    return quiver, Slope(tuple(weights))


@BUDGET
@given(bps_case())
def test_bps_invariants_are_integer_where_the_torus_commutes(case):
    """Inverting the multiple-cover formula gives integer Laurent
    polynomials on each group of classes of one slope value on which the
    commutation form vanishes, to bound 6 on up to two vertices and 4 on
    three."""
    quiver, slope = case
    calibrate_signs(quiver)
    groups = {}
    for a in quiver.dim_vectors_up_to(6 if len(quiver.vertices) <= 2 else 4):
        groups.setdefault(slope.value(a), []).append(a)
    for group in groups.values():
        if any(quiver.commutation_exponent(a, b) for a in group
               for b in group):
            continue
        omega = bps_invariants(quiver, {a: inv.dt_mot(quiver, slope, a)
                                        for a in group})
        assert all(map(is_integer_laurent, omega.values())), group
