"""Property tests on generated quivers, shaped like tests/suite.py but drawn
by hypothesis, checked against the independent enumerators of
tests/reference.py, for wall-crossing against the tables computed directly,
and for regularity and the exp/log and square-root inversions against the
paper's identities in the torus algebra, for the shared recursion entries
against the full-region recursion, and for the calibration check against
its loop form in tests/test_oracle.py, for integer BPS invariants, for
the answers of the one engine that slopes on a ray share, for the
series by Miller's recurrence against the series of star powers, for the
cached decompositions and the transform's factor walk against the box
loops they replace, for the Hall product and action sums against the
reference algebra of tests/torus.py, and for the caches of one quiver
against a fresh copy as its calibration changes (a hypothesis state
machine)."""

from fractions import Fraction
from functools import cache
from math import factorial, gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from helpers import (as_fractions, assert_mirror_changes_nothing,
                     calibrated_cycle, calibrated_mixed, calibrated_two_pairs,
                     crossed_without_mirror, epsilon_elem, in_lowest_terms,
                     mixed_quiver, reversed_pair, sd_epsilon_elem,
                     sd_semistable_element, semistable_element, star_series,
                     two_pairs_quiver)
from reference import (bps_invariants, direct_epsilon_integral,
                       direct_sd_epsilon_integral,
                       direct_sd_semistable_integral,
                       direct_semistable_integral, sd_completion)
from suite import _rand_quiver
from test_invariants import (COMMUTATION_CASES,
                             assert_engine_matches_full_region,
                             is_integer_laurent, own_twists_vanish)
from test_oracle import flipped, loop_verify_calibration, outcome, shifted
from torus import (Q_MINUS_QINV, TorusElem, TorusModElem, integrated_unit,
                   series_diamond, star_exp)
from quiver_dt import invariants as inv, wallcross as wc
from quiver_dt.motives import (gl_poly, over_gl_denominator,
                               over_sd_denominator, q2_binomial, sd_ratio)
from quiver_dt.oracle import (calibrate_signs, resolve_global_signs,
                              verify_calibration)
from quiver_dt.quiver import (Calibration, SelfDualQuiver, Slope,
                              boxed_vectors, make_calibration, vadd, vsub,
                              vtotal)
from quiver_dt.ratfunc import Laurent
from quiver_dt.wallcross import (SlopePair, diff_tables, epsilon_table,
                                 wallcross_epsilon)

# A fixed number of small cases, replayed the same way on every run.
BUDGET = settings(max_examples=50, deadline=None, derandomize=True,
                  database=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much])


def _has_edge_between_distinct_vertices(quiver):
    return any(s != t for s, t in quiver.edge_endpoints)


# Four- and five-vertex shapes: two swapped pairs, and with a fixed vertex.
TWO_PAIR_SHAPES = [("P", "P"), ("P", "P", "F")]


def _suite_or_two_pair_quiver(draw, keep):
    """A quiver that keep accepts: suite-shaped in three draws of four, else
    of a shape of TWO_PAIR_SHAPES; and the largest bound to draw it at, 4
    on the suite shapes and 3 on the others."""
    shapes = draw(st.sampled_from([None] * 6 + TWO_PAIR_SHAPES))
    quiver = draw(st.randoms(use_true_random=False).map(
        lambda rng: _rand_quiver(rng, shapes)).filter(keep))
    return quiver, 4 if shapes is None else 3


@st.composite
def quiver_slope_bound(draw):
    """A suite-shaped or two-pair quiver with a non-zero commutation form, a
    slope with small fractional weights (not necessarily self-dual) and a
    bound <= 3."""
    quiver, _ = _suite_or_two_pair_quiver(
        draw, _has_edge_between_distinct_vertices)
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
    """A suite-shaped or two-pair quiver with a non-zero commutation form, a
    self-dual slope (w(dual i) = -w(i), so 0 at fixed vertices) with small
    fractional weights and a bound <= 4 on the suite shapes, <= 3 on the
    others."""
    quiver, top = _suite_or_two_pair_quiver(
        draw, _has_edge_between_distinct_vertices)
    weights = [0] * len(quiver.vertices)
    for i, j in quiver.vertex_pairs:
        weights[i] = draw(st.fractions(-3, 3, max_denominator=2))
        weights[j] = -weights[i]
    return quiver, Slope(tuple(weights)), draw(st.integers(1, top))


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


@st.composite
def triple_only_case(draw):
    """A calibrated suite-shaped quiver, a bound from 2 to 4, one exponent
    form, an argument pair of it that only the triple section of
    verify_calibration reads, and a shift of +-1.  The pair is a small class
    a with a sum b + c, or with a completion b + th + dual(b), of total
    above the bound."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver))
    calibrate_signs(quiver)
    bound = draw(st.integers(2, 4))
    small = [(0,) * len(quiver.vertices)] + quiver.dim_vectors_up_to(
        max(1, bound - 1))
    beyond = {
        "commutation_exponent": {vadd(b, c) for b in small for c in small},
        "sd_twist_exponent": {sd_completion(quiver, b, th) for b in small
                              for th in quiver.sd_classes_up_to(bound)}}
    for name, classes in beyond.items():
        beyond[name] = sorted(x for x in classes if vtotal(x) > bound)
    form = draw(st.sampled_from([name for name in beyond if beyond[name]]))
    at = draw(st.sampled_from(small)), draw(st.sampled_from(beyond[form]))
    return quiver, bound, form, at, draw(st.sampled_from([1, -1]))


@BUDGET
@given(triple_only_case())
def test_a_form_broken_only_on_triples_fails_as_the_loop(case):
    """A form shifted at one pair that only bilinearity or associativity
    reads fails verification with the loop's first message."""
    quiver, bound, form, at, delta = case
    setattr(quiver, form, shifted(getattr(quiver, form), at, delta))
    want = outcome(loop_verify_calibration, quiver, bound)
    assert want[0] == "fail", want
    assert outcome(verify_calibration, quiver, bound) == want


PAIR_WEIGHTS = [Fraction(n, d) for n in range(-3, 4) if n
                for d in (1, 2) if d == 1 or n % 2]


@st.composite
def crossing(draw):
    """A calibrated suite-shaped or two-pair quiver with a nonzero
    commutation form and a nonzero kappa (so it has a vertex pair), two
    self-dual slopes with small nonzero fractional weights at the pairs,
    and a bound from 2 to 4, to 3 on four and five vertices."""
    quiver, top = _suite_or_two_pair_quiver(draw, _has_live_forms)
    slopes = []
    for _ in range(2):
        weights = [0] * len(quiver.vertices)
        for i, j in quiver.vertex_pairs:
            weights[i] = draw(st.sampled_from(PAIR_WEIGHTS))
            weights[j] = -weights[i]
        slopes.append(Slope(tuple(weights)))
    return SlopePair(quiver, *slopes), draw(st.integers(2, top))


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
    """A suite-shaped or two-pair quiver with a vertex pair, a self-dual
    slope w with small nonzero fractional weights at the pairs, a factor lam
    and a bound from 2 to 4 on the suite shapes, to 3 on the others."""
    quiver, top = _suite_or_two_pair_quiver(draw, lambda q: q.vertex_pairs)
    weights = [0] * len(quiver.vertices)
    for i, j in quiver.vertex_pairs:
        weights[i] = draw(st.sampled_from(PAIR_WEIGHTS))
        weights[j] = -weights[i]
    lam = draw(st.sampled_from([2, Fraction(1, 3), Fraction(7, 2)]))
    return quiver, Slope(tuple(weights)), lam, draw(st.integers(2, top))


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


def assert_miller_matches_the_star_powers(q, slope, bound):
    """Where _series takes Miller's recurrence, which is exactly where its
    class's own twists vanish, its star-log, inverse square root and exp
    weights (c = 1, 2) equal the series of the star powers (star_series),
    and each is in lowest terms; epsilon is the star-log over M either way.
    The number of classes the recurrence took and refused."""
    eng = inv._engine(q, slope)
    classes = q.dim_vectors_up_to(bound)
    took = refused = 0
    for a in classes:
        miller = not any(t[3] for t in eng._steps(a))
        assert miller == own_twists_vanish(q, slope, a), a
        for name, abc in (("_log", inv._LOG), ("_root_weight", inv._ROOT)):
            if name == "_root_weight" and eng.value(a)[0]:
                continue
            want = star_series(eng._semistable_num, eng._powers, a, 1, abc)
            got = getattr(eng, name)(a)
            assert as_fractions(got) == as_fractions(want), (name, a)
            assert in_lowest_terms(got), (name, a)
        e = star_series(eng._semistable_num, eng._powers, a, 1, inv._LOG)
        assert eng.epsilon(a) == over_gl_denominator(e, a), a
        took += miller
        refused += not miller
    by_value = {}
    for a in classes:
        by_value.setdefault(eng.value(a), {})[a] = eng.epsilon(a)
    for eps in by_value.values():
        y = wc._numerators(eps, gl_poly, "M(a) eps(a)")
        weight = wc._ExpMemo(eng._steps, y).weight
        memo = {}

        def x(a):
            return y.get(a, inv._ZERO)

        def powers(g):
            if g not in memo:
                memo[g] = inv._star_powers(g, eng._steps(g), x, powers)
            return memo[g]
        for g in eps:
            for c in (1, 2):
                want = star_series(x, powers, g, c, wc._EXP)
                assert as_fractions(weight(g, c)) == as_fractions(want), g
                assert in_lowest_terms(weight(g, c)), g
    return took, refused


# Vertex shapes whose classes of one slope value commute: all fixed
# vertices (no commutation form), or two vertices at a nonzero slope (the
# classes of one value lie on a ray).
COMMUTING_SHAPES = [("F",), ("F", "F"), ("F", "F", "F"), ("P",)]
# Shapes that can have a commutation form, with the largest bound each is
# drawn at: four and five vertices stop at 3.
FORM_SHAPES = {("P", "F"): 5, ("P", "P"): 3, ("P", "P", "F"): 3}


@st.composite
def miller_case(draw):
    """A calibrated quiver of a commuting shape, or of a shape of
    FORM_SHAPES with a commutation form; a self-dual slope with nonzero
    weights at the pairs, or off the commuting shapes the trivial slope;
    and a bound from 2 to 5, to 3 on four and five vertices."""
    shapes = draw(st.sampled_from(COMMUTING_SHAPES + list(FORM_SHAPES)))
    quiver = draw(st.randoms(use_true_random=False).map(
        lambda rng: _rand_quiver(rng, shapes)).filter(
            lambda q: shapes in COMMUTING_SHAPES or _has_commutation_form(q)))
    calibrate_signs(quiver)
    weights = [0] * len(quiver.vertices)
    if shapes in COMMUTING_SHAPES or draw(st.booleans()):
        for i, j in quiver.vertex_pairs:
            weights[i] = draw(st.sampled_from(PAIR_WEIGHTS))
            weights[j] = -weights[i]
    bound = draw(st.integers(2, FORM_SHAPES.get(shapes, 5)))
    return quiver, Slope(tuple(weights)), shapes, bound


@BUDGET
@given(miller_case())
def test_miller_matches_the_star_powers(case):
    quiver, slope, shapes, bound = case
    _, refused = assert_miller_matches_the_star_powers(quiver, slope, bound)
    if shapes in COMMUTING_SHAPES:
        assert not refused


@pytest.mark.parametrize("make, weights", COMMUTATION_CASES + [
    (calibrated_mixed, {}), (calibrated_mixed, {"i": 2, "j": 1, "k": -1}),
    (calibrated_two_pairs, {}), (calibrated_cycle, {})])
def test_miller_matches_the_star_powers_with_a_commutation_form(make,
                                                                 weights):
    q = make()
    took, _ = assert_miller_matches_the_star_powers(
        q, Slope.from_dict(q, weights), 4)
    assert took


def test_a_class_whose_own_twists_vanish_takes_miller_over_star_powers(
        monkeypatch):
    """On the 3-cycle at the trivial slope, (1, 1, 0) = (1, 0, 0) + (0, 1,
    0) has a nonzero twist, and every decomposition of (1, 1, 1) into two
    classes has twist 0: the star-log, the root weight and the exp weights
    (c = 1, 2) at (1, 1, 1) take Miller's recurrence, over a class below
    that takes the star powers, so no star power at (1, 1, 1) is built; and
    each equals the series of the star powers."""
    q, g = calibrated_cycle(), (1, 1, 1)
    eng = inv._engine(q, Slope.trivial(q))
    log, root = eng._log(g), eng._root_weight(g)
    # The mirrored memo holds (1, 1, 0) at its dual (0, 1, 1).
    assert eng._rep((1, 1, 0)) in eng._memo["_powers"]
    assert g not in eng._memo["_powers"]
    for got, abc in ((log, inv._LOG), (root, inv._ROOT)):
        want = star_series(eng._semistable_num, eng._powers, g, 1, abc)
        assert as_fractions(got) == as_fractions(want), abc
    built = []

    def star_powers(h, *args):
        built.append(h)
        return inv._star_powers(h, *args)
    monkeypatch.setattr(wc, "_star_powers", star_powers)
    y = wc._numerators({a: eng.epsilon(a) for a in boxed_vectors(g)[1:]},
                       gl_poly, "M(a) eps(a)")
    weight = wc._ExpMemo(eng._steps, y).weight

    def x(a):
        return y.get(a, inv._ZERO)
    powers = cache(lambda h: inv._star_powers(h, eng._steps(h), x, powers))
    for c in (1, 2):
        want = star_series(x, powers, g, c, wc._EXP)
        assert as_fractions(weight(g, c)) == as_fractions(want), c
    assert (1, 1, 0) in built and g not in built


@BUDGET
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_box_steps_are_the_box_with_complements_and_binomials(top):
    """_box_steps(top) holds each 0 < p < top in graded-lex order, keyed by
    top - p, with top - p and the q^2-binomials [top_i, p_i] != 1."""
    top = tuple(top)
    steps = inv._box_steps(top)
    box = list(boxed_vectors(top)[1:-1])
    assert [step[0] for step in steps.values()] == box
    for p in box:
        got_p, r, bins = steps[vsub(top, p)]
        assert (got_p, r) == (p, vsub(top, p))
        assert [b.poly for b in bins] == [q2_binomial(n, k).poly
                                          for n, k in zip(top, p)
                                          if 0 < k < n]


@BUDGET
@given(st.randoms(use_true_random=False).map(_rand_quiver),
       st.integers(0, 4))
def test_sd_steps_are_the_self_dual_decompositions(quiver, bound):
    for th in quiver.sd_classes_up_to(bound):
        want = []
        for g in boxed_vectors(th)[1:]:
            rho = vsub(th, vadd(g, quiver.dual_vector(g)))
            if min(rho) >= 0:
                want.append((g, rho, tuple(sd_ratio(quiver, g, rho))))
        assert inv._sd_steps(quiver, th) == tuple(want), th


@st.composite
def stack_and_factor(draw):
    """A calibrated suite-shaped quiver with a nonzero commutation form, its
    classes up to a bound from 1 to 3, and two tables of integer Laurent
    numerators on them, a running stack and a slope factor: each entry is
    absent, zero, one or a small random Laurent polynomial."""
    quiver = draw(st.randoms(use_true_random=False).map(_rand_quiver)
                  .filter(_has_commutation_form))
    classes = quiver.dim_vectors_up_to(draw(st.integers(1, 3)))
    return quiver, classes, _table(draw, classes), _table(draw, classes)


# An entry of a table of Laurent numerators, None where it is absent.
ENTRY = st.one_of(st.none(), st.just({}), st.just({0: 1}),
                  st.dictionaries(st.integers(-4, 4),
                                  st.integers(-3, 3).filter(bool),
                                  max_size=3))


def _table(draw, classes):
    """A table of Laurent numerators on the classes, one ENTRY each."""
    drawn = {a: draw(ENTRY) for a in classes}
    return {a: Laurent(e) for a, e in drawn.items() if e is not None}


@BUDGET
@given(stack_and_factor())
def test_factor_walk_is_the_chain_sum_product(case):
    """The transform's product of the running stack by one slope factor,
    _chain_sum walked over the factor's nonzero classes (_factor_steps),
    against _chain_sum over the box of each class, as the transform
    multiplied before.  The walk's steps are steps of the box, at the
    factor's classes."""
    quiver, classes, stack, factor = case
    nonzero = {g: xg for g, xg in factor.items() if xg.poly}
    for a in classes:
        steps = wc._factor_steps(a, nonzero)
        assert set(steps) <= set(inv._box_steps(a).values()), a
        assert all(g in nonzero for _, g, _ in steps), a
        got = inv._chain_sum(quiver, stack, a, nonzero.get, steps)
        assert got.poly == inv._chain_sum(quiver, stack, a, factor.get,
                                          inv._box_steps(a).values()).poly


@BUDGET
@given(stack_and_factor(), st.data())
def test_hall_sums_are_the_reference_product_and_action(case, data):
    """_chain_sum over _box_steps(a) is M(a) times the a-coefficient of the
    product star of tests/torus.py, and _sd_action over _sd_steps(theta) is
    M_sd(theta) times the theta-coefficient of its action diamond, on tables
    whose entries are absent, zero, one or random.  The left element is
    (q - 1/q) ([0] + sum_p left(p) / M(p) [p]), as torus puts 1/(q - 1/q)
    on both operations; the right one is [0] + sum_v right(v) / M(v) [v],
    and the module sum_rho module(rho) / M_sd(rho) [rho]."""
    quiver, classes, left, right = case
    bound = vtotal(classes[-1])
    zero = (0,) * len(quiver.vertices)
    sd_classes = quiver.sd_classes_up_to(bound)
    module = _table(data.draw, sd_classes)
    sign = data.draw(st.sampled_from([1, -1]))

    def gl(tab):
        return {zero: 1, **{a: over_gl_denominator(n, a)
                            for a, n in tab.items()}}
    lhs = TorusElem(quiver, gl(left), bound).scale(Q_MINUS_QINV)
    star = lhs.star(TorusElem(quiver, gl(right), bound))
    for a in classes:
        got = inv._chain_sum(quiver, left, a, right.get,
                             inv._box_steps(a).values(), sign)
        assert over_gl_denominator(got, a) == sign * star.get(a), a
    diamond = lhs.diamond(TorusModElem(quiver, {
        th: over_sd_denominator(quiver, n, th) for th, n in module.items()},
        bound))
    for th in sd_classes:
        got = inv._sd_action(quiver, th, left.get,
                             lambda rho: module.get(rho, inv._ZERO))
        assert over_sd_denominator(quiver, got, th) == diamond.get(th), th


# Slope weights are c times one of a few rays per quiver: positive multiples
# share an engine, and -1 and -2 reach the opposite ray.
SCALES = [1, 2, Fraction(1, 2), 3, -1, -2]
SLOPES = st.tuples(st.integers(0, 2), st.sampled_from(SCALES))
SCALARS = ["semistable_integral", "epsilon_integral", "dt_mot", "dt_num",
           "sd_semistable_integral", "sd_epsilon_integral", "sd_dt_mot",
           "sd_dt_num"]


def _outcome(query, quiver):
    """("ok", the answer) or the type and message of what query raised."""
    try:
        return "ok", query(quiver)
    except Exception as exc:  # every refusal is compared, not only some
        return type(exc), str(exc)


def _eps(table):
    return table.eps, table.sd_eps


class CacheCoherence(RuleBasedStateMachine):
    """One quiver queried through every cache it keeps (an engine per weight
    ray, each engine's per-class memos and recursion tables, the class lists
    per bound) while its calibration is set, changed, detached and found
    again: each answer, or each exception's type and message, equals that of
    a fresh copy of the quiver with the same calibration, or none."""

    @initialize(rng=st.randoms(use_true_random=False),
                named=st.sampled_from([None, mixed_quiver, two_pairs_quiver]))
    def make(self, rng, named):
        q = self.quiver = named() if named else _rand_quiver(rng)
        n = len(q.vertices)
        sd = [0] * n
        for i, j in q.vertex_pairs:
            sd[i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            sd[j] = -sd[i]
        other = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(n)]
        self.rays = [(0,) * n, tuple(sd), tuple(other)]
        o, p = resolve_global_signs()
        kappa = tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(n))
        self.calibrations = [make_calibration(q, o, p),
                             make_calibration(q, -o, -p),
                             Calibration(o, p, kappa), None]

    def slope(self, spec):
        ray, c = spec
        return Slope(tuple(c * w for w in self.rays[ray]))

    def check(self, query):
        q = self.quiver
        fresh = SelfDualQuiver.from_data(q.to_data())
        fresh.set_calibration(q.calibration)
        want = _outcome(query, fresh)
        assert _outcome(query, q) == want

    @rule()
    def calibrate(self):
        self.check(calibrate_signs)

    @rule(k=st.integers(0, 3))
    def set_calibration(self, k):
        self.quiver.set_calibration(self.calibrations[k])

    @rule(spec=SLOPES, bound=st.integers(1, 3))
    def table(self, spec, bound):
        def table(q):
            t = inv.build_table(q, self.slope(spec), bound)
            return t.to_json(), inv.no_pole_report(t)
        self.check(table)

    @rule(spec=SLOPES, bound=st.integers(1, 3))
    def recalibrated_table(self, spec, bound):
        """The table of one ray under each calibration in turn, so that
        each change, the kappa one too, meets an engine the quiver holds
        at that ray."""
        for cal in self.calibrations:
            self.quiver.set_calibration(cal)
            self.table(spec, bound)

    @rule(spec=SLOPES, name=st.sampled_from(SCALARS), data=st.data())
    def scalar(self, spec, name, data):
        q = self.quiver
        at = data.draw(st.sampled_from(
            q.sd_classes_up_to(3) if name.startswith("sd_")
            else q.dim_vectors_up_to(3)))
        bound = data.draw(st.sampled_from([None, 2, 3]))
        self.check(lambda q: getattr(inv, name)(q, self.slope(spec), at,
                                                bound))

    @rule(spec=SLOPES, bound=st.integers(1, 3))
    def eps_table(self, spec, bound):
        self.check(lambda q: _eps(epsilon_table(q, self.slope(spec), bound)))

    @rule(plus=SLOPES, minus=SLOPES, bound=st.integers(1, 3))
    def crossing(self, plus, minus, bound):
        def cross(q):
            pair = SlopePair(q, self.slope(plus), self.slope(minus))
            return _eps(wallcross_epsilon(
                epsilon_table(q, pair.plus, bound), pair))
        self.check(cross)

    @rule(k=st.integers(0, 4))
    def refused(self, k):
        """A slope of the wrong length, a float weight, a vector of the
        wrong length, a class beyond the bound, and a self-dual query that
        is refused where the class or the slope is not self-dual."""
        n = len(self.quiver.vertices)
        ones = (1,) * n
        query = [
            lambda q: inv.dt_mot(q, Slope((0,) * (n + 1)), ones),
            lambda q: inv.dt_num(q, Slope((0.5,) * n), ones),
            lambda q: inv.dt_mot(q, self.slope((2, 1)), ones + (1,)),
            lambda q: inv.epsilon_integral(q, self.slope((1, 1)), (2,) * n,
                                           bound=1),
            lambda q: inv.sd_dt_num(q, self.slope((2, -1)), (1,) + (0,) *
                                    (n - 1)),
        ][k]
        self.check(query)


TestCacheCoherence = CacheCoherence.TestCase
TestCacheCoherence.settings = settings(BUDGET, stateful_step_count=10)
