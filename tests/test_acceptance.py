"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (visible with -s) and enforces its
time budget where one is stated.  The randomized checks all draw from the
fixed deterministic suite in suite.py; the identity checks of criteria 5, 7
and 9 also run on two twisted quivers (twisted_quivers).
"""

import math
import random
import time
from fractions import Fraction

from helpers import (calibrated_kron, calibrated_point, mixed_quiver,
                     rand_elem, rand_mod_elem, rand_vec, two_pairs_quiver)
from reference import (averaged_sd_stack_class, averaged_stack_class,
                       binom_fraction)
from suite import _rand_sd_slope, acceptance_suite
from quiver_dt import invariants as inv
from quiver_dt.motives import sd_stack_class, stack_class
from quiver_dt.quiver import Slope, vadd
from quiver_dt.oracle import calibrate_signs, verify_calibration
from quiver_dt.ratfunc import RatFunc
from quiver_dt.torus import (bracket, bracket_coeff, heart, integrated_unit,
                             sd_bracket_coeff, series_diamond, star_exp)
from quiver_dt.wallcross import SlopePair, epsilon_table, wallcross_epsilon


def _stamp(label, t0, budget=None):
    elapsed = time.perf_counter() - t0
    note = f" (budget {budget}s)" if budget else ""
    print(f"acceptance [{label}]: PASS in {elapsed:.2f}s{note}")
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.1f}s over budget {budget}s"


def twisted_quivers():
    """The mixed quiver (nonzero commutation form and kappa) and the
    two-pairs quiver (nonzero commutation form), calibrated as the suite's
    quivers are, each with six self-dual slopes from a fixed seed.  Most
    suite quivers have neither form, so their identities hold untwisted."""
    rng = random.Random(5)
    out = []
    for q in (mixed_quiver(), two_pairs_quiver()):
        calibrate_signs(q)
        out.append((q, [_rand_sd_slope(q, rng) for _ in range(6)]))
    return out


def test_criterion_1_point_linear_dt():
    t0 = time.perf_counter()
    pt = calibrated_point(1)
    triv = Slope.trivial(pt)
    for n in range(1, 7):
        assert inv.dt_num(pt, triv, (n,), bound=6) == Fraction(1, n * n)
    _stamp("point linear DT = 1/n^2, n <= 6", t0, budget=1)


def test_criterion_2_point_sd_dt():
    t0 = time.perf_counter()
    plus = calibrated_point(1)
    minus = calibrated_point(-1)
    tp, tm = Slope.trivial(plus), Slope.trivial(minus)
    even_plus, odd_plus, even_minus = [], [], []
    for n in range(5):
        even_plus.append(inv.sd_dt_num(plus, tp, (2 * n,), bound=9))
        odd_plus.append(inv.sd_dt_num(plus, tp, (2 * n + 1,), bound=9))
        even_minus.append(inv.sd_dt_num(minus, tm, (2 * n,), bound=8))
    for n in range(5):
        assert even_plus[n] == (-1) ** n * binom_fraction(Fraction(1, 4), n)
        assert odd_plus[n] == (-1) ** n * binom_fraction(Fraction(-1, 4), n)
        assert even_minus[n] == (-1) ** n * binom_fraction(Fraction(-1, 4), n)
    assert odd_plus == even_minus  # the two odd/symplectic families agree
    _stamp("point sd DT series, n <= 4", t0, budget=10)


def _sym_sum(m):
    acc = RatFunc(0)
    for e in range(-m, m + 1, 2):
        acc = acc + RatFunc.q_power(e)
    return acc


def _series_open(n):
    acc = RatFunc(0)
    for k in range(n // 2 + 1):
        c = binom_fraction(Fraction(1, 2), k) * (-1) ** k
        acc = acc + RatFunc(c) * _sym_sum(n - 2 * k)
    return acc


def _series_ratio(n):
    acc = Fraction(0)
    for k in range(n // 2 + 1):
        acc += binom_fraction(Fraction(1, 2), k) * (-1) ** k
    return RatFunc(acc)


def _series_sqrt(n):
    if n % 2:
        return RatFunc(0)
    return RatFunc(binom_fraction(Fraction(1, 2), n // 2) * (-1) ** (n // 2))


DOUBLE_ARROW_SERIES = {
    ((1, 1), 1): _series_open,
    ((-1, -1), -1): _series_open,
    ((1, -1), 1): _series_ratio,
    ((1, -1), -1): _series_ratio,
    ((-1, -1), 1): _series_sqrt,
    ((1, 1), -1): _series_sqrt,
}


def test_criterion_3_double_arrow_series():
    t0 = time.perf_counter()
    for (esigns, vsign), coeff in DOUBLE_ARROW_SERIES.items():
        q = calibrated_kron(esigns, vsign)
        s = Slope.from_dict(q, {"i": 1, "j": -1})
        for n in range(5):
            got = inv.sd_dt_mot(q, s, (n, n), bound=8)
            assert got == coeff(n), (esigns, vsign, n)
    _stamp("double-arrow sd series, all six variants, n <= 4", t0, budget=60)


def test_criterion_4_no_pole_property():
    t0 = time.perf_counter()
    for q, slopes in acceptance_suite():
        inv.clear_cache()
        for slope in (slopes[0], Slope.trivial(q)):
            table = inv.build_table(q, slope, 5)
            report = inv.no_pole_report(table)
            bad = [r for r in report if not r["ok"]]
            assert not bad, (q.vertices, slope.weights, bad[:3])
    _stamp("no poles of (q^2-1)*eps and sd eps at q = +-1, dim <= 5",
           t0, budget=300)


def test_criterion_5_wall_crossing_consistency():
    t0 = time.perf_counter()
    for q, slopes in acceptance_suite() + twisted_quivers():
        inv.clear_cache()
        for plus, minus in [(slopes[0], slopes[1]), (slopes[2], slopes[3]),
                            (slopes[4], slopes[5])]:
            pair = SlopePair(q, plus, minus)
            crossed = wallcross_epsilon(epsilon_table(q, plus, 5), pair)
            assert crossed == epsilon_table(q, minus, 5)
        start = epsilon_table(q, slopes[0], 5)
        mid = wallcross_epsilon(start, SlopePair(q, slopes[0], slopes[2]))
        two = wallcross_epsilon(mid, SlopePair(q, slopes[2], slopes[4]))
        one = wallcross_epsilon(start, SlopePair(q, slopes[0], slopes[4]))
        assert two == one
    _stamp("wall-crossed eps tables match direct; two-step = one-step",
           t0, budget=600)


def test_criterion_6_algebra_laws():
    t0 = time.perf_counter()
    suite = acceptance_suite()
    rng = random.Random(777001)
    for i in range(500):
        q = suite[i % len(suite)][0]
        x = rand_elem(q, rng, terms=2, hi=1, bound=3)
        y = rand_elem(q, rng, terms=2, hi=1, bound=3)
        z = rand_elem(q, rng, terms=1, hi=1, bound=3)
        m = rand_mod_elem(q, rng, terms=1, hi=1, bound=3)
        assert x.star(y).star(z) == x.star(y.star(z))
        assert x.star(y).diamond(m) == x.diamond(y.diamond(m))
        assert x.star(y).dualize() == y.dualize().star(x.dualize())
        assert heart(x, m) == -heart(x.dualize(), m)
        lhs = heart(x, heart(y, m)) - heart(y, heart(x, m))
        rhs = heart(bracket(x, y), m) - heart(bracket(x.dualize(), y), m)
        assert lhs == rhs
    _stamp("algebra laws, 500 randomized instances each", t0, budget=60)


def test_criterion_7_inversions_and_averages():
    t0 = time.perf_counter()
    bound = 5
    for q, slopes in acceptance_suite() + twisted_quivers():
        inv.clear_cache()
        slope = slopes[0]
        unit = integrated_unit(q, bound)

        values = inv.slope_values(q, slope, bound)
        prod = None
        for val in values:
            x = inv.semistable_element(q, slope, val, bound)
            e = inv.epsilon_element(q, slope, val, bound)
            assert star_exp(e, bound) == unit + x
            prod = (unit + x) if prod is None else prod.star(unit + x)
        assert prod == inv.integrated_stack_element(q, bound)

        e0 = inv.epsilon_element(q, slope, Fraction(0), bound)
        esd = inv.sd_epsilon_element(q, slope, bound)
        m0 = inv.sd_semistable_element(q, slope, bound)
        rebuilt = series_diamond(e0.scale(Fraction(1, 2)), esd,
                                 lambda n: Fraction(1, math.factorial(n)), bound)
        assert rebuilt == m0

        acc = m0
        for val in sorted(v for v in values if v > 0):
            acc = (unit + inv.semistable_element(q, slope, val, bound)).diamond(acc)
        assert acc == inv.sd_stack_element(q, bound)

        eps_of = {a: inv.epsilon_integral(q, slope, a, bound=bound)
                  for a in q.dim_vectors_up_to(bound)}
        sd_eps_of = {t: inv.sd_epsilon_integral(q, slope, t, bound=bound)
                     for t in q.sd_classes_up_to(bound)}
        for a in q.dim_vectors_up_to(bound):
            assert averaged_stack_class(q, slope, a, eps_of.__getitem__) == \
                stack_class(q, a)
        for th in q.sd_classes_up_to(bound):
            assert averaged_sd_stack_class(q, slope, th, eps_of.__getitem__,
                                           sd_eps_of.__getitem__) == \
                sd_stack_class(q, th)
    _stamp("exp/log and square-root inversions, averaged identities, dim <= 5",
           t0, budget=300)


def test_criterion_8_bracket_coefficients():
    t0 = time.perf_counter()
    suite = acceptance_suite()
    rng = random.Random(777002)
    for i in range(500):
        q = suite[i % len(suite)][0]
        n = len(q.vertices)
        a, b = rand_vec(rng, n, 2), rand_vec(rng, n, 2)
        coeff = bracket_coeff(q, [a, b])
        assert coeff.bar() == coeff
        e = q.commutation_exponent(a, b)
        num = bracket_coeff(q, [a, b]).eval_at(-1)
        assert num == coeff.eval_at(-1)
        assert num == Fraction((-1) ** (1 + e) * e)
        c = rand_vec(rng, n, 1)
        triple = bracket_coeff(q, [a, b, c])
        assert triple.bar() == triple
        rho = rand_vec(rng, n, 1, allow_zero=True)
        rho = vadd(rho, q.dual_vector(rho))
        sd = sd_bracket_coeff(q, [a], rho)
        assert sd.bar() == sd
        assert sd_bracket_coeff(q, [a], rho).eval_at(-1) == sd.eval_at(-1)
    _stamp("bracket coefficients bar-symmetric and Euler-specialized",
           t0, budget=30)


def test_criterion_9_calibration_stability():
    t0 = time.perf_counter()
    for q, _slopes in acceptance_suite() + twisted_quivers():
        counts4 = verify_calibration(q, bound=4)
        counts6 = verify_calibration(q, bound=6)
        assert all(v > 0 for v in counts4.values())
        assert all(counts6[k] >= counts4[k] for k in counts4)
    _stamp("calibration identities stable under bound 4 -> 6", t0)
