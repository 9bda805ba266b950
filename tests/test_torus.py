import random
from fractions import Fraction

import pytest

from helpers import (bar, calibrated_kron, calibrated_mixed, rand_elem,
                     rand_mod_elem)
from quiver_dt.ratfunc import RatFunc
from torus import (INV_Q_MINUS_QINV as INV, Q_MINUS_QINV, TorusElem,
                   TorusModElem, bracket, bracket_coeff, heart,
                   integrated_unit, module_unit, sd_bracket_coeff,
                   series_diamond, star_exp, star_log_one_plus)


def gen(q, v, c=1):
    return TorusElem.generator(q, v, c)


def mgen(q, v, c=1):
    return TorusModElem.generator(q, v, c)


def test_star_of_generators_frozen():
    q = calibrated_kron()
    prod = gen(q, (1, 0)).star(gen(q, (0, 1)))
    assert prod.coeffs == {(1, 1): RatFunc.q_power(-2) * INV}
    prod2 = gen(q, (0, 1)).star(gen(q, (1, 0)))
    assert prod2.coeffs == {(1, 1): RatFunc.q_power(2) * INV}


def test_diamond_of_generators_frozen():
    q = calibrated_kron()
    act = gen(q, (1, 0)).diamond(module_unit(q))
    assert act.coeffs == {(1, 1): RatFunc.q_power(-2) * INV}


def test_unit_laws():
    rng = random.Random(7)
    q = calibrated_mixed()
    one = integrated_unit(q)
    for _ in range(5):
        x = rand_elem(q, rng, terms=3)
        assert one.star(x) == x
        assert x.star(one) == x
        m = rand_mod_elem(q, rng, terms=2)
        assert one.diamond(m) == m


def test_star_associative():
    rng = random.Random(11)
    for q in (calibrated_kron(), calibrated_mixed()):
        for _ in range(4):
            x = rand_elem(q, rng)
            y = rand_elem(q, rng)
            z = rand_elem(q, rng)
            assert x.star(y).star(z) == x.star(y.star(z))


def test_mixed_associative():
    rng = random.Random(13)
    for q in (calibrated_kron((1, -1), 1), calibrated_mixed()):
        for _ in range(4):
            x = rand_elem(q, rng)
            y = rand_elem(q, rng)
            m = rand_mod_elem(q, rng)
            assert x.star(y).diamond(m) == x.diamond(y.diamond(m))


def test_dualize_antihomomorphism():
    rng = random.Random(17)
    q = calibrated_mixed()
    for _ in range(5):
        x = rand_elem(q, rng)
        y = rand_elem(q, rng)
        assert x.dualize().dualize() == x
        assert x.star(y).dualize() == y.dualize().star(x.dualize())


def test_heart_antisymmetry():
    rng = random.Random(19)
    q = calibrated_mixed()
    for _ in range(5):
        x = rand_elem(q, rng)
        m = rand_mod_elem(q, rng)
        assert heart(x, m) == -heart(x.dualize(), m)


def test_twisted_jacobi():
    rng = random.Random(23)
    for q in (calibrated_kron(), calibrated_mixed()):
        for _ in range(3):
            a = rand_elem(q, rng)
            b = rand_elem(q, rng)
            m = rand_mod_elem(q, rng)
            lhs = heart(a, heart(b, m)) - heart(b, heart(a, m))
            rhs = (heart(bracket(a, b), m)
                   - heart(bracket(a.dualize(), b), m))
            assert lhs == rhs


def test_bracket_coeff_closed_form():
    rng = random.Random(29)
    q = calibrated_mixed()
    seen_nonzero = False
    for _ in range(8):
        a = tuple(rng.randint(0, 2) for _ in range(3))
        b = tuple(rng.randint(0, 2) for _ in range(3))
        if sum(a) == 0 or sum(b) == 0:
            continue
        e = q.commutation_exponent(a, b)
        got = bracket_coeff(q, [a, b])
        want = (RatFunc.q_power(e) - RatFunc.q_power(-e)) * INV
        assert got == want
        # Laurent polynomial, symmetric under bar
        assert got.den == {0: Fraction(1)}
        assert bar(got) == got
        assert (bracket_coeff(q, [a, b]).eval_at(-1)
                == Fraction((-1) ** (1 + e) * e))
        seen_nonzero = seen_nonzero or e != 0
    assert seen_nonzero


def test_sd_heart_coeff_closed_form():
    rng = random.Random(31)
    q = calibrated_mixed()
    seen_nonzero = False
    for _ in range(8):
        a = tuple(rng.randint(0, 2) for _ in range(3))
        if sum(a) == 0:
            continue
        r = tuple(x + y for x, y in zip(a, q.dual_vector(a)))
        b = q.sd_twist_exponent(a, r)
        assert b.denominator == 1
        b = int(b)
        got = sd_bracket_coeff(q, [a], r)
        want = (RatFunc.q_power(b) - RatFunc.q_power(-b)) * INV
        assert got == want
        assert bar(got) == got
        assert (sd_bracket_coeff(q, [a], r).eval_at(-1)
                == Fraction((-1) ** (1 + b) * b))
        seen_nonzero = seen_nonzero or b != 0
    assert seen_nonzero


def test_log_exp_roundtrip():
    rng = random.Random(37)
    bound = 4
    q = calibrated_kron()
    for _ in range(3):
        x = rand_elem(q, rng, terms=2, hi=2, bound=bound)
        if x.min_total() is None:
            continue
        y = star_log_one_plus(x, bound)
        z = star_exp(y, bound)
        assert z == integrated_unit(q, bound) + x


def test_series_rejects_degree_zero_support():
    q = calibrated_kron()
    x = integrated_unit(q)
    with pytest.raises(ValueError, match="positive degrees"):
        star_log_one_plus(x, 3)
    with pytest.raises(ValueError, match="positive degrees"):
        series_diamond(x, module_unit(q), lambda n: Fraction(1), 2)


def test_bracket_coeff_needs_a_class():
    with pytest.raises(ValueError, match="at least one class"):
        bracket_coeff(calibrated_kron(), [])


def test_products_keep_the_one_bound_given():
    q = calibrated_kron()
    x = TorusElem(q, {(1, 0): RatFunc(1)}, 3)
    y = gen(q, (0, 1))
    for out in (x + y, y + x, x.star(y), y.star(x)):
        assert out.bound == 3
    assert y.diamond(module_unit(q, 2)).bound == 2


def test_bound_truncation_is_congruence():
    rng = random.Random(41)
    q = calibrated_mixed()
    bound = 3

    def cut(e):
        return TorusElem(q, e.coeffs, bound)

    for _ in range(5):
        x = rand_elem(q, rng, terms=3, hi=2)
        y = rand_elem(q, rng, terms=3, hi=2)
        xb, yb = cut(x), cut(y)
        assert xb.star(yb) == cut(x.star(y))
        assert xb + yb == cut(x + y)


def test_series_diamond_matches_iterated_action():
    q = calibrated_kron()
    x = gen(q, (1, 0))
    m = module_unit(q)
    coeffs = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(3, 8)}
    got = series_diamond(x, m, lambda n: coeffs[n], 2)
    step1 = x.diamond(m)
    step2 = x.diamond(step1)
    want = m.scale(coeffs[0]) + step1.scale(coeffs[1]) + step2.scale(coeffs[2])
    assert got == want


def test_module_elements_reject_non_self_dual_classes():
    q = calibrated_kron()
    with pytest.raises(ValueError):
        TorusModElem(q, {(1, 0): RatFunc(1)})


def test_scale_and_get():
    q = calibrated_kron()
    x = gen(q, (1, 1), RatFunc.q_power(2)).scale(Fraction(1, 2))
    assert x.get((1, 1)) == RatFunc.q_power(2) * RatFunc(Fraction(1, 2))
    assert not x.get((2, 0))
    assert not (Q_MINUS_QINV * INV - RatFunc(1))


def test_module_arithmetic_keeps_the_module_type():
    q = calibrated_kron()
    m = mgen(q, (1, 1), 2)
    for out in (m + m, m - m, -m, m.scale(3), TorusModElem.zero(q)):
        assert type(out) is TorusModElem
    assert repr(m).startswith("TorusModElem(")
    # a linear and a module element on the same class are never equal
    assert gen(q, (1, 1), 2) != m
    assert m != gen(q, (1, 1), 2)
