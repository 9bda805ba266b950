"""Exact rational-function arithmetic against an independent slow oracle.

The oracle keeps plain Fraction-coefficient polynomial pairs, reduced by a
textbook Euclid gcd after every operation, and every comparison is backed by
evaluation at random rational points.
"""

import operator
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (as_fractions, bar, in_lowest_terms, shifted,
                     subs_square)
from reference import binom_fraction
from test_properties import BUDGET
from torus import INV_Q_MINUS_QINV, Q_MINUS_QINV
from quiver_dt import ratfunc
from quiver_dt.ratfunc import (
    Laurent,
    PoleError,
    RatFunc,
    laurent_sum,
    _at_point,
    _cancel,
    _ip_div,
    _ip_mul,
)

F = Fraction


# ---------------------------------------------------------------------------
# oracle: naive polynomial-pair rational functions

def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, F(0)) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            v = out.get(e, F(0)) + c1 * c2
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def pscale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def pmod(a, b):
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        c = r[dr] / lb
        for e, v in b.items():
            w = r.get(e + dr - db, F(0)) - c * v
            if w:
                r[e + dr - db] = w
            elif e + dr - db in r:
                del r[e + dr - db]
    return r


def pgcd(a, b):
    a, b = dict(a), dict(b)
    while b:
        a, b = b, pmod(a, b)
    if not a:
        return {}
    lead = a[max(a)]
    return {e: c / lead for e, c in a.items()}


def peval(a, r):
    return sum((c * r ** e for e, c in a.items()), F(0))


class Ref:
    """Oracle rational function: polynomial pair, Euclid-reduced."""

    def __init__(self, num, den):
        assert den
        g = pgcd(num, den) if num else {}
        if g and max(g) > 0:
            num = pdiv_exact(num, g)
            den = pdiv_exact(den, g)
        if num:
            lead = den[max(den)]
            num = pscale(num, 1 / lead)
            den = pscale(den, 1 / lead)
        else:
            den = {0: F(1)}
        self.num, self.den = num, den

    @classmethod
    def from_shifted(cls, shift, num, den):
        if shift >= 0:
            num = {e + shift: c for e, c in num.items()}
        else:
            den = {e - shift: c for e, c in den.items()}
        return cls(num, den)

    def add(self, o):
        return Ref(padd(pmul(self.num, o.den), pmul(o.num, self.den)),
                   pmul(self.den, o.den))

    def mul(self, o):
        return Ref(pmul(self.num, o.num), pmul(self.den, o.den))

    def div(self, o):
        assert o.num
        return Ref(pmul(self.num, o.den), pmul(self.den, o.num))

    def neg(self):
        return Ref(pscale(self.num, F(-1)), dict(self.den))

    def eval(self, r):
        dv = peval(self.den, r)
        if dv == 0:
            return None
        return peval(self.num, r) / dv


def pdiv_exact(a, g):
    dg = max(g)
    lg = g[dg]
    r = dict(a)
    quo = {}
    while r and max(r) >= dg:
        dr = max(r)
        c = r[dr] / lg
        quo[dr - dg] = c
        for e, v in g.items():
            w = r.get(e + dr - dg, F(0)) - c * v
            if w:
                r[e + dr - dg] = w
            elif e + dr - dg in r:
                del r[e + dr - dg]
    assert not r
    return quo


SAMPLE_POINTS = [F(2), F(3), F(-2), F(1, 2), F(5, 3), F(-7, 4), F(4), F(-5, 2)]


def agree(fast: RatFunc, ref: Ref) -> bool:
    hits = 0
    for r in SAMPLE_POINTS:
        want = ref.eval(r)
        if want is None:
            continue
        try:
            got = fast.eval_at(r)
        except PoleError:
            return False
        if got != want:
            return False
        hits += 1
        if hits >= 5:
            break
    return hits >= 3


def rand_pair(rng):
    """One random value built twice: fast implementation and oracle."""
    num = {}
    for e in range(rng.randint(0, 5)):
        if rng.random() < 0.75:
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            if c:
                num[e] = c
    den = {}
    while not den:
        for e in range(rng.randint(1, 4)):
            if rng.random() < 0.75:
                c = F(rng.randint(-4, 4), rng.randint(1, 3))
                if c:
                    den[e] = c
    shift = rng.randint(-4, 4)
    fast = RatFunc.from_frac_polys(shift, num, den)
    ref = Ref.from_shifted(shift, num, den)
    if rng.random() < 0.4:
        m = rng.randint(1, 4)
        cyc = RatFunc.from_frac_polys(0, {m: F(1), 0: F(-1)}, {0: F(1)})
        fast = fast / cyc
        ref = ref.div(Ref({m: F(1), 0: F(-1)}, {0: F(1)}))
    return fast, ref


# ---------------------------------------------------------------------------
# frozen values

def test_gcd_and_power_content_normalization():
    f = RatFunc.from_frac_polys(0, {3: F(1), 1: F(-1)}, {2: F(1), 1: F(1)})
    assert f.shift == 0
    assert f.num == {1: F(1), 0: F(-1)}
    assert f.den == {0: F(1)}
    # x ** k is the product of k factors x, field by field, for k = 0 and
    # for zero too
    for x in (f, 3 / f + 1, RatFunc(0)):
        want = RatFunc(1)
        for k in range(6):
            got = x ** k
            assert (got._scale, got._shift, got._num, got._den) == \
                (want._scale, want._shift, want._num, want._den)
            assert type(got._scale) is Fraction
            want = want * x


def test_known_quotient_collapses():
    f = RatFunc.from_frac_polys(0, {4: F(1), 0: F(-1)}, {2: F(1), 0: F(-1)})
    assert f.shift == 0
    assert f.num == {2: F(1), 0: F(1)}
    assert f.den == {0: F(1)}


def test_eval_half_at_minus_one():
    f = RatFunc.from_frac_polys(0, {0: F(1)}, {2: F(1), 0: F(1)})
    assert f.eval_at(-1) == F(1, 2)


def test_eval_geometric_inverse_at_minus_one():
    f = RatFunc.from_frac_polys(0, {0: F(1)}, {4: F(1), 2: F(1), 0: F(1)})
    assert f.eval_at(-1) == F(1, 3)


def test_q_minus_qinv_canonical_form():
    f = RatFunc(1).times_q_minus_qinv()
    g = f.reciprocal()
    assert f == RatFunc.q_power(1) - RatFunc.q_power(-1)
    assert (f._scale, f._shift, f._num, f._den) == (1, -1, {2: 1, 0: -1},
                                                    {0: 1})
    assert (g._scale, g._shift, g._num, g._den) == (1, 1, {0: 1},
                                                    {2: 1, 0: -1})
    assert f.shift == -1
    assert f.num == {2: F(1), 0: F(-1)}
    assert f.den == {0: F(1)}
    assert g.shift == 1
    assert g.num == {0: F(1)}
    assert g.den == {2: F(1), 0: F(-1)}
    assert f * g == RatFunc(1)


def test_pole_orders():
    g = INV_Q_MINUS_QINV
    assert g.pole_order_at(1) == 1
    assert g.pole_order_at(-1) == 1
    assert g.pole_order_at(0) == -1
    sq = g * g
    assert sq.pole_order_at(1) == 2
    assert sq.pole_order_at(F(1, 2)) == 0
    f = Q_MINUS_QINV
    assert f.pole_order_at(1) == -1
    assert f.pole_order_at(0) == 1
    assert RatFunc(0).pole_order_at(1) == 0


def test_pole_error_carries_order():
    g = INV_Q_MINUS_QINV ** 3
    with pytest.raises(PoleError) as err:
        g.eval_at(1)
    assert err.value.order == 3
    assert g.eval_at(0) == 0
    h = RatFunc.q_power(-2)
    with pytest.raises(PoleError) as err:
        h.eval_at(0)
    assert err.value.order == 2


def test_binom_fraction():
    assert binom_fraction(F(1, 2), 0) == 1
    assert binom_fraction(F(1, 2), 2) == F(-1, 8)
    assert binom_fraction(F(-1, 2), 3) == F(-5, 16)
    assert binom_fraction(F(1, 4), 1) == F(1, 4)
    assert binom_fraction(F(1, 4), 2) == F(-3, 32)


# ---------------------------------------------------------------------------
# randomized laws against the oracle

def test_field_laws_match_oracle():
    rng = random.Random(20260814)
    for _ in range(120):
        a, ra = rand_pair(rng)
        b, rb = rand_pair(rng)
        c, rc = rand_pair(rng)
        assert agree(a + b, ra.add(rb))
        assert agree(a * b, ra.mul(rb))
        assert agree(a - b, ra.add(rb.neg()))
        assert agree((a + b) + c, ra.add(rb.add(rc)))
        assert agree(a * (b + c), ra.mul(rb.add(rc)))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        if b:
            assert agree(a / b, ra.div(rb))
            assert (a / b) * b == a
        if a:
            assert a * a.reciprocal() == RatFunc(1)
            assert a ** 3 == a * a * a
            assert a ** -2 == (a.reciprocal()) ** 2


def test_canonical_invariants_hold_on_random_values():
    rng = random.Random(7)
    for _ in range(80):
        a, _ = rand_pair(rng)
        b, _ = rand_pair(rng)
        f = a * b + a + b
        if not f:
            continue
        num, den = f.num, f.den
        assert den[max(den)] == 1
        assert 0 in num and 0 in den
        g = pgcd(num, den)
        assert g == {0: F(1)}


def test_equality_and_hash_detect_equal_values():
    rng = random.Random(11)
    for _ in range(60):
        a, _ = rand_pair(rng)
        b, _ = rand_pair(rng)
        lhs = (a + b) * (a - b)
        rhs = a * a - b * b
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
    assert RatFunc(0) == 0
    assert RatFunc(1) != 0
    assert RatFunc(F(3, 2)) == F(3, 2)


def test_bar_involution():
    rng = random.Random(13)
    q = RatFunc.q_power(1)
    assert bar(q) == RatFunc.q_power(-1)
    for _ in range(60):
        a, _ = rand_pair(rng)
        b, _ = rand_pair(rng)
        assert bar(bar(a)) == a
        assert bar(a + b) == bar(a) + bar(b)
        assert bar(a * b) == bar(a) * bar(b)
    sym = q + bar(q)
    assert bar(sym) == sym


def test_shifted_matches_multiplying_by_a_q_power():
    rng = random.Random(23)
    values = [rand_pair(rng)[0] for _ in range(60)]
    values += [RatFunc(0), RatFunc(F(-3, 2)), INV_Q_MINUS_QINV]
    for i, x in enumerate(values):
        if i % 2:
            x.to_data()  # a value presented before it is shifted
        for k in (0, 1, -1, 3, -5, rng.randint(-9, 9)):
            got = shifted(x, k)
            want = x * RatFunc.q_power(k)
            assert got.to_data() == want.to_data()
            assert got == want and hash(got) == hash(want)
            assert (got + x).to_data() == (want + x).to_data()
    assert shifted(RatFunc(0), 4).to_data() == RatFunc(0).to_data()


def test_constants_hash_as_their_fractions():
    x = RatFunc.q_power(1)
    built = [(x + 1) - x, x / x * F(1, 2), (x - x) * 3,
             INV_Q_MINUS_QINV * Q_MINUS_QINV * F(-7, 3)]
    for c, value in zip((1, F(1, 2), 0, F(-7, 3)), built):
        assert value == c
        assert hash(value) == hash(c)
    for c in (0, 1, -3, F(1, 2), F(-7, 3)):
        assert RatFunc(c) == c and hash(RatFunc(c)) == hash(c)
        assert {c: "a"}.get(RatFunc(c)) == "a"
        assert {RatFunc(c): "a"}.get(c) == "a"


def test_serialization_round_trip():
    rng = random.Random(17)
    for _ in range(60):
        a, _ = rand_pair(rng)
        data = a.to_data()
        back = RatFunc.from_data(data)
        assert back == a
        assert back.to_data() == data
    assert RatFunc.from_data(RatFunc(0).to_data()) == RatFunc(0)


def fraction_long_division(a, g):
    """Long division over Q with Fraction coefficients, the reference for
    _ip_div's division in integers."""
    d = max(a)
    rem = [F(a.get(e, 0)) for e in range(d + 1)]
    dg = max(g)
    lead = F(g[dg])
    quo = {}
    for dr in range(d, dg - 1, -1):
        if rem[dr]:
            c = rem[dr] / lead
            quo[dr - dg] = c
            for e, v in g.items():
                rem[dr - dg + e] -= c * v
    assert not any(rem), "inexact polynomial division"
    return quo


def test_integer_exact_division_matches_fraction_long_division():
    rng = random.Random(23)
    for _ in range(300):
        g = {e: rng.randint(-6, 6) for e in range(rng.randint(0, 5) + 1)}
        g[max(g)] = rng.randint(1, 6)
        g = {e: c for e, c in g.items() if c}
        content = 0
        for c in g.values():
            content = gcd(content, c)
        g = {e: c // content for e, c in g.items()}
        h = {e: rng.randint(-20, 20) for e in range(rng.randint(0, 6) + 1)}
        h = {e: c for e, c in h.items() if c} or {0: 1}
        a = _ip_mul(g, h)
        got = _ip_div(a, g)
        assert got == h == fraction_long_division(a, g)
        assert all(type(c) is int for c in got.values())
    # leading coefficient not divisible, and a nonzero remainder
    for a, g in (({1: 1}, {1: 2, 0: 1}), ({2: 1, 0: 1}, {1: 1, 0: -1})):
        assert _ip_div(a, g) is None
        with pytest.raises(AssertionError, match="inexact"):
            fraction_long_division(a, g)


# ---------------------------------------------------------------------------
# the gcd of _cancel against Euclid's

def integral(p):
    """The primitive integer polynomial with a positive leading coefficient
    that is a rational multiple of p, whose coefficients are ints or
    Fractions."""
    p = {e: F(c) for e, c in p.items() if c}
    k = lcm(*(c.denominator for c in p.values()))
    p = {e: int(c * k) for e, c in p.items()}
    g = gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    return {e: c // g for e, c in p.items()}


# q^2 + q + 2 and q^2 + 3q + 4 are even, q^3 - q + 6 a multiple of 6, at
# every integer q, so as cofactors their packings share a factor 2 at every
# width
FIXED_DIVISORS = [{0: 2, 1: 1, 2: 1}, {0: 4, 1: 3, 2: 1}, {0: 6, 1: -1, 3: 1}]


@st.composite
def gcd_polys(draw, degrees):
    """An integral polynomial of a degree drawn from degrees, with a nonzero
    constant term and coefficients of size at most 2, 9 or 2**70."""
    top = draw(st.sampled_from([2, 9, 2 ** 70]))
    n = draw(degrees)
    cs = draw(st.lists(st.integers(-top, top), min_size=n + 1,
                       max_size=n + 1))
    cs[0] = cs[0] or 1
    cs[-1] = cs[-1] or 1
    return integral(dict(enumerate(cs)))


COFACTORS = gcd_polys(st.integers(0, 6)) | st.sampled_from(FIXED_DIVISORS)


@BUDGET
@given(COFACTORS, COFACTORS,
       gcd_polys(st.integers(0, 5) | st.integers(40, 45)))
@example(FIXED_DIVISORS[0], FIXED_DIVISORS[1], {0: 1, 1: 1})
@example({0: -1, 1: 2}, {0: 2, 1: 1}, {0: 1})
def test_cancel_divides_by_the_euclid_gcd(a, b, g):
    """_cancel(a g, b g) is a g and b g divided by their gcd over Q, each
    made primitive with a positive leading coefficient, the gcd taken by
    Euclid's algorithm on Fraction coefficients (pgcd): with coefficients
    above 2**64, degrees of 40 and more, and cofactors with a fixed divisor
    at every integer."""
    x, y = _ip_mul(a, g), _ip_mul(b, g)
    d = pgcd({e: F(c) for e, c in x.items()}, {e: F(c) for e, c in y.items()})
    assert _cancel(x, y) == (integral(pdiv_exact(x, d)),
                             integral(pdiv_exact(y, d)))


def test_cancel_widens_past_a_candidate_that_divides_neither(monkeypatch):
    """2q - 1 and q + 2 are coprime, but at the start width, 3 bits for
    2 * 2 + 2 = 6 (2 their largest coefficient), their packings 15 and 10
    have the integer gcd 5, which unpacks to q - 3 in balanced digits.  That
    divides neither, so _cancel doubles the width, where the gcd is 1, and
    returns both unchanged."""
    a, b = {0: -1, 1: 2}, {0: 2, 1: 1}
    pack = ratfunc._ip_pack
    assert gcd(pack(a, 0, 3), pack(b, 0, 3)) == 5
    assert ratfunc._ip_unpack(5, 0, 3) == {0: -3, 1: 1}
    widths = []
    monkeypatch.setattr(ratfunc, "_ip_pack", lambda p, low, w: widths.append(
        w) or pack(p, low, w))
    assert _cancel(a, b) == (a, b)
    assert widths == [3, 3, 6, 6]


def test_big_products_use_packed_multiply_consistently():
    # same product through one big multiply and through chained small ones
    rng = random.Random(19)
    terms = []
    for _ in range(6):
        poly = {e: F(rng.randint(-9, 9)) for e in range(0, 40, rng.randint(1, 3))}
        poly = {e: c for e, c in poly.items() if c}
        poly[0] = poly.get(0, F(0)) + 1
        terms.append(RatFunc.from_frac_polys(0, poly, {0: F(1)}))
    prod = RatFunc(1)
    for t in terms:
        prod = prod * t
    pair = (terms[0] * terms[1]) * (terms[2] * terms[3]) * (terms[4] * terms[5])
    assert prod == pair
    r = F(3, 2)
    want = F(1)
    for t in terms:
        want *= t.eval_at(r)
    assert prod.eval_at(r) == want
    # the schoolbook product against the packed one in laurent_sum, for
    # 30-40 terms with 30-digit coefficients on each side
    for _ in range(8):
        a, b = ({e: rng.choice([1, -1]) * rng.randint(10 ** 29, 10 ** 30)
                 for e in rng.sample(range(-20, 60), rng.randint(30, 40))}
                for _ in range(2))
        assert _ip_mul(a, b) == laurent_sum(
            [(0, [Laurent(a), Laurent(b)])]).poly


def _rand_laurent(rng, big=False):
    top = 10 ** 30 if big else 9
    low = rng.randint(-6, 4)
    poly = {e: rng.randint(-top, top)
            for e in range(low, low + rng.randint(0, 12))}
    return {e: c for e, c in poly.items() if c}


def _rand_factor(rng, big):
    """A random Laurent in lowest terms, over 1 or over a drawn integer,
    reduced here rather than by Laurent.over."""
    poly = _rand_laurent(rng, big)
    den = rng.choice([1, 1, 1, 2, 3, 4, 6, 12, 35])
    g = gcd(den, *poly.values())
    return Laurent({e: c // g for e, c in poly.items()}, den // g)


def test_laurent_sum_matches_term_by_term_products():
    """laurent_sum against the sum of Fraction-coefficient products, over
    factors with and without denominators; every sum is in lowest terms,
    zero with den 1."""
    rng = random.Random(31)
    for trial in range(200):
        terms, want = [], {}
        for _ in range(rng.randint(0, 6)):
            k = rng.randint(-5, 5)
            factors = [_rand_factor(rng, big=trial % 7 == 0)
                       for _ in range(rng.randint(1, 3))]
            prod = {0: F(1)}
            for f in factors:
                prod = pmul(prod, as_fractions(f))
            want = padd(want, {e + k: c for e, c in prod.items()})
            terms.append((k, factors))
        sign = rng.choice([1, -1])
        got = laurent_sum(terms, sign)
        assert as_fractions(got) == {e: sign * c for e, c in want.items()}
        assert in_lowest_terms(got), got
        assert got.low == min(got.poly, default=0)
        assert got.norm == sum(abs(c) for c in got.poly.values())
    # a sum that cancels to zero, and one factor used twice in a product
    x = Laurent({-2: 3, 5: -1})
    assert laurent_sum([(0, [x]), (0, [Laurent({-2: -3, 5: 1})])]).poly == {}
    assert laurent_sum([(1, [x, x])]).poly == {
        e + 1: c for e, c in _ip_mul(x.poly, x.poly).items()}
    assert laurent_sum([]).poly == {}
    # over denominators: a sum that cancels is Laurent({}) over 1, and one
    # whose lcm shares a factor with every coefficient is reduced
    y = Laurent({-2: 3, 5: -1}, 4)
    zero = laurent_sum([(0, [y]), (0, [Laurent({-2: -3, 5: 1}, 4)])])
    assert (zero.poly, zero.den) == ({}, 1)
    half = laurent_sum([(0, [y]), (0, [Laurent({-2: 3, 5: 1}, 4)])])
    assert (half.poly, half.den) == ({-2: 3}, 2)
    assert repr(Laurent({1: 2}, 3)) == "Laurent({1: 2}, den=3)"


def test_laurent_coefficients_only_for_laurent_polynomials():
    rng = random.Random(37)
    for _ in range(60):
        poly = _rand_laurent(rng)
        val = RatFunc.from_frac_polys(
            0, {e: F(c) for e, c in poly.items()}, {0: F(1)})
        for x in (val, val / (Q_MINUS_QINV * Q_MINUS_QINV)
                  * Q_MINUS_QINV * Q_MINUS_QINV):
            got = x.cleared({0: 1})
            assert (got.poly, got.den) == (poly, 1)
    assert (RatFunc(1) / (RatFunc.q_power(1) * 2 + 1)).cleared({0: 1}) is None
    half = RatFunc(F(1, 2)).cleared({0: 1})
    assert (half.poly, half.den) == ({0: 1}, 2)
    assert INV_Q_MINUS_QINV.cleared({0: 1}) is None
    got = Q_MINUS_QINV.cleared({0: 1})
    assert (got.poly, got.den) == ({1: 1, -1: -1}, 1)


def test_subs_square():
    f = RatFunc.from_frac_polys(2, {4: F(1), 0: F(1)}, {2: F(1), 0: F(-1)})
    assert subs_square(f, 3) == 3 * F(9 + 1, 2)
    odd = RatFunc.q_power(1)
    with pytest.raises(ValueError):
        subs_square(odd, 2)


def test_subs_square_of_zero_is_zero():
    for value in (3, F(1, 2), 0):
        got = subs_square(RatFunc(0), value)
        assert got == 0 and type(got) is Fraction


@pytest.mark.parametrize("c", [3, F(-1, 2)], ids=["int", "Fraction"])
def test_reflected_subtraction(c):
    f = Q_MINUS_QINV
    got = c - f
    assert type(got) is RatFunc
    assert got == -(f - c) == RatFunc(c) + (-f)
    assert got.eval_at(2) == c - F(3, 2)
    assert c - RatFunc(0) == c and c - RatFunc(c) == 0


@pytest.mark.parametrize("c", [3, F(-1, 2)], ids=["int", "Fraction"])
def test_reflected_division(c):
    f = Q_MINUS_QINV
    got = c / f
    assert type(got) is RatFunc
    assert got == INV_Q_MINUS_QINV * c
    assert got * f == c
    assert got.eval_at(2) == c / F(3, 2)
    assert 0 / f == 0
    with pytest.raises(ZeroDivisionError):
        c / RatFunc(0)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@pytest.mark.parametrize("other", [1.5, None, "q", 0.5, "2"])
def test_unsupported_operands_raise_type_error(op, other):
    """Each operator returns NotImplemented on an operand that is not a
    RatFunc, int or Fraction, from either side, and Python raises."""
    f = Q_MINUS_QINV
    with pytest.raises(TypeError):
        op(f, other)
    with pytest.raises(TypeError):
        op(other, f)


def test_unsupported_power_and_equality():
    f = Q_MINUS_QINV
    with pytest.raises(TypeError):
        f ** F(1, 2)
    assert f != 1.5 and f != "q" and not f == None  # noqa: E711
    assert (f == "x") is False and (RatFunc(2) == "2") is False


def test_str_is_deterministic():
    f = INV_Q_MINUS_QINV
    assert str(f) == "q*(1)/(q^2 - 1)"
    assert str(RatFunc(0)) == "0"
    assert str(RatFunc(1)) == "1"


# ---------------------------------------------------------------------------
# points on the integer form against Fraction arithmetic

def fraction_root_mult(poly, r):
    """The multiplicity of r as a root of poly, by Fraction evaluation and
    synthetic division by q - r."""
    cur = {e: F(c) for e, c in poly.items()}
    mult = 0
    while cur:
        if sum((c * r ** e for e, c in cur.items()), F(0)) != 0:
            return mult
        d = max(cur)
        dense = [cur.get(i, F(0)) for i in range(d + 1)]
        quo = [F(0)] * d
        carry = dense[d]
        for i in range(d - 1, -1, -1):
            quo[i] = carry
            carry = dense[i] + carry * r
        cur = {e: c for e, c in enumerate(quo) if c}
        mult += 1
    return mult


# the points u/v of test_at_point_counts_each_factor_and_reads_the_rest
ROOT_POINTS = [(1, 1), (-1, 1), (2, 3), (-3, 2)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ROOT_POINTS), st.integers(0, 4),
       st.lists(st.integers(-6, 6), min_size=1, max_size=5),
       st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_at_point_counts_each_factor_and_reads_the_rest(point, m, coeffs,
                                                        others):
    """_at_point(r (v q - u)^m, u, v) is (m, v^deg(r) r(u/v)) where r(u/v)
    != 0 and r(0) != 0, r carrying powers of the factors of the other
    points too."""
    u, v = point
    r = {e: c for e, c in enumerate(coeffs) if c}
    assume(r.get(0) and sum(c * F(u, v) ** e for e, c in r.items()) != 0)
    for (ou, ov), k in zip(ROOT_POINTS, others):
        if (ou, ov) != point:
            for _ in range(k):
                r = _ip_mul(r, {1: ov, 0: -ou})
    p = r
    for _ in range(m):
        p = _ip_mul(p, {1: v, 0: -u})
    h = F(v) ** max(r) * sum((c * F(u, v) ** e for e, c in r.items()), F(0))
    assert _at_point(p, u, v) == (m, h)


def fraction_pole_order(x, r):
    if not x:
        return 0
    if r == 0:
        return -x._shift
    md = fraction_root_mult(x._den, r)
    return md if md else -fraction_root_mult(x._num, r)


def fraction_eval(x, r):
    """x at r by Fraction arithmetic: (value, None), or (None, pole order)."""
    if not x:
        return F(0), None
    sh = x._shift
    if r == 0:
        if sh < 0:
            return None, -sh
        if sh > 0:
            return F(0), None
        return x._scale * x._num[0] / x._den[0], None
    dv = sum((c * r ** e for e, c in x._den.items()), F(0))
    if dv == 0:
        return None, fraction_pole_order(x, r)
    nv = sum((c * r ** e for e, c in x._num.items()), F(0))
    return x._scale * nv * r ** sh / dv, None


POINTS = [F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(0)]
# v q - u for the points u/v above other than 0, and two points off the list
ROOT_FACTORS = [{1: 1, 0: -1}, {1: 1, 0: 1}, {1: 1, 0: -2}, {1: 2, 0: -1},
                {1: 2, 0: 3}, {1: 3, 0: -1}, {2: 1, 0: 1}]


@st.composite
def canonical_ratfuncs(draw):
    """A canonical RatFunc whose num and den carry random powers of the
    factors vanishing at the points, and a random scale and shift."""
    coeffs = st.integers(-5, 5)
    polys = []
    for _ in range(2):
        poly = dict(enumerate(draw(st.lists(coeffs, max_size=4))))
        poly = {e: c for e, c in poly.items() if c} or {0: 1}
        for factor in ROOT_FACTORS:
            for _ in range(draw(st.integers(0, 2))):
                poly = _ip_mul(poly, factor)
        polys.append({e: F(c) for e, c in poly.items()})
    x = RatFunc.from_frac_polys(draw(st.integers(-3, 3)), *polys)
    scale = F(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return x * scale


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(canonical_ratfuncs())
def test_points_on_the_integer_form_match_fraction_arithmetic(x):
    for r in POINTS:
        order = x.pole_order_at(r)
        assert order == fraction_pole_order(x, r)
        want, pole = fraction_eval(x, r)
        if pole is None:
            assert x.eval_at(r) == want
        else:
            assert order == pole > 0
            with pytest.raises(PoleError) as err:
                x.eval_at(r)
            assert (err.value.point, err.value.order) == (r, pole)
    # What x keeps of the points is no part of its value or its forms.
    fresh = RatFunc.from_data(x.to_data())
    assert x == fresh and hash(x) == hash(fresh)
    assert (str(x), x.to_json("\n")) == (str(fresh), fresh.to_json("\n"))


def _at(x, point):
    """(value, None) at the point, or (None, (pole point, order))."""
    try:
        return x.eval_at(point), None
    except PoleError as err:
        assert type(err.point) is Fraction and err.point == point
        return None, (err.point, err.order)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(canonical_ratfuncs())
@example(RatFunc.q_power(-2))
@example(INV_Q_MINUS_QINV ** 2)
def test_int_and_fraction_points_read_alike(x):
    """An int point is read as u/v like the Fraction equal to it, and a
    PoleError carries the point as a Fraction either way.  Each point is
    read on its own copy of x, so that neither reads what the other kept."""
    for n in (0, 1, -1, 2, -3):
        a, b = (RatFunc.from_data(x.to_data()) for _ in range(2))
        assert a.pole_order_at(n) == b.pole_order_at(F(n))
        assert _at(a, n) == _at(b, F(n))


def test_a_fresh_read_sweeps_each_polynomial_at_most_once(monkeypatch):
    """A fresh RatFunc read at a point, its pole order and then its value,
    sweeps den once and num once unless the point is a nonzero root of den
    (or the function is zero); a second read of either sweeps nothing."""
    swept = []
    sweep = ratfunc._at_point
    monkeypatch.setattr(ratfunc, "_at_point",
                        lambda p, u, v: swept.append(p) or sweep(p, u, v))
    q = RatFunc.q_power(1)
    cases = [RatFunc(0), RatFunc(F(-3, 2)), Q_MINUS_QINV, INV_Q_MINUS_QINV ** 2,
             (q - 1) ** 2 * (2 * q - 1) / ((q + 1) * (q * q + 1) * q ** 2)]
    for x in cases:
        for point in POINTS + [-1, 1]:
            fresh, want = RatFunc.from_data(x.to_data()), _at(x, point)
            swept.clear()
            order = fresh.pole_order_at(point)
            assert _at(fresh, point) == want
            assert swept[:1] == [fresh._den]
            assert swept[1:] == ([fresh._num] if fresh and (
                order <= 0 or not point.numerator) else [])
            swept.clear()
            assert fresh.pole_order_at(point) == order
            assert _at(fresh, point) == want
            assert not swept, (x, point)


def test_a_second_value_read_returns_the_fraction_the_first_built():
    """A pole order read builds no value; the first eval_at at a point that
    is not a pole builds one Fraction, zero included, and every later read
    there, at the int or the Fraction, returns that very object.  At a pole
    each eval_at raises, and the order reads the same before and after."""
    q = RatFunc.q_power(1)
    x = (q - 1) ** 2 * (2 * q - 1) / ((q + 1) * (q * q + 1) * q ** 2)
    for point in POINTS + [F(3)]:
        fresh = RatFunc.from_data(x.to_data())
        order = fresh.pole_order_at(point)
        assert type(fresh._at[point][2]) is int
        if order > 0:
            for _ in range(2):
                with pytest.raises(PoleError):
                    fresh.eval_at(point)
        else:
            first = fresh.eval_at(point)
            assert first == x.eval_at(point)
            assert fresh.eval_at(point) is first
            if point.denominator == 1:
                assert fresh.eval_at(point.numerator) is first
        assert fresh.pole_order_at(point) == order


def test_numbers_are_ints_or_fractions():
    """A constant and a point are an int or a Fraction, as in arithmetic;
    anything else is a TypeError that names its type."""
    with pytest.raises(TypeError, match="float"):
        RatFunc(0.1)
    with pytest.raises(TypeError, match="str"):
        RatFunc("1/2")
    with pytest.raises(TypeError):
        RatFunc(1) + 0.1
    x = RatFunc.from_data(INV_Q_MINUS_QINV.to_data())
    for read, point in ((x.eval_at, 0.5), (x.pole_order_at, "1"),
                        (x.eval_at, None), (x.pole_order_at, 1.0)):
        with pytest.raises(TypeError, match=type(point).__name__):
            read(point)
    assert x.pole_order_at(1) == 1 and x.eval_at(F(2)) == F(2, 3)
    # a point already read is checked too; a bool is an int
    y = (RatFunc.q_power(1) + 2) / (RatFunc.q_power(1) - 3)
    assert y.eval_at(1) == F(-3, 2)
    for read, point in ((y.eval_at, 1.0), (y.pole_order_at, 1.0),
                        (x.eval_at, 2.0), (x.pole_order_at, Decimal(1))):
        with pytest.raises(TypeError, match=type(point).__name__):
            read(point)
    assert y.eval_at(True) == F(-3, 2) and x.pole_order_at(True) == 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(canonical_ratfuncs())
def test_times_q_minus_qinv_is_the_canonical_product(x):
    got = x.times_q_minus_qinv()
    want = (RatFunc.q_power(1) - RatFunc.q_power(-1)) * x
    assert (got._scale, got._shift, got._num, got._den) == \
        (want._scale, want._shift, want._num, want._den)


# ---------------------------------------------------------------------------
# presentation on the integer fields against the Fraction presenter

def fraction_presented(x):
    """(shift, num, den) with Fraction coefficients and den monic, as
    RatFunc presented itself before it read its integer fields."""
    if not x._num:
        return 0, {}, {0: F(1)}
    lead = x._den[max(x._den)]
    scale = x._scale / lead
    return (x._shift, {e: c * scale for e, c in x._num.items()},
            {e: F(c, lead) for e, c in x._den.items()})


def fraction_poly_str(poly):
    terms = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        if e == 0:
            body = str(abs(c))
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


def fraction_to_data(x):
    sh, num, den = fraction_presented(x)
    return {"shift": sh,
            "num": [[e, str(c)] for e, c in sorted(num.items())],
            "den": [[e, str(c)] for e, c in sorted(den.items())]}


def fraction_str(x):
    if not x._num:
        return "0"
    sh, num, den = fraction_presented(x)
    ns = fraction_poly_str(num)
    parts = []
    if sh:
        parts.append("q" if sh == 1 else f"q^{sh}")
    if den == {0: F(1)}:
        if not parts:
            return ns
        parts.append(f"({ns})" if len(num) > 1 else ns)
        return "*".join(parts)
    parts.append(f"({ns})")
    return "*".join(parts) + f"/({fraction_poly_str(den)})"


PRESENT_COEFFS = st.integers(-6, 6) | st.integers(-10 ** 30, 10 ** 30)
PRESENT_SCALES = st.fractions().filter(bool) | st.builds(
    F, st.integers(-10 ** 30, 10 ** 30).filter(bool),
    st.integers(1, 10 ** 30))


@st.composite
def presentable_ratfuncs(draw):
    """Zero, constants, scaled q-powers, or a canonical RatFunc with small
    or 30-digit coefficients, a denominator whose lead may exceed 1, and a
    scale of either sign."""
    kind = draw(st.sampled_from(["zero", "constant", "q-power", "general"]))
    if kind == "zero":
        return RatFunc(0)
    scale = draw(PRESENT_SCALES)
    if kind == "constant":
        return RatFunc(scale)
    shift = draw(st.integers(-5, 5))
    if kind == "q-power":
        return RatFunc.q_power(shift) * scale
    num, den = ({e: F(c) for e, c in enumerate(
        draw(st.lists(PRESENT_COEFFS, min_size=1, max_size=5)))}
        for _ in range(2))
    if not any(den.values()):
        den = {0: F(1)}
    return RatFunc.from_frac_polys(shift, num, den) * scale


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(presentable_ratfuncs())
@example(RatFunc(0))
@example(RatFunc(F(-3, 7)))
@example(RatFunc(-2))
@example(RatFunc.q_power(-3))
@example(RatFunc.from_frac_polys(1, {0: F(1), 1: F(2)}, {0: F(1), 1: F(3)})
         * F(-5, 4))
@example(RatFunc.from_frac_polys(0, {0: F(10 ** 30 + 1), 2: F(-3 * 10 ** 29)},
                                 {0: F(7), 1: F(2 * 10 ** 30)}))
def test_presentation_matches_the_fraction_presenter(x):
    assert x.to_data() == fraction_to_data(x)
    assert str(x) == fraction_str(x)
    _, num, den = fraction_presented(x)
    assert (x.num, x.den) == (num, den)
