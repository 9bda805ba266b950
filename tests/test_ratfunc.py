"""Exact rational-function arithmetic against an independent slow oracle.

The oracle keeps plain Fraction-coefficient polynomial pairs, reduced by a
textbook Euclid gcd after every operation, and every comparison is backed by
evaluation at random rational points.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from quiver_dt.ratfunc import (
    Laurent,
    PoleError,
    RatFunc,
    binom_fraction,
    inv_q_minus_qinv,
    laurent_sum,
    q_minus_qinv,
    _ip_add_into,
    _ip_div_exact,
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
    f = q_minus_qinv()
    assert f.shift == -1
    assert f.num == {2: F(1), 0: F(-1)}
    assert f.den == {0: F(1)}
    g = inv_q_minus_qinv()
    assert g.shift == 1
    assert g.num == {0: F(1)}
    assert g.den == {2: F(1), 0: F(-1)}
    assert f * g == RatFunc(1)


def test_pole_orders():
    g = inv_q_minus_qinv()
    assert g.pole_order_at(1) == 1
    assert g.pole_order_at(-1) == 1
    assert g.pole_order_at(0) == -1
    sq = g * g
    assert sq.pole_order_at(1) == 2
    assert sq.pole_order_at(F(1, 2)) == 0
    f = q_minus_qinv()
    assert f.pole_order_at(1) == -1
    assert f.pole_order_at(0) == 1
    assert RatFunc(0).pole_order_at(1) == 0


def test_pole_error_carries_order():
    g = inv_q_minus_qinv() ** 3
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
    assert q.bar() == RatFunc.q_power(-1)
    for _ in range(60):
        a, _ = rand_pair(rng)
        b, _ = rand_pair(rng)
        assert a.bar().bar() == a
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).bar() == a.bar() * b.bar()
    sym = q + q.bar()
    assert sym.bar() == sym


def test_shifted_matches_multiplying_by_a_q_power():
    rng = random.Random(23)
    values = [rand_pair(rng)[0] for _ in range(60)]
    values += [RatFunc(0), RatFunc(F(-3, 2)), inv_q_minus_qinv()]
    for i, x in enumerate(values):
        if i % 2:
            x.to_data()  # a value presented before it is shifted
        for k in (0, 1, -1, 3, -5, rng.randint(-9, 9)):
            got = x.shifted(k)
            want = x * RatFunc.q_power(k)
            assert got.to_data() == want.to_data()
            assert got == want and hash(got) == hash(want)
            assert (got + x).to_data() == (want + x).to_data()
    assert RatFunc(0).shifted(4).to_data() == RatFunc(0).to_data()


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
    """Long division over Q with Fraction coefficients, as _ip_div_exact did
    before it divided in integers."""
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
        got = _ip_div_exact(a, g)
        assert got == h == fraction_long_division(a, g)
        assert all(type(c) is int for c in got.values())
    # leading coefficient not divisible, and a nonzero remainder
    for a, g in (({1: 1}, {1: 2, 0: 1}), ({2: 1, 0: 1}, {1: 1, 0: -1})):
        with pytest.raises(AssertionError, match="inexact"):
            _ip_div_exact(a, g)
        with pytest.raises(AssertionError, match="inexact"):
            fraction_long_division(a, g)


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


def _rand_laurent(rng, big=False):
    top = 10 ** 30 if big else 9
    low = rng.randint(-6, 4)
    poly = {e: rng.randint(-top, top)
            for e in range(low, low + rng.randint(0, 12))}
    return {e: c for e, c in poly.items() if c}


def test_laurent_sum_matches_term_by_term_products():
    rng = random.Random(31)
    for trial in range(200):
        terms, want = [], {}
        for _ in range(rng.randint(0, 6)):
            k = rng.randint(-5, 5)
            polys = [_rand_laurent(rng, big=trial % 7 == 0)
                     for _ in range(rng.randint(1, 3))]
            prod = {0: 1}
            for p in polys:
                prod = _ip_mul(prod, p)
            _ip_add_into(want, {e + k: c for e, c in prod.items()}, 1)
            terms.append((k, [Laurent(p) for p in polys]))
        sign = rng.choice([1, -1])
        got = laurent_sum(terms, sign)
        assert got.poly == {e: sign * c for e, c in want.items()}
        assert got.low == min(got.poly, default=0)
        assert got.norm == sum(abs(c) for c in got.poly.values())
    # a sum that cancels to zero, and one factor used twice in a product
    x = Laurent({-2: 3, 5: -1})
    assert laurent_sum([(0, [x]), (0, [Laurent({-2: -3, 5: 1})])]).poly == {}
    assert laurent_sum([(1, [x, x])]).poly == {
        e + 1: c for e, c in _ip_mul(x.poly, x.poly).items()}
    assert laurent_sum([]).poly == {}


def test_laurent_coefficients_only_for_laurent_polynomials():
    rng = random.Random(37)
    for _ in range(60):
        poly = _rand_laurent(rng)
        val = RatFunc.from_frac_polys(
            0, {e: F(c) for e, c in poly.items()}, {0: F(1)})
        assert val.laurent() == poly
        assert (val / (q_minus_qinv() * q_minus_qinv())
                * q_minus_qinv() * q_minus_qinv()).laurent() == poly
    assert (RatFunc(1) / (RatFunc.q_power(1) * 2 + 1)).laurent() is None
    assert RatFunc(F(1, 2)).laurent() is None
    assert inv_q_minus_qinv().laurent() is None
    assert q_minus_qinv().laurent() == {1: 1, -1: -1}


def test_subs_square():
    f = RatFunc.from_frac_polys(2, {4: F(1), 0: F(1)}, {2: F(1), 0: F(-1)})
    assert f.subs_square(3) == 3 * F(9 + 1, 2)
    odd = RatFunc.q_power(1)
    with pytest.raises(ValueError):
        odd.subs_square(2)


def test_str_is_deterministic():
    f = inv_q_minus_qinv()
    assert str(f) == "q*(1)/(q^2 - 1)"
    assert str(RatFunc(0)) == "0"
    assert str(RatFunc(1)) == "1"
