"""Exact arithmetic in the field Q(q) of rational functions in one variable.

A RatFunc holds only its canonical form, q**shift * scale * num(q) / den(q):
scale is a nonzero Fraction, and num and den are coprime primitive integer
polynomials with nonzero constant terms and positive leading coefficients.
A value is reduced by one polynomial gcd when it is built, so equal values
have equal fields, and Laurent behaviour at 0 and infinity is readable off
the shift.  It is presented (to_data, str) as q**shift * num / den with
Fraction coefficients and den monic.

Sums of products that need no denominator at all, such as the semistable
recursion and the epsilon star-log once their motive denominators are
cleared, run on Laurent, an integer Laurent polynomial: laurent_sum
evaluates every product at q = 2**width and unpacks the big-integer total
once (Kronecker substitution).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Dict, List, Optional, Tuple

Poly = Dict[int, Fraction]

_IPoly = Dict[int, int]


class PoleError(ArithmeticError):
    """Evaluation hit a pole; carries the point and the pole order."""

    def __init__(self, point: Fraction, order: int):
        self.point = point
        self.order = order
        super().__init__(f"pole of order {order} at q = {point}")


# ---------------------------------------------------------------------------
# integer polynomial helpers (dict exponent -> nonzero int)

def _ip_add_into(acc: _IPoly, p: _IPoly, mult: int) -> None:
    if mult == 0:
        return
    for e, c in p.items():
        v = acc.get(e, 0) + mult * c
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


_SCHOOLBOOK_CUTOFF = 400


def _ip_mul(a: _IPoly, b: _IPoly) -> _IPoly:
    if not a or not b:
        return {}
    na, nb = len(a), len(b)
    if na * nb <= _SCHOOLBOOK_CUTOFF:
        if na > nb:
            a, b = b, a
        out: _IPoly = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return out
    return _ip_mul_packed(a, b)


def _ip_mul_packed(a: _IPoly, b: _IPoly) -> _IPoly:
    # Kronecker substitution: evaluate both at 2**width and multiply the two
    # big integers; balanced base-2**width digits of the product are exactly
    # the coefficients because each one is bounded by 2**(width-1) in size.
    la, lb = min(a), min(b)
    wa = max(abs(c) for c in a.values()).bit_length()
    wb = max(abs(c) for c in b.values()).bit_length()
    width = wa + wb + min(len(a), len(b)).bit_length() + 1
    return _ip_unpack(_ip_pack(a, la, width) * _ip_pack(b, lb, width),
                      la + lb, width)


def _ip_pack(p: _IPoly, low: int, width: int) -> int:
    """p at q = 2**width, divided by 2**(width * low); low <= min(p)."""
    return sum(c << (width * (e - low)) for e, c in p.items())


def _ip_unpack(m: int, low: int, width: int) -> _IPoly:
    """Inverse of _ip_pack: the balanced base-2**width digits of m, which
    are the coefficients when each is below 2**(width-1) in size."""
    base = 1 << width
    half = base >> 1
    mask = base - 1
    out: _IPoly = {}
    e = low
    while m:
        d = m & mask
        if d >= half:
            d -= base
        if d:
            out[e] = d
            m -= d
        m >>= width
        e += 1
    return out


def _ip_content(p: _IPoly) -> int:
    g = 0
    for c in p.values():
        g = _int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _dense(p: _IPoly) -> List[int]:
    d = max(p)
    out = [0] * (d + 1)
    for e, c in p.items():
        out[e] = c
    return out


def _dense_deg(a: List[int]) -> int:
    for i in range(len(a) - 1, -1, -1):
        if a[i]:
            return i
    return -1


def _dense_prim(a: List[int]) -> List[int]:
    g = 0
    for c in a:
        g = _int_gcd(g, abs(c))
        if g == 1:
            break
    if g == 0:
        return []
    d = _dense_deg(a)
    if a[d] < 0:
        g = -g
    return [c // g for c in a[: d + 1]]


def _dense_prem(a: List[int], b: List[int]) -> List[int]:
    # pseudo remainder; b nonzero, deg a >= deg b
    r = a[:]
    db = len(b) - 1
    lb = b[db]
    dr = _dense_deg(r)
    while dr >= db:
        lr = r[dr]
        for i in range(dr + 1):
            r[i] *= lb
        off = dr - db
        for i in range(db + 1):
            r[off + i] -= lr * b[i]
        dr -= 1
        while dr >= 0 and r[dr] == 0:
            dr -= 1
    return r[: dr + 1]


def _ip_gcd(a: _IPoly, b: _IPoly) -> _IPoly:
    """Primitive gcd over the integers, positive leading coefficient."""
    if not a:
        src = b
    elif not b:
        src = a
    else:
        src = None
    if src is not None:
        da = _dense_prim(_dense(src)) if src else []
        return {e: c for e, c in enumerate(da) if c}
    x = _dense_prim(_dense(a))
    y = _dense_prim(_dense(b))
    if len(x) < len(y):
        x, y = y, x
    while True:
        r = _dense_prem(x, y)
        r = _dense_prim(r)
        if not r:
            return {e: c for e, c in enumerate(y) if c}
        x, y = y, r


def _ip_div_exact(a: _IPoly, g: _IPoly) -> _IPoly:
    """Long division a / g, asserting zero remainder.  g is primitive, so by
    Gauss's lemma an exact quotient has integer coefficients."""
    if not a:
        return {}
    rem = _dense(a)
    rg = _dense(g)
    dg = len(rg) - 1
    lead = rg[dg]
    quo: _IPoly = {}
    for dr in range(len(rem) - 1, dg - 1, -1):
        if rem[dr]:
            c, r = divmod(rem[dr], lead)
            assert not r, "inexact polynomial division"
            quo[dr - dg] = c
            for i in range(dg + 1):
                rem[dr - dg + i] -= c * rg[i]
    assert not any(rem), "inexact polynomial division"
    return quo


class Laurent:
    """An integer Laurent polynomial, exponent -> nonzero int, with the
    1-norm of its coefficients and its packings (_ip_pack at its lowest
    exponent) at each width asked for.  Never mutated."""

    __slots__ = ("poly", "low", "norm", "_packs")

    def __init__(self, poly: _IPoly):
        self.poly = poly
        self.low = min(poly) if poly else 0
        self.norm = sum(map(abs, poly.values()))
        self._packs: Dict[int, int] = {}

    def packed(self, width: int) -> int:
        out = self._packs.get(width)
        if out is None:
            out = self._packs[width] = _ip_pack(self.poly, self.low, width)
        return out


def laurent_sum(terms: List[Tuple[int, List[Laurent]]],
                sign: int = 1) -> Laurent:
    """sign times the sum of q**k times the product of the factors, over the
    terms (k, factors).

    Every product is taken at q = 2**width, one width for the whole sum,
    wide enough by the 1-norms for every coefficient of the sum.  So the sum
    is big-integer arithmetic with a single unpack.  The width is rounded up
    to a multiple of 16 bits, so that sums of similar size reuse packings."""
    size = 0
    lows = []
    for k, factors in terms:
        n = 1
        for f in factors:
            n *= f.norm
            k += f.low
        size += n
        lows.append(k)
    if not size:
        return Laurent({})
    width = (size.bit_length() + 16) & ~15
    base = min(lows)
    total = 0
    for (_, factors), low in zip(terms, lows):
        m = 1
        for f in factors:
            m *= f.packed(width)
        total += m << (width * (low - base))
    return Laurent(_ip_unpack(sign * total, base, width))


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(_int_gcd(a.numerator, b.numerator),
                    (a.denominator * b.denominator) // _int_gcd(a.denominator, b.denominator))


def _primitive(p: _IPoly) -> Tuple[_IPoly, int, int]:
    """(prim, low, c) with p = c * q**low * prim, where prim is primitive,
    has a nonzero constant term and a positive leading coefficient."""
    low = min(p)
    c = _ip_content(p)
    if p[max(p)] < 0:
        c = -c
    if low or c != 1:
        p = {e - low: v // c for e, v in p.items()}
    return p, low, c


def _cancel(num: _IPoly, den: _IPoly) -> Tuple[_IPoly, _IPoly]:
    """num and den divided by their gcd; both primitive with nonzero
    constant terms, so a constant gcd is 1."""
    if len(num) > 1 and len(den) > 1:
        g = _ip_gcd(num, den)
        if max(g) > 0:
            return _ip_div_exact(num, g), _ip_div_exact(den, g)
    return num, den


def _eval(p: _IPoly, r: Fraction) -> Fraction:
    return sum((c * r ** e for e, c in p.items()), Fraction(0))


_ONE: _IPoly = {0: 1}


# ---------------------------------------------------------------------------

class RatFunc:
    """Immutable exact rational function of q, held in canonical form:
    q**shift * scale * num / den with num and den as the module docstring
    describes.  Zero has scale 0, shift 0 and num {}."""

    __slots__ = ("_scale", "_shift", "_num", "_den")

    def __init__(self, value: "RatFunc | Fraction | int | None" = None):
        if value is None:
            value = 0
        if isinstance(value, RatFunc):
            self._scale = value._scale
            self._shift = value._shift
            self._num = value._num
            self._den = value._den
            return
        f = Fraction(value)
        self._scale = f
        self._shift = 0
        self._num = _ONE if f else {}
        self._den = _ONE

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _raw(cls, scale: Fraction, shift: int, num: _IPoly,
             den: _IPoly) -> "RatFunc":
        """A value whose fields are already canonical."""
        self = object.__new__(cls)
        self._scale = scale
        self._shift = shift
        self._num = num
        self._den = den
        return self

    @classmethod
    def _make(cls, scale: Fraction, shift: int, num: _IPoly,
              den: _IPoly) -> "RatFunc":
        """q**shift * scale * num / den in canonical form, for integer
        Laurent polynomials num and den, den nonzero: q-powers move to the
        shift, contents and signs to the scale, and one gcd cancels."""
        if not num or not scale:
            return cls(0)
        num, low_n, c_n = _primitive(num)
        den, low_d, c_d = _primitive(den)
        if c_n != 1 or c_d != 1:
            scale = scale * c_n / c_d
        num, den = _cancel(num, den)
        return cls._raw(scale, shift + low_n - low_d, num, den)

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(1)

    @classmethod
    def q_power(cls, k: int) -> "RatFunc":
        return cls._raw(Fraction(1), k, _ONE, _ONE)

    def shifted(self, k: int) -> "RatFunc":
        """self * q**k: only the shift moves, so nothing is multiplied."""
        if not k or not self._num:
            return self
        return RatFunc._raw(self._scale, self._shift + k, self._num,
                            self._den)

    @classmethod
    def from_frac_polys(cls, shift: int, num: Poly, den: Poly) -> "RatFunc":
        """Build from Fraction-coefficient polynomials; den must be nonzero."""
        if not any(den.values()):
            raise ZeroDivisionError("zero denominator")
        num = {e: Fraction(c) for e, c in num.items() if c}
        den = {e: Fraction(c) for e, c in den.items() if c}
        if not num:
            return cls(0)
        ln = 1
        for c in num.values():
            ln = ln * c.denominator // _int_gcd(ln, c.denominator)
        ld = 1
        for c in den.values():
            ld = ld * c.denominator // _int_gcd(ld, c.denominator)
        inum = {e: int(c * ln) for e, c in num.items()}
        iden = {e: int(c * ld) for e, c in den.items()}
        return cls._make(Fraction(ld, ln), shift, inum, iden)

    # -- presented form ---------------------------------------------------------

    def _presented(self) -> Tuple[int, Poly, Poly]:
        """(shift, num, den) with Fraction coefficients and den monic."""
        if not self._num:
            return 0, {}, {0: Fraction(1)}
        lead = self._den[max(self._den)]
        scale = self._scale / lead
        return (self._shift, {e: c * scale for e, c in self._num.items()},
                {e: Fraction(c, lead) for e, c in self._den.items()})

    def laurent(self) -> Optional[_IPoly]:
        """The coefficients, exponent -> int, when the value lies in
        Z[q, 1/q]; None otherwise.  num is primitive, so scale * num has
        integer coefficients exactly when scale is an integer."""
        if not self._num:
            return {}
        if len(self._den) > 1 or self._scale.denominator != 1:
            return None
        s = self._scale.numerator
        return {e + self._shift: s * c for e, c in self._num.items()}

    @property
    def shift(self) -> int:
        return self._shift

    @property
    def num(self) -> Poly:
        return self._presented()[1]

    @property
    def den(self) -> Poly:
        return self._presented()[2]

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- ring operations ------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc(other)
        return None

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._num:
            return o
        if not o._num:
            return self
        sh = min(self._shift, o._shift)
        g = _fraction_gcd(self._scale, o._scale)
        na, da, nb, db = self._num, self._den, o._num, o._den
        if da != db:
            na, nb, da = _ip_mul(na, db), _ip_mul(nb, da), _ip_mul(da, db)
        ka, kb = self._shift - sh, o._shift - sh
        ma = (self._scale / g).numerator
        acc = {e + ka: ma * c for e, c in na.items()}
        _ip_add_into(acc, {e + kb: c for e, c in nb.items()},
                     (o._scale / g).numerator)
        return RatFunc._make(g, sh, acc, da)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        if not self._num:
            return self
        return RatFunc._raw(-self._scale, self._shift, self._num, self._den)

    def __sub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._num or not o._num:
            return RatFunc(0)
        # Each operand is in lowest terms, so only the cross pairs can
        # share a factor; products of primitive polynomials are primitive.
        na, db = _cancel(self._num, o._den)
        nb, da = _cancel(o._num, self._den)
        return RatFunc._raw(self._scale * o._scale, self._shift + o._shift,
                            _ip_mul(na, nb), _ip_mul(da, db))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatFunc":
        if not self._num:
            raise ZeroDivisionError("reciprocal of zero")
        return RatFunc._raw(1 / self._scale, -self._shift, self._den,
                            self._num)

    def __truediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, k: int) -> "RatFunc":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.reciprocal() ** (-k)
        out = RatFunc(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._scale == o._scale and self._shift == o._shift
                and self._num == o._num and self._den == o._den)

    def __hash__(self) -> int:
        return hash((self._scale, self._shift, tuple(sorted(self._num.items())),
                     tuple(sorted(self._den.items()))))

    # -- involution, evaluation, poles ---------------------------------------

    def bar(self) -> "RatFunc":
        """Substitute q -> 1/q."""
        if not self._num:
            return self
        num, den = self._num, self._den
        dn, dd = max(num), max(den)
        return RatFunc._make(self._scale, -self._shift - dn + dd,
                             {dn - e: c for e, c in num.items()},
                             {dd - e: c for e, c in den.items()})

    def eval_at(self, point: "Fraction | int") -> Fraction:
        r = Fraction(point)
        if not self._num:
            return Fraction(0)
        sh = self._shift
        if r == 0:
            if sh < 0:
                raise PoleError(r, -sh)
            if sh > 0:
                return Fraction(0)
            return self._scale * self._num[0] / self._den[0]
        dv = _eval(self._den, r)
        if dv == 0:
            raise PoleError(r, self.pole_order_at(r))
        return self._scale * _eval(self._num, r) * r ** sh / dv

    def pole_order_at(self, point: "Fraction | int") -> int:
        """Pole order at the point: positive for a pole, negative for a zero,
        0 for finite nonzero values.  The zero function reports 0."""
        r = Fraction(point)
        if not self._num:
            return 0
        if r == 0:
            return -self._shift
        md = _frac_poly_root_mult(self._den, r)
        if md:
            return md
        return -_frac_poly_root_mult(self._num, r)

    def subs_square(self, value: "Fraction | int") -> Fraction:
        """Substitute q**2 -> value; requires all exponents even."""
        v = Fraction(value)
        if not self._num:
            return Fraction(0)
        sh, num, den = self._shift, self._num, self._den
        if sh % 2 or any(e % 2 for e in num) or any(e % 2 for e in den):
            raise ValueError("odd q-powers present, no even substitution")
        nv = sum((c * v ** (e // 2) for e, c in num.items()), Fraction(0))
        dv = sum((c * v ** (e // 2) for e, c in den.items()), Fraction(0))
        if dv == 0:
            raise ZeroDivisionError("denominator vanishes at substitution")
        return self._scale * nv * v ** (sh // 2) / dv

    # -- presentation ----------------------------------------------------------

    def to_data(self):
        sh, num, den = self._presented()
        return {
            "shift": sh,
            "num": [[e, str(c)] for e, c in sorted(num.items())],
            "den": [[e, str(c)] for e, c in sorted(den.items())],
        }

    @classmethod
    def from_data(cls, data) -> "RatFunc":
        num = {int(e): Fraction(c) for e, c in data["num"]}
        den = {int(e): Fraction(c) for e, c in data["den"]}
        if not num:
            return cls(0)
        return cls.from_frac_polys(int(data["shift"]), num, den)

    def __str__(self) -> str:
        if not self._num:
            return "0"
        sh, num, den = self._presented()
        ns = _poly_str(num)
        parts = []
        if sh:
            parts.append("q" if sh == 1 else f"q^{sh}")
        if den == {0: Fraction(1)}:
            if not parts:
                return ns
            parts.append(f"({ns})" if len(num) > 1 else ns)
            return "*".join(parts)
        parts.append(f"({ns})")
        return "*".join(parts) + f"/({_poly_str(den)})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"

def _frac_poly_root_mult(poly: Poly, r: Fraction) -> int:
    cur = dict(poly)
    mult = 0
    while cur:
        val = Fraction(0)
        for e, c in cur.items():
            val += c * r ** e
        if val != 0:
            return mult
        # synthetic division by (q - r); remainder is zero since val == 0
        d = max(cur)
        dense = [cur.get(i, Fraction(0)) for i in range(d + 1)]
        quo = [Fraction(0)] * d
        carry = dense[d]
        for i in range(d - 1, -1, -1):
            quo[i] = carry
            carry = dense[i] + carry * r
        cur = {e: c for e, c in enumerate(quo) if c}
        mult += 1
    return mult


def _poly_str(poly: Poly) -> str:
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


def q_minus_qinv() -> RatFunc:
    """The scalar q - q^-1."""
    return RatFunc._raw(Fraction(1), -1, {2: 1, 0: -1}, _ONE)


def inv_q_minus_qinv() -> RatFunc:
    """The scalar 1/(q - q^-1) = q/(q^2 - 1)."""
    return RatFunc._raw(Fraction(1), 1, _ONE, {2: 1, 0: -1})


def binom_fraction(top: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient binom(top, n) for integer n >= 0."""
    out = Fraction(1)
    for i in range(n):
        out *= (top - i)
    for i in range(1, n + 1):
        out /= i
    return out
