"""Exact arithmetic in the field Q(q) of rational functions in one variable.

A RatFunc holds only its canonical form, q**shift * scale * num(q) / den(q):
scale is a nonzero Fraction, and num and den are coprime primitive integer
polynomials with nonzero constant terms and positive leading coefficients.
A value is reduced by one polynomial gcd when it is built, so equal values
have equal fields, and Laurent behaviour at 0 and infinity is readable off
the shift; the gcd takes primitive pseudo-remainders of coefficient lists
that end at their leading coefficient.  It is presented (to_data, its JSON
text to_json, str, the num and den properties) as q**shift * num / den with
rational coefficients and den monic, read off the integer fields: each
coefficient is c * scale / lead for num and c / lead for den, lead the
leading coefficient of den, reduced by one integer gcd with no Fraction
built (_presented).

Values and pole orders at a point u/v, an int or a Fraction read through
its numerator and denominator, are read off the integer num and den: a
value by Horner's rule on v**deg p(u/v), with one Fraction built at the
end, and a root multiplicity by dividing v q - u out, with the one exact
division _ip_div, while the value there is zero; the point becomes a
Fraction only in a PoleError.  Multiplying by q - 1/q needs no gcd either:
num and den are coprime, so q - 1 and q + 1 each divide den or multiply
num (times_q_minus_qinv).

RatFunc multiplies its integer polynomials term by term (_ip_mul).  Sums of
products that need no denominator at all, such as the semistable recursion
and the epsilon star-log once their motive denominators are cleared, run on
Laurent, an integer Laurent polynomial: laurent_sum evaluates every product
at q = 2**width and unpacks the big-integer total once (Kronecker
substitution), the one place that packs polynomials into integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm
from typing import Dict, List, Optional, Tuple

Poly = Dict[int, Fraction]

_IPoly = Dict[int, int]

# A presented polynomial: terms (e, p, r), the coefficient of q**e being p / r.
_Terms = List[Tuple[int, int, int]]


class PoleError(ArithmeticError):
    """Evaluation hit a pole; carries the point and the pole order."""

    def __init__(self, point: Fraction, order: int):
        self.point = point
        self.order = order
        super().__init__(f"pole of order {order} at q = {point}")


# ---------------------------------------------------------------------------
# integer polynomial helpers (dict exponent -> nonzero int)

def _ip_add_into(acc: _IPoly, p: _IPoly, mult: int) -> None:
    for e, c in p.items():
        v = acc.get(e, 0) + mult * c
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


def _ip_mul(a: _IPoly, b: _IPoly) -> _IPoly:
    if len(a) > len(b):
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


def _content(cs) -> int:
    """The gcd of the integers cs, 0 if all are zero."""
    g = 0
    for c in cs:
        g = _int_gcd(g, c)
        if g == 1:
            return 1
    return g


def _dense(p: _IPoly) -> List[int]:
    """The coefficients of p, lowest first, up to its leading one."""
    d = max(p)
    out = [0] * (d + 1)
    for e, c in p.items():
        out[e] = c
    return out


def _dense_prim(a: List[int]) -> List[int]:
    """The primitive part of a, positive leading coefficient; [] for []."""
    if not a:
        return a
    g = _content(a) if a[-1] > 0 else -_content(a)
    return [c // g for c in a]


def _dense_prem(a: List[int], b: List[int]) -> List[int]:
    # pseudo remainder, trimmed; a and b trimmed, b nonzero, deg a >= deg b
    r = a[:]
    db = len(b) - 1
    lb = b[db]
    dr = len(r) - 1
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
    """Primitive gcd over the integers, positive leading coefficient, of two
    primitive polynomials with positive leading coefficients."""
    x, y = _dense(a), _dense(b)
    if len(x) < len(y):
        x, y = y, x
    while True:
        r = _dense_prem(x, y)
        r = _dense_prim(r)
        if not r:
            return {e: c for e, c in enumerate(y) if c}
        x, y = y, r


def _ip_div(a: _IPoly, g: _IPoly) -> Optional[_IPoly]:
    """The quotient of the long division a / g of polynomials, or None if
    the remainder is not zero.  g is primitive, so by Gauss's lemma an exact
    quotient has integer coefficients.  a is nonzero.  A step leaves the
    term it divides out in place: only the dg lowest are left to test."""
    rem = _dense(a)
    dg = max(g)
    lead = g[dg]
    low = [(e, c) for e, c in g.items() if e < dg]
    quo: _IPoly = {}
    for dr in range(len(rem) - 1, dg - 1, -1):
        c = rem[dr]
        if c:
            c, r = divmod(c, lead)
            if r:
                return None
            off = dr - dg
            quo[off] = c
            for e, x in low:
                rem[off + e] -= c * x
    return None if any(rem[:dg]) else quo


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
    c = _content(p.values())
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
            num, den = _ip_div(num, g), _ip_div(den, g)
            assert num is not None and den is not None, "inexact division"
    return num, den


def _homogenised(p: _IPoly, u: int, v: int) -> int:
    """v**deg(p) * p(u/v) for a polynomial p, by Horner's rule in u with
    the matching powers of v."""
    d = max(p)
    h = p[d]
    w = 1
    for e in range(d - 1, -1, -1):
        w *= v
        h = h * u + p.get(e, 0) * w
    return h


def _root_mult(p: _IPoly, u: int, v: int) -> int:
    """The multiplicity of u/v, u and v coprime, as a root of p: while
    p(u/v) = 0, the primitive v q - u divides p exactly."""
    mult = 0
    while not _homogenised(p, u, v):
        p = _ip_div(p, {1: v, 0: -u})
        mult += 1
    return mult


_ONE: _IPoly = {0: 1}


# ---------------------------------------------------------------------------

class RatFunc:
    """Immutable exact rational function of q, held in canonical form:
    q**shift * scale * num / den with num and den as the module docstring
    describes.  Zero has scale 0, shift 0 and num {}."""

    __slots__ = ("_scale", "_shift", "_num", "_den")

    def __init__(self, value: "Fraction | int" = 0):
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
    def q_power(cls, k: int) -> "RatFunc":
        return cls._raw(Fraction(1), k, _ONE, _ONE)

    def shifted(self, k: int) -> "RatFunc":
        """self * q**k: only the shift moves, so nothing is multiplied."""
        if not k or not self._num:
            return self
        return RatFunc._raw(self._scale, self._shift + k, self._num,
                            self._den)

    def times_q_minus_qinv(self) -> "RatFunc":
        """self * (q - 1/q) = q**-1 * (q - 1)(q + 1) * self, with no gcd:
        num and den are coprime, so each of q - 1 and q + 1 either divides
        den or multiplies num."""
        if not self._num:
            return self
        num, den = self._num, self._den
        for root in (1, -1):
            quo = _ip_div(den, {1: 1, 0: -root})
            if quo is None:
                num = _ip_mul(num, {1: 1, 0: -root})
            else:
                den = quo
        return RatFunc._raw(self._scale, self._shift - 1, num, den)

    @classmethod
    def from_frac_polys(cls, shift: int, num: Poly, den: Poly) -> "RatFunc":
        """Build from Fraction-coefficient polynomials; den must be nonzero."""
        if not any(den.values()):
            raise ZeroDivisionError("zero denominator")
        num = {e: Fraction(c) for e, c in num.items() if c}
        den = {e: Fraction(c) for e, c in den.items() if c}
        if not num:
            return cls(0)
        ln = lcm(*(c.denominator for c in num.values()))
        ld = lcm(*(c.denominator for c in den.values()))
        inum = {e: int(c * ln) for e, c in num.items()}
        iden = {e: int(c * ld) for e, c in den.items()}
        return cls._make(Fraction(ld, ln), shift, inum, iden)

    # -- presented form ---------------------------------------------------------

    def _presented(self) -> Tuple[int, _Terms, _Terms]:
        """(shift, num, den) with den monic, each polynomial as its terms
        (e, p, r) in ascending e, the coefficient of q**e being p / r in
        lowest terms with r > 0."""
        if not self._num:
            return 0, [], [(0, 1, 1)]
        den = self._den
        lead = den[max(den)]
        s = self._scale
        return (self._shift, _reduced(self._num, s.numerator,
                                      s.denominator * lead),
                _reduced(den, 1, lead))

    def cleared(self, den: _IPoly) -> Optional[Tuple[_IPoly, int]]:
        """(P, k) with self = P / (k den), P an integer Laurent polynomial
        and k a positive integer, when self times the polynomial den lies
        in Q[q, 1/q]; None otherwise.  No RatFunc arithmetic."""
        if not self._num:
            return {}, 1
        quo = _ip_div(den, self._den)
        if quo is None:
            return None
        s, shift = self._scale, self._shift
        return ({e + shift: s.numerator * c
                 for e, c in _ip_mul(self._num, quo).items()}, s.denominator)

    @property
    def shift(self) -> int:
        return self._shift

    @property
    def num(self) -> Poly:
        return {e: Fraction(p, r) for e, p, r in self._presented()[1]}

    @property
    def den(self) -> Poly:
        return {e: Fraction(p, r) for e, p, r in self._presented()[2]}

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
        # A constant equals its Fraction, so it hashes as one.
        if not self._shift and len(self._num) <= 1 and len(self._den) == 1:
            return hash(self._scale)
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
        """The value at the point, read off the integer num and den at
        point = u/v (see _homogenised); PoleError at a pole."""
        if not self._num:
            return Fraction(0)
        sh = self._shift
        u, v = point.numerator, point.denominator
        if not u:
            if sh < 0:
                raise PoleError(Fraction(point), -sh)
            if sh > 0:
                return Fraction(0)
            return self._scale * self._num[0] / self._den[0]
        hd = _homogenised(self._den, u, v)
        if not hd:
            raise PoleError(Fraction(point), self.pole_order_at(point))
        # scale * (u/v)**sh * (hn / v**dn) / (hd / v**dd)
        top = self._scale.numerator * _homogenised(self._num, u, v)
        bottom = self._scale.denominator * hd
        ev = max(self._den) - max(self._num) - sh
        if sh >= 0:
            top *= u ** sh
        else:
            bottom *= u ** -sh
        if ev >= 0:
            top *= v ** ev
        else:
            bottom *= v ** -ev
        return Fraction(top, bottom)

    def pole_order_at(self, point: "Fraction | int") -> int:
        """Pole order at the point: positive for a pole, negative for a zero,
        0 for finite nonzero values.  The zero function reports 0.  Read
        off the integer num and den by division by v q - u at point = u/v
        (see _root_mult)."""
        if not self._num:
            return 0
        u, v = point.numerator, point.denominator
        if not u:
            return -self._shift
        md = _root_mult(self._den, u, v)
        if md:
            return md
        return -_root_mult(self._num, u, v)

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
            "num": [[e, _coeff_str(p, r)] for e, p, r in num],
            "den": [[e, _coeff_str(p, r)] for e, p, r in den],
        }

    def to_json(self, nl: str) -> str:
        """json.dumps(self.to_data(), indent=2, sort_keys=True) at the
        indent nl, from the presented terms: a coefficient is digits, a sign
        and a slash, so its JSON string is itself in quotes."""
        sh, num, den = self._presented()
        i1 = nl + "  "
        i2 = i1 + "  "
        i3 = i2 + "  "

        def terms(ts: _Terms) -> str:
            if not ts:
                return "[]"
            return ("[" + i2 + ("," + i2).join([
                f'[{i3}{e},{i3}"{_coeff_str(p, r)}"{i2}]' for e, p, r in ts])
                + i1 + "]")
        return (f'{{{i1}"den": {terms(den)},{i1}"num": {terms(num)},'
                f'{i1}"shift": {sh}{nl}}}')

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
        if den == [(0, 1, 1)]:
            if not parts:
                return ns
            parts.append(f"({ns})" if len(num) > 1 else ns)
            return "*".join(parts)
        parts.append(f"({ns})")
        return "*".join(parts) + f"/({_poly_str(den)})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _reduced(poly: _IPoly, mult: int, div: int) -> _Terms:
    """The terms (e, p, r) of poly * mult / div in ascending e, p / r in
    lowest terms, for div > 0 and mult != 0."""
    out = []
    for e in sorted(poly):
        c = poly[e] * mult
        g = _int_gcd(c, div)
        out.append((e, c // g, div // g))
    return out


def _coeff_str(p: int, r: int) -> str:
    """p / r as str(Fraction(p, r)) writes it, for p / r in lowest terms."""
    return str(p) if r == 1 else f"{p}/{r}"


def _poly_str(terms: _Terms) -> str:
    out = []
    for e, p, r in reversed(terms):
        c = _coeff_str(abs(p), r)
        if e == 0:
            body = c
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if c == "1" else f"{c}*{var}"
        if not out:
            out.append(body if p > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if p > 0 else f"- {body}")
    return " ".join(out)


def q_minus_qinv() -> RatFunc:
    """The scalar q - q^-1."""
    return RatFunc._raw(Fraction(1), -1, {2: 1, 0: -1}, _ONE)


def inv_q_minus_qinv() -> RatFunc:
    """The scalar 1/(q - q^-1) = q/(q^2 - 1)."""
    return RatFunc._raw(Fraction(1), 1, _ONE, {2: 1, 0: -1})

