"""Exact arithmetic in the field Q(q) of rational functions in one variable.

A RatFunc holds only its canonical form, q**shift * scale * num(q) / den(q):
scale is a nonzero Fraction, and num and den are coprime primitive integer
polynomials with nonzero constant terms and positive leading coefficients,
so equal values have equal fields, and Laurent behaviour at 0 and infinity
is readable off the shift.  Each operation takes one path from its operands
to that form.  An operator reads its other operand by one rule (_binary): a
RatFunc as it is, an int or a Fraction as a constant.  A sum puts both
operands over one denominator and reduces it by one polynomial gcd (_make),
read off the integer gcd of the two polynomials packed into integers
(_cancel).  A product cancels only its cross pairs, and powers need no gcd
(Gauss's lemma), nor does multiplying by q - 1/q: q - 1 and q + 1 each
divide den or multiply num (times_q_minus_qinv).  A value is presented
(to_data, its JSON text to_json, str, the num and den properties) as
q**shift * num / den with rational coefficients and den monic, read off the
integer fields: each coefficient is c * scale / lead for num and c / lead
for den, lead the leading coefficient of den, reduced by one integer gcd
with no Fraction built (_presented).

The pole order and value at a point u/v, an int or a Fraction, are read
off the integer num and den by one Horner sweep each (_at_point), whose
partial sums over powers of v are the quotient by v q - u where the value
is 0.  Each RatFunc keeps the order and the two sums at each point as one
entry (_at), ignored by equality, hashing and the presented forms, so a
table row's DTmot, read by the table and again by its no-pole report,
sweeps each polynomial at most once; the first eval_at there builds the
value, one Fraction, and keeps it in the entry.

RatFunc multiplies its integer polynomials term by term (_ip_mul).  Sums of
products with no polynomial denominator, such as the semistable recursion
and the star-log once the motive denominators are cleared, run on Laurent,
an integer Laurent polynomial over an integer in lowest terms: laurent_sum
puts the terms over one integer, evaluates every product at q = 2**width
and unpacks the total once (Kronecker substitution, the packing _cancel
takes its gcd of), and reduces it by the one rule, Laurent.over, so a sum
lies in Z[q, 1/q] exactly when its den is 1.
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


def _ip_pow(p: _IPoly, k: int) -> _IPoly:
    """p**k, k >= 0, by repeated squaring."""
    out = _ONE
    while k:
        if k & 1:
            out = _ip_mul(out, p)
        p, k = (_ip_mul(p, p) if k > 1 else p), k >> 1
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
    """poly / den, an integer Laurent polynomial poly (exponent -> nonzero
    int) over a positive int den in lowest terms, taken as given; over is
    the one rule that reduces.  With the 1-norm of poly's coefficients and
    its packings (_ip_pack at its lowest exponent) at each width asked for.
    Never mutated."""

    __slots__ = ("poly", "den", "low", "norm", "_packs")

    def __init__(self, poly: _IPoly, den: int = 1):
        self.poly = poly
        self.den = den
        self.low = min(poly) if poly else 0
        self.norm = sum(map(abs, poly.values()))
        self._packs: Dict[int, int] = {}

    def over(self, k: int) -> "Laurent":
        """self / k, k > 0, in lowest terms: k's gcd with the coefficients
        cancels, as they are coprime to den.  self for k = 1."""
        if k == 1:
            return self
        g = _int_gcd(k, *self.poly.values())
        poly = self.poly if g == 1 else {
            e: c // g for e, c in self.poly.items()}
        return Laurent(poly, self.den * (k // g))

    def packed(self, width: int) -> int:
        out = self._packs.get(width)
        if out is None:
            out = self._packs[width] = _ip_pack(self.poly, self.low, width)
        return out

    def __repr__(self) -> str:
        return f"Laurent({self.poly}, den={self.den})"


def laurent_sum(terms: List[Tuple[int, List[Laurent]]],
                sign: int = 1) -> Laurent:
    """sign times the sum of q**k times the product of the factors, over the
    terms (k, factors), in lowest terms.

    Each term is scaled to L, the lcm of the terms' denominators, and every
    product is taken at q = 2**width, one width for the whole sum, wide
    enough by the 1-norms, times L, for every coefficient of the scaled sum.
    So the sum is big-integer arithmetic with a single unpack, then divided
    by L.  The width is rounded up to a multiple of 16 bits, so that sums of
    similar size reuse packings."""
    size = 0
    lows = []
    dens = []
    for k, factors in terms:
        n = d = 1
        for f in factors:
            n *= f.norm
            d *= f.den
            k += f.low
        size += n
        lows.append(k)
        dens.append(d)
    den = lcm(*dens)
    size *= den
    if not size:
        return Laurent({})
    width = (size.bit_length() + 16) & ~15
    base = min(lows)
    total = 0
    for (_, factors), low, d in zip(terms, lows, dens):
        m = den // d
        for f in factors:
            m *= f.packed(width)
        total += m << (width * (low - base))
    return Laurent(_ip_unpack(sign * total, base, width)).over(den)


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
    """num and den divided by their gcd g, for num and den primitive with
    nonzero constant terms and positive leading coefficients, so a constant
    gcd is 1.

    g is read off one integer gcd, the heuristic gcd of Char, Geddes and
    Gonnet (1989): h = gcd(num(2**w), den(2**w)) of the packings, unpacked
    in balanced digits and divided by its content, is a candidate, and for
    2**w > 2 min(|num|, |den|) + 2, |p| the largest coefficient size of p,
    a candidate that divides both num and den is g.  Else w doubles.  The
    loop ends: h is g(2**w) times the gcd of the cofactors num / g and den /
    g at 2**w, which divides their resultant, so h exceeds g(2**w) only by
    an integer bounded independently of w, and once 2**w is more than twice
    the coefficients of that multiple of g the candidate is g."""
    if len(num) == 1 or len(den) == 1:
        return num, den
    w = (2 * min(max(map(abs, num.values())), max(map(abs, den.values())))
         + 2).bit_length()
    while True:
        g = _ip_unpack(_int_gcd(_ip_pack(num, 0, w), _ip_pack(den, 0, w)),
                       0, w)
        if not max(g):
            return num, den
        c = _content(g.values())
        if c != 1:
            g = {e: x // c for e, x in g.items()}
        # den first: a motive denominator's small coefficients refuse a
        # false candidate at a fraction of the cost of num's
        b = _ip_div(den, g)
        a = None if b is None else _ip_div(num, g)
        if a is not None:
            return a, b
        w *= 2


def _at_point(p: _IPoly, u: int, v: int) -> Tuple[int, int]:
    """(m, h) with p = (v q - u)**m * r, r(u/v) != 0 and h = v**deg(r) *
    r(u/v), for p with a nonzero constant term and u/v in lowest terms,
    v > 0.  Horner's rule in u, with the matching powers of v, runs top down
    on one dense list; its k-th partial sum is v**(k+1) times the k-th
    coefficient, top first, of the quotient by v q - u, so where h is 0 the
    list, each entry divided by its power of v, is p / (v q - u), integral
    by Gauss's lemma, and is swept again."""
    if len(p) == 1:
        return 0, p[0]
    d = max(p)
    c = [0] * (d + 1)
    for e, x in p.items():
        c[d - e] = x
    m = 0
    while True:
        h = c[0]
        w = 1
        for i in range(1, len(c)):
            w *= v
            h = c[i] = h * u + c[i] * w
        if h:
            return m, h
        c.pop()
        if v > 1:
            w = 1
            for i in range(len(c)):
                w *= v
                c[i] //= w
        m += 1


_ONE: _IPoly = {0: 1}


def _binary(op):
    """op(self, o) as an operator whose other operand o is a RatFunc, or an
    int or a Fraction read as a constant; anything else is NotImplemented."""
    def method(self, o):
        if isinstance(o, (int, Fraction)):
            o = RatFunc(o)
        return op(self, o) if isinstance(o, RatFunc) else NotImplemented
    return method


# ---------------------------------------------------------------------------

class RatFunc:
    """Immutable exact rational function of q, held in canonical form:
    q**shift * scale * num / den with num and den as the module docstring
    describes.  Zero has scale 0, shift 0 and num {}.  _at, None until a
    point is asked for, maps each point asked for to the tuple (pole order,
    hn, hd) _read makes there, replaced once by (pole order, value, None)
    when eval_at finds no pole; an int and the Fraction equal to it are one
    key."""

    __slots__ = ("_scale", "_shift", "_num", "_den", "_at")

    def __init__(self, value: "Fraction | int" = 0):
        if not isinstance(value, (int, Fraction)):
            raise TypeError("a RatFunc constant is an int or a Fraction, "
                            f"not {type(value).__name__}")
        self._scale = f = Fraction(value)
        self._shift = 0
        self._num = _ONE if f else {}
        self._den = _ONE
        self._at = None

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
        self._at = None
        return self

    @classmethod
    def _make(cls, scale: Fraction, shift: int, num: _IPoly,
              den: _IPoly) -> "RatFunc":
        """q**shift * scale * num / den in canonical form, for integer
        Laurent polynomials num and den, den nonzero: q-powers move to the
        shift, contents and signs to the scale, and _cancel divides out the
        gcd."""
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

    def cleared(self, den: _IPoly) -> Optional[Laurent]:
        """The Laurent P / k with self = P / (k den), when self times the
        polynomial den lies in Q[q, 1/q]; None otherwise.  No RatFunc
        arithmetic."""
        quo = _ip_div(den, self._den)
        if quo is None:
            return None
        s, shift = self._scale, self._shift
        return Laurent({e + shift: s.numerator * c for e, c in _ip_mul(
            self._num, quo).items()}).over(s.denominator)

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

    # -- ring operations and equality -----------------------------------------

    @_binary
    def __add__(self, o: "RatFunc") -> "RatFunc":
        """Over one denominator, k times den or the product of the dens, k
        the lcm of the scales' denominators; shifts go into the exponents."""
        if not self._num:
            return o
        if not o._num:
            return self
        na, da, nb, db = self._num, self._den, o._num, o._den
        if da != db:
            na, nb, da = _ip_mul(na, db), _ip_mul(nb, da), _ip_mul(da, db)
        k = lcm(self._scale.denominator, o._scale.denominator)
        acc: _IPoly = {}
        for x, p in ((self, na), (o, nb)):
            m = x._scale.numerator * (k // x._scale.denominator)
            for e, c in p.items():
                e += x._shift
                acc[e] = acc.get(e, 0) + m * c
        return RatFunc._make(Fraction(1, k), 0,
                             {e: c for e, c in acc.items() if c}, da)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        if not self._num:
            return self
        return RatFunc._raw(-self._scale, self._shift, self._num, self._den)

    @_binary
    def __sub__(self, o: "RatFunc") -> "RatFunc":
        return self + (-o)

    @_binary
    def __rsub__(self, o: "RatFunc") -> "RatFunc":
        return o + (-self)

    @_binary
    def __mul__(self, o: "RatFunc") -> "RatFunc":
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

    @_binary
    def __truediv__(self, o: "RatFunc") -> "RatFunc":
        return self * o.reciprocal()

    @_binary
    def __rtruediv__(self, o: "RatFunc") -> "RatFunc":
        return o * self.reciprocal()

    def __pow__(self, k: int) -> "RatFunc":
        """num**k and den**k need no gcd: by Gauss's lemma they stay
        coprime and primitive, and their leading coefficients positive."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.reciprocal() ** -k
        return RatFunc._raw(self._scale ** k, self._shift * k,
                            _ip_pow(self._num, k), _ip_pow(self._den, k))

    @_binary
    def __eq__(self, o: "RatFunc") -> bool:
        return (self._scale == o._scale and self._shift == o._shift
                and self._num == o._num and self._den == o._den)

    def __hash__(self) -> int:
        # A constant equals its Fraction, so it hashes as one.
        if not self._shift and len(self._num) <= 1 and len(self._den) == 1:
            return hash(self._scale)
        return hash((self._scale, self._shift, tuple(sorted(self._num.items())),
                     tuple(sorted(self._den.items()))))

    # -- evaluation, poles ---------------------------------------

    def _read(self, point: "Fraction | int") -> tuple:
        """The entry of _at at the point u/v, first (pole order, hn, hd): one
        _at_point sweep of den, and one of num where den has no root at u/v,
        which gives hn = v**deg(num) * num(u/v); elsewhere hn is 0."""
        if not isinstance(point, (int, Fraction)):
            raise TypeError("a point is an int or a Fraction, not "
                            f"{type(point).__name__}")
        at = self._at
        if at is None:
            at = self._at = {}
        got = at.get(point)
        if got is None:
            u, v = point.numerator, point.denominator
            md, hd = _at_point(self._den, u, v)
            mn, hn = ((0, 0) if md or not self._num
                      else _at_point(self._num, u, v))
            got = at[point] = (md - mn - (0 if u else self._shift), hn, hd)
        return got

    def pole_order_at(self, point: "Fraction | int") -> int:
        """Pole order at the point u/v: positive for a pole, negative for a
        zero, 0 for finite nonzero values and for the zero function."""
        return self._read(point)[0]

    def eval_at(self, point: "Fraction | int") -> Fraction:
        """The value at the point u/v; PoleError at a pole.  Where u/v is
        neither a pole nor a zero, it is scale * (u/v)**shift * (hn /
        v**dn) / (hd / v**dd), for num and den of degrees dn and dd, read
        only where v > 1; kept in _at as (order, value, None) from then on."""
        at = self._at
        order, hn, hd = (at and isinstance(point, (int, Fraction))
                         and at.get(point)) or self._read(point)
        if hd is None:
            return hn
        if order > 0:
            raise PoleError(Fraction(point), order)
        if order or not hn:
            value = Fraction(0)
        else:
            u, v = point.numerator, point.denominator
            sh = self._shift
            top = self._scale.numerator * hn
            bottom = self._scale.denominator * hd
            if sh >= 0:
                top *= u ** sh
            else:
                bottom *= u ** -sh
            ev = 0 if v == 1 else max(self._den) - max(self._num) - sh
            if ev >= 0:
                top *= v ** ev
            else:
                bottom *= v ** -ev
            value = Fraction(top, bottom)
        self._at[point] = order, value, None
        return value

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
