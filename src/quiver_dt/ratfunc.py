"""Exact arithmetic in the field Q(q) of rational functions in one variable.

A value is presented canonically as q**shift * num(q) / den(q) where num and
den are coprime polynomials with nonzero constant term and den is monic.  All
q-power content lives in the shift, so Laurent behaviour at 0 and infinity is
readable off the canonical triple.

Internally a lazy product form is kept: an integer-coefficient numerator, a
rational content scale, and a denominator split into a profile of (q^m - 1)
power factors plus an optional general cofactor.  Sums and products combine
lazy forms without polynomial gcds; the single gcd happens when a canonical
view is first observed and is cached.

Sums of products that need no denominator at all, such as the semistable
recursion once its motive denominators are cleared, run on Laurent, an
integer Laurent polynomial: laurent_sum evaluates every product at q =
2**width and unpacks the big-integer total once (Kronecker substitution).
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


def _ip_try_div_qm1(p: _IPoly, m: int) -> Optional[_IPoly]:
    """Exact quotient of p by (q^m - 1), or None."""
    if not p:
        return None
    quo: _IPoly = {}
    rem = dict(p)
    while rem:
        d = max(rem)
        if d < m:
            return None
        c = rem.pop(d)
        quo[d - m] = c
        v = rem.get(d - m, 0) + c
        if v:
            rem[d - m] = v
        elif d - m in rem:
            del rem[d - m]
    return quo


def _profile_expand(profile: Dict[int, int]) -> _IPoly:
    out: _IPoly = {0: 1}
    for m in sorted(profile):
        for _ in range(profile[m]):
            out = _ip_mul(out, {m: 1, 0: -1})
    return out


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


# ---------------------------------------------------------------------------

class RatFunc:
    """Immutable exact rational function of q."""

    __slots__ = ("_scale", "_shift", "_inum", "_profile", "_extra",
                 "_canon", "_hash")

    def __init__(self, value: "RatFunc | Fraction | int | None" = None):
        if value is None:
            value = 0
        if isinstance(value, RatFunc):
            self._scale = value._scale
            self._shift = value._shift
            self._inum = value._inum
            self._profile = value._profile
            self._extra = value._extra
            self._canon = value._canon
            self._hash = value._hash
            return
        f = Fraction(value)
        self._scale = f
        self._shift = 0
        self._inum = {0: 1} if f else {}
        self._profile: Dict[int, int] = {}
        self._extra: Optional[_IPoly] = None
        self._canon: Optional[Tuple[int, Poly, Poly]] = None
        self._hash: Optional[int] = None

    # -- raw constructor -----------------------------------------------------

    @classmethod
    def _make(cls, scale: Fraction, shift: int, inum: _IPoly,
              profile: Dict[int, int], extra: Optional[_IPoly]) -> "RatFunc":
        self = object.__new__(cls)
        if not inum or scale == 0:
            self._scale = Fraction(0)
            self._shift = 0
            self._inum = {}
            self._profile = {}
            self._extra = None
            self._canon = (0, {}, {0: Fraction(1)})
            self._hash = None
            return self
        low = min(inum)
        if low:
            inum = {e - low: c for e, c in inum.items()}
            shift += low
        c = _ip_content(inum)
        if c > 1:
            inum = {e: v // c for e, v in inum.items()}
            scale *= c
        if extra is not None:
            lowx = min(extra)
            if lowx:
                extra = {e - lowx: c2 for e, c2 in extra.items()}
                shift -= lowx
            cx = _ip_content(extra)
            dx = max(extra)
            if extra[dx] < 0:
                cx = -cx
            if cx != 1:
                extra = {e: v // cx for e, v in extra.items()}
                scale /= cx
            if extra == {0: 1}:
                extra = None
        self._scale = scale
        self._shift = shift
        self._inum = inum
        self._profile = {m: e for m, e in profile.items() if e}
        self._extra = extra
        self._canon = None
        self._hash = None
        return self

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(1)

    @classmethod
    def q_power(cls, k: int) -> "RatFunc":
        return cls._make(Fraction(1), k, {0: 1}, {}, None)

    def shifted(self, k: int) -> "RatFunc":
        """self * q**k: only the shift moves, so nothing is multiplied."""
        if not k or not self._inum:
            return self
        out = object.__new__(RatFunc)
        out._scale = self._scale
        out._shift = self._shift + k
        out._inum = self._inum
        out._profile = self._profile
        out._extra = self._extra
        canon = self._canon
        if canon is not None:
            canon = (canon[0] + k, canon[1], canon[2])
        out._canon = canon
        out._hash = None
        return out

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
        scale = Fraction(ld, ln)
        sh, prof, extra = _factor_denominator(iden)
        return cls._make(scale, shift - sh, inum, prof, extra)

    # -- canonical view -------------------------------------------------------

    def _canonical(self) -> Tuple[int, Poly, Poly]:
        if self._canon is not None:
            return self._canon
        if not self._inum:
            self._canon = (0, {}, {0: Fraction(1)})
            return self._canon
        num_i = self._inum
        den_i = _profile_expand(self._profile)
        if self._extra is not None:
            den_i = _ip_mul(den_i, self._extra)
        shift = self._shift
        lowd = min(den_i)
        if lowd:
            den_i = {e - lowd: c for e, c in den_i.items()}
            shift -= lowd
        g = _ip_gcd(num_i, den_i)
        if max(g) > 0:
            num_i = _ip_div_exact(num_i, g)
            den_i = _ip_div_exact(den_i, g)
        lown = min(num_i)
        if lown:
            num_i = {e - lown: c for e, c in num_i.items()}
            shift += lown
        lowd = min(den_i)
        if lowd:
            den_i = {e - lowd: c for e, c in den_i.items()}
            shift -= lowd
        lead = den_i[max(den_i)]
        scale = self._scale / lead
        num = {e: c * scale for e, c in num_i.items()}
        den = {e: Fraction(c, lead) for e, c in den_i.items()}
        self._canon = (shift, num, den)
        return self._canon

    def laurent(self) -> Optional[_IPoly]:
        """The coefficients, exponent -> int, when the value lies in
        Z[q, 1/q]; None otherwise."""
        if not self._inum:
            return {}
        sh, num, den = self._canonical()
        if len(den) != 1 or any(c.denominator != 1 for c in num.values()):
            return None
        return {e + sh: int(c) for e, c in num.items()}

    def reduced(self) -> "RatFunc":
        """The same value, rebuilt from its canonical view.  A value that
        went through a long chain of sums and products carries factors its
        lazy form never cancelled; dropping them keeps later arithmetic on
        it cheap."""
        if not self._inum:
            return self
        out = RatFunc.from_frac_polys(*self._canonical())
        out._canon = self._canon
        return out

    @property
    def shift(self) -> int:
        return self._canonical()[0]

    @property
    def num(self) -> Poly:
        return dict(self._canonical()[1])

    @property
    def den(self) -> Poly:
        return dict(self._canonical()[2])

    def is_zero(self) -> bool:
        return not self._inum

    def __bool__(self) -> bool:
        return bool(self._inum)

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
        if not self._inum:
            return o
        if not o._inum:
            return self
        a, b = self, o
        prof = dict(a._profile)
        for m, e in b._profile.items():
            prof[m] = max(prof.get(m, 0), e)
        na = a._inum
        for m, e in prof.items():
            for _ in range(e - a._profile.get(m, 0)):
                na = _ip_mul(na, {m: 1, 0: -1})
        nb = b._inum
        for m, e in prof.items():
            for _ in range(e - b._profile.get(m, 0)):
                nb = _ip_mul(nb, {m: 1, 0: -1})
        xa, xb = a._extra, b._extra
        if xa == xb:
            extra = xa
        else:
            if xb is not None:
                na = _ip_mul(na, xb)
            if xa is not None:
                nb = _ip_mul(nb, xa)
            if xa is None:
                extra = xb
            elif xb is None:
                extra = xa
            else:
                extra = _ip_mul(xa, xb)
        sh = min(a._shift, b._shift)
        if a._shift > sh:
            na = {e + a._shift - sh: c for e, c in na.items()}
        if b._shift > sh:
            nb = {e + b._shift - sh: c for e, c in nb.items()}
        g = _fraction_gcd(a._scale, b._scale)
        ma = int(a._scale / g)
        mb = int(b._scale / g)
        acc = {e: ma * c for e, c in na.items()}
        _ip_add_into(acc, nb, mb)
        return RatFunc._make(g, sh, acc, prof, extra)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        if not self._inum:
            return self
        return RatFunc._make(-self._scale, self._shift, self._inum,
                             self._profile, self._extra)

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
        if not self._inum or not o._inum:
            return RatFunc(0)
        prof = dict(self._profile)
        for m, e in o._profile.items():
            prof[m] = prof.get(m, 0) + e
        if self._extra is None:
            extra = o._extra
        elif o._extra is None:
            extra = self._extra
        else:
            extra = _ip_mul(self._extra, o._extra)
        return RatFunc._make(self._scale * o._scale,
                             self._shift + o._shift,
                             _ip_mul(self._inum, o._inum),
                             prof, extra)

    __rmul__ = __mul__

    def reciprocal(self) -> "RatFunc":
        if not self._inum:
            raise ZeroDivisionError("reciprocal of zero")
        new_num = _profile_expand(self._profile)
        if self._extra is not None:
            new_num = _ip_mul(new_num, self._extra)
        sh, prof, extra = _factor_denominator(self._inum)
        return RatFunc._make(1 / self._scale, -self._shift - sh,
                             new_num, prof, extra)

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
        if self._inum == o._inum and self._scale == o._scale \
                and self._shift == o._shift and self._profile == o._profile \
                and self._extra == o._extra:
            return True
        if bool(self._inum) != bool(o._inum):
            return False
        return self._canonical() == o._canonical()

    def __hash__(self) -> int:
        if self._hash is None:
            sh, num, den = self._canonical()
            self._hash = hash((sh, tuple(sorted(num.items())),
                               tuple(sorted(den.items()))))
        return self._hash

    # -- involution, evaluation, poles ---------------------------------------

    def bar(self) -> "RatFunc":
        """Substitute q -> 1/q."""
        if not self._inum:
            return self
        sh, num, den = self._canonical()
        dn = max(num)
        dd = max(den)
        rnum = {dn - e: c for e, c in num.items()}
        rden = {dd - e: c for e, c in den.items()}
        return RatFunc.from_frac_polys(-sh - dn + dd, rnum, rden)

    def eval_at(self, point: "Fraction | int") -> Fraction:
        r = Fraction(point)
        if not self._inum:
            return Fraction(0)
        sh, num, den = self._canonical()
        if r == 0:
            if sh < 0:
                raise PoleError(r, -sh)
            if sh > 0:
                return Fraction(0)
            return num[0] / den[0]
        dv = Fraction(0)
        for e, c in den.items():
            dv += c * r ** e
        if dv == 0:
            raise PoleError(r, self.pole_order_at(r))
        nv = Fraction(0)
        for e, c in num.items():
            nv += c * r ** e
        return nv * r ** sh / dv

    def pole_order_at(self, point: "Fraction | int") -> int:
        """Pole order at the point: positive for a pole, negative for a zero,
        0 for finite nonzero values.  The zero function reports 0."""
        r = Fraction(point)
        if not self._inum:
            return 0
        sh, num, den = self._canonical()
        if r == 0:
            return -sh
        md = _frac_poly_root_mult(den, r)
        if md:
            return md
        return -_frac_poly_root_mult(num, r)

    def subs_square(self, value: "Fraction | int") -> Fraction:
        """Substitute q**2 -> value; requires all exponents even."""
        v = Fraction(value)
        if not self._inum:
            return Fraction(0)
        sh, num, den = self._canonical()
        if sh % 2 or any(e % 2 for e in num) or any(e % 2 for e in den):
            raise ValueError("odd q-powers present, no even substitution")
        nv = sum((c * v ** (e // 2) for e, c in num.items()), Fraction(0))
        dv = sum((c * v ** (e // 2) for e, c in den.items()), Fraction(0))
        if dv == 0:
            raise ZeroDivisionError("denominator vanishes at substitution")
        return nv * v ** (sh // 2) / dv

    # -- presentation ----------------------------------------------------------

    def to_data(self):
        sh, num, den = self._canonical()
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
        if not self._inum:
            return "0"
        sh, num, den = self._canonical()
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


def _factor_denominator(p: _IPoly) -> Tuple[int, Dict[int, int], Optional[_IPoly]]:
    """Split p as q^sh * prod (q^m - 1)^e * leftover."""
    low = min(p)
    if low:
        p = {e - low: c for e, c in p.items()}
    prof: Dict[int, int] = {}
    for m in range(max(p), 0, -1):
        while True:
            quo = _ip_try_div_qm1(p, m)
            if quo is None:
                break
            p = quo
            prof[m] = prof.get(m, 0) + 1
            if max(p) < m:
                break
        if max(p) == 0:
            break
    extra = None if p == {0: 1} else p
    return low, prof, extra


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
    return RatFunc._make(Fraction(1), -1, {2: 1, 0: -1}, {}, None)


def inv_q_minus_qinv() -> RatFunc:
    """The scalar 1/(q - q^-1) = q/(q^2 - 1)."""
    return RatFunc._make(Fraction(1), 1, {0: 1}, {2: 1}, None)


def binom_fraction(top: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient binom(top, n) for integer n >= 0."""
    out = Fraction(1)
    for i in range(n):
        out *= (top - i)
    for i in range(1, n + 1):
        out /= i
    return out
