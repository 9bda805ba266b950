"""Semistable integrals, epsilon integrals, and DT invariants.

Component integrals from the motives module feed a gated prefix-sum
recursion that inverts the filtration identity and yields semistable
integrals per slope.  For a slope value s the recursion runs only over the
down-set that the classes of slope s read (at s = 0 these include every
self-dual class): the classes of slope above s in the box under their
componentwise maximum, each entry summing over its own sub-box.

The recursion runs in integer Laurent polynomials.  A stack class is
q^e(a) / M(a), where M(a) = prod_i P(a_i) and P(n) = prod_{k=1..n}
(q^2k - 1) (see motives), so the table keeps D[p] = M(p) d[p] in place of
each rational entry d[p].  Then M(p) / (M(p') M(p - p')) is a product of
q^2-binomials, and every step of the recursion is an integer product
(Reineke, The Harder-Narasimhan system in quantum groups and cohomology of
quiver moduli, 2003).  A semistable integral divides its sum by M(a) only
at the end, as a RatFunc.  The self-dual side reads d[g] = D[g] / M(g) at
slope 0 and still works in RatFunc.  An engine seeded from a stack element
(wall-crossing) feeds the same recursion its numerators M(a) I(a) / (q -
1/q) in place of q^e(a).

Epsilon integrals are star-logarithms of the slope-graded semistable
elements on the linear side, and inverse square root diamond series on the
module side.  Motivic invariants are read off those elements; numerical
invariants evaluate at q = -1.

All per-slope tables live in a small engine cached on its quiver by
(slope, bound, calibration), so repeated scalar queries share work, a new
calibration never returns values computed under the old one, and the
engines go when the quiver does.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .motives import (over_gl_denominator, q2_binomial, sd_stack_class,
                      stack_class, stack_exponent)
from .oracle import ensure_calibrated
from .quiver import (DimVector, SelfDualQuiver, Slope, boxed_vectors, vadd,
                     vleq, vsub, vtotal)
from .ratfunc import (Laurent, RatFunc, binom_fraction, inv_q_minus_qinv,
                      laurent_sum, q_minus_qinv)
from .torus import (TorusElem, TorusModElem, integrated_unit, series_diamond,
                    star_log_one_plus)


class NoPoleViolation(RuntimeError):
    """A motivic invariant has a pole at q = 1 or q = -1."""


def _sqrt_binom(n: int) -> Fraction:
    return binom_fraction(Fraction(-1, 2), n)


class _Engine:
    """Tables for one (quiver, slope, bound) triple."""

    def __init__(self, quiver: SelfDualQuiver, slope: Slope, bound: int):
        if bound < 1:
            raise ValueError("bound must be at least 1")
        ensure_calibrated(quiver)
        self.quiver = quiver
        self.slope = slope
        self.bound = bound
        self.zero = tuple(0 for _ in quiver.vertices)
        self.classes = quiver.dim_vectors_up_to(bound)
        self.value: Dict[DimVector, Fraction] = {
            a: slope.value(a) for a in self.classes}
        self.by_value: Dict[Fraction, List[DimVector]] = {}
        for a in self.classes:
            self.by_value.setdefault(self.value[a], []).append(a)
        self._num: Dict[DimVector, Laurent] = {}
        self._sd_stack: Dict[DimVector, RatFunc] = {}
        self._sem: Dict[DimVector, RatFunc] = {}
        self._sd_sem: Dict[DimVector, RatFunc] = {}
        self._dom: Dict[Fraction, Dict[DimVector, Laurent]] = {}
        self._dom0: Optional[Dict[DimVector, RatFunc]] = None
        self._eps_elems: Dict[Fraction, TorusElem] = {}
        self._sd_eps_elem: Optional[TorusModElem] = None
        self._sd_checked = False

    @classmethod
    def seeded(cls, quiver: SelfDualQuiver, slope: Slope, bound: int,
               stack: TorusElem,
               sd_stack: Optional[TorusModElem]) -> "_Engine":
        """Engine reading every component integral up to the bound off the
        integrated stack element and the module stack element (as
        integrated_stack_element and sd_stack_element build them) instead
        of the motives.  It stays out of the engine cache, where it would
        stand in for an engine that computes from the motives.

        The recursion needs the numerators N(a) = M(a) I(a) / (q - 1/q) in
        Z[q, 1/q]; a stack element's are the powers q^e(a), so a table
        whose numerators are not Laurent polynomials is refused."""
        eng = cls(quiver, slope, bound)
        inv = inv_q_minus_qinv()
        for a in eng.classes:
            inv_m = over_gl_denominator({0: 1}, a)
            num = (stack.get(a) * inv / inv_m).laurent()
            if num is None:
                raise ValueError(
                    "the source table is not the epsilon table of a stack "
                    f"element: M(a) I(a) / (q - 1/q) at a = {a} is not a "
                    "Laurent polynomial with integer coefficients")
            eng._num[a] = Laurent(num)
        if sd_stack is not None:
            for th in quiver.sd_classes_up_to(bound):
                eng._sd_stack[th] = sd_stack.get(th).reduced()
        return eng

    # -- component integrals ----------------------------------------------

    def _numerator(self, a: DimVector) -> Laurent:
        """N(a) = M(a) times the component integral of a: q^e(a)."""
        out = self._num.get(a)
        if out is None:
            out = self._num[a] = Laurent({stack_exponent(self.quiver, a): 1})
        return out

    def sd_stack(self, th: DimVector) -> RatFunc:
        out = self._sd_stack.get(th)
        if out is None:
            out = sd_stack_class(self.quiver, th)
            self._sd_stack[th] = out
        return out

    # -- gated prefix-sum recursion -----------------------------------------

    def _dom_table(self, s: Fraction) -> Dict[DimVector, Laurent]:
        """Inverse of the component-integral element restricted to prefixes
        of slope strictly above s, kept as D[p] = M(p) d[p]: d[p] sums
        signed walk weights over chains 0 -> ... -> p through that region,
        and D[p] is that sum with the motive denominators cleared, an
        integer Laurent polynomial (see _chain_sum).

        d[p] reads only entries below p, so any down-closed domain gives the
        same values.  The domain is the part of that region, within the
        bound, in the box under the classes of slope s, which are the ones
        that read the table; each D[p] walks the sub-box [0, p] by lookup.
        sd_semistable reads the table at 0 for g <= g + g^v <= theta, and
        under a self-dual slope every self-dual class has slope 0, so the
        box at 0 covers those reads too."""
        tab = self._dom.get(s)
        if tab is None:
            tab = {self.zero: Laurent({0: 1})}
            box = tuple(max(col) for col in
                        zip(self.zero, *self.by_value.get(s, [])))
            value = self.value
            for p in boxed_vectors(box):
                v = value.get(p)
                if v is not None and v > s:
                    tab[p] = self._chain_sum(tab, p, -1)
            self._dom[s] = tab
        return tab

    def _chain_sum(self, tab: Dict[DimVector, Laurent], top: DimVector,
                   sign: int = 1) -> Laurent:
        """M(top) times the sum of d[p] * stack(top - p) * q^<p, top - p>
        over the entries p of tab strictly below top, found by walking the
        sub-box [0, top].  With d[p] = D[p] / M(p) and the stack class
        N(top - p) / M(top - p), each term is D[p] * N(top - p) times the
        q^2-binomials [top_i, p_i]: no denominator is left."""
        q = self.quiver
        terms = []
        for p in boxed_vectors(top):
            dp = tab.get(p)
            if dp is not None:
                step = vsub(top, p)
                factors = [dp, self._numerator(step)]
                for n, k in zip(top, p):
                    if 0 < k < n:
                        factors.append(q2_binomial(n, k))
                terms.append((q.commutation_exponent(p, step), factors))
        return laurent_sum(terms, sign)

    def semistable(self, a: DimVector) -> RatFunc:
        if a == self.zero:
            return RatFunc(1)
        out = self._sem.get(a)
        if out is None:
            num = self._chain_sum(self._dom_table(self.value[a]), a)
            out = over_gl_denominator(num.poly, a)
            self._sem[a] = out
        return out

    def _require_sd(self) -> None:
        if not self._sd_checked:
            self.slope.validate_self_dual(self.quiver)
            self._sd_checked = True

    def sd_semistable(self, th: DimVector) -> RatFunc:
        q = self.quiver
        if not q.is_sd_class(th):
            raise ValueError(f"{th} is not a self-dual class")
        self._require_sd()
        out = self._sd_sem.get(th)
        if out is None:
            if self._dom0 is None:
                # d[g] = D[g] / M(g) on the table at slope 0
                tab = self._dom_table(Fraction(0))
                self._dom0 = {g: over_gl_denominator(dg.poly, g)
                              for g, dg in tab.items()}
            acc = RatFunc(0)
            for g, dg in self._dom0.items():
                gg = vadd(g, q.dual_vector(g))
                if not vleq(gg, th):
                    continue
                rho = vsub(th, gg)
                if not q.is_sd_class(rho):
                    continue
                tw = q.sd_twist_exponent(g, rho)
                acc = acc + dg.shifted(int(tw)) * self.sd_stack(rho)
            self._sd_sem[th] = acc
            out = acc
        return out

    # -- elements -------------------------------------------------------------

    def semistable_element(self, s: Fraction) -> TorusElem:
        pref = q_minus_qinv()
        coeffs: Dict[DimVector, RatFunc] = {}
        for a in self.by_value.get(s, []):
            j = self.semistable(a)
            if j:
                coeffs[a] = pref * j
        return TorusElem(self.quiver, coeffs, self.bound)

    def epsilon_element(self, s: Fraction) -> TorusElem:
        out = self._eps_elems.get(s)
        if out is None:
            out = star_log_one_plus(self.semistable_element(s), self.bound)
            self._eps_elems[s] = out
        return out

    def sd_semistable_element(self) -> TorusModElem:
        self._require_sd()
        coeffs: Dict[DimVector, RatFunc] = {}
        for th in self.quiver.sd_classes_up_to(self.bound):
            j = self.sd_semistable(th)
            if j:
                coeffs[th] = j
        return TorusModElem(self.quiver, coeffs, self.bound)

    def sd_epsilon_element(self) -> TorusModElem:
        if self._sd_eps_elem is None:
            x0 = self.semistable_element(Fraction(0))
            self._sd_eps_elem = series_diamond(
                x0, self.sd_semistable_element(), _sqrt_binom, self.bound)
        return self._sd_eps_elem

    # -- invariants -------------------------------------------------------------

    def dt_motivic(self, a: DimVector) -> RatFunc:
        if a == self.zero:
            return RatFunc(0)
        return self.epsilon_element(self.value[a]).get(a)

    def sd_dt_motivic(self, th: DimVector) -> RatFunc:
        if not self.quiver.is_sd_class(th):
            raise ValueError(f"{th} is not a self-dual class")
        return self.sd_epsilon_element().get(th)


# Engines live in their quiver's engine_cache, so they go when the quiver
# does.  _CACHE_OWNERS lets clear_cache reach every live quiver holding one.
_CACHE_OWNERS: "weakref.WeakSet[SelfDualQuiver]" = weakref.WeakSet()


def _engine(quiver: SelfDualQuiver, slope: Slope, bound: int) -> _Engine:
    # Calibrate before building the key, so that the first call on an
    # uncalibrated quiver keys its engine by the calibration it uses.
    ensure_calibrated(quiver)
    key = (slope.weights, bound, quiver.calibration)
    eng = quiver.engine_cache.get(key)
    if eng is None:
        eng = _Engine(quiver, slope, bound)
        quiver.engine_cache[key] = eng
        _CACHE_OWNERS.add(quiver)
    return eng


def clear_cache() -> None:
    for quiver in list(_CACHE_OWNERS):
        quiver.engine_cache.clear()
    _CACHE_OWNERS.clear()


def _bound_for(alpha: DimVector, bound: Optional[int]) -> int:
    # An engine's tables cover the classes within its bound only, so a class
    # beyond it would read a truncated recursion.
    if bound is None:
        return max(1, vtotal(alpha))
    if vtotal(alpha) > bound:
        raise ValueError(f"class {tuple(alpha)} lies beyond the bound {bound}")
    return bound


# -- scalar interface -------------------------------------------------------------

def semistable_integral(quiver: SelfDualQuiver, slope: Slope,
                        alpha: DimVector, bound: Optional[int] = None) -> RatFunc:
    return _engine(quiver, slope, _bound_for(alpha, bound)).semistable(tuple(alpha))


def sd_semistable_integral(quiver: SelfDualQuiver, slope: Slope,
                           theta: DimVector,
                           bound: Optional[int] = None) -> RatFunc:
    return _engine(quiver, slope, _bound_for(theta, bound)).sd_semistable(tuple(theta))


def epsilon_integral(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
                     bound: Optional[int] = None) -> RatFunc:
    eng = _engine(quiver, slope, _bound_for(alpha, bound))
    return eng.dt_motivic(tuple(alpha)) * inv_q_minus_qinv()


def sd_epsilon_integral(quiver: SelfDualQuiver, slope: Slope,
                        theta: DimVector,
                        bound: Optional[int] = None) -> RatFunc:
    eng = _engine(quiver, slope, _bound_for(theta, bound))
    return eng.sd_dt_motivic(tuple(theta))


def _check_regular(val: RatFunc, what: str) -> None:
    for point in (1, -1):
        order = val.pole_order_at(point)
        if order > 0:
            raise NoPoleViolation(
                f"{what} has a pole of order {order} at q = {point}")


def dt_mot(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
           bound: Optional[int] = None) -> RatFunc:
    eng = _engine(quiver, slope, _bound_for(alpha, bound))
    val = eng.dt_motivic(tuple(alpha))
    _check_regular(val, f"motivic invariant at {alpha}")
    return val


def sd_dt_mot(quiver: SelfDualQuiver, slope: Slope, theta: DimVector,
              bound: Optional[int] = None) -> RatFunc:
    val = sd_epsilon_integral(quiver, slope, theta, bound)
    _check_regular(val, f"self-dual motivic invariant at {theta}")
    return val


def dt_num(quiver: SelfDualQuiver, slope: Slope, alpha: DimVector,
           bound: Optional[int] = None) -> Fraction:
    return dt_mot(quiver, slope, alpha, bound).eval_at(-1)


def sd_dt_num(quiver: SelfDualQuiver, slope: Slope, theta: DimVector,
              bound: Optional[int] = None) -> Fraction:
    return sd_dt_mot(quiver, slope, theta, bound).eval_at(-1)


# -- element interface (tests, wall-crossing) ---------------------------------------

def slope_values(quiver: SelfDualQuiver, slope: Slope,
                 bound: int) -> List[Fraction]:
    eng = _engine(quiver, slope, bound)
    return sorted(eng.by_value, reverse=True)


def semistable_element(quiver: SelfDualQuiver, slope: Slope, value: Fraction,
                       bound: int) -> TorusElem:
    return _engine(quiver, slope, bound).semistable_element(value)


def epsilon_element(quiver: SelfDualQuiver, slope: Slope, value: Fraction,
                    bound: int) -> TorusElem:
    return _engine(quiver, slope, bound).epsilon_element(value)


def sd_semistable_element(quiver: SelfDualQuiver, slope: Slope,
                          bound: int) -> TorusModElem:
    return _engine(quiver, slope, bound).sd_semistable_element()


def sd_epsilon_element(quiver: SelfDualQuiver, slope: Slope,
                       bound: int) -> TorusModElem:
    return _engine(quiver, slope, bound).sd_epsilon_element()


def integrated_stack_element(quiver: SelfDualQuiver, bound: int) -> TorusElem:
    """Unit plus the integrated component classes of all nonzero classes."""
    ensure_calibrated(quiver)
    pref = q_minus_qinv()
    coeffs = {a: pref * stack_class(quiver, a)
              for a in quiver.dim_vectors_up_to(bound)}
    return integrated_unit(quiver, bound) + TorusElem(quiver, coeffs, bound)


def sd_stack_element(quiver: SelfDualQuiver, bound: int) -> TorusModElem:
    ensure_calibrated(quiver)
    coeffs = {th: sd_stack_class(quiver, th)
              for th in quiver.sd_classes_up_to(bound)}
    return TorusModElem(quiver, coeffs, bound)


# -- tables ---------------------------------------------------------------------------

@dataclass
class InvariantRow:
    dim_vector: DimVector
    semistable: RatFunc
    epsilon: RatFunc
    dt_motivic: RatFunc
    dt_numeric: Optional[Fraction]


@dataclass
class InvariantTable:
    """Per-class invariants for one quiver, slope, and bound.

    Rows list every class within the bound whose semistable integral is
    nonzero, in graded lexicographic order.  sd_rows may be empty when the
    slope is not self-dual (flagged by sd_included)."""

    quiver_data: dict
    slope_data: Dict[str, str]
    bound: int
    sd_included: bool
    rows: List[InvariantRow]
    sd_rows: List[InvariantRow]

    def to_data(self) -> dict:
        def row_data(r: InvariantRow) -> dict:
            return {
                "class": list(r.dim_vector),
                "J": r.semistable.to_data(),
                "eps": r.epsilon.to_data(),
                "DTmot": r.dt_motivic.to_data(),
                "DTnum": (str(r.dt_numeric)
                          if r.dt_numeric is not None else None),
            }
        return {
            "quiver": self.quiver_data,
            "slope": dict(self.slope_data),
            "bound": self.bound,
            "sd_included": self.sd_included,
            "rows": [row_data(r) for r in self.rows],
            "sd_rows": [row_data(r) for r in self.sd_rows],
        }

    @classmethod
    def from_data(cls, data: dict) -> "InvariantTable":
        def parse_row(row: dict) -> InvariantRow:
            num = row.get("DTnum")
            return InvariantRow(
                tuple(int(x) for x in row["class"]),
                RatFunc.from_data(row["J"]),
                RatFunc.from_data(row["eps"]),
                RatFunc.from_data(row["DTmot"]),
                Fraction(num) if num is not None else None,
            )
        return cls(
            quiver_data=data["quiver"],
            slope_data={str(k): str(v) for k, v in data["slope"].items()},
            bound=int(data["bound"]),
            sd_included=bool(data["sd_included"]),
            rows=[parse_row(r) for r in data["rows"]],
            sd_rows=[parse_row(r) for r in data["sd_rows"]],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_data(), indent=2, sort_keys=True)

    CSV_HEADER = ("side", "class", "J", "eps", "DTmot", "DTnum")

    def csv_rows(self) -> List[tuple]:
        out = [self.CSV_HEADER]
        for side, rows in (("linear", self.rows), ("self-dual", self.sd_rows)):
            for r in rows:
                out.append((
                    side,
                    " ".join(str(x) for x in r.dim_vector),
                    str(r.semistable),
                    str(r.epsilon),
                    str(r.dt_motivic),
                    str(r.dt_numeric) if r.dt_numeric is not None else "",
                ))
        return out


def _numeric_or_none(val: RatFunc) -> Optional[Fraction]:
    if val.pole_order_at(-1) > 0:
        return None
    return val.eval_at(-1)


def build_table(quiver: SelfDualQuiver, slope: Slope,
                bound: int) -> InvariantTable:
    """Compute the full invariant table.  Rows with a pole at q = -1 carry a
    null numeric entry instead of raising, so diagnostic reports can still be
    produced; the scalar dt functions raise instead."""
    eng = _engine(quiver, slope, bound)
    inv = inv_q_minus_qinv()
    rows: List[InvariantRow] = []
    zero_row = InvariantRow(eng.zero, RatFunc(1), RatFunc(0), RatFunc(0),
                            Fraction(0))
    rows.append(zero_row)
    for a in eng.classes:
        j = eng.semistable(a)
        dtm = eng.dt_motivic(a)
        rows.append(InvariantRow(a, j, dtm * inv, dtm, _numeric_or_none(dtm)))

    sd_rows: List[InvariantRow] = []
    sd_included = True
    try:
        slope.validate_self_dual(quiver)
    except Exception:
        sd_included = False
    if sd_included:
        for th in quiver.sd_classes_up_to(bound):
            j = eng.sd_semistable(th)
            dtm = eng.sd_dt_motivic(th)
            sd_rows.append(InvariantRow(th, j, dtm, dtm,
                                        _numeric_or_none(dtm)))
    return InvariantTable(
        quiver_data=quiver.to_data(),
        slope_data=slope.to_dict(quiver),
        bound=bound,
        sd_included=sd_included,
        rows=rows,
        sd_rows=sd_rows,
    )


def no_pole_report(table: InvariantTable) -> List[dict]:
    """Pole orders at q = 1 and q = -1: of (q^2 - 1) times the epsilon
    integral on the linear side, of the epsilon integral itself on the
    self-dual side.  Both must be <= 0 everywhere."""
    shift = RatFunc.q_power(2) - RatFunc(1)
    out = []
    for side, rows in (("linear", table.rows), ("self-dual", table.sd_rows)):
        for r in rows:
            val = shift * r.epsilon if side == "linear" else r.epsilon
            plus = val.pole_order_at(1)
            minus = val.pole_order_at(-1)
            out.append({
                "side": side,
                "class": r.dim_vector,
                "order_at_1": plus,
                "order_at_-1": minus,
                "ok": plus <= 0 and minus <= 0,
            })
    return out


def table_all_regular(table: InvariantTable) -> bool:
    return all(row["ok"] for row in no_pole_report(table))
