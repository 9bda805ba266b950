"""Semistable integrals read off representations counted over finite fields.

Reineke (The Harder-Narasimhan system in quantum groups and cohomology of
quiver moduli, 2003) proves the HN recursion by counting representations
over finite fields.  Here the count is made by brute force: every
representation of a class a over F_L, one matrix per edge, is listed, and it
is semistable when no nonzero proper subrepresentation has a slope strictly
above a's.  The semistable integral J(a) then satisfies

    J(a) q^-chi(a, a) = #R_a^ss(F_L) / |GL_a(F_L)|  at q^2 = L,

with chi(a, a) = dim_aut(a) - dim_rep(a), where J(a) q^-chi(a, a) has even
exponents only.  This module reads only the quiver's vertices, edges and the
slope rule (quiver_dt.quiver) and the rational functions it is handed
(quiver_dt.ratfunc): no recursion, motive or transform of the package, so
agreeing with the engine is a check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import FrozenSet, List, Optional, Tuple

from quiver_dt.quiver import SelfDualQuiver, Slope
from quiver_dt.ratfunc import RatFunc

Vector = Tuple[int, ...]


@lru_cache(maxsize=None)
def subspaces(n: int, field: int) -> Tuple[FrozenSet[Vector], ...]:
    """Every subspace of F_field^n, as the set of its vectors, for a prime
    field: the zero space, then each span of a subspace found and one
    vector outside it, listed once, smallest first."""
    vectors = list(product(range(field), repeat=n))
    found = {frozenset([(0,) * n])}
    layer = set(found)
    while layer:
        layer = {frozenset(tuple((x + c * y) % field for x, y in zip(u, v))
                           for u in space for c in range(field))
                 for space in layer for v in vectors if v not in space}
        found |= layer
    return tuple(sorted(found, key=len))


def dimension(space: FrozenSet[Vector], field: int) -> int:
    """The dimension of a subspace of F_field^n from its size."""
    d, size = 0, 1
    while size < len(space):
        d, size = d + 1, size * field
    return d


def gl_order(n: int, field: int) -> int:
    """|GL_n(F_field)| = prod_{k < n} (field^n - field^k)."""
    out = 1
    for k in range(n):
        out *= field ** n - field ** k
    return out


def _apply(matrix: Tuple[Tuple[int, ...], ...], v: Vector,
           field: int) -> Vector:
    return tuple(sum(m * x for m, x in zip(row, v)) % field for row in matrix)


def _matrices(rows: int, cols: int, field: int):
    entries = product(range(field), repeat=rows * cols)
    return [tuple(tuple(e[r * cols:(r + 1) * cols]) for r in range(rows))
            for e in entries]


def destabilising(slope: Slope, a: Tuple[int, ...],
                  field: int) -> List[tuple]:
    """Each choice of subspace per vertex whose dimensions b are a nonzero
    proper part of a of slope strictly above a's: where a subrepresentation
    would make a representation of class a unstable."""
    top = slope.value(a)
    out = []
    for spaces in product(*[subspaces(n, field) for n in a]):
        b = tuple(dimension(u, field) for u in spaces)
        if any(b) and b != a and slope.value(b) > top:
            out.append(spaces)
    return out


def is_semistable(quiver: SelfDualQuiver, maps: List[tuple],
                  higher: List[tuple], field: int) -> bool:
    """Whether no choice of subspaces in higher (destabilising) is a
    subrepresentation of the representation with one matrix per edge: each
    edge's matrix maps its source's subspace into its target's."""
    return not any(all(_apply(m, v, field) in spaces[t]
                       for m, (s, t) in zip(maps, quiver.edge_endpoints)
                       for v in spaces[s])
                   for spaces in higher)


def semistable_count(quiver: SelfDualQuiver, slope: Slope,
                     a: Tuple[int, ...], field: int) -> Fraction:
    """#R_a^ss(F_field) / |GL_a(F_field)|, counted over every representation
    of class a."""
    higher = destabilising(slope, a, field)
    per_edge = [_matrices(a[t], a[s], field)
                for s, t in quiver.edge_endpoints]
    count = sum(is_semistable(quiver, maps, higher, field)
                for maps in product(*per_edge))
    order = 1
    for n in a:
        order *= gl_order(n, field)
    return Fraction(count, order)


def at_q_squared(f: RatFunc, field: int) -> Optional[Fraction]:
    """f read at q^2 = field, for f with even exponents only, as
    q^shift num / den; None where an exponent is odd."""
    exps = [f.shift, *f.num, *f.den]
    if any(e % 2 for e in exps):
        return None

    def read(poly) -> Fraction:
        return sum((c * Fraction(field) ** (e // 2) for e, c in poly.items()),
                   Fraction(0))
    return Fraction(field) ** (f.shift // 2) * read(f.num) / read(f.den)
