"""Semistable integrals read off representations counted over finite fields.

Reineke (The Harder-Narasimhan system in quantum groups and cohomology of
quiver moduli, 2003) proves the HN recursion by counting representations
over finite fields.  Here the count is made by brute force: every
representation of a class a over F_L, one matrix per edge, is listed, and it
is semistable when no nonzero proper subrepresentation has a slope strictly
above a's.  The semistable integral J(a) then satisfies

    J(a) q^-chi(a, a) = #R_a^ss(F_L) / |GL_a(F_L)|  at q^2 = L,

with chi(a, a) = dim_aut(a) - dim_rep(a), where J(a) q^-chi(a, a) has even
exponents only.  Young (The Hall module of an exact category with duality,
2016) counts self-dual representations the same way: over an odd field the
self-dual semistable integral J_sd(theta) satisfies

    J_sd(theta) q^-(sd_dim_aut(theta) - sd_dim_rep(theta))
        = #R_theta^sd,ss(F_L) / |GL_theta(F_L)|  at q^2 = L,

counted where each swapped vertex pair carries a space and its dual, each
fixed vertex a nondegenerate symmetric or alternating form, and each fixed
edge between a pair a symmetric or alternating matrix, as the signs say
(sd_semistable_count).  This module reads only the quiver's vertices, edges,
involution and signs and the slope rule (quiver_dt.quiver) and the rational
functions it is handed (quiver_dt.ratfunc): no recursion, motive or
transform of the package, so agreeing with the engine is a check.
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
    would make a representation of class a unstable.  Subspaces are listed
    only for such b, so where there is none, none are."""
    top = slope.value(a)
    out = []
    for b in product(*[range(n + 1) for n in a]):
        if any(b) and b != a and slope.value(b) > top:
            out += product(*[[u for u in subspaces(n, field)
                              if dimension(u, field) == k]
                             for n, k in zip(a, b)])
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


def _forms(n: int, sign: int, field: int) -> List[tuple]:
    """Every n x n matrix over F_field that is symmetric (sign +1) or
    alternating (sign -1), as a tuple of rows: the bilinear forms on F^n of
    that kind.  The field is odd, so alternating is skew with zero
    diagonal."""
    cells = [(r, c) for r in range(n) for c in range(r, n)
             if sign == 1 or r < c]
    out = []
    for entries in product(range(field), repeat=len(cells)):
        m = [[0] * n for _ in range(n)]
        for (r, c), x in zip(cells, entries):
            m[r][c], m[c][r] = x, (sign * x) % field
        out.append(tuple(map(tuple, m)))
    return out


@lru_cache(maxsize=None)
def determinant(matrix: Tuple[Tuple[int, ...], ...]) -> int:
    """The determinant of a square integer matrix, by expansion along the
    first row, each minor memoised."""
    if not matrix:
        return 1
    rest = matrix[1:]
    return sum((-1) ** c * x * determinant(tuple(r[:c] + r[c + 1:]
                                                 for r in rest))
               for c, x in enumerate(matrix[0]) if x)


def sd_semistable_count(quiver: SelfDualQuiver, slope: Slope,
                        theta: Tuple[int, ...], field: int) -> Fraction:
    """The self-dual representations of theta over F_field, for odd field,
    whose underlying representation is semistable, counted over the product
    of GL_{theta_i} over the fixed vertices and one vertex of each swapped
    pair.  A fixed vertex of sign +1 (-1) carries a nondegenerate symmetric
    (alternating) form on its space, and a fixed edge i -> i^v a symmetric
    or alternating matrix, as quiver.fixed_edge_sign says, with i^v's space
    the dual of i's.  Only fixed edges between the two vertices of a pair
    are read: a loop, a swapped pair of edges or an edge at a fixed vertex
    is refused."""
    inv = quiver.inv_vertex
    for a, (s, t) in enumerate(quiver.edge_endpoints):
        if quiver.inv_edge[a] != a or t != inv[s] or s == t:
            raise NotImplementedError(f"edge {quiver.edges[a].name}")
    forms, order = 1, 1
    for i, n in enumerate(theta):
        if inv[i] == i:
            sign = quiver.vertex_sign[i]
            forms *= sum(determinant(m) % field != 0
                         for m in _forms(n, sign, field))
        if inv[i] >= i:
            order *= gl_order(n, field)
    higher = destabilising(slope, theta, field)
    per_edge = [_forms(theta[s], quiver.fixed_edge_sign(a), field)
                for a, (s, _) in enumerate(quiver.edge_endpoints)]
    count = sum(is_semistable(quiver, maps, higher, field)
                for maps in product(*per_edge))
    return Fraction(forms * count, order)


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
