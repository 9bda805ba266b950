"""Deterministic randomized quiver suite shared by the acceptance checks.

Ten self-dual quivers with at most three vertices and four edges, generated
orbit by orbit so every involution and sign constraint holds by
construction, each bundled with six random self-dual slope functions.
"""

import random
from fractions import Fraction

from quiver_dt.oracle import calibrate_signs
from quiver_dt.quiver import Edge, SelfDualQuiver, Slope

SUITE_SEED = 20250814
SUITE_SIZE = 10

_VERTEX_SHAPES = [("F",), ("F", "F"), ("P",), ("F", "F", "F"), ("P", "F")]

_cache = None


def _rand_quiver(rng: random.Random, shapes=None,
                 n_edges=None) -> SelfDualQuiver:
    """A quiver of the vertex shapes given (F a fixed vertex, P a swapped
    pair) with n_edges edges, each drawn from rng where not given."""
    vertices, inv_v, sign_v = [], {}, {}
    for shape in shapes or rng.choice(_VERTEX_SHAPES):
        if shape == "F":
            x = f"v{len(vertices)}"
            vertices.append(x)
            sign_v[x] = rng.choice([1, -1])
        else:
            x, y = f"v{len(vertices)}", f"v{len(vertices) + 1}"
            vertices.extend([x, y])
            inv_v[x], inv_v[y] = y, x
            sign_v[x] = sign_v[y] = rng.choice([1, -1])

    def dual(x):
        return inv_v.get(x, x)

    edges, inv_e, sign_e = [], {}, {}
    remaining = rng.randint(0, 4) if n_edges is None else n_edges
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            s = rng.choice(vertices)
            t = rng.choice(vertices)
            a, b = f"e{len(edges)}", f"e{len(edges) + 1}"
            edges.append(Edge(a, s, t))
            edges.append(Edge(b, dual(t), dual(s)))
            inv_e[a], inv_e[b] = b, a
            va = rng.choice([1, -1])
            sign_e[a] = va
            sign_e[b] = sign_v[s] * sign_v[t] * va
            remaining -= 2
        else:
            s = rng.choice(vertices)
            a = f"e{len(edges)}"
            edges.append(Edge(a, s, dual(s)))
            sign_e[a] = rng.choice([1, -1])
            remaining -= 1
    return SelfDualQuiver(vertices, edges, inv_v, inv_e, sign_v, sign_e)


def _rand_sd_slope(quiver: SelfDualQuiver, rng: random.Random) -> Slope:
    weights = [Fraction(0)] * len(quiver.vertices)
    for i, j in quiver.vertex_pairs:
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        weights[i], weights[j] = r, -r
    return Slope(tuple(weights))


def wide_quiver(pairs: int, seed: int) -> SelfDualQuiver:
    """pairs swapped vertex pairs joined by as many edges as vertices,
    swapped edge pairs and fixed edges drawn from seed; uncalibrated."""
    return _rand_quiver(random.Random(seed), ("P",) * pairs, 2 * pairs)


def acceptance_suite():
    """Quivers paired with lists of six self-dual slopes, built once."""
    global _cache
    if _cache is None:
        rng = random.Random(SUITE_SEED)
        out = []
        for _ in range(SUITE_SIZE):
            q = _rand_quiver(rng)
            calibrate_signs(q)
            out.append((q, [_rand_sd_slope(q, rng) for _ in range(6)]))
        _cache = out
    return _cache
