"""Self-dual quiver data model.

A self-dual quiver is a finite quiver with a contravariant involution on
vertices and edges together with signs u on vertices and v on edges, subject
to u(i*) = u(i) and v(a) v(a*) = u(s(a)) u(t(a)).  Dimension vectors are
tuples aligned with the vertex order; a class theta is self-dual when it is
involution-symmetric and even at symplectic fixed vertices.

The two exponent forms used by the twisted products (the antisymmetrized
Euler pairing and its half-dimensional companion for the module side) carry a
sign calibration that is fixed once per quiver by the oracle module; querying
them before calibration raises.  Both forms are built when the calibration is
set, as integer data on vertex pairs: the commutation form as the signed edge
count of each pair, the twist doubled so that its fixed-edge weights 2 kappa
are integers too.  A query then only reads that data.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

DimVector = Tuple[int, ...]


class ValidationError(ValueError):
    """Input data does not describe a legal self-dual quiver or slope."""


class UncalibratedError(RuntimeError):
    """Exponent form queried before sign calibration was attached."""


def vadd(a: DimVector, b: DimVector) -> DimVector:
    return tuple(map(operator.add, a, b))


def vsub(a: DimVector, b: DimVector) -> DimVector:
    return tuple(map(operator.sub, a, b))


def vtotal(a: DimVector) -> int:
    return sum(a)


def graded_lex_key(a: DimVector):
    return (sum(a), a)


@functools.lru_cache(maxsize=4096)
def boxed_vectors(limit: DimVector) -> Tuple[DimVector, ...]:
    """All vectors 0 <= v <= limit componentwise, graded-lex order."""
    return tuple(sorted(itertools.product(*[range(x + 1) for x in limit]),
                        key=graded_lex_key))


class Edge(NamedTuple):
    name: str
    source: str
    target: str


class Calibration(NamedTuple):
    """Resolved sign data for the exponent forms.

    orientation flips the antisymmetrized Euler pairing as a whole; placement
    picks the sign of the fixed-edge linear term.  kappa caches the resulting
    per-vertex weights of that linear term.
    """

    orientation: int
    placement: int
    kappa: Tuple[Fraction, ...]


def make_calibration(quiver: "SelfDualQuiver", orientation: int,
                     placement: int) -> Calibration:
    if orientation not in (1, -1) or placement not in (1, -1):
        raise ValueError("calibration signs must be +1 or -1")
    kappa = [Fraction(0)] * len(quiver.vertices)
    for a in quiver.fixed_edges:
        s, t = quiver.edge_endpoints[a]
        sig = quiver.fixed_edge_sign(a)
        kappa[t] += Fraction(placement * sig, 2)
        kappa[s] -= Fraction(placement * sig, 2)
    return Calibration(orientation, placement, tuple(kappa))


class SelfDualQuiver:
    """Validated self-dual quiver with cached orbit structure."""

    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge],
                 involution_vertices: Dict[str, str],
                 involution_edges: Dict[str, str],
                 vertex_signs: Dict[str, int],
                 edge_signs: Dict[str, int]):
        self.vertices: Tuple[str, ...] = tuple(vertices)
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self._validate_and_index(involution_vertices, involution_edges,
                                 vertex_signs, edge_signs)
        self._calibration: Optional[Calibration] = None
        # integer exponent-form data, built by set_calibration
        self._comm: Optional[Tuple[Tuple[int, int, int, int, int], ...]] = None
        self._kappa2: Tuple[Tuple[int, int], ...] = ()
        # Invariant engines for this quiver, one per weight ray (see
        # invariants._engine); held here so that they never outlive the
        # quiver, and emptied when the calibration changes.
        self.engine_cache: Dict[tuple, object] = {}
        # The class lists by bound, and the self-dual decompositions of each
        # class (invariants._sd_steps): the data they read never changes.
        self._classes: Dict[int, List[DimVector]] = {}
        self._sd_classes: Dict[int, List[DimVector]] = {}
        self.sd_steps: Dict[DimVector, tuple] = {}

    # -- construction and validation ------------------------------------------

    def _validate_and_index(self, inv_v, inv_e, sign_v, sign_e) -> None:
        names = self.vertices
        if not names:
            raise ValidationError("quiver needs at least one vertex")
        self.vertex_index = _index(names, "vertex")
        self.edge_index = _index([e.name for e in self.edges], "edge")
        for e in self.edges:
            if e.source not in self.vertex_index or e.target not in self.vertex_index:
                raise ValidationError(f"edge {e.name} references unknown vertex")

        _known(inv_v, self.vertex_index, "involution", "vertex")
        _known(inv_e, self.edge_index, "involution", "edge")
        self.inv_vertex = _involution(inv_v, self.vertex_index, "vertex")
        self.inv_edge = _involution(inv_e, self.edge_index, "edge")

        self.edge_endpoints: Tuple[Tuple[int, int], ...] = tuple(
            (self.vertex_index[e.source], self.vertex_index[e.target])
            for e in self.edges)
        for ai, e in enumerate(self.edges):
            bi = self.inv_edge[ai]
            s, t = self.edge_endpoints[ai]
            sb, tb = self.edge_endpoints[bi]
            # contravariance: the dual edge runs between the dual vertices
            # in the opposite direction
            if sb != self.inv_vertex[t] or tb != self.inv_vertex[s]:
                raise ValidationError(
                    f"edge involution of {e.name} is not contravariant")

        _known(sign_v, self.vertex_index, "sign table", "vertex")
        _known(sign_e, self.edge_index, "sign table", "edge")
        self.vertex_sign = _signs(sign_v, self.vertex_index, "vertex")
        self.edge_sign = _signs(sign_e, self.edge_index, "edge")

        for i in range(len(names)):
            if self.vertex_sign[i] != self.vertex_sign[self.inv_vertex[i]]:
                raise ValidationError(
                    f"vertex sign not involution-invariant at {names[i]}")
        for ai in range(len(self.edges)):
            bi = self.inv_edge[ai]
            s, t = self.edge_endpoints[ai]
            want = self.vertex_sign[s] * self.vertex_sign[t]
            if self.edge_sign[ai] * self.edge_sign[bi] != want:
                raise ValidationError(
                    f"edge sign pair of {self.edges[ai].name} violates the "
                    "sign compatibility constraint")

        self.fixed_vertices, self.vertex_pairs = _orbits(self.inv_vertex)
        self.fixed_edges, self.edge_pairs = _orbits(self.inv_edge)

    # -- involution on classes -------------------------------------------------

    def dual_vector(self, alpha: DimVector) -> DimVector:
        return tuple(map(alpha.__getitem__, self.inv_vertex))

    def is_sd_class(self, theta: DimVector) -> bool:
        if self.dual_vector(theta) != theta:
            return False
        for i in self.fixed_vertices:
            if self.vertex_sign[i] < 0 and theta[i] % 2:
                return False
        return True

    def fixed_edge_sign(self, a: int) -> int:
        _, t = self.edge_endpoints[a]
        return self.edge_sign[a] * self.vertex_sign[t]

    # -- dimension counts -------------------------------------------------------

    def dim_rep(self, alpha: DimVector) -> int:
        return sum(alpha[s] * alpha[t] for s, t in self.edge_endpoints)

    def dim_aut(self, alpha: DimVector) -> int:
        return sum(x * x for x in alpha)

    def sd_dim_rep(self, theta: DimVector) -> int:
        total = 0
        for a, _ in self.edge_pairs:
            s, t = self.edge_endpoints[a]
            total += theta[s] * theta[t]
        for a in self.fixed_edges:
            _, t = self.edge_endpoints[a]
            m = theta[t]
            total += m * (m + self.fixed_edge_sign(a)) // 2
        return total

    def sd_dim_aut(self, theta: DimVector) -> int:
        total = 0
        for i, _ in self.vertex_pairs:
            total += theta[i] * theta[i]
        for i in self.fixed_vertices:
            m = theta[i]
            total += m * (m - self.vertex_sign[i]) // 2
        return total

    # -- exponent forms ----------------------------------------------------------

    @property
    def calibration(self) -> Optional[Calibration]:
        return self._calibration

    def set_calibration(self, cal: Optional[Calibration]) -> None:
        """Attach cal and build both exponent forms from it; None detaches.
        A calibration other than the attached one empties engine_cache.

        Over the vertex pairs s < t the commutation form is
        A(alpha, beta) = sum m (alpha_s beta_t - alpha_t beta_s), where m is
        the orientation times the number of edges s -> t less those t -> s;
        the diagonal Euler terms and the loops cancel.  The twist is kept
        doubled, 2B(alpha, theta) = 2A(alpha, theta) + A(alpha, dual(alpha))
        + sum 2 kappa_i alpha_i, which needs 2 kappa integral."""
        comm, kappa2 = None, ()
        if cal is not None:
            if cal.orientation not in (1, -1):
                raise ValueError("calibration orientation must be +1 or -1")
            if len(cal.kappa) != len(self.vertices):
                raise ValueError(
                    "calibration needs one kappa weight per vertex")
            doubled = [2 * Fraction(k) for k in cal.kappa]
            if any(k.denominator != 1 for k in doubled):
                raise ValueError(
                    f"kappa weights {cal.kappa} are not half-integers")
            count: Dict[Tuple[int, int], int] = {}
            for s, t in self.edge_endpoints:
                if s != t:
                    key, sign = ((s, t), 1) if s < t else ((t, s), -1)
                    count[key] = count.get(key, 0) + sign
            inv = self.inv_vertex
            # each entry also carries dual(s), dual(t) for A(alpha, dual)
            comm = tuple((s, t, cal.orientation * m, inv[s], inv[t])
                         for (s, t), m in count.items() if m)
            kappa2 = tuple((i, int(k)) for i, k in enumerate(doubled) if k)
        if cal != self._calibration:
            self.engine_cache.clear()
        self._calibration, self._comm, self._kappa2 = cal, comm, kappa2

    def commutation_exponent(self, alpha: DimVector, beta: DimVector) -> int:
        """The commutation form <alpha, beta>: the q-power twisting the
        product of the classes alpha and beta in the twisted algebra of the
        dimension lattice."""
        comm = self._comm
        if comm is None:
            raise _uncalibrated()
        total = 0
        for s, t, m, _, _ in comm:
            total += m * (alpha[s] * beta[t] - alpha[t] * beta[s])
        return total

    def sd_twist_exponent(self, alpha: DimVector,
                          theta: DimVector) -> "int | Fraction":
        """The q-power twisting the action of the class alpha on the
        self-dual class theta in the module of self-dual classes: an int
        when it is integral, as under a verified calibration, else a
        Fraction."""
        comm = self._comm
        if comm is None:
            raise _uncalibrated()
        twice = 0
        for s, t, m, ds, dt in comm:
            a_s, a_t = alpha[s], alpha[t]
            twice += m * (2 * (a_s * theta[t] - a_t * theta[s])
                          + a_s * alpha[dt] - a_t * alpha[ds])
        for i, k in self._kappa2:
            twice += k * alpha[i]
        return twice // 2 if twice % 2 == 0 else Fraction(twice, 2)

    # -- class enumeration ---------------------------------------------------------

    def dim_vectors_up_to(self, bound: int) -> List[DimVector]:
        """The nonzero classes of total at most bound, graded-lex order,
        extended one coordinate at a time, never past the bound: listed
        once per bound, copied on each call.  A bound whose type is not int
        is refused (read_bound)."""
        if read_bound(bound) not in self._classes:
            out = [()]
            for _ in self.vertices:
                out = [v + (x,) for v in out for x in range(bound + 1 - sum(v))]
            self._classes[bound] = sorted(out, key=graded_lex_key)[1:]
        return self._classes[bound][:]

    def sd_classes_up_to(self, bound: int) -> List[DimVector]:
        """The zero class and the self-dual classes of dim_vectors_up_to."""
        if read_bound(bound) not in self._sd_classes:
            sd = filter(self.is_sd_class, self.dim_vectors_up_to(bound))
            self._sd_classes[bound] = [(0,) * len(self.vertices), *sd]
        return self._sd_classes[bound][:]

    # -- serialization ----------------------------------------------------------

    @classmethod
    def from_data(cls, data: dict) -> "SelfDualQuiver":
        try:
            vertices = data["vertices"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed quiver data: {exc}") from exc
        if not isinstance(vertices, list):
            raise ValidationError(
                f"vertices must be a list of names, not {vertices!r}")
        edges = []
        for row in _table(data, "edges", list, "a list of rows"):
            try:
                fields = (row["name"], row["from"], row["to"])
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"malformed edge row {row!r}") from exc
            edges.append(Edge(*(_name(x, "edge field") for x in fields)))
        inv, signs = _table(data, "involution"), _table(data, "signs")
        return cls(
            [_name(x, "vertex name") for x in vertices], edges,
            *[{str(k): _name(v, what) if what else v
               for k, v in _table(table, kind).items()}
              for table, what in ((inv, "involution target"), (signs, None))
              for kind in ("vertices", "edges")])

    def to_data(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"name": e.name, "from": e.source, "to": e.target}
                      for e in self.edges],
            "involution": {
                "vertices": {x: self.vertices[self.inv_vertex[i]]
                             for i, x in enumerate(self.vertices)},
                "edges": {e.name: self.edges[self.inv_edge[a]].name
                          for a, e in enumerate(self.edges)},
            },
            "signs": {
                "vertices": {x: self.vertex_sign[i]
                             for i, x in enumerate(self.vertices)},
                "edges": {e.name: self.edge_sign[a]
                          for a, e in enumerate(self.edges)},
            },
        }


def _orbits(inv: Tuple[int, ...]) -> Tuple[tuple, tuple]:
    """(fixed points, swapped pairs (i, j) with i < j) of an involution."""
    return (tuple(i for i, j in enumerate(inv) if i == j),
            tuple((i, j) for i, j in enumerate(inv) if i < j))


# The vertex and the edge tables of a quiver are read by one rule each, as
# tuples by position in index; kind, "vertex" or "edge", names the table in
# each refusal.  A name an involution table omits is fixed, and a name a
# sign table omits has sign +1.

def _index(names: Sequence[str], kind: str) -> Dict[str, int]:
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate {kind} names")
    return {x: i for i, x in enumerate(names)}


def _known(table: dict, index: Dict[str, int], what: str, kind: str) -> None:
    for key in table:
        if key not in index:
            raise ValidationError(f"{what} names unknown {kind} {key}")


def _involution(table: dict, index: Dict[str, int],
                kind: str) -> Tuple[int, ...]:
    image = {x: table.get(x, x) for x in index}
    for x, y in image.items():
        if y not in index:
            raise ValidationError(f"involution sends {x} to unknown {kind} {y}")
        if image[y] != x:
            raise ValidationError(f"{kind} involution not involutive at {x}")
    return tuple(index[y] for y in image.values())


def _signs(table: dict, index: Dict[str, int], kind: str) -> Tuple[int, ...]:
    signs = tuple(table.get(x, 1) for x in index)
    for x, val in zip(index, signs):
        # the integer itself: 1.5, True or "1" are not signs
        if type(val) is not int or val not in (1, -1):
            raise ValidationError(
                f"{kind} sign of {x} must be +1 or -1, not {val!r}")
    return signs


def _uncalibrated() -> UncalibratedError:
    return UncalibratedError(
        "exponent forms need sign calibration; run the oracle first")


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, not {value!r}")
    return value


def _table(data: dict, key: str, kind: type = dict,
           what: str = "an object") -> "dict | list":
    """The value under key, a kind, or an empty kind when it is absent or
    null; any other value is refused as not what: the name tables are
    objects, the edges a list of rows."""
    out = kind() if data.get(key) is None else data[key]
    if not isinstance(out, kind):
        raise ValidationError(f"{key} must be {what}, not {out!r}")
    return out


# A decimal in exponent form as Fraction reads it: (mantissa, exponent).
_EXPONENT_FORM = re.compile(r"\s*([-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?"
                            r"(?:\.(?:\d+(?:_\d+)*)?)?)"
                            r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def read_weight(value: "Fraction | int | str", subject: str) -> Fraction:
    """The slope weight value, an int, a Fraction or a str, as Fraction
    reads it; where it is refused, a ValidationError naming subject, the
    weight the caller reads, with the reason.  A float or a bool is refused
    by type, as _engine refuses it in a Slope.  Tables print the weights in
    full (Slope.to_dict), and str() refuses an integer longer than the
    interpreter's digit limit, so such a weight is refused.  So is a
    nonzero weight written with a decimal exponent that alone exceeds that
    limit, before Fraction multiplies out the power of ten in time
    superlinear in the exponent; with a zero mantissa the weight is zero."""
    if isinstance(value, (bool, float)):
        raise ValidationError(f"{subject} is a {type(value).__name__}, not "
                              "an int, a Fraction or a str")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    form = isinstance(value, str) and _EXPONENT_FORM.fullmatch(value)
    try:
        huge = bool(form and limit and abs(int(form[2])) > limit)
        weight = Fraction(form[1] if huge else value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{subject}: {exc}") from None
    too_long = f"{subject}: weight has too many digits to print"
    if huge and weight:
        raise ValidationError(too_long)
    try:
        str(weight)
    except ValueError:
        raise ValidationError(too_long) from None
    return weight


def read_bound(bound: int) -> int:
    """The bound a library call is given, refused with a ValidationError
    unless its type is int: a bool, a float, a str or None is refused.
    build_table, epsilon_table, verify_calibration and the scalar queries
    read their bound by it before they calibrate or enumerate anything, as
    do the element functions and the class lists; the command line's
    --bound is an int already."""
    if type(bound) is not int:
        raise ValidationError(f"bound must be an int, not {bound!r}")
    return bound


class Slope(NamedTuple):
    """Linear stability weights; the slope of alpha is weights.alpha/|alpha|."""

    weights: Tuple[Fraction, ...]

    @classmethod
    def from_dict(cls, quiver: SelfDualQuiver,
                  mapping: Dict[str, "Fraction | int | str"]) -> "Slope":
        """The slope with the weights given by vertex name, 0 elsewhere.  A
        key that names no vertex is refused; each weight is read by
        read_weight, the rule the command line reads its weights by."""
        weights = [Fraction(0)] * len(quiver.vertices)
        for key, val in mapping.items():
            if key not in quiver.vertex_index:
                raise ValidationError(f"slope names unknown vertex {key}")
            weights[quiver.vertex_index[key]] = read_weight(
                val, f"slope weight of vertex {key}")
        return cls(tuple(weights))

    @classmethod
    def trivial(cls, quiver: SelfDualQuiver) -> "Slope":
        return cls(tuple(Fraction(0) for _ in quiver.vertices))

    def validate_self_dual(self, quiver: SelfDualQuiver) -> None:
        for i in range(len(quiver.vertices)):
            j = quiver.inv_vertex[i]
            if self.weights[i] != -self.weights[j]:
                raise ValidationError(
                    "slope weights must be antisymmetric under the involution "
                    f"(vertex {quiver.vertices[i]})")

    def is_self_dual(self, quiver: SelfDualQuiver) -> bool:
        try:
            self.validate_self_dual(quiver)
        except ValidationError:
            return False
        return True

    def value(self, alpha: DimVector) -> Fraction:
        total = sum(alpha)
        if total == 0:
            raise ValueError("slope of the zero class is undefined")
        top = sum((w * x for w, x in zip(self.weights, alpha)), Fraction(0))
        return top / total

    def to_dict(self, quiver: SelfDualQuiver) -> Dict[str, str]:
        return {x: str(self.weights[i]) for i, x in enumerate(quiver.vertices)}


# -- reference quivers -----------------------------------------------------------

def point_quiver(vertex_sign: int) -> SelfDualQuiver:
    """One fixed vertex, no edges; orthogonal (+1) or symplectic (-1)."""
    return SelfDualQuiver(["x"], [], {}, {}, {"x": vertex_sign}, {})


def kronecker_variant(edge_signs: Tuple[int, int], vertex_sign: int) -> SelfDualQuiver:
    """Two swapped vertices joined by two fixed parallel edges."""
    edges = [Edge("a1", "i", "j"), Edge("a2", "i", "j")]
    return SelfDualQuiver(
        ["i", "j"], edges,
        {"i": "j", "j": "i"}, {"a1": "a1", "a2": "a2"},
        {"i": vertex_sign, "j": vertex_sign},
        {"a1": edge_signs[0], "a2": edge_signs[1]},
    )
