"""Quivers, dimension vectors, and covering-style quiver morphisms.

A quiver is a finite directed multigraph with string ids for vertices and
edges.  Edges are stored as (id, source, target); loops and parallel edges
are allowed.  A dimension vector assigns an integer to each vertex and is
stored sparsely as a sorted tuple of (vertex, value) pairs with zeros
dropped, so equal vectors compare and hash equal.

The Euler form

    euler_form(q, d, e) = sum_v d(v) e(v) - sum_{a: v -> w} d(v) e(w)

computes dim Hom - dim Ext between representations of classes d and e.
sym_euler_form symmetrizes it and sign_epsilon(q, d, e) = (-1)^euler_form
is the sign twist used by the homology pairing operations.

Morphisms collapse vertices and partially match edges subject to a unique
lifting condition: for every target edge and every pair of preimages of its
endpoints there is exactly one matched source edge connecting them.  Such
maps induce direct-sum maps on representations; the correction form
(correction_form in tests/oracles.py) measures how the Euler form changes
under pushforward of dimension vectors, and the exact identity

    euler_form(target, push(d), push(e))
        = euler_form(source, d, e) + correction_form(m, d, e),

checked against that oracle in the tests, is what makes the induced maps
on moduli interact cleanly with the graded structures downstream.  Framing
and binarization are the two morphism factories used by the invariant
checks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, NamedTuple


class StructureError(ValueError):
    """Malformed or inconsistent quiver data.  Subclasses ValueError so
    generic input-validation handlers keep working."""


class CycleError(StructureError):
    """An oriented cycle shows up where acyclicity is required."""


class Edge(NamedTuple):
    id: str
    source: str
    target: str


def clipped(text: str, limit: int = 100) -> str:
    """text cut to limit characters and a length note, for error messages."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def shown(value: object) -> str:
    """repr(value), clipped, for an error message."""
    return clipped(repr(value))


def _check_id(name: str, value: object) -> str:
    if not isinstance(value, str) or not value:
        raise StructureError(f"{name} must be a nonempty string, got {shown(value)}")
    return value


class DimVector:
    """Sparse integer vector indexed by vertex ids.

    Entries may be negative (differences are useful internally); use
    is_effective() to test membership in the nonnegative cone.
    """

    __slots__ = ("_items",)

    def __init__(self, entries: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        if isinstance(entries, DimVector):
            self._items = entries._items
            return
        acc: dict[str, int] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for v, n in pairs:
            _check_id("vertex id", v)
            if isinstance(n, bool) or not isinstance(n, int):
                raise StructureError(f"dimension at {shown(v)} must be an int, got {shown(n)}")
            acc[v] = acc.get(v, 0) + n
        self._items = tuple(sorted((v, n) for v, n in acc.items() if n != 0))

    def items(self) -> tuple[tuple[str, int], ...]:
        return self._items

    def __getitem__(self, v: str) -> int:
        for w, n in self._items:
            if w == v:
                return n
        return 0

    @classmethod
    def _trusted(cls, items: tuple[tuple[str, int], ...]) -> "DimVector":
        """A vector from items valid as they stand: sorted, nonzero values."""
        out = object.__new__(cls)
        out._items = items
        return out

    def __add__(self, other: "DimVector") -> "DimVector":
        # both operands are valid, so the sum skips the validating constructor
        acc = dict(self._items)
        for v, n in other._items:
            acc[v] = acc.get(v, 0) + n
        return DimVector._trusted(tuple(sorted(item for item in acc.items() if item[1])))

    def __sub__(self, other: "DimVector") -> "DimVector":
        return self + DimVector._trusted(tuple((v, -n) for v, n in other._items))

    def __rmul__(self, k: int) -> "DimVector":
        return DimVector([(v, k * n) for v, n in self._items])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DimVector) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def is_zero(self) -> bool:
        return not self._items

    def is_effective(self) -> bool:
        return all(n > 0 for _, n in self._items)

    def total(self) -> int:
        return sum(n for _, n in self._items)

    def support(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self._items)

    def as_unit(self) -> str | None:
        """The vertex v if this vector is the unit vector at v, else None."""
        if len(self._items) == 1 and self._items[0][1] == 1:
            return self._items[0][0]
        return None

    def sort_key(self) -> tuple:
        # graded order first, then lexicographic on the sparse items
        return (self.total(), self._items)

    def to_json(self) -> dict[str, int]:
        return {v: n for v, n in self._items}

    @classmethod
    def from_json(cls, obj: object) -> "DimVector":
        if not isinstance(obj, Mapping):
            raise StructureError(f"dimension vector must be a JSON object, got {shown(obj)}")
        d = cls(obj)
        if not d.is_effective() and not d.is_zero():
            raise StructureError(f"dimension vector entries must be nonnegative: {shown(obj)}")
        return d

    def __repr__(self) -> str:
        return f"DimVector({dict(self._items)!r})"


def unit_vector(v: str) -> DimVector:
    return DimVector({v: 1})


class Quiver:
    """Finite quiver with string vertex and edge ids.

    Vertices and edges are kept sorted so construction order does not leak
    into any downstream enumeration.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        vs = tuple(sorted(_check_id("vertex id", v) for v in vertices))
        if len(set(vs)) != len(vs):
            raise StructureError("duplicate vertex ids")
        vset = set(vs)
        es = []
        for e in edges:
            eid, src, tgt = e
            _check_id("edge id", eid)
            _check_id("edge endpoint", src)
            _check_id("edge endpoint", tgt)
            if src not in vset or tgt not in vset:
                raise StructureError(f"edge {shown(eid)} has endpoint outside the vertex set")
            es.append(Edge(eid, src, tgt))
        es.sort()
        if len({e.id for e in es}) != len(es):
            raise StructureError("duplicate edge ids")
        self.vertices: tuple[str, ...] = vs
        self.edges: tuple[Edge, ...] = tuple(es)
        self._vset = frozenset(vs)
        self._edge_map = {e.id: e for e in es}

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_map[eid]
        except KeyError:
            raise StructureError(f"no edge with id {shown(eid)}") from None

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def has_vertex(self, v: str) -> bool:
        return v in self._vset

    def arrows(self, source: str, target: str) -> int:
        """Number of edges from source to target (parallel edges counted)."""
        return sum(1 for e in self.edges if e.source == source and e.target == target)

    def check_dimvec(self, d: DimVector) -> DimVector:
        for v in d.support():
            if v not in self._vset:
                raise StructureError(f"dimension vector mentions unknown vertex {shown(v)}")
        return d

    def topological_order(self) -> tuple[str, ...]:
        """Vertices ordered so every edge goes forward; smallest id first
        among available choices.  Raises StructureError on an oriented cycle.
        """
        indeg = {v: 0 for v in self.vertices}
        for e in self.edges:
            if e.source != e.target:
                indeg[e.target] += 1
            else:
                raise CycleError(f"oriented cycle: loop at {shown(e.source)}")
        order = []
        ready = sorted(v for v, k in indeg.items() if k == 0)
        indeg = dict(indeg)
        while ready:
            v = ready.pop(0)
            order.append(v)
            touched = False
            for e in self.edges:
                if e.source == v:
                    indeg[e.target] -= 1
                    if indeg[e.target] == 0:
                        ready.append(e.target)
                        touched = True
            if touched:
                ready.sort()
        if len(order) != len(self.vertices):
            raise CycleError("quiver has an oriented cycle")
        return tuple(order)

    def key(self) -> tuple:
        return (self.vertices, self.edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Quiver) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Quiver(vertices={list(self.vertices)!r}, edges={len(self.edges)})"

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "from": e.source, "to": e.target} for e in self.edges],
        }

    @classmethod
    def from_json(cls, obj: object) -> "Quiver":
        if not isinstance(obj, Mapping):
            raise StructureError("quiver must be a JSON object")
        try:
            vertices = obj["vertices"]
            raw_edges = obj["edges"]
        except (KeyError, TypeError):
            raise StructureError("quiver object needs 'vertices' and 'edges'") from None
        if not isinstance(vertices, list) or not isinstance(raw_edges, list):
            raise StructureError("'vertices' and 'edges' must be lists")
        edges = []
        for item in raw_edges:
            if not isinstance(item, Mapping):
                raise StructureError(f"edge must be an object, got {shown(item)}")
            try:
                edges.append((item["id"], item["from"], item["to"]))
            except KeyError as exc:
                raise StructureError(f"edge object missing field {exc}") from None
        return cls(vertices, edges)


def euler_form(q: Quiver, d: DimVector, e: DimVector) -> int:
    """dim Hom - dim Ext pairing of dimension vectors d, e."""
    q.check_dimvec(d)
    q.check_dimvec(e)
    total = sum(n * e[v] for v, n in d.items())
    for a in q.edges:
        total -= d[a.source] * e[a.target]
    return total


def sym_euler_form(q: Quiver, d: DimVector, e: DimVector) -> int:
    return euler_form(q, d, e) + euler_form(q, e, d)


def sign_epsilon(q: Quiver, d: DimVector, e: DimVector) -> int:
    return -1 if euler_form(q, d, e) % 2 else 1


class QuiverMorphism:
    """Vertex map plus partial edge matching with unique lifting.

    vertex_map sends every source vertex to a target vertex.  edge_pairs is
    a set of (source_edge_id, target_edge_id) with compatible endpoints; at
    most one pair per source edge, and for every target edge e' and every
    (v, w) with vertex_map(v) = target(e'), vertex_map(w) = source(e')
    there is exactly one paired source edge from w to v.  Source edges in
    no pair are "unmatched" and feed the correction form.
    """

    def __init__(
        self,
        source: Quiver,
        target: Quiver,
        vertex_map: Mapping[str, str],
        edge_pairs: Iterable[tuple[str, str]],
    ):
        self.source = source
        self.target = target
        vmap = dict(vertex_map)
        if set(vmap) != set(source.vertices):
            raise StructureError("vertex_map must be defined on exactly the source vertices")
        for v, w in vmap.items():
            if _check_id("vertex image", w) not in target._vset:
                raise StructureError(f"vertex_map sends {shown(v)} to unknown vertex {shown(w)}")
        self.vertex_map: dict[str, str] = vmap

        pairs = frozenset((_check_id("edge id", a), _check_id("edge id", b)) for a, b in edge_pairs)
        lift_of: dict[str, str] = {}
        for se, te in pairs:
            e = source.edge(se)
            f = target.edge(te)
            if vmap[e.source] != f.source or vmap[e.target] != f.target:
                raise StructureError(f"edge pair {shown((se, te))} has incompatible endpoints")
            if se in lift_of:
                raise StructureError(f"source edge {shown(se)} matched more than once")
            lift_of[se] = te
        self.edge_pairs = pairs

        # unique lifting: every target edge between image vertices is covered
        # exactly once for each preimage pair of its endpoints
        preim: dict[str, list[str]] = {w: [] for w in target.vertices}
        for v in source.vertices:
            preim[vmap[v]].append(v)
        for f in target.edges:
            for v in preim[f.source]:
                for w in preim[f.target]:
                    n = sum(
                        1
                        for e in source.edges
                        if lift_of.get(e.id) == f.id
                        and e.source == v
                        and e.target == w
                    )
                    if n != 1:
                        raise StructureError(
                            f"target edge {shown(f.id)} lifts {n} times over"
                            f" ({shown(v)}, {shown(w)}), expected exactly once"
                        )
        self._preimages = {w: tuple(sorted(vs)) for w, vs in preim.items()}
        self.unmatched_edge_ids: tuple[str, ...] = tuple(
            e.id for e in source.edges if e.id not in lift_of
        )

    def preimages(self, target_vertex: str) -> tuple[str, ...]:
        return self._preimages[target_vertex]

    def pushforward(self, d: DimVector) -> DimVector:
        self.source.check_dimvec(d)
        return DimVector([(self.vertex_map[v], n) for v, n in d.items()])

    def merged_pairs(self) -> list[tuple[str, str]]:
        """Ordered pairs (v, w), v != w, of source vertices with equal image."""
        out = []
        for v, w in itertools.permutations(self.source.vertices, 2):
            if self.vertex_map[v] == self.vertex_map[w]:
                out.append((v, w))
        return out

    def key(self) -> tuple:
        return (
            self.source.key(),
            self.target.key(),
            tuple(sorted(self.vertex_map.items())),
            tuple(sorted(self.edge_pairs)),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuiverMorphism) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (
            f"QuiverMorphism({self.source!r} -> {self.target!r}, "
            f"{len(self.edge_pairs)} edge pairs)"
        )

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "vertex_map": dict(sorted(self.vertex_map.items())),
            "edge_pairs": [list(p) for p in sorted(self.edge_pairs)],
        }

    @classmethod
    def from_json(cls, obj: object) -> "QuiverMorphism":
        if not isinstance(obj, Mapping):
            raise StructureError("morphism must be a JSON object")
        for field in ("source", "target", "vertex_map", "edge_pairs"):
            if field not in obj:
                raise StructureError(f"morphism object missing field {field!r}")
        source = Quiver.from_json(obj["source"])
        target = Quiver.from_json(obj["target"])
        vmap = obj["vertex_map"]
        if not isinstance(vmap, Mapping):
            raise StructureError("'vertex_map' must be an object")
        pairs = obj["edge_pairs"]
        if not isinstance(pairs, list) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs
        ):
            raise StructureError("'edge_pairs' must be a list of [source_edge, target_edge]")
        return cls(source, target, vmap, [tuple(p) for p in pairs])


def edge_deletion_morphism(q: Quiver, edge_ids: Iterable[str]) -> QuiverMorphism:
    """Morphism from q to q with the given edges removed (identity on vertices)."""
    drop = set(edge_ids)
    for eid in drop:
        q.edge(eid)  # existence check
    target = Quiver(q.vertices, [e for e in q.edges if e.id not in drop])
    pairs = [(e.id, e.id) for e in q.edges if e.id not in drop]
    return QuiverMorphism(q, target, {v: v for v in q.vertices}, pairs)


def _fresh(base: str, used) -> str:
    """base if it is not in used, else base_n for the least n >= 1 that is not."""
    n = 0
    while (name := f"{base}_{n}" if n else base) in used:
        n += 1
    return name


def frame_quiver(q: Quiver, framing: Mapping[str, int]) -> tuple[Quiver, QuiverMorphism]:
    """Add a framing vertex "inf" with framing[v] edges fr_<v>_1, fr_<v>_2,
    ... to each vertex v; an id that q uses gets the least fresh suffix _n.

    Returns the framed quiver and the inclusion morphism of q into it.
    """
    for v, n in framing.items():
        if v not in q._vset:
            raise StructureError(f"framing mentions unknown vertex {shown(v)}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise StructureError(f"framing multiplicity at {shown(v)} must be a nonnegative int")
    frame_vertex, new_edges, used = _fresh("inf", q._vset), [], set(q.edge_ids())
    for v in sorted(framing):
        for k in range(1, framing[v] + 1):
            eid = _fresh(f"fr_{v}_{k}", used)
            used.add(eid)
            new_edges.append((eid, frame_vertex, v))
    framed = Quiver(
        list(q.vertices) + [frame_vertex],
        [(e.id, e.source, e.target) for e in q.edges] + new_edges,
    )
    inclusion = QuiverMorphism(
        q, framed, {v: v for v in q.vertices}, [(e, e) for e in q.edge_ids()]
    )
    return framed, inclusion


def binarize_quiver(q: Quiver, d: DimVector) -> tuple[Quiver, QuiverMorphism, DimVector]:
    """Split each vertex v into d(v) copies and each edge into all copies.

    Returns (split quiver, collapse morphism onto q, all-ones dimension
    vector) with pushforward of the ones vector equal to d.
    """
    q.check_dimvec(d)
    if not (d.is_effective() and not d.is_zero()):
        raise StructureError("binarization needs a nonzero effective dimension vector")
    vertices = []
    vmap = {}
    for v in d.support():
        for i in range(1, d[v] + 1):
            name = f"{v}#{i}"
            vertices.append(name)
            vmap[name] = v
    if len(set(vertices)) != len(vertices) or set(vertices) & set(q.vertices):
        raise StructureError("generated split vertex ids collide")
    edges = []
    pairs = []
    for e in q.edges:
        if d[e.source] == 0 or d[e.target] == 0:
            continue
        for i in range(1, d[e.target] + 1):
            for j in range(1, d[e.source] + 1):
                eid = f"{e.id}#{i}#{j}"
                edges.append((eid, f"{e.source}#{j}", f"{e.target}#{i}"))
                pairs.append((eid, e.id))
    if len({x[0] for x in edges}) != len(edges):
        raise StructureError("generated split edge ids collide")
    split = Quiver(vertices, edges)
    collapse = QuiverMorphism(split, q, vmap, pairs)
    ones = DimVector({v: 1 for v in vertices})
    return split, collapse, ones


def subvectors(d: DimVector) -> list[DimVector]:
    """All nonzero e with 0 <= e <= d componentwise, in graded order."""
    if not d.is_effective() and not d.is_zero():
        raise StructureError("subvectors needs an effective dimension vector")
    # d's items are sorted, so dropping the zeros of each combination leaves
    # valid items for the trusted constructor
    out = [
        DimVector._trusted(tuple((v, n) for (v, _), n in zip(d.items(), combo) if n))
        for combo in itertools.product(*(range(n + 1) for _, n in d.items()))
    ]
    out.sort(key=DimVector.sort_key)
    return out[1:]  # the zero vector sorts first


def decompositions(d: DimVector, parts: int) -> Iterator[tuple[DimVector, ...]]:
    """Ordered tuples of `parts` nonzero effective vectors summing to d."""
    if parts < 1:
        raise StructureError("parts must be >= 1")
    if parts == 1:
        if not d.is_zero():
            yield (d,)
        return
    for e in subvectors(d):
        rest = d - e
        if rest.total() < parts - 1:
            continue
        for tail in decompositions(rest, parts - 1):
            yield (e,) + tail


def all_decompositions(d: DimVector) -> Iterator[tuple[DimVector, ...]]:
    """Ordered decompositions into any number of nonzero parts, short first."""
    for n in range(1, d.total() + 1):
        yield from decompositions(d, n)
