"""Construction and exact matching enumeration for m-barrel fullerene graphs.

The m-barrel fullerene F(m, k) is the cubic plane graph built from two
m-gon caps, two rings of m pentagons, and k rings of m hexagons between
them.  On the cylinder it consists of k+1 "big" cycles of length 2m,
consecutive cycles joined by m horizontal edges in a brick-wall pattern,
closed off on each side by an m-cycle cap.

Canonical labeling
------------------
* left cap vertices   u_l,      label ``L:l``,   l in [0, m)
* big-cycle vertices  w_{j,i},  label ``C:j:i``, j in [1, k+1], i in [0, 2m)
* right cap vertices  u'_l,     label ``R:l``,   l in [0, m)

Horizontal edges come in k+2 layers E_0 .. E_{k+1} of m edges each:

* e_{0,l}   = (u_l, w_{1,2l})
* e_{j,l}   = (w_{j,2l+1}, w_{j+1,2l})   for 1 <= j <= k
* e_{k+1,l} = (w_{k+1,2l+1}, u'_l)

so inside every big cycle the layer on its left attaches at even
positions and the layer on its right at odd positions.  Big-cycle edges
(w_{j,2i}, w_{j,2i+1}) are classified "up" and (w_{j,2i+1}, w_{j,2i+2})
"down"; cap edges close the m-gons.

Edge ids run along the stack in blocks: left cap, E_0, then big cycle j
by ascending i and E_j for j = 1 .. k+1, right cap; edge_block gives them.

F(m, k) has 2m(k+2) vertices, 3m(k+2) edges, and face census
{two m-gons, 2m pentagons, mk hexagons}, verified here by an explicit
planar face walk rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    InvalidParamsError,
    NotPerfectMatchingError,
    StructuralViolationError,
    TooLargeError,
    TooManyMatchingsError,
    UnknownFormatError,
)

EDGE_MGON = "mgon-cycle"
EDGE_UP = "big-cycle-up"
EDGE_DOWN = "big-cycle-down"
EDGE_HORIZONTAL = "horizontal"

BRUTE_VERTEX_CAP = 72
ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class BarrelParams:
    """Barrel size: m >= 3 positions around, k >= 0 hexagon rings."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if type(self.m) is not int or type(self.k) is not int:
            raise InvalidParamsError(f"m and k must be integers, got {self.m!r}, {self.k!r}")
        if self.m < 3:
            raise InvalidParamsError(f"m must be >= 3, got {self.m}")
        if self.k < 0:
            raise InvalidParamsError(f"k must be >= 0, got {self.k}")

    @property
    def n_vertices(self) -> int:
        return 2 * self.m * (self.k + 2)

    @property
    def n_edges(self) -> int:
        return 3 * self.m * (self.k + 2)


@dataclass(frozen=True)
class Edge:
    """Undirected edge (u, v) with its geometric classification.

    For horizontal edges (layer, pos) = (j, l) of e_{j,l}; for big-cycle
    edges layer = j and pos = i of the lower endpoint w_{j,i}; for cap
    edges layer is 0 (left) or k+2 (right) and pos = l of (u_l, u_{l+1}).
    """

    u: int
    v: int
    kind: str
    layer: int
    pos: int

    def kind_token(self) -> str:
        if self.kind == EDGE_HORIZONTAL:
            return f"horizontal:{self.layer}:{self.pos}"
        return self.kind


@dataclass(frozen=True)
class Matching:
    """A set of edge ids; perfection is checked against a specific graph."""

    edges: frozenset[int]

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.edges))


@dataclass(frozen=True)
class HorizontalProfile:
    """Per-layer subsets S_j of matched horizontal slots, j = 0 .. k+1."""

    layers: tuple[frozenset[int], ...]

    @property
    def cardinality(self) -> int:
        return len(self.layers[0])


@dataclass(frozen=True)
class Tiling:
    """Rhombus tiling view of a perfect matching: one rhombus per edge.

    Kinds: "horizontal" for matched horizontal edges, "up"/"down" for the
    two big-cycle diagonals, "cap" for matched cap edges (these protrude
    past the pentagon boundary instead of tiling a hexagon).
    """

    rhombi: tuple[tuple[int, str], ...]

    def to_matching(self) -> Matching:
        return Matching(frozenset(eid for eid, _ in self.rhombi))


@dataclass(frozen=True)
class FaceCensusReport:
    n_vertices: int
    n_edges: int
    n_faces: int
    face_sizes: tuple[tuple[int, int], ...]  # (size, count), ascending size
    m_gons: int
    pentagons: int
    hexagons: int
    euler_characteristic: int


@dataclass(frozen=True)
class BarrelGraph:
    params: BarrelParams
    labels: tuple[str, ...]
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]  # vertex -> ((nbr, eid), ...)

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_graph(params: BarrelParams) -> BarrelGraph:
    """Build F(m, k) with the canonical labeling and edge order."""
    m, k = params.m, params.k
    n = params.n_vertices

    labels: list[str] = [f"L:{l}" for l in range(m)]
    for j in range(1, k + 2):
        labels.extend(f"C:{j}:{i}" for i in range(2 * m))
    labels.extend(f"R:{l}" for l in range(m))
    if len(labels) != n:
        raise StructuralViolationError(f"{len(labels)} labels for {n} vertices")

    def u_left(l: int) -> int:
        return l % m

    def w(j: int, i: int) -> int:
        return m + (j - 1) * 2 * m + (i % (2 * m))

    def u_right(l: int) -> int:
        return m + (k + 1) * 2 * m + (l % m)

    edges: list[Edge] = []
    add = edges.append
    for l in range(m):
        add(Edge(u_left(l), u_left(l + 1), EDGE_MGON, 0, l))
    for l in range(m):
        add(Edge(u_left(l), w(1, 2 * l), EDGE_HORIZONTAL, 0, l))
    for j in range(1, k + 2):
        for i in range(2 * m):
            kind = EDGE_UP if i % 2 == 0 else EDGE_DOWN
            add(Edge(w(j, i), w(j, i + 1), kind, j, i))
        if j <= k:
            for l in range(m):
                add(Edge(w(j, 2 * l + 1), w(j + 1, 2 * l), EDGE_HORIZONTAL, j, l))
    for l in range(m):
        add(Edge(w(k + 1, 2 * l + 1), u_right(l), EDGE_HORIZONTAL, k + 1, l))
    for l in range(m):
        add(Edge(u_right(l), u_right(l + 1), EDGE_MGON, k + 2, l))
    if len(edges) != params.n_edges:
        raise StructuralViolationError(f"{len(edges)} edges, expected {params.n_edges}")

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, e in enumerate(edges):
        adj[e.u].append((e.v, eid))
        adj[e.v].append((e.u, eid))
    adjacency = tuple(tuple(sorted(row)) for row in adj)

    return BarrelGraph(params, tuple(labels), tuple(edges), adjacency)


def edge_block(params: BarrelParams, kind: str, layer: int) -> range:
    """build_graph's ids of the edges of one kind and layer (as in Edge), by slot l.

    Slot l is pos l of a cap (layer 0 or k+2) or of E_j, which starts at id
    m + 3mj, and pos 2l (up) or 2l+1 (down) of big cycle j, from id 3mj - m.
    """
    m, k = params.m, params.k
    if kind == EDGE_MGON and layer in (0, k + 2):
        return range(m) if layer == 0 else range(params.n_edges - m, params.n_edges)
    if kind == EDGE_HORIZONTAL and 0 <= layer <= k + 1:
        return range(m + 3 * m * layer, 2 * m + 3 * m * layer)
    if kind in (EDGE_UP, EDGE_DOWN) and 1 <= layer <= k + 1:
        start = 3 * m * layer - m + (kind == EDGE_DOWN)
        return range(start, start + 2 * m, 2)
    raise InvalidParamsError(f"F({m},{k}) has no {kind} edges in layer {layer}")


# ---------------------------------------------------------------------------
# structural validation by planar face walk
# ---------------------------------------------------------------------------

def _vertex_cell(params: BarrelParams, v: int) -> tuple[int, int]:
    """(column, height) of vertex v on the unrolled cylinder, heights in half slots:
    u_l is (0, 2l), w_{j,i} is (j, i) and u'_l is (k+2, 2l+1)."""
    m = params.m
    if v < m:
        return 0, 2 * v
    j, i = divmod(v - m, 2 * m)
    return (j + 1, i) if j <= params.k else (j + 1, 2 * i + 1)


def _vertex_positions(params: BarrelParams) -> list[tuple[float, float]]:
    """Concentric-circle plane embedding: cell (c, h) at radius 1 + c, angle h pi / m.

    Every horizontal edge joins cells of (near-)equal height, so it is
    (near-)radial and the straight-line drawing is crossing-free.
    """
    step = math.pi / params.m  # angle between consecutive big-cycle positions
    pos: list[tuple[float, float]] = []
    for v in range(params.n_vertices):
        column, height = _vertex_cell(params, v)
        r, a = 1.0 + column, step * height
        pos.append((r * math.cos(a), r * math.sin(a)))
    return pos


def _face_size_census(g: BarrelGraph) -> dict[int, int]:
    """Face sizes of the plane embedding, found by tracing rotation-system orbits."""
    pos = _vertex_positions(g.params)
    n = g.n_vertices
    rot: list[list[int]] = []
    for v in range(n):
        nbrs = [u for u, _ in g.adjacency[v]]
        nbrs.sort(key=lambda u: math.atan2(pos[u][1] - pos[v][1], pos[u][0] - pos[v][0]))
        rot.append(nbrs)

    sizes: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    for v0 in range(n):
        for u0 in rot[v0]:
            if (v0, u0) in seen:
                continue
            size = 0
            v, u = v0, u0
            while (v, u) not in seen:
                seen.add((v, u))
                size += 1
                idx = rot[u].index(v)
                v, u = u, rot[u][(idx + 1) % len(rot[u])]
            sizes[size] = sizes.get(size, 0) + 1
    return sizes


def validate_structure(g: BarrelGraph) -> FaceCensusReport:
    """Check cubicity, counts, and the face census; raise on the first violation."""
    m, k = g.m, g.k
    if g.n_vertices != 2 * m * (k + 2):
        raise StructuralViolationError(
            f"vertex count {g.n_vertices} != 2m(k+2) = {2 * m * (k + 2)}")
    if g.n_edges != 3 * m * (k + 2):
        raise StructuralViolationError(
            f"edge count {g.n_edges} != 3m(k+2) = {3 * m * (k + 2)}")
    for v, row in enumerate(g.adjacency):
        if len(row) != 3:
            raise StructuralViolationError(
                f"vertex {g.labels[v]} has degree {len(row)}, graph is not cubic")
        if len({u for u, _ in row}) != 3:
            raise StructuralViolationError(f"parallel edges at vertex {g.labels[v]}")

    sizes = _face_size_census(g)
    n_faces = sum(sizes.values())
    euler = g.n_vertices - g.n_edges + n_faces
    if euler != 2:
        raise StructuralViolationError(
            f"Euler characteristic V-E+F = {euler} != 2; embedding is not spherical")

    expected: dict[int, int] = {}
    for size, count in ((m, 2), (5, 2 * m), (6, m * k)):
        if count:
            expected[size] = expected.get(size, 0) + count
    if sizes != expected:
        raise StructuralViolationError(
            f"face census {dict(sorted(sizes.items()))} != expected {dict(sorted(expected.items()))}")

    return FaceCensusReport(
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        n_faces=n_faces,
        face_sizes=tuple(sorted(sizes.items())),
        m_gons=2,
        pentagons=2 * m,
        hexagons=m * k,
        euler_characteristic=euler,
    )


# ---------------------------------------------------------------------------
# exact enumeration by backtracking
# ---------------------------------------------------------------------------

def _check_brute_cap(n_vertices: int) -> None:
    if n_vertices > BRUTE_VERTEX_CAP:
        raise TooLargeError(f"{n_vertices} vertices exceeds brute-force cap {BRUTE_VERTEX_CAP}")


def count_matchings_brute(g: BarrelGraph) -> int:
    """Count perfect matchings by backtracking on the lowest uncovered vertex.

    Deterministic and exact; refuses graphs above BRUTE_VERTEX_CAP since
    the search tree grows exponentially.
    """
    n = g.n_vertices
    _check_brute_cap(n)
    adjacency = g.adjacency
    covered = bytearray(n)

    def count_from(lo: int) -> int:
        while lo < n and covered[lo]:
            lo += 1
        if lo == n:
            return 1
        covered[lo] = 1
        total = 0
        for u, _eid in adjacency[lo]:
            if not covered[u]:
                covered[u] = 1
                total += count_from(lo + 1)
                covered[u] = 0
        covered[lo] = 0
        return total

    return count_from(0)


def enumerate_matchings(g: BarrelGraph) -> Iterator[Matching]:
    """Yield every perfect matching, in the deterministic backtracking order.

    The search keeps its own stack of [vertex, untried neighbours, partner]
    frames, one per matched edge, so its depth is not bounded by the
    interpreter's recursion limit.  More than ENUMERATION_CAP matchings
    raise TooManyMatchingsError.
    """
    n = g.n_vertices
    adjacency = g.adjacency
    covered = bytearray(n)
    chosen: list[int] = []
    frames: list[list] = []
    produced = 0
    lo = 0
    while True:
        while lo < n and covered[lo]:
            lo += 1
        if lo < n:
            covered[lo] = 1
            frames.append([lo, iter(adjacency[lo]), None])
        else:
            produced += 1
            if produced > ENUMERATION_CAP:
                raise TooManyMatchingsError(f"more than {ENUMERATION_CAP} perfect matchings")
            yield Matching(frozenset(chosen))
        # give the deepest frame its next free partner; drop the frames that have none
        while frames:
            frame = frames[-1]
            if frame[2] is not None:
                covered[frame[2]] = 0
                chosen.pop()
            for u, eid in frame[1]:
                if not covered[u]:
                    covered[u] = 1
                    chosen.append(eid)
                    frame[2] = u
                    break
            else:
                covered[frame[0]] = 0
                frames.pop()
                continue
            lo = frame[0] + 1
            break
        else:
            return


def is_perfect(g: BarrelGraph, matching: Matching) -> bool:
    seen: set[int] = set()
    for eid in matching.edges:
        if not 0 <= eid < g.n_edges:
            return False
        e = g.edges[eid]
        if e.u in seen or e.v in seen:
            return False
        seen.add(e.u)
        seen.add(e.v)
    return len(seen) == g.n_vertices


def _require_perfect(g: BarrelGraph, matching: Matching) -> None:
    if not is_perfect(g, matching):
        raise NotPerfectMatchingError(
            f"edge set of size {len(matching.edges)} is not a perfect matching of F({g.m},{g.k})")


def horizontal_profile(g: BarrelGraph, matching: Matching) -> HorizontalProfile:
    """Layer subsets S_j = {l : e_{j,l} matched}, j = 0 .. k+1.

    Every perfect matching uses the same number of horizontal edges in
    each layer, with common cardinality congruent to m mod 2.
    """
    _require_perfect(g, matching)
    layers: list[set[int]] = [set() for _ in range(g.k + 2)]
    for eid in matching.edges:
        e = g.edges[eid]
        if e.kind == EDGE_HORIZONTAL:
            layers[e.layer].add(e.pos)
    profile = HorizontalProfile(tuple(frozenset(s) for s in layers))
    cards = {len(s) for s in profile.layers}
    if len(cards) != 1:
        raise StructuralViolationError(f"layer cardinalities differ: {sorted(cards)}")
    if profile.cardinality % 2 != g.m % 2:
        raise StructuralViolationError("profile cardinality has wrong parity")
    return profile


_RHOMBUS_KIND = {
    EDGE_HORIZONTAL: "horizontal",
    EDGE_UP: "up",
    EDGE_DOWN: "down",
    EDGE_MGON: "cap",
}


def matching_to_tiling(g: BarrelGraph, matching: Matching) -> Tiling:
    """Rhombus tiling of the matching: one rhombus per matched edge."""
    _require_perfect(g, matching)
    rhombi = tuple(sorted((eid, _RHOMBUS_KIND[g.edges[eid].kind]) for eid in matching.edges))
    if len(rhombi) != g.n_vertices // 2:
        raise StructuralViolationError(f"{len(rhombi)} rhombi for {g.n_vertices} vertices")
    return Tiling(rhombi)


def tiling_to_matching(g: BarrelGraph, tiling: Tiling) -> Matching:
    matching = tiling.to_matching()
    _require_perfect(g, matching)
    return matching


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def export_graph(g: BarrelGraph, fmt: str = "edges") -> str:
    """Serialize the graph; "edges" is one line per edge "u v kind",
    "adj" is one line per vertex "label: n1 n2 n3"."""
    if fmt == "edges":
        lines = [f"{g.labels[e.u]} {g.labels[e.v]} {e.kind_token()}" for e in g.edges]
        return "\n".join(lines) + "\n"
    if fmt == "adj":
        lines = []
        for v in range(g.n_vertices):
            nbrs = " ".join(g.labels[u] for u, _ in g.adjacency[v])
            lines.append(f"{g.labels[v]}: {nbrs}")
        return "\n".join(lines) + "\n"
    raise UnknownFormatError(f"unknown graph format {fmt!r}")


def parse_edge_list(text: str) -> BarrelGraph:
    """Parse the "edges" format back into the canonical graph.

    The member of the barrel family is recovered from the labels, and the
    listed edges must match the canonical construction exactly.
    """
    seen_edges: dict[frozenset[str], str] = {}
    left: set[int] = set()
    layers: set[int] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise UnknownFormatError(f"line {line_no}: expected 'u v kind', got {line!r}")
        ulab, vlab, kind = parts
        if ulab == vlab:
            raise UnknownFormatError(f"line {line_no}: self-loop {ulab}")
        key = frozenset((ulab, vlab))
        if key in seen_edges:
            raise UnknownFormatError(f"line {line_no}: duplicate edge {ulab} {vlab}")
        seen_edges[key] = kind
        for lab in (ulab, vlab):
            fields = lab.split(":")
            try:
                if {"L": 2, "C": 3, "R": 2}.get(fields[0]) != len(fields):
                    raise ValueError(lab)
                numbers = [int(f) for f in fields[1:]]
                if fields[0] == "L":
                    left.add(numbers[0])
                elif fields[0] == "C":
                    layers.add(numbers[0])
            except ValueError:  # a wrong shape, or a number int() refuses
                raise UnknownFormatError(f"line {line_no}: bad vertex label {lab!r}") from None

    if not left or not layers:
        raise UnknownFormatError("edge list lacks cap or cycle vertices")
    m = max(left) + 1
    k = max(layers) - 1
    params = BarrelParams(m, k)
    # The count goes first: the graph is sized by the largest labels alone.
    g = build_graph(params) if len(seen_edges) == params.n_edges else None
    if g is None or seen_edges != {frozenset((g.labels[e.u], g.labels[e.v])): e.kind_token()
                                   for e in g.edges}:
        raise StructuralViolationError(
            f"edge list does not describe the canonical F({m},{k})")
    return g
