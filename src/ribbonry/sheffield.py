"""Tile-adjacency graphs of ribbon-tileable regions and their orientations.

For a region tileable by n-ribbons, the number of tiles rooted at each level
is the same in every tiling, so tiles can be addressed by (level, rank) with
ranks counted left to right by root x.  The graph has one vertex per address
and an edge whenever two addresses are at most n levels apart.  Edge classes:

- same_level: both endpoints on one level; always oriented by rank.
- forced_n:   exactly n levels apart; on a simply connected region the
              direction is the same in every tiling (Sheffield 2002), but on
              a region with holes it can vary from tiling to tiling.
- free:       1..n-1 levels apart; tilings correspond one-to-one with the
              acyclic orientations that extend the fixed (tau) directions.

One left-of rule orients every pair, in every class.  Take tiles u and v
whose root levels are 0..n apart, u's root not above v's.  Each cell of v is
compared with u's cell on the same level or, past u's top, on the level
below; u lies left of v when u's cell is the more western one, and every
comparison must agree.  The comparison is pairwise; tiles sitting between
the two are irrelevant.  Arcs always point from the left tile to the right
tile.

`orientation_from_tiling` orients one `Tiling` as a set of VertexId arcs.
`verify_bijection` checks every tiling without building one: the listing
walk (`_Searcher.walk`) gives each as the positions of its placements in
root order, which is (level, x) order, so tile k is vertex k of the
vertices sorted by (level, rank).  The rule runs once per placement pair
met in the call, as a verdict keyed by the two positions, and an
orientation is an int with one bit per edge of `graph.edges`, set when the
arc runs from the edge's u to its v.  So tau is a mask test, injectivity a
set of ints, and acyclicity a peel over each vertex's in-neighbours as bits.
On 6x6 with n = 3 the rule runs 2,330 times instead of 401,145.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, TypeVar

from .enumeration import NotTileableError, _root_levels, _searcher_for, enumerate_tilings
from .region import Region, Tiling

if TYPE_CHECKING:
    from fractions import Fraction

_T = TypeVar("_T")

SAME_LEVEL = "same_level"
FREE = "free"
FORCED = "forced_n"


class GraphInconsistencyError(RuntimeError):
    """Raised when a tiling and a graph disagree.

    On a simply connected region that should be impossible.  On a region
    with holes it also flags a tiling that orients a forced pair against
    tau, since there the forced directions can vary between tilings.
    """


class VertexId(NamedTuple):
    level: int
    rank: int


@dataclass(frozen=True)
class SEdge:
    u: VertexId
    v: VertexId
    cls: str

    def __post_init__(self) -> None:
        if (self.u.level, self.u.rank) >= (self.v.level, self.v.rank):
            raise ValueError("edge endpoints must be ordered by (level, rank)")


@dataclass(frozen=True)
class SGraph:
    """Vertices, classed edges, and the tiling-independent arc set tau."""

    n: int
    vertices: tuple[VertexId, ...]
    edges: tuple[SEdge, ...]
    tau: frozenset[tuple[VertexId, VertexId]]

    @property
    def free_edges(self) -> tuple[SEdge, ...]:
        return tuple(e for e in self.edges if e.cls == FREE)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": [[v.level, v.rank] for v in self.vertices],
            "edges": [
                {"u": [e.u.level, e.u.rank], "v": [e.v.level, e.v.rank], "class": e.cls}
                for e in self.edges
            ],
            "tau": sorted(
                [[a.level, a.rank], [b.level, b.rank]] for a, b in self.tau
            ),
        }


def _label_tiles(tiling: Tiling) -> dict[VertexId, dict[int, int]]:
    """Address each tile as (root level, left-to-right rank within the level).

    Each address maps to the tile's cells as {level: x}, all the left-of
    rule reads.
    """
    by_level: dict[int, list[dict[int, int]]] = {}
    for tile in tiling.tiles:
        by_level.setdefault(tile.root.level, []).append({c.level: c.x for c in tile.cells()})
    labels: dict[VertexId, dict[int, int]] = {}
    for level, tiles in by_level.items():
        for rank, x_at in enumerate(sorted(tiles, key=lambda t: t[level]), start=1):
            labels[VertexId(level, rank)] = x_at
    return labels


def _first_tiling(region: Region, n: int, tilings: Iterator[_T]) -> _T:
    """The first of `tilings`, as Tilings or as walked placements."""
    first = next(tilings, None)
    if first is None:
        raise NotTileableError(f"region of area {region.area} has no {n}-ribbon tiling")
    return first


def tile_levels(region: Region, n: int) -> dict[int, int]:
    """Number of tiles rooted at each level (a tiling-independent profile)."""
    _first_tiling(region, n, enumerate_tilings(region, n))  # the histogram cannot prove one exists
    return _root_levels(region, n)


def _arc(u: VertexId, u_x: dict[int, int], v: VertexId, v_x: dict[int, int]) -> tuple[VertexId, VertexId]:
    """Orient u-v by the left-of rule (module docstring), left tile -> right.

    u's root must lie 0..n levels below v's.  Raises GraphInconsistencyError
    unless every comparison of the rule agrees.
    """
    top = u.level + len(u_x) - 1
    verdicts = {u_x[min(level, top)] < x for level, x in v_x.items() if level <= top + 1}
    if len(verdicts) != 1:
        raise GraphInconsistencyError(f"tiles {u} and {v} lie neither left nor right of each other")
    return (u, v) if verdicts.pop() else (v, u)


def build_graph(region: Region, n: int) -> SGraph:
    """Construct the tile-adjacency graph from the region's first tiling."""
    return _graph_of(_first_tiling(region, n, enumerate_tilings(region, n)), n)


def _graph_of(first: Tiling, n: int) -> SGraph:
    """The tile-adjacency graph read off `first`, the region's first n-ribbon tiling."""
    labels = _label_tiles(first)
    vertices = tuple(sorted(labels))
    edges: list[SEdge] = []
    tau: set[tuple[VertexId, VertexId]] = set()
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            gap = v.level - u.level
            if gap > n:
                break  # vertices ascend by level: the rest are further up
            cls = SAME_LEVEL if gap == 0 else FORCED if gap == n else FREE
            edges.append(SEdge(u, v, cls))
            if cls != FREE:
                tau.add(_arc(u, labels[u], v, labels[v]))
    graph = SGraph(n=n, vertices=vertices, edges=tuple(edges), tau=frozenset(tau))
    if not is_acyclic(graph.vertices, graph.tau):
        raise GraphInconsistencyError("fixed arc set tau contains a directed cycle")
    return graph


def is_acyclic(vertices: Iterable[VertexId], arcs: Iterable[tuple[VertexId, VertexId]]) -> bool:
    """True iff the arcs form no directed cycle (a self-loop counts as one).

    Kahn's peeling: repeatedly remove vertices with no incoming arc; the
    arcs are acyclic exactly when every vertex is removed.
    """
    out: dict[VertexId, list[VertexId]] = {v: [] for v in vertices}
    indegree = dict.fromkeys(out, 0)
    for a, b in arcs:
        out[a].append(b)
        indegree[b] += 1
    sources = [v for v, d in indegree.items() if d == 0]
    peeled = 0
    while sources:
        peeled += 1
        for b in out[sources.pop()]:
            indegree[b] -= 1
            if indegree[b] == 0:
                sources.append(b)
    return peeled == len(out)


def _acyclic(into: list[int]) -> bool:
    """is_acyclic over vertices 0..len(into) - 1, each given by its in-neighbours as bits.

    Sweeps the vertices in index order, peeling each one whose in-neighbours
    are all peeled, until every vertex is peeled or a sweep peels none.  On a
    tile graph's few vertices this costs less than building is_acyclic's
    dicts anew for every tiling.
    """
    left = (1 << len(into)) - 1
    while left:
        before = left
        for k, sources in enumerate(into):
            if not sources & left:
                left &= ~(1 << k)
        if left == before:
            return False
    return True


def orientation_from_tiling(tiling: Tiling, graph: SGraph) -> frozenset[tuple[VertexId, VertexId]]:
    """The acyclic orientation this tiling induces on the graph's edges.

    Every edge is oriented from the tiling by the left-of rule.  Raises
    GraphInconsistencyError if the tiling's level profile does not match
    the graph, if the rule is ambiguous on some edge, if the result does
    not extend tau (a forced pair turned round, possible only on a region
    with holes) or if it contains a cycle.
    """
    labels = _label_tiles(tiling)
    if labels.keys() != set(graph.vertices):
        raise GraphInconsistencyError("tiling level profile does not match graph vertices")
    result = frozenset(_arc(e.u, labels[e.u], e.v, labels[e.v]) for e in graph.edges)
    if not graph.tau <= result:
        raise GraphInconsistencyError("tiling orients a forced pair against tau")
    if not is_acyclic(graph.vertices, result):
        raise GraphInconsistencyError("induced orientation contains a cycle")
    return result


def _prefix_counts(graph: SGraph) -> list[int]:
    """A_l for l = 0..top: admissible orientations of the levels <= l subgraph.

    One pass over the vertices in (level, rank) order.  Each free edge and
    tau arc is decided at its later endpoint.  A state is the reachability
    relation among the live vertices, those with a neighbour still to come,
    stored as one bitmask per live vertex; a vertex retires once its last
    neighbour has joined.  An arc a -> b is allowed iff b does not already
    reach a, and the state counts summed after a level give its prefix count.
    """
    order = sorted(graph.vertices)
    pos = {v: i for i, v in enumerate(order)}
    options: list[list[tuple[tuple[int, int], ...]]] = [[] for _ in order]
    last = list(range(len(order)))  # position of each vertex's last neighbour
    choices = [((a, b),) for a, b in graph.tau]
    choices += [((e.u, e.v), (e.v, e.u)) for e in graph.free_edges]
    for choice in choices:
        arcs = tuple((pos[a], pos[b]) for a, b in choice)
        u, v = sorted(arcs[0])
        options[v].append(arcs)
        last[u] = max(last[u], v)
    live: list[int] = []
    states: dict[tuple[int, ...], int] = {(): 1}
    counts: list[int] = []
    for v, vertex in enumerate(order):
        while len(counts) < vertex.level:
            counts.append(sum(states.values()))
        live.append(v)
        slot = {p: k for k, p in enumerate(live)}
        states = {state + (1 << v,): ways for state, ways in states.items()}
        for arcs in options[v]:
            grown: dict[tuple[int, ...], int] = {}
            for state, ways in states.items():
                for a, b in arcs:
                    reach_b = state[slot[b]]
                    if reach_b >> a & 1:
                        continue  # b reaches a: the arc would close a cycle
                    key = tuple(m | reach_b if m >> a & 1 else m for m in state)
                    grown[key] = grown.get(key, 0) + ways
            states = grown
        keep = [k for k, p in enumerate(live) if last[p] > v]
        gone = sum(1 << p for p in live if last[p] <= v)
        merged: dict[tuple[int, ...], int] = {}
        for state, ways in states.items():
            key = tuple(state[k] & ~gone for k in keep)
            merged[key] = merged.get(key, 0) + ways
        states = merged
        live = [live[k] for k in keep]
    counts.append(sum(states.values()))
    return counts


def count_admissible_orientations(graph: SGraph) -> int:
    """Number of acyclic orientations of the graph that extend tau.

    Counted by one level-window pass (see _prefix_counts), whose states
    span only the vertices within n levels of the current one, so the run
    time does not grow with the count returned.  An acyclic tau always has
    an extension (orient each free edge along a topological order), and the
    pass refuses the arc that closes any cycle of tau, so a count of 0 means
    tau is cyclic; that raises GraphInconsistencyError.
    """
    count = _prefix_counts(graph)[-1]
    if count == 0:
        raise GraphInconsistencyError("fixed arc set tau contains a directed cycle")
    return count


# ---------------------------------------------------------------------------
# Chromatic polynomials


@dataclass(frozen=True)
class ChromaticPoly:
    """Integer polynomial, coefficients ascending; degree = vertex count."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value


def _chromatic(adj: dict[int, set[int]]) -> list[int]:
    """Coefficients of P(G), ascending, for G given by adjacency sets (consumed).

    A simplicial vertex v, one whose neighbours are pairwise adjacent, gives
    P(G) = (x - deg v) * P(G - v), so each graph on the work list is peeled
    one simplicial vertex at a time into its factor; an empty graph adds its
    factor to the total.  Chordal graphs, tile graphs among them, peel to
    nothing.  A graph left with no simplicial vertex is split on an edge ab
    at a highest-degree vertex: P(G) = P(G - ab) - P(G / ab).
    """
    total = [0] * (len(adj) + 1)
    work = [([1], adj)]
    while work:
        factor, adj = work.pop()
        # Removing v can make only v's neighbours simplicial.
        candidates = list(adj)
        while candidates:
            v = candidates.pop()
            nbs = adj.get(v)
            if nbs is None or any(len(adj[u] & nbs) < len(nbs) - 1 for u in nbs):
                continue
            d = len(nbs)
            factor = [lo - d * hi for lo, hi in zip([0] + factor, factor + [0])]
            del adj[v]
            for u in nbs:
                adj[u].discard(v)
            candidates.extend(nbs)
        if not adj:
            for i, c in enumerate(factor):
                total[i] += c
            continue
        a = max(adj, key=lambda x: len(adj[x]))
        b = max(adj[a], key=lambda x: len(adj[x]))
        contracted = {x: {a if y == b else y for y in nbs} for x, nbs in adj.items() if x != b}
        contracted[a] = (adj[a] | adj[b]) - {a, b}
        adj[a].discard(b)
        adj[b].discard(a)
        work.append((factor, adj))
        work.append(([-c for c in factor], contracted))
    return total


def chromatic_polynomial(graph: SGraph) -> ChromaticPoly:
    """Chromatic polynomial of the graph's underlying undirected graph.

    Computed by peeling simplicial vertices, which finishes every chordal
    graph (tile graphs are chordal); deletion-contraction splits only a
    graph with no simplicial vertex left.  Edge classes and tau directions
    are ignored.  SEdge refuses a loop, so every graph has proper colorings.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    adj: dict[int, set[int]] = {i: set() for i in index.values()}
    for e in graph.edges:
        adj[index[e.u]].add(index[e.v])
        adj[index[e.v]].add(index[e.u])
    return ChromaticPoly(tuple(_chromatic(adj)))


def acyclic_count_via_chromatic(graph: SGraph) -> int:
    """Number of acyclic orientations of the underlying undirected graph.

    Stanley's theorem gives it as |chi(-1)|.  Every edge counts as free and
    tau is ignored; count_admissible_orientations counts those extending tau.
    """
    return abs(chromatic_polynomial(graph)(-1))


# ---------------------------------------------------------------------------
# Isomorphism


_Incidence = dict[VertexId, list[tuple[str, str, VertexId]]]


def _incidence(graph: SGraph) -> _Incidence:
    """Each vertex's (class, direction, neighbour) entries, in graph.vertices order.

    The direction is "out" along a tau arc leaving the vertex, "in" along
    one entering it, and "-" on a free edge.
    """
    incident: _Incidence = {v: [] for v in graph.vertices}
    for e in graph.edges:
        if e.cls == FREE:
            du = dv = "-"
        else:
            du, dv = ("out", "in") if (e.u, e.v) in graph.tau else ("in", "out")
        incident[e.u].append((e.cls, du, e.v))
        incident[e.v].append((e.cls, dv, e.u))
    return incident


def _refine_colors(incident: _Incidence) -> dict[VertexId, int]:
    """The coarsest equitable colouring of the classed, directed incidences.

    It starts from each vertex's BFS distance to a least-degree vertex (-1
    if none is reachable), which the stable colouring determines anyway, so
    long strips settle in a few rounds instead of hundreds.
    """
    least = min(map(len, incident.values()), default=0)
    color = {v: 0 if len(entries) == least else -1 for v, entries in incident.items()}
    queue = [v for v, c in color.items() if c == 0]
    for v in queue:  # also visits the vertices appended below
        for _, _, nb in incident[v]:
            if color[nb] == -1:
                color[nb] = color[v] + 1
                queue.append(nb)
    while True:
        signatures = {
            v: (color[v], tuple(sorted((cls, d, color[nb]) for cls, d, nb in entries)))
            for v, entries in incident.items()
        }
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
        new_color = {v: palette[sig] for v, sig in signatures.items()}
        if len(palette) == len(set(color.values())):
            return new_color
        color = new_color


def graphs_isomorphic(g1: SGraph, g2: SGraph) -> tuple[bool, dict[VertexId, VertexId] | None]:
    """Isomorphism preserving edge classes and tau directions; returns a witness.

    Vertex levels and ranks need not correspond; only the classed, partially
    directed structure must.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return (False, None)
    by_class1 = sorted(e.cls for e in g1.edges)
    by_class2 = sorted(e.cls for e in g2.edges)
    if by_class1 != by_class2:
        return (False, None)
    # The refinement is deterministic, so color ids are comparable across
    # isomorphic graphs and a census mismatch is a definite no.
    incident1, incident2 = _incidence(g1), _incidence(g2)
    colors1 = _refine_colors(incident1)
    colors2 = _refine_colors(incident2)
    if Counter(colors1.values()) != Counter(colors2.values()):
        return (False, None)
    candidates = {
        v: [w for w in g2.vertices if colors2[w] == colors1[v]] for v in g1.vertices
    }
    order = sorted(g1.vertices, key=lambda v: len(candidates[v]))
    mapping: dict[VertexId, VertexId] = {}
    used: set[VertexId] = set()

    def compatible(v: VertexId, w: VertexId) -> bool:
        """v's edges to mapped vertices carry over to w's edges to their images."""
        mapped = Counter((cls, d, mapping[nb]) for cls, d, nb in incident1[v] if nb in mapping)
        return mapped == Counter(entry for entry in incident2[w] if entry[2] in used)

    # Backtracking over `order` with an explicit stack: frame i iterates the
    # untried images of order[i], and order[:len(mapping)] is mapped.
    stack: list[Iterator[VertexId]] = []
    while len(mapping) < len(order):
        if len(stack) == len(mapping):
            stack.append(iter(candidates[order[len(mapping)]]))
        v = order[len(stack) - 1]
        for w in stack[-1]:
            if w not in used and compatible(v, w):
                mapping[v] = w
                used.add(w)
                break
        else:
            stack.pop()
            if not stack:
                return (False, None)
            used.remove(mapping.pop(order[len(stack) - 1]))
    return (True, dict(mapping))


# ---------------------------------------------------------------------------
# Verification reports


@dataclass(frozen=True)
class BijectionReport:
    tiling_count: int
    orientation_count: int
    injective: bool

    @property
    def ok(self) -> bool:
        return self.tiling_count == self.orientation_count and self.injective


def verify_bijection(region: Region, n: int) -> BijectionReport:
    """Check tilings map one-to-one onto the admissible acyclic orientations.

    Walks every tiling once, so the region must be small enough for that;
    the graph is built from the walk's first tiling, as build_graph does.
    Each tiling comes from the walk as the positions of its placements in
    root order, so its tile k is graph vertex k (see the module docstring),
    and its orientation is read off those positions, with the checks of
    orientation_from_tiling in the same order: the level profile, the
    left-of rule on every edge, tau, and acyclicity.  The walk's tiling
    count is compared with count_admissible_orientations, an independent
    engine, and the orientations must be pairwise distinct.  Raises
    NotTileableError if the region has no tiling, and
    GraphInconsistencyError on a region with holes whose tilings do not all
    orient the forced pairs alike.
    """
    searcher = _searcher_for(region, n)
    tiles = searcher.tiles
    positions = [(position,) for position in range(len(tiles))]
    tilings = searcher.walk((), positions, positions)
    first = _first_tiling(region, n, tilings)
    graph = _graph_of(Tiling(region, tuple(map(tiles.__getitem__, first))), n)
    vertices = graph.vertices
    levels = tuple(v.level for v in vertices)
    root_level = [tile.root.level for tile in tiles]
    x_at = [{c.level: c.x for c in tile.cells()} for tile in tiles]
    index = {v: k for k, v in enumerate(vertices)}
    # Per edge: its bit in an orientation, set when the arc runs u -> v; its
    # ends' indices; and each end as a bit of an in-neighbour mask.
    edges = []
    fixed = forward = 0  # the edges tau orients, and those it orients u -> v
    for k, e in enumerate(graph.edges):
        i, j = index[e.u], index[e.v]
        edges.append((1 << k, i, j, 1 << i, 1 << j))
        if (e.u, e.v) in graph.tau:
            fixed, forward = fixed | 1 << k, forward | 1 << k
        elif (e.v, e.u) in graph.tau:
            fixed |= 1 << k
    left_of: dict[tuple[int, int], bool] = {}  # (p, q): placement p lies left of placement q
    seen: set[int] = set()
    count = 0
    for tiling in chain((first,), tilings):
        count += 1
        if tuple(map(root_level.__getitem__, tiling)) != levels:
            raise GraphInconsistencyError("tiling level profile does not match graph vertices")
        orientation = 0
        into = [0] * len(vertices)  # each vertex's in-neighbours, as bits
        for bit, i, j, from_i, from_j in edges:
            pair = (tiling[i], tiling[j])
            left = left_of.get(pair)
            if left is None:
                u = vertices[i]
                left = left_of[pair] = _arc(u, x_at[pair[0]], vertices[j], x_at[pair[1]])[0] is u
            if left:
                orientation |= bit
                into[j] |= from_i
            else:
                into[i] |= from_j
        if orientation & fixed != forward:
            raise GraphInconsistencyError("tiling orients a forced pair against tau")
        if not _acyclic(into):
            raise GraphInconsistencyError("induced orientation contains a cycle")
        seen.add(orientation)
    return BijectionReport(
        tiling_count=count,
        orientation_count=count_admissible_orientations(graph),
        injective=len(seen) == count,
    )


@dataclass(frozen=True)
class LevelGrowth:
    level: int
    tiles_at_level: int
    window_tiles: int
    growth: Fraction
    binom_bound: int
    en_bound: float | None
    ok: bool


@dataclass(frozen=True)
class GrowthReport:
    n: int
    counts: tuple[int, ...]
    rows: tuple[LevelGrowth, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def verify_growth_bounds(region: Region, n: int) -> GrowthReport:
    """Check level-by-level growth of admissible orientation counts.

    For a rectangle whose row count is a multiple of n, let H_l be the
    subgraph induced by vertices of level <= l and A_l its admissible
    orientation count.  Each ratio g_l = A_l / A_{l-1} must satisfy
    g_l <= C(S_l, T_l), with T_l the vertices at level l and S_l the total
    over levels l-n+1..l; and g_l <= (e*n)^{T_l} up to the last level of
    maximal T_l.
    """
    if not region.is_rectangle():
        raise ValueError("growth bounds are defined for rectangles")
    _, _, max_x, max_y = region.bounds
    if (max_y + 1) % n:
        raise ValueError(f"row count {max_y + 1} is not a multiple of n={n}")
    from fractions import Fraction  # with `decimal`, about 3.5 ms of a fresh start; only this needs it

    graph = build_graph(region, n)
    tiles_per_level = Counter(v.level for v in graph.vertices)
    top = max(tiles_per_level)
    t_max = max(tiles_per_level.values())
    last_widest = max(l for l, t in tiles_per_level.items() if t == t_max)
    counts = _prefix_counts(graph)
    rows = []
    for level in range(1, top + 1):
        t_l = tiles_per_level.get(level, 0)
        s_l = sum(tiles_per_level.get(k, 0) for k in range(level - n + 1, level + 1))
        growth = Fraction(counts[level], counts[level - 1])
        binom = math.comb(s_l, t_l)
        en = (math.e * n) ** t_l if level <= last_widest else None
        ok = growth <= binom and (en is None or float(growth) <= en)
        rows.append(
            LevelGrowth(
                level=level,
                tiles_at_level=t_l,
                window_tiles=s_l,
                growth=growth,
                binom_bound=binom,
                en_bound=en,
                ok=ok,
            )
        )
    return GrowthReport(n=n, counts=tuple(counts), rows=tuple(rows))


def to_dot(graph: SGraph) -> str:
    """Graphviz rendering: tau arcs solid and directed, free edges dashed."""
    def name(v: VertexId) -> str:
        return f"L{v.level}R{v.rank}"

    lines = ["digraph ribbon_tile_graph {", "  rankdir=BT;"]
    for v in graph.vertices:
        lines.append(f'  {name(v)} [label="({v.level},{v.rank})"];')
    for e in graph.edges:
        if e.cls == FREE:
            lines.append(f"  {name(e.u)} -> {name(e.v)} [style=dashed, dir=none];")
        else:
            a, b = (e.u, e.v) if (e.u, e.v) in graph.tau else (e.v, e.u)
            lines.append(f'  {name(a)} -> {name(b)} [style=solid, class="{e.cls}"];')
    lines.append("}")
    return "\n".join(lines)
