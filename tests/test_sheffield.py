"""Tile adjacency graphs, orientations, chromatic engine, isomorphism, growth."""

import math
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    bijection_oracle,
    count_acyclic_oracle,
    count_colorings_oracle,
    falling_poly,
    forced_arc_reference,
    light_arc_reference,
    poly_mul,
    poly_pow,
)
from ribbonry import (
    Cell,
    GraphInconsistencyError,
    Region,
    SEdge,
    SGraph,
    VertexId,
    acyclic_count_via_chromatic,
    build_aztec,
    build_graph,
    build_rectangle,
    build_stair,
    chromatic_polynomial,
    count_admissible_orientations,
    count_tilings,
    enumerate_tilings,
    graphs_isomorphic,
    is_acyclic,
    is_tileable,
    orientation_from_tiling,
    parse_region,
    sample_tiling,
    tile_levels,
    to_dot,
    verify_bijection,
    verify_growth_bounds,
)
from ribbonry import enumeration, sheffield
from ribbonry.enumeration import _Searcher
from ribbonry.sheffield import FORCED, FREE, SAME_LEVEL
from ribbonry.verify import bijection_battery

GRAPH_BATTERY = [
    (build_rectangle(3, 3), 3),
    (build_rectangle(3, 4), 3),
    (build_rectangle(3, 6), 3),
    (build_rectangle(2, 4), 2),
    (build_rectangle(4, 4), 4),
    (build_stair(6, 3), 3),
    (build_stair(8, 5), 5),
    (build_aztec(2, 2, 0), 2),
    (build_aztec(2, 3, 1), 3),
    (parse_region(".##.\n####\n####\n.##."), 2),
    (parse_region(".####\n#####"), 3),
]

RING = "###\n#.#\n###"


def test_tile_levels_constant_across_tilings():
    for region, n in [(build_rectangle(3, 6), 3), (build_aztec(2, 2, 0), 2)]:
        profile = tile_levels(region, n)
        for tiling in enumerate_tilings(region, n):
            seen: dict[int, int] = {}
            for tile in tiling.tiles:
                seen[tile.root.level] = seen.get(tile.root.level, 0) + 1
            assert seen == profile


def test_tile_levels_profile_golden():
    assert tile_levels(build_rectangle(3, 6), 3) == {l: 1 for l in range(6)}
    assert tile_levels(build_rectangle(6, 9), 3) == {
        0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 1, 10: 1, 11: 1,
    }


def test_graph_edges_iff_levels_within_n():
    for region, n in GRAPH_BATTERY:
        graph = build_graph(region, n)
        have = {frozenset((e.u, e.v)) for e in graph.edges}
        assert len(have) == len(graph.edges)
        vertices = list(graph.vertices)
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                expected = abs(u.level - v.level) <= n
                assert (frozenset((u, v)) in have) == expected


def test_graph_edge_classes_by_level_gap():
    for region, n in GRAPH_BATTERY:
        graph = build_graph(region, n)
        for e in graph.edges:
            gap = abs(e.u.level - e.v.level)
            if gap == 0:
                assert e.cls == SAME_LEVEL
            elif gap == n:
                assert e.cls == FORCED
            else:
                assert e.cls == FREE


def test_tau_covers_exactly_the_non_free_edges():
    for region, n in GRAPH_BATTERY:
        graph = build_graph(region, n)
        fixed_pairs = {frozenset((a, b)) for a, b in graph.tau}
        non_free = {frozenset((e.u, e.v)) for e in graph.edges if e.cls != FREE}
        assert fixed_pairs == non_free
        assert is_acyclic(graph.vertices, graph.tau)
        for a, b in graph.tau:
            if a.level == b.level:
                assert a.rank < b.rank


def test_square_graph_is_complete_with_all_edges_free():
    for n in (2, 3, 4):
        graph = build_graph(build_rectangle(n, n), n)
        assert len(graph.vertices) == n
        assert len(graph.edges) == n * (n - 1) // 2
        assert all(e.cls == FREE for e in graph.edges)
        assert graph.tau == frozenset()
        assert count_admissible_orientations(graph) == math.factorial(n)


def test_strip_graph_has_one_forced_edge():
    graph = build_graph(build_rectangle(3, 4), 3)
    classes = sorted(e.cls for e in graph.edges)
    assert classes == [FORCED] + [FREE] * 5
    assert graph.tau == frozenset({(VertexId(0, 1), VertexId(3, 1))})


def test_stair_graph_structure():
    graph = build_graph(build_stair(9, 5), 5)
    assert [v.level for v in graph.vertices] == [2 * k for k in range(9)]
    pairs = {(e.u.level, e.v.level) for e in graph.edges}
    want = {(2 * k, 2 * (k + i)) for k in range(9) for i in (1, 2) if k + i < 9}
    assert pairs == want
    assert all(e.cls == FREE for e in graph.edges)


def test_forced_direction_constant_across_tilings():
    for region, n in [(build_rectangle(3, 4), 3), (build_rectangle(4, 8), 4)]:
        graph = build_graph(region, n)
        forced = {frozenset((e.u, e.v)) for e in graph.edges if e.cls == FORCED}
        fixed = {arc for arc in graph.tau if frozenset(arc) in forced}
        for tiling in enumerate_tilings(region, n):
            orientation = orientation_from_tiling(tiling, graph)
            assert fixed <= orientation


def test_orientation_extends_tau_and_is_injective():
    for region, n in [(build_rectangle(3, 6), 3), (build_aztec(2, 3, 0), 3)]:
        graph = build_graph(region, n)
        seen = set()
        for tiling in enumerate_tilings(region, n):
            orientation = orientation_from_tiling(tiling, graph)
            assert graph.tau <= orientation
            assert is_acyclic(graph.vertices, orientation)
            seen.add(orientation)
        assert len(seen) == count_tilings(region, n)


def _tiles_by_slot(tiling) -> dict:
    """Each tile's cells, keyed by (root level, rank by root x within the level)."""
    slots = {}
    for tile in sorted(tiling.tiles, key=lambda t: (t.root.level, t.root.x)):
        rank = sum(1 for v in slots if v.level == tile.root.level) + 1
        slots[VertexId(tile.root.level, rank)] = tile.cells()
    return slots


def test_left_of_rule_matches_the_reference_rules():
    cases = GRAPH_BATTERY + [(region, n) for _, region, n in bijection_battery()]
    for region, n in cases:
        graph = build_graph(region, n)
        first = _tiles_by_slot(next(enumerate_tilings(region, n)))
        forced = [e for e in graph.edges if e.cls == FORCED]
        want = {forced_arc_reference(e.u, first[e.u], e.v, first[e.v]) for e in forced}
        assert {a for a in graph.tau if abs(a[0].level - a[1].level) == n} == want
        for tiling in islice(enumerate_tilings(region, n), 400):
            slots = _tiles_by_slot(tiling)
            free = {light_arc_reference(e.u, slots[e.u], e.v, slots[e.v]) for e in graph.free_edges}
            assert orientation_from_tiling(tiling, graph) == graph.tau | free, (region, n)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(2, 6), st.integers(2, 6)).flatmap(
        lambda size: st.sets(
            st.tuples(st.integers(0, size[0] - 1), st.integers(0, size[1] - 1)), max_size=4
        ).map(lambda gone: {(x, y) for x in range(size[0]) for y in range(size[1])} - gone)
    ),
    st.integers(2, 4),
)
def test_forced_directions_fixed_on_simply_connected_regions(cells, n):
    # Sheffield (2002): on a simply connected region every tiling orients
    # the exactly-n-apart pairs alike, so each one extends tau.
    assume(cells)
    region = Region.from_cells(cells)
    assume(region.is_simply_connected and is_tileable(region, n))
    graph = build_graph(region, n)
    for tiling in islice(enumerate_tilings(region, n), 200):
        assert graph.tau <= orientation_from_tiling(tiling, graph)


def test_holed_region_turns_a_forced_pair_round():
    # The 3x3 ring has 2 domino tilings; one of them orients a forced pair
    # against the tau read off the first, which no simply connected region does.
    ring = parse_region(RING)
    assert not ring.is_simply_connected
    graph = build_graph(ring, 2)
    raised = 0
    for tiling in enumerate_tilings(ring, 2):
        try:
            orientation_from_tiling(tiling, graph)
        except GraphInconsistencyError as exc:
            assert "against tau" in str(exc)
            raised += 1
    assert (raised, count_tilings(ring, 2)) == (1, 2)
    with pytest.raises(GraphInconsistencyError, match="against tau"):
        verify_bijection(ring, 2)


def _walked(region, n):
    """verify_bijection's outcome, as bijection_oracle gives it, and the
    number of tilings its walk had yielded when it returned or raised."""
    read = 0
    walk = _Searcher.walk

    def counted(self, *args):
        nonlocal read
        for tiling in walk(self, *args):
            read += 1
            yield tiling

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Searcher, "walk", counted)
        try:
            outcome = verify_bijection(region, n)
        except GraphInconsistencyError as exc:
            outcome = str(exc)
    return outcome, read


def test_bijection_matches_oracle():
    cases = [(region, n) for _, region, n in bijection_battery()] + GRAPH_BATTERY
    for region, n in cases:
        assert _walked(region, n) == bijection_oracle(region, n), (region, n)
    # The ring's second tiling turns a forced pair round.
    ring = parse_region(RING)
    assert _walked(ring, 2) == bijection_oracle(ring, 2) == ("tiling orients a forced pair against tau", 2)


@st.composite
def _holed_regions(draw, longest=6):
    """(cells, n): an n-ribbon tiling of a rectangle of 3 to `longest` rows
    and columns with 1 or 2 of its tiles that touch no side taken out, so
    the rest has a tiling and holes."""
    n = draw(st.integers(2, 4))
    cols = draw(st.integers(3, longest))
    rows = draw(st.sampled_from([r for r in range(3, longest + 1) if r % n == 0 or cols % n == 0]))
    tiling = sample_tiling(build_rectangle(rows, cols), n, seed=draw(st.integers(0, 2**16)))
    inner = [t for t in tiling.tiles if all(0 < x < cols - 1 and 0 < y < rows - 1 for x, y in t.cells())]
    assume(inner)
    gone = draw(st.lists(st.sampled_from(inner), min_size=1, max_size=2, unique=True))
    return {(x, y) for x in range(cols) for y in range(rows)} - {c for t in gone for c in t.cells()}, n


@settings(max_examples=60, deadline=None)
@given(_holed_regions())
@example(({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, 2))  # the ring
def test_bijection_matches_oracle_on_regions_with_holes(case):
    cells, n = case
    region = Region.from_cells(cells)
    assert not region.is_simply_connected
    assume(count_tilings(region, n) <= 2000)
    assert _walked(region, n) == bijection_oracle(region, n)


def test_bijection_matches_oracle_under_a_skewed_rule(monkeypatch):
    # A rule that, like the real one, reads only the two tiles, but finds
    # some pairs ambiguous and turns others round, so that tau, the orientations
    # and the report can each go wrong, at any tiling.
    arc = sheffield._arc

    def skewed(u, u_x, v, v_x):
        key = sum(u_x.values()) + 2 * sum(v_x.values()) + 3 * len(u_x) * u.level
        if key % 29 == 0:
            raise GraphInconsistencyError(f"tiles {u} and {v} lie neither left nor right of each other")
        a, b = arc(u, u_x, v, v_x)
        return (b, a) if key % 7 == 0 else (a, b)

    monkeypatch.setattr(sheffield, "_arc", skewed)
    outcomes = set()
    for region, n in [(region, n) for _, region, n in bijection_battery()] + GRAPH_BATTERY:
        walked = _walked(region, n)
        assert walked == bijection_oracle(region, n), (region, n)
        outcome = walked[0]
        outcomes.add(outcome.split(" lie ")[-1] if isinstance(outcome, str) else outcome.ok)
    assert outcomes == {
        True,
        False,
        "fixed arc set tau contains a directed cycle",
        "neither left nor right of each other",
        "tiling orients a forced pair against tau",
        "induced orientation contains a cycle",
    }


def test_verify_bijection_orients_each_placement_pair_once(monkeypatch):
    region = build_rectangle(6, 6)
    placements = len(_Searcher(region, 3).moves)
    arcs = tiles = 0
    arc, tile = sheffield._arc, enumeration.Tile

    def counted_arc(*args):
        nonlocal arcs
        arcs += 1
        return arc(*args)

    def counted_tile(*args):
        nonlocal tiles
        tiles += 1
        return tile(*args)

    monkeypatch.setattr(sheffield, "_arc", counted_arc)
    monkeypatch.setattr(enumeration, "Tile", counted_tile)
    assert verify_bijection(region, 3).tiling_count == 8914
    # Orienting every edge of every tiling anew took 401,145 calls.
    assert arcs <= 3000
    # One per placement, and at most one per tile of the first tiling: none per tiling.
    assert tiles <= placements + region.area // 3


def test_orientation_rejects_profile_mismatch():
    graph = build_graph(build_rectangle(3, 6), 3)
    foreign = next(enumerate_tilings(build_stair(6, 3), 3))
    with pytest.raises(GraphInconsistencyError, match="profile"):
        orientation_from_tiling(foreign, graph)


def test_admissible_count_matches_exhaustive_oracle():
    for region, n in GRAPH_BATTERY:
        graph = build_graph(region, n)
        if len(graph.free_edges) > 12:
            continue
        want = count_acyclic_oracle(
            graph.vertices, [(e.u, e.v) for e in graph.edges], graph.tau
        )
        assert count_admissible_orientations(graph) == want


def test_admissible_count_matches_tilings_on_large_graphs():
    for rows, cols, n, free in [(4, 16, 4, 42), (4, 40, 4, 114), (5, 40, 5, 150)]:
        region = build_rectangle(rows, cols)
        graph = build_graph(region, n)
        assert len(graph.free_edges) == free
        assert count_admissible_orientations(graph) == count_tilings(region, n), (rows, cols, n)
    assert count_admissible_orientations(build_graph(build_rectangle(4, 16), 4)) == 5_778_250


def test_admissible_count_at_free_edge_limit():
    # 30 free edges: the most the earlier one-orientation-at-a-time search
    # accepted. The level-window pass has no such limit; this is its edge case.
    region = build_rectangle(6, 6)
    graph = build_graph(region, 3)
    assert len(graph.free_edges) == 30
    assert count_admissible_orientations(graph) == count_tilings(region, 3) == 8914


def test_bijection_reports():
    report = verify_bijection(build_rectangle(3, 6), 3)
    assert report.ok
    assert report.tiling_count == report.orientation_count == 61
    assert report.injective
    assert verify_bijection(parse_region(".##.\n####\n####\n.##."), 2).ok


def test_admissible_count_refuses_cyclic_tau():
    a, b, c = VertexId(0, 1), VertexId(1, 1), VertexId(2, 1)
    edges = (SEdge(a, b, FORCED), SEdge(b, c, FORCED), SEdge(a, c, FORCED))
    cyclic = SGraph(n=1, vertices=(a, b, c), edges=edges, tau=frozenset({(a, b), (b, c), (c, a)}))
    with pytest.raises(GraphInconsistencyError, match="directed cycle"):
        count_admissible_orientations(cyclic)
    acyclic = SGraph(n=1, vertices=(a, b, c), edges=edges, tau=frozenset({(a, b), (b, c), (a, c)}))
    assert count_admissible_orientations(acyclic) == 1


def test_is_acyclic():
    a, b, c, d = (VertexId(level, 1) for level in range(4))
    e, f = VertexId(4, 1), VertexId(5, 1)
    assert is_acyclic([a, b, c], [(a, b), (b, c), (a, c)])
    assert not is_acyclic([a, b, c], [(a, b), (b, c), (c, a)])
    assert not is_acyclic([a, b], [(a, a)])
    assert not is_acyclic([a, b], [(a, b), (b, a)])
    assert is_acyclic([a], [])
    assert is_acyclic([a, b, c], [(a, b)])
    # The cycle b -> c -> d -> b is reachable only through a.
    assert not is_acyclic([a, b, c, d], [(a, b), (b, c), (c, d), (d, b)])
    assert is_acyclic([a, b, c, d, e, f], [(b, a), (c, a), (d, e), (e, f), (d, f)])


def _free_graph(vertices, pairs) -> SGraph:
    """Plain undirected graph: every edge FREE, tau empty."""
    edges = tuple(SEdge(*sorted(pair), FREE) for pair in pairs)
    return SGraph(n=2, vertices=tuple(vertices), edges=edges, tau=frozenset())


def test_chromatic_small_graphs():
    a, b, c, d = (VertexId(0, rank) for rank in range(4))
    path = chromatic_polynomial(_free_graph([a, b, c], [(a, b), (b, c)]))
    assert path.coeffs == (0, 1, -2, 1)
    assert path(3) == 12
    assert abs(path(-1)) == 4
    triangle = chromatic_polynomial(_free_graph([a, b, c], [(a, b), (b, c), (a, c)]))
    assert triangle.coeffs == (0, 2, -3, 1)
    empty = chromatic_polynomial(_free_graph([a, b], []))
    assert empty.coeffs == (0, 0, 1)
    matching = chromatic_polynomial(_free_graph([a, b, c, d], [(a, b), (c, d)]))
    assert matching.coeffs == tuple(poly_mul((0, -1, 1), (0, -1, 1)))
    with pytest.raises(ValueError, match="ordered"):
        SEdge(a, a, FREE)


def test_chromatic_on_cycles():
    # Tile graphs are unit-interval graphs, hence chordal; cycles of length
    # four and up are not, so they reach deletion-contraction paths the
    # tile-graph tests cannot.
    for lengths in ([4], [5], [6], [3, 3]):
        graph = _cycle_graph(lengths)
        poly = chromatic_polynomial(graph)
        edges = [(e.u, e.v) for e in graph.edges]
        for colors in range(5):
            assert poly(colors) == count_colorings_oracle(graph.vertices, edges, colors)
    for m in (4, 5, 6):
        assert acyclic_count_via_chromatic(_cycle_graph([m])) == 2**m - 2
    assert chromatic_polynomial(_cycle_graph([4])).coeffs == (0, -3, 6, -4, 1)


def test_chromatic_matches_coloring_oracle():
    for region, n in GRAPH_BATTERY:
        graph = build_graph(region, n)
        if len(graph.vertices) > 8:
            continue
        poly = chromatic_polynomial(graph)
        assert poly.degree == len(graph.vertices)
        edges = [(e.u, e.v) for e in graph.edges]
        for colors in range(5):
            assert poly(colors) == count_colorings_oracle(graph.vertices, edges, colors)


def test_chromatic_matches_networkx():
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    checked = 0
    for _, region, n in bijection_battery():
        graph = build_graph(region, n)
        # networkx's deletion-contraction is exponential in the edge count.
        if len(graph.edges) > 10:
            continue
        reference = nx.Graph()
        reference.add_nodes_from(graph.vertices)
        reference.add_edges_from((e.u, e.v) for e in graph.edges)
        coeffs = sympy.Poly(nx.chromatic_polynomial(reference), x).all_coeffs()
        assert chromatic_polynomial(graph).coeffs == tuple(int(c) for c in reversed(coeffs))
        checked += 1
    assert checked >= 10


def test_stanley_acyclic_orientation_identity():
    for region, n in GRAPH_BATTERY:
        graph = build_graph(region, n)
        if len(graph.edges) > 16:
            continue
        want = count_acyclic_oracle(graph.vertices, [(e.u, e.v) for e in graph.edges])
        assert acyclic_count_via_chromatic(graph) == want
        assert abs(chromatic_polynomial(graph)(-1)) == want
        # With every edge free and tau empty, the orientation pass counts
        # plain acyclic orientations, which the chromatic engine gives too.
        assert count_admissible_orientations(_all_free(graph)) == acyclic_count_via_chromatic(graph)


def _all_free(graph: SGraph) -> SGraph:
    """The same graph with every edge FREE and tau empty."""
    return SGraph(
        n=graph.n,
        vertices=graph.vertices,
        edges=tuple(SEdge(e.u, e.v, FREE) for e in graph.edges),
        tau=frozenset(),
    )


def test_chromatic_on_large_tile_graphs():
    # In (level, rank) order each vertex's earlier neighbours are every
    # earlier vertex at most n levels down, and they form a clique, so
    # P = prod (x - d_v) with d_v their number.  Peeling keeps a work list,
    # so the default recursion limit does not bound the graph size.
    assert sys.getrecursionlimit() <= 1000
    for region, n in [
        (build_rectangle(4, 12), 4),
        (build_rectangle(6, 6), 3),
        (build_aztec(3, 3, 1), 3),
        (build_rectangle(2, 400), 2),
    ]:
        graph = build_graph(region, n)
        levels = [v.level for v in sorted(graph.vertices)]
        want = (1,)
        for i, level in enumerate(levels):
            earlier = sum(1 for other in levels[:i] if level - other <= n)
            want = poly_mul(want, (-earlier, 1))
        poly = chromatic_polynomial(graph)
        assert poly.coeffs == want, (region.area, n)
        assert abs(poly(-1)) == count_admissible_orientations(_all_free(graph))


def _padded(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_stair_chromatic_closed_form():
    for n in (3, 5, 7):
        m = (n - 1) // 2
        for rows in range(1, 9):
            graph = build_graph(build_stair(rows, n), n)
            poly = chromatic_polynomial(graph)
            if rows <= m:
                want = falling_poly(rows)
            else:
                want = poly_mul(falling_poly(m), poly_pow((-m, 1), rows - m))
            assert _padded(poly.coeffs) == _padded(want), (n, rows)


def test_stair_chromatic_clique_sum_identity():
    for n in (3, 5, 7):
        m = (n - 1) // 2
        for rows in range(m + 2, 9):
            whole = chromatic_polynomial(build_graph(build_stair(rows, n), n))
            part = chromatic_polynomial(build_graph(build_stair(rows - 1, n), n))
            lhs = poly_mul(whole.coeffs, falling_poly(m))
            rhs = poly_mul(part.coeffs, falling_poly(m + 1))
            assert _padded(lhs) == _padded(rhs)


def _cycle_graph(lengths: list[int]) -> SGraph:
    vertices = []
    pairs = []
    base = 0
    for li, length in enumerate(lengths):
        ring = [VertexId(li, base + i) for i in range(length)]
        vertices.extend(ring)
        pairs.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
        base += length
    return _free_graph(vertices, pairs)


def _assert_witness(g1: SGraph, g2: SGraph, mapping: dict) -> None:
    assert sorted(mapping) == sorted(g1.vertices)
    assert sorted(mapping.values()) == sorted(g2.vertices)
    pairs1 = {frozenset((e.u, e.v)): e.cls for e in g1.edges}
    pairs2 = {frozenset((e.u, e.v)): e.cls for e in g2.edges}
    assert {
        frozenset((mapping[u], mapping[v])): cls
        for (u, v), cls in ((tuple(p), c) for p, c in pairs1.items())
    } == pairs2
    assert {(mapping[a], mapping[b]) for a, b in g1.tau} == set(g2.tau)


def test_isomorphic_positive_with_witness():
    g1 = build_graph(build_aztec(2, 3, 0), 3)
    g2 = build_graph(build_aztec(2, 2, 0), 2)
    ok, mapping = graphs_isomorphic(g1, g2)
    assert ok
    _assert_witness(g1, g2, mapping)
    square = build_graph(build_rectangle(3, 3), 3)
    ok, mapping = graphs_isomorphic(square, _cycle_graph([3]))
    assert ok
    _assert_witness(square, _cycle_graph([3]), mapping)
    empty = SGraph(n=2, vertices=(), edges=(), tau=frozenset())
    assert graphs_isomorphic(empty, empty) == (True, {})
    # Every vertex gets one colour, so only the tau directions rule out
    # mapping the cycle onto its reverse by the identity.
    a, b, c = (VertexId(level, 1) for level in range(3))
    edges = (SEdge(a, b, FORCED), SEdge(b, c, FORCED), SEdge(a, c, FORCED))
    cycle = SGraph(n=1, vertices=(a, b, c), edges=edges, tau=frozenset({(a, b), (b, c), (c, a)}))
    reverse = SGraph(n=1, vertices=(a, b, c), edges=edges, tau=frozenset({(b, a), (c, b), (a, c)}))
    ok, mapping = graphs_isomorphic(cycle, reverse)
    assert ok
    _assert_witness(cycle, reverse, mapping)


def test_isomorphic_negative_cycle_vs_two_triangles():
    ok, mapping = graphs_isomorphic(_cycle_graph([6]), _cycle_graph([3, 3]))
    assert not ok and mapping is None


def test_isomorphic_negative_on_classes_and_sizes():
    free_edge = SGraph(
        n=2,
        vertices=(VertexId(0, 1), VertexId(1, 1)),
        edges=(SEdge(VertexId(0, 1), VertexId(1, 1), FREE),),
        tau=frozenset(),
    )
    forced_edge = SGraph(
        n=1,
        vertices=(VertexId(0, 1), VertexId(1, 1)),
        edges=(SEdge(VertexId(0, 1), VertexId(1, 1), FORCED),),
        tau=frozenset({(VertexId(0, 1), VertexId(1, 1))}),
    )
    assert graphs_isomorphic(free_edge, forced_edge) == (False, None)
    assert graphs_isomorphic(free_edge, _cycle_graph([3])) == (False, None)


def test_isomorphic_negative_on_colour_census():
    # A 4-vertex path and a 3-leaf star agree on vertex, edge and class
    # counts; only the refined colours (the star's centre has degree 3) differ.
    a, b, c, d = (VertexId(0, rank) for rank in range(4))
    path = _free_graph([a, b, c, d], [(a, b), (b, c), (c, d)])
    star = _free_graph([a, b, c, d], [(a, b), (a, c), (a, d)])
    assert graphs_isomorphic(path, star) == (False, None)


def _as_digraph(nx, graph: SGraph):
    """Tau arcs as directed edges, free edges in both directions, each with its class."""
    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.vertices)
    for e in graph.edges:
        if e.cls == FREE:
            digraph.add_edge(e.v, e.u, cls=e.cls)
            digraph.add_edge(e.u, e.v, cls=e.cls)
        elif (e.u, e.v) in graph.tau:
            digraph.add_edge(e.u, e.v, cls=e.cls)
        else:
            digraph.add_edge(e.v, e.u, cls=e.cls)
    return digraph


def test_isomorphism_matches_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [build_graph(region, n) for _, region, n in bijection_battery()]
    pairs = [(g1, g2) for i, g1 in enumerate(graphs) for g2 in graphs[i:]
             if len(g1.vertices) == len(g2.vertices)]
    pairs.append((_cycle_graph([6]), _cycle_graph([3, 3])))
    verdicts = set()
    for g1, g2 in pairs:
        matcher = nx.algorithms.isomorphism.DiGraphMatcher(
            _as_digraph(nx, g1), _as_digraph(nx, g2), edge_match=lambda a, b: a["cls"] == b["cls"]
        )
        ok, mapping = graphs_isomorphic(g1, g2)
        assert ok == matcher.is_isomorphic()
        if ok:
            _assert_witness(g1, g2, mapping)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_isomorphism_needs_no_recursion():
    # One backtracking level per vertex: 1,200 vertices.
    assert sys.getrecursionlimit() <= 1000
    graph = build_graph(build_rectangle(2, 1200), 2)
    ok, mapping = graphs_isomorphic(graph, graph)
    assert ok
    _assert_witness(graph, graph, mapping)


def test_growth_counts_and_bounds():
    report = verify_growth_bounds(build_rectangle(3, 6), 3)
    assert report.ok
    assert report.counts == (1, 2, 6, 12, 26, 61)
    assert report.counts[-1] == count_tilings(build_rectangle(3, 6), 3)
    for row in report.rows:
        growth = Fraction(report.counts[row.level], report.counts[row.level - 1])
        assert row.growth == growth
        assert row.growth <= row.binom_bound
        if row.en_bound is not None:
            assert float(row.growth) <= row.en_bound


def test_growth_larger_rectangles():
    assert verify_growth_bounds(build_rectangle(3, 9), 3).counts == (
        1, 2, 6, 12, 26, 61, 134, 297, 669,
    )
    report = verify_growth_bounds(build_rectangle(4, 8), 4)
    assert report.ok
    assert report.counts == (1, 2, 6, 24, 60, 160, 455, 1379)
    assert report.counts[-1] == count_tilings(build_rectangle(4, 8), 4)
    report = verify_growth_bounds(build_rectangle(5, 40), 5)
    assert report.ok
    assert report.counts[-1] == count_tilings(build_rectangle(5, 40), 5)


def test_growth_on_constructor_built_rectangle():
    # Region shifts its cells to the origin, so one row up is the same 3x6.
    lifted = Region(frozenset(Cell(x, y + 1) for x in range(6) for y in range(3)))
    assert verify_growth_bounds(lifted, 3) == verify_growth_bounds(build_rectangle(3, 6), 3)


def test_growth_rejects_bad_regions():
    with pytest.raises(ValueError, match="rectangle"):
        verify_growth_bounds(build_stair(6, 3), 3)
    with pytest.raises(ValueError, match="multiple"):
        verify_growth_bounds(build_rectangle(4, 6), 3)


def test_to_dot_content():
    graph = build_graph(build_rectangle(3, 4), 3)
    dot = to_dot(graph)
    assert dot.startswith("digraph")
    assert 'L0R1 -> L3R1 [style=solid, class="forced_n"];' in dot
    assert dot.count("style=dashed") == 5
    assert dot.endswith("}")
