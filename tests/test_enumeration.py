"""Counting, enumeration, and sampling against an independent oracle."""

import itertools
import json
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    absolute_states,
    count_tilings_oracle,
    fib,
    kasteleyn_count,
    minimal_tilings_oracle,
    region_cells,
    ribbon_cells,
    sweep_count,
    tilings_by_size_oracle,
    tilings_oracle,
)
from ribbonry import (
    BijectionReport,
    Cell,
    NotTileableError,
    Region,
    build_aztec,
    build_graph,
    build_rectangle,
    build_stair,
    count_admissible_orientations,
    count_minimal,
    count_tilings,
    count_variable,
    entropy,
    enumerate_tilings,
    is_tileable,
    log2_big,
    parse_region,
    sample_tiling,
    stanley_fib_count,
    stanley_minimal_count,
    tiling_probability,
    verify_bijection,
)
from ribbonry import enumeration
from ribbonry.enumeration import _Searcher
from ribbonry.verify import bijection_battery

ORACLE_BATTERY = [
    (build_rectangle(1, 4), 2),
    (build_rectangle(2, 3), 2),
    (build_rectangle(2, 4), 2),
    (build_rectangle(3, 4), 2),
    (build_rectangle(2, 6), 3),
    (build_rectangle(3, 3), 3),
    (build_rectangle(3, 6), 3),
    (build_rectangle(4, 4), 4),
    (build_rectangle(2, 5), 5),
    (build_aztec(1, 2, 0), 2),
    (build_aztec(1, 3, 0), 3),
    (build_aztec(1, 3, 1), 3),
    (build_aztec(2, 2, 0), 2),
    (build_aztec(2, 3, 1), 3),
    (build_stair(3, 3), 3),
    (build_stair(4, 3), 3),
    (build_stair(3, 4), 4),
    (build_stair(4, 2), 2),
    (parse_region(".##.\n####\n####\n.##."), 2),
    (parse_region(".####\n#####"), 3),
    (parse_region("##../.##./..##".replace("/", "\n")), 2),
    (parse_region("#.\n.#"), 2),
    (parse_region("###\n#.#\n###"), 2),
]

FROZEN_COUNTS = [
    (build_rectangle(3, 6), 3, 61),
    (build_rectangle(3, 9), 3, 669),
    (build_rectangle(3, 12), 3, 7426),
    (build_rectangle(4, 8), 4, 1379),
    (build_rectangle(4, 4), 4, 24),
    (build_rectangle(5, 5), 5, 120),
    (build_aztec(2, 3, 1), 3, 8),
    (build_aztec(3, 2, 0), 2, 64),
    (build_stair(6, 3), 3, 32),
    (build_stair(5, 5), 5, 54),
    (build_stair(4, 7), 7, 24),
]


def test_count_matches_oracle_battery():
    for region, n in ORACLE_BATTERY:
        want = count_tilings_oracle(region_cells(region), (n,))
        assert count_tilings(region, n) == want, region.to_text()


def test_frozen_counts():
    for region, n, want in FROZEN_COUNTS:
        assert count_tilings(region, n) == want


def test_count_zero_cases():
    assert count_tilings(build_rectangle(2, 3), 4) == 0
    assert count_tilings(build_rectangle(2, 6), 4) == 0
    assert count_tilings(parse_region("#.\n.#"), 2) == 0
    for region in (build_rectangle(2, 2), parse_region("##\n#.")):
        for n in (0, -1):
            with pytest.raises(ValueError, match="ribbon length must be positive"):
                count_tilings(region, n)
            with pytest.raises(ValueError, match="ribbon length must be positive"):
                is_tileable(region, n)


def test_searcher_over_no_lengths():
    region = build_rectangle(2, 3)
    for n in (0, -1):
        empty = _Searcher(region, n)
        assert empty.placements == [[]] * region.area and empty.tiles == []
        assert sweep_count(empty)[0] == 0
        assert list(empty.walk((), [], [])) == []
        assert absolute_states(empty.completions()) == {0: 0}


def test_sweep_never_reaching_the_full_state_gives_none():
    # DEAD_GRID has placements but no tiling.
    searcher = _Searcher(parse_region(DEAD_GRID), 3)
    assert any(searcher.placements)
    assert sweep_count(searcher)[0] == 0


def test_enumerate_agrees_with_count():
    for region, n in ORACLE_BATTERY:
        tilings = list(enumerate_tilings(region, n))
        assert len(tilings) == count_tilings(region, n)
        assert len(set(tilings)) == len(tilings)
        for tiling in tilings:
            tiling.validate()


def test_enumerate_golden_order():
    tilings = [t.to_json() for t in enumerate_tilings(build_rectangle(2, 3), 2)]
    assert tilings == [
        '{"tiles":[{"root":[0,0],"moves":"E"},{"root":[0,1],"moves":"E"},'
        '{"root":[2,0],"moves":"N"}]}',
        '{"tiles":[{"root":[0,0],"moves":"N"},{"root":[1,0],"moves":"E"},'
        '{"root":[1,1],"moves":"E"}]}',
        '{"tiles":[{"root":[0,0],"moves":"N"},{"root":[1,0],"moves":"N"},'
        '{"root":[2,0],"moves":"N"}]}',
    ]


def test_enumerated_roots_follow_minimal_cell_rule():
    for region, n in [(build_rectangle(3, 6), 3), (build_stair(4, 3), 3)]:
        for tiling in enumerate_tilings(region, n):
            covered: set[Cell] = set()
            for tile in tiling.tiles:
                free = region.cells - covered
                assert tile.root == min(free, key=lambda c: (c.level, c.x))
                covered.update(tile.cells())


# Area 42 with no 3-ribbon tiling, although its level profile allows one.
DEAD_GRID = "\n".join([".....#...", "#########", "#######.#"] + ["######..."] * 4)


def _tilings_walked(searcher):
    """The searcher's walk, folding each tiling's tiles into a tuple."""
    tiles = [(tile,) for tile in searcher.tiles]
    return searcher.walk((), tiles, tiles)


def _walk_iters(walked):
    """(what `walked()` returns, the `iter` calls made in `_Searcher.walk` meanwhile)."""
    entered = 0

    def count_entries(frame, event, arg):
        nonlocal entered
        if event == "c_call" and arg is iter and frame.f_code is _Searcher.walk.__code__:
            entered += 1

    sys.setprofile(count_entries)
    try:
        return walked(), entered
    finally:
        sys.setprofile(None)


def test_walk_expands_each_dead_state_once():
    # Without the walk's record of dead states its first-tiling search
    # entered DEAD_GRID's states 56,427 times.  The walk calls `iter` once
    # per state it enters, to start on its placements.
    searcher = _Searcher(parse_region(DEAD_GRID), 3)
    reachable = len(absolute_states(searcher.completions()))
    first, entered = _walk_iters(lambda: next(_tilings_walked(searcher), None))
    assert first is None
    assert 0 < entered <= reachable == 616


def _json_walked(searcher):
    """The searcher's walk, folding each tiling's JSON line as `enumerate` does."""
    fragments = searcher.fragments
    return searcher.walk('{"tiles":[', [f + "," for f in fragments], [f + "]}\n" for f in fragments])


def test_walk_replays_small_subtrees_without_a_stack():
    # A replayed record, or a searched state, calls `iter` once per edge list
    # it steps into.  Replaying every record as edge lists calls it 213,359
    # times to list 4x12 n=4; a flat record of ready suffixes yields each of
    # its tilings with one concatenation and no `iter`, so listing calls it
    # 6,629 times with JSON lines and 737 times with tuples of tiles.
    searcher = _Searcher(build_rectangle(4, 12), 4)
    for walked, bound in [(_json_walked, 7_000), (_tilings_walked, 800)]:
        listed, entered = _walk_iters(lambda: sum(1 for _ in walked(searcher)))
        assert listed == 88_447
        assert 0 < entered <= bound, walked


class _CountedTable(list):
    """A placement table that counts the lists read from it, one per state searched."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_walk_searches_each_state_once():
    # 4x12 n=4 has 528 states short of the full one; searching every visit
    # anew would read 213,359 placement lists to list its 88,447 tilings.
    for region, n in [
        (build_rectangle(4, 12), 4),
        (build_rectangle(6, 6), 3),
        (build_rectangle(5, 10), 5),
    ]:
        searcher = _Searcher(region, n)
        states = len(absolute_states(searcher.completions()))
        searcher.placements = table = _CountedTable(searcher.placements)
        assert sum(1 for _ in _tilings_walked(searcher)) == count_tilings(region, n)
        assert 0 < table.reads <= states


def test_walk_memory_grows_linearly_on_a_chain():
    # Every state of a 1xM strip with n = 1 has one child.  Were every state
    # with only flat children flattened whatever its size, state k from the
    # end would hold k tiles' JSON, and the records M^2 / 2 in all: the walk
    # of 1x1000 peaked at 14.4 MB against 3.7 MB for 1x500.
    peaks = []
    for cols in (1000, 4000):
        searcher = _Searcher(build_rectangle(1, cols), 1)
        walked = _json_walked(searcher)
        tracemalloc.start()
        try:
            assert sum(1 for _ in walked) == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 5 * peaks[0], peaks


def test_first_tiling_searches_only_its_path():
    # The walk keeps no table built up front: 12x12 n=3 has 1,134,718 states,
    # and the first tiling needs one state per tile placed before the last.
    region = build_rectangle(12, 12)
    searcher = _Searcher(region, 3)
    searcher.placements = table = _CountedTable(searcher.placements)
    assert len(next(_tilings_walked(searcher))) == region.area // 3
    assert table.reads < region.area


def test_placements_at_canonical_order():
    region = build_rectangle(3, 3)
    searcher = _Searcher(region, 3)
    tiles = [searcher.tiles[p] for _, p in searcher.placements[0]]
    assert [t.shape.moves for t in tiles] == ["EE", "EN", "NE", "NN"]
    # Positions run root by root through the whole of `tiles`.
    positions = [p for options in searcher.placements for _, p in options]
    assert positions == list(range(len(searcher.tiles)))
    for i, options in enumerate(searcher.placements):
        assert all(searcher.tiles[p].root == region.sorted_cells[i] for _, p in options)


def test_is_tileable_matches_count():
    for region, n in ORACLE_BATTERY:
        assert is_tileable(region, n) == (count_tilings(region, n) > 0)
    assert is_tileable(build_rectangle(6, 10), 4) is False
    assert is_tileable(build_rectangle(4, 10), 4) is True


def test_is_tileable_on_offset_rectangles():
    # Built through the dataclass constructor, which shifts them to the origin too.
    for x0, y0 in [(1, 0), (0, 1), (3, 5)]:
        for width, height in [(2, 1), (1, 3), (3, 2), (4, 3)]:
            cells = {Cell(x0 + x, y0 + y) for x in range(width) for y in range(height)}
            region = Region(frozenset(cells))
            for n in (2, 3, 4):
                want = count_tilings(region, n) > 0
                assert is_tileable(region, n) == want, (x0, y0, width, height, n)
    assert is_tileable(Region(frozenset({Cell(1, 0), Cell(2, 0)})), 2) is True


def test_fibonacci_strip_counts():
    for cols in range(1, 31):
        assert count_tilings(build_rectangle(2, cols), 2) == fib(cols + 1)


def test_strip_counts_super_additive():
    for a, b in [(3, 3), (4, 6), (6, 6), (5, 9)]:
        joined = count_tilings(build_rectangle(3, a + b), 3)
        left = count_tilings(build_rectangle(3, a), 3)
        right = count_tilings(build_rectangle(3, b), 3)
        assert joined >= left * right


def test_count_bounded_by_free_squares():
    for region, n in ORACLE_BATTERY:
        count = count_tilings(region, n)
        if count and region.area % n == 0:
            tiles = region.area // n
            assert count <= 2 ** ((n - 1) * tiles)


def test_variable_and_minimal_counts():
    region = build_rectangle(2, 3)
    assert count_variable(region) == count_tilings_oracle(
        region_cells(region), tuple(range(1, 7))
    )
    assert count_minimal(region) == (2, 4)
    assert count_minimal(build_rectangle(1, 5)) == (1, 1)
    hist = build_rectangle(3, 3).level_histogram
    assert count_minimal(build_rectangle(3, 3))[0] >= max(hist.values())


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=12))
@example({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)})  # a ring
@example({(0, 0), (1, 1), (3, 0), (3, 1)})  # three pieces
# A holed block and an island:
@example({(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (3, 1), (0, 2), (1, 2), (2, 2), (3, 2), (4, 4)})
def test_variable_and_minimal_counts_match_oracle(cells):
    region = Region.from_cells(cells)
    sizes = tilings_by_size_oracle(region_cells(region), {})
    assert count_variable(region) == sum(sizes.values())
    assert count_minimal(region) == minimal_tilings_oracle(region_cells(region))


def test_entropy_values():
    assert entropy(build_rectangle(2, 2), 2) == 0.5
    assert entropy(build_rectangle(3, 6), 3) == pytest.approx(log2_big(61) / 6)
    with pytest.raises(NotTileableError):
        entropy(build_rectangle(2, 3), 4)


def test_log2_big():
    assert log2_big(1) == 0.0
    assert log2_big(1 << 200) == 200.0
    assert log2_big(3) == pytest.approx(1.5849625007211562)
    with pytest.raises(ValueError):
        log2_big(0)


def test_sampler_is_deterministic_and_valid():
    region = build_stair(7, 3)
    first = sample_tiling(region, 3, seed=1)
    second = sample_tiling(region, 3, seed=1)
    assert first == second
    first.validate()
    assert sample_tiling(region, 3, seed=2) != first or count_tilings(region, 3) == 1


def test_sampler_reaches_every_tiling():
    region = build_rectangle(2, 4)
    expected = set(enumerate_tilings(region, 2))
    seen = {sample_tiling(region, 2, seed) for seed in range(120)}
    assert seen == expected


def test_sampler_errors():
    with pytest.raises(NotTileableError):
        sample_tiling(build_rectangle(2, 3), 4, seed=0)
    with pytest.raises(NotTileableError):
        sample_tiling(parse_region("#.\n.#"), 2, seed=0)


def fresh_tables(monkeypatch) -> enumeration._TableCache:
    """Give sample_tiling an empty table cache for the rest of the test."""
    cache = enumeration._TableCache()
    monkeypatch.setattr(enumeration, "_tables", cache)
    return cache


def test_cached_tables_draw_as_cold_ones(monkeypatch):
    # Each region is rebuilt per draw, as the CLI does, so hits go by equality.
    regions = [
        (build_rectangle, (3, 3), 3),
        (build_rectangle, (4, 8), 4),
        (build_stair, (10, 4), 4),
        (build_aztec, (5, 3, 1), 3),
    ]
    cold = {}
    for build, args, n in regions:
        for seed in range(50):
            fresh_tables(monkeypatch)
            cold[args, seed] = sample_tiling(build(*args), n, seed)
    cache = fresh_tables(monkeypatch)
    for seed in range(50):
        for build, args, n in regions:
            assert sample_tiling(build(*args), n, seed) == cold[args, seed], (args, seed)
    assert len(cache.tables) == len(regions)


def test_untileable_region_raises_again_from_cache(monkeypatch):
    cache = fresh_tables(monkeypatch)
    region = parse_region("#.\n.#")
    for _ in range(2):
        with pytest.raises(NotTileableError, match="no 2-ribbon tiling"):
            sample_tiling(region, 2, seed=0)
    assert list(cache.tables) == [(region, 2)]


def test_table_cache_stays_within_budget(monkeypatch):
    monkeypatch.setattr(enumeration, "_TABLE_BUDGET", 160)
    cache = fresh_tables(monkeypatch)
    # Table states + cells: 3x3 n=3 11 + 9, 3x7 n=3 43 + 21, stair(10, 4) 28 + 40,
    # 3x6 n=3 35 + 18, 4x8 n=4 292 + 32.
    small, mid = (build_rectangle(3, 3), 3), (build_rectangle(3, 7), 3)
    stair, other = (build_stair(10, 4), 4), (build_rectangle(3, 6), 3)
    steps = [
        (small, [small]),
        (mid, [small, mid]),
        (stair, [small, mid, stair]),
        (small, [mid, stair, small]),
        (other, [stair, small, other]),
        ((build_rectangle(4, 8), 4), [stair, small, other]),
    ]
    for (region, n), kept in steps:
        sample_tiling(region, n, seed=0)
        assert list(cache.tables) == kept
        charges = [len(absolute_states(table)) + region.area for (region, _), (_, table) in cache.tables.items()]
        assert cache.charge == sum(charges) <= 160


def test_table_cache_memory_stays_within_budget(monkeypatch):
    # Every 2x(4j+2) rectangle is ruled out for n = 4, so its table holds
    # one state; its region and searcher still grow with its area.
    monkeypatch.setattr(enumeration, "_TABLE_BUDGET", 2000)
    held = []
    for count in (30, 60):
        cache = fresh_tables(monkeypatch)
        tracemalloc.start()
        try:
            for j in range(count):
                with pytest.raises(NotTileableError):
                    sample_tiling(build_rectangle(2, 4 * j + 2), 4, seed=0)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert cache.charge <= 2000
    # Four times the cells are drawn from; the kept cells stay within the budget.
    assert held[1] < 1.5 * held[0], held


def test_completion_tables_match_counts_of_what_is_left(monkeypatch):
    fresh_tables(monkeypatch)
    regions = [
        (build_rectangle(4, 8), 4, 292),
        (build_stair(10, 4), 4, 28),
        (build_aztec(5, 3, 1), 3, 983),
    ]
    dead_ends = 0
    for region, n, size in regions:
        searcher, table = enumeration._tables.get(region, n)
        table = absolute_states(table)
        assert len(table) == size and (1 << region.area) - 1 not in table
        assert table[0] == count_tilings(region, n)
        for state, completions in table.items():
            left = [cell for i, cell in enumerate(region.sorted_cells) if not state >> i & 1]
            assert completions == count_tilings(Region.from_cells(left), n), (region, state)
            dead_ends += completions == 0
    assert dead_ends > 0


def test_concurrent_draws_match_single_thread_draws(monkeypatch):
    regions = [(build_rectangle(3, 7), 3), (build_stair(10, 4), 4), (build_rectangle(10, 10), 2)]
    # Four threads of 20 draws each; every thread draws from all three regions.
    draws = [(regions[seed % 3], seed) for seed in range(80)]
    fresh_tables(monkeypatch)
    want = [sample_tiling(region, n, seed) for (region, n), seed in draws]
    cache = fresh_tables(monkeypatch)
    built = Counter()  # completion tables built, by region
    completions = _Searcher.completions

    def counted_completions(self):
        built[self.region] += 1
        return completions(self)

    monkeypatch.setattr(_Searcher, "completions", counted_completions)

    def draw(part):
        return [sample_tiling(region, n, seed) for (region, n), seed in part]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the cache's updates too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parts = list(pool.map(draw, [draws[k::4] for k in range(4)], timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [parts[seed % 4][seed // 4] for seed in range(80)] == want
    # A thread that misses on a table another is building waits for it.
    assert built == Counter(region for region, _ in regions)
    assert set(cache.tables) == set(regions)
    charges = [enumeration._charge(key, entry) for key, entry in cache.tables.items()]
    assert cache.charge == sum(charges) <= enumeration._TABLE_BUDGET


def test_count_memory_does_not_grow_with_strip_length():
    peaks = []
    for cols in (60, 240):
        region = build_rectangle(4, cols)
        region.sorted_cells  # grows with the region, so built outside the trace
        tracemalloc.start()
        try:
            enumeration._count_by_depth(region, 4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Four times the states are visited; the live frontier stays the same.
    assert peaks[1] < 2 * peaks[0], peaks


def test_whole_strip_count_memory_grows_linearly():
    # The region is built inside the trace: its cells grow with the area, so
    # a strip four times as long may take four times the memory.
    peaks = []
    for cols in (2000, 8000):
        tracemalloc.start()
        try:
            assert count_tilings(Region.from_cells((x, y) for x in range(cols) for y in range(2)), 2) > 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 5 * peaks[0], peaks


def test_tiling_probability_exactly_uniform():
    for region, n in [(build_rectangle(3, 3), 3), (build_rectangle(2, 4), 2)]:
        total = count_tilings(region, n)
        probs = [tiling_probability(region, n, t) for t in enumerate_tilings(region, n)]
        assert all(p == Fraction(1, total) for p in probs)
        assert sum(probs) == 1


def test_tiling_probability_rejects_wrong_tile_length():
    region = build_rectangle(3, 3)
    assert tiling_probability(region, 1, next(enumerate_tilings(region, 1))) == 1
    for tromino_tiling in enumerate_tilings(region, 3):
        with pytest.raises(NotTileableError, match="length 3"):
            tiling_probability(region, 1, tromino_tiling)


def test_tiling_probability_rejects_foreign_tiling():
    square = build_rectangle(2, 2)
    tiling = next(enumerate_tilings(square, 2))
    with pytest.raises(ValueError, match="different region"):
        tiling_probability(build_rectangle(2, 3), 2, tiling)
    with pytest.raises(ValueError, match="different region"):
        tiling_probability(build_stair(2, 2), 2, tiling)


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12),
    st.integers(1, 3),
)
def test_count_matches_oracle_random_regions(cells, n):
    region = Region.from_cells(cells)
    want = count_tilings_oracle(region_cells(region), (n,))
    assert count_tilings(region, n) == want


def _holed_rectangles(most_gone=5, longest=6):
    """A rectangle of 2 to `longest` columns and rows with up to `most_gone` of its cells taken out."""
    return st.tuples(st.integers(2, longest), st.integers(2, longest)).flatmap(
        lambda size: st.sets(
            st.tuples(st.integers(0, size[0] - 1), st.integers(0, size[1] - 1)),
            max_size=most_gone,
        ).map(lambda gone: {(x, y) for x in range(size[0]) for y in range(size[1])} - gone)
    )


@settings(max_examples=60, deadline=None)
@given(
    _holed_rectangles(5, longest=7)
    .filter(bool)
    .filter(lambda cells: Region.from_cells(cells).is_simply_connected)
)
def test_domino_counts_match_kasteleyn(cells):
    assert count_tilings(Region.from_cells(cells), 2) == kasteleyn_count(cells)


@pytest.mark.parametrize(
    "region",
    [
        build_rectangle(2, 30),
        # Equal to their own transpose, so the count loop folds them.
        build_rectangle(12, 12),
        build_rectangle(16, 16),
        build_aztec(8, 2, 0),
        build_aztec(12, 2, 0),
    ],
)
def test_domino_counts_at_scale_match_kasteleyn(region):
    assert count_tilings(region, 2) == kasteleyn_count(region_cells(region))


@settings(max_examples=60, deadline=None)
@given(_holed_rectangles(4, longest=5).filter(bool), st.integers(2, 3))
@example({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, 2)  # a hole
@example({(x, y) for x in range(5) for y in range(2)} - {(2, 0), (2, 1)}, 2)  # two pieces
def test_completion_table_holds_every_reachable_state(cells, n):
    region = Region.from_cells(cells)
    searcher = _Searcher(region, n)
    table = absolute_states(searcher.completions())
    full = (1 << region.area) - 1
    # The states reachable from 0, each placing a tile at its minimal free
    # cell; a placement's mask is relative to its root.
    reachable, todo = {0}, [0]
    while todo:
        state = todo.pop()
        if state == full:
            continue
        root = next(i for i in range(region.area) if not state >> i & 1)
        for mask, _ in searcher.placements[root]:
            mask <<= root
            if not mask & state and state | mask not in reachable:
                reachable.add(state | mask)
                todo.append(state | mask)
    assert table.keys() == reachable - {full}
    for state, completions in table.items():
        left = [cell for i, cell in enumerate(region.sorted_cells) if not state >> i & 1]
        assert completions == count_tilings(Region.from_cells(left), n), state


@settings(max_examples=80, deadline=None)
@given(_holed_rectangles().filter(bool), st.integers(1, 4))
@example({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, 2)  # a hole
def test_placement_table_matches_oracle(cells, n):
    region = Region.from_cells(cells)
    searcher = _Searcher(region, n)
    index = {cell: i for i, cell in enumerate(region.sorted_cells)}
    # Every E/N word of length n that fits, at each root in turn; a string
    # sort puts E before N.  A mask has bit 0 at its root.
    moves, placements = [], []
    for root in region.sorted_cells:
        at = index[root]
        words = sorted(
            "".join(word)
            for word in itertools.product("EN", repeat=n - 1)
            if all(cell in index for cell in ribbon_cells(root, word))
        )
        options = []
        for word in words:
            options.append((sum(1 << (index[cell] - at) for cell in ribbon_cells(root, word)), len(moves)))
            moves.append(word)
        placements.append(options)
    assert searcher.moves == moves
    assert searcher.placements == placements
    # The JSON the CLI writes per placement, byte for byte.
    assert searcher.fragments == [json.dumps(t.to_json_dict(), separators=(",", ":")) for t in searcher.tiles]


@settings(max_examples=60, deadline=None)
@given(_holed_rectangles(4).filter(bool), st.integers(1, 4))
@example({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, 2)  # a hole
@example({(x, y) for x in range(5) for y in range(2)} - {(2, 0), (2, 1)}, 2)  # two pieces
def test_enumeration_order_matches_oracle(cells, n):
    region = Region.from_cells(cells)
    got = [tiling.tiles for tiling in enumerate_tilings(region, n)]
    assert got == tilings_oracle(region_cells(region), n)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=14),
        _holed_rectangles().filter(bool),
    ),
    st.integers(1, 5),
)
@example({(0, 1), (1, 0)}, 2)
@example({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, 2)
def test_level_profile_rules_out_only_untileable_regions(cells, n):
    region = Region.from_cells(cells)
    profile = enumeration._root_levels(region, n)
    # The sweep, without the early zero that count_tilings takes.
    count = sweep_count(_Searcher(region, n))[0]
    if profile is None:
        assert count == 0
    elif count:
        first = next(enumerate_tilings(region, n))
        assert profile == Counter(tile.root.level for tile in first.tiles)


def test_level_profile_values():
    assert enumeration._root_levels(build_rectangle(3, 6), 3) == {level: 1 for level in range(6)}
    # Cells on levels 0 and 3 only: the domino rooted on level 0 would cover
    # a cell of level 1, which leaves -1 dominoes for level 1.
    assert enumeration._root_levels(parse_region("#..#"), 2) is None
    # Two cells on the top level, where no domino can be rooted.
    assert enumeration._root_levels(parse_region("#.\n.#"), 2) is None


def test_level_profile_agrees_with_the_rectangle_closed_form():
    # An a x b rectangle has an n-ribbon tiling iff n divides a or b, the
    # rule `_may_tile`, and so is_tileable, answers a rectangle by.
    for rows in range(1, 21):
        for cols in range(1, 25):
            rect = build_rectangle(rows, cols)
            for n in range(1, 9):
                by_profile = rect.area % n == 0 and enumeration._root_levels(rect, n) is not None
                assert by_profile == (rows % n == 0 or cols % n == 0), (rows, cols, n)
                assert by_profile == enumeration._may_tile(rect, n) == is_tileable(rect, n), (rows, cols, n)


def test_rectangles_are_ruled_in_or_out_by_their_sides(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rectangle's level profile was read")

    fresh_tables(monkeypatch)
    monkeypatch.setattr(enumeration, "_root_levels", refuse)
    rect = build_rectangle(3, 4)
    assert count_tilings(rect, 3) == 12 and is_tileable(rect, 3)
    assert len(list(enumerate_tilings(rect, 3))) == 12
    assert sample_tiling(rect, 3, seed=0).to_json() == (
        '{"tiles":[{"root":[0,0],"moves":"NN"},{"root":[1,0],"moves":"NE"},'
        '{"root":[2,0],"moves":"EN"},{"root":[1,2],"moves":"EE"}]}'
    )
    for rows, cols, n, message in [
        (2, 6, 4, "region of area 12 has no 4-ribbon tiling"),
        (2, 3, 4, "area 6 is not a multiple of 4"),
    ]:
        rect = build_rectangle(rows, cols)
        assert count_tilings(rect, n) == 0 and not is_tileable(rect, n)
        assert list(enumerate_tilings(rect, n)) == []
        with pytest.raises(NotTileableError, match=f"^{message}$"):
            sample_tiling(rect, n, seed=0)


def _assert_no_placement_tried(built: list) -> None:
    """Each searcher is over length 0, so its search has no placement to try."""
    assert built
    for searcher in built:
        assert searcher.n == 0 and not any(searcher.placements)


def test_level_profile_answers_without_a_search(monkeypatch):
    # The bench's plus sign: its level histogram would need -1 tiles rooted
    # on each of its two highest levels.
    cross = parse_region("\n".join(["...######..."] * 3 + ["#" * 12] * 6 + ["...######..."] * 3))
    assert enumeration._root_levels(cross, 4) is None
    fresh_tables(monkeypatch)
    built = _record_searchers(monkeypatch)
    monkeypatch.setattr(enumeration, "_count_by_depth", None)  # counting never enters the loop
    assert count_tilings(cross, 4) == 0
    assert not is_tileable(cross, 4)
    assert list(enumerate_tilings(cross, 4)) == []
    for untileable in (lambda: sample_tiling(cross, 4, seed=0), lambda: build_graph(cross, 4)):
        with pytest.raises(NotTileableError, match="region of area 108 has no 4-ribbon tiling"):
            untileable()
    assert len(built) == 3  # listing, sampling and the graph; counting builds none
    _assert_no_placement_tried(built)


# Areas that n does not divide: a rectangle and two regions that are not.
AREA_MISMATCH = [
    (build_rectangle(3, 3), 2),
    (parse_region("##.\n###"), 2),
    (parse_region("#..\n###\n###"), 3),
]


@pytest.mark.parametrize("region,n", AREA_MISMATCH, ids=["rectangle", "bent", "notched"])
def test_area_mismatch_answers_without_a_search(monkeypatch, region, n):
    fresh_tables(monkeypatch)
    built = _record_searchers(monkeypatch)
    monkeypatch.setattr(enumeration, "_count_by_depth", None)  # counting never enters the loop
    assert count_tilings(region, n) == 0
    assert not is_tileable(region, n)
    assert list(enumerate_tilings(region, n)) == []
    with pytest.raises(NotTileableError, match=f"^area {region.area} is not a multiple of {n}$"):
        sample_tiling(region, n, seed=0)
    with pytest.raises(NotTileableError, match=f"^region of area {region.area} has no {n}-ribbon tiling$"):
        build_graph(region, n)
    _assert_no_placement_tried(built)


def test_rectangle_counts_survive_transposition():
    # Transposing maps ribbons to ribbons; the count loop steps each level
    # of the transpose the other way.
    for rows in range(1, 7):
        for cols in range(1, 13):
            for n in range(2, 7):
                got = count_tilings(build_rectangle(rows, cols), n)
                assert got == count_tilings(build_rectangle(cols, rows), n), (rows, cols, n)


@settings(max_examples=60, deadline=None)
@given(_holed_rectangles(4).filter(bool), st.integers(2, 4))
def test_counts_survive_transposition(cells, n):
    flipped = {(y, x) for x, y in cells}
    assert count_tilings(Region.from_cells(cells), n) == count_tilings(Region.from_cells(flipped), n)


def _transpose_closed(most=12, box=6):
    """Up to `most` cells with x <= y in a k x k box, k <= `box`, and their mirrors.

    The region equals its own transpose; holes and several pieces may come up.
    """
    return st.integers(1, box).flatmap(
        lambda k: st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=most)
    ).map(lambda cells: {(x, y) for a, b in cells for x, y in ((a, b), (b, a))})


# Small squares: equal to their own transpose, so folded at level starts.
PUSHED_ON = [{(x, y) for x in range(k) for y in range(k)} for k in (2, 3, 4)]
# Levels 3 to 5 are missing between the two blocks.
GAPPED = {(0, 0), (1, 0), (0, 1), (1, 1), (3, 3), (4, 3), (3, 4), (4, 4)}


@settings(max_examples=80, deadline=None)
@given(_transpose_closed(), st.integers(1, 4))
@example(PUSHED_ON[0], 2)
@example(PUSHED_ON[1], 3)
@example(PUSHED_ON[2], 2)
@example({(0, 0), (2, 2)}, 2)  # a missing level; ruled out, so a searcher over length 0
@example(GAPPED, 2)
def test_folded_counts_match_oracle(cells, n):
    region = Region.from_cells(cells)
    want = count_tilings_oracle(region_cells(region), (n,), {})
    assert count_tilings(region, n) == want
    assert sweep_count(_Searcher(region, n))[0] == want


@settings(max_examples=40, deadline=None)
@given(_transpose_closed(most=6, box=5))
@example(PUSHED_ON[1])
@example({(0, 0), (2, 2)})  # a missing level
@example(GAPPED)
def test_folded_variable_and_minimal_counts_match_oracle(cells):
    region = Region.from_cells(cells)
    sizes = tilings_by_size_oracle(region_cells(region), {})
    assert count_variable(region) == sum(sizes.values())
    assert count_minimal(region) == minimal_tilings_oracle(region_cells(region))


# Level 2 starts at x = 0, left of level 1's only cell at x = 1.
LEFT_START = {(1, 0), (1, 1), (1, 2), (0, 2), (0, 3), (0, 4)}


@settings(max_examples=150, deadline=None)
@given(st.one_of(_holed_rectangles(6).filter(bool), _transpose_closed()), st.integers(1, 5))
@example(GAPPED, 2)
@example({(0, 0), (2, 2)}, 1)  # a missing level
@example({(0, 0), (2, 2)}, 2)
@example(LEFT_START, 3)
def test_count_loop_matches_the_placement_sweep(cells, n):
    region = Region.from_cells(cells)
    want = sweep_count(_Searcher(region, n))[0]
    assert count_tilings(region, n) == want
    # The loop alone, without the area and level-profile checks before it.
    assert enumeration._count_by_depth(region, n)[0] == want


def test_a_level_may_start_left_of_the_one_below():
    region = Region.from_cells(LEFT_START)
    assert count_tilings(region, 3) == 1 == count_tilings_oracle(region_cells(region), (3,))


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=20), st.integers(2, 5))
def test_an_area_that_n_does_not_divide_never_enters_the_count_loop(cells, n):
    assume(len(cells) % n)
    region = Region.from_cells(cells)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_count_by_depth", None)
        assert count_tilings(region, n) == 0
        assert not is_tileable(region, n)


@pytest.mark.parametrize(
    "rows, cols",
    [(rows, cols) for rows in range(1, 13) for cols in range(1, 13)] + [(1, 500), (40, 60), (100, 100)],
)
def test_variable_and_minimal_counts_match_the_closed_forms(rows, cols):
    # Far past the sizes any search over ribbons of every length reaches;
    # 1x1 is the single cell.
    region = build_rectangle(rows, cols)
    assert count_variable(region) == stanley_fib_count(rows, cols)
    assert count_minimal(region) == stanley_minimal_count(rows, cols)


def test_variable_and_minimal_counts_multiply_across_a_missing_level():
    # Two 2x2 blocks with levels 3 to 5 empty between them count independently.
    gapped = Region.from_cells(GAPPED)
    assert count_variable(gapped) == stanley_fib_count(2, 2) ** 2 == 81
    assert count_minimal(gapped) == (4, stanley_minimal_count(2, 2)[1] ** 2) == (4, 16)


def test_variable_and_minimal_counts_run_no_search(monkeypatch):
    region = parse_region("####\n#..#\n####")  # a ring around a two-cell hole

    def no_searcher(*args):
        raise AssertionError("built a searcher for a count over every length")

    monkeypatch.setattr(enumeration, "_Searcher", no_searcher)
    sizes = tilings_by_size_oracle(region_cells(region), {})
    assert count_variable(region) == sum(sizes.values())
    assert count_minimal(region) == minimal_tilings_oracle(region_cells(region))


BAND = "\n".join("." * (11 - row) + "#" * 8 + "." * row for row in range(12))


def _record_searchers(monkeypatch) -> list:
    """Every _Searcher built from now on, in the order they are built."""
    built = []
    init = _Searcher.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(_Searcher, "__init__", recording_init)
    return built


def test_counting_builds_no_searcher(monkeypatch):
    built = _record_searchers(monkeypatch)
    for region, n in [
        (build_rectangle(6, 12), 6),
        (build_rectangle(12, 6), 6),
        (build_rectangle(4, 60), 4),
        (build_rectangle(2, 400), 2),
        (build_rectangle(1, 600), 1),
        (build_rectangle(6, 30), 3),
        (build_rectangle(6, 6), 3),
        (build_rectangle(10, 12), 2),
        (build_aztec(4, 2, 0), 2),
        (parse_region(BAND), 4),
    ]:
        assert count_tilings(region, n) > 0
        assert built == [], (region, n)
    # An untileable rectangle is answered from its area or its sides alone.
    monkeypatch.setattr(enumeration, "_count_by_depth", None)
    assert count_tilings(build_rectangle(10, 10), 7) == count_tilings(build_rectangle(4, 10), 8) == 0
    assert built == []


def test_depth_states_counts_as_the_sweep():
    for rows in range(1, 8):
        for cols in range(1, 10):
            for n in range(1, 8):
                want = sweep_count(_Searcher(build_rectangle(rows, cols), n))[0]
                for region in (build_rectangle(rows, cols), build_rectangle(cols, rows)):
                    assert count_tilings(region, n) == want, (rows, cols, n)


def test_unequal_n3_rectangles_count_as_the_sweep():
    for rows in range(4, 11):
        for cols in range(4, 11):
            region = build_rectangle(rows, cols)
            if rows != cols and is_tileable(region, 3):
                assert count_tilings(region, 3) == sweep_count(_Searcher(region, 3))[0], (rows, cols)


@pytest.mark.parametrize(
    "region, n, states",
    [
        # Folded onto the transpose; 12x12 n=3 reads 1,080,126 states unfolded.
        pytest.param(build_rectangle(12, 12), 3, 610945, id="12x12-n3"),
        pytest.param(build_aztec(8, 3, 0), 3, 31126, id="AD(8,3,0)"),
        pytest.param(build_rectangle(6, 6), 3, 713, id="6x6-n3"),
        pytest.param(build_rectangle(6, 6), 6, 3563, id="6x6-n6"),
        pytest.param(build_rectangle(8, 8), 4, 23185, id="8x8-n4"),
        pytest.param(build_aztec(8, 2, 0), 2, 4904, id="AD(8,2,0)"),
        # Not their own transpose.
        pytest.param(parse_region(BAND), 4, 582, id="band-n4"),
        pytest.param(build_rectangle(4, 60), 4, 5538, id="4x60-n4"),
        pytest.param(build_rectangle(9, 10), 3, 52596, id="9x10-n3"),
        pytest.param(build_rectangle(10, 9), 3, 70236, id="10x9-n3"),
    ],
)
def test_states_swept(region, n, states):
    # States every cell step of the count loop reads.
    assert enumeration._count_by_depth(region, n) == (count_tilings(region, n), states)


def test_depth_states_swept():
    # The placement sweep expands 409,622 states here; the loop reads 269,202 on 30x6.
    assert enumeration._count_by_depth(build_rectangle(6, 30), 6)[1] == 110802


def test_listing_and_sampling_search_in_level_order(monkeypatch):
    fresh_tables(monkeypatch)
    built = _record_searchers(monkeypatch)
    region = build_rectangle(3, 6)
    next(enumerate_tilings(region, 3))
    sample_tiling(region, 3, seed=1)
    build_graph(region, 3)
    assert [s.region for s in built] == [region] * 3


def test_verify_bijection_builds_one_searcher_per_case(monkeypatch):
    battery = [(region, n) for _, region, n in bijection_battery()]
    # Every battery case is a bijection: its report is (tilings, admissible orientations, True).
    want = [
        BijectionReport(count_tilings(region, n), count_admissible_orientations(build_graph(region, n)), True)
        for region, n in battery
    ]
    built = _record_searchers(monkeypatch)
    for (region, n), report in zip(battery, want):
        built.clear()
        assert verify_bijection(region, n) == report, (region, n)
        assert [s.region for s in built] == [region]


def test_counting_builds_no_tiles(monkeypatch):
    counts = [
        lambda: count_tilings(build_rectangle(6, 6), 3),  # folded onto the transpose
        lambda: count_tilings(build_rectangle(4, 8), 4),
        lambda: count_tilings(build_aztec(3, 2, 0), 2),
        lambda: count_variable(build_rectangle(2, 3)),
        lambda: count_minimal(build_rectangle(2, 3)),
    ]
    want = [count() for count in counts]

    def no_tile(*args):
        raise AssertionError("built a Tile while counting")

    monkeypatch.setattr(enumeration, "Tile", no_tile)
    assert [count() for count in counts] == want
