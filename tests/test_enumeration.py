"""Counting, enumeration, and sampling against an independent oracle."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    count_tilings_oracle,
    fib,
    minimal_tilings_oracle,
    region_cells,
    tilings_by_size_oracle,
)
from ribbonry import (
    Cell,
    NotTileableError,
    Region,
    build_aztec,
    build_rectangle,
    build_stair,
    count_minimal,
    count_tilings,
    count_variable,
    entropy,
    enumerate_tilings,
    is_tileable,
    log2_big,
    parse_region,
    sample_tiling,
    tiling_probability,
)
from ribbonry import enumeration
from ribbonry.enumeration import _Searcher

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
    with pytest.raises(ValueError):
        count_tilings(build_rectangle(2, 2), 0)


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


def test_placements_at_canonical_order():
    region = build_rectangle(3, 3)
    tiles = [tile for tile, _ in _Searcher(region, [3]).placements[0]]
    assert all(tile.root == Cell(0, 0) for tile in tiles)
    assert [t.shape.moves for t in tiles] == ["EE", "EN", "NE", "NN"]
    mixed = [tile for tile, _ in _Searcher(region, [1, 2]).placements[0]]
    assert [t.shape.moves for t in mixed] == ["", "E", "N"]


def test_is_tileable_matches_count():
    for region, n in ORACLE_BATTERY:
        assert is_tileable(region, n) == (count_tilings(region, n) > 0)
    assert is_tileable(build_rectangle(6, 10), 4) is False
    assert is_tileable(build_rectangle(4, 10), 4) is True


def test_is_tileable_on_offset_rectangles():
    # Built through the dataclass constructor, so not shifted to the origin.
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
    monkeypatch.setattr(enumeration, "_TABLE_BUDGET", 100)
    cache = fresh_tables(monkeypatch)
    # Table states: 3x3 n=3 11, 3x7 n=3 43, stair(10, 4) 28, 3x6 n=3 35, 4x8 n=4 292.
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
        assert cache.states == sum(len(table) for _, table in cache.tables.values()) <= 100


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
        assert len(table) == size and searcher.full not in table
        assert table[0] == count_tilings(region, n)
        for state, completions in table.items():
            left = [cell for i, cell in enumerate(searcher.order) if not state >> i & 1]
            assert completions == count_tilings(Region.from_cells(left), n), (region, state)
            dead_ends += completions == 0
    assert dead_ends > 0


def test_count_memory_does_not_grow_with_strip_length():
    peaks = []
    for cols in (60, 240):
        searcher = _Searcher(build_rectangle(4, cols), [4])
        tracemalloc.start()
        try:
            searcher.count()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Four times the states are visited; the live frontier stays the same.
    assert peaks[1] < 2 * peaks[0], peaks


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
