"""Cells, shapes, tiles, regions, builders, and tiling validation."""

import copy
import gc
import io
import pickle
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ribbonry import (
    Cell,
    Region,
    RegionParseError,
    RibbonShape,
    Tile,
    Tiling,
    build_aztec,
    build_rectangle,
    build_stair,
    enumerate_tilings,
    parse_region,
    tiling_to_ascii,
    tiling_to_svg,
)
from ribbonry.cli import main


def test_cell_level_and_steps():
    c = Cell(2, 3)
    assert c.level == 5
    assert c.east() == Cell(3, 3)
    assert c.north() == Cell(2, 4)


def test_shape_counts_and_order():
    for n in range(1, 7):
        shapes = RibbonShape.all_shapes(n)
        assert len(shapes) == 2 ** (n - 1)
        assert len(set(shapes)) == len(shapes)
        words = [s.to_word() for s in shapes]
        assert words == sorted(words)
        assert all(s.length == n for s in shapes)


def test_shape_word_round_trip():
    shape = RibbonShape.from_word("0110", 5)
    assert shape.moves == "ENNE"
    assert shape.to_word() == "0110"
    with pytest.raises(ValueError):
        RibbonShape.from_word("01", 4)
    with pytest.raises(ValueError):
        RibbonShape.from_word("02", 3)
    with pytest.raises(ValueError):
        RibbonShape("EX")


@given(st.text(alphabet="01", max_size=9))
def test_shape_word_round_trip_property(word):
    shape = RibbonShape.from_word(word, len(word) + 1)
    assert shape.to_word() == word
    assert shape.length == len(word) + 1


def test_tile_cells_walk_one_per_level():
    tile = Tile(Cell(1, 2), RibbonShape("ENE"))
    cells = tile.cells()
    assert cells == (Cell(1, 2), Cell(2, 2), Cell(2, 3), Cell(3, 3))
    assert [c.level for c in cells] == [3, 4, 5, 6]
    assert tile.top == Cell(3, 3)
    assert tile.length == 4


def test_tile_json_round_trip():
    tile = Tile(Cell(4, 0), RibbonShape("NE"))
    assert Tile.from_json_dict(tile.to_json_dict()) == tile


def test_parse_region_golden():
    region = parse_region("##.\n###")
    assert region.cells == frozenset(
        [Cell(0, 1), Cell(1, 1), Cell(0, 0), Cell(1, 0), Cell(2, 0)]
    )
    assert region.area == 5
    assert region.to_text() == "##.\n###"


def test_parse_region_ragged_lines():
    region = parse_region("#\n###")
    assert region.area == 4
    assert region.to_text() == "#..\n###"


def test_parse_region_normalizes_offsets():
    assert parse_region("..##\n..##").cells == parse_region("##\n##").cells


def test_parse_region_errors():
    with pytest.raises(RegionParseError, match="line 2, column 3"):
        parse_region("###\n##x")
    with pytest.raises(RegionParseError, match="no cells"):
        parse_region("...\n...")


def test_region_requires_a_cell():
    with pytest.raises(ValueError):
        Region.from_cells([])
    with pytest.raises(ValueError, match="at least one cell"):
        Region(frozenset())


def test_region_constructor_shifts_to_origin():
    region = Region(frozenset({Cell(1, 0), Cell(2, 0)}))
    assert region == Region.from_cells([(0, 0), (1, 0)])
    assert region.bounds == (0, 0, 1, 0)
    assert region.to_text() == "##"


def test_offset_built_tiling_renders_without_margins():
    region = Region(frozenset(Cell(x + 3, y + 2) for x in range(3) for y in range(2)))
    tiling = next(enumerate_tilings(region, 2))
    text = tiling_to_ascii(tiling)
    assert [len(row) for row in text.split("\n")] == [3, 3]
    assert "." not in text
    svg = tiling_to_svg(tiling)
    assert svg == tiling_to_svg(next(enumerate_tilings(build_rectangle(2, 3), 2)))
    assert 'viewBox="0 0 84 56"' in svg  # 3 x 2 cells of 28 pixels


def test_region_basic_properties():
    region = parse_region("##\n##\n##")
    assert region.bounds == (0, 0, 1, 2)
    assert region.is_rectangle()
    assert region.is_connected
    assert region.is_simply_connected
    assert region.level_histogram == {0: 1, 1: 2, 2: 2, 3: 1}
    levels = [c.level for c in region.sorted_cells]
    assert levels == sorted(levels)


def test_level_histogram_is_read_only():
    region = build_rectangle(2, 2)
    with pytest.raises(TypeError):
        region.level_histogram[0] = 5
    with pytest.raises(TypeError):
        del region.level_histogram[0]
    assert region.level_histogram == {0: 1, 1: 2, 2: 1}
    for copied in (pickle.loads(pickle.dumps(region)), copy.deepcopy(region)):
        assert copied == region and copied.level_histogram == region.level_histogram


def test_region_with_hole_is_not_simply_connected():
    ring = parse_region("###\n#.#\n###")
    assert ring.is_connected
    assert not ring.is_simply_connected
    assert not ring.is_rectangle()


def test_region_disconnected():
    region = parse_region("#.#")
    assert not region.is_connected
    # Two pieces, neither with a hole: not simply connected either.
    pieces = parse_region("##.##")
    assert not pieces.is_connected
    assert not pieces.is_simply_connected


def test_region_contains_and_iter():
    region = build_rectangle(2, 2)
    assert Cell(1, 1) in region
    assert Cell(2, 0) not in region
    assert list(region) == [Cell(0, 0), Cell(0, 1), Cell(1, 0), Cell(1, 1)]


def test_build_rectangle():
    region = build_rectangle(3, 5)
    assert region.area == 15
    assert region.bounds == (0, 0, 4, 2)
    assert region.is_rectangle()
    with pytest.raises(ValueError):
        build_rectangle(0, 3)


def test_build_aztec_classical_shape():
    assert build_aztec(1, 2, 0).to_text() == "##\n##"
    assert build_aztec(2, 2, 0).to_text() == ".##.\n####\n####\n.##."


def test_build_aztec_area_and_validation():
    for size in (1, 2, 3):
        for n in (2, 3, 4):
            for k in range(n - 1):
                assert build_aztec(size, n, k).area == n * size * (size + 1)
    with pytest.raises(ValueError):
        build_aztec(2, 3, 2)
    with pytest.raises(ValueError):
        build_aztec(2, 1, 0)
    with pytest.raises(ValueError):
        build_aztec(0, 2, 0)


def test_build_stair_cells():
    region = build_stair(3, 4)
    assert region.cells == frozenset(
        Cell(r + j, r) for r in range(3) for j in range(4)
    )
    assert region.to_text() == "..####\n.####.\n####.."
    with pytest.raises(ValueError):
        build_stair(0, 4)


def test_tiling_validate_accepts_partition():
    region = build_rectangle(2, 2)
    tiling = Tiling(
        region,
        (Tile(Cell(0, 0), RibbonShape("E")), Tile(Cell(0, 1), RibbonShape("E"))),
    )
    tiling.validate()


def test_tiling_validate_rejects_overlap_and_gaps():
    region = build_rectangle(2, 2)
    overlapping = Tiling(
        region,
        (Tile(Cell(0, 0), RibbonShape("N")), Tile(Cell(0, 0), RibbonShape("E"))),
    )
    with pytest.raises(ValueError, match="covered twice"):
        overlapping.validate()
    short = Tiling(region, (Tile(Cell(0, 0), RibbonShape("E")),))
    with pytest.raises(ValueError, match="uncovered"):
        short.validate()
    outside = Tiling(
        region,
        (Tile(Cell(0, 0), RibbonShape("EE")), Tile(Cell(0, 1), RibbonShape("E"))),
    )
    with pytest.raises(ValueError, match="outside"):
        outside.validate()


def test_tiling_validate_rejects_bad_order():
    region = build_rectangle(2, 2)
    swapped = Tiling(
        region,
        (Tile(Cell(0, 1), RibbonShape("E")), Tile(Cell(0, 0), RibbonShape("E"))),
    )
    with pytest.raises(ValueError, match="canonical"):
        swapped.validate()


# Every way `Tiling.from_json` refuses a document: the exception type and
# message, recorded from the per-cell parser.  A duplicate cell is reported
# in coordinates after the tiling is shifted to the origin.
FROM_JSON_ERRORS = [
    ('{"tiles":[{"root":[0,0],"moves":"E"}],"extra":1}', ValueError, "unknown keys ['extra']"),
    ('{"tiles":[{"root":[0,0],"moves":"E","color":"red"}]}', ValueError, "unknown keys ['color']"),
    ('{"tiles":[{"root":[0,0],"moves":"E","b":0,"a":0}]}', ValueError, "unknown keys ['a', 'b']"),
    ("[]", TypeError, "expected a JSON object, got list"),
    ("5", TypeError, "expected a JSON object, got int"),
    ('{"tiles":[1]}', TypeError, "expected a JSON object, got int"),
    ('{"tiles":[[0,0]]}', TypeError, "expected a JSON object, got list"),
    ('{"tiles":"ab"}', TypeError, "tiles: expected a JSON array, got str"),
    ('{"tiles":5}', TypeError, "tiles: expected a JSON array, got int"),
    ("{}", KeyError, "'tiles'"),
    ('{"tiles":[{"moves":"E"}]}', KeyError, "'root'"),
    ('{"tiles":[{}]}', KeyError, "'root'"),
    ('{"tiles":[{"root":[0,0]}]}', KeyError, "'moves'"),
    ('{"tiles":[{"root":[0],"moves":"E"}]}', ValueError, "not enough values to unpack (expected 2, got 1)"),
    ('{"tiles":[{"root":[0,0,0],"moves":"E"}]}', ValueError, "too many values to unpack (expected 2)"),
    ('{"tiles":[{"root":5,"moves":"E"}]}', TypeError, "cannot unpack non-iterable int object"),
    (
        '{"tiles":[{"root":[0.5,0],"moves":"E"}]}',
        TypeError,
        "tile needs an integer root and string moves, got {'root': [0.5, 0], 'moves': 'E'}",
    ),
    (
        '{"tiles":[{"root":"ab","moves":"E"}]}',
        TypeError,
        "tile needs an integer root and string moves, got {'root': 'ab', 'moves': 'E'}",
    ),
    (
        '{"tiles":[{"root":[true,0],"moves":"E"}]}',
        TypeError,
        "tile needs an integer root and string moves, got {'root': [True, 0], 'moves': 'E'}",
    ),
    (
        '{"tiles":[{"root":[0,false],"moves":"E"}]}',
        TypeError,
        "tile needs an integer root and string moves, got {'root': [0, False], 'moves': 'E'}",
    ),
    (
        '{"tiles":[{"root":[0,0],"moves":["E"]}]}',
        TypeError,
        "tile needs an integer root and string moves, got {'root': [0, 0], 'moves': ['E']}",
    ),
    (
        '{"tiles":[{"root":[0,0],"moves":null}]}',
        TypeError,
        "tile needs an integer root and string moves, got {'root': [0, 0], 'moves': None}",
    ),
    ('{"tiles":[{"root":[0,0],"moves":"EX"}]}', ValueError, "shape moves must be E or N, got ['X']"),
    ('{"tiles":[{"root":[0,0],"moves":"e"}]}', ValueError, "shape moves must be E or N, got ['e']"),
    (
        '{"tiles":[{"root":[0,0],"moves":"E"},{"root":[1,1],"moves":"Q"}]}',
        ValueError,
        "shape moves must be E or N, got ['Q']",
    ),
    ('{"tiles":[]}', ValueError, "tiling has no tiles"),
    ('{"tiles":{}}', TypeError, "tiles: expected a JSON array, got dict"),
    ('{"tiles":""}', TypeError, "tiles: expected a JSON array, got str"),
    (
        '{"tiles":[{"root":[3,5],"moves":"EN"},{"root":[4,5],"moves":"N"}]}',
        ValueError,
        "cell Cell(x=1, y=0) covered twice",
    ),
    (
        '{"tiles":[{"root":[7,2],"moves":"E"},{"root":[5,2],"moves":"EE"},'
        '{"root":[5,3],"moves":"EE"},{"root":[6,2],"moves":""}]}',
        ValueError,
        "cell Cell(x=1, y=0) covered twice",
    ),
    (
        '{"tiles":[{"root":[-2,-3],"moves":"E"},{"root":[-2,-3],"moves":"N"}]}',
        ValueError,
        "cell Cell(x=0, y=0) covered twice",
    ),
    ("not json", ValueError, "Expecting value: line 1 column 1 (char 0)"),
]


@pytest.mark.parametrize("text,error,message", FROM_JSON_ERRORS)
def test_from_json_errors_are_pinned(capsys, monkeypatch, text, error, message):
    with pytest.raises(error) as caught:
        Tiling.from_json(text)
    assert str(caught.value) == message
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["render"]) == 1
    assert capsys.readouterr() == ("", f"error: not a tiling: {message}\n")


def _tiles(*specs: tuple[int, int, str]) -> tuple[Tile, ...]:
    return tuple(Tile(Cell(x, y), RibbonShape(moves)) for x, y, moves in specs)


# Hand-built tilings `validate` refuses, with its message; where a tiling
# breaks two rules, the one checked first is reported.
VALIDATE_ERRORS = [
    (build_rectangle(1, 2), _tiles((0, 0, "EE")), "tile cell Cell(x=2, y=0) lies outside the region"),
    (build_rectangle(2, 2), _tiles((0, 0, "N"), (0, 0, "E")), "cell Cell(x=0, y=0) covered twice"),
    (build_rectangle(2, 2), _tiles((0, 0, "E")), "cells left uncovered, e.g. [Cell(x=0, y=1), Cell(x=1, y=1)]"),
    (
        build_rectangle(3, 3),
        _tiles((0, 0, "E")),
        "cells left uncovered, e.g. [Cell(x=0, y=1), Cell(x=0, y=2), Cell(x=1, y=1)]",
    ),
    (build_rectangle(2, 2), _tiles((0, 1, "E"), (0, 0, "E")), "tiles are not in canonical root order"),
    # A duplicate before an outside cell, then an outside cell before a duplicate.
    (build_rectangle(1, 3), _tiles((0, 0, "E"), (1, 0, "EE")), "cell Cell(x=1, y=0) covered twice"),
    (build_rectangle(1, 3), _tiles((1, 0, "EE"), (0, 0, "E")), "tile cell Cell(x=3, y=0) lies outside the region"),
    # Uncovered cells are reported before the root order.
    (build_rectangle(2, 3), _tiles((0, 1, "EE"), (0, 0, "E")), "cells left uncovered, e.g. [Cell(x=2, y=0)]"),
]


@pytest.mark.parametrize("region,tiles,message", VALIDATE_ERRORS)
def test_validate_errors_are_pinned(region, tiles, message):
    with pytest.raises(ValueError) as caught:
        Tiling(region, tiles).validate()
    assert str(caught.value) == message


def test_tiling_json_round_trip_normalizes_translation():
    region = build_rectangle(2, 2)
    tiling = Tiling(
        region,
        (Tile(Cell(0, 0), RibbonShape("E")), Tile(Cell(0, 1), RibbonShape("E"))),
    )
    assert Tiling.from_json(tiling.to_json()) == tiling
    shifted = (
        '{"tiles":[{"root":[7,5],"moves":"E"},{"root":[7,6],"moves":"E"}]}'
    )
    assert Tiling.from_json(shifted) == tiling


@given(
    st.sets(
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=30
    )
)
def test_region_normalization_property(cells):
    region = Region.from_cells(cells)
    min_x, min_y, _, _ = region.bounds
    assert (min_x, min_y) == (0, 0)
    assert region.area == len(cells)
    assert parse_region(region.to_text()).cells == region.cells


def _aztec_cells(size, n, k):
    """AD(size, n, k) column by column: left-half bottoms fall one per column
    to 0, the right half starts at k and climbs n - 1 per column."""
    for x in range(2 * size):
        bottom = size - 1 - x if x < size else k + (x - size) * (n - 1)
        for y in range(bottom, bottom + n * min(x + 1, 2 * size - x)):
            yield x, y


def _assert_built(region, cells):
    assert region == Region.from_cells(cells)
    assert region.cells == Region.from_cells(region.cells).cells
    assert all(type(c) is Cell and type(c.x) is int and type(c.y) is int for c in region.cells)


@given(st.integers(1, 9), st.integers(1, 9))
def test_builders_equal_regions_from_their_cells(a, b):
    _assert_built(build_rectangle(a, b), [(x, y) for x in range(b) for y in range(a)])
    _assert_built(build_stair(a, b), [(r + j, r) for r in range(a) for j in range(b)])
    size, n = min(a, 5), min(b, 6) + 1
    for k in range(n - 1):
        _assert_built(build_aztec(size, n, k), list(_aztec_cells(size, n, k)))


@given(
    st.sets(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=20),
    st.integers(-20, 20),
    st.integers(-20, 20),
)
@example({(3, -2), (-1, 4)}, 0, 0)  # the least x and the least y lie in different cells
def test_shifted_and_negative_cells_normalise(cells, dx, dy):
    region = Region.from_cells(cells)
    for moved in (
        Region.from_cells((x + dx, y + dy) for x, y in cells),
        Region(frozenset(Cell(x + dx, y + dy) for x, y in cells)),
    ):
        assert moved == region
        assert moved.bounds[:2] == (0, 0)
        assert all(type(c) is Cell for c in moved.cells)


@pytest.mark.parametrize(
    "build, args, same",
    [
        (build_rectangle, (7, 13), (7, 13)),
        (build_aztec, (2, 5, 3), (2, 5, 3)),
        (build_aztec, (3, 4), (3, 4, 0)),  # k defaults to 0
        (build_stair, (9, 2), (9, 2)),
    ],
)
def test_builders_reuse_a_live_region_and_keep_none(build, args, same):
    region = build(*args)
    assert build(*same) is region
    assert build(*args) is region
    gone = weakref.ref(region)
    del region
    gc.collect()
    assert gone() is None
    assert build(*args) == build(*same)


def test_invalid_builder_arguments_raise_every_time():
    for _ in range(3):
        with pytest.raises(ValueError):
            build_rectangle(0, 3)
        with pytest.raises(ValueError):
            build_aztec(2, 1)
        with pytest.raises(ValueError):
            build_aztec(2, 3, 2)
        with pytest.raises(ValueError):
            build_stair(3, 0)
