"""Pictures of tilings: the package's renderers against the one-tile-at-a-time
references in `oracles`, and the letter grid's memory."""

import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tiling_to_ascii_reference, tiling_to_svg_reference
from ribbonry import (
    Cell,
    Region,
    RibbonShape,
    Tile,
    Tiling,
    build_aztec,
    build_rectangle,
    build_stair,
    sample_tiling,
    tiling_to_ascii,
    tiling_to_svg,
)
from ribbonry.cli import main


def _assert_matches_references(tiling: Tiling) -> None:
    assert tiling_to_ascii(tiling) == tiling_to_ascii_reference(tiling)
    assert tiling_to_svg(tiling) == tiling_to_svg_reference(tiling)


@st.composite
def _regions(draw):
    """(region, n): a rectangle, Aztec diamond, stair or holed rectangle that
    n-ribbons tile, n = 1..5.  Monomino rectangles reach 144 tiles, past the
    62 letters."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["rect", "aztec", "stair", "holed"]))
    if kind == "aztec" and n > 1:
        size = draw(st.integers(1, 3))
        return build_aztec(size, n, draw(st.integers(0, n - 2))), n
    if kind == "stair":
        return build_stair(draw(st.integers(1, 6)), n), n
    rows = draw(st.integers(1, 12 if n == 1 else 5))
    region = build_rectangle(rows, n * draw(st.integers(1, 12 if n == 1 else 4)))
    if kind == "holed":
        # Taking whole tiles out of a tiling leaves a tileable region with holes.
        tiles = sample_tiling(region, n, draw(st.integers(0, 99))).tiles
        gone = draw(st.sets(st.integers(0, len(tiles) - 1), max_size=len(tiles) - 1))
        region = Region.from_cells(c for i, t in enumerate(tiles) if i not in gone for c in t.cells())
    return region, n


# A few fixed tilings, checked before the property test below: a renderer
# that is wrong everywhere fails here at once, not after minutes of shrinking.
_FIXED = [
    sample_tiling(build_rectangle(3, 6), 3, 1),
    sample_tiling(build_aztec(3, 3, 1), 3, 5),
    sample_tiling(build_stair(5, 4), 4, 2),
    sample_tiling(build_rectangle(4, 4), 1, 0),
    Tiling.from_json(
        '{"tiles":[{"root":[0,0],"moves":"E"},{"root":[2,0],"moves":"N"},'
        '{"root":[0,1],"moves":"N"},{"root":[1,2],"moves":"E"}]}'
    ),
]


@pytest.mark.parametrize("tiling", _FIXED, ids=["rect", "aztec", "stair", "monomino", "holed"])
def test_renderers_match_references_on_fixed_tilings(tiling):
    _assert_matches_references(tiling)


@settings(max_examples=150, deadline=None)
@given(_regions(), st.integers(0, 10**6))
def test_renderers_match_references(region_and_n, seed):
    region, n = region_and_n
    _assert_matches_references(sample_tiling(region, n, seed))


@pytest.mark.parametrize(
    "region,n",
    [
        (build_rectangle(12, 12), 2),
        (build_rectangle(3, 69), 3),
        (build_rectangle(9, 9), 1),
        (build_rectangle(2, 300), 2),
    ],
)
def test_letters_wrap_past_62_tiles(region, n):
    tiling = sample_tiling(region, n, 7)
    assert len(tiling.tiles) > 62
    _assert_matches_references(tiling)


_SHAPES = st.text(alphabet="EN", max_size=4).map(RibbonShape)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.builds(Tile, st.builds(Cell, st.integers(-5, 7), st.integers(-5, 7)), _SHAPES), max_size=8),
)
def test_unvalidated_tilings_match_references(rows, cols, tiles):
    # Cells outside the region's box, on any side, overlaps and gaps: the
    # letter grid shows only the box, and later tiles write over earlier ones.
    _assert_matches_references(Tiling(build_rectangle(rows, cols), tuple(tiles)))


def test_cell_outside_the_box_is_skipped():
    region = build_rectangle(2, 2)
    tiling = Tiling(region, (Tile(Cell(0, 0), RibbonShape("E")), Tile(Cell(1, 1), RibbonShape("EN"))))
    assert tiling_to_ascii(tiling) == ".b\naa"
    _assert_matches_references(tiling)


class _Ends:
    """A stdout that keeps only the total length and the first and last three
    characters of each write, so the output itself is never held."""

    def __init__(self) -> None:
        self.chunks: list[str] = []
        self.length = 0

    def write(self, text: str) -> int:
        self.length += len(text)
        self.chunks.append(text[:3] + text[-3:])
        return len(text)

    def flush(self) -> None:
        pass


def test_letter_grid_takes_one_byte_per_square(monkeypatch):
    # Two dominoes 10^6 columns apart: a one-row grid of 1,000,002 squares.
    gap = 10**6
    text = f'{{"tiles":[{{"root":[0,0],"moves":"E"}},{{"root":[{gap},0],"moves":"E"}}]}}'
    sink = _Ends()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        assert main(["render", "--format", "text"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = gap + 2 + 1  # the row and its newline
    assert sink.length == output
    assert sink.chunks[0] == "aa." + ".bb"
    assert peak < 3 * output
    assert tiling_to_ascii(Tiling.from_json(text)) == "aa" + "." * (gap - 2) + "bb"
