"""ASCII and SVG pictures of tilings.

Both pictures are drawn once per tile, not once per cell.  What a picture
needs of a ribbon shape relative to its root (its squares' positions in the
letter grid, or its outline in SVG pixels) is worked out once per distinct
shape in a call, in a dict local to the call, and moved to each tile's root.
The shape's cell offsets are computed once per shape (`RibbonShape.offsets`).
A tile's colour depends only on its index; the colours of the first
`_COLORS_KEPT` indices are kept across calls, and nothing else is.

The letter grid is one `bytearray`, a byte per square and a newline after
each row, filled in place by `_letter_grids`, which `tiling_to_ascii` and
the text listings share.
"""

from __future__ import annotations

import colorsys
import functools
import string
from typing import Iterable, Iterator, Sequence

from .region import Region, Tile, Tiling

_LETTERS = string.ascii_lowercase + string.ascii_uppercase + string.digits
_LETTER_BYTES = _LETTERS.encode()
_CELL_SIZE = 28  # SVG pixels per lattice unit
_COLORS_KEPT = 1024  # tile colours kept across calls, by index


def tiling_to_ascii(tiling: Tiling) -> str:
    """Letter grid, one letter per tile, '.' outside the region, top row first.

    Tile i writes letter i (wrapping after the last) over its cells, so a
    later tile wins a square two tiles share; a cell outside the region's
    bounding box is not drawn.
    """
    tiles = tiling.tiles
    return next(_letter_grids(tiling.region, tiles, [range(len(tiles))]))


def _letter_grids(region: Region, tiles: Sequence[Tile], tilings: Iterable[Sequence[int]]) -> Iterator[str]:
    """`tiling_to_ascii` of each tiling in `tilings`, given as positions in `tiles`.

    One grid is rewritten for every tiling: the tile at depth d writes
    letter d (wrapping after the last) over its cells.  A tiling that
    begins with the same tiles as the one before keeps their letters, and
    only its tiles from the first depth where the two differ are written.
    Those cover every region cell the shared tiles leave, so no cell keeps
    a letter from an earlier tiling; cells outside the region stay '.'.
    Each tiling is compared with the one before, so a caller gives a new
    sequence for each, never one list rewritten in place.
    """
    _, _, max_x, max_y = region.bounds
    stride = max_x + 2  # a row and its newline
    grid = bytearray(b".") * (stride * (max_y + 1) - 1)
    grid[max_x + 1 :: stride] = b"\n" * max_y
    spots = _grid_spots(tiles, max_x, max_y)
    drawn: Sequence[int] = ()
    for picks in tilings:
        depth = 0
        for was, pick in zip(drawn, picks):
            if was != pick:
                break
            depth += 1
        for depth in range(depth, len(picks)):
            letter = _LETTER_BYTES[depth % len(_LETTER_BYTES)]
            for spot in spots[picks[depth]]:
                grid[spot] = letter
        drawn = picks
        yield grid.decode()


def _grid_spots(tiles: Sequence[Tile], max_x: int, max_y: int) -> list[list[int]]:
    """Each tile's squares as positions in the letter grid of the box
    (0, 0)..(max_x, max_y), leaving out any square outside the box."""
    stride = max_x + 2
    steps: dict[str, tuple[int, ...]] = {}  # per shape, positions from the root
    out = []
    for tile in tiles:
        shape = tile.shape
        step = steps.get(shape.moves)
        if step is None:
            step = steps[shape.moves] = tuple(dx - dy * stride for dx, dy in shape.offsets)
        x, y = tile.root
        width, height = shape.offsets[-1]
        if 0 <= x and x + width <= max_x and 0 <= y and y + height <= max_y:
            base = (max_y - y) * stride + x
            out.append([base + s for s in step])
        else:
            out.append(
                [(max_y - y) * stride + x for x, y in tile.cells() if 0 <= x <= max_x and 0 <= y <= max_y]
            )
    return out


@functools.lru_cache(maxsize=_COLORS_KEPT)
def _tile_color(index: int) -> str:
    # Knuth multiplicative hash onto the hue circle: stable per tile index.
    hue = (index * 2654435761 % 2**32) / 2**32
    r, g, b = colorsys.hls_to_rgb(hue, 0.72, 0.65)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _outline(cells: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Boundary polygon of a ribbon, as lattice points in draw order.

    Collects each cell's four boundary segments directed counter-clockwise;
    segments shared by two cells cancel in opposite pairs.  A ribbon never
    touches itself diagonally (its cells climb one level per step), so the
    survivors chain into a single simple loop.  The loop starts at its
    least point, so translating the cells translates the loop point by point.
    """
    segments: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for x, y in cells:
        for a, b in (
            ((x, y), (x + 1, y)),
            ((x + 1, y), (x + 1, y + 1)),
            ((x + 1, y + 1), (x, y + 1)),
            ((x, y + 1), (x, y)),
        ):
            if (b, a) in segments:
                segments.remove((b, a))
            else:
                segments.add((a, b))
    succ = dict(segments)
    start = min(succ)
    loop = [start]
    here = succ[start]
    while here != start:
        loop.append(here)
        here = succ[here]
    return loop


def tiling_to_svg(tiling: Tiling) -> str:
    """One colored polygon per ribbon, root cells marked with a dot.

    Each shape's outline is traced once, from its offsets, and scaled to
    pixels; a tile's polygon is that outline moved to the tile's root.
    """
    _, _, max_x, max_y = tiling.region.bounds
    width = (max_x + 1) * _CELL_SIZE
    height = (max_y + 1) * _CELL_SIZE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    outlines: dict[str, list[tuple[int, int]]] = {}  # per shape, pixels from the root's corner
    for i, tile in enumerate(tiling.tiles):
        shape = tile.shape
        outline = outlines.get(shape.moves)
        if outline is None:
            outline = outlines[shape.moves] = [
                (x * _CELL_SIZE, y * _CELL_SIZE) for x, y in _outline(shape.offsets)
            ]
        x, y = tile.root
        left = x * _CELL_SIZE
        bottom = (max_y + 1 - y) * _CELL_SIZE
        points = " ".join([f"{left + dx},{bottom - dy}" for dx, dy in outline])
        parts.append(
            f'<polygon class="ribbon" points="{points}" fill="{_tile_color(i)}" '
            f'stroke="#333" stroke-width="1.5"/>'
        )
    radius = _CELL_SIZE * 0.12
    for tile in tiling.tiles:
        x, y = tile.root
        cx = (x + 0.5) * _CELL_SIZE
        cy = (max_y + 0.5 - y) * _CELL_SIZE
        parts.append(f'<circle class="root" cx="{cx}" cy="{cy}" r="{radius}" fill="#222"/>')
    parts.append("</svg>")
    return "\n".join(parts)
