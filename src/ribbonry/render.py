"""ASCII and SVG pictures of tilings."""

from __future__ import annotations

import colorsys
import string
from typing import Iterable, Iterator, Sequence

from .region import Cell, Region, Tile, Tiling

_LETTERS = string.ascii_lowercase + string.ascii_uppercase + string.digits
_CELL_SIZE = 28  # SVG pixels per lattice unit


def tiling_to_ascii(tiling: Tiling) -> str:
    """Letter grid, one letter per tile, '.' outside the region, top row first."""
    owner: dict[Cell, int] = {}
    for i, tile in enumerate(tiling.tiles):
        for cell in tile.cells():
            owner[cell] = i
    _, _, max_x, max_y = tiling.region.bounds
    rows = []
    for y in range(max_y, -1, -1):
        rows.append(
            "".join(
                _LETTERS[owner[Cell(x, y)] % len(_LETTERS)] if Cell(x, y) in owner else "."
                for x in range(max_x + 1)
            )
        )
    return "\n".join(rows)


def _letter_grids(region: Region, tiles: list[Tile], tilings: Iterable[Sequence[int]]) -> Iterator[str]:
    """`tiling_to_ascii` of each tiling in `tilings`, given as positions in `tiles`.

    One grid is rewritten for every tiling: the tile at depth d writes
    letter d (wrapping after the last) over its cells.  Every region cell
    lies in some tile, so each is rewritten and none keeps a letter from an
    earlier tiling; cells outside the region stay '.'.
    """
    _, _, max_x, max_y = region.bounds
    stride = max_x + 2  # a row and its newline
    grid = list("\n".join(["." * (max_x + 1)] * (max_y + 1)))
    spots = [tuple((max_y - y) * stride + x for x, y in tile.cells()) for tile in tiles]
    for picks in tilings:
        for depth, pick in enumerate(picks):
            letter = _LETTERS[depth % len(_LETTERS)]
            for spot in spots[pick]:
                grid[spot] = letter
        yield "".join(grid)


def _tile_color(index: int) -> str:
    # Knuth multiplicative hash onto the hue circle: stable per tile index.
    hue = (index * 2654435761 % 2**32) / 2**32
    r, g, b = colorsys.hls_to_rgb(hue, 0.72, 0.65)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _outline(cells: tuple[Cell, ...]) -> list[tuple[int, int]]:
    """Boundary polygon of a ribbon, as lattice points in draw order.

    Collects each cell's four boundary segments directed counter-clockwise;
    segments shared by two cells cancel in opposite pairs.  A ribbon never
    touches itself diagonally (its cells climb one level per step), so the
    survivors chain into a single simple loop.
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
    """One colored polygon per ribbon, root cells marked with a dot."""
    _, _, max_x, max_y = tiling.region.bounds
    width = (max_x + 1) * _CELL_SIZE
    height = (max_y + 1) * _CELL_SIZE

    def px(point: tuple[int, int]) -> str:
        x, y = point
        return f"{x * _CELL_SIZE},{(max_y + 1 - y) * _CELL_SIZE}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, tile in enumerate(tiling.tiles):
        points = " ".join(px(p) for p in _outline(tile.cells()))
        parts.append(
            f'<polygon class="ribbon" points="{points}" fill="{_tile_color(i)}" '
            f'stroke="#333" stroke-width="1.5"/>'
        )
    for tile in tiling.tiles:
        cx = (tile.root.x + 0.5) * _CELL_SIZE
        cy = (max_y + 0.5 - tile.root.y) * _CELL_SIZE
        parts.append(
            f'<circle class="root" cx="{cx}" cy="{cy}" r="{_CELL_SIZE * 0.12}" fill="#222"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
