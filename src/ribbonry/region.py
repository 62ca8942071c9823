"""Lattice regions, ribbon shapes, tiles, and tilings.

Coordinates are unit squares on the integer lattice, addressed by their
lower-left corner (x, y).  The level of a cell is x + y, so anti-diagonals
are level sets.  An n-ribbon is a connected strip of n cells in which each
cell after the first sits directly east or directly north of its
predecessor; it therefore meets n consecutive levels, one cell per level,
and its unique minimal-level cell is called the root.

A `Region` never changes once built.  So `build_rectangle`, `build_aztec`
and `build_stair` return the region still alive from an earlier call with
the same arguments, found through weak references that keep no region
alive by themselves: while the sampler's table cache holds a region, a
repeated spec gets that same object and builds nothing.
"""

from __future__ import annotations

import json
import types
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, product, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

EAST = "E"
NORTH = "N"

_TILE_KEYS = frozenset({"root", "moves"})
_TILING_KEYS = frozenset({"tiles"})
_new_tuple = tuple.__new__


class Cell(NamedTuple):
    x: int
    y: int

    @property
    def level(self) -> int:
        return self.x + self.y

    def east(self) -> "Cell":
        return Cell(self.x + 1, self.y)

    def north(self) -> "Cell":
        return Cell(self.x, self.y + 1)


@dataclass(frozen=True)
class RibbonShape:
    """Shape of a ribbon: a word over {E, N} giving the successive steps.

    The empty word is the monomino.  A length-n ribbon has n-1 steps, so
    there are 2^(n-1) shapes of each length.  The cells' offsets from the
    root are worked out once per shape, on first use (`offsets`).
    """

    moves: str = ""

    def __post_init__(self) -> None:
        bad = set(self.moves) - {EAST, NORTH}
        if bad:
            raise ValueError(f"shape moves must be E or N, got {sorted(bad)!r}")

    @property
    def length(self) -> int:
        return len(self.moves) + 1

    @cached_property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        """(dx, dy) of each cell from the root, in walk order.  Steps only go
        east or north, so the last offset is the largest in both coordinates."""
        dx = dy = 0
        out = [(0, 0)]
        for move in self.moves:
            if move == NORTH:
                dy += 1
            else:
                dx += 1
            out.append((dx, dy))
        return tuple(out)

    @classmethod
    def from_word(cls, word: str, n: int) -> "RibbonShape":
        """Decode an (n-1)-bit word: bit 0 is an east step, bit 1 a north step."""
        if len(word) != n - 1:
            raise ValueError(f"need {n - 1} bits for a {n}-ribbon, got {len(word)}")
        bad = set(word) - {"0", "1"}
        if bad:
            raise ValueError(f"shape word must be binary, got {sorted(bad)!r}")
        return cls("".join(NORTH if b == "1" else EAST for b in word))

    def to_word(self) -> str:
        return "".join("1" if m == NORTH else "0" for m in self.moves)

    @staticmethod
    def all_shapes(n: int) -> list["RibbonShape"]:
        """All 2^(n-1) shapes of length n, in lexicographic word order."""
        if n < 1:
            raise ValueError(f"ribbon length must be positive, got {n}")
        return [
            RibbonShape.from_word(format(w, f"0{n - 1}b") if n > 1 else "", n)
            for w in range(1 << (n - 1))
        ]


@dataclass(frozen=True)
class Tile:
    """A concrete ribbon: a shape placed with its root at a cell."""

    root: Cell
    shape: RibbonShape

    @property
    def length(self) -> int:
        return self.shape.length

    def cells(self) -> tuple[Cell, ...]:
        """Cells in walk order; levels are root.level, root.level+1, ...

        The root plus each of the shape's `offsets`, which are computed once
        per shape; each cell is made as `Cell(x, y)` makes it, by
        `tuple.__new__`, without a Python-level call per cell.
        """
        x, y = self.root
        return tuple([_new_tuple(Cell, (x + dx, y + dy)) for dx, dy in self.shape.offsets])

    @property
    def top(self) -> Cell:
        """The unique maximal-level cell."""
        return self.cells()[-1]

    def to_json_dict(self) -> dict:
        return {"root": [self.root.x, self.root.y], "moves": self.shape.moves}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tile":
        """The tile `data` describes."""
        x, y, shape = _tile_fields(data, {})
        return cls(_new_tuple(Cell, (x, y)), shape)


def _tile_fields(data: dict, shapes: dict[str, RibbonShape]) -> tuple[int, int, RibbonShape]:
    """The root's x and y and the shape of the tile `data` describes, the
    shape taken from or added to `shapes` by its moves string."""
    if not (isinstance(data, dict) and data.keys() <= _TILE_KEYS):
        _reject_unknown_keys(data, _TILE_KEYS)  # raises
    x, y = data["root"]
    moves = data["moves"]
    if type(x) is not int or type(y) is not int or not isinstance(moves, str):
        raise TypeError(f"tile needs an integer root and string moves, got {data!r}")
    shape = shapes.get(moves)
    if shape is None:
        shape = shapes[moves] = RibbonShape(moves)
    return x, y, shape


def _reject_unknown_keys(data: dict, allowed: frozenset[str]) -> None:
    """The tiling schema sets additionalProperties: false on tilings and tiles."""
    if not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, got {type(data).__name__}")
    unknown = data.keys() - allowed
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")


class RegionParseError(ValueError):
    """Raised on malformed grid text."""


@dataclass(frozen=True)
class Region:
    """A finite set of cells, normalized so min x = min y = 0."""

    cells: frozenset[Cell]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("region must contain at least one cell")
        dx = min(self.cells).x  # a Cell sorts by (x, y)
        dy = min(map(itemgetter(1), self.cells))
        if dx or dy:
            shifted = frozenset(Cell(c.x - dx, c.y - dy) for c in self.cells)
            object.__setattr__(self, "cells", shifted)

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[int, int]]) -> "Region":
        return cls(frozenset(Cell(int(x), int(y)) for x, y in cells))

    @classmethod
    def _at_origin(cls, cells: frozenset[Cell]) -> "Region":
        """The region of nonempty `cells` whose minima are already 0, made
        without taking the minima again."""
        region = object.__new__(cls)
        object.__setattr__(region, "cells", cells)
        return region

    def __reduce__(self) -> tuple:
        """Pickle and copy the cells alone: the cached read-only mappings cannot be."""
        return (Region, (self.cells,))

    @cached_property
    def area(self) -> int:
        return len(self.cells)

    @cached_property
    def bounds(self) -> tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y); the minima are 0 by normalization."""
        return (0, 0, max(self.cells).x, max(map(itemgetter(1), self.cells)))

    @cached_property
    def level_histogram(self) -> types.MappingProxyType[int, int]:
        """Cells per level, by ascending level, read-only since a region is shared.

        Counted in one pass over `sorted_cells`, which are in level order.
        """
        return types.MappingProxyType(
            {level: len(list(cells)) for level, cells in groupby(map(sum, self.sorted_cells))}
        )

    @cached_property
    def sorted_cells(self) -> tuple[Cell, ...]:
        """Cells in canonical (level, x) order.

        Sorted by (x, y), then stably by level x + y, which keys each cell by
        one int rather than a tuple: half the peak memory on a long strip.
        """
        return tuple(sorted(sorted(self.cells), key=sum))

    @cached_property
    def is_connected(self) -> bool:
        return self._flood(self.cells, next(iter(self.cells))) == self.cells

    @cached_property
    def is_simply_connected(self) -> bool:
        """True iff the region is connected and has no hole: its complement
        within an inflated bounding frame is connected too."""
        if not self.is_connected:
            return False
        min_x, min_y, max_x, max_y = self.bounds
        frame = {
            Cell(x, y)
            for x in range(min_x - 1, max_x + 2)
            for y in range(min_y - 1, max_y + 2)
            if Cell(x, y) not in self.cells
        }
        return self._flood(frame, Cell(min_x - 1, min_y - 1)) == frame

    @staticmethod
    def _flood(cells: frozenset[Cell] | set[Cell], start: Cell) -> set[Cell]:
        seen = {start}
        stack = [start]
        while stack:
            x, y = stack.pop()
            for nb in (Cell(x + 1, y), Cell(x - 1, y), Cell(x, y + 1), Cell(x, y - 1)):
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return seen

    def is_rectangle(self) -> bool:
        _, _, max_x, max_y = self.bounds
        return self.area == (max_x + 1) * (max_y + 1)

    def to_text(self) -> str:
        """Grid picture, one row per line, top row first, '#' cell / '.' gap."""
        _, _, max_x, max_y = self.bounds
        rows = []
        for y in range(max_y, -1, -1):
            rows.append("".join("#" if Cell(x, y) in self.cells else "." for x in range(max_x + 1)))
        return "\n".join(rows)

    def __contains__(self, cell: object) -> bool:
        return cell in self.cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.sorted_cells)


def parse_region(text: str) -> Region:
    """Parse a grid of '#' (cell) and '.' (gap); the last line is the y=0 row.

    Lines may be ragged; anything past a short line's end is a gap.  Raises
    RegionParseError on characters outside {#, .} or on an empty grid.
    """
    lines = text.splitlines()
    cells: list[tuple[int, int]] = []
    height = len(lines)
    for row, line in enumerate(lines):
        for col, ch in enumerate(line):
            if ch == "#":
                cells.append((col, height - 1 - row))
            elif ch != ".":
                raise RegionParseError(
                    f"illegal character {ch!r} at line {row + 1}, column {col + 1}"
                )
    if not cells:
        raise RegionParseError("grid contains no cells")
    return Region.from_cells(cells)


def _cells(pairs: Iterable[tuple[int, int]]) -> frozenset[Cell]:
    """The cells at integer pairs, each made as `Cell(x, y)` makes it, by
    `tuple.__new__`, without a Python-level call per cell."""
    return frozenset(map(tuple.__new__, repeat(Cell), pairs))


#: The builders' regions still alive, by builder name and arguments.
_built: weakref.WeakValueDictionary[tuple, Region] = weakref.WeakValueDictionary()


def build_rectangle(rows: int, cols: int) -> Region:
    """The rows x cols rectangle with lower-left corner at the origin."""
    if rows < 1 or cols < 1:
        raise ValueError(f"rectangle sides must be positive, got {rows}x{cols}")
    key = ("rect", rows, cols)
    region = _built.get(key)
    if region is None:
        region = _built[key] = Region(_cells(product(range(cols), range(rows))))
    return region


def build_aztec(size: int, n: int, k: int = 0) -> Region:
    """Generalized Aztec diamond AD(size, n, k) of area n*size*(size+1).

    Column x in 0..2*size-1 is a bar of n*min(x+1, 2*size-x) cells.  Left-half
    bottoms descend one per column to 0; the right half starts at offset k and
    each further column steps up by n-1.  AD(size, 2, 0) is the classical
    Aztec diamond of order `size`.
    """
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    if n < 2:
        raise ValueError(f"ribbon length must be at least 2, got {n}")
    if not 0 <= k <= n - 2:
        raise ValueError(f"offset must be in [0, {n - 2}], got {k}")
    key = ("aztec", size, n, k)
    region = _built.get(key)
    if region is not None:
        return region
    bottoms: dict[int, int] = {x: size - 1 - x for x in range(size)}
    bottoms[size] = k
    for x in range(size, 2 * size - 1):
        bottoms[x + 1] = bottoms[x] + (n - 1)
    columns = []
    for x in range(2 * size):
        height = n * min(x + 1, 2 * size - x)
        columns.append(zip(repeat(x, height), range(bottoms[x], bottoms[x] + height)))
    region = _built[key] = Region(_cells(chain.from_iterable(columns)))
    return region


def build_stair(rows: int, row_length: int) -> Region:
    """Staircase of `rows` rows of `row_length` cells, each shifted one right.

    Row r occupies cells (r+j, r) for 0 <= j < row_length.
    """
    if rows < 1 or row_length < 1:
        raise ValueError(f"stair parameters must be positive, got {rows}, {row_length}")
    key = ("stair", rows, row_length)
    region = _built.get(key)
    if region is None:
        pairs = chain.from_iterable(zip(range(r, r + row_length), repeat(r)) for r in range(rows))
        region = _built[key] = Region(_cells(pairs))
    return region


@dataclass(frozen=True)
class Tiling:
    """A partition of a region into ribbon tiles, in canonical root order."""

    region: Region
    tiles: tuple[Tile, ...]

    def validate(self) -> None:
        """Check the tiles partition the region and roots ascend by (level, x).

        Raises `ValueError` on the first fault, in this order: going tile by
        tile and cell by cell, a cell outside the region or covered twice;
        then up to three uncovered cells, sorted; then the root order.
        """
        region = self.region.cells
        covered: set[Cell] = set()
        for tile in self.tiles:
            for cell in tile.cells():
                if cell not in region:
                    raise ValueError(f"tile cell {cell} lies outside the region")
                if cell in covered:
                    raise ValueError(f"cell {cell} covered twice")
                covered.add(cell)
        # Every covered cell is in the region, so equal sizes mean equal sets.
        if len(covered) != len(region):
            missing = sorted(region - covered)[:3]
            raise ValueError(f"cells left uncovered, e.g. {missing}")
        roots = [(t.root.level, t.root.x) for t in self.tiles]
        if roots != sorted(roots):
            raise ValueError("tiles are not in canonical root order")

    def to_json_dict(self) -> dict:
        return {"tiles": [t.to_json_dict() for t in self.tiles]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tiling":
        """The tiling `data` describes, shifted so its cells' minima are 0,
        on the region its tiles cover, tiles in canonical root order.

        Tiles of one moves string share one shape, each tile is made once, at
        its shifted root, and its cells are computed once.  Such a tiling can
        break only one of `validate`'s rules, a cell covered twice;
        `validate` runs only when the cells count more than the region, to
        report that cell as it does.
        """
        _reject_unknown_keys(data, _TILING_KEYS)
        items = data["tiles"]
        if not isinstance(items, (list, tuple)):  # what json.dumps writes as an array
            raise TypeError(f"tiles: expected a JSON array, got {type(items).__name__}")
        shapes: dict[str, RibbonShape] = {}
        fields = [_tile_fields(t, shapes) for t in items]
        if not fields:
            raise ValueError("tiling has no tiles")
        # Offsets are never negative, so the roots hold the cells' minima.
        dx = min([x for x, _, _ in fields])
        dy = min([y for _, y, _ in fields])
        fields.sort(key=lambda f: (f[0] + f[1], f[0]))
        tiles = [Tile(_new_tuple(Cell, (x - dx, y - dy)), shape) for x, y, shape in fields]
        cells = [cell for tile in tiles for cell in tile.cells()]
        tiling = cls(Region._at_origin(frozenset(cells)), tuple(tiles))
        if len(tiling.region.cells) != len(cells):
            tiling.validate()  # raises: some cell is covered twice
        return tiling

    @classmethod
    def from_json(cls, text: str) -> "Tiling":
        return cls.from_json_dict(json.loads(text))
