"""Exact counting, streaming enumeration, and uniform sampling of ribbon tilings.

The search places one tile at a time, always rooted at the uncovered cell
that is minimal in (level, x) order.  Any ribbon covering that cell must be
rooted there (a ribbon meets one cell per level, so a root at a lower level
would itself be an uncovered cell of lower level), which makes the search
exhaustive and duplicate-free.

Once the minimal uncovered cell sits at level L, every cell below level L is
covered and no cell at level >= L + n can be covered yet, so the state is the
occupancy of the band of levels [L, L + n - 1].  With cells indexed in
(level, x) order the covered bitmask is all ones below the band and all
zeros above it, so the bitmask itself identifies the state.

Every count goes through one layered core, `_Searcher.layers`.  Layer i holds
the states whose minimal free cell is i.  A placement covers that cell, so a
state's children all land in higher layers, and the layers are expanded in
increasing i with no stack and no memo.  The core runs in two modes:

- Sweep mode (`_Searcher.sweep`) carries a value forward from state 0 and
  drops each layer once expanded, so memory is bounded by the live layers,
  not by every state visited.  `count_tilings` and `count_variable` carry
  the number of ways to reach a state; `count_minimal` carries (fewest
  tiles, ways) with a min-plus merge.
- Table mode (`_Searcher.completions`) keeps every layer, then fills the
  number of completions of each state from the top layer down, for the
  sampler.

The enumeration walk needs no counts and keeps its own explicit stack.  No
search recurses, so region size, not search depth, bounds what can be
counted or listed.

A completion table depends only on the region and n, not on the seed, so
`sample_tiling` keeps the tables of recently sampled (region, n) pairs,
least recently used first out, up to `_TABLE_BUDGET` states in all; a table
larger than the whole budget is not kept.  A draw reads the same complete
table whether or not it was cached, so each seed gives the same tiling.
Counting and enumeration never use these tables, and a new process starts
with none.
"""

from __future__ import annotations

import math
import operator
import random
import threading
from collections import OrderedDict, defaultdict
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TypeVar

from .region import Region, RibbonShape, Tile, Tiling

_V = TypeVar("_V")

#: States, summed over every table, that the sampler's cache may keep.
_TABLE_BUDGET = 1 << 17


def _same(value: _V) -> _V:
    return value


class NotTileableError(ValueError):
    """Raised when an operation needs a tiling of a region that has none."""


class _Searcher:
    """Placement table and frontier search over one region and set of lengths."""

    def __init__(self, region: Region, lengths: Iterable[int]) -> None:
        self.region = region
        self.lengths = frozenset(lengths)
        if not self.lengths or min(self.lengths) < 1:
            raise ValueError("lengths must be positive")
        self.max_len = max(self.lengths)
        self.order = region.sorted_cells
        self.index = {c: i for i, c in enumerate(self.order)}
        self.full = (1 << region.area) - 1
        self.placements = [self._placements_for(i) for i in range(region.area)]

    def _placements_for(self, root_index: int) -> list[tuple[Tile, int]]:
        """Tiles rooted at cell `root_index` that fit the region, with their masks.

        Order is canonical: depth first, a shape before its extensions and E
        before N.
        """
        root = self.order[root_index]
        # A ribbon climbs one level per cell, so none rooted here is longer.
        longest = min(self.max_len, self.order[-1].level - root.level + 1)
        out: list[tuple[Tile, int]] = []
        stack = [(root, "", 1 << root_index)] if longest >= min(self.lengths) else []
        while stack:
            at, moves, mask = stack.pop()
            if len(moves) + 1 in self.lengths:
                out.append((Tile(root, RibbonShape(moves)), mask))
            if len(moves) + 1 == longest:
                continue
            for mv, nxt in (("N", at.north()), ("E", at.east())):
                j = self.index.get(nxt)
                if j is not None:
                    stack.append((nxt, moves + mv, mask | (1 << j)))
        return out

    def options(self, covered: int) -> list[tuple[Tile, int]]:
        """The placements rooted at the minimal free cell of `covered`."""
        free = self.full ^ covered
        return self.placements[(free & -free).bit_length() - 1]

    def layers(
        self, start: _V, extend: Callable[[_V], _V], merge: Callable[[_V, _V], _V]
    ) -> Iterator[tuple[int, dict[int, _V]]]:
        """Every state reachable from 0, one layer at a time, with its value.

        Layer i holds the states whose minimal free cell is i, and is yielded
        as (i, layer) in increasing i.  Every cell below i is covered, so a
        state of layer i is keyed by its bits from cell i up (`covered >> i`),
        which keeps keys as wide as the frontier band, not the region.  The
        full state, if reached, comes last: layer `area`, key 0.

        State 0 starts with `start`.  A state passes `extend(value)` to each
        child, and a child reached more than once merges the values with
        `merge`.  A placement covers the minimal free cell, so every child
        lands in a higher layer: a layer is complete when yielded and dropped
        once its children are made, and only the layers not yet expanded are
        ever held.
        """
        pending: defaultdict[int, dict[int, _V]] = defaultdict(dict)
        pending[0][0] = start
        for i, options in enumerate(self.placements):
            layer = pending.pop(i, None)
            if layer is None:
                continue
            yield i, layer
            masks = [mask >> i for _, mask in options]
            for state, value in layer.items():
                value = extend(value)
                for mask in masks:
                    if mask & state:
                        continue
                    child = state | mask
                    # Bit 0 is now covered; the lowest zero bit is the next free cell.
                    step = (child ^ (child + 1)).bit_length() - 1
                    nxt = pending[i + step]
                    child >>= step
                    old = nxt.get(child)
                    nxt[child] = value if old is None else merge(old, value)
        if pending:
            yield self.region.area, pending.pop(self.region.area)

    def sweep(
        self, start: _V, extend: Callable[[_V], _V], merge: Callable[[_V, _V], _V], stuck: _V
    ) -> _V:
        """The value that `layers` carries to the full state, or `stuck` if none."""
        for i, layer in self.layers(start, extend, merge):
            if i == self.region.area:
                return layer[0]
        return stuck

    def count(self) -> int:
        """Number of tilings: ways to reach the full state from state 0."""
        return self.sweep(1, _same, operator.add, 0)

    def completions(self) -> dict[int, int]:
        """Completion counts of every state reachable from 0 but the full one.

        The table is keyed by the covered bitmask.  Its states come from a
        forward pass that keeps its layers; the counts are then filled from
        the top layer down, the full state counting 1 and a dead end 0.
        """
        area, full = self.region.area, self.full
        kept = []
        for i, layer in self.layers(1, _same, operator.add):
            if i < area:
                below = (1 << i) - 1  # every cell under i is covered
                kept.append((i, [(state << i) | below for state in layer]))
        table: dict[int, int] = {}
        for i, states in reversed(kept):
            options = self.placements[i]
            for state in states:
                total = 0
                for _, mask in options:
                    if not mask & state:
                        child = state | mask
                        total += 1 if child == full else table[child]
                table[state] = total
        return table

    def walk(self) -> Iterator[Tiling]:
        """Every tiling, depth first with placements in table order."""
        full = self.full
        tiles: list[Tile] = []
        stack = [(0, iter(self.options(0)))]
        while stack:
            state, remaining = stack[-1]
            for tile, mask in remaining:
                if mask & state:
                    continue
                child = state | mask
                tiles.append(tile)
                if child == full:
                    yield Tiling(self.region, tuple(tiles))
                    tiles.pop()
                    continue
                stack.append((child, iter(self.options(child))))
                break
            else:
                stack.pop()
                if tiles:
                    tiles.pop()


_Table = tuple[_Searcher, dict[int, int]]


class _TableCache:
    """Searchers and completion tables of recently sampled (region, n), least recent first."""

    def __init__(self) -> None:
        self.tables: OrderedDict[tuple[Region, int], _Table] = OrderedDict()
        self.states = 0  # table states over all kept tables
        self._lock = threading.Lock()  # sample_tiling may run on several threads at once

    def get(self, region: Region, n: int) -> _Table:
        """The searcher for (region, n) and its `completions` table."""
        key = (region, n)
        with self._lock:
            entry = self.tables.get(key)
            if entry is not None:
                self.tables.move_to_end(key)
                return entry
        searcher = _Searcher(region, [n])
        table = searcher.completions()
        entry = (searcher, table)
        size = len(table)
        with self._lock:
            if size <= _TABLE_BUDGET and key not in self.tables:
                self.tables[key] = entry
                self.states += size
                while self.states > _TABLE_BUDGET:
                    _, (_, evicted) = self.tables.popitem(last=False)
                    self.states -= len(evicted)
        return entry


_tables = _TableCache()


def count_tilings(region: Region, n: int) -> int:
    """Number of tilings of the region by n-ribbons (0 if there are none)."""
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    if region.area % n:
        return 0
    return _Searcher(region, [n]).count()


def enumerate_tilings(region: Region, n: int) -> Iterator[Tiling]:
    """Stream every tiling exactly once, in canonical (root, shape-word) order."""
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    if region.area % n:
        return
    yield from _Searcher(region, [n]).walk()


def is_tileable(region: Region, n: int) -> bool:
    """Whether at least one n-ribbon tiling exists.

    Rectangles short-circuit: an a x b rectangle is n-tileable iff n divides
    a or b.  Other regions fall back to counting.
    """
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    if region.area % n:
        return False
    if region.is_rectangle():
        min_x, min_y, max_x, max_y = region.bounds
        return (max_y - min_y + 1) % n == 0 or (max_x - min_x + 1) % n == 0
    return count_tilings(region, n) > 0


def sample_tiling(region: Region, n: int, seed: int) -> Tiling:
    """Draw one tiling exactly uniformly at random, deterministic per seed.

    Each step places the tile at the minimal uncovered cell with probability
    proportional to the number of completions after it, so every full tiling
    comes out with probability exactly 1 / count_tilings.

    The completion counts are kept for later calls in the same process (see
    the module docstring), so repeated draws from one region count it once.
    """
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    if region.area % n:
        raise NotTileableError(f"area {region.area} is not a multiple of {n}")
    searcher, table = _tables.get(region, n)
    full = searcher.full
    total = table[0]
    if total == 0:
        raise NotTileableError(f"region of area {region.area} has no {n}-ribbon tiling")
    rng = random.Random(seed)
    covered = 0
    tiles: list[Tile] = []
    remaining = total
    while covered != full:
        pick = rng.randrange(remaining)
        for tile, mask in searcher.options(covered):
            if mask & covered:
                continue
            child = covered | mask
            weight = 1 if child == full else table[child]
            if pick < weight:
                tiles.append(tile)
                covered = child
                remaining = weight
                break
            pick -= weight
        else:
            raise AssertionError("completion counts disagree with branch weights")
    return Tiling(region, tuple(tiles))


def tiling_probability(region: Region, n: int, tiling: Tiling) -> Fraction:
    """Exact probability the sampler assigns to `tiling` (1 / total count).

    The sampler's per-step ratios telescope to 1 / count, and every valid
    tiling by n-ribbons is reachable: its roots ascend, so each tile is
    rooted at the minimal free cell when its turn comes.
    """
    tiling.validate()
    if tiling.region != region:
        raise ValueError("tiling covers a different region")
    for tile in tiling.tiles:
        if tile.length != n:
            raise NotTileableError(f"tile at {tile.root} has length {tile.length}, not {n}")
    return Fraction(1, count_tilings(region, n))


def count_variable(region: Region) -> int:
    """Number of tilings by ribbons of any length from 1 to the region's area."""
    return _Searcher(region, range(1, region.area + 1)).count()


def _one_more_tile(value: tuple[int, int]) -> tuple[int, int]:
    return (value[0] + 1, value[1])


def _fewer_tiles(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Min-plus merge of (tiles, ways): the fewer tiles win, a tie adds the ways."""
    if a[0] != b[0]:
        return min(a, b)
    return (a[0], a[1] + b[1])


def count_minimal(region: Region) -> tuple[int, int]:
    """(fewest ribbons in any tiling, number of tilings using that few)."""
    searcher = _Searcher(region, range(1, region.area + 1))
    return searcher.sweep((0, 1), _one_more_tile, _fewer_tiles, (region.area + 1, 0))


def log2_big(value: int) -> float:
    """log2 of a positive integer of any size, accurate to float precision."""
    if value <= 0:
        raise ValueError(f"need a positive integer, got {value}")
    shift = max(value.bit_length() - 64, 0)
    return math.log2(value >> shift) + shift


def entropy(region: Region, n: int) -> float:
    """Per-tile entropy log2(count) / (area / n).

    Raises NotTileableError when the region has no n-ribbon tiling, since the
    entropy is undefined there.
    """
    count = count_tilings(region, n)
    if count == 0:
        raise NotTileableError(
            f"region of area {region.area} has no {n}-ribbon tiling; entropy undefined"
        )
    return log2_big(count) / (region.area // n)
