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
zeros above it, so the bitmask itself serves as the memo key.

Every count goes through one memoized post-order fold over the search tree
(`_Searcher.fold`): a finished tiling contributes a leaf value, and each
state combines the values of its children.  Plain counts use leaf 1 and sum;
`count_minimal` uses leaf (0, 1) and a min-plus combine.  The fold and the
enumeration walk keep their own explicit stacks, so region size, not search
depth, bounds what can be counted or listed.

A completion count depends only on the region and n, not on the seed, so
`sample_tiling` keeps the counted searchers of recently sampled (region, n)
pairs, least recently used first out, up to `_TABLE_BUDGET` memo states in
all; a table larger than the whole budget is not kept.  A draw reads the same
complete memo whether or not it was cached, so each seed gives the same
tiling.  Counting and enumeration never use these tables, and a new process
starts with none.
"""

from __future__ import annotations

import math
import random
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .region import Region, RibbonShape, Tile, Tiling

_V = TypeVar("_V")

#: Memo states, summed over every table, that the sampler's cache may keep.
_TABLE_BUDGET = 1 << 17


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
        self.memo: dict[int, Any] = {}
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

    def fold(self, covered: int, leaf: _V, combine: Callable[[list[_V]], _V]) -> _V:
        """Fold `leaf` over every completion of `covered`, bottom up.

        An explicit-stack post-order pass: a frame holds a state, an iterator
        over the placements still to try at its minimal free cell, and the
        values of its finished children.  When the placements run out,
        `combine` turns the values into the state's own, which is memoized
        and handed to the parent frame.
        """
        full, memo = self.full, self.memo
        if covered == full:
            return leaf
        if covered in memo:
            return memo[covered]
        stack = [(covered, iter(self.options(covered)), [])]
        while True:
            state, remaining, values = stack[-1]
            for _, mask in remaining:
                if mask & state:
                    continue
                child = state | mask
                if child == full:
                    values.append(leaf)
                elif child in memo:
                    values.append(memo[child])
                else:
                    stack.append((child, iter(self.options(child)), []))
                    break
            else:
                stack.pop()
                value = combine(values)
                memo[state] = value
                if not stack:
                    return value
                stack[-1][2].append(value)

    def count(self, covered: int) -> int:
        """Number of ways to finish tiling from `covered`."""
        return self.fold(covered, 1, sum)

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


class _TableCache:
    """Counted searchers of recently sampled (region, n), least recent first."""

    def __init__(self) -> None:
        self.tables: OrderedDict[tuple[Region, int], _Searcher] = OrderedDict()
        self.states = 0  # memo states over all kept tables
        self._lock = threading.Lock()  # sample_tiling may run on several threads at once

    def get(self, region: Region, n: int) -> _Searcher:
        """The searcher for (region, n) with its memo complete from state 0."""
        key = (region, n)
        with self._lock:
            searcher = self.tables.get(key)
            if searcher is not None:
                self.tables.move_to_end(key)
                return searcher
        searcher = _Searcher(region, [n])
        searcher.count(0)
        size = len(searcher.memo)
        with self._lock:
            if size <= _TABLE_BUDGET and key not in self.tables:
                self.tables[key] = searcher
                self.states += size
                while self.states > _TABLE_BUDGET:
                    _, evicted = self.tables.popitem(last=False)
                    self.states -= len(evicted.memo)
        return searcher


_tables = _TableCache()


def count_tilings(region: Region, n: int) -> int:
    """Number of tilings of the region by n-ribbons (0 if there are none)."""
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    if region.area % n:
        return 0
    return _Searcher(region, [n]).count(0)


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
        _, _, max_x, max_y = region.bounds
        return (max_y + 1) % n == 0 or (max_x + 1) % n == 0
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
    searcher = _tables.get(region, n)
    total = searcher.count(0)
    if total == 0:
        raise NotTileableError(f"region of area {region.area} has no {n}-ribbon tiling")
    rng = random.Random(seed)
    covered = 0
    tiles: list[Tile] = []
    remaining = total
    while covered != searcher.full:
        pick = rng.randrange(remaining)
        for tile, mask in searcher.options(covered):
            if mask & covered:
                continue
            weight = searcher.count(covered | mask)
            if pick < weight:
                tiles.append(tile)
                covered |= mask
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
    return _Searcher(region, range(1, region.area + 1)).count(0)


def count_minimal(region: Region) -> tuple[int, int]:
    """(fewest ribbons in any tiling, number of tilings using that few)."""
    stuck = region.area + 1

    def fewest(values: list[tuple[int, int]]) -> tuple[int, int]:
        best, ways = stuck, 0
        for sub_best, sub_ways in values:
            sub_best += 1
            if sub_best < best:
                best, ways = sub_best, sub_ways
            elif sub_best == best:
                ways += sub_ways
        return (best, ways)

    return _Searcher(region, range(1, region.area + 1)).fold(0, (0, 1), fewest)


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
