"""Exact counting, streaming enumeration, and uniform sampling of ribbon tilings.

Listing and sampling place one tile at a time, always rooted at the
uncovered cell that comes first in a fixed cell order.  A ribbon steps only
E or N, so in any order where every cell comes before its E and N
neighbours a ribbon's root is its first cell.  Any ribbon covering the
first free cell must then be rooted there (a root earlier in the order
would itself be a free cell before it), which makes the search exhaustive
and duplicate-free.  Every placement table is in (level, x) order, which
listing and sampling need.

Every cell before the first free cell i is covered, so every search keys a
state by its layer i and its band, the covered bits from cell i up.  A
placement's mask has its root as bit 0: at i it is tested against the band
as it is, and if the child `band | mask` has its `step` lowest bits set, it
is band `child >> step` of layer i + step.  The full state is layer `area`.
Once the first free cell sits at level L no cell at level >= L + n can be
covered yet, so the band spans levels [L, L + n - 1].

Ribbons of every length need no search.  Such a tiling picks for each cell
at most one successor, its E or N neighbour, with no cell picked twice, and
each chain of picks is a ribbon.  A pick joins levels l and l + 1, so the
picks on each level pair are a matching of its bipartite graph: zigzag paths
(l + 1, x) - (l, x) - (l + 1, x + 1) - (l, x + 1) - ... in (level, x) cells,
broken where a cell is missing.  A path of k vertices has F(k + 1)
matchings (F(1) = F(2) = 1), and its largest have floor(k / 2) edges: one
such for even k, (k + 1) / 2 for odd k.  Tiles are cells less picks, so
`count_variable` and `count_minimal` take linear time (`_by_level_pairs`).

Counting builds no placement table (`_count_by_depth`).  It builds the same
tilings one cell at a time in (level, x) order: a cell either starts a
ribbon, at depth 0, or continues the ribbon of its W or S neighbour, one
deeper, both on the level below.  A cell at depth n - 1 ends its ribbon and
is closed; any other is open, and its E or N neighbour must continue it.
While level L is stepped, a state holds one slot per x from lo - 1 up, with
lo the level's lowest x: level L's cell for the x already stepped, level
L - 1's for the rest.  When the cell at x = a comes, slot a holds its S
neighbour, and a carry slot the cell below at a - 1, its W neighbour, whose
N neighbour has passed.  An open carry must be continued here; otherwise
the cell starts a ribbon or continues an open S neighbour.  The S neighbour
then becomes the carry, unless the cell continued it.  A missing cell
continues nothing, so it drops every state with an open carry.  A state has
at most two children, where a placement search tests up to 2^(n - 1) masks.
Each state carries the number of ways to reach it.  Each cell's layer is
dropped once the next is made, so memory is bounded by one layer.  The
count is the ways of the all-closed state after the last cell.

Each level starts with one pass over the layer.  It drops every state that
left a cell below open with no successor on this level, and shifts the slots
to the new lowest x, which makes the cell below at lo - 1 the carry; slots
relative to each level keep a thin strip's keys small.  The same pass folds
a region equal to its own transpose, (x, y) -> (y, x), such as a square or
AD(N, 2, 0).  Transposition maps a ribbon to a ribbon and keeps every
cell's level and depth, so a state and its mirror image have equally many
completions.  The count is the sum over a layer of ways times completions,
so ways may move onto any state with the same completions and the count
stays exact.  At a level start a state holds level L - 1's cells alone,
which transposition takes from x to L - 1 - x, so a state's mirror is its
key with the slots reversed; the pass moves its ways onto the lesser of the
two.  12x12 with n = 3 expands 610,945 states instead of 1,080,126, in
120 against 152 ms (in process, best of 5, 2 cores, CPython 3.11).

The sampler's table (`_Searcher.completions`) comes from one post-order
search from state 0 on an explicit stack.  It memoises the number of
completions of every state it reaches, a dead end as 0, so each state is
searched once, and a state's count is known when its last child's is.

Every search reads one placement table, built once by `_Searcher` from each
cell's N and E neighbour indices, looked up once per cell: `moves` lists the
steps of every placement that fits, and `placements[i]` pairs the mask of
each one rooted at cell i with its position in `moves`.  Two per-placement
outputs are built on first read, by position: `tiles`, the `Tile`s that
`enumerate_tilings`, `sample_tiling` and text output read, and `fragments`,
each placement's JSON, from which the CLI writes the lines of `enumerate`
and `sample` without building a `Tile`.  The enumeration walk
(`_Searcher.walk`) needs no counts and builds nothing up front.  It keeps
its own explicit stack and searches each state once: it records the state's
live edges, the placements that lead to a tiling, and replays them on every
later visit, so it never tests a placement twice nor enters a dead state.
A state whose live edges all end at the full state or at flat records, and
whose tilings' output past it fits in `_FLAT_BUDGET` characters or tuple
items, is recorded flat instead: as that output, one ready suffix per
tiling, which a later visit yields with one concatenation each and no stack
(the idea of listing from a shared decision diagram, as in Knuth, TAOCP 4A
7.1.4, and Minato's zero-suppressed BDDs).  On 4x12 with n = 4 the
records replace 213,359 steps into edge lists with 6,629 for JSON lines.
Each searched state keeps one record, its edge list or at most the budget,
so the records stay linear in the states reachable from 0.  The walk folds
per-placement output along its stack: a caller passes a start and a label
and an end for each placement, each push adds its placement's label to the
head of the depth above, and each full tiling yields its head plus its last
placement's end.  So consecutive tilings share the output of their common
prefix, and each is built with one concatenation.  `enumerate_tilings`
folds 1-tuples of `Tile`s into each tiling's tiles, the CLI's JSON listing
folds `fragments` with their separators into each whole line, and its text
listing folds 1-tuples of positions for `_letter_grids`.  A draw
(`_descend`) returns the positions of its placements in root order, which
`sample_tiling` turns into a `Tiling` and the CLI's `sample` into one line
of `fragments`.  Listing and sampling search in (level, x) order, which
fixes the canonical listing order and each seed's tiling.  No search
recurses, so region size, not search depth, bounds what can be counted or
listed.

Before any search or count, `_may_tile` rules a rectangle in or out by its
sides, and any other region out by its area or by the tiles rooted at each
level, which `_root_levels` reads off the level histogram.  When it rules
every tiling out, counting returns 0 with no loop, and `_searcher_for` gives
a searcher over length 0, which no placement has: sampling raises and
listing yields nothing.

A completion table depends only on the region and n, not on the seed, so
`sample_tiling` keeps the tables of recently sampled (region, n) pairs,
least recently used first out.  Each entry is charged its table states plus
its region's cells, since the region and its searcher grow with the area, up
to `_TABLE_BUDGET` in all; an entry charged more than the whole budget is
not kept.  An entry holds its searcher, so a region's `fragments` are built
once while its entry is kept.  Threads that miss on the same (region, n) at
once build its table once: the first builds it and the others wait for it.
A draw reads the same complete table whether or not it was cached, so each
seed gives the same tiling.  Counting and enumeration never use these
tables, and a new process starts with none.
"""

from __future__ import annotations

import math
import random
import threading
from collections import OrderedDict
from functools import cached_property
from itertools import groupby
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, TypeVar

from .region import Cell, Region, RibbonShape, Tile, Tiling

if TYPE_CHECKING:
    from fractions import Fraction

_S = TypeVar("_S", str, tuple)  # what `_Searcher.walk` folds: strings or tuples

#: Table states plus region cells, summed over every entry, that the sampler's cache may keep.
_TABLE_BUDGET = 1 << 17

#: Most `len` units, characters or tuple items, in the suffixes of one flat record of the walk.
_FLAT_BUDGET = 2048


class NotTileableError(ValueError):
    """Raised when an operation needs a tiling of a region that has none."""


class _Searcher:
    """Placement table and frontier search over one region and one length n,
    for listing and sampling.

    Cells are indexed in (level, x) order (see the module docstring).
    Every search keys a state by (layer, band) and steps from it by the
    root-relative masks of `placements[layer]`.  Construction builds only
    the placement table: `tiles` and `fragments` are built when listing or
    sampling first reads them.  A length below 1 has no placement.
    """

    def __init__(self, region: Region, n: int) -> None:
        self.region = region
        self.n = n
        self.moves: list[str] = []  # the moves of every placement that fits, root by root
        self.placements: list[list[tuple[int, int]]] = []
        cells = region.sorted_cells
        index = {c: i for i, c in enumerate(cells)}
        # Each cell's N and E neighbours, as indices in (level, x) order or None,
        # pushed N first so that E pops first.
        steps = [(("N", index.get(Cell(x, y + 1))), ("E", index.get(Cell(x + 1, y)))) for x, y in cells]
        # A ribbon climbs one level per cell, so none rises past the top level,
        # the last cell's.
        top = sum(cells[-1])
        for i, (x, y) in enumerate(cells):
            # Canonical order: depth first, E before N.
            options: list[tuple[int, int]] = []
            stack = [(i, "", 1)] if 0 < n <= top - x - y + 1 else []
            while stack:
                at, moves, mask = stack.pop()
                if len(moves) + 1 == n:
                    options.append((mask, len(self.moves)))
                    self.moves.append(moves)
                    continue
                for mv, j in steps[at]:
                    if j is not None:
                        stack.append((j, moves + mv, mask | (1 << (j - i))))
            self.placements.append(options)

    @cached_property
    def tiles(self) -> list[Tile]:
        """Every placement as a `Tile`, by position; built on first use.

        Only `enumerate_tilings`, `sample_tiling` and text output read
        tiles, so counting and JSON output never build them.
        """
        shapes = {moves: RibbonShape(moves) for moves in set(self.moves)}
        return [
            Tile(root, shapes[self.moves[position]])
            for root, options in zip(self.region.sorted_cells, self.placements)
            for _, position in options
        ]

    @cached_property
    def fragments(self) -> list[str]:
        """Every placement's JSON, by position; built on first use.

        Each equals `json.dumps(tile.to_json_dict(), separators=(",", ":"))`
        of the placement's `Tile`, without building the tile: a root is a
        pair of integers, and moves are letters E and N, which need no
        escaping.  The CLI's `sample` joins a draw's line from these, and
        its listing folds them into each tiling's line (`walk`).
        """
        return [
            f'{{"root":[{x},{y}],"moves":"{self.moves[position]}"}}'
            for (x, y), options in zip(self.region.sorted_cells, self.placements)
            for _, position in options
        ]

    def completions(self) -> list[dict[int, int]]:
        """Completion counts of every state reachable from 0 but the full one.

        `table[i][band]` is keyed by (layer, band), for each layer below the
        full state's, and a dead end counts 0.  It is filled by one
        depth-first search from state 0 on an explicit stack: a child
        already in the table adds its count without being searched again,
        and a state's count goes in when its frame pops, after every child's.
        """
        placements, area = self.placements, self.region.area
        table: list[dict[int, int]] = [{} for _ in range(area)]
        # Each frame: layer, band, its untried placements, its completions so far.
        stack = [[0, 0, iter(placements[0]), 0]]
        while stack:
            i, band, remaining, total = frame = stack[-1]
            for mask, _ in remaining:
                if mask & band:
                    continue
                child = band | mask
                step = (child ^ (child + 1)).bit_length() - 1
                j, child = i + step, child >> step
                known = 1 if j == area else table[j].get(child)
                if known is None:
                    frame[3] = total
                    stack.append([j, child, iter(placements[j]), 0])
                    break
                total += known
            else:
                stack.pop()
                table[i][band] = total
                if stack:
                    stack[-1][3] += total
        return table

    def walk(self, start: _S, labels: Sequence[_S], ends: Sequence[_S]) -> Iterator[_S]:
        """Every tiling, depth first with placements in table order, folded
        from per-placement output.

        `labels` and `ends` hold a string or a tuple for each placement, by
        position in `tiles`, and the walk folds them along its stack.  The
        head at depth 0 is `start`, and each placement that leaves cells
        free adds its label: head d + 1 is head d plus the label of the
        placement made at depth d.  A full tiling comes as its head plus the
        end of its last placement, one concatenation however many tiles it
        has, and consecutive tilings share the heads of their common prefix.
        A start of `()` with `(tile,)` as both label and end gives each
        tiling's tiles in root order; JSON pieces give its whole line.

        A push copies its head, so the first tiling d tiles deep costs O(d)
        per push.  The search stack keeps only the current head and cuts a
        frame's label off it when the frame pops, so reaching that tiling
        holds O(d) items, not O(d^2); a replay keeps one head per depth of
        the subtree it replays.

        Each state is searched once.  The first visit tests the state's
        placements in table order and keeps an edge (label, child's record)
        as live when the child is the full state or its subtree yielded a
        tiling; when the state is done, it is recorded, keyed by (layer,
        band).  Every later visit replays the record, with no mask test, and
        never enters a dead state, so the tilings come in the same order.

        A record is flat, a tuple of the suffixes its tilings end with in
        order, when every live edge ends at the full state, whose record is
        one empty suffix, or at a flat record, and those suffixes hold at
        most `_FLAT_BUDGET` `len` units in all (characters of strings, items
        of tuples); a dead state's record is the empty tuple.  Any other
        record is its list of live edges.  A search or a replay that meets a
        flat record yields the head plus each suffix, with no push, so each
        small subtree is stepped through once and then replayed as ready
        output.  Before the first tiling only dead frames pop, so flat
        records add nothing to its cost.  The budget keeps the records
        linear: a state's record holds its live edges or at most
        `_FLAT_BUDGET` units, one record per state reachable from 0.
        Without it, state k from the end of a 1xM strip with n = 1 would
        hold all k tiles, M^2 / 2 in all.
        """
        placements, area = self.placements, self.region.area
        head = start
        full = (start[:0],)  # the full state's record: one empty suffix
        # live[i][band]: a flat tuple of suffixes, () if dead, or a list of live edges (label, child's record).
        live: list[dict[int, Any]] = [{} for _ in range(area)]
        # Each frame: layer, band, untried placements, live edges so far, the label that made it.
        stack = [(0, 0, iter(placements[0]), [], start)]
        while stack:
            i, band, remaining, kept, _ = stack[-1]
            for mask, pick in remaining:
                if mask & band:
                    continue
                child = band | mask
                step = (child ^ (child + 1)).bit_length() - 1
                j, child = i + step, child >> step
                if j == area:
                    end = ends[pick]
                    kept.append((end, full))
                    yield head + end
                    continue
                record = live[j].get(child)
                if record is None:
                    label = labels[pick]
                    head += label
                    stack.append((j, child, iter(placements[j]), [], label))
                    break
                if not record:
                    continue  # a dead state
                label = labels[pick]
                kept.append((label, record))
                below = head + label
                if record.__class__ is tuple:  # flat: its tilings are ready
                    for suffix in record:
                        yield below + suffix
                    continue
                # Replay the child's edge list, then go on here.
                heads = [head, below]
                replay = [iter(record)]
                while replay:
                    for label, record in replay[-1]:
                        if record.__class__ is tuple:
                            above = below + label
                            for suffix in record:
                                yield above + suffix
                        else:
                            below = below + label
                            heads.append(below)
                            replay.append(iter(record))
                            break
                    else:
                        replay.pop()
                        heads.pop()
                        below = heads[-1]
            else:
                _, _, _, kept, label = stack.pop()
                record, size = kept, 0
                for piece, suffixes in kept:
                    if suffixes.__class__ is not tuple:
                        break
                    size += len(piece) * len(suffixes) + sum(map(len, suffixes))
                else:  # a dead state's record is (), the one empty tuple every dead state shares
                    if size <= _FLAT_BUDGET:
                        record = tuple([piece + suffix for piece, suffixes in kept for suffix in suffixes])
                live[i][band] = record
                if stack:
                    head = head[: len(head) - len(label)]
                    if kept:
                        stack[-1][3].append((label, record))


_Table = tuple[_Searcher, list[dict[int, int]]]


class _Build:
    """A cache entry being built: `done` is set once `entry` holds it, or
    with `entry` still None if the build raised."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.entry: _Table | None = None


class _TableCache:
    """Searchers and completion tables of recently sampled (region, n), least recent first.

    A table is keyed by (layer, band).  An entry holds its searcher, so
    what the searcher builds on first use, such as its `fragments`, is
    built once per kept entry.
    """

    def __init__(self) -> None:
        self.tables: OrderedDict[tuple[Region, int], _Table] = OrderedDict()
        self.charge = 0  # table states plus region cells, over all kept entries
        self._building: dict[tuple[Region, int], _Build] = {}  # misses being built
        self._lock = threading.Lock()  # sample_tiling may run on several threads at once

    def get(self, region: Region, n: int) -> _Table:
        """The searcher for (region, n) and its `completions` table.

        A miss builds the entry outside the lock.  A miss on a key that
        another thread is already building waits for that build and takes
        its entry, kept or not, so each table is built once; if that build
        raised, the waiter tries again.  A hit, or a miss on another key,
        never waits.
        """
        key = (region, n)
        while True:
            with self._lock:
                entry = self.tables.get(key)
                if entry is not None:
                    self.tables.move_to_end(key)
                    return entry
                build = self._building.get(key)
                if build is None:
                    build = self._building[key] = _Build()
                    break
            build.done.wait()
            if build.entry is not None:
                return build.entry
        try:
            searcher = _searcher_for(region, n)
            build.entry = entry = (searcher, searcher.completions())
            charge = _charge(key, entry)
            with self._lock:
                if charge <= _TABLE_BUDGET:
                    self.tables[key] = entry
                    self.charge += charge
                    while self.charge > _TABLE_BUDGET:
                        self.charge -= _charge(*self.tables.popitem(last=False))
        finally:
            with self._lock:
                del self._building[key]
            build.done.set()
        return entry


def _charge(key: tuple[Region, int], entry: _Table) -> int:
    """What a cache entry counts against the budget: its table states plus
    its region's cells, since the region and its searcher grow with the area."""
    return sum(map(len, entry[1])) + key[0].area


_tables = _TableCache()


def _root_levels(region: Region, n: int) -> dict[int, int] | None:
    """Tiles rooted at each level in any n-ribbon tiling, or None if there is none.

    An n-ribbon covers one cell on each of n consecutive levels, so the h_l
    cells of level l belong to the tiles rooted at levels l-n+1 .. l, and the
    histogram alone fixes those root counts: t_l = h_l - h_(l-1) + t_(l-n).
    A negative t_l, or a tile rooted in the top n-1 levels (it would leave
    the region), proves that no tiling exists.  Passing does not prove that
    one does.  Levels with no roots are left out.
    """
    hist = region.level_histogram
    low, top = min(hist), max(hist)
    roots: list[int] = []  # roots[i]: tiles rooted at level low + i
    below = 0  # cells on the level under the current one
    for i in range(top - low + 1):
        cells = hist.get(low + i, 0)
        rooted = cells - below + (roots[i - n] if i >= n else 0)
        if rooted < 0 or (rooted and low + i > top - n + 1):
            return None
        roots.append(rooted)
        below = cells
    return {low + i: rooted for i, rooted in enumerate(roots) if rooted}


def _searcher_for(region: Region, n: int) -> _Searcher:
    """The searcher over the region's n-ribbon tilings; over length 0, with
    no placement to try, when `_may_tile` already rules every tiling out."""
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    return _Searcher(region, n if _may_tile(region, n) else 0)


def _may_tile(region: Region, n: int) -> bool:
    """False when the region's shape rules every n-ribbon tiling out.

    An a x b rectangle has a tiling iff n divides a or b, so for a
    rectangle the answer is exact.  Any other region is ruled out by its
    area or its level profile (`_root_levels`), and passing does not prove
    that it has a tiling.
    """
    if region.is_rectangle():
        _, _, max_x, max_y = region.bounds
        return (max_y + 1) % n == 0 or (max_x + 1) % n == 0
    return region.area % n == 0 and _root_levels(region, n) is not None


def _count_by_depth(region: Region, n: int) -> tuple[int, int]:
    """(n-ribbon tilings of the region, states expanded), one cell at a time
    in (level, x) order (see the module docstring).

    On level L, slot k of a state, `bits` wide, holds the cell at
    x = lo - 1 + k, with lo the level's lowest x: level L's cell for the x
    already stepped, level L - 1's for the rest.  Slot 0, below lo, is the
    carry.  A slot is 0 when its cell is closed or absent, d + 1 when it is
    open at depth d.  States expanded counts the states every cell step
    reads, a step at a missing cell inside a level included.
    """
    cells = region.cells
    fold = n > 1 and all((y, x) in cells for x, y in cells)
    bits = max(n - 1, 1).bit_length()
    slot = (1 << bits) - 1
    opened = [v + 1 if v + 1 < n else 0 for v in range(n)]  # a cell's value, by the value it continues
    # By slot k: its shift, the mask that clears it and the carry, and `opened` shifted into it;
    # slot 0's entry, the carry's own, is never read.
    per_slot: list[tuple[int, int, list[int]]] = []
    layer = {0: 1}
    states = 0
    below, low, high = None, 0, 0  # the level stepped last, its lowest and highest x
    for level, group in groupby(region.sorted_cells, lambda c: c.x + c.y):
        xs = [x for x, _ in group]
        lo, hi = xs[0], xs[-1]
        gapped = len(xs) <= hi - lo
        # Keep the cells below that a cell here can continue, x = lo - 1 .. hi, and drop
        # every state with another open; with no level below, only the all-closed state.
        first, last = max(lo - low, 1), min(hi, high) - low + 1
        keep = (1 << (last + 1) * bits) - (1 << first * bits) if level - 1 == below and first <= last else 0
        up, down = max(low - lo, 0) * bits, max(lo - low, 0) * bits
        width = hi - lo + 2  # slots: the carry and one per x
        if fold:
            # A mirror keeps levels and depths and takes x to L - 1 - x below level L,
            # which reverses the slots: all the bits, then each slot's own bits back.
            spec = f"0{width * bits}b"
            ones = int("1".zfill(bits) * width, 2)
        nxt: dict[int, int] = {}
        for state, ways in layer.items():
            if state & ~keep:
                continue
            state = state << up >> down
            if fold:
                flipped = int(format(state, spec)[::-1], 2)
                mirror = 0
                for j in range(bits):
                    mirror |= (flipped >> j & ones) << bits - 1 - j
                state = min(state, mirror)
            old = nxt.get(state)
            nxt[state] = ways if old is None else old + ways
        layer = nxt
        while len(per_slot) < width:
            shift = len(per_slot) * bits
            per_slot.append((shift, ~(slot | slot << shift), [v << shift for v in opened]))
        for x in range(lo, hi + 1):
            shift, clear, opens = per_slot[x - lo + 1]
            states += len(layer)
            nxt = {}
            if gapped and x not in xs:
                # A missing cell continues nothing: the carry must be closed, and
                # the cell under it becomes the carry.
                for state, ways in layer.items():
                    if not state & slot:
                        child = state & clear | state >> shift & slot
                        old = nxt.get(child)
                        nxt[child] = ways if old is None else old + ways
                layer = nxt
                continue
            for state, ways in layer.items():
                # An open carry must be continued here; a closed one lets this cell
                # start a ribbon or continue the open cell under it.  Either way the
                # cell under it becomes the carry unless this cell continued it.
                carry, under = state & slot, state >> shift & slot
                rest = state & clear
                child = rest | opens[carry] | under
                old = nxt.get(child)
                nxt[child] = ways if old is None else old + ways
                if under and not carry:
                    child = rest | opens[under]
                    old = nxt.get(child)
                    nxt[child] = ways if old is None else old + ways
            layer = nxt
        below, low, high = level, lo, hi
    return layer.get(0, 0), states


def count_tilings(region: Region, n: int) -> int:
    """Number of tilings of the region by n-ribbons (0 if there are none)."""
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    return _count_by_depth(region, n)[0] if _may_tile(region, n) else 0


def enumerate_tilings(region: Region, n: int) -> Iterator[Tiling]:
    """Stream every tiling exactly once, in canonical (root, shape-word) order."""
    searcher = _searcher_for(region, n)
    tiles = [(tile,) for tile in searcher.tiles]
    for found in searcher.walk((), tiles, tiles):
        yield Tiling(region, found)


def is_tileable(region: Region, n: int) -> bool:
    """Whether at least one n-ribbon tiling exists.

    A rectangle is answered by `_may_tile` alone, which is exact there;
    other regions fall back to counting.
    """
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    return _may_tile(region, n) if region.is_rectangle() else count_tilings(region, n) > 0


def sample_tiling(region: Region, n: int, seed: int) -> Tiling:
    """Draw one tiling exactly uniformly at random, deterministic per seed.

    Each step places the tile at the minimal uncovered cell with probability
    proportional to the number of completions after it, so every full tiling
    comes out with probability exactly 1 / count_tilings.

    The completion counts are kept for later calls in the same process (see
    the module docstring), so repeated draws from one region count it once.
    """
    searcher, picks = _draw(region, n, seed)
    return Tiling(region, tuple(map(searcher.tiles.__getitem__, picks)))


def _draw(region: Region, n: int, seed: int) -> tuple[_Searcher, list[int]]:
    """The searcher `sample_tiling` draws from and the positions, in its
    `tiles` and `fragments`, of the placements the seed draws, in root order.

    The CLI writes a draw from these positions without building a `Tiling`.
    """
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    if region.area % n:
        raise NotTileableError(f"area {region.area} is not a multiple of {n}")
    searcher, table = _tables.get(region, n)
    if table[0][0] == 0:
        raise NotTileableError(f"region of area {region.area} has no {n}-ribbon tiling")
    return searcher, _descend(searcher, table, random.Random(seed).randrange)


def _descend(searcher: _Searcher, table: list[dict[int, int]], choose: Callable[[int], int]) -> list[int]:
    """The positions of the placements of one tiling, in root order.

    From state 0, each step calls `choose(remaining)` once, for the number
    of completions left, and takes the placement at the minimal free cell
    whose completions hold the chosen index, walking them in table order.
    `table` must be the searcher's `completions`, with a tiling from 0,
    read by (layer, band); the full state, layer `area`, counts 1.
    """
    placements, area = searcher.placements, searcher.region.area
    picks: list[int] = []
    i, band, remaining = 0, 0, table[0][0]
    while i < area:
        index = choose(remaining)
        for mask, position in placements[i]:
            if mask & band:
                continue
            child = band | mask
            step = (child ^ (child + 1)).bit_length() - 1
            j, child = i + step, child >> step
            weight = 1 if j == area else table[j][child]
            if index < weight:
                picks.append(position)
                i, band, remaining = j, child, weight
                break
            index -= weight
        else:
            raise AssertionError("completion counts disagree with branch weights")
    return picks


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
    from fractions import Fraction  # about 6 ms of a fresh start; only this needs it

    return Fraction(1, count_tilings(region, n))


def _by_level_pairs(region: Region) -> tuple[int, int, int]:
    """(tilings, fewest tiles, tilings with that few) by ribbons of every
    length, from the paths of each level pair (see the module docstring)."""
    cells = region.cells
    tilings, tiles, ways = 1, region.area, 1
    for x, y in cells:
        # A path steps E from its lower level and S from its upper one, so a cell
        # starts one on the lower level without its N neighbour, on the upper without its W.
        for east, before in ((True, (x, y + 1)), (False, (x - 1, y))):
            if before in cells:
                continue
            k, at, a, b = 0, (x, y), 1, 1  # vertices so far, the next vertex, F(k + 1), F(k + 2)
            while at in cells:
                k, a, b = k + 1, b, a + b
                at, east = ((at[0] + 1, at[1]) if east else (at[0], at[1] - 1)), not east
            tilings *= a
            tiles -= k // 2
            if k % 2:
                ways *= (k + 1) // 2
    return tilings, tiles, ways


def count_variable(region: Region) -> int:
    """Number of tilings by ribbons of any length from 1 to the region's area."""
    return _by_level_pairs(region)[0]


def count_minimal(region: Region) -> tuple[int, int]:
    """(fewest ribbons in any tiling, number of tilings using that few)."""
    return _by_level_pairs(region)[1:]


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
