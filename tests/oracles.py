"""Independent reference implementations used only by the tests.

Deliberately different algorithms from the package: the tiling counter here
recurses on the lowest uncovered cell in raster (y, x) order over plain
frozensets, the tiling lister recurses with no memo and no record of dead
ends, the orientation and coloring counters are exhaustive, the polynomial
helpers work on coefficient lists, and the arc references orient free and
forced tile pairs by two separate rules where the package uses one.  The
bijection report is built as the package first built it: one `Tiling` per
tiling, each orientation a frozenset of arcs read off that tiling.
Domino counts on simply connected regions also come from the Kasteleyn
determinant, with no search at all.  The picture references draw one tile at
a time, as the package first did: a letter grid from a cell -> tile dict and
an SVG whose outline is traced anew from every tile's own cells.
`absolute_states` reads the sampler's layered completion table as one dict
keyed by covered masks, the form its oracles and digests were written for.
"""

from __future__ import annotations

import colorsys
import string
from functools import lru_cache
from itertools import product

from ribbonry.region import Cell, RibbonShape, Tile, Tiling


def ribbon_cells(root: tuple[int, int], word: str) -> list[tuple[int, int]] | None:
    x, y = root
    cells = [(x, y)]
    for move in word:
        if move == "E":
            x += 1
        elif move == "N":
            y += 1
        else:
            return None
        cells.append((x, y))
    return cells


def tiles_covering(target: tuple[int, int], length: int) -> list[frozenset[tuple[int, int]]]:
    """Every ribbon of the given length with `target` as one of its cells."""
    out = []
    for bits in product("EN", repeat=length - 1):
        word = "".join(bits)
        x, y = target
        for j in range(length):
            root = (x, y)
            for move in word[:j]:
                root = (root[0] - 1, root[1]) if move == "E" else (root[0], root[1] - 1)
            cells = ribbon_cells(root, word)
            out.append(frozenset(cells))
    return out


def count_tilings_oracle(
    cells: frozenset[tuple[int, int]], lengths: tuple[int, ...], memo: dict | None = None
) -> int:
    """Count tilings by ribbons whose lengths come from `lengths`."""
    if not cells:
        return 1
    if memo is not None and cells in memo:
        return memo[cells]
    target = min(cells, key=lambda c: (c[1], c[0]))
    total = 0
    for length in lengths:
        for tile in tiles_covering(target, length):
            if tile <= cells:
                total += count_tilings_oracle(cells - tile, lengths, memo)
    if memo is not None:
        memo[cells] = total
    return total


def tilings_oracle(cells: frozenset[tuple[int, int]], n: int) -> list[tuple[Tile, ...]]:
    """Every n-ribbon tiling of `cells` as its tiles, in the order the package lists them.

    Recurses on the free cell that is minimal in (level, x) order and tries
    the shapes in `RibbonShape.all_shapes(n)` order, over plain frozensets
    with no memo and no record of dead ends.
    """
    shapes = RibbonShape.all_shapes(n)
    out: list[tuple[Tile, ...]] = []
    tiles: list[Tile] = []

    def extend(free: frozenset[tuple[int, int]]) -> None:
        if not free:
            out.append(tuple(tiles))
            return
        x, y = min(free, key=lambda c: (c[0] + c[1], c[0]))
        for shape in shapes:
            tile = frozenset(ribbon_cells((x, y), shape.moves))
            if tile <= free:
                tiles.append(Tile(Cell(x, y), shape))
                extend(free - tile)
                tiles.pop()

    extend(frozenset(cells))
    return out


def absolute_states(table: list[dict[int, int]]) -> dict[int, int]:
    """A completion table keyed by each state's covered mask over the whole
    order: `table[i][band]` is the state with every cell before i covered and
    `band` holding its bits from cell i up."""
    return {((1 << i) - 1) | band << i: count for i, layer in enumerate(table) for band, count in layer.items()}


def region_cells(region) -> frozenset[tuple[int, int]]:
    return frozenset((c.x, c.y) for c in region)


def kasteleyn_count(cells) -> int:
    """Domino tilings of a simply connected region, as |det K| (Kasteleyn 1961).

    Black cells have x + y even.  K[b][w] is 1 when w is b's east or west
    neighbour and (-1)^x when it is b's north or south neighbour in column x.
    Every bounded face of a simply connected region is a unit square, whose
    two vertical edges lie in adjacent columns, so its signs multiply to -1
    and every term of the determinant carries the same sign.  Around a hole
    that need not hold, so the count may then be wrong.
    """
    cells = set(cells)
    black = sorted(c for c in cells if (c[0] + c[1]) % 2 == 0)
    white = sorted(cells.difference(black))
    if len(black) != len(white):
        return 0
    position = {cell: j for j, cell in enumerate(white)}
    matrix = []
    for x, y in black:
        row = [0] * len(white)
        vertical = (-1) ** x
        sides = ((x + 1, y), 1), ((x - 1, y), 1), ((x, y + 1), vertical), ((x, y - 1), vertical)
        for cell, sign in sides:
            if cell in position:
                row[position[cell]] = sign
        matrix.append(row)
    return abs(_bareiss_det(matrix))


def _bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant by Bareiss's fraction-free elimination, swapping rows for a pivot."""
    size, sign, previous = len(matrix), 1, 1
    for k in range(size):
        pivot_row = next((i for i in range(k, size) if matrix[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            matrix[k], matrix[pivot_row] = matrix[pivot_row], matrix[k]
            sign = -sign
        pivot, top = matrix[k][k], matrix[k]
        for i in range(k + 1, size):
            row, lead = matrix[i], matrix[i][k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * top[j]) // previous
        previous = pivot
    return sign * previous


def _is_dag(vertices, arcs) -> bool:
    indeg = {v: 0 for v in vertices}
    outs = {v: [] for v in vertices}
    for u, v in arcs:
        indeg[v] += 1
        outs[u].append(v)
    queue = [v for v in vertices if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in outs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == len(list(vertices))


def count_acyclic_oracle(vertices, edges, tau=()) -> int:
    """Acyclic orientations extending tau, by trying all 2^free assignments."""
    tau = set(tau)
    fixed = {frozenset(arc) for arc in tau}
    free = [e for e in edges if frozenset(e) not in fixed]
    count = 0
    for bits in product((0, 1), repeat=len(free)):
        arcs = set(tau)
        for (u, v), bit in zip(free, bits):
            arcs.add((u, v) if bit == 0 else (v, u))
        if _is_dag(vertices, arcs):
            count += 1
    return count


def bijection_oracle(region, n):
    """`verify_bijection`'s outcome and how many tilings it read to reach it.

    Every tiling is listed as a `Tiling` and oriented by
    `orientation_from_tiling` as a frozenset of arcs, and injectivity is
    `len(set(...))`.  The outcome is the `BijectionReport`, or the message of
    the `GraphInconsistencyError` raised at the tiling read last.
    """
    from ribbonry import (
        BijectionReport,
        GraphInconsistencyError,
        build_graph,
        count_admissible_orientations,
        enumerate_tilings,
        orientation_from_tiling,
    )

    read = 1  # build_graph reads the first tiling
    try:
        graph = build_graph(region, n)
        orientations = []
        for read, tiling in enumerate(enumerate_tilings(region, n), start=1):
            orientations.append(orientation_from_tiling(tiling, graph))
        report = BijectionReport(
            tiling_count=len(orientations),
            orientation_count=count_admissible_orientations(graph),
            injective=len(set(orientations)) == len(orientations),
        )
    except GraphInconsistencyError as exc:
        return str(exc), read
    return report, read


def count_colorings_oracle(vertices, edges, colors: int) -> int:
    """Proper colorings with the given number of colors, by brute force."""
    vertices = list(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    count = 0
    for coloring in product(range(colors), repeat=len(vertices)):
        if all(coloring[index[u]] != coloring[index[v]] for u, v in edges):
            count += 1
    return count


@lru_cache(maxsize=None)
def fib(k: int) -> int:
    """Fibonacci numbers with fib(1) = fib(2) = 1."""
    if k < 1:
        raise ValueError(f"index must be at least 1, got {k}")
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Multiply two polynomials given as ascending coefficient tuples."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def falling_poly(terms: int) -> tuple[int, ...]:
    """Coefficients of x(x-1)...(x-terms+1); (1,) when terms = 0."""
    coeffs = (1,)
    for k in range(terms):
        coeffs = poly_mul(coeffs, (-k, 1))
    return coeffs


def poly_pow(base: tuple[int, ...], exponent: int) -> tuple[int, ...]:
    coeffs = (1,)
    for _ in range(exponent):
        coeffs = poly_mul(coeffs, base)
    return coeffs



def ribbons_from(start: tuple[int, int], cells: frozenset[tuple[int, int]]):
    """Every ribbon of any length with first cell `start` that lies within `cells`."""
    out = []
    stack = [((start,), start)]
    while stack:
        ribbon, (x, y) = stack.pop()
        out.append(frozenset(ribbon))
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt in cells:
                stack.append((ribbon + (nxt,), nxt))
    return out


def tilings_by_size_oracle(cells: frozenset[tuple[int, int]], memo: dict) -> dict[int, int]:
    """Tilings by ribbons of any lengths, as {number of ribbons: tilings}.

    Recurses on the lowest cell in raster (y, x) order.  A ribbon covering
    it has no cell before it (that cell would lie west or south, lower in
    raster order), so the ribbon starts there.
    """
    if not cells:
        return {0: 1}
    if cells not in memo:
        target = min(cells, key=lambda c: (c[1], c[0]))
        sizes: dict[int, int] = {}
        for tile in ribbons_from(target, cells):
            for size, ways in tilings_by_size_oracle(cells - tile, memo).items():
                sizes[size + 1] = sizes.get(size + 1, 0) + ways
        memo[cells] = sizes
    return memo[cells]


def minimal_tilings_oracle(cells: frozenset[tuple[int, int]]) -> tuple[int, int]:
    """(fewest ribbons in any tiling, tilings using that few); (len(cells) + 1, 0) if none."""
    sizes = tilings_by_size_oracle(cells, {})
    fewest = min(sizes, default=len(cells) + 1)
    return (fewest, sizes.get(fewest, 0))


def light_arc_reference(u, u_cells, v, v_cells):
    """Arc of a free pair: on the levels both tiles cover, the western tile lies left.

    Cells are (x, y) in walk order; every shared level must give the same
    verdict, and the arc runs from the left tile to the right one.
    """
    u_x = {x + y: x for x, y in u_cells}
    v_x = {x + y: x for x, y in v_cells}
    verdicts = {u_x[level] < v_x[level] for level in u_x.keys() & v_x.keys()}
    if len(verdicts) != 1:
        raise AssertionError(f"no single light-rule verdict for {u}-{v}")
    return (u, v) if verdicts.pop() else (v, u)


def forced_arc_reference(u, u_cells, v, v_cells):
    """Arc of an exactly-n-apart pair, u the lower tile: v lies right of u
    exactly when v's root is strictly east of u's top cell."""
    return (u, v) if v_cells[0][0] > u_cells[-1][0] else (v, u)


_LETTERS = string.ascii_lowercase + string.ascii_uppercase + string.digits
_CELL_SIZE = 28  # SVG pixels per lattice unit


def tiling_to_ascii_reference(tiling: Tiling) -> str:
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


def tiling_to_svg_reference(tiling: Tiling) -> str:
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
