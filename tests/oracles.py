"""Independent reference implementations used only by the tests.

Deliberately different algorithms from the package: the tiling counter here
recurses on the lowest uncovered cell in raster (y, x) order over plain
frozensets, the orientation and coloring counters are exhaustive, and the
polynomial helpers work on coefficient lists.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product


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


def region_cells(region) -> frozenset[tuple[int, int]]:
    return frozenset((c.x, c.y) for c in region)


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
