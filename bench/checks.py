"""Output checks: closed forms, goldens and an independent partition checker.

Nothing here calls ribbonry; the region cell sets are rebuilt from their
documented definitions, so a wrong tiling cannot pass by agreeing with the
code under test.
"""

from __future__ import annotations

import json
from pathlib import Path

from harness import Outcome
from workloads import Request

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

WRONG = "wrong_output"


def load_goldens() -> dict[str, dict]:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def region_cells(spec: tuple) -> set[tuple[int, int]]:
    """Cells of a rect, Aztec or stair region, normalized to min x = min y = 0."""
    kind = spec[0]
    if kind == "rect":
        _, rows, cols = spec
        cells = {(x, y) for x in range(cols) for y in range(rows)}
    elif kind == "stair":
        _, rows, length = spec
        cells = {(r + j, r) for r in range(rows) for j in range(length)}
    elif kind == "aztec":
        # AD(N, n, k): column x is a bar of n*min(x+1, 2N-x) cells; left-half
        # bottoms fall by one per column to 0, the right half starts at k and
        # climbs by n-1 per column.
        _, size, n, k = spec
        bottom = {x: size - 1 - x for x in range(size)}
        bottom[size] = k
        for x in range(size + 1, 2 * size):
            bottom[x] = bottom[x - 1] + n - 1
        cells = {
            (x, y)
            for x in range(2 * size)
            for y in range(bottom[x], bottom[x] + n * min(x + 1, 2 * size - x))
        }
    else:
        raise ValueError(f"unknown region kind {kind!r}")
    dx = min(x for x, _ in cells)
    dy = min(y for _, y in cells)
    return {(x - dx, y - dy) for x, y in cells}


def ribbon_cells(tile: dict, n: int) -> list[tuple[int, int]] | None:
    """Cells of one JSON tile, or None if it is not an n-ribbon."""
    moves = tile.get("moves")
    root = tile.get("root")
    if not isinstance(moves, str) or len(moves) != n - 1 or set(moves) - {"E", "N"}:
        return None
    if not (isinstance(root, list) and len(root) == 2 and all(type(v) is int for v in root)):
        return None
    x, y = root
    cells = [(x, y)]
    for move in moves:
        x, y = (x + 1, y) if move == "E" else (x, y + 1)
        cells.append((x, y))
    return cells


def is_partition(tiles: list, cells: set[tuple[int, int]], n: int) -> bool:
    """Tiles are n-ribbons covering every cell once, roots in (level, x) order."""
    covered: set[tuple[int, int]] = set()
    last_root = None
    for tile in tiles:
        path = ribbon_cells(tile, n) if isinstance(tile, dict) else None
        if path is None:
            return False
        root = (path[0][0] + path[0][1], path[0][0])
        if last_root is not None and root <= last_root:
            return False
        last_root = root
        for cell in path:
            if cell not in cells or cell in covered:
                return False
            covered.add(cell)
    return covered == cells


def _tiles_of(text: str | None) -> list | None:
    try:
        tiles = json.loads(text or "")["tiles"]
    except (ValueError, KeyError, TypeError):
        return None
    return tiles if isinstance(tiles, list) else None


def _check_count(request: Request, outcome: Outcome, golden: dict | None) -> bool:
    want = request.expect if request.expect is not None else int(golden["count"])
    try:
        return int(json.loads(outcome.text)["count"]) == want
    except (ValueError, KeyError, TypeError):
        return False


def _check_stream(request: Request, outcome: Outcome, golden: dict | None) -> bool:
    if request.head is not None and outcome.lines != request.head:
        return False
    if request.expect is not None:
        # Text format: one grid of `rows` lines plus a blank line per tiling.
        per_tiling = request.region[1] + 1 if "--format" in request.argv else 1
        if outcome.lines != request.expect * per_tiling:
            return False
    return outcome.digest == golden["sha"] and outcome.lines == golden["lines"]


def _report_ok(text: str | None):
    """The ``ok`` field of a verify report, or None if stdout is no report."""
    try:
        return json.loads(text or "")["ok"]
    except (ValueError, KeyError, TypeError):
        return None


def _check_verify(request: Request, outcome: Outcome, golden: dict | None) -> bool:
    return _report_ok(outcome.text) is True


def _check_chromatic(request: Request, outcome: Outcome, golden: dict | None) -> bool:
    return (outcome.text or "").strip() == str(golden["value"])


def _check_sample(request: Request, outcome: Outcome, golden: dict | None, cells: set) -> bool:
    tiles = _tiles_of(outcome.text)
    return (
        tiles is not None
        and is_partition(tiles, cells, request.n)
        and outcome.digest == golden["sha"]
    )


def _check_render(request: Request, outcome: Outcome, golden: dict | None, source: str | None) -> bool:
    tiles = _tiles_of(source)
    text = outcome.text or ""
    if tiles is None or outcome.digest != golden["sha"]:
        return False
    if request.check == "render_svg":
        return (
            text.startswith("<svg")
            and text.count("<polygon") == len(tiles)
            and text.count("<circle") == len(tiles)
        )
    # ASCII: every cell of a tile shows that tile's letter, gaps show '.',
    # and tiles that share an edge show different letters.  (Letters may
    # repeat between tiles apart: a region can have more tiles than letters.)
    owner = {}
    for i, tile in enumerate(tiles):
        for cell in ribbon_cells(tile, request.n) or []:
            owner[cell] = i
    rows = text.rstrip("\n").split("\n")
    height = len(rows)
    letter_of: dict[int, str] = {}
    for r, line in enumerate(rows):
        for x, ch in enumerate(line):
            cell = (x, height - 1 - r)
            if cell not in owner:
                if ch != ".":
                    return False
            elif letter_of.setdefault(owner[cell], ch) != ch or ch == ".":
                return False
    for (x, y), i in owner.items():
        for j in (owner.get((x + 1, y)), owner.get((x, y + 1))):
            if j is not None and j != i and letter_of.get(i) == letter_of.get(j):
                return False
    return len(owner) == sum(ch != "." for line in rows for ch in line)


class Checker:
    """Judges every outcome of a pass: None if right, else a failure kind."""

    def __init__(self, goldens: dict[str, dict]) -> None:
        self.goldens = goldens
        self._cells: dict[tuple, set] = {}

    def cells(self, spec: tuple) -> set:
        if spec not in self._cells:
            self._cells[spec] = region_cells(spec)
        return self._cells[spec]

    def failure(self, request: Request, outcome: Outcome, texts: dict[str, str | None]) -> str | None:
        if outcome.error is not None:
            return outcome.error
        # A failing suite check exits 1, and the report says why: that is a
        # wrong output, not an unexplained exit code.
        if request.check == "verify" and _report_ok(outcome.text) is False:
            return WRONG
        if outcome.exit_code != request.exit_code:
            return f"exit_code_{outcome.exit_code}"
        golden = self.goldens.get(request.key)
        closed_form = request.check == "count" and request.expect is not None
        if golden is None and not closed_form and request.check != "verify":
            raise KeyError(f"no golden recorded for {request.key!r}; run record_goldens.py")
        if request.check == "count":
            ok = _check_count(request, outcome, golden)
        elif request.check == "stream":
            ok = _check_stream(request, outcome, golden)
        elif request.check == "verify":
            ok = _check_verify(request, outcome, golden)
        elif request.check == "chromatic":
            ok = _check_chromatic(request, outcome, golden)
        elif request.check == "sample":
            ok = _check_sample(request, outcome, golden, self.cells(request.region))
        else:
            ok = _check_render(request, outcome, golden, texts.get(request.stdin_key))
        return None if ok else WRONG

    def judge(self, requests: list[Request], outcomes: list[Outcome]) -> list[str | None]:
        texts = {o.key: o.text for o in outcomes}
        return [self.failure(r, o, texts) for r, o in zip(requests, outcomes)]
