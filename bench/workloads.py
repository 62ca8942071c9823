"""The benchmark's three workloads as seeded, fully checkable request lists.

Each workload is a fixed pool of requests.  The benchmark seed changes only
the order of a pass and, in ``sample``, which sampler seeds are drawn from a
fixed per-region pool; so every output has a recorded golden or a closed
form, and one seed always yields the same list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

GRIDS = Path(__file__).resolve().parent / "grids"

WORKLOADS = ("count", "stream", "sample")

#: Region spec that checks.region_cells turns into a cell set:
#: ("rect", rows, cols) | ("aztec", N, n, k) | ("stair", M, n).
RegionSpec = tuple


@dataclass(frozen=True)
class Request:
    """One call of ``ribbonry.cli.main`` (or the one library request)."""

    key: str  # stable id: golden lookup, reports and determinism digests
    argv: tuple[str, ...]  # CLI arguments; empty for the library request
    check: str  # checker name in checks.py
    n: int = 0
    region: RegionSpec = ()  # for the independent partition checker
    expect: int | None = None  # closed-form count, when one exists
    stdin_key: str | None = None  # feed this earlier request's stdout as stdin
    head: int | None = None  # emulate `| head -n HEAD`: stdout breaks after it
    exit_code: int = 0


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def aztec_closed_form(size: int) -> int:
    """AD(size, n, k) has 2^(size(size+1)/2) tilings for every n and k."""
    return 2 ** (size * (size + 1) // 2)


def _rect(rows: int, cols: int, n: int) -> Request:
    expect = None
    if rows == 2 and n == 2:
        expect = fib(cols + 1)
    elif rows == 1 and n == 1:
        expect = 1
    return Request(
        f"count --rect {rows}x{cols} --n {n}",
        ("count", "--rect", f"{rows}x{cols}", "--n", str(n)),
        "count",
        n,
        ("rect", rows, cols),
        expect,
    )


def _aztec(size: int, n: int, k: int) -> Request:
    spec = f"N={size},n={n},k={k}"
    return Request(
        f"count --aztec {spec}", ("count", "--aztec", spec), "count", n, ("aztec", size, n, k),
        aztec_closed_form(size),
    )


def stair_closed_form(rows: int, n: int) -> int | None:
    """Stair of M = rows, odd n: rows! up to rows = (n+1)/2, then
    ((n+1)/2 - 1)! * ((n+1)/2)^(rows - (n-1)/2).  None for even n."""
    if n % 2 == 0:
        return None
    half = (n + 1) // 2
    if rows <= half:
        return math.factorial(rows)
    return math.factorial(half - 1) * half ** (rows - (half - 1))


def _stair(rows: int, n: int) -> Request:
    spec = f"M={rows},n={n}"
    return Request(
        f"count --stair {spec}", ("count", "--stair", spec), "count", n, ("stair", rows, n),
        stair_closed_form(rows, n),
    )


def _grid(name: str, n: int) -> Request:
    return Request(
        f"count --grid {name} --n {n}",
        ("count", "--grid", str(GRIDS / name), "--n", str(n)),
        "count",
        n,
    )


def count_pool() -> list[Request]:
    """Distinct count requests; the frontier search does nearly all the work."""
    pool = [_rect(6, cols, 6) for cols in (12, 18, 24, 30)]
    pool += [_rect(3, 90, 3), _rect(4, 60, 4), _rect(5, 30, 5)]
    pool += [_rect(12, 12, 2), _rect(12, 12, 3), _rect(8, 8, 4)]
    pool += [_rect(2, 90, 2), _rect(2, 400, 2), _rect(1, 600, 1)]
    # Deep strips: the recursive search dies with RecursionError today.
    # They stay in the pool so that the failure shows in error_rate.
    pool += [_rect(2, 1200, 2), _rect(1, 2000, 1)]
    pool += [_aztec(size, 2, 0) for size in (2, 4, 6, 8, 10, 12)]
    pool += [_aztec(4, 3, 0), _aztec(6, 3, 1), _aztec(8, 3, 0), _aztec(5, 4, 2), _aztec(6, 4, 1)]
    pool += [_stair(30, 3), _stair(40, 5), _stair(20, 6), _stair(16, 7), _stair(12, 8)]
    pool += [_grid("holed.txt", 2), _grid("ell.txt", 2), _grid("cross.txt", 3)]
    pool += [_grid("cross.txt", 4), _grid("band.txt", 4)]  # cross n=4 has no tiling
    return pool


def _enumerate(rows: int, cols: int, n: int, fmt: str = "json", head: int | None = None) -> Request:
    argv = ("enumerate", "--rect", f"{rows}x{cols}", "--n", str(n))
    key = f"enumerate --rect {rows}x{cols} --n {n}"
    if fmt != "json":
        argv += ("--format", fmt)
        key += f" --format {fmt}"
    if head is not None:
        key += f" | head -n {head}"
    expect = fib(cols + 1) if rows == 2 and n == 2 and head is None else None
    return Request(key, argv, "stream", n, ("rect", rows, cols), expect, head=head,
                   exit_code=0 if head is None else 1)


def _graph(flags: tuple[str, ...]) -> Request:
    return Request("graph " + " ".join(flags), ("graph",) + flags, "stream")


CHROMATIC_KEY = "acyclic_count_via_chromatic(build_graph(build_rectangle(4, 8), 4))"


def stream_pool() -> list[Request]:
    """Output-heavy requests: tiling walk, serialization and the graph code."""
    return [
        _enumerate(4, 12, 4),
        _enumerate(2, 22, 2),
        _enumerate(6, 6, 3),
        _enumerate(6, 6, 3, "text"),
        _enumerate(2, 16, 2, "text"),
        # `ribbonry enumerate ... | head -n 10000`: the closed pipe ends the
        # run with exit code 1 after exactly 10,000 lines.
        _enumerate(4, 16, 4, head=10_000),
        _graph(("--rect", "4x8", "--n", "4")),
        _graph(("--rect", "6x6", "--n", "3", "--format", "json")),
        _graph(("--stair", "M=9,n=5", "--format", "json")),
        _graph(("--aztec", "N=3,n=3,k=1")),
        Request("verify all", ("verify", "all"), "verify"),
        Request("verify growth --rect 4x12 --n 4",
                ("verify", "growth", "--rect", "4x12", "--n", "4"), "verify"),
        # No CLI command reaches the chromatic engine.
        Request(CHROMATIC_KEY, (), "chromatic"),
    ]


@dataclass(frozen=True)
class SampleRegion:
    flags: tuple[str, ...]
    n: int
    spec: RegionSpec
    draws: int  # sample requests per pass
    renders: int  # of those, draws from a fixed seed list that are also rendered
    seed_base: int

    @property
    def label(self) -> str:
        return " ".join(self.flags)

    def render_seeds(self) -> list[int]:
        return [self.seed_base + i for i in range(self.renders)]

    def pool_seeds(self) -> list[int]:
        """Seeds the other draws come from; twice as many as are drawn."""
        start = self.seed_base + self.renders
        return list(range(start, start + 2 * (self.draws - self.renders)))


SAMPLE_REGIONS = (
    SampleRegion(("--rect", "3x3", "--n", "3"), 3, ("rect", 3, 3), 300, 20, 100_000),
    SampleRegion(("--rect", "3x7", "--n", "3"), 3, ("rect", 3, 7), 200, 15, 200_000),
    SampleRegion(("--rect", "4x8", "--n", "4"), 4, ("rect", 4, 8), 150, 15, 300_000),
    SampleRegion(("--stair", "M=10,n=4"), 4, ("stair", 10, 4), 150, 10, 400_000),
    SampleRegion(("--aztec", "N=5,n=3,k=1"), 3, ("aztec", 5, 3, 1), 80, 10, 500_000),
    SampleRegion(("--rect", "10x10", "--n", "2"), 2, ("rect", 10, 10), 60, 15, 600_000),
    SampleRegion(("--rect", "2x300", "--n", "2"), 2, ("rect", 2, 300), 60, 15, 700_000),
)


def sample_request(region: SampleRegion, seed: int) -> Request:
    return Request(
        f"sample {region.label} --seed {seed}",
        ("sample",) + region.flags + ("--seed", str(seed)),
        "sample",
        region.n,
        region.spec,
    )


def render_request(region: SampleRegion, seed: int) -> Request:
    """Render a fixed draw; SVG for even seeds, ASCII for odd ones."""
    fmt = "svg" if seed % 2 == 0 else "text"
    source = sample_request(region, seed)
    return Request(
        f"render --format {fmt} <- {source.key}",
        ("render", "--in", "-", "--format", fmt),
        f"render_{fmt}",
        region.n,
        region.spec,
        stdin_key=source.key,
    )


def build(workload: str, seed: int) -> list[Request]:
    """The request list of one pass, in order, for one benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("count", "stream"):
        requests = count_pool() if workload == "count" else stream_pool()
        rng.shuffle(requests)
        return requests
    if workload != "sample":
        raise ValueError(f"unknown workload {workload!r}")
    # A rendered draw stays next to its sample request, which feeds it.
    units: list[list[Request]] = []
    for region in SAMPLE_REGIONS:
        for s in region.render_seeds():
            units.append([sample_request(region, s), render_request(region, s)])
        for s in rng.sample(region.pool_seeds(), region.draws - region.renders):
            units.append([sample_request(region, s)])
    rng.shuffle(units)
    return [request for unit in units for request in unit]


def universe() -> list[Request]:
    """Every request any seed can produce, each once (for recording goldens)."""
    requests = count_pool() + stream_pool()
    for region in SAMPLE_REGIONS:
        for s in region.render_seeds():
            requests += [sample_request(region, s), render_request(region, s)]
        requests += [sample_request(region, s) for s in region.pool_seeds()]
    return requests
