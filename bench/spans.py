"""Spans around every call into a ribbonry module's public functions.

The benchmark, not the program, records them: ``install`` replaces each
public function of the layer modules, wherever a ribbonry module holds a
reference to it, with a wrapper that opens a span on entry and closes it on
return or raise.  Spans live in memory in flat arrays and are written out
when the run ends.  A span's self time is its duration minus the time its
direct child spans cover.

A generator function (``enumerate_tilings``) gets one span per resumption:
the first one covers set-up and the descent to the first tiling, and each
later one the walk to the next tiling; the consumer's own work between
resumptions is not charged to it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

#: Modules that are layers.  ``formulas`` is too cheap for a layer of its own;
#: it is not wrapped, so its time counts as self time of the ``verify`` suites.
LAYERS = ("cli", "region", "enumeration", "sheffield", "render", "verify")

#: Span names that differ from ``module.function``.
ALIASES = {
    "region.build_rectangle": "region.build",
    "region.build_aztec": "region.build",
    "region.build_stair": "region.build",
    "region.parse_region": "region.build",
    "verify.formulas_suite": "verify.formulas",
    "verify.stanley_suite": "verify.stanley",
    "verify.bijection_suite": "verify.bijection",
    "verify.growth_suite": "verify.growth",
}

#: The layer functions reported as per-layer metrics, with the time unit of
#: their per-call means.
REPORTED = (
    ("cli.main", "ms"),
    ("region.build", "ms"),
    ("region.tiling_to_json", "us"),
    ("region.tiling_from_json", "ms"),
    ("enumeration.count_tilings", "ms"),
    ("enumeration.sample_tiling", "ms"),
    ("enumeration.enumerate_tilings", "ms"),
    ("enumeration.count_variable", "ms"),
    ("enumeration.count_minimal", "ms"),
    ("sheffield.build_graph", "ms"),
    ("sheffield.count_admissible_orientations", "ms"),
    ("sheffield.orientation_from_tiling", "us"),
    ("sheffield.verify_bijection", "ms"),
    ("sheffield.verify_growth_bounds", "ms"),
    ("sheffield.chromatic_polynomial", "ms"),
    ("render.tiling_to_svg", "ms"),
    ("render.tiling_to_ascii", "ms"),
    ("verify.formulas", "ms"),
    ("verify.stanley", "ms"),
    ("verify.bijection", "ms"),
    ("verify.growth", "ms"),
)

FIRST = 1  # first resumption of a generator (or a plain call)
YIELDED = 2  # the span ended by handing out an item
RAISED = 4


class Tracer:
    """In-memory span store: one slot per span in parallel flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.flags = array("B")
        self.stack: list[int] = []
        self.requests: list[str] = []  # request keys; a span's request indexes this

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_request(self, key: str) -> None:
        """Spans opened from now on belong to this request."""
        self.requests.append(key)

    def open(self, name_id: int, flags: int) -> int:
        index = len(self.flags)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(len(self.requests) - 1)
        self.flags.append(flags)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int, flags: int) -> None:
        self.end[index] = perf_counter_ns()
        self.stack.pop()
        self.flags[index] |= flags

    def __len__(self) -> int:
        return len(self.flags)

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV, after one `# request <id> <key>` line per request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            for i, key in enumerate(self.requests):
                out.write(f"# request {i} {key}\n")
            out.write("span,name,request,parent,start_ns,end_ns,flags\n")
            for i in range(len(self)):
                out.write(
                    f"{i},{self.names[self.name[i]]},{self.request[i]},{self.parent[i]},"
                    f"{self.start[i]},{self.end[i]},{self.flags[i]}\n"
                )


def _wrap(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)
    if inspect.isgeneratorfunction(fn):

        def resumptions(gen):
            flags = FIRST
            while True:
                span = tracer.open(name_id, flags)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(span, 0)
                    return
                except BaseException:
                    tracer.close(span, RAISED)
                    raise
                tracer.close(span, YIELDED)
                flags = 0
                yield item

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            return resumptions(fn(*args, **kwargs))

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name_id, FIRST)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span, RAISED)
            raise
        tracer.close(span, 0)
        return result

    return traced


def install(tracer: Tracer, ribbonry):
    """Wrap every layer's public functions; returns a function that undoes it."""
    wrapped = {}
    for layer in LAYERS:
        module = getattr(ribbonry, layer)
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue  # imported from another module; wrapped there
            if layer == "cli" and attr != "main":
                continue  # the rest of cli is main's own work
            name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            wrapped[value] = _wrap(tracer, name, value)
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "ribbonry" and not module_name.startswith("ribbonry."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                patches.append((module, attr, value))
                setattr(module, attr, wrapped[value])
    tiling = ribbonry.region.Tiling
    to_json = tiling.__dict__["to_json"]
    from_json = tiling.__dict__["from_json"]
    patches += [(tiling, "to_json", to_json), (tiling, "from_json", from_json)]
    tiling.to_json = _wrap(tracer, "region.tiling_to_json", to_json)
    tiling.from_json = classmethod(_wrap(tracer, "region.tiling_from_json", from_json.__func__))

    def uninstall() -> None:
        for owner, attr, value in patches:
            setattr(owner, attr, value)

    return uninstall


@dataclass
class FunctionStats:
    calls: int = 0  # calls, or generators created
    items: int = 0  # items handed out by a generator
    errors: int = 0  # calls that raised
    total_ns: int = 0
    self_ns: int = 0
    first_ns: int = 0  # a generator's time to its first item


def aggregate(tracer: Tracer) -> dict[str, FunctionStats]:
    """Calls, total and self time per span name, over every recorded span."""
    count = len(tracer)
    duration = [tracer.end[i] - tracer.start[i] for i in range(count)]
    child = [0] * count
    parent = tracer.parent
    for i in range(count):
        if parent[i] >= 0:
            child[parent[i]] += duration[i]
    stats: dict[str, FunctionStats] = {}
    for i in range(count):
        entry = stats.setdefault(tracer.names[tracer.name[i]], FunctionStats())
        flags = tracer.flags[i]
        if flags & FIRST:
            entry.calls += 1
            entry.first_ns += duration[i]
        if flags & YIELDED:
            entry.items += 1
        if flags & RAISED:
            entry.errors += 1
        entry.total_ns += duration[i]
        entry.self_ns += duration[i] - child[i]
    return stats
