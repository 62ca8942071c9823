"""Benchmark for ribbonry: one workload, one seed, one run.

    python3 bench/run.py --workload count --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
One client runs the workload's requests as a closed loop, each request
starting when the previous one returns, in passes over the seeded request
list, as many whole passes as fit in --seconds (at least one).  Every output is
checked.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured untraced.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics and the tracing overhead; spans go to bench/out/.
See bench/NOTES.md for what each metric means and why the workloads are
what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from checks import Checker, load_goldens  # noqa: E402
from harness import MEMO_LIMIT_ENV, SRC, load_program, output_digest, request_digest, run_pass  # noqa: E402
from spans import REPORTED, Tracer, aggregate, install  # noqa: E402

SETUP_STARTS = 9
TAIL_BEYOND = 10  # the tail percentile leaves this many requests above it

ITEM_NAMES = {"count": "counts_per_s", "stream": "tilings_per_s", "sample": "samples_per_s"}
#: The CLI command whose requests produce the workload's items.
ITEM_COMMANDS = {"count": "count", "stream": "enumerate", "sample": "sample"}


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != MEMO_LIMIT_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(code: str) -> tuple[int, float]:
    """Run `python -c code` with output discarded; (exit code, seconds)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code], _child_env(),
                         file_actions=actions)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), perf_counter() - start


def measure_setup() -> list[float]:
    """Fresh interpreter start plus `import ribbonry.cli`, several times."""
    probe = (
        "import sys, pathlib, ribbonry.cli\n"
        f"sys.exit(pathlib.Path(ribbonry.cli.__file__).resolve().parent.parent != pathlib.Path({str(SRC)!r}))"
    )
    code, _ = _spawn(probe)  # also writes the bytecode cache
    if code != 0:
        sys.exit("bench: a fresh interpreter does not import ribbonry from this checkout")
    times = []
    for _ in range(SETUP_STARTS):
        code, seconds = _spawn("import ribbonry.cli")
        if code != 0:
            sys.exit("bench: `import ribbonry.cli` failed in a fresh interpreter")
        times.append(seconds)
    return times


#: Runs one CLI request with its output discarded, then prints the peak RSS
#: (KiB) of its own address space.  VmHWM is used because ru_maxrss of a
#: spawned child also counts the address space it was spawned from.
_PEAK_CHILD = """
import os, sys
from ribbonry import cli
out, sys.stdout = sys.stdout, open(os.devnull, "w")
try:
    cli.main(sys.argv[1:])
except Exception:
    pass
with open("/proc/self/status") as status:
    out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _child_peak_kib(argv: tuple[str, ...]) -> int:
    done = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *argv], env=_child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
    return int(done.stdout)


def count_peaks_mib(requests: list[workloads.Request]) -> list[float]:
    """Peak RSS growth of each count request, each in a fresh interpreter.

    The baseline is an interpreter that imported the CLI and counted a 1x1
    region; the growth over it is what counting that region cost.
    """
    base = min(_child_peak_kib(("count", "--rect", "1x1", "--n", "1")) for _ in range(3))
    return [
        max(_child_peak_kib(r.argv) - base, 0) / 1024
        for r in requests
        if r.argv[:1] == ("count",)
    ]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND above it."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _items(workload: str, requests, outcomes, failures) -> tuple[int, float]:
    """(items, seconds in the requests that produce them) for one pass."""
    done, seconds = 0, 0.0
    for request, outcome, failure in zip(requests, outcomes, failures):
        kind = request.argv[0] if request.argv else "library"
        if kind != ITEM_COMMANDS[workload]:
            continue
        seconds += outcome.latency_ns / 1e9
        if failure is not None:
            continue
        if kind == "enumerate" and "--format" in request.argv:
            done += outcome.lines // (request.region[1] + 1)
        elif kind == "enumerate":
            done += outcome.lines
        else:
            done += 1
    return done, seconds


@dataclass
class Pass:
    """What a run keeps of one checked pass; it does not grow with output size."""

    latency_ns: array  # per request, in request-list order
    wall: float  # elapsed, including the benchmark's own checks and collections
    failures: Counter  # failure kind -> requests
    items: int
    item_seconds: float
    outputs_digest: str

    @property
    def seconds(self) -> float:
        """Time the pass spent in its requests: its `wall_s`."""
        return sum(self.latency_ns) / 1e9


def checked_pass(workload: str, requests, ribbonry, checker: Checker, on_request=None) -> Pass:
    """Run one pass and check it at once; only a summary is kept."""
    outcomes, wall = run_pass(requests, ribbonry, on_request)
    failures = checker.judge(requests, outcomes)
    return Pass(
        array("q", (o.latency_ns for o in outcomes)),
        wall,
        Counter(f for f in failures if f is not None),
        *_items(workload, requests, outcomes, failures),
        output_digest(outcomes),
    )


def run_passes(workload: str, requests, ribbonry, checker: Checker, seconds: float) -> list[Pass]:
    """Whole passes while the next one is expected to end within `seconds`."""
    start = perf_counter()
    passes = [checked_pass(workload, requests, ribbonry, checker)]
    while perf_counter() - start + max(p.wall for p in passes) <= seconds:
        passes.append(checked_pass(workload, requests, ribbonry, checker))
    return passes


def traced_pairs(workload: str, requests, ribbonry, checker: Checker, tracer: Tracer, seconds: float):
    """Alternate untraced and traced passes, as many pairs as fit in `seconds`.

    Alternating keeps slow drift in machine speed out of the overhead.
    """
    untraced, traced = [], []
    start = perf_counter()
    while True:
        untraced.append(checked_pass(workload, requests, ribbonry, checker))
        uninstall = install(tracer, ribbonry)
        try:
            traced.append(checked_pass(workload, requests, ribbonry, checker, tracer.begin_request))
        finally:
            uninstall()
        longest = max(p.wall for p in untraced + traced)
        if perf_counter() - start + 2 * longest > seconds:
            return untraced, traced


def end_to_end(workload: str, requests, passes: list[Pass], setup) -> tuple[dict, list[str]]:
    """The gated metrics, and report lines for every end-to-end metric."""
    # Every pass runs the same requests, so each request's latency is taken
    # as its median over the passes before percentiles are taken over requests.
    latencies = [
        statistics.median(p.latency_ns[i] for p in passes) / 1e6 for i in range(len(requests))
    ]
    tail_ms, pct = tail(latencies)
    done = sum(p.items for p in passes)
    seconds = sum(p.item_seconds for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "items_per_s": (done / seconds, "1/s"),
    }
    lines = [
        f"setup_s {metrics['setup_s'][0]:.6g} s"
        f" (median of {len(setup)} fresh `python -c 'import ribbonry.cli'` starts)",
        f"wall_s {metrics['wall_s'][0]:.6g} s (time in requests per pass, median of {len(passes)} passes)",
        # Not gated: rank statistics over a few distinct requests swing with
        # run-to-run CPU jitter far more than any bound allows (NOTES.md).
        f"req_p50_ms {statistics.median(latencies):.6g} ms"
        f" (over {len(requests)} requests, each its median over {len(passes)} passes)",
        f"req_tail_ms {tail_ms:.6g} ms (p{pct:.1f} of {len(requests)} requests,"
        f" {TAIL_BEYOND} above it; each its median over {len(passes)} passes)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB",
        f"{ITEM_NAMES[workload]} {done / seconds:.6g} 1/s"
        f" ({done} items in {seconds:.3f} s over {len(passes)} passes; reported as items_per_s)",
    ]
    return metrics, lines


def per_layer(stats, passes: int, peaks: list[float], overhead_s: float) -> tuple[dict, list[str]]:
    metrics: dict[str, tuple[float, str]] = {}
    notes = []
    for name, unit in REPORTED:
        entry = stats.get(name)
        scale = 1e6 if unit == "ms" else 1e3
        calls = entry.calls if entry else 0
        metrics[f"{name}.calls"] = (calls / passes, "count")
        metrics[f"{name}.{unit}"] = (entry.total_ns / calls / scale if calls else 0.0, unit)
        metrics[f"{name}.self_{unit}"] = (entry.self_ns / calls / scale if calls else 0.0, unit)
        if not calls:
            notes.append(f"{name}: absent, not called on this workload (reported as 0)")
    for name in ("enumeration.count_tilings", "enumeration.sample_tiling"):
        errors = stats[name].errors if name in stats else 0
        metrics[f"{name}.errors"] = (errors / passes, "count")
    gen = stats.get("enumeration.enumerate_tilings")
    metrics["enumeration.enumerate_tilings.first_ms"] = (
        gen.first_ns / gen.calls / 1e6 if gen and gen.calls else 0.0, "ms")
    metrics["enumeration.enumerate_tilings.us_per_tiling"] = (
        gen.total_ns / gen.items / 1e3 if gen and gen.items else 0.0, "us")
    metrics["enumeration.count_tilings.peak_mib"] = (max(peaks, default=0.0), "MiB")
    if not peaks:
        notes.append("enumeration.count_tilings.peak_mib: absent, no count requests (reported as 0)")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics, notes


def layer_table(stats, passes: int) -> list[str]:
    lines = [f"{'span':44} {'calls/pass':>11} {'total_ms/pass':>14} {'self_ms/pass':>13} {'errors':>7}"]
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1].self_ns):
        lines.append(
            f"{name:44} {entry.calls / passes:11.1f} {entry.total_ns / passes / 1e6:14.3f}"
            f" {entry.self_ns / passes / 1e6:13.3f} {entry.errors:7d}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    ribbonry = load_program()
    checker = Checker(load_goldens())
    requests = workloads.build(args.workload, args.seed)
    setup = measure_setup()
    # Warm the interpreter on a request outside the workload.
    run_pass([workloads.Request("warm-up", ("count", "--rect", "3x6", "--n", "3"), "count")], ribbonry)

    report = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        f" python={platform.python_version()} nproc={os.cpu_count()} requests/pass={len(requests)}",
        f"requests_digest={request_digest(requests)}",
    ]
    if args.trace == 0:
        passes = run_passes(args.workload, requests, ribbonry, checker, args.seconds)
        metrics, notes = end_to_end(args.workload, requests, passes, setup)
    else:
        tracer = Tracer()
        untraced, traced = traced_pairs(args.workload, requests, ribbonry, checker, tracer, args.seconds)
        passes = untraced + traced
        untraced_wall = statistics.median(p.seconds for p in untraced)
        traced_wall = statistics.median(p.seconds for p in traced)
        overhead = traced_wall - untraced_wall
        stats = aggregate(tracer)
        metrics, notes = per_layer(stats, len(traced), count_peaks_mib(requests), overhead)
        out = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(out)
        notes += [
            f"tracing overhead: traced wall_s {traced_wall:.4f} s - untraced wall_s"
            f" {untraced_wall:.4f} s = {overhead:.4f} s ({len(traced)} alternating pairs of passes)",
            f"{len(tracer)} spans over {len(traced)} traced passes written to {out.relative_to(BENCH.parent)}",
            "absent: states expanded, memo hit rate and ns per state wait for engine counters;"
            " _Searcher construction and _key are private and cannot be timed from outside",
        ]
        report += layer_table(stats, len(traced))

    kinds = sum((p.failures for p in passes), Counter())
    attempted = len(requests) * len(passes)
    failed = sum(kinds.values())
    wrong = kinds.get("wrong_output", 0)
    report.append(f"outputs_digest={passes[0].outputs_digest} passes={len(passes)}")
    report.append(
        f"error_rate {failed / attempted:.6f} ({failed} failed / {attempted} attempted"
        + "".join(f", {kind}={n}" for kind, n in sorted(kinds.items())) + ")"
    )
    if args.trace == 1:
        notes[:0] = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    report += notes
    print("\n".join(report))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
