"""Run requests in-process against the ribbonry package of this checkout.

A request calls ``ribbonry.cli.main(argv)`` with stdout and stderr captured
(or, for the one library request, calls the chromatic engine directly).
Stdout goes to a sink that hashes and counts lines as they are written, so a
streamed enumeration is checked without being held in memory.
"""

from __future__ import annotations

import gc
import hashlib
import io
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

from workloads import Request

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MEMO_LIMIT_ENV = "RIBBONRY_MEMO_LIMIT"


def load_program():
    """Import ribbonry from this checkout's src/ and nowhere else.

    Exits with a non-zero status when the checkout has no importable package, so the
    benchmark never reports a result for code it did not build.
    """
    # A memo cap would change how much work a request does.
    os.environ.pop(MEMO_LIMIT_ENV, None)
    sys.path.insert(0, str(SRC))
    try:
        import ribbonry.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import ribbonry from {SRC}: {exc}")
    import ribbonry

    if Path(ribbonry.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: ribbonry was imported from {ribbonry.__file__}, not {SRC}")
    return ribbonry


class Sink:
    """Stand-in for stdout: hashes and counts lines; keeps text if asked.

    With ``head`` set it behaves like a pipe into ``head -n HEAD``: the first
    write after HEAD lines raises BrokenPipeError.
    """

    def __init__(self, keep: bool, head: int | None) -> None:
        self.sha = hashlib.sha256()
        self.lines = 0
        self.parts: list[str] | None = [] if keep else None
        self.head = head

    def write(self, text: str) -> int:
        if self.head is not None and self.lines >= self.head:
            raise BrokenPipeError("stdout closed by reader")
        self.sha.update(text.encode())
        self.lines += text.count("\n")
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Outcome:
    key: str
    latency_ns: int
    exit_code: int | None
    error: str | None  # exception class name, if the request raised
    digest: str
    lines: int
    text: str | None  # stdout, kept for outputs the checks parse


def _chromatic(ribbonry) -> int:
    # Looked up through the modules at call time so that traced runs see it.
    region = ribbonry.region.build_rectangle(4, 8)
    return ribbonry.sheffield.acyclic_count_via_chromatic(ribbonry.sheffield.build_graph(region, 4))


def execute(request: Request, ribbonry, stdin_text: str | None = None) -> Outcome:
    """Run one request and time it; never raises for a failing request."""
    sink = Sink(keep=request.check != "stream", head=request.head)
    saved = sys.stdout, sys.stderr, sys.stdin
    # No request ever reads the benchmark's own stdin.
    sys.stdout, sys.stderr, sys.stdin = sink, io.StringIO(), io.StringIO(stdin_text or "")
    exit_code: int | None = None
    error = None
    # Free the previous request's garbage now, so that this request neither
    # pays for collecting it nor counts it in its memory.
    gc.collect()
    start = perf_counter_ns()
    try:
        if request.argv:
            exit_code = ribbonry.cli.main(list(request.argv))
        else:
            print(_chromatic(ribbonry))
            exit_code = 0
    except SystemExit as exc:  # argparse usage errors
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the failure is recorded and reported by kind
        error = type(exc).__name__
    finally:
        latency = perf_counter_ns() - start
        sys.stdout, sys.stderr, sys.stdin = saved
    text = "".join(sink.parts) if sink.parts is not None else None
    return Outcome(request.key, latency, exit_code, error, sink.sha.hexdigest()[:16], sink.lines, text)


def run_pass(requests: list[Request], ribbonry, on_request=None) -> tuple[list[Outcome], float]:
    """Closed loop, one client: each request starts when the previous returns.

    ``on_request(key)``, if given, is called just before each request runs.
    """
    outcomes: list[Outcome] = []
    texts: dict[str, str | None] = {}
    # Objects alive now are the benchmark's own; the per-request collections
    # then skip them.
    gc.collect()
    gc.freeze()
    start = perf_counter()
    for request in requests:
        if on_request is not None:
            on_request(request.key)
        if request.stdin_key is None:
            outcome = execute(request, ribbonry)
        elif texts.get(request.stdin_key) is None:
            # The request that feeds this one failed; nothing to run it on.
            outcome = Outcome(request.key, 0, None, "UpstreamFailed", "", 0, None)
        else:
            outcome = execute(request, ribbonry, texts[request.stdin_key])
        texts[request.key] = outcome.text
        outcomes.append(outcome)
    return outcomes, perf_counter() - start


def output_digest(outcomes: list[Outcome]) -> str:
    """Order-free digest of a pass's outputs: same requests, same digest."""
    rows = sorted(f"{o.key}\t{o.error or o.digest}\t{o.lines}" for o in outcomes)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def request_digest(requests: list[Request]) -> str:
    return hashlib.sha256("\n".join(r.key for r in requests).encode()).hexdigest()[:16]
