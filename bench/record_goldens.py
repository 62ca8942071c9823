"""Record bench/goldens.json: the expected output of every benchmark request.

    python3 bench/record_goldens.py

Runs every request that any benchmark seed can produce once, against the
package in src/, and stores what the checks compare against: the count, or
the digest and line count of stdout.  Requests whose result has a closed
form (Aztec diamonds, 2xM and 1xM strips) are not recorded; the checks
compute those.  Record only from a commit whose outputs are known good:
the goldens define "correct" for every later run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from checks import GOLDENS  # noqa: E402
from harness import load_program, run_pass  # noqa: E402


def main() -> int:
    ribbonry = load_program()
    requests = workloads.universe()
    outcomes, seconds = run_pass(requests, ribbonry)
    goldens: dict[str, dict] = {}
    problems = []
    for request, outcome in zip(requests, outcomes):
        if request.check == "count" and request.expect is not None:
            continue
        if outcome.error or outcome.exit_code != request.exit_code:
            problems.append(f"{request.key}: error={outcome.error} exit={outcome.exit_code}")
            continue
        if request.check == "count":
            goldens[request.key] = {"count": json.loads(outcome.text)["count"]}
        elif request.check == "stream":
            goldens[request.key] = {"sha": outcome.digest, "lines": outcome.lines}
        elif request.check == "chromatic":
            goldens[request.key] = {"value": int(outcome.text)}
        elif request.check != "verify":
            goldens[request.key] = {"sha": outcome.digest}
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    rows = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(goldens.items()))
    GOLDENS.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"{len(goldens)} goldens from {len(requests)} requests in {seconds:.1f} s -> {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
