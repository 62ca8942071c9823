"""Check that the benchmark seed fixes the request list and the outputs.

    python3 bench/check_determinism.py

For each workload, with the two seeds A and B:
- seed A gives the same request list every time it is built;
- one pass run twice on seed A gives the same per-request output digests;
- seed B changes only the order and, in ``sample``, the sampler seeds, which
  stay inside the recorded pools; every other request, and its output
  digest, is the same as under seed A.
Runs three passes per workload, about half a minute each on a 2-core box.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from harness import load_program, run_pass  # noqa: E402

A, B = 1, 2


def _digests(outcomes) -> dict[str, tuple]:
    return {o.key: (o.error, o.exit_code, o.digest, o.lines) for o in outcomes}


def _sample_keys(seeds_of) -> set[str]:
    return {
        workloads.sample_request(region, s).key
        for region in workloads.SAMPLE_REGIONS
        for s in seeds_of(region)
    }


def _fixed(requests) -> list[str]:
    """Keys a different seed must keep: all but the drawn sample requests."""
    drawn = _sample_keys(lambda region: region.pool_seeds())
    return sorted(r.key for r in requests if r.key not in drawn)


def check(workload: str, a: int, b: int, ribbonry) -> list[str]:
    problems = []
    first, again, other = (workloads.build(workload, s) for s in (a, a, b))
    if first != again:
        problems.append(f"{workload}: seed {a} built two different request lists")
    if _fixed(first) != _fixed(other):
        problems.append(f"{workload}: seeds {a} and {b} differ in more than order and sampler seeds")
    if workload == "sample":
        allowed = _sample_keys(lambda region: region.pool_seeds() + region.render_seeds())
        stray = [r.key for r in other if r.check == "sample" and r.key not in allowed]
        if stray:
            problems.append(f"sample: seed {b} draws outside the recorded pools, e.g. {stray[0]}")
    one = _digests(run_pass(first, ribbonry)[0])
    two = _digests(run_pass(again, ribbonry)[0])
    if one != two:
        diff = sorted(k for k in one if one[k] != two.get(k))
        problems.append(f"{workload}: seed {a} gave different outputs on two passes, e.g. {diff[:3]}")
    three = _digests(run_pass(other, ribbonry)[0])
    diff = [k for k in _fixed(first) if one[k] != three[k]]
    if diff:
        problems.append(f"{workload}: seeds {a} and {b} gave different outputs for {diff[:3]}")
    return problems


def main() -> int:
    ribbonry = load_program()
    problems = []
    for workload in workloads.WORKLOADS:
        found = check(workload, A, B, ribbonry)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    print("\n".join(problems) if problems else "seed determinism holds")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
