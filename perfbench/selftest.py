"""Self-test of the benchmark itself (not of dppmle).

For every workload, on two seeds, it runs one untraced and one traced
pass in a fresh worker and asserts that:
  - every output check passes on both seeds, and the traced pass's
    reports equal the untraced pass's apart from created_at;
  - each check fails when fed a corrupted output (first seed);
  - every span the workload names records at least one call, and
    every span in tracing.SPANS is reached by some workload;
  - the counts that do not depend on the random stream are identical
    across the two seeds;
  - the summed self time of the spans accounts for the traced wall time
    to within the tracing overhead;
and that BENCHMARK.json lists exactly the metrics the runs report.
It prints the tracing overhead of each workload.  Takes about 5 minutes.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
from run import HERE, WORKER, WORKLOAD_NAMES, _child_env

SEEDS = (1, 2)
#: Unattributed time allowed besides the overhead (timer and loop costs).
UNATTRIBUTED_SLACK_S = 0.05


def traced_run(name: str, seed: int, corrupt: bool, work: Path) -> dict:
    result = work / f"{name}-{seed}.json"
    cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--trace", "1", "--work", str(work / f"{name}-{seed}"),
           "--result", str(result)]
    subprocess.run(cmd + (["--corrupt"] if corrupt else []), env=_child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=600)
    return json.loads(result.read_text())


def main() -> int:
    problems = []
    work = HERE / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    reached = set()
    try:
        for name in WORKLOAD_NAMES:
            runs = [traced_run(name, seed, seed == SEEDS[0], work) for seed in SEEDS]
            for seed, r in zip(SEEDS, runs):
                problems += [f"{name} seed {seed}: {f}" for f in r["failures"]]
            bad = runs[0]["corruptions"]
            problems += [f"{name}: corrupted output passed its check: {u}"
                         for u in bad["undetected"]]
            m = runs[0]["metrics"]
            reached |= {s for s in tracing.SPAN_NAMES if m[f"{s}.calls"]["value"] >= 1}
            a, b = (r["stream_free_counts"] for r in runs)
            problems += [f"{name}: {c} differs across seeds ({a[c]} vs {b[c]})"
                         for c in a if a[c] != b[c]]
            overhead = m["trace.overhead_s"]["value"]
            unattributed = m["trace.unattributed_s"]["value"]
            if unattributed > max(overhead, 0.0) + UNATTRIBUTED_SLACK_S:
                problems.append(f"{name}: {unattributed:.4f} s of traced wall time outside "
                                f"any span, overhead {overhead:.4f} s")
            print(f"{name}: untraced {m['trace.untraced_wall_s']['value']:.3f} s, traced "
                  f"{m['trace.wall_s']['value']:.3f} s, overhead {overhead:+.3f} s, "
                  f"unattributed {unattributed:.4f} s, "
                  f"{bad['tried']} corruptions tried")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += [f"span {s} reached by no workload" for s in tracing.SPAN_NAMES
                 if s not in reached]

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {d["name"] for d in spec["per_layer"]}
    if declared != set(m):
        problems.append(f"per_layer in BENCHMARK.json differs from the traced metrics: "
                        f"{sorted(declared ^ set(m))}")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOAD_NAMES):
        problems.append("workloads in BENCHMARK.json differ from run.WORKLOAD_NAMES")
    for p in problems:
        print("PROBLEM", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
