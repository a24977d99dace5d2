"""dppmle benchmark: two closed-loop workloads, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn

Each workload runs in a fresh worker process (worker.py), one caller,
each operation starting when the previous one returns.  The workers run
with one BLAS thread.  Set-up time is the median over SETUP_PROBES fresh
processes that only start, import dppmle and make the workload's inputs.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1).  The full record, with provenance and span records, goes
to perfbench/results/.  The exit code is nonzero when an operation or
an output check failed, or the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("enumerate", "fit")
SETUP_PROBES = 5
#: Every run must end within this many seconds.
RUN_LIMIT_S = 175.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DPP_MLE_THREADS", None)
    # On a small shared host a second BLAS thread adds noise, not speed:
    # the matrices are at most 18 x 18.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _git_commit(root: Path) -> str:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return "unavailable (not a git checkout)"
    return lines[1]


def _worker(args: list[str], timeout: float) -> float:
    """Run the worker to completion; returns its wall time, from spawn to
    exit.  The wait blocks rather than polls (as a wait with a timeout
    would), so the time is not rounded to the polling interval; a timer
    kills the worker at the timeout instead."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], env=_child_env(),
                            stdout=subprocess.DEVNULL)
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    if wall >= timeout:
        raise subprocess.TimeoutExpired(proc.args, timeout)
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return wall


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    work = HERE / "_work" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        probes = []
        for i in range(SETUP_PROBES):
            probes.append(_worker(["--workload", name, "--seed", str(seed), "--setup-only",
                                   "--work", str(work / f"probe{i}")],
                                  deadline - time.perf_counter()))
            shutil.rmtree(work / f"probe{i}", ignore_errors=True)
        result_file = work / "result.json"
        _worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--work", str(work / "run"),
                 "--result", str(result_file)], deadline - time.perf_counter())
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_probes_s"] = probes
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(probes), "unit": "s"}
    result["provenance"]["git_commit"] = _git_commit(root)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result))
    return result


def summarize(result: dict) -> None:
    name = result["workload"]
    walls = sorted(q["wall_s"] for q in result["passes"])
    print(f"== {name} seed={result['seed']} trace={result['trace']}: {len(walls)} passes of "
          f"{', '.join(result['ops'])}; wall per pass min {walls[0]:.4g} s, "
          f"max {walls[-1]:.4g} s")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    for key, value in result.get("throughputs", {}).items():
        print(f"{key} = {value:.6g} 1/s")
    ratio = result["failed"] / result["attempted"]
    print(f"failed_ratio = {ratio:.6g} ({result['failed']} of {result['attempted']} attempted)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "dppmle" / "__init__.py").is_file():
        print(f"{root} holds no dppmle sources (src/dppmle); run from the repository root",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        try:
            results.append(run_workload(root, name, args.seed, args.seconds, args.trace,
                                        deadline))
        except subprocess.CalledProcessError as exc:
            print(f"{name}: worker exited with code {exc.returncode}", file=sys.stderr)
            return 3
        except subprocess.TimeoutExpired:
            print(f"{name}: worker exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
            return 3
        summarize(results[-1])
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
