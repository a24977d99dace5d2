"""One run of one workload in a fresh process; started by run.py.

The process sets up the workload, then runs passes until their timed
sections add up to `--seconds` (and at least MIN_PASSES).  A pass is the
workload's fixed list of operations, one after the other, on the inputs
of its own pass seed; those inputs are written before the pass and are
not timed.  Each operation is timed on its own; `wall_s` and `cpu_s`
are the sums over the operations of their medians over the passes.  The
outputs of every pass are checked after it, untimed.  With `--trace 1`
each input set runs twice, untraced and then traced, so the same process
gives the tracing overhead and each traced report can be compared with
its untraced twin.  The result goes to `--result` as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T \
        --trace 0|1 --work DIR --result FILE [--setup-only] [--corrupt]
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("DPP_MLE_THREADS", None)

import numpy as np  # noqa: E402

import dppmle  # noqa: E402

from tracing import COUNTS, SPAN_NAMES, Tracer  # noqa: E402
from workloads import PASSES_PER_SEED, WORKLOADS, guard  # noqa: E402

#: Counts that must not change with the workload seed.
STREAM_FREE = ("cli.main.calls", "model.build_table.calls", "minors.principal_logdets.calls",
               "minors.padded_inverses.calls", "minors.masks", "model.sample.draws",
               "estimation.fit_mle.calls", "estimation.sign_orbit_loss.calls",
               "geometry.trace_cache.calls")
#: Untraced passes at least, so the median is not one input set's time.
MIN_PASSES = 3


def _digest_dir(path: Path) -> str:
    """Hash of every file under `path`, with `created_at` lines removed."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        for line in f.read_bytes().splitlines(keepends=True):
            if b'"created_at":' not in line:
                h.update(line)
    return h.hexdigest()


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(ops, out: Path, tracer: Tracer | None):
    """The timed section: every operation in order.  Returns the values,
    the per-op error messages, and the wall and CPU time of each op."""
    values, errors, walls, cpus = [], {}, [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for op in ops:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                value = op.run(out / op.label)
            except Exception as exc:    # a raising operation counts as failed
                errors[op.label] = f"raised {exc!r}"
                value = None
            else:
                if op.is_cli and value != 0:
                    errors[op.label] = f"exit code {value}"
            values.append(value)
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
    return values, errors, walls, cpus


def fingerprint(workload, op, out: Path, value) -> str:
    if op.is_cli:
        return f"{value} {_digest_dir(out)}"
    return workload.fingerprint(op, value)


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in threads.items() if v is not None}
        or "unset (library default, one thread per CPU)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "dppmle": dppmle.__version__,
        "seed": seed,
    }


def trace_metrics(tracers: list, walls: list, bytes_written: list) -> tuple[dict, dict]:
    """Per-layer metrics, averaged per traced pass, and the raw spans.
    `walls` holds the (untraced, traced) wall times of each input set."""
    k = len(tracers)
    summaries = [t.summary() for t in tracers]
    metrics = {}
    for name in SPAN_NAMES:
        for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
            metrics[f"{name}.{field}"] = (sum(s[name][field] for s in summaries) / k, unit)
    counts = {c: sum(t.counts[c] for t in tracers) / k for c in COUNTS}
    for c in COUNTS[:-1]:
        metrics[c] = (counts[c], "count")
    fits = [end - start for t in tracers for name, _, start, end in t.records
            if name == "estimation.fit_mle"]
    metrics["estimation.fit_mle.max_s"] = (max(fits, default=0.0), "s")
    cache_calls = metrics["geometry.trace_cache.calls"][0]
    built = counts["geometry.TraceCache.constructions"]
    metrics["geometry.trace_cache.hit_ratio"] = (
        1.0 - built / cache_calls if cache_calls else 0.0, "ratio")
    metrics["experiments.bytes_written"] = (statistics.median(bytes_written), "B")
    self_sums = [sum(s[name]["self_s"] for name in SPAN_NAMES) for s in summaries]
    metrics["trace.wall_s"] = (statistics.median(t for _, t in walls), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(u for u, _ in walls), "s")
    metrics["trace.overhead_s"] = (statistics.median(t - u for u, t in walls), "s")
    metrics["trace.unattributed_s"] = (
        statistics.median(t - s for (_, t), s in zip(walls, self_sums)), "s")
    return metrics, {"per_pass": summaries,
                     "records": [t.records for t in tracers],
                     "counts": [t.counts for t in tracers]}


def op_medians(passes: list, key: str) -> dict[str, float]:
    """Median over the passes of each operation's time under `key`."""
    labels = [op.label for op in passes[0]["ops"]]
    return {label: statistics.median(q[key][i] for q in passes)
            for i, label in enumerate(labels)}


def check_passes(workload, passes: list, first: int) -> dict:
    """Failure message per (pass, op) for passes[first:]: the op raised or
    exited nonzero, its output failed its check, or a traced output
    differs from the untraced twin's."""
    failed = {}
    for k, q in enumerate(passes[first:], start=first):
        for i, (op, value) in enumerate(zip(q["ops"], q["values"])):
            out = q["out"] / op.label
            if op.label in q["errors"]:
                failed[(k, op.label)] = q["errors"][op.label]
                continue
            if q["traced"]:
                twin = passes[k - 1]
                if fingerprint(workload, op, out, value) != fingerprint(
                        workload, op, twin["out"] / op.label, twin["values"][i]):
                    failed[(k, op.label)] = "traced output differs from the untraced twin"
                    continue
            fails = guard(workload.check, q["input_set"], op, out, value)
            if fails:
                failed[(k, op.label)] = "; ".join(fails)
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--corrupt", action="store_true",
                   help="also feed each check a corrupted output (self-test)")
    args = p.parse_args(argv)

    if Path(dppmle.__file__).resolve().parent != ROOT / "src" / "dppmle":
        print(f"dppmle imported from {dppmle.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.work / "inputs")
    workload.setup()
    if args.setup_only:
        workload.prepare(0)
        return 0

    passes, tracers, bytes_written, failed = [], [], [], {}
    measured = 0.0
    for p in range(PASSES_PER_SEED):
        ops = workload.prepare(p)
        first = len(passes)
        for traced in ((False, True) if args.trace else (False,)):
            out = args.work / f"pass{len(passes)}"
            tracer = Tracer() if traced else None
            values, errors, walls, cpus = run_pass(ops, out, tracer)
            measured += sum(walls)
            passes.append({"input_set": p, "traced": traced, "wall_s": sum(walls),
                           "cpu_s": sum(cpus), "op_wall_s": walls, "op_cpu_s": cpus,
                           "ops": ops, "out": out, "values": values, "errors": errors})
            if traced:
                tracers.append(tracer)
                bytes_written.append(_bytes_under(out))
        # untimed: check this input set, then let go of its results, so
        # memory does not grow with the number of passes
        failed.update(check_passes(workload, passes, first))
        if p > 0:
            for q in passes[first:]:
                q["values"] = None
                shutil.rmtree(q["out"], ignore_errors=True)
            workload.release(p)
        enough = len(passes) >= (2 if args.trace else MIN_PASSES)
        if enough and measured >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f"pass {k} {label}: {msg}" for (k, label), msg in sorted(failed.items())]
    run_checks = workload.run_checks()
    failures += [f"{name}: {'; '.join(fails)}" for name, fails in run_checks.items() if fails]
    attempted = sum(len(q["ops"]) for q in passes) + len(run_checks)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": [op.label for op in passes[0]["ops"]],
              "passes": [{k: q[k] for k in ("input_set", "traced", "wall_s", "cpu_s",
                                            "op_wall_s", "op_cpu_s")} for q in passes],
              "provenance": provenance(args.seed)}

    if args.trace:
        walls = [(passes[k - 1]["wall_s"], q["wall_s"])
                 for k, q in enumerate(passes) if q["traced"]]
        metrics, spans = trace_metrics(tracers, walls, bytes_written)
        missing = [s for s in workload.spans if metrics[f"{s}.calls"][0] < 1]
        attempted += 1
        if missing:
            failures.append(f"spans with no call on {args.workload}: {missing}")
        result["spans"] = spans
        result["stream_free_counts"] = {c: metrics[c][0] for c in STREAM_FREE}
    else:
        op_wall = op_medians(passes, "op_wall_s")
        result["op_median_wall_s"] = op_wall
        result["throughputs"] = workload.throughputs(op_wall)
        metrics = {
            "wall_s": (sum(op_wall.values()), "s"),
            "cpu_s": (sum(op_medians(passes, "op_cpu_s").values()), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }

    if args.corrupt:
        result["corruptions"] = corruption_test(workload, passes[0], args.work)

    result.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  attempted=attempted, failed=len(failures), failures=failures)
    args.result.write_text(json.dumps(result))
    return 0


def all_checks(workload, p: int, op, out: Path, value) -> list[str]:
    """The op's check and then the run checks, which see its result."""
    fails = guard(workload.check, p, op, out, value)
    return fails + [f for run_fails in workload.run_checks().values() for f in run_fails]


def corruption_test(workload, first: dict, work: Path) -> dict:
    """Feed the checks a corrupted copy of the first pass's output.  The
    uncorrupted copy must pass first, so a detection is not vacuous.  Each
    trial checks with its own copy of the workload, because checks record
    what the run checks read (the rate-study losses), and a corrupted
    record must not reach the next trial."""
    by_label = {op.label: (op, v) for op, v in zip(first["ops"], first["values"])}
    undetected = []
    corruptions = workload.corruptions()
    for i, (label, corrupt) in enumerate(corruptions):
        op, value = by_label[label]
        trial = copy.deepcopy(workload)
        scratch = work / f"corrupt{i}"
        shutil.copytree(first["out"], scratch)
        (scratch / label).mkdir(exist_ok=True)
        clean = all_checks(trial, first["input_set"], op, scratch / label, value)
        bad = corrupt(scratch / label, copy.deepcopy(value))
        if clean or not all_checks(trial, first["input_set"], op, scratch / label, bad):
            undetected.append(f"{label}: {corrupt.__name__}"
                              + (f" (clean copy failed: {clean})" if clean else ""))
        shutil.rmtree(scratch, ignore_errors=True)
    return {"tried": len(corruptions), "undetected": undetected}


if __name__ == "__main__":
    sys.exit(main())
