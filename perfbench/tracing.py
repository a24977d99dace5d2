"""Per-layer spans recorded from outside the program.

`Tracer.installed()` replaces each public function named in `SPANS` by a
timing wrapper, in its own module and under every alias other `dppmle`
modules hold for it (the from-imports such as `estimation.build_table`
or `experiments.fit_mle`), so nested calls are seen too.  The originals
are put back when the context exits.  Spans are kept in memory as
(name, parent, start, end) records and aggregated at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

#: (span name, module, attribute path).  A `Class.method` path wraps the
#: method; `Class.__init__` times construction.
SPANS = (
    ("cli.main", "dppmle.cli", "main"),
    ("experiments.run_simulate", "dppmle.experiments", "run_simulate"),
    ("experiments.run_estimate", "dppmle.experiments", "run_estimate"),
    ("experiments.run_rate_study", "dppmle.experiments", "run_rate_study"),
    ("experiments.run_hessian", "dppmle.experiments", "run_hessian"),
    ("experiments.run_curvature_scan", "dppmle.experiments", "run_curvature_scan"),
    ("experiments.run_variance_growth", "dppmle.experiments", "run_variance_growth"),
    ("experiments.run_verify_identities", "dppmle.experiments", "run_verify_identities"),
    ("experiments.load_frequencies", "dppmle.experiments", "load_frequencies"),
    ("estimation.estimate_risk", "dppmle.estimation", "estimate_risk"),
    ("estimation.fit_mle", "dppmle.estimation", "fit_mle"),
    ("estimation.moment_init", "dppmle.estimation", "moment_init"),
    ("estimation.sign_orbit_loss", "dppmle.estimation", "sign_orbit_loss"),
    ("estimation.blockwise_loss", "dppmle.estimation", "blockwise_loss"),
    ("estimation.asymptotic_covariance", "dppmle.estimation", "asymptotic_covariance"),
    ("model.build_table", "dppmle.model", "build_table"),
    ("model.sample", "dppmle.model", "sample"),
    ("model.empirical_table", "dppmle.model", "empirical_table"),
    ("model.DppTable.to_csv", "dppmle.model", "DppTable.to_csv"),
    ("model.SampleBatch.to_json", "dppmle.model", "SampleBatch.to_json"),
    ("model.SampleBatch.from_json", "dppmle.model", "SampleBatch.from_json"),
    ("geometry.identity_residuals", "dppmle.geometry", "identity_residuals"),
    ("geometry.hessian_matrix", "dppmle.geometry", "hessian_matrix"),
    ("geometry.min_curvature", "dppmle.geometry", "min_curvature"),
    ("geometry.trace_cache", "dppmle.geometry", "trace_cache"),
    ("minors.principal_logdets", "dppmle.minors", "principal_logdets"),
    ("minors.padded_inverses", "dppmle.minors", "padded_inverses"),
    ("kernels.Kernel", "dppmle.kernels", "Kernel.__init__"),
    ("kernels.determinantal_graph", "dppmle.kernels", "determinantal_graph"),
    ("rngs.stream", "dppmle.rngs", "stream"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)

#: Counts recorded at span boundaries, besides calls and times.
COUNTS = ("minors.masks", "model.sample.draws", "estimation.fit_mle.best_iterations",
          "estimation.fit_mle.unconverged", "geometry.TraceCache.constructions")


def _count_masks(counts, result):
    counts["minors.masks"] += len(result)


def _count_draws(counts, result):
    counts["model.sample.draws"] += result.size


def _count_fit(counts, result):
    counts["estimation.fit_mle.best_iterations"] += result.iterations
    counts["estimation.fit_mle.unconverged"] += not result.converged


_HOOKS = {
    "minors.principal_logdets": _count_masks,
    "minors.padded_inverses": _count_masks,
    "model.sample": _count_draws,
    "estimation.fit_mle": _count_fit,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for a module function or class member."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if outer else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Span records and counts for one process; not thread-safe."""

    def __init__(self):
        self.records: list[tuple[str, int, float, float]] = []   # name, parent, start, end
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open: list[int] = []      # indices into records of the active spans

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        records, open_ = self.records, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(records)
            records.append((name, open_[-1] if open_ else -1, clock(), 0.0))
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                n, parent, start, _ = records[index]
                records[index] = (n, parent, start, clock())
            if hook is not None:
                hook(self.counts, result)
            return result
        return wrapper

    def _count_only(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every span for the duration of the block."""
        restore = []
        try:
            for name, module_name, path in SPANS:
                owner, attr, raw = _resolve(module_name, path)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                if "." not in path:
                    restore += _rebind_aliases(raw, wrapped)
            owner, attr, raw = _resolve("dppmle.geometry", "TraceCache.__init__")
            restore.append((owner, attr, raw))
            setattr(owner, attr, self._count_only("geometry.TraceCache.constructions", raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def summary(self) -> dict:
        """Per span: calls, inclusive time, and self time (inclusive time
        minus the time covered by child spans)."""
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        child = [0.0] * len(self.records)
        for name, parent, start, end in self.records:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end) in enumerate(self.records):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += (end - start) - child[i]
        return stats


def _rebind_aliases(original, wrapped) -> list:
    """Point every other name bound to `original` in a dppmle module at
    `wrapped`; returns the (module, name, original) triples to restore."""
    restore = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "dppmle" or module_name.startswith("dppmle.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                restore.append((module, attr, original))
                setattr(module, attr, wrapped)
    return restore
