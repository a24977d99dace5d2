"""Regenerate reference.json, the committed rate-study reference.

For each rate-study kernel and sample size it records the mean and the
standard deviation of the per-replicate orbit loss over REPLICATES
replicates of the default MLE config, at a seed the benchmark does not
use.  The rate-study check accepts a pass whose mean loss lies within
RATE_BAND_SE standard errors of that mean.

Run from the repository root:  python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dppmle import estimation, experiments  # noqa: E402

from workloads import RATE_KERNELS, RATE_SIZES, REFERENCE  # noqa: E402

REPLICATES = 200
SEED = 1_000_003


def main() -> None:
    rate = {}
    for name, spec in RATE_KERNELS.items():
        kernel = experiments.parse_kernel_spec(spec)
        rate[name] = {}
        for size in RATE_SIZES:
            risk = estimation.estimate_risk(kernel, size, REPLICATES, estimation.MleConfig(),
                                            SEED)
            rate[name][str(size)] = {"mean": risk.mean_loss,
                                     "sd": float(risk.losses.std(ddof=1)),
                                     "max": float(risk.losses.max())}
            print(name, size, rate[name][str(size)], flush=True)
    REFERENCE.write_text(json.dumps({
        "rate_study": rate, "replicates": REPLICATES, "seed": SEED,
        "mle": estimation.MleConfig().to_dict()}, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
