"""Record the sweep-small reference errors the correctness check compares against.

    python3 perfbench/record_reference.py > perfbench/reference_errors.json

For each sweep-small config: the median ``u_l2rel`` over config seeds 0-29.
"""

import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(30)


def main() -> int:
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    from rfm.experiments import run_experiment

    import stats
    from workloads import sweep_configs

    reference = {}
    for config in sweep_configs():
        errs = [run_experiment(dataclasses.replace(config, seed=s)).errors["u_l2rel"] for s in SEEDS]
        reference[f"{config.suite}/{config.name}"] = stats.median(errs)
    out = {"statistic": "median u_l2rel over config seeds 0-29", "u_l2rel": reference}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
