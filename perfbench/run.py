"""Benchmark of the rfm solver: three workloads through ``run_experiment``.

Run from the repository root:

    python3 perfbench/run.py --workload square-1d --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones and writes every span to ``perfbench/out/``.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The library is
imported from ``src/`` next to this directory; without it the run fails.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # this process plus two fresh ones
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep-small", "beam-tall", "square-1d"))
    parser.add_argument("--seed", type=int, required=True, help="seed of the stream of config seeds")
    parser.add_argument("--seconds", type=float, default=25.0, help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, for the setup_s samples
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def config_seeds(seed: int):
    """The config seed of each pass, drawn from the benchmark's ``--seed``."""
    rng = random.Random(seed)
    return (rng.randrange(2**31) for _ in itertools.count())


def _setup_probe_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "rfm" / "__init__.py").is_file():
        print(f"error: no rfm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))

    import bench
    import machine
    import stats
    from spans import span_row
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seeds = config_seeds(args.seed)

    if args.setup_probe:
        with bench.SolveWatch() as watch:
            bench.warm_up(workload, seeds, watch)
        print(json.dumps({"setup_s": time.perf_counter() - PROCESS_START}))
        return 0

    if args.trace:
        run = bench.trace(workload, seeds, args.seconds)
        metrics = bench.layer_metrics(run)
    else:
        run = bench.measure(workload, seeds, args.seconds, PROCESS_START)
        samples = [run.setup_s] + [_setup_probe_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = bench.end_to_end_metrics(run, samples)
        n_ok = len(run.timed) - bench.fail_count(run.timed)
        print(f"timed {len(run.timed)} solves in {run.wall_s:.2f} s; tail is "
              f"p{stats.tail_percentile(n_ok):g} of {n_ok}; setup samples {samples}")

    info = machine.machine_block()  # after the run, so that set-up does not include it
    print("machine: " + json.dumps(info))
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"machine": info, "workload": args.workload, "seed": args.seed,
                                    "columns": ["name", "start", "end", "parent", "run", "counts"],
                                    "spans": [span_row(s) for s in run.spans],
                                    "side_spans": [span_row(s) for s in run.side_spans]}))
        print(f"traced {len(run.pairs)} solves (each paired with an untraced one); spans in {path}")
    attempted = len(run.outcomes)
    failed = bench.fail_count(run.outcomes)
    for o in run.outcomes:
        if o.failure:
            print(f"FAILED {o.record.name if o.record else '?'}: {o.failure}")
    for failure in run.run_failures:
        print(f"FAILED run check: {failure}")
    print(f"fail_frac {failed / attempted:.4g} ({failed} of {attempted} solves)")
    _print_metrics(metrics)
    if info["llc_bytes"]:
        largest = max((o.record.n_rows * o.record.n_columns * 8 for o in run.outcomes if o.record), default=0)
        print(f"note: largest matrix {largest / bench.MB:.1f} MB against {4 * info['llc_bytes'] / bench.MB:.0f} MB"
              " (4x last-level cache); sizes are computed as 8*rows*cols, not measured,"
              " and no achieved-bandwidth figure is reported")
    result = {
        "correct": failed == 0 and not run.run_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
