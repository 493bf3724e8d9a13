"""Command-line interface: run one config, run a suite table, ablate row
rescaling, or print a suite config.

A run uses one OpenBLAS, numpy's, with one thread pool.  It picks the
pool's thread count from the size of its system (``rfm.blas``), never above
the count the pool loads with, which ``OPENBLAS_NUM_THREADS`` sets.  ``rfm
run`` prints it as ``threads=N``, after the rm the run used as ``rm=``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .experiments import (
    ExperimentConfig,
    rescale_ablation,
    run_experiment,
    run_table,
    suite_config,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfm",
        description="Random feature method PDE solver experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single experiment config")
    run.add_argument("--config", required=True, help="path to a config JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="directory for CSV row and field snapshots")
    run.add_argument("--dump-system", default=None, help="write the assembled system to this path")

    table = sub.add_parser("table", help="run every config of a suite, median over seeds")
    table.add_argument("--suite", required=True, help="suite name")
    table.add_argument("--seeds", type=int, default=5, help="number of seeds (default 5)")
    table.add_argument("--out", default=None, help="directory for the suite CSV")

    ablate = sub.add_parser("ablate-rescale", help="run a config with and without rescaling")
    ablate.add_argument("--config", required=True, help="path to a config JSON file")

    config = sub.add_parser("config", help="print a suite config as JSON")
    config.add_argument("--suite", required=True, help="suite name")
    config.add_argument("--name", default=None, help="config name (default: the suite's first)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig.load(args.config)
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            record = run_experiment(config, out_dir=args.out, dump_system=args.dump_system)
            print(record.text())
        elif args.command == "table":
            rows = run_table(args.suite, list(range(args.seeds)), out_dir=args.out)
            # the CSV columns that some config fills, in file order
            cols = [c for c in rows[0] if any(row[c] for row in rows)]
            print("\t".join(cols))
            for row in rows:
                print("\t".join(row[c] for c in cols))
            if args.out:
                print(f"wrote {os.path.join(args.out, args.suite + '.csv')}")
        elif args.command == "ablate-rescale":
            config = ExperimentConfig.load(args.config)
            on, off = rescale_ablation(config)
            print("rescaling on:", on.text(), "rescaling off:", off.text(), sep="\n")
        elif args.command == "config":
            print(suite_config(args.suite, args.name).to_json())
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
