#!/usr/bin/env python3
"""Channel flow past obstacles, written out as plain-text field snapshots.

No exact solution exists here: a parabolic inflow enters on the left, walls
and obstacle rims carry no-slip conditions, and the outflow repeats the
parabolic profile.  The run reports the collocation residual and writes one
(x, y, value) text file per solution component (u, v, p) that any plotting
tool can render.
"""

import tempfile
from pathlib import Path

from rfm.experiments import load_suite, run_experiment


def main():
    cfg = load_suite("channel-flow")[0]
    out = Path(tempfile.mkdtemp(prefix="channel_"))
    rec = run_experiment(cfg, out_dir=out)
    print(
        f"M={rec.m_features} N={rec.n_rows} columns={rec.n_columns} "
        f"rank={rec.rank} residual={rec.loss:.3e} ({rec.wall_time_s:.1f}s)"
    )
    print(f"\nsnapshots in {out}:")
    for path in sorted(out.glob("*.dat")):
        n_lines = sum(1 for _ in open(path))
        print(f"  {path.name}  ({n_lines} points)")


if __name__ == "__main__":
    main()
