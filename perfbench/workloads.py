"""The benchmark's workloads: which configs run, and how each solve is checked.

Every workload is a list of shipped suite configs.  One pass solves each
config once with one config seed; passes repeat with fresh seeds until the
run's time is up.  The config seeds come from the benchmark's ``--seed``.

- ``sweep-small``: all 25 ``helmholtz-adaptive`` configs plus
  ``stokes-exact`` ``M=400 Q=100``.  Systems of at most 501x1200, so the
  Python-level layers (experiments, basis, problems, geometry) dominate
  and the one ``rm="auto"`` config's spectral selection is a large share.
- ``beam-tall``: ``timoshenko`` ``M=800 Q=6400``, a 14400x1600 system
  (184 MB) with a global block.  Every layer does real work; this is
  where memory copies and row compression show.
- ``square-1d``: ``helmholtz-pou`` ``pou-a M=1600``, a 1664x1600 system
  of rank about 690.  The LAPACK call is at least 90% of a solve, so
  assembly and evaluation changes should show no change here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from rfm.experiments import ExperimentConfig, RunRecord, load_suite

import stats

REFERENCE_PATH = Path(__file__).with_name("reference_errors.json")

# sweep-small: a solve fails when its u_l2rel exceeds the recorded median
# by SOLVE_FACTOR; a run fails when a config's median over the run exceeds
# it by MEDIAN_FACTOR.  Random-feature errors are heavy-tailed across seeds
# (tanh Rm=8 reached 440x its median in 600 seeds), hence two factors.
SOLVE_FACTOR = 1e6
MEDIAN_FACTOR = 10.0


@dataclass(frozen=True)
class Workload:
    configs: Callable[[], list[ExperimentConfig]]
    # per-solve check: a message when the record is wrong, else None
    check: Callable[[RunRecord], str | None]
    # per-run check over all records of the run: messages for what is wrong
    check_run: Callable[[list[RunRecord]], list[str]] = lambda records: []


def _config(suite: str, name: str) -> ExperimentConfig:
    return {c.name: c for c in load_suite(suite)}[name]


def _key(record: RunRecord) -> str:
    return f"{record.suite}/{record.name}"


def common_failures(record: RunRecord) -> list[str]:
    """What fails the checks every solve must pass, whatever the workload."""
    out = []
    if record.rank > record.n_columns:
        out.append(f"rank {record.rank} above column count {record.n_columns}")
    if not math.isfinite(record.loss):
        out.append(f"loss {record.loss}")
    bad = [k for k, v in record.errors.items() if not math.isfinite(v)]
    if bad:
        out.append("non-finite errors " + ",".join(bad))
    return out


def ceiling_check(ceilings: dict[str, float]) -> Callable[[RunRecord], str | None]:
    """Every named error must be at or below its ceiling."""

    def check(record: RunRecord) -> str | None:
        over = [
            f"{k}={record.errors[k]:.3e}>{limit:.0e}"
            for k, limit in ceilings.items()
            if not record.errors[k] <= limit
        ]
        return "; ".join(over) or None

    return check


@functools.cache
def load_reference() -> dict[str, float]:
    return json.loads(REFERENCE_PATH.read_text())["u_l2rel"]


def reference_check(record: RunRecord) -> str | None:
    ref = load_reference()[_key(record)]
    err = record.errors["u_l2rel"]
    if not err <= SOLVE_FACTOR * ref:
        return f"u_l2rel {err:.3e} above {SOLVE_FACTOR:.0e} x recorded {ref:.3e}"
    return None


def reference_run_check(records: list[RunRecord]) -> list[str]:
    ref = load_reference()
    by_config: dict[str, list[float]] = {}
    for record in records:
        by_config.setdefault(_key(record), []).append(record.errors["u_l2rel"])
    out = []
    for key, errs in sorted(by_config.items()):
        med = stats.median(errs)
        if not med <= MEDIAN_FACTOR * ref[key]:
            out.append(f"{key}: median u_l2rel {med:.3e} above {MEDIAN_FACTOR:g} x recorded {ref[key]:.3e}")
    return out


def sweep_configs() -> list[ExperimentConfig]:
    return load_suite("helmholtz-adaptive") + [_config("stokes-exact", "M=400 Q=100")]


WORKLOADS = {
    "sweep-small": Workload(sweep_configs, reference_check, reference_run_check),
    # ceilings of acceptance criterion 6, applied to every solve
    "beam-tall": Workload(
        lambda: [_config("timoshenko", "M=800 Q=6400")],
        ceiling_check({k: 1e-8 for k in ("u_l2rel", "v_l2rel", "sx_l2rel", "txy_l2rel")}),
    ),
    # ceiling of acceptance criterion 1, applied to every solve
    "square-1d": Workload(
        lambda: [_config("helmholtz-pou", "pou-a M=1600")],
        ceiling_check({"u_linf": 1e-5}),
    ),
}


def passes(configs: list[ExperimentConfig], seeds):
    """One list of jobs per config seed: every config with that seed."""
    for seed in seeds:
        yield [replace(c, seed=seed) for c in configs]
