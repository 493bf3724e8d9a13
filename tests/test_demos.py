"""Smoke runs of the scripts in demos/: each runs to the end and prints its
headline result."""

import re
import runpy
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run(monkeypatch, capsys, script):
    path = DEMOS / script
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def _numbers(line):
    return [float(x) for x in re.findall(r"\d\.\d+e[-+]\d+", line)]


def test_multiscale_fourier_global_block_lowers_the_error(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "multiscale_fourier.py")
    (local,) = [line for line in out.splitlines() if line.strip().startswith("local only")]
    (both,) = [line for line in out.splitlines() if line.strip().startswith("local+global")]
    assert _numbers(both)[0] < _numbers(local)[0]
    (energy,) = [line for line in out.splitlines() if line.startswith("low-frequency energy")]
    local_energy, both_energy = _numbers(energy)
    assert both_energy < local_energy


def test_self_convergence_ladder_drops_an_order_per_refinement(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "self_convergence_ladder.py")
    assert "poisson-pou: errors of each run against the finest run" in out
    errors = [_numbers(line)[0] for line in out.splitlines() if _numbers(line)]
    assert len(errors) >= 2
    assert all(fine <= coarse / 10.0 for coarse, fine in zip(errors, errors[1:]))
