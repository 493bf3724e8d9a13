"""The package's imports: every module-level import is read by its module,
and no run needs scipy."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import rfm

SOURCES = sorted(Path(rfm.__file__).parent.glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name that a module-level import binds and
    the module never reads.  ``from __future__``, the names that
    ``rfm/__init__.py`` exports in ``rfm.__all__`` and lines marked
    ``# noqa: F401`` are exempt."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        read.update(rfm.__all__)
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in read
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    assert _unused_imports(path) == []


def test_a_run_needs_no_scipy():
    """With scipy made unimportable, rfm imports and a suite config runs."""
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from rfm.experiments import run_experiment, suite_config\n"
        "record = run_experiment(suite_config('stokes-exact', 'M=400 Q=100'))\n"
        "print(record.rank, sorted(record.errors))\n"
        "assert not [m for m in sys.modules if m.startswith('scipy') and sys.modules[m]]\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "u_l2rel" in done.stdout
