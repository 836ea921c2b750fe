"""Module boundaries: no private helper is imported from another module, and
the CLI imports its heavy or process-starting dependencies only on use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import beamshadow


def test_no_private_names_imported_across_modules():
    paths = sorted(Path(beamshadow.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} "
                    f"import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders, "\n".join(offenders)


def test_cli_import_loads_no_process_or_scipy_modules():
    """The fork, shared-memory and scipy code is imported only when a command needs it."""
    lazy = ("multiprocessing", "concurrent.futures", "mmap", "scipy")
    code = f"import sys, beamshadow.cli; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(beamshadow.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
