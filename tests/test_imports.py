"""Module boundaries: no private helper is imported from another module."""

import ast
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
