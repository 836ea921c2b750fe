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


def test_only_forked_starts_processes_and_only_through_split():
    """No module but ``forked`` imports ``multiprocessing``, and the package
    uses nothing of ``forked`` but ``split`` and ``resolve_workers``."""
    offenders = []
    for path in sorted(Path(beamshadow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            modules, used = [], set()
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if node.module == "forked":
                    used = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "forked":
                used = {node.attr}
            if path.name != "forked.py":
                offenders += [
                    f"{path.name}:{node.lineno}: imports {module}"
                    for module in modules
                    if module.partition(".")[0] == "multiprocessing"
                ]
            offenders += [
                f"{path.name}:{node.lineno}: forked.{name}"
                for name in sorted(used - {"split", "resolve_workers"})
            ]
    assert not offenders, "\n".join(offenders)


def test_cli_import_loads_no_process_or_scipy_modules():
    """The fork, shared-memory, scipy and YAML code is imported only when a
    command needs it."""
    lazy = ("multiprocessing", "concurrent.futures", "mmap", "scipy", "yaml", "statistics")
    code = f"import sys, beamshadow.cli; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(beamshadow.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Public names kept without a caller in the program, each for a stated reason.
UNCALLED_PUBLIC_API = {
    "worst_case_dir_snr": "the directional floor the report is to carry (ROADMAP)",
    "inequality_chain_check": "the bound audit run on the experiment's fields (ROADMAP)",
    "config_to_yaml": "the inverse of config_from_yaml",
    "read_distortion_file": "the inverse of write_distortion_file",
    "delta_snr_achieved": "the paper's achieved improvement, for one field vector",
}


def test_every_public_function_has_a_caller_outside_the_tests():
    """Each public function and method of the package is referenced by name
    from package code other than ``__init__`` re-exports, from ``scripts/`` or
    from ``bench/``; a public API that only tests call is not kept."""
    package = Path(beamshadow.__file__).parent
    root = package.parents[1]
    defined = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [
                (f"{path.name}:{item.lineno}", item.name)
                for item in members
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [*(root / "scripts").glob("*.py"), *(root / "bench").glob("*.py")]
    referenced = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
    assert len(defined) > 50
    uncalled = [
        f"{where}: {name}"
        for where, name in defined
        if name not in referenced and name not in UNCALLED_PUBLIC_API
    ]
    assert not uncalled, "\n".join(uncalled)


def _optional_parameters(path: Path):
    """(where, function name, parameter, positional index or None) of every
    parameter with a default of a public function or method in one module;
    a method's index counts from the argument after ``self``."""
    out = []
    for node in ast.parse(path.read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in members:
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                continue
            where = f"{path.name}:{item.lineno}"
            positional = item.args.posonlyargs + item.args.args
            if item is not node and not any(
                getattr(d, "id", None) == "staticmethod" for d in item.decorator_list
            ):
                positional = positional[1:]
            first_default = len(positional) - len(item.args.defaults)
            out += [
                (where, item.name, arg.arg, i)
                for i, arg in enumerate(positional)
                if i >= first_default
            ]
            out += [
                (where, item.name, arg.arg, None)
                for arg, default in zip(item.args.kwonlyargs, item.args.kw_defaults)
                if default is not None
            ]
    return out


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether a call passes ``param``: by keyword, through ``**``, or by
    position, where a ``*`` argument may reach any position."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (
        index < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)
    )


def test_every_optional_parameter_is_both_set_and_left_by_the_program():
    """Each optional parameter of a public function is passed by at least
    one call in package code, ``scripts/`` or ``bench/``, and left at its
    default by at least one other: a default that no program call relies on
    belongs to the callers, and one that no program call overrides is a
    constant."""
    package = Path(beamshadow.__file__).parent
    root = package.parents[1]
    optional = [p for path in sorted(package.glob("*.py")) for p in _optional_parameters(path)]
    assert ("cdf_summary", "weights") in {(name, param) for _, name, param, _ in optional}
    calls = {}
    sources = [*package.glob("*.py"), *(root / "scripts").glob("*.py")]
    for path in [*sources, *(root / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unsettled = []
    for where, name, param, index in optional:
        passed = [_passes(call, param, index) for call in calls.get(name, ())]
        if not any(passed):
            unsettled.append(f"{where}: {name}({param}=...) is never set")
        elif all(passed):
            unsettled.append(f"{where}: {name}({param}=...) is never left at its default")
    assert not unsettled, "\n".join(unsettled)
