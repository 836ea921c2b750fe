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


def test_only_fileio_published_renames_or_removes_a_partial_output():
    """``os.replace``, ``os.rename``, ``shutil.rmtree`` and ``.partial`` names
    appear in one function of the package, ``fileio.published``, which
    owns when an output becomes visible."""
    owners = set()
    for path in sorted(Path(beamshadow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            scope = top.name if isinstance(top, ast.FunctionDef) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    name = f"{getattr(node.value, 'id', '')}.{node.attr}"
                elif isinstance(node, ast.ImportFrom):
                    name = " ".join(f"{node.module}.{alias.name}" for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if ".partial" in name or any(
                    call in name.split() for call in ("os.replace", "os.rename", "shutil.rmtree")
                ):
                    owners.add(f"{path.name}:{scope}")
    assert owners == {"fileio.py:published"}


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
    "inequality_chain_check": "the row-wise bound audit of the experiment's fields (ROADMAP)",
    "config_to_yaml": "the inverse of config_from_yaml",
    "read_distortion_file": "the inverse of write_distortion_file",
    "delta_snr_achieved": "the paper's achieved improvement, for one field vector",
    "theorem1_lb": "the paper's closed-form bound, for one field vector",
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


def test_every_script_is_named_by_a_test():
    """Each ``scripts/*.py`` is named in some test file, so that no script
    goes unrun."""
    root = Path(beamshadow.__file__).parents[2]
    tests = "".join(path.read_text() for path in (root / "tests").glob("*.py"))
    unnamed = [p.name for p in sorted((root / "scripts").glob("*.py")) if p.name not in tests]
    assert not unnamed, unnamed


def test_the_names_the_benchmark_traces_keep_their_parameters():
    """The benchmark's tracing hooks read ``gain_map``'s ``scheme`` and
    ``field``, ``amp_gain_map``'s ``field`` and ``b_bits`` and a codebook's
    ``len``, and wrap ``experiment._run_scenario``; a rename would make every
    traced op raise.  Its naive reference enumerates the ``weight_matrix`` of
    each codebook constructor, the amplitude one given a ``StrengthVector``."""
    import inspect

    import numpy as np

    from beamshadow import codebook, experiment

    assert list(inspect.signature(codebook.gain_map).parameters) == ["scheme", "field"]
    assert list(inspect.signature(codebook.amp_gain_map).parameters) == ["field", "b_bits"]
    assert inspect.isfunction(experiment._run_scenario)
    strengths = codebook.StrengthVector((1.0, 2.0, 0.5))
    for cbk in (
        codebook.directional_codebook(3, None, 0.5, 5),
        codebook.enh_phase_codebook(3, 2),
        codebook.enh_phase_amp_codebook(3, 2, strengths),
    ):
        w = cbk.weight_matrix
        assert isinstance(w, np.ndarray) and w.dtype == np.complex128
        assert w.shape == (len(cbk), cbk.n_antennas) and not w.flags.writeable


def _bench_assigned(filename: str, name: str) -> ast.expr:
    """The expression assigned to ``name`` at the top level of
    ``bench/<filename>``, read without importing the benchmark."""
    path = Path(beamshadow.__file__).parents[2] / "bench" / filename
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise AssertionError(f"bench/{filename} assigns no {name}")


def test_every_name_the_benchmark_traces_resolves():
    """Each ``module.function`` of ``REQUIRED_SPANS`` in ``bench/worker.py`` and
    of the ``HOOKS`` keys in ``bench/tracing.py`` is a function of that
    ``beamshadow`` module; a span named by ``EXTRA_SPANS`` is checked through
    the function it is mapped from.  A traced function that is deleted or
    renamed fails here, not as an absent span of a benchmark run."""
    import importlib
    import inspect

    spans = ast.literal_eval(_bench_assigned("worker.py", "REQUIRED_SPANS"))
    hooks = [ast.literal_eval(key) for key in _bench_assigned("tracing.py", "HOOKS").keys]
    extra = {
        span: ".".join(function)
        for function, span in ast.literal_eval(_bench_assigned("tracing.py", "EXTRA_SPANS")).items()
    }
    assert "metrics.phase_mixing" in spans and "codebook.gain_map" in hooks
    assert extra["experiment.scenario"] == "experiment._run_scenario"
    unresolved = []
    for name in (*spans, *hooks):
        layer, _, attr = extra.get(name, name).partition(".")
        module = importlib.import_module(f"beamshadow.{layer}")
        if not inspect.isfunction(getattr(module, attr, None)):
            unresolved.append(name)
    assert not unresolved, unresolved


SRC_LINE_BUDGET = 3316


def test_src_stays_within_its_line_budget():
    """``src/`` holds at most ``SRC_LINE_BUDGET`` lines, counted as the
    benchmark's ``src_line_count`` counts them: new capability is paid for
    with deletions."""
    src = Path(beamshadow.__file__).parents[1]
    lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/ has {lines} lines, budget {SRC_LINE_BUDGET}"
