"""The package's import graph: module-level imports only, and no cycle.

``fixtures`` reads and compares the transcription file only; every value it
is compared with is built in ``scenario``, so it imports none of the
modules that build pair-space values. A cold CLI process pays for every
module it imports, so ``qgap.cli`` keeps ``dataclasses`` and ``inspect``
(with its ``ast``, ``dis`` and ``tokenize``) out of the process.

Every name the package exports has a caller besides the tests of that name:
another module of the package, a module of the benchmark, the acceptance
tests or the README's example reads it.
"""

import ast
import os
import re
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import qgap

PACKAGE_DIR = Path(qgap.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def _tree(module):
    return ast.parse((PACKAGE_DIR / f"{module}.py").read_text("utf-8"))


def _imported_modules(node):
    """The package modules a relative import statement names."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return set()
    if node.module is not None:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def _function_imports(tree):
    functions = (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [
        (function.name, sorted(_imported_modules(node)))
        for function in functions
        for node in ast.walk(function)
        if _imported_modules(node)
    ]


def _graph():
    return {
        module: {m for node in ast.walk(_tree(module)) for m in _imported_modules(node)} - {module}
        for module in MODULES
    }


def test_every_module_is_read():
    assert {"__init__", "fixtures", "scenario", "cli"} <= set(MODULES)


def test_no_import_inside_a_function_and_no_type_checking_block():
    for module in MODULES:
        tree = _tree(module)
        assert _function_imports(tree) == [], module
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "TYPE_CHECKING" not in names, module


def test_the_module_graph_is_acyclic():
    try:
        tuple(TopologicalSorter(_graph()).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_fixtures_imports_no_module_that_builds_pair_space_values():
    assert _graph()["fixtures"] == {"errors", "lattice", "linalg", "scalars"}


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # -S skips site, which on some machines imports packages of its own.
    probe = "import sys, qgap.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def _names_read(source):
    nodes = list(ast.walk(ast.parse(source)))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_every_exported_name_has_a_caller():
    imports = [node for node in ast.walk(_tree("__init__")) if isinstance(node, ast.ImportFrom)]
    exported = {alias.asname or alias.name for node in imports for alias in node.names}
    examples = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text("utf-8"), re.M | re.S)
    assert examples
    sources = [(PACKAGE_DIR / f"{module}.py").read_text("utf-8") for module in MODULES if module != "__init__"]
    sources += [path.read_text("utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    sources += [(ROOT / "tests" / "test_acceptance.py").read_text("utf-8"), *examples]
    read = set().union(*map(_names_read, sources))
    assert sorted(exported - read) == []
