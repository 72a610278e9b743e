"""Source-level checks on the package itself."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import barreldimer

SRC = pathlib.Path(barreldimer.__file__).parent


def test_no_assert_statements_in_package():
    """Invariants raise typed errors; `python -O` would strip an assert."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("module", ["scipy", "jsonschema"])
def test_no_scipy_imports_in_package(module):
    """scipy and jsonschema are test-only dependencies; the package must run without them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == module]
    assert found == []


def test_transfer_never_builds_the_graph():
    """The sampler takes its edge ids from graph.edge_block: transfer neither
    imports nor calls build_graph."""
    tree = ast.parse((SRC / "transfer.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"import:{node.lineno}" for alias in node.names
                      if alias.name == "build_graph"]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "build_graph":
                found.append(f"call:{node.lineno}")
    assert found == []


def test_paths_imports_only_the_boundary_from_transfer():
    """The walker route is independent of transfer's rows and classes: paths
    takes the cap boundary and its size guard from transfer, nothing else."""
    tree = ast.parse((SRC / "paths.py").read_text(encoding="utf-8"))
    relative, absolute = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            absolute.append(node.module)
        elif isinstance(node, ast.Import):
            absolute += [alias.name for alias in node.names]
    assert sorted(name for module, name in relative if module == "transfer") == [
        "_check_boundary_cap", "boundary_vector"]
    assert (None, "transfer") not in relative
    assert not [name for name in absolute if name.split(".")[0] == "barreldimer"]


def test_every_import_is_used():
    """No module imports a name it never reads; __init__ re-exports are exempt."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


@pytest.mark.parametrize("module", ["scipy", "jsonschema", "fractions", "decimal", "numpy"])
def test_cli_import_leaves_scipy_unloaded(module):
    code = f"import sys, barreldimer.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("commands, loads_numpy", [
    ([["count", "--m", "4", "--k", "3", "--method", "transfer"],
      ["count", "--m", "4", "--k", "3", "--method", "paths"],
      ["sample", "--m", "4", "--k", "3", "--samples", "5"],
      ["render", "--m", "3", "--k", "1", "--what", "tiling", "--seed", "1"],
      ["asymptotic", "--m", "4", "--k", "5", "--aggregate"]], False),
    ([["growth", "--m", "5"]], True),
    ([["spectrum", "--m", "4", "--p", "2"]], True),
    ([["validate", "--level", "fast"]], True),
], ids=["count-sample-render-asymptotic", "growth", "spectrum", "validate"])
def test_commands_load_numpy_only_for_float_checks(commands, loads_numpy):
    """The exact counts, the sampler, the SVG and the walker estimate run on
    Python numbers; only the Bethe, growth and entropy checks load numpy."""
    code = ("import contextlib, io, sys\n"
            "from barreldimer import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loads_numpy)


# Top-level definitions whose only callers live outside src/, by caller.
UNREACHED_IN_SRC = {
    "build_transfer": "perfbench/worker.py warm-up",
}


def test_every_definition_is_reached():
    """Each top-level def or class under src/ is named in src/ (a call, an
    attribute or an __init__ re-export), or its outside caller is listed."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    defined = [node.name for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert sorted(name for name in defined if name not in named) == sorted(UNREACHED_IN_SRC)


def test_every_module_constant_is_read():
    """Each module-level UPPER_CASE constant under src/ is read somewhere in src/."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found += [f"{name}:{node.lineno} {t.id}" for t in targets
                      if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
                      and t.id not in read]
    assert found == []


@pytest.mark.parametrize("literal", ["exceeds the float range", "m must be >= 3",
                                     "exceeds boundary scan cap", 'args.format == "json"',
                                     '"</svg>"', "exceeds transfer cap",
                                     "exceeds brute-force cap", "sector p={p} outside"])
def test_each_guard_message_is_written_once(literal):
    """The float-range guard, the width check, the boundary, transfer and
    brute-force caps, the sector guard, the CLI's JSON branch and the SVG
    frame each live in one function under src/."""
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    owners = [f"{name}:{node.name}" for name, text in texts.items()
              for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)
              and literal in ast.get_source_segment(text, node)]
    assert sum(text.count(literal) for text in texts.values()) == 1
    assert len(owners) == 1, owners
