"""Source-level checks on the package itself."""

from __future__ import annotations

import ast
import pathlib

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
