"""Checks on the package source itself."""

import ast
import pathlib

import netmoments

SRC = pathlib.Path(netmoments.__file__).parent


def test_no_assert_statements():
    # invariants must raise explicitly so that they survive python -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
