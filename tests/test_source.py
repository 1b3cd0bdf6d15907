"""Checks on the package source itself."""

import ast
import pathlib
from collections import Counter

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


def _names_read(tree):
    """Every name a tree reads: names, attributes, and strings that are
    identifiers (as perfbench names the functions it traces)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def _defined(tree):
    """(name, node) for each function or method a module defines, and
    each name it assigns at its top level."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_function_is_used():
    # a function, method or module-level constant that only its own
    # tests read is dead weight: each must be named outside its own
    # definition somewhere in the package or the benchmark, or be
    # exported by the package
    paths = sorted(SRC.glob("*.py")) + sorted(
        (SRC.parents[1] / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in paths}
    reads = Counter(name for tree in trees.values()
                    for name in _names_read(tree))
    exported = {alias.asname or alias.name
                for node in ast.walk(trees[SRC / "__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for name, node in _defined(tree):
            if (not (name.startswith("__") and name.endswith("__"))
                    and name not in exported
                    and reads[name] == Counter(_names_read(node))[name]):
                unused.append(f"{path.name}:{name}")
    assert not unused, f"functions and constants nothing uses: {unused}"


def test_every_import_is_used():
    # a module reads every name it imports: only the package's re-exports
    # in __init__.py and `from __future__` imports may go unread
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        unread += [f"{path.name}:{node.lineno}:{alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in reads]
    assert not unread, f"imported names nothing reads: {unread}"


def _sites(match):
    """'file:function' of each node match accepts, function being the
    innermost def around it ('<module>' outside every def)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if match(node):
                found.append(f"{path.stem}:{where}")
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, "<module>")
    return found


def test_ids_and_fraction_slots_have_one_maker():
    # ids compare by identity, so one function makes them; and the
    # Fraction slots are written by moments.exact alone
    assert set(_sites(lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "SubgraphId")) == {
        "classes:_subgraph_id"}
    slots = {"_numerator", "_denominator"}
    assert set(_sites(lambda node: (isinstance(node, ast.Attribute)
                                    and node.attr in slots)
                      or (isinstance(node, ast.Constant)
                          and node.value in slots))) == {"moments:exact"}
