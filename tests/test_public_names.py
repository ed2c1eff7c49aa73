"""Every public name of ``masf`` has a caller outside tier-1's own tests.

A public module-level function or class of ``src/masf`` must be named, as an
``ast.Name``, an ``ast.Attribute`` or an import alias, somewhere in
``src/masf`` outside its own definition, in ``tests/test_acceptance.py`` or
in ``perfbench/*.py``. A name that only tests call is code the program does
not need: tests can build what it builds through the internal constructors.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "masf"
CALLERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(tree: ast.AST, skip: ast.AST | None = None):
    """The names ``tree`` mentions, leaving out the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        stack.extend(ast.iter_child_nodes(node))


def uncalled_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            if not any(node.name in names_in(tree, skip=node)
                       for tree in trees.values()):
                uncalled.append(f"{path.stem}.{node.name}")
    return uncalled


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == []
