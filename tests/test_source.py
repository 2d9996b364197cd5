"""Checks on the package sources themselves."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orthospec"


def _references(node) -> Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def test_every_private_function_has_a_caller_in_the_package():
    # a helper that only its tests (or only itself) read is code nothing runs
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and total[node.name] == _references(node)[node.name]]
    assert orphans == []


def test_every_exception_class_is_raised_in_the_package():
    # an exception nothing raises is a guard that can never trip
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    classes = {node.name for node in nodes if isinstance(node, ast.ClassDef)
               and any(isinstance(b, ast.Name) and b.id == "Exception" for b in node.bases)}
    raised = set()
    for node in nodes:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    assert len(classes) >= 7
    assert sorted(classes - raised) == []


def test_every_public_name_is_read_in_the_package():
    # an __all__ entry that no module reads, outside its own definition, is an entry
    # point only tests and demos use
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        public = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__"]
        defined = {node.name: node for node in tree.body if hasattr(node, "name")}
        unread += [f"{module}.{name}" for names in public for name in names
                   if total[name] == (_references(defined[name])[name] if name in defined else 0)]
    assert unread == []
