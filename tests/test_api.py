"""The package ships what it runs: every public module-level function in
`src/cubenet/` is exported from `cubenet/__init__.py` or called from
somewhere else in the package, every private one is called from
somewhere else in the package, and every module-level constant is read
somewhere in the package.  A function only the tests call belongs in
`tests/`."""
import ast
import re
from pathlib import Path

import cubenet

PACKAGE = Path(cubenet.__file__).parent


def _functions(tree: ast.Module, private: bool) -> list[ast.FunctionDef]:
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private]


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded and attributes read in `tree`, outside the subtree `skip`."""
    names: set[str] = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _unused(private: bool) -> list[str]:
    """Module-level functions (private or public ones) that no other code
    of the package references and, for a public one, that
    `cubenet/__init__.py` does not export."""
    trees = _trees()
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for module, tree in trees.items():
        for fn in _functions(tree, private):
            used = set().union(*(_references(t, skip=fn) for t in trees.values()))
            if fn.name not in used and (private or fn.name not in exported):
                unused.append(f"{module}:{fn.lineno} {fn.name}")
    return unused


def test_every_public_function_is_exported_or_used():
    assert _unused(private=False) == []


def test_every_private_function_is_used():
    """A kernel only the tests call cannot linger in the package."""
    assert _unused(private=True) == []


def test_every_constant_is_read():
    """A module-level constant (an UPPER or _UPPER name) cannot outlive
    its last reader, such as a batch size whose kernel left."""
    trees = _trees()
    read = set().union(*map(_references, trees.values()))
    unread = [f"{module}:{node.lineno} {target.id}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
              and target.id not in read]
    assert unread == []
