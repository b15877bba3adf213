import ast
from collections import Counter
from pathlib import Path

import momreg


def _imported_public_names() -> set[str]:
    """The public names momreg/__init__.py imports from its submodules."""
    tree = ast.parse(Path(momreg.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_resolves_and_lists_exactly_the_imported_names():
    missing = [name for name in momreg.__all__ if not hasattr(momreg, name)]
    assert missing == []
    assert len(set(momreg.__all__)) == len(momreg.__all__)
    assert set(momreg.__all__) == _imported_public_names()


def _named(node) -> list[str]:
    """The identifiers node's subtree reads, looks up as attributes or imports."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append((sub.asname or sub.name).rsplit(".", 1)[-1])
    return out


def test_every_unexported_definition_is_named_elsewhere_in_the_package():
    """A top-level function or class of a momreg module that momreg does not
    export must be named in the package outside its own definition: code
    that only the tests call belongs in the tests."""
    sources = sorted(Path(momreg.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in sources]
    uses = Counter(name for tree in trees for name in _named(tree))
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in momreg.__all__
        and uses[node.name] == _named(node).count(node.name)
    ]
    assert unused == []
