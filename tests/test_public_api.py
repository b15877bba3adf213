import ast
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
