"""The public API list: ``gaussdaemon.__all__`` and the package's imports agree."""

import ast
from pathlib import Path

import gaussdaemon as gd


def _imported_names() -> set[str]:
    tree = ast.parse(Path(gd.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_all_resolves_without_duplicates():
    """Every name in __all__ is an attribute of the package, listed once."""
    missing = [name for name in gd.__all__ if not hasattr(gd, name)]
    assert not missing
    assert len(set(gd.__all__)) == len(gd.__all__)


def test_every_public_import_is_listed():
    """Each non-underscore name __init__ imports is in __all__, so star-importers and tools see it."""
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert public, "no imports found in __init__.py"
    assert sorted(public - set(gd.__all__)) == []
