"""The public API list: ``gaussdaemon.__all__`` and the package's imports agree; private names are used and cited truly."""

import ast
import io
import re
import tokenize
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


def test_every_private_top_level_name_is_used_in_the_package():
    """Each private top-level function, class or constant of gaussdaemon is read somewhere in the package.

    An AST scan of every module: a name counts as used where it is loaded
    or read as an attribute, or where it is a string of an ``__all__`` list;
    its definition and imports do not count.  A helper that only tests
    still call (a wrapper left behind when its last caller went) fails here.
    """
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(Path(gd.__file__).parent.glob("*.py"))]
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {target.id for target in targets if isinstance(target, ast.Name)}
                defined |= names
                if "__all__" in names:
                    used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert private, "no private top-level names found"
    assert sorted(private - used) == []


# A private identifier: a leading underscore not preceded by a word character, and not a dunder.
_PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def test_docs_cite_only_private_names_the_package_defines():
    """Each _private identifier in README.md or in a package docstring or comment is defined in the package.

    Defined means a function, class or assigned name anywhere in a module of
    gaussdaemon.  A helper that was deleted or renamed while a docstring, a
    comment or the README still cites it fails here.
    """
    package = Path(gd.__file__).parent
    defined, cited = set(), {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)) and (doc := ast.get_docstring(node)):
                for name in _PRIVATE.findall(doc):
                    cited.setdefault(name, set()).add(f"{path.name} docstring")
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                for name in _PRIVATE.findall(token.string):
                    cited.setdefault(name, set()).add(f"{path.name} comment")
    for name in _PRIVATE.findall((package.parents[1] / "README.md").read_text(encoding="utf-8")):
        cited.setdefault(name, set()).add("README.md")
    assert len(cited) > 20, sorted(cited)
    assert {name: sorted(where) for name, where in cited.items() if name not in defined} == {}
