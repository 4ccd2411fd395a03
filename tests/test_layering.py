"""A module of the package uses only the public names of its siblings: a
`_private` helper is a decision its own module keeps, so no other module may
import it or reach it through the sibling module's name."""

import ast
from pathlib import Path

import pytest

import codedunlearn

PACKAGE = Path(codedunlearn.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(node: ast.ImportFrom) -> str | None:
    """The sibling module a `from ... import` reads from, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module \
            and node.module.startswith("codedunlearn."):
        return node.module.split(".", 1)[1]
    return None


def private_uses(source: str) -> list[str]:
    """`module._name` for every private name of a sibling module that the
    source imports or reads as an attribute of the imported module."""
    tree = ast.parse(source)
    found, modules = [], {}      # local name -> sibling module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node)
            package = node.level == 1 or node.module == "codedunlearn"
            for alias in node.names:
                if sibling is not None and _private(alias.name):
                    found.append(f"{sibling}.{alias.name}")
                elif sibling is None and package:    # from . import coding
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("codedunlearn.") and alias.asname:
                    modules[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return sorted(set(found))


@pytest.mark.parametrize("module", MODULES)
def test_no_sibling_privates(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert private_uses(source) == []


@pytest.mark.parametrize("source,expected", [
    ("from .numerics import _solve_normal, ridge_solve",
     ["numerics._solve_normal"]),
    ("from codedunlearn.dataset import _read as read", ["dataset._read"]),
    ("from . import coding\ncoding._encode(1)", ["coding._encode"]),
    ("import codedunlearn.coding as c\nc._encode(1)", ["coding._encode"]),
    ("from .numerics import ridge_solve\nfrom . import __version__", []),
    ("from dataclasses import _MISSING_TYPE\nself._order", []),
], ids=["from-import", "absolute", "attribute", "import-as", "public",
        "outside-package"])
def test_private_uses_detector(source, expected):
    assert private_uses(source) == expected
