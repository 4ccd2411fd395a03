"""Every helper in the package has a caller: each module-level function,
class and constant, and each method, of `src/codedunlearn` is read by name
somewhere in the package or in the benchmark (`perfbench/`, outside its
tests), or is named in the benchmark tracer's TRACED.  Tests and demos do
not count as callers, so a name only they use is one to delete."""

import ast
from pathlib import Path

import pytest

import codedunlearn

PACKAGE = Path(codedunlearn.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "perfbench"


def _is_click_command(node) -> bool:
    """Whether a def is registered by a decorator like @main.command(...)
    or @click.group(...): click calls it, not the code."""
    return any(isinstance(dec, ast.Call)
               and isinstance(dec.func, ast.Attribute)
               and dec.func.attr in ("command", "group")
               for dec in node.decorator_list)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def constants(tree: ast.Module) -> list[str]:
    """The names a module assigns at its top level, leaving out dunders."""
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        found += [name.id for target in targets for name in ast.walk(target)
                  if isinstance(name, ast.Name) and not _is_dunder(name.id)]
    return found


def definitions(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and constants and the methods of
    a module, as "name" or "Class.name", leaving out dunders and click
    commands."""
    found = constants(tree)

    def collect(nodes, prefix=""):
        for node in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _is_dunder(node.name) or _is_click_command(node):
                continue
            found.append(prefix + node.name)
            if isinstance(node, ast.ClassDef) and not prefix:
                collect(node.body, node.name + ".")

    collect(tree.body)
    return found


def names_read(tree: ast.AST) -> set[str]:
    """Every name a tree reads, as an ast.Name or an ast.Attribute; an
    assignment to a name does not read it."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def traced() -> set[str]:
    """The last part of every attribute the benchmark's tracer wraps."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return {attr.split(".")[-1]
                    for _, attr in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def caller_sources() -> list[Path]:
    return sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in BENCH.rglob("*.py")
        if "tests" not in p.relative_to(BENCH).parts)


def uncalled(module_source: str, read: set[str], kept: set[str]) -> list[str]:
    return [name for name in definitions(ast.parse(module_source))
            if name.split(".")[-1] not in read | kept]


@pytest.fixture(scope="module")
def read():
    names = set()
    for path in caller_sources():
        names |= names_read(ast.parse(path.read_text()))
    return names


@pytest.mark.parametrize("module",
                         sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_helper_has_a_caller(module, read):
    source = (PACKAGE / f"{module}.py").read_text()
    assert uncalled(source, read, traced()) == []


def test_detector():
    source = '''
import click
@click.group()
def main(): ...
@main.command("x")
def cmd_x(): helper()
def helper(): ...
def orphan(): ...
class Store:
    def __init__(self): ...
    def used(self): ...
    def unused(self): ...
    def traced_only(self): ...
    class Inner:
        def deep(self): ...
'''
    read = names_read(ast.parse(source + "\nStore().used()\n"))
    assert definitions(ast.parse(source)) == [
        "helper", "orphan", "Store", "Store.used", "Store.unused",
        "Store.traced_only", "Store.Inner"]
    assert uncalled(source, read, {"traced_only"}) == [
        "orphan", "Store.unused", "Store.Inner"]


def test_detector_finds_unread_constants():
    # an assignment is not a read, and dunders are left out
    source = '''
LIMIT = 3
UNREAD: int = 4
PAIR, (_LOW, HIGH) = 1, (2, 3)
__version__ = "1"
def helper(): return LIMIT + HIGH
'''
    read = names_read(ast.parse(source + "\nhelper()\n"))
    assert definitions(ast.parse(source)) == [
        "LIMIT", "UNREAD", "PAIR", "_LOW", "HIGH", "helper"]
    assert uncalled(source, read, set()) == ["UNREAD", "PAIR", "_LOW"]
