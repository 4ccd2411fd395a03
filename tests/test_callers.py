"""Every helper in the package has a caller: each module-level function,
class and constant, and each method, of `src/codedunlearn` is read by name
somewhere in the package or in the benchmark (`perfbench/`, outside its
tests), or is named in the benchmark tracer's TRACED.  And every default
of a function's or method's parameter is overridden by one of those
callers: one call to its name passes the parameter, by position or by
keyword, or passes *args or **kwargs.  Tests and demos do not count as
callers, so a name or a default only they use is one to delete.
Dataclass fields are not parameters here."""

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


def defaulted(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) of every parameter with a default
    of the functions and methods a module defines, the position being the
    index a call passes it at (self or cls not counted), or None for a
    keyword-only parameter."""
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = id(node) in methods and not any(
            isinstance(dec, ast.Name) and dec.id == "staticmethod"
            for dec in node.decorator_list)
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found += [(node.name, arg.arg, i - bound)
                  for i, arg in enumerate(positional) if i >= first]
        found += [(node.name, arg.arg, None) for arg, default
                  in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return found


def calls(tree: ast.AST) -> dict[str, list[tuple[int, set[str] | None]]]:
    """name -> (positional count, keyword names) of every call to a name
    or attribute of that name; a call with *args or **kwargs has the count
    and the names None, as it may pass every parameter."""
    found: dict[str, list] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(
                node.func, (ast.Name, ast.Attribute)):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) \
            else node.func.attr
        unpacked = any(isinstance(arg, ast.Starred) for arg in node.args) \
            or any(kw.arg is None for kw in node.keywords)
        found.setdefault(name, []).append(
            (None, None) if unpacked else
            (len(node.args), {kw.arg for kw in node.keywords}))
    return found


def unset_defaults(module_source: str, called: dict) -> list[str]:
    """"function.parameter" for every default no call overrides."""
    return [f"{function}.{param}"
            for function, param, at in defaulted(ast.parse(module_source))
            if not any(count is None or (at is not None and count > at)
                       or param in names
                       for count, names in called.get(function, []))]


@pytest.fixture(scope="module")
def called():
    found: dict[str, list] = {}
    for path in caller_sources():
        for name, seen in calls(ast.parse(path.read_text())).items():
            found.setdefault(name, []).extend(seen)
    return found


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


@pytest.mark.parametrize("module",
                         sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_default_is_overridden_by_a_caller(module, called):
    source = (PACKAGE / f"{module}.py").read_text()
    assert unset_defaults(source, called) == []


def test_detector_finds_defaults_no_caller_sets():
    source = '''
def by_position(a, b=1): ...
def by_keyword(a, b=1, *, c=2): ...
def unpacked(a=1, b=2): ...
def unset(a, b=1): ...
class Store:
    def method(self, a=1, b=2): ...
    @staticmethod
    def static(a=1): ...
'''
    callers = '''
by_position(0, 1)
by_keyword(0, c=3)
unpacked(*args)
unset(0)
Store().method(5)
Store.static(1)
'''
    assert defaulted(ast.parse(source)) == [
        ("by_position", "b", 1), ("by_keyword", "b", 1),
        ("by_keyword", "c", None), ("unpacked", "a", 0), ("unpacked", "b", 1),
        ("unset", "b", 1), ("method", "a", 0), ("method", "b", 1),
        ("static", "a", 0)]
    assert unset_defaults(source, calls(ast.parse(callers))) == [
        "by_keyword.b", "unset.b", "method.b"]


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
