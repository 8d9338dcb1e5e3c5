"""The package exports only what its commands, demos or benchmark read."""

import ast
import inspect
import pathlib

import mcrnet

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the library modules (not the package's re-exports), the demos and the
# benchmark harness
READERS = sorted(
    [p for p in (ROOT / "src" / "mcrnet").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py")))


def _names_read(path):
    """Every name ``path`` loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            read.add(node.attr)
    return read


def test_every_exported_function_and_class_is_read():
    # an import or a definition is not a read, so a name only the tests
    # call stays unread
    read = set().union(*map(_names_read, READERS))
    exported = {name for name in mcrnet.__all__
                if inspect.isfunction(getattr(mcrnet, name))
                or inspect.isclass(getattr(mcrnet, name))}
    assert READERS
    assert sorted(exported - read) == []
