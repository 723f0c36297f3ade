"""The public surface resolves: every exported name and every docstring
cross-reference points at something that exists."""

import ast
import importlib
import inspect
import pkgutil
import re

import pytest

import wipdyn

MODULES = {f"wipdyn.{m.name}": importlib.import_module(f"wipdyn.{m.name}")
           for m in pkgutil.iter_modules(wipdyn.__path__)}
REFERENCE = re.compile(r":(func|class|meth):`~?\.?([\w.]+)`")


def _docstrings(module):
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield ast.get_docstring(node) or ""


def _has(owner, dotted):
    for part in filter(None, dotted.split(".")):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def _resolves(module, role, name):
    """A module attribute, a dotted ``wipdyn.`` path or, for :meth:, a method
    of a class defined in the module."""
    if name.startswith("wipdyn."):
        head, _, name = name.partition(".")[2].partition(".")
        module = MODULES.get(f"wipdyn.{head}")
        if module is None:
            return False
    owners = [module]
    if role == "meth":
        owners += [c for c in vars(module).values()
                   if inspect.isclass(c) and c.__module__ == module.__name__]
    return any(_has(o, name) for o in owners)


@pytest.mark.parametrize("module", MODULES.values(), ids=list(MODULES))
def test_all_names_exist(module):
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES.values(), ids=list(MODULES))
def test_docstring_references_resolve(module):
    dangling = sorted({f":{role}:`{name}`"
                       for doc in _docstrings(module)
                       for role, name in REFERENCE.findall(doc)
                       if not _resolves(module, role, name)})
    assert dangling == []
