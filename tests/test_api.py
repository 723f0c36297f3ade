"""The public surface resolves: every exported name, every docstring
cross-reference and every wipdyn name the benchmark reads points at something
that exists; and every exported name has a reader outside the tests."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


def _dotted(node, modules):
    """'wipdyn.mod.a.b' for an attribute chain rooted at an imported wipdyn
    module or at a name imported from one, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in modules:
        return ".".join([modules[node.id], *reversed(parts)])
    return None


def _bench_references(path):
    """wipdyn names a bench script reads: ``from wipdyn.x import y`` names,
    attribute reads on a module imported from wipdyn or on such a name
    (``Params.default``), and the attribute string that follows such an
    object in a tuple or call (the bench's ``(layer, owner, "attr", tag)``
    targets and ``getattr`` calls)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "wipdyn":
            modules.update({a.asname or a.name: f"wipdyn.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wipdyn."):
            names = {a.asname or a.name: f"{node.module}.{a.name}" for a in node.names}
            modules.update(names)
            refs.update(names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(_dotted(node, modules))
        items = (node.elts if isinstance(node, ast.Tuple)
                 else node.args if isinstance(node, ast.Call) else [])
        for owner, attr in zip(items, items[1:]):
            base = _dotted(owner, modules)
            if base and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                refs.add(f"{base}.{attr.value}")
    refs.discard(None)
    return refs


BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
PINNED = sorted(set().union(*map(_bench_references, BENCH)))


def test_bench_reads_names_that_exist():
    assert len(PINNED) >= 20
    assert [name for name in PINNED if not _resolves(wipdyn, "", name)] == []


def test_bench_rhs_shims_are_ode_rhs(p, random_constrained, rng):
    # full_rhs and reduced_rhs stay only for the benchmark: each is its
    # model's ode_rhs on the record's layout values, bit for bit
    from conftest import ddt
    from wipdyn import Controls, dynamics_full, dynamics_reduced, full_to_reduced

    def bits(values):
        return [float.hex(v) for v in values]

    for _ in range(10):
        s = random_constrained()
        red = full_to_reduced(s, p)
        f1, f2 = rng.uniform(-1.0, 1.0, 2).tolist()
        assert bits(dynamics_full.full_rhs(s, Controls(f1, f2), p)) == bits(
            ddt(s, f1, f2, p).values())
        assert bits(dynamics_reduced.reduced_rhs(red, f1, f2, p)) == bits(
            ddt(red, f1, f2, p).values())


def _src_reads(path):
    """Names a src module reads (loads and attribute reads), each outside the
    top-level definition of that name: a function calling itself is no reader."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name not in (None, owner):
                yield name


# nonholo_connection states the paper's A(alpha) and Gamma(alpha); only tests read it
UNREAD_BY_DESIGN = {"nonholo_connection"}


def test_every_exported_name_has_a_reader():
    # a name in a src module's __all__ is read by src (re-exports in
    # __init__.py do not count), by the benchmark, or is a console script
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    readers = {name for path in Path(wipdyn.__file__).parent.glob("*.py")
               if path.name != "__init__.py"
               for name in _src_reads(path)}
    readers |= {ref.split(".")[2] for ref in PINNED}
    readers |= {target.rpartition(":")[2] for target in scripts.values()}
    unread = sorted(f"{module.__name__}.{name}" for module in MODULES.values()
                    for name in getattr(module, "__all__", ())
                    if name not in readers | UNREAD_BY_DESIGN)
    assert unread == []
