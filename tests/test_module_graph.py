"""The package's imports run one way, in the order of MODULE_ORDER.

Each module imports only the modules before it, and only at its top
level, so no module needs another that needs it back and an import
never hides inside a function.  __init__.py re-exports everything and
is exempt.
"""

import ast
import importlib
from pathlib import Path

import pytest

import orbitcanon

MODULE_ORDER = ("groups", "cloud", "image", "audit", "formats", "cli")
PACKAGE = Path(orbitcanon.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tree(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _package_modules(node) -> set[str]:
    """The orbitcanon modules an import statement names."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    else:
        module = ".".join(filter(None, ["orbitcanon" if node.level else "", node.module]))
        paths = ([f"orbitcanon.{alias.name}" for alias in node.names]
                 if module == "orbitcanon" else [module])
    return {path.split(".")[1] for path in paths
            if path.startswith("orbitcanon.")}


def test_order_names_every_module():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")
                  if p.stem != "__init__") == sorted(MODULE_ORDER)


@pytest.mark.parametrize("name", MODULE_ORDER)
def test_no_import_inside_a_body(name):
    nested = [f"{name}.py:{node.lineno}"
              for scope in ast.walk(_tree(name))
              if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              for node in ast.walk(scope)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


@pytest.mark.parametrize("name", MODULE_ORDER)
def test_imports_only_earlier_modules(name):
    imported = set().union(*(_package_modules(node) for node in ast.walk(_tree(name))
                             if isinstance(node, (ast.Import, ast.ImportFrom))))
    earlier = set(MODULE_ORDER[:MODULE_ORDER.index(name)])
    assert imported <= earlier, f"{name} imports {sorted(imported - earlier)}"


def test_exports_are_the_names_init_binds():
    """__all__ lists each public name __init__.py imports or assigns, once,
    and each resolves on the package."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    bound += [target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)]
    public = [name for name in bound if not name.startswith("_")]
    assert sorted(orbitcanon.__all__) == sorted(public)
    assert len(set(orbitcanon.__all__)) == len(orbitcanon.__all__)
    for name in orbitcanon.__all__:
        getattr(orbitcanon, name)


def test_benchmark_traces_functions_that_exist():
    """Every (module, attribute) the benchmark's tracer wraps names a function
    of orbitcanon: for a missing one the traced run drops that layer's metrics.
    spans.py is read and parsed, not imported."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    functions = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["_FUNCTIONS"])
    assert functions
    for module, attribute, _ in functions:
        assert callable(getattr(importlib.import_module(f"orbitcanon.{module}"), attribute))
