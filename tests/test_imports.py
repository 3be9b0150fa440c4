import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "centerlab"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


# __init__.py imports names only to re-export them
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py")
                         + [ROOT / "tests" / "oracles.py",
                            ROOT / "scripts" / "registry_digest.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_exported_names_exist(path):
    """Every name in a module's ``__all__`` exists, and every name a module
    imports from a sibling (the package's re-exports) is defined there."""
    module = importlib.import_module(
        "centerlab" if path.name == "__init__.py" else f"centerlab.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = ".".join(filter(None, ("centerlab", node.module)))
            missing += [f"{source}.{alias.name}" for alias in node.names
                        if not hasattr(importlib.import_module(source), alias.name)]
    assert missing == []


_CATCH_ALL = {"Exception", "BaseException", "builtins.Exception", "builtins.BaseException"}


def catch_all_handlers(source: str, name: str) -> list[str]:
    """Bare ``except:`` clauses and handlers naming Exception or BaseException,
    alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or ast.unparse(t) in _CATCH_ALL for t in caught):
                found.append(f"{name}:{node.lineno}")
    return found


@pytest.mark.parametrize("body, flagged", [
    ("except:", True),
    ("except Exception:", True),
    ("except (ValueError, BaseException) as exc:", True),
    ("except (ValueError, OSError):", False),
])
def test_catch_all_lint_flags(body, flagged):
    source = f"try:\n    pass\n{body}\n    pass\n"
    assert bool(catch_all_handlers(source, "snippet")) == flagged


# the CLI's one-line errors must come from the errors the program names,
# never from a handler that would also swallow its bugs
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_catch_all_handlers(path):
    assert catch_all_handlers(path.read_text(), path.name) == []


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return ast.unparse(target) in ("dataclass", "dataclasses.dataclass")


def same_field_dataclasses(sources: dict[str, str]) -> list[list[str]]:
    """Groups of dataclasses, across all the given sources, that declare the
    same set of field names: one fact written twice."""
    by_fields: dict[frozenset[str], list[str]] = {}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ClassDef)
                    and any(map(_is_dataclass_decorator, node.decorator_list))):
                names = frozenset(stmt.target.id for stmt in node.body
                                  if isinstance(stmt, ast.AnnAssign)
                                  and isinstance(stmt.target, ast.Name))
                by_fields.setdefault(names, []).append(f"{name}:{node.name}")
    return [group for group in by_fields.values() if len(group) > 1]


@pytest.mark.parametrize("second, flagged", [
    ("@dataclasses.dataclass(frozen=True)\nclass B:\n    y: str\n    x: str = ''\n", True),
    ("@dataclass\nclass B:\n    x: int\n    y: int\n    z: int\n", False),
    ("class B:\n    x: int\n    y: int\n", False),  # no dataclass
])
def test_same_field_dataclass_lint_flags(second, flagged):
    first = "@dataclass\nclass A:\n    x: int\n    y: float = 0.0\n"
    found = same_field_dataclasses({"a.py": first, "b.py": second})
    assert found == ([["a.py:A", "b.py:B"]] if flagged else [])


# a config section is the dataclass its builder takes, never a copy of it
def test_no_two_dataclasses_share_their_fields():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert same_field_dataclasses(sources) == []


def referenced_names(sources) -> set[str]:
    """Every ``Name`` id and ``Attribute`` attr in the given sources: the
    names code uses, not those it defines, imports or spells in strings."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("source, used", [
    ("grad_check(f, x)", True),
    ("ad.grad_check", True),
    ("from centerlab.autodiff import grad_check", False),
    ("__all__ = ['grad_check']", False),
    ("def grad_check(f, x):\n    pass\n", False),
])
def test_referenced_names_lint_flags(source, used):
    assert ("grad_check" in referenced_names([source])) == used


# a helper only the tests call lives in tests/oracles.py, not in the package
def test_every_export_is_used_outside_the_tests():
    users = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    used = referenced_names(p.read_text() for p in users)
    unused = []
    for path in sorted(SRC.glob("[!_]*.py")):  # __init__.py has no __all__
        module = importlib.import_module(f"centerlab.{path.stem}")
        unused += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                   if name not in used]
    assert unused == []


def raisers(source: str, error: str) -> set[str]:
    """The functions whose bodies raise `error` (by bare or dotted name), as
    dotted scopes such as ``Class.method`` or ``outer.inner``; a raise
    outside any function or class is ``<module>``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if ast.unparse(exc).split(".")[-1] == error:
                    found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


@pytest.mark.parametrize("source, found", [
    ("class A:\n    def f(self):\n        if x:\n            raise E('x')\n", {"A.f"}),
    ("def g():\n    def h():\n        raise ad.E\n", {"g.h"}),
    ("raise E()\n", {"<module>"}),
    ("def g():\n    raise EE('x')\n", set()),
    ("def g():\n    try:\n        pass\n    except E:\n        raise\n", set()),
])
def test_raisers_lint_flags(source, found):
    assert raisers(source, "E") == found


# each loss and head hyperparameter range is checked once, where validate()
# runs it; the loss functions and head builders trust the values they get
@pytest.mark.parametrize("module, homes", [
    ("losses.py", {"LossConfig.validate"}),
    ("layers.py", {"init_encoder"}),
])
def test_parameter_errors_only_where_validate_checks(module, homes):
    assert raisers((SRC / module).read_text(), "ParameterError") <= homes


# a built run fixes its layer dims, batch sizes and parameter shapes, so
# ShapeError guards only inputs that would otherwise broadcast or reduce
# silently, and files read back from disk
SHAPE_ERROR_HOMES = {
    "autodiff.py": {"_as_array", "Tensor.item", "_unbroadcast", "mlp", "backward"},
    "losses.py": {"_views", "_mean_neg_cosine"},
    "layers.py": {"load_checkpoint"},
}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_shape_errors_only_where_shapes_are_not_fixed(path):
    assert raisers(path.read_text(), "ShapeError") <= SHAPE_ERROR_HOMES.get(path.name, set())


# README says the package does not import them, and the benchmark times
# `import centerlab` every round
def test_package_import_leaves_out_claims_registry_and_cli():
    script = ("import sys, centerlab; print(sorted({'centerlab.claims', 'centerlab.registry',"
              " 'centerlab.cli'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
