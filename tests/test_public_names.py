"""Names that code outside the package reaches for must keep resolving,
and every public name must have a caller.

``perfbench/spans.py`` wraps package functions by name for its per-layer
timings, so deleting or renaming one of them breaks every traced run.
The code that ``benchmarks/critical_path.py`` runs patches private names
the same way.  These tests read the files of ``src/`` and ``perfbench/``,
and ask the two benchmark scripts for their help.
"""

import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import neckfield

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(neckfield.__path__))


def _probe_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.FUNCTIONS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in _probe_functions()])
def test_probe_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"neckfield.{module}"), attr))


def test_probe_patch_points_resolve():
    from neckfield import acceptance, fem

    assert callable(fem.StiffnessOperator.solve_dirichlet)
    assert callable(fem.StiffnessOperator._cg)
    assert callable(fem.spla.splu)
    assert acceptance.CRITERIA and all(callable(c) for c in acceptance.CRITERIA)


@pytest.mark.parametrize(
    "module,path",
    [
        ("acceptance", "_build_adopted"),
        ("acceptance", "AcceptanceContext._build"),
        ("acceptance", "AcceptanceContext.prefetch"),
        ("fem", "_dissection"),
        ("fem", "stiffness_matrix"),
        ("fem", "StiffnessOperator._factor"),
        ("fem", "spla.splu"),
    ],
)
def test_benchmark_patch_point_resolves(module, path):
    target = importlib.import_module(f"neckfield.{module}")
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)


@pytest.mark.parametrize("script", ["critical_path.py", "mesher.py"])
def test_benchmark_script_starts(script):
    done = subprocess.run([sys.executable, str(ROOT / "benchmarks" / script), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"neckfield.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


# Public names with no caller yet, each with the reason it stays.
UNCALLED = {
    "verify_leading_term": "C10, ROADMAP item 1",
    "element_gradients": "the gradient on any triangles; the neck view's operator is held to it bit for bit",
}


def _referenced_names() -> set[str]:
    """Every name the code of ``src/`` and ``perfbench/`` reads, as a name
    or an attribute; perfbench also names package functions in strings.
    A definition or an ``__all__`` entry is not a reference."""
    names = set()
    for folder, strings in (("src/neckfield", False), ("perfbench", True)):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_public_name_has_a_caller():
    referenced = _referenced_names()
    public = {name for m in MODULES for name in getattr(importlib.import_module(f"neckfield.{m}"), "__all__", ())}
    assert sorted(public - referenced - set(UNCALLED)) == []
    assert sorted(set(UNCALLED) - (public - referenced)) == []
