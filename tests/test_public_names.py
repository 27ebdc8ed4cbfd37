"""Names that code outside the package reaches for must keep resolving.

``perfbench/spans.py`` wraps package functions by name for its per-layer
timings, so deleting or renaming one of them breaks every traced run.
This test only reads that file.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import neckfield

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
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


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"neckfield.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
