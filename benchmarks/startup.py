"""Before/after figures for the deferred scipy imports.

    python3 benchmarks/startup.py --parent CHECKOUT --change CHECKOUT --out BENCH.json [--pairs 10]

Each CHECKOUT is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``); the script writes nothing into them
except perfbench's own temporary directories.  Every run is a fresh
interpreter, and pair i runs the parent first when i is odd.  It records,
in order, and rewrites OUT after each part:

- ``modules``: in each checkout, the number of modules in ``sys.modules``
  and the scipy modules among them after ``import neckfield.cli``.
- ``setup``: 3 * PAIRS pairs of perfbench's ``SETUP_CODE`` (import
  ``neckfield.cli`` and parse the default config), each side's samples,
  median and quartiles, and the pairs the change won.
- ``first_solve``: PAIRS pairs of one process that imports and parses as
  above, then meshes and solves the default config's largest gap
  (``generate`` and ``solve_bundle``), then does so again.  The first
  mesh and solve carry what scipy import the change moved out of set-up;
  the second shows the warm cost.  ``to_first_solve_s`` is the sum from
  the first import to the first ``solve_bundle`` result.
- ``pairs``: for each workload, PAIRS alternating perfbench pairs, as in
  ``benchmarks/symmetry.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from symmetry import WORKLOADS, _python, _summary, pairs

MODULES_CODE = """
import json, sys
import neckfield.cli
print(json.dumps({"count": len(sys.modules), "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""
FIRST_SOLVE_CODE = """
import time
t0 = time.perf_counter()
import json
import neckfield.cli
from neckfield.config import default_config_text, parse_config
from neckfield.conductivity import solve_bundle
from neckfield.mesh import generate
cfg = parse_config(default_config_text())
row = {"setup_s": time.perf_counter() - t0}
pair = cfg.geometry.pair(cfg.sweep.eps_list()[0])
for name in ("first", "second"):
    t1 = time.perf_counter()
    mesh = generate(pair, cfg.mesh)
    t2 = time.perf_counter()
    solve_bundle(mesh, cfg.boundary.data())
    t3 = time.perf_counter()
    row[f"{name}_generate_s"] = t2 - t1
    row[f"{name}_solve_bundle_s"] = t3 - t2
    if name == "first":
        row["to_first_solve_s"] = t3 - t0
print(json.dumps(row))
"""


def _setup_code(root: Path) -> str:
    """perfbench's own SETUP_CODE, read from the checkout."""
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import run

        return run.SETUP_CODE
    finally:
        sys.path.pop(0)


def _alternate(parent: Path, change: Path, count: int, measure, label: str) -> dict:
    """COUNT parent/change pairs of MEASURE(root) -> dict of named values."""
    runs = {"parent": [], "change": []}
    for i in range(1, count + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            runs[side].append(measure(parent if side == "parent" else change))
        print(f"{label} pair {i}: " + ", ".join(f"{side} {runs[side][-1]}" for side in order), flush=True)
    result = {"runs": runs, "metrics": {}}
    for name in runs["parent"][0]:
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        result["metrics"][name] = {
            "parent": _summary(before),
            "change": _summary(after),
            "change_won": sum(a < b for a, b in zip(after, before)),
            "pairs": count,
        }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    seconds = float(json.loads((change / "BENCHMARK.json").read_text())["run_seconds"])
    setup_code = _setup_code(change)
    doc = {"host": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}"}

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")

    doc["modules"] = {side: json.loads(_python(root, MODULES_CODE)[-1])
                      for side, root in (("parent", parent), ("change", change))}
    print(f"modules: parent {doc['modules']['parent']['count']}, change {doc['modules']['change']['count']}",
          flush=True)
    save()
    doc["setup"] = _alternate(parent, change, 3 * args.pairs,
                              lambda root: {"setup_s": float(_python(root, setup_code)[-1])}, "setup")
    save()
    doc["first_solve"] = _alternate(parent, change, args.pairs,
                                    lambda root: json.loads(_python(root, FIRST_SOLVE_CODE)[-1]), "first solve")
    save()
    doc["pairs"] = {}
    for workload in WORKLOADS:
        doc["pairs"][workload] = pairs(parent, change, workload, args.pairs, seconds)
        save()


if __name__ == "__main__":
    main()
