"""Before/after figures for the deferred numpy and scipy imports and the BLAS pin.

    python3 benchmarks/startup.py --parent CHECKOUT --change CHECKOUT --out BENCH.json [--pairs 10]

Each CHECKOUT is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``); the script writes nothing into them
except perfbench's own temporary directories.  Every run is a fresh
interpreter, and pair i runs the parent first when i is odd.  It records,
in order, and rewrites OUT after each part:

- ``modules``: in each checkout, the number of modules in ``sys.modules``,
  the scipy modules among them and the count of numpy modules after
  ``import neckfield.cli``.
- ``setup``: 3 * PAIRS pairs of perfbench's ``SETUP_CODE`` (import
  ``neckfield.cli`` and parse the default config), each side's samples,
  median and quartiles, and the pairs the change won.
- ``first_solve``: PAIRS pairs of one process that imports and parses as
  above, then meshes and solves the default config's largest gap
  (``generate`` and ``solve_bundle``), then does so again.  The first
  mesh and solve carry what scipy import the change moved out of set-up;
  the second shows the warm cost.  ``to_first_solve_s`` is the sum from
  the first import to the first ``solve_bundle`` result.
- ``fresh``: PAIRS pairs of whole ``python -m neckfield.cli`` processes
  per command, each in its own temporary directory, with the BLAS and
  OpenMP thread variables removed from the child's environment: ``verify``
  on every CPU and under ``taskset -c 0``, the default ``sweep``,
  ``constants``, ``init-config`` and a sweep whose config is rejected
  (exit 2).  Each side's wall times, and whether every run's output
  matched: the gate's detail lines with the runtimes taken out, or the
  sha256 of ``sweep.csv``.
- ``pairs``: for each workload, PAIRS alternating perfbench pairs, as in
  ``benchmarks/symmetry.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from symmetry import WORKLOADS, _python, _summary, pairs

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MODULES_CODE = """
import json, sys
import neckfield.cli
tops = [m.split(".")[0] for m in sys.modules]
print(json.dumps({"count": len(sys.modules), "numpy": tops.count("numpy"),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""
REJECTED_CONFIG = "[sweep]\ncount = 3\n"
# name: (command prefix, neckfield arguments, expected exit code, output to compare)
FRESH = {
    "verify": ((), ("verify",), 0, "gate"),
    "verify_taskset": (("taskset", "-c", "0"), ("verify",), 0, "gate"),
    "sweep": ((), ("sweep",), 0, "sweep.csv"),
    "constants": ((), ("constants",), 0, "stdout"),
    "init_config": ((), ("init-config",), 0, "stdout"),
    "rejected_config": ((), ("sweep", "--config", "rejected.cfg"), 2, "stdout"),
}
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


def _fresh_run(root: Path, name: str) -> dict:
    """One whole neckfield process of FRESH[name]: wall time, exit code and
    a sha256 of the output it is compared on."""
    prefix, argv, _, output = FRESH[name]
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(root / "src")
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "rejected.cfg").write_text(REJECTED_CONFIG)
        t0 = time.perf_counter()
        done = subprocess.run([*prefix, sys.executable, "-m", "neckfield.cli", *argv], cwd=tmp, env=env,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if output == "gate":  # the detail lines, runtimes aside
            text = "\n".join(re.sub(r"\(\d+(\.\d+)?s\)", "(s)", line)
                             for line in done.stdout.splitlines() if "runtime" not in line)
        elif output == "sweep.csv":
            csv = Path(tmp) / "out" / "sweep.csv"
            text = csv.read_text() if csv.exists() else ""
        else:
            text = done.stdout
    return {"wall_s": wall, "exit_code": done.returncode, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def fresh(parent: Path, change: Path, count: int) -> dict:
    result = {}
    for name, (_, _, code, _) in FRESH.items():
        runs = {"parent": [], "change": []}
        for i in range(1, count + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                runs[side].append(_fresh_run(parent if side == "parent" else change, name))
            print(f"fresh {name} pair {i}: " + ", ".join(f"{side} {runs[side][-1]['wall_s']:.3f} s" for side in order),
                  flush=True)
        every = runs["parent"] + runs["change"]
        before = [r["wall_s"] for r in runs["parent"]]
        after = [r["wall_s"] for r in runs["change"]]
        result[name] = {
            "runs": runs,
            "wall_s": {"parent": _summary(before), "change": _summary(after),
                       "change_won": sum(a < b for a, b in zip(after, before)), "pairs": count},
            "exit_codes_as_expected": all(r["exit_code"] == code for r in every),
            "outputs_equal": len({r["sha256"] for r in every}) == 1,
        }
    return result


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
    doc["fresh"] = fresh(parent, change, args.pairs)
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
