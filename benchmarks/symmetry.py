"""Before/after figures for the even/odd split of the Dirichlet solves.

    python3 benchmarks/symmetry.py --parent CHECKOUT --change CHECKOUT --out BENCH.json [--pairs 10]

Each CHECKOUT is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``); the script writes nothing into them
except perfbench's own temporary directories.  It records, in order, and
rewrites OUT after each part:

- ``ladder``: in the change checkout, the C7/C9 ladder (default quadratic
  pair, eps = 1e-3, ``linear_xn``, ``MeshParams()``, three quadrisections)
  at levels 0-3: V, the K_ii size, the even and odd block sizes, and the
  single-threaded ``splu`` time (median of 3) and nnz(L+U) of the full K_ii
  against the even block, the half stiffness on the interior vertices at
  x >= 0.
- ``mirror_share``: in the change checkout, one untraced pass of each
  perfbench workload at seed 0, counting the operators whose mesh carries
  a mirror.
- ``traced``: ``perfbench/run.py --workload W --seed 0 --seconds 20
  --trace 1`` in each checkout; the ``fem.lu_s``, ``fem.lu_nnz``,
  ``fem.lu_calls`` and ``fem.solve_dirichlet_s`` medians over the traced
  passes.
- ``pairs``: for each workload, PAIRS alternating parent/change pairs of
  ``perfbench/run.py --workload W --seed i --seconds S`` (i = 1..PAIRS, S
  from ``BENCHMARK.json``; pair i runs the parent first when i is odd),
  with each run's end-to-end metrics, each side's median and quartiles, and
  the pairs the change won (lower reads better; ties count for neither).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("gate", "sweep")
TRACED_SECONDS = 20.0
TRACED_METRICS = ("fem.lu_s", "fem.lu_nnz", "fem.lu_calls", "fem.solve_dirichlet_s")
LADDER_CODE = """
import json, time
import numpy as np
import scipy.sparse.linalg as spla
from neckfield import fem
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import MeshParams, generate, refine_quadrisect


def timed_splu(matrix, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        lu = spla.splu(matrix)
        times.append(time.perf_counter() - t0)
    return sorted(times)[repeats // 2], int(lu.L.nnz + lu.U.nnz)


pair = InclusionPair(2, NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,)), 1e-3)
mesh = generate(pair, MeshParams())
for level in range(4):
    if level:
        mesh = refine_quadrisect(mesh, pair)
    op = fem.assemble(mesh)
    k_ii = fem.stiffness_matrix(mesh.vertices, mesh.triangles)[op.interior][:, op.interior].tocsc()
    full_s, full_nnz = timed_splu(k_ii)
    even_s, even_nnz = timed_splu(op._block(op._unknowns["even"]))
    print(json.dumps({
        "level": level,
        "vertices": mesh.vertex_count,
        "triangles": mesh.triangle_count,
        "k_ii_size": k_ii.shape[0],
        "even_size": len(op._unknowns["even"]),
        "odd_size": len(op._unknowns["odd"]),
        "splu_full_s": full_s,
        "splu_even_s": even_s,
        "lu_nnz_full": full_nnz,
        "lu_nnz_even": even_nnz,
    }), flush=True)
"""
SHARE_CODE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import neckfield.cli
from neckfield import fem
from workloads import WORKLOADS

nf = sys.modules["neckfield"]
mirrored = []
original = fem.StiffnessOperator.__init__


def counted(self, mesh):
    mirrored.append(mesh.mirror is not None)
    original(self, mesh)


fem.StiffnessOperator.__init__ = counted
workload = WORKLOADS[sys.argv[1]](nf, 0)
with tempfile.TemporaryDirectory(dir=".") as tmp:
    workload.run(Path(tmp))
print(json.dumps({"operators": len(mirrored), "mirrored": sum(mirrored)}))
"""


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(root: Path, code: str, *args: str) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=root, env=_env(root), capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root,
        env=_env(root),
        capture_output=True,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {"exit_code": out.returncode, "correct": doc.get("correct"), "attempted": doc.get("attempted"),
            "failed": doc.get("failed"),
            "metrics": {name: m["value"] for name, m in doc.get("metrics", {}).items()}}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pairs(parent: Path, change: Path, workload: str, count: int, seconds: float) -> dict:
    runs = {"parent": [], "change": []}
    for seed in range(1, count + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            runs[side].append(perfbench(parent if side == "parent" else change, workload, seed, seconds))
        print(f"{workload} pair {seed}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics'].get('wall_s', float('nan')):.3f} s" for side in order), flush=True)
    result = {"runs": runs, "metrics": {}}
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        before = [r["metrics"][name] for r in runs["parent"]]
        after = [r["metrics"][name] for r in runs["change"]]
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
    doc = {"host": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}"}

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")

    doc["ladder"] = [json.loads(line) for line in _python(change, LADDER_CODE)]
    for row in doc["ladder"]:
        print(f"ladder {row}", flush=True)
    save()
    doc["mirror_share"] = {w: json.loads(_python(change, SHARE_CODE, w)[-1]) for w in WORKLOADS}
    print(f"mirror share {doc['mirror_share']}", flush=True)
    save()
    doc["traced"] = {}
    for workload in WORKLOADS:
        doc["traced"][workload] = {}
        for side, root in (("parent", parent), ("change", change)):
            run = perfbench(root, workload, 0, TRACED_SECONDS, trace=1)
            doc["traced"][workload][side] = {k: run["metrics"].get(k) for k in TRACED_METRICS}
        print(f"traced {workload}: {doc['traced'][workload]}", flush=True)
        save()
    doc["pairs"] = {}
    for workload in WORKLOADS:
        doc["pairs"][workload] = pairs(parent, change, workload, args.pairs, seconds)
        save()


if __name__ == "__main__":
    main()
