"""Before/after figures for the nested-dissection LU and the P1 assembly.

    python3 benchmarks/ordering.py --parent CHECKOUT --change CHECKOUT --out BENCH.json [--pairs 10]

Each CHECKOUT is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``); the script writes nothing into them
except perfbench's own temporary directories.  It records, in order, and
rewrites OUT after each part:

- ``ladder``: in each checkout, the C7/C9 ladder (default quadratic pair,
  eps = 1e-3, ``MeshParams()``, three quadrisections) at levels 0-3: V, T
  and the single-threaded ``fem.stiffness_matrix`` time (median of 5).  In
  the change checkout also the even block, the half stiffness on the
  interior vertices at x >= 0: its size and, for each
  ordering, the ordering time, the ``splu`` time (median of 5 each) and
  nnz(L+U).  ``colamd`` is ``splu(block)`` as the parent factors every
  block; ``dissection`` is ``fem._dissection`` followed by ``splu`` with
  ``permc_spec="NATURAL"``, ``diag_pivot_thresh=0`` and ``SymmetricMode``,
  as the change factors blocks of at least ``fem._DISSECTION_MIN``.
- ``traced``: ``perfbench/run.py --workload W --seed 0 --seconds 20
  --trace 1`` in each checkout; the medians over the traced passes of the
  layers this change touches.
- ``pairs``: for each workload, PAIRS alternating parent/change pairs of
  ``perfbench/run.py --workload W --seed i --seconds S``, as in
  ``benchmarks/symmetry.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

from symmetry import WORKLOADS, _python, pairs, perfbench

TRACED_SECONDS = 20.0
TRACED_METRICS = (
    "fem.assemble_s",
    "fem.lu_s",
    "fem.lu_nnz",
    "fem.lu_calls",
    "fem.lu_fill",
    "fem.solve_dirichlet_s",
    "acceptance.C7_s",
)
LADDER_CODE = """
import json, statistics, sys, time
import scipy.sparse.linalg as spla
from neckfield import fem
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import MeshParams, generate, refine_quadrisect


def timed(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def lu_row(order_s, lu_s, lu):
    return {"order_s": order_s, "lu_s": lu_s, "lu_nnz": int(lu.L.nnz + lu.U.nnz)}


pair = InclusionPair(2, NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,)), 1e-3)
mesh = generate(pair, MeshParams())
for level in range(4):
    if level:
        mesh = refine_quadrisect(mesh, pair)
    assemble_s, k = timed(lambda: fem.stiffness_matrix(mesh.vertices, mesh.triangles))
    row = {"level": level, "vertices": mesh.vertex_count, "triangles": mesh.triangle_count,
           "stiffness_matrix_s": assemble_s}
    if sys.argv[1:] == ["orderings"]:
        op = fem.StiffnessOperator(mesh)
        rows = op._unknowns["even"]
        block, points = op._block(rows), op._points[rows]
        lu_s, lu = timed(lambda: spla.splu(block))
        row["even_size"] = block.shape[0]
        row["colamd"] = lu_row(0.0, lu_s, lu)
        order_s, perm = timed(lambda: fem._dissection(block, points))
        permuted = block[perm][:, perm].tocsc()
        lu_s, lu = timed(lambda: spla.splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                           options={"SymmetricMode": True}))
        row["dissection"] = lu_row(order_s, lu_s, lu)
    print(json.dumps(row), flush=True)
"""


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

    doc["ladder"] = {
        "parent": [json.loads(line) for line in _python(parent, LADDER_CODE)],
        "change": [json.loads(line) for line in _python(change, LADDER_CODE, "orderings")],
    }
    for row in doc["ladder"]["change"]:
        print(f"ladder {row}", flush=True)
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
