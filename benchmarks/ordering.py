"""Before/after figures for the factor of the stiffness blocks: SuperLU in
COLAMD order, SuperLU in nested-dissection order, and banded Cholesky in
reverse Cuthill-McKee order.

    python3 benchmarks/ordering.py --parent CHECKOUT --change CHECKOUT --out BENCH.json [--pairs 10]

Each CHECKOUT is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``); the script writes nothing into them
except perfbench's own temporary directories.  It records, in order, and
rewrites OUT after each part:

- ``blocks``: in the change checkout, single-threaded, the even block (the
  half stiffness on the interior vertices at x >= 0) of
  - the 12 meshes of perfbench's seed-0 ``sweep``: the default config and
    its quartic pair, six gaps each;
  - ``generate`` of the default pair at eps = 1e-3 at refinement 1-4;
  - the C7/C9 ladder (the refinement-0 mesh quadrisected) at levels 1-2;
  - around ``fem._DISSECTION_MIN``: both profiles at eps = 1e-2 and 1e-4,
    ``generate`` at refinement 3-4 and at refinement 1-2 quadrisected
    once (6-15k unknowns).

  Each row has V, T, the block size n and the bandwidth of the block in
  reverse Cuthill-McKee order, and for each kernel the ordering time, the
  time of the whole factorization with its ordering, the time of one
  3-column solve (medians of 5), the entries the factor stores, and the
  largest difference of its solve from ``colamd``'s relative to the
  largest value.  ``colamd`` is ``splu(block)``, as the parent factors
  blocks below ``fem._DISSECTION_MIN``; ``dissection`` is
  ``fem._dissection`` followed by ``splu`` with ``permc_spec="NATURAL"``,
  ``diag_pivot_thresh=0`` and ``SymmetricMode``, as both factor larger
  blocks; ``banded`` is ``fem._banded_cholesky`` and
  ``cho_solve_banded``, as the change factors blocks below
  ``fem._DISSECTION_MIN``.
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
    "fem.lu_s",
    "fem.lu_nnz",
    "fem.lu_calls",
    "fem.solve_dirichlet_s",
    "fem.solve_dirichlet_calls",
    "experiments.sweep_record_s",
    "mesh.generate_s",
)
BLOCKS_CODE = """
import json, statistics, time
from dataclasses import replace
import numpy as np
import scipy.linalg as linalg
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph
from neckfield import config, fem
from neckfield.experiments import sweep_gaps
from neckfield.mesh import MeshParams, generate, refine_quadrisect


def timed(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def colamd(block, points):
    return np.arange(block.shape[0]), spla.splu(block)


def dissection(block, points):
    perm = fem._dissection(block, points)
    lu = spla.splu(block[perm][:, perm], permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return perm, lu


KERNELS = {
    "colamd": (colamd, lambda block, points: None, lambda lu: int(lu.L.nnz + lu.U.nnz)),
    "dissection": (dissection, fem._dissection, lambda lu: int(lu.L.nnz + lu.U.nnz)),
    "banded": (lambda block, points: fem._banded_cholesky(block),
               lambda block, points: csgraph.reverse_cuthill_mckee(block, symmetric_mode=True),
               lambda band: int(band.size)),
}


def solve(factor, rhs):
    if isinstance(factor, np.ndarray):
        return linalg.cho_solve_banded((factor, True), rhs)
    return factor.solve(rhs)


def row(source, mesh):
    op = fem.StiffnessOperator(mesh)
    rows = op._unknowns["even"]
    block, points = op._block(rows), op._points[rows]
    n = block.shape[0]
    rhs = np.random.default_rng(20261019).standard_normal((n, 3))
    perm = csgraph.reverse_cuthill_mckee(block, symmetric_mode=True)
    number = np.empty(n, dtype=np.int64)
    number[perm] = np.arange(n)
    out = {"source": source, "vertices": mesh.vertex_count, "triangles": mesh.triangle_count, "n": n,
           "rcm_bandwidth": int(np.abs(number[block.indices]
                                       - np.repeat(number, np.diff(block.indptr))).max())}
    reference = None
    for name, (factorize, order, stored) in KERNELS.items():
        order_s, _ = timed(lambda: order(block, points))
        factor_s, (perm, factor) = timed(lambda: factorize(block, points))
        solve_s, x = timed(lambda: solve(factor, rhs[perm]))
        got = np.empty_like(x)
        got[perm] = x
        reference = got if reference is None else reference
        out[name] = {"order_s": order_s, "factor_s": factor_s, "solve3_s": solve_s, "stored": stored(factor),
                     "diff_from_colamd": float(np.abs(got - reference).max() / np.abs(reference).max())}
    print(json.dumps(out), flush=True)


base = config.parse_config(config.default_config_text())
quartic = replace(base.geometry, profile="power", order=4.0, coefficient=4.0)
profiles = (("m2", base.geometry), ("m4", quartic))
for key, geometry in profiles:
    for eps in sweep_gaps(base.sweep.eps_list()):
        row(f"sweep {key} eps={eps:.3g}", generate(geometry.pair(eps), base.mesh))
pair = base.geometry.pair(1e-3)
for level in range(1, 5):
    row(f"generate refinement {level}", generate(pair, MeshParams(refinement=level)))
mesh = generate(pair, MeshParams())
for level in range(1, 3):
    mesh = refine_quadrisect(mesh, pair)
    row(f"ladder level {level}", mesh)
for key, geometry in profiles:
    for eps in (1e-2, 1e-4):
        pair = geometry.pair(eps)
        for level in (3, 4):
            row(f"{key} eps={eps:g} refinement {level}", generate(pair, MeshParams(refinement=level)))
        for level in (1, 2):
            mesh = refine_quadrisect(generate(pair, MeshParams(refinement=level)), pair)
            row(f"{key} eps={eps:g} refinement {level} quadrisected", mesh)
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

    doc["blocks"] = []
    for line in _python(change, BLOCKS_CODE):
        doc["blocks"].append(json.loads(line))
        print(f"block {doc['blocks'][-1]}", flush=True)
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
