"""Before/after figures for the gate's critical path: the gate's own process.

    python3 benchmarks/critical_path.py --parent CHECKOUT --change CHECKOUT --out BENCH.json
        [--pairs 10] [--runs 3] [--holdout SEED]

Each CHECKOUT is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``); the script writes nothing into them
except perfbench's own temporary directories.  Every run is a fresh
interpreter, and pair i runs the parent first when i is odd.  It records,
in order, and rewrites OUT after each part:

- ``ladder``: RUNS alternating pairs of processes, each of which solves
  the C7/C9 ladder (default quadratic pair, eps = 1e-3, ``linear_xn``,
  ``MeshParams()``, three quadrisections) LADDER_REPEATS times per level.
  Per level 0-3, the medians over all repeats of a checkout: V, T, the
  interior vertices (the unknowns of the full problem), the size of each
  block ``splu`` factored and nnz(L+U), and the seconds of ``fem.assemble``
  (operator setup), of ``splu`` (LU), of ``fem._dissection`` (order) and
  of the rest of ``solve_bundle`` (solves: block setup, the three solves
  and the fluxes).  Only names both checkouts have are used.
- ``timeline``: RUNS alternating pairs of processes, each of which runs
  ``run_all`` once to warm up, then PASSES more times with two usable
  CPUs.  For each pass, and as medians over all passes of a checkout: the
  seconds of the gate's own process in the mesh stage before the fork
  (with the meshes' V and T), the fork, ladder level 3 split into
  assembly (stiffness and operator setup), nested-dissection order, LU
  (``splu``), the rest of the factorization (block slicing) and the
  solves with their fluxes, then the criteria after the fork (each
  criterion's share, waits on the worker included: since the gate
  collects the worker's results before the criteria run, C1's share holds
  that wait); and the worker's seconds per artifact.
- ``fingerprints``: perfbench's seed-0 fingerprint line (meshes, and the
  sweep's CSVs) for one pass of each workload in each checkout, the gate
  also under ``taskset -c 0``.
- ``verify``: PAIRS pairs of a fresh process running ``neckfield verify``
  on the default config, with two usable CPUs and under ``taskset -c 0``:
  the wall time of the whole process, its own peak RSS and the largest
  peak RSS of its children (the worker).
- ``pairs``: for each workload, PAIRS alternating perfbench pairs (seeds
  1..PAIRS, ``run_seconds`` from ``BENCHMARK.json``), as in
  ``benchmarks/symmetry.py``.
- ``holdout``: one more parent/change pair of the sweep workload at seed
  HOLDOUT.  The gate pins its own geometries, so a seed does not change it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from concurrency import ONE_CPU, _fingerprint
from startup import _alternate
from symmetry import WORKLOADS, _env, _python, pairs, perfbench

LADDER_REPEATS = 3
LADDER_CODE = """
import json, statistics, sys, time
from neckfield import fem
from neckfield.conductivity import BoundaryData, solve_bundle
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import MeshParams, generate, refine_quadrisect

spans = []  # (label, seconds, extra)


class Spla:
    def __init__(self, real):
        self.real = real

    def __getattr__(self, attr):
        return getattr(self.real, attr)

    def splu(self, matrix, **kwargs):
        t0 = time.perf_counter()
        lu = self.real.splu(matrix, **kwargs)
        spans.append(("lu", time.perf_counter() - t0, (matrix.shape[0], int(lu.L.nnz + lu.U.nnz))))
        return lu


dissection = fem._dissection


def order(*args):
    t0 = time.perf_counter()
    perm = dissection(*args)
    spans.append(("order", time.perf_counter() - t0, None))
    return perm


fem.spla = Spla(fem.spla)
fem._dissection = order
phi = BoundaryData(kind="linear_xn")
pair = InclusionPair(2, NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,)), 1e-3)
mesh = generate(pair, MeshParams())
solve_bundle(mesh, phi)  # warm: imports
for level in range(4):
    if level:
        mesh = refine_quadrisect(mesh, pair)
    runs = []
    for _ in range(int(sys.argv[1])):
        spans.clear()
        t0 = time.perf_counter()
        op = fem.assemble(mesh)
        t1 = time.perf_counter()
        solve_bundle(mesh, phi, op=op)
        t2 = time.perf_counter()
        lu = sum(s for name, s, _ in spans if name == "lu")
        order_s = sum(s for name, s, _ in spans if name == "order")
        runs.append({"setup_s": t1 - t0, "lu_s": lu, "order_s": order_s, "solves_s": t2 - t1 - lu - order_s})
    print(json.dumps({
        "level": level,
        "vertices": mesh.vertex_count,
        "triangles": mesh.triangle_count,
        "unknowns": len(op.interior),
        "blocks": [extra[0] for name, _, extra in spans if name == "lu"],
        "lu_nnz": sum(extra[1] for name, _, extra in spans if name == "lu"),
        **{key: statistics.median(run[key] for run in runs) for key in runs[0]},
    }), flush=True)
"""
VERIFY_CODE = """
import contextlib, io, json, resource, sys
from neckfield.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "--config", sys.argv[1]])
assert code == 0, code
print(json.dumps({
    "self_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
}))
"""
PASSES = 5
TIMELINE_CODE = """
import json, sys, time
from neckfield import acceptance, experiments, fem
from neckfield.mesh import Mesh

spans = []  # (label, start, end) in this process


def timed(owner, name, label=None):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spans.append((label or name, t0, time.perf_counter()))

    setattr(owner, name, wrapper)


class Spla:
    def __init__(self, real):
        self.real = real

    def __getattr__(self, attr):
        return getattr(self.real, attr)

    def splu(self, *args, **kwargs):
        t0 = time.perf_counter()
        lu = self.real.splu(*args, **kwargs)
        spans.append(("lu", t0, time.perf_counter()))
        return lu


contexts, built, finest = [], [], []
init = acceptance.AcceptanceContext.__init__
build = acceptance.AcceptanceContext._build
built_plan = acceptance._built


def capture(self, *args, **kwargs):
    init(self, *args, **kwargs)
    contexts.append(self)


def build_key(self, key):
    t0 = time.perf_counter()
    try:
        return build(self, key)
    finally:
        spans.append((f"build:{key}", t0, time.perf_counter()))


def plan(make):
    t0 = time.perf_counter()
    items = built_plan(make)
    built.append((items, t0, time.perf_counter()))
    return items


def bundle(mesh, *args, **kwargs):
    finest.append(mesh)
    return solve(mesh, *args, **kwargs)


acceptance.run_all(echo=lambda line: None)  # warm: imports, far-field caches
acceptance.AcceptanceContext.__init__ = capture
acceptance.AcceptanceContext._build = build_key
acceptance._built = plan
solve = experiments.solve_bundle
experiments.solve_bundle = bundle
timed(fem, "assemble")
timed(fem, "stiffness_matrix")
timed(fem, "_dissection", "order")
timed(fem.StiffnessOperator, "_factor")
fem.spla = Spla(fem.spla)


def within(label, lo, hi):
    return sum(b - a for name, a, b in spans if name == label and lo <= a and b <= hi)


def counts(items):
    meshes = [m for item in items for m in (item if isinstance(item, tuple) else (item,)) if isinstance(m, Mesh)]
    return len(meshes), sum(m.vertex_count for m in meshes), sum(m.triangle_count for m in meshes)


rows = []
for _ in range(int(sys.argv[1])):
    for kept in (spans, built, contexts, finest):
        kept.clear()
    echoed = []
    t0 = time.perf_counter()
    acceptance.run_all(echo=lambda line: echoed.append((line, time.perf_counter())))
    end = time.perf_counter()
    (ctx,) = contexts
    mesh_lo, mesh_hi = built[0][1], built[-1][2]
    (lo, hi) = next((a, b) for name, a, b in spans if name == "build:ladder_finest")
    mesh = finest[-1]
    assemble, factor = within("assemble", lo, hi), within("_factor", lo, hi)
    order, lu = within("order", lo, hi), within("lu", lo, hi)
    plan_s = dict(zip(ctx._mesh_plans(), (b - a for _, a, b in built)))
    stage = [counts(items) for items, _, _ in built]
    criteria, last = {}, hi
    for line, at in echoed:
        if not line.startswith(" "):
            criteria[line.split()[0]] = at - last
            last = at
    rows.append({
        "wall_s": end - t0,
        "mesh_stage_s": mesh_hi - mesh_lo,
        "mesh_stage_meshes": sum(c[0] for c in stage),
        "mesh_stage_vertices": sum(c[1] for c in stage),
        "mesh_stage_triangles": sum(c[2] for c in stage),
        "mesh_plan_s": plan_s,
        "fork_s": lo - mesh_hi,
        "ladder3_vertices": mesh.vertex_count,
        "ladder3_triangles": mesh.triangle_count,
        "ladder3_s": hi - lo,
        "ladder3_stiffness_s": within("stiffness_matrix", lo, hi),
        "ladder3_operator_setup_s": assemble - within("stiffness_matrix", lo, hi),
        "ladder3_order_s": order,
        "ladder3_lu_s": lu,
        "ladder3_factor_rest_s": factor - order - lu,
        "ladder3_solves_s": hi - lo - assemble - factor,
        "ladder3_non_lu_s": hi - lo - lu,
        "criteria_after_fork_s": end - hi,
        "criterion_s": criteria,
        "worker_s": {key: ctx.build_seconds.get(key, 0.0) - plan_s.get(key, 0.0)
                     for key in acceptance.WORKER_ARTIFACTS},
    })


print(json.dumps(rows))
"""


def _median(values: list):
    """Median of each number, through nested dicts; keys as in the first."""
    if isinstance(values[0], dict):
        return {key: _median([v[key] for v in values]) for key in values[0]}
    return statistics.median(values)


def _timeline(parent: Path, change: Path, runs: int) -> dict:
    """RUNS alternating processes of TIMELINE_CODE per checkout."""
    passes = {"parent": [], "change": []}
    for i in range(1, runs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            passes[side] += json.loads(_python(parent if side == "parent" else change, TIMELINE_CODE, str(PASSES))[-1])
        print(f"timeline run {i}: " + ", ".join(
            f"{side} {statistics.median(p['wall_s'] for p in passes[side][-PASSES:]):.3f} s" for side in order),
            flush=True)
    return {side: {"median": _median(rows), "passes": rows} for side, rows in passes.items()}


def _ladder(parent: Path, change: Path, runs: int) -> dict:
    """RUNS alternating processes of LADDER_CODE per checkout; per level,
    the medians over the processes' medians."""
    rows = {"parent": [], "change": []}
    for i in range(1, runs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            root = parent if side == "parent" else change
            rows[side].append([json.loads(line) for line in _python(root, LADDER_CODE, str(LADDER_REPEATS))])
        print(f"ladder run {i}: " + ", ".join(
            f"{side} level 3 {rows[side][-1][-1]['lu_s'] + rows[side][-1][-1]['setup_s']:.3f} s" for side in order),
            flush=True)
    return {side: [{key: (statistics.median(r[key] for r in level) if key.endswith("_s") else level[0][key])
                    for key in level[0]}
                   for level in zip(*runs_of_side)]
            for side, runs_of_side in rows.items()}


def _verify(root: Path, prefix: tuple[str, ...] = ()) -> dict:
    """Wall time of one fresh ``neckfield verify`` process on the default
    config, and its peak RSS and its children's."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(f"[output]\ndirectory = {Path(tmp) / 'out'}\n")
        t0 = time.perf_counter()
        out = subprocess.run([*prefix, sys.executable, "-c", VERIFY_CODE, str(cfg)],
                             cwd=root, env=_env(root), capture_output=True, text=True, check=True)
        wall = time.perf_counter() - t0
    return {"wall_s": wall, **json.loads(out.stdout.splitlines()[-1])}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--holdout", type=int, default=37)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    sides = (("parent", parent), ("change", change))
    seconds = float(json.loads((change / "BENCHMARK.json").read_text())["run_seconds"])
    doc = {"host": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}"}

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")

    doc["ladder"] = _ladder(parent, change, args.runs)
    for side in ("parent", "change"):
        for row in doc["ladder"][side]:
            print(f"ladder {side} {row}", flush=True)
    save()
    doc["timeline"] = _timeline(parent, change, args.runs)
    for side in ("parent", "change"):
        print(f"timeline {side}: {json.dumps(doc['timeline'][side]['median'])}", flush=True)
    save()
    doc["fingerprints"] = {f"{side}_{workload}": _fingerprint(root, (), workload)
                           for side, root in sides for workload in WORKLOADS}
    doc["fingerprints"].update({f"{side}_gate_one_cpu": _fingerprint(root, ONE_CPU) for side, root in sides})
    print(f"fingerprints {doc['fingerprints']}", flush=True)
    save()
    doc["verify"] = {
        "two_cpus": _alternate(parent, change, args.pairs, _verify, "two-CPU verify"),
        "one_cpu": _alternate(parent, change, args.pairs, lambda root: _verify(root, ONE_CPU), "one-CPU verify"),
    }
    save()
    doc["pairs"] = {}
    for workload in WORKLOADS:
        doc["pairs"][workload] = pairs(parent, change, workload, args.pairs, seconds)
        save()
    doc["holdout"] = {"seed": args.holdout,
                      "sweep": {side: perfbench(root, "sweep", args.holdout, seconds) for side, root in sides}}
    print("holdout sweep: " + ", ".join(
        f"{side} {doc['holdout']['sweep'][side]['metrics'].get('wall_s', float('nan')):.3f} s" for side, _ in sides),
        flush=True)
    save()


if __name__ == "__main__":
    main()
