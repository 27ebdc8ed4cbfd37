"""Before/after figures for the gate's critical path: the gate's own process.

    python3 benchmarks/critical_path.py --parent CHECKOUT --change CHECKOUT --out BENCH.json [--pairs 10] [--holdout SEED]

Each CHECKOUT is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``); the script writes nothing into them
except perfbench's own temporary directories.  Every run is a fresh
interpreter, and pair i runs the parent first when i is odd.  It records,
in order, and rewrites OUT after each part:

- ``timeline``: PAIRS alternating pairs of processes, each of which runs
  ``run_all`` once to warm up, then PASSES more times with two usable
  CPUs.  For each pass, and as medians over all passes of a checkout: the
  seconds of the gate's own process in the mesh stage before the fork
  (with the meshes' V and T), the fork, ladder level 3 split into
  assembly (stiffness and operator setup), nested-dissection order, LU
  (``splu``), the rest of the factorization (block products and
  permutations) and the solves with their fluxes, then the criteria
  after the fork (each criterion's share, waits on the worker included:
  since the gate collects the worker's results before the criteria run,
  C1's share holds that wait); and the worker's seconds per artifact.
- ``fingerprints``: perfbench's seed-0 fingerprint line (meshes, and the
  sweep's CSVs) for one pass of each workload in each checkout, the gate
  also under ``taskset -c 0``.
- ``one_cpu``: PAIRS pairs of ``python -m neckfield.cli verify`` under
  ``taskset -c 0`` on the default config, wall time of the whole process.
- ``pairs``: for each workload, PAIRS alternating perfbench pairs (seeds
  1..PAIRS, ``run_seconds`` from ``BENCHMARK.json``), as in
  ``benchmarks/symmetry.py``.
- ``holdout``: one more parent/change pair per workload at seed HOLDOUT.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
from pathlib import Path

from concurrency import ONE_CPU, _cli_wall, _fingerprint
from startup import _alternate
from symmetry import WORKLOADS, _python, pairs, perfbench

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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--holdout", type=int, default=37)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    sides = (("parent", parent), ("change", change))
    seconds = float(json.loads((change / "BENCHMARK.json").read_text())["run_seconds"])
    doc = {"host": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}"}

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")

    doc["timeline"] = _timeline(parent, change, args.pairs)
    for side in ("parent", "change"):
        print(f"timeline {side}: {json.dumps(doc['timeline'][side]['median'])}", flush=True)
    save()
    doc["fingerprints"] = {f"{side}_{workload}": _fingerprint(root, (), workload)
                           for side, root in sides for workload in WORKLOADS}
    doc["fingerprints"].update({f"{side}_gate_one_cpu": _fingerprint(root, ONE_CPU) for side, root in sides})
    print(f"fingerprints {doc['fingerprints']}", flush=True)
    save()
    doc["one_cpu"] = _alternate(parent, change, args.pairs,
                                lambda root: {"wall_s": _cli_wall(root, "verify", prefix=ONE_CPU)}, "one-CPU verify")
    save()
    doc["pairs"] = {}
    for workload in WORKLOADS:
        doc["pairs"][workload] = pairs(parent, change, workload, args.pairs, seconds)
        save()
    doc["holdout"] = {"seed": args.holdout}
    for workload in WORKLOADS:
        doc["holdout"][workload] = {side: perfbench(root, workload, args.holdout, seconds) for side, root in sides}
        print(f"holdout {workload}: " + ", ".join(
            f"{side} {doc['holdout'][workload][side]['metrics'].get('wall_s', float('nan')):.3f} s"
            for side, _ in sides), flush=True)
        save()


if __name__ == "__main__":
    main()
