"""Before/after figures for the gate's critical path, in both of its processes.

    python3 benchmarks/critical_path.py --parent CHECKOUT --change CHECKOUT --out BENCH.json
        [--pairs 10] [--runs 3] [--holdout SEED] [--parts ladder,timeline,...]

Each CHECKOUT is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``); the script writes nothing into them
except perfbench's own temporary directories.  Every run is a fresh
interpreter, and pair i runs the parent first when i is odd.  It records
these parts, in order, or those that ``--parts`` names, and rewrites OUT
after each; the parts of an existing OUT that it does not run are kept:

- ``ladder``: RUNS alternating pairs of processes, each of which solves
  the C7/C9 ladder (default quadratic pair, eps = 1e-3, ``linear_xn``,
  ``MeshParams()``, three quadrisections) LADDER_REPEATS times per level.
  Per level 0-3, the medians over all repeats of a checkout: V, T, the
  interior vertices (the unknowns of the full problem), the size of each
  block ``splu`` factored and nnz(L+U), and the seconds of ``fem.assemble``
  (operator setup), of ``splu`` (LU), of ``fem._dissection`` (order), of
  the rest of the first ``solve_bundle`` (solves: block setup, the three
  solves and the fluxes), and of a second ``solve_bundle`` with the
  operator factored.  Only names both checkouts have are used.
- ``timeline``: RUNS alternating pairs of processes, each of which runs
  ``run_all`` once to warm up, then PASSES more times with two usable
  CPUs.  For each pass, and as medians over all passes of a checkout, for
  the gate's process and for its forked worker (whose spans come back
  through a file): the seconds of each mesh plan and each artifact it
  built during ``prefetch``, its busy seconds, and, in the process that
  solved it, ladder level 3 split into the ladder plan built inside it,
  stiffness, the rest of the operator setup, nested-dissection order, LU
  (``splu``), the rest of the factorization and the solves with their
  fluxes.  Also: the gate's seconds from the start of ``prefetch`` to its
  first build (the fork, when it forks first) and from its last build to
  the end of ``prefetch`` (its wait on the worker), the worker's start
  and idle seconds, and each criterion's seconds after ``prefetch``.
- ``fingerprints``: perfbench's seed-0 fingerprint line (meshes, and the
  sweep's CSVs) for one pass of each workload in each checkout, the gate
  also under ``taskset -c 0``.
- ``traced``: ``fem.lu_calls`` and the other ``TRACED_METRICS`` of one
  seed-0 ``--trace 1`` perfbench gate run per checkout.  The probe sees
  the gate's process only.
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
from symmetry import TRACED_METRICS, TRACED_SECONDS, WORKLOADS, _env, _python, pairs, perfbench

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
        solve_bundle(mesh, phi, op=op)  # the operator is factored now
        runs.append({"setup_s": t1 - t0, "lu_s": lu, "order_s": order_s, "solves_s": t2 - t1 - lu - order_s,
                     "factored_bundle_s": time.perf_counter() - t2})
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
import glob, json, os, sys, tempfile, time
from neckfield import acceptance, fem

spans = []  # (label, start, end) in this process
OUT = tempfile.mkdtemp()  # where each worker build leaves its spans


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


Context = acceptance.AcceptanceContext
build, meshes, build_adopted = Context._build, Context.meshes, acceptance._build_adopted


def build_key(self, key):
    t0 = time.perf_counter()
    try:
        return build(self, key)
    finally:
        spans.append((f"build:{key}", t0, time.perf_counter()))


def plan_meshes(self, plan):
    if plan in self._meshes:
        return meshes(self, plan)
    t0 = time.perf_counter()
    try:
        return meshes(self, plan)  # builds the plan whole
    finally:
        spans.append((f"plan:{plan}", t0, time.perf_counter()))


def worker_build(key):
    # Runs in the forked worker: its spans go to a file for the gate's process.
    spans.clear()
    t0 = time.perf_counter()
    try:
        return build_adopted(key)
    finally:
        spans.append((f"worker:{key}", t0, time.perf_counter()))
        with open(os.path.join(OUT, f"{os.getpid()}-{key}.json"), "w") as fh:
            json.dump(spans, fh)


acceptance.run_all(echo=lambda line: None)  # warm: imports, far-field caches
Context._build = build_key
Context.meshes = plan_meshes
acceptance._build_adopted = worker_build
timed(Context, "prefetch")
timed(fem, "assemble")
timed(fem, "stiffness_matrix")
timed(fem, "_dissection", "order")
timed(fem.StiffnessOperator, "_factor")
fem.spla = Spla(fem.spla)


def within(found, label, lo, hi):
    return sum(b - a for name, a, b in found if name == label and lo <= a and b <= hi)


def top(found, lo, hi):
    # The plan and build spans in [lo, hi] that no other of them holds.
    kept = [(n, a, b) for n, a, b in found if n.split(":")[0] in ("plan", "build") and lo <= a and b <= hi]
    return [(n, a, b) for n, a, b in kept if not any(c <= a and b <= d and (c, d) != (a, b) for _, c, d in kept)]


def process(found, lo, hi):
    # Seconds of each mesh plan and, top level only, of each artifact that
    # a process built in [lo, hi], its busy seconds, and the ladder level-3
    # split if the finest level was built there; and when it was last busy.
    spans_ = top(found, lo, hi)
    row = {"plans": {n[5:]: b - a for n, a, b in found if n.startswith("plan:") and lo <= a and b <= hi},
           "artifacts": {n[6:]: b - a for n, a, b in spans_ if n.startswith("build:")},
           "busy_s": sum(b - a for _, a, b in spans_)}
    finest = [(a, b) for n, a, b in found if n == "build:ladder_finest" and lo <= a and b <= hi]
    if finest:
        (a, b), = finest
        assemble, factor = within(found, "assemble", a, b), within(found, "_factor", a, b)
        order, lu, stiffness = within(found, "order", a, b), within(found, "lu", a, b), within(found, "stiffness_matrix", a, b)
        plans = sum(d - c for n, c, d in found if n.startswith("plan:") and a <= c and d <= b)
        row["ladder3"] = {"s": b - a, "plans_s": plans, "stiffness_s": stiffness,
                          "operator_setup_s": assemble - stiffness, "order_s": order, "lu_s": lu,
                          "factor_rest_s": factor - order - lu, "solves_s": b - a - plans - assemble - factor}
    return row, max((b for _, _, b in spans_), default=lo)


rows = []
for _ in range(int(sys.argv[1])):
    spans.clear()
    for path in glob.glob(os.path.join(OUT, "*.json")):
        os.remove(path)
    echoed = []
    t0 = time.perf_counter()
    acceptance.run_all(echo=lambda line: echoed.append((line, time.perf_counter())))
    end = time.perf_counter()
    (lo, hi), = [(a, b) for n, a, b in spans if n == "prefetch"]
    worker_spans = [tuple(s) for path in glob.glob(os.path.join(OUT, "*.json")) for s in json.load(open(path))]
    (gate, gate_end), (worker, worker_end) = process(spans, lo, hi), process(worker_spans, lo, hi)
    work = [(a, b) for n, a, b in worker_spans if n.startswith("worker:")]
    criteria, last = {}, hi
    for line, at in echoed:
        if not line.startswith(" "):
            criteria[line.split()[0]] = at - last
            last = at
    rows.append({
        "wall_s": end - t0,
        "prefetch_s": hi - lo,
        "gate": {**gate, "to_first_build_s": min((a for n, a, b in top(spans, lo, hi)), default=hi) - lo,
                 "wait_s": hi - gate_end},
        "worker": {**worker, "start_s": min(a for a, _ in work) - lo, "idle_s": hi - worker_end},
        "criteria_s": end - hi,
        "criterion_s": criteria,
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


def _traced(root: Path, workload: str, seconds: float) -> dict:
    """TRACED_METRICS of one seed-0 ``--trace 1`` perfbench run."""
    run = perfbench(root, workload, 0, seconds, trace=1)
    return {"exit_code": run["exit_code"], "correct": run["correct"],
            **{name: run["metrics"].get(name) for name in TRACED_METRICS}}


PARTS = ("ladder", "timeline", "fingerprints", "traced", "verify", "pairs", "holdout")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--holdout", type=int, default=37)
    parser.add_argument("--parts", default=",".join(PARTS), help="comma-separated subset of " + ", ".join(PARTS))
    args = parser.parse_args()
    parts = args.parts.split(",")
    if not set(parts) <= set(PARTS):
        parser.error(f"unknown parts: {sorted(set(parts) - set(PARTS))}")
    parent, change = args.parent.resolve(), args.change.resolve()
    sides = (("parent", parent), ("change", change))
    seconds = float(json.loads((change / "BENCHMARK.json").read_text())["run_seconds"])
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["host"] = f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}"

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")

    if "ladder" in parts:
        doc["ladder"] = _ladder(parent, change, args.runs)
        for side in ("parent", "change"):
            for row in doc["ladder"][side]:
                print(f"ladder {side} {row}", flush=True)
        save()
    if "timeline" in parts:
        doc["timeline"] = _timeline(parent, change, args.runs)
        for side in ("parent", "change"):
            print(f"timeline {side}: {json.dumps(doc['timeline'][side]['median'])}", flush=True)
        save()
    if "fingerprints" in parts:
        doc["fingerprints"] = {f"{side}_{workload}": _fingerprint(root, (), workload)
                               for side, root in sides for workload in WORKLOADS}
        doc["fingerprints"].update({f"{side}_gate_one_cpu": _fingerprint(root, ONE_CPU) for side, root in sides})
        print(f"fingerprints {doc['fingerprints']}", flush=True)
        save()
    if "traced" in parts:
        doc["traced_gate"] = {side: _traced(root, "gate", TRACED_SECONDS) for side, root in sides}
        print(f"traced gate {doc['traced_gate']}", flush=True)
        save()
    if "verify" in parts:
        doc["verify"] = {
            "two_cpus": _alternate(parent, change, args.pairs, _verify, "two-CPU verify"),
            "one_cpu": _alternate(parent, change, args.pairs, lambda root: _verify(root, ONE_CPU), "one-CPU verify"),
        }
        save()
    if "pairs" in parts:
        doc["pairs"] = {}
        for workload in WORKLOADS:
            doc["pairs"][workload] = pairs(parent, change, workload, args.pairs, seconds)
            save()
    if "holdout" in parts:
        doc["holdout"] = {"seed": args.holdout,
                          "sweep": {side: perfbench(root, "sweep", args.holdout, seconds) for side, root in sides}}
        print("holdout sweep: " + ", ".join(
            f"{side} {doc['holdout']['sweep'][side]['metrics'].get('wall_s', float('nan')):.3f} s"
            for side, _ in sides), flush=True)
        save()


if __name__ == "__main__":
    main()
