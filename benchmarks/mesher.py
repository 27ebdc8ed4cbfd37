"""Before/after figures for the mesher, one checkout per run.

    python3 benchmarks/mesher.py --root CHECKOUT --label before|after --out BENCH.json

Times ``mesh.generate`` of CHECKOUT (its ``src/`` on a fresh interpreter
per level) on the default quadratic pair (curvature 2) at eps = 1e-3 at
refinement levels 0, 2, 3, 4, 5 and 6: the first (cold) call of the
process, then the median of further (warm) calls of the same gap, with
vertex and triangle counts and the sha256 of the vertex and triangle
arrays, and whether the warm mesh has the cold one's bytes.  Each such
process imports the scipy modules the mesher defers before its first
clock starts, and records that import's seconds apart.  At levels 0,
2 and 4 it also times the six-gap sequence 1e-2 * 4**-k, k = 0..5, of the
default sweep, from a fresh interpreter: seconds and V/T per gap and one
sha256 over the six meshes.  A level that raises records the error and the
time until it did.  Times ``refine_quadrisect`` on the same pair at ladder
levels 1-3, starting from the refinement-0 mesh, with the same counts and
hash.  Then runs CHECKOUT's ``perfbench/run.py`` on the ``sweep`` and
``gate`` workloads at seed 0 for the 50 s that ``BENCHMARK.json`` sets,
and keeps their JSON line and whether the seed-0 mesh fingerprints
matched.  The result is merged into OUT under LABEL, so running the
script once per checkout gives one file with both columns.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

from pairs import HOST, perfbench, python

LEVELS = (0, 2, 3, 4, 5, 6)
SEQUENCE_LEVELS = (0, 2, 4)
SECONDS = 50.0
GENERATE_CODE = """
import hashlib, json, sys, time
import numpy as np
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import MeshParams, generate
pair = InclusionPair(2, NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,)), 1e-3)
level, repeats, mode = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
params = MeshParams(refinement=level)
# The mesher's deferred scipy modules, imported before any clock starts.
t0 = time.perf_counter()
import scipy.sparse.linalg, scipy.spatial
scipy_import_seconds = time.perf_counter() - t0


def sha256(meshes):
    digest = hashlib.sha256()
    for mesh in meshes:
        digest.update(np.ascontiguousarray(mesh.vertices, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(mesh.triangles, dtype=np.int64).tobytes())
    return digest.hexdigest()


def timed(eps):
    t0 = time.perf_counter()
    mesh = generate(pair.with_gap(eps), params)
    return time.perf_counter() - t0, mesh


t_start = time.perf_counter()
try:
    if mode == "sequence":
        gaps = [1e-2 * 4.0 ** -k for k in range(6)]
        runs = [timed(eps) for eps in gaps]
        meshes = [mesh for _, mesh in runs]
        out = {
            "gaps": gaps,
            "seconds": [t for t, _ in runs],
            "total_seconds": sum(t for t, _ in runs),
            "vertices": [mesh.vertex_count for mesh in meshes],
            "triangles": [mesh.triangle_count for mesh in meshes],
            "sha256": sha256(meshes),
        }
    else:
        cold, mesh = timed(pair.eps)
        warm = [timed(pair.eps) for _ in range(repeats)]
        out = {
            "cold_seconds": cold,
            "warm_seconds": sorted(t for t, _ in warm)[repeats // 2],
            "warm_repeats": repeats,
            "vertices": mesh.vertex_count,
            "triangles": mesh.triangle_count,
            "sha256": sha256([mesh]),
            "warm_matches_cold": all(sha256([m]) == sha256([mesh]) for _, m in warm),
        }
except Exception as exc:
    out = {"error": f"{type(exc).__name__}: {exc}", "seconds": time.perf_counter() - t_start}
out["scipy_import_seconds"] = scipy_import_seconds
print(json.dumps(out))
"""
QUADRISECT_LEVELS = 3
QUADRISECT_REPEATS = 5
QUADRISECT_CODE = """
import hashlib, json, sys, time
import numpy as np
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import MeshParams, generate, refine_quadrisect
pair = InclusionPair(2, NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,)), 1e-3)
levels, repeats = int(sys.argv[1]), int(sys.argv[2])
base = generate(pair, MeshParams())
times = [[] for _ in range(levels)]
for _ in range(repeats):
    mesh = base
    for level in range(levels):
        t0 = time.perf_counter()
        mesh = refine_quadrisect(mesh, pair)
        times[level].append(time.perf_counter() - t0)
mesh = base
for level in range(levels):
    mesh = refine_quadrisect(mesh, pair)
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(mesh.vertices, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(mesh.triangles, dtype=np.int64).tobytes())
    print(json.dumps({
        "level": level + 1,
        "seconds": sorted(times[level])[repeats // 2],
        "repeats": repeats,
        "vertices": mesh.vertex_count,
        "triangles": mesh.triangle_count,
        "sha256": digest.hexdigest(),
    }))
"""


def time_generate(root: Path, level: int, mode: str = "single") -> dict:
    repeats = 5 if level <= 2 else 1
    return json.loads(python(root, GENERATE_CODE, str(level), str(repeats), mode)[-1])


def time_quadrisect(root: Path) -> dict:
    rows = [json.loads(line) for line in python(root, QUADRISECT_CODE, str(QUADRISECT_LEVELS), str(QUADRISECT_REPEATS))]
    return {str(row.pop("level")): row for row in rows}


def run_workload(root: Path, name: str) -> dict:
    run = perfbench(root, name, 0, SECONDS)
    return {"exit_code": run["exit_code"], "meshes_match_reference": run["meshes_match_reference"], "metrics": run["doc"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    root = args.root.resolve()
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True).stdout.strip()
    entry = {"commit": commit, "generate": {}, "sequence": {}, "quadrisect": {}, "workloads": {}}
    for level in LEVELS:
        entry["generate"][str(level)] = time_generate(root, level)
        print(f"refinement {level}: {entry['generate'][str(level)]}", flush=True)
    for level in SEQUENCE_LEVELS:
        entry["sequence"][str(level)] = time_generate(root, level, "sequence")
        print(f"six-gap sequence at refinement {level}: {entry['sequence'][str(level)]}", flush=True)
    entry["quadrisect"] = time_quadrisect(root)
    for level, row in entry["quadrisect"].items():
        print(f"quadrisect level {level}: {row}", flush=True)
    for name in ("sweep", "gate"):
        entry["workloads"][name] = run_workload(root, name)
        print(f"{name}: {entry['workloads'][name]}", flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("host", HOST)
    doc[args.label] = entry
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
