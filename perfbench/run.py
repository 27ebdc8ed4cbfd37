"""Benchmark of neckfield: checked workloads, one JSON line.

    python3 perfbench/run.py --workload {sweep,gate,ladder} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from ``src/``.
One invocation is one fresh process running one workload.  It runs at least
one pass of the workload, and another while it should end within
``--seconds``.  It checks every pass and prints a table of every metric with
its unit and sample count, then, as the last line, one JSON object with the
metrics that ``BENCHMARK.json`` lists: the ``end_to_end`` ones with
``--trace 0``, the ``per_layer`` ones with ``--trace 1``.  A traced run
alternates untraced and traced passes, so the tracing overhead is measured
in the same process.
The exit code is 1 when a check fails and 2 when the program is missing.

See perfbench/README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Probe
from workloads import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import neckfield.cli\n"
    "from neckfield.config import default_config_text, parse_config\n"
    "parse_config(default_config_text())\n"
    "print(time.perf_counter() - t0)\n"
)
TIMED_LAYERS = (
    "mesh.generate",
    "mesh.generate_touching",
    "mesh.refine_quadrisect",
    "fem.assemble",
    "fem.lu",
    "fem.solve_dirichlet",
    "fem.max_gradient",
    "conductivity.solve_bundle",
    "conductivity.neck_remainder",
    "conductivity.solve_limit_direct",
    "closed_forms.neck_potential",
    "closed_forms.constants",
    "quadrature.integral",
    "experiments.sweep_record",
    "experiments.run_sweep",
    "experiments.mesh_convergence",
    "experiments.fit",
    *(f"acceptance.C{i}" for i in range(1, 10)),
    "config.parse",
    "cli",
)
SPANS_DIR = ".perfbench-spans"
# Shares of a traced pass that the ROADMAP baseline reports: (layers, floor).
BASELINE_SHARES = {
    "sweep": (("mesh.generate_s",), 0.85),
    "ladder": (("fem.lu_s", "mesh.refine_quadrisect_s"), 0.50),
    "gate": (("mesh.generate_s", "mesh.generate_touching_s"), 0.70),
}


def measure_setup(root: Path) -> list[float]:
    """Fresh-process import of neckfield.cli plus parsing the default config.

    The first process is discarded: it may compile bytecode.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples[1:]


def mesh_sha256(meshes) -> str:
    digest = hashlib.sha256()
    for mesh in meshes:
        digest.update(mesh.vertices.tobytes())
        digest.update(mesh.triangles.tobytes())
    return digest.hexdigest()


def one_pass(nf, workload, scratch: Path, traced: bool) -> dict:
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    probe = Probe(traced)
    with probe:
        t0 = time.perf_counter()
        raw = workload.run(tmp)
        wall = time.perf_counter() - t0
    outcome = workload.check(raw, tmp)
    shutil.rmtree(tmp)
    outcome.hashes["meshes"] = mesh_sha256(probe.meshes)
    result = {"traced": traced, "wall_s": wall, "outcome": outcome}
    if traced:
        audits = [nf.mesh.audit(m) for m in probe.meshes]
        outcome.problems += [f"mesh audit: {f}" for a in audits for f in a.failures]
        result["layers"] = layer_metrics(probe, audits, outcome)
        result["spans"] = [[name, a - t0, b - t0, parent] for name, a, b, parent in probe.spans]
    return result


def layer_metrics(probe: Probe, audits, outcome) -> dict[str, float]:
    seconds, calls = probe.layer_times()
    counts = probe.counts
    m = {("cli.s" if name == "cli" else f"{name}_s"): seconds.get(name, 0.0) for name in TIMED_LAYERS}
    for name in ("mesh.generate", "fem.lu", "fem.solve_dirichlet", "closed_forms.neck_potential", "quadrature.integral"):
        m[f"{name}_calls"] = calls[name]
    m["fem.cg_calls"] = calls["fem.cg"]
    for name in ("mesh.vertices", "mesh.triangles", "fem.lu_nnz", "experiments.gaps_failed"):
        m[name] = counts[name]
    m["fem.lu_fill"] = counts["fem.lu_nnz"] / counts["fem.k_ii_nnz"] if counts["fem.k_ii_nnz"] else 0.0
    m["mesh.far_min_angle_deg"] = min((a.far_min_angle_deg for a in audits), default=0.0)
    m["mesh.far_max_aspect"] = max((a.far_max_aspect for a in audits), default=0.0)
    m.update(probe.extrema)
    for name in ("amplitude_err", "slope_err", "energy_err_rel"):
        m[f"experiments.{name}"] = outcome.values.get(name, 0.0)
    return m


def check_hashes(passes, reference: dict | None) -> list[str]:
    """Every pass reproduces the first; with the reference meshes, its CSVs too."""
    problems = []
    first = passes[0]["outcome"].hashes
    print(f"fingerprints: {json.dumps(first, sort_keys=True)}")
    for i, p in enumerate(passes[1:], start=2):
        if p["outcome"].hashes != first:
            problems.append(f"pass {i} outputs differ from pass 1: {p['outcome'].hashes} vs {first}")
    if reference is not None:
        same = first["meshes"] == reference["meshes"]
        print(f"meshes {'match' if same else 'differ from'} the seed-0 reference in perfbench/reference.json")
        for key, digest in reference.items():
            if same and first.get(key) != digest:
                problems.append(f"meshes match the reference but {key} does not: {first.get(key)} vs {digest}")
    return problems


def median_row(name: str, values: list[float], unit: str) -> tuple[str, float, str, int]:
    return name, statistics.median(values), unit, len(values)


def print_table(rows) -> None:
    print(f"{'metric':<34} {'value':>16}  {'unit':<6} samples")
    for name, value, unit, n in rows:
        print(f"{name:<34} {value:>16.6g}  {unit:<6} {n}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "neckfield" / "cli.py").is_file():
        print(f"perfbench: no neckfield sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    setup = measure_setup(root)
    sys.path.insert(0, str(root / "src"))
    import neckfield.cli  # noqa: F401  (imports every module the probe wraps)

    nf = sys.modules["neckfield"]
    workload = WORKLOADS[args.workload](nf, args.seed)
    print(f"workload {workload.name}, seed {args.seed}: {workload.describe()}")

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
    modes = (False, True) if args.trace else (False,)
    passes = []
    start = time.perf_counter()
    try:
        while True:  # passes while the next one should end within --seconds; at least one
            t0 = time.perf_counter()
            passes += [one_pass(nf, workload, scratch, traced) for traced in modes]
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [p for p in passes if not p["traced"]]
    attempted = workload.ops_per_pass * len(passes)
    failed = sum(p["outcome"].failed for p in passes)
    problems = [q for p in passes for q in p["outcome"].problems]
    problems += check_hashes(passes, reference[workload.name] if args.seed == 0 else None)

    walls = [p["wall_s"] for p in untraced]
    print("pass wall times (s):", " ".join(f"{p['wall_s']:.3f}{'T' if p['traced'] else ''}" for p in passes))
    rows = [
        median_row("setup_s", setup, "s"),
        median_row("wall_s", walls, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ("failed_frac", failed / attempted, "ratio", attempted),
    ]
    units = {w["name"]: w["unit"] for w in spec["end_to_end"] + spec["per_layer"]}
    for name in untraced[0]["outcome"].values:
        values = [p["outcome"].values[name] for p in untraced]
        rows.append(median_row(name, values, units[f"experiments.{name}"]))
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        out = root / SPANS_DIR / f"{workload.name}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps([{"wall_s": p["wall_s"], "spans": p["spans"]} for p in traced]))
        print(f"spans of the traced passes (name, start, end, parent index; seconds from pass start): {out}")
        overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(walls) - 1.0
        rows.append(("trace.overhead_frac", overhead, "ratio", len(passes)))
        wanted = spec["per_layer"]
        rows += [median_row(k, [p["layers"][k] for p in traced], units[k]) for k in traced[0]["layers"]]
        layers, floor = BASELINE_SHARES[workload.name]
        share = statistics.median(sum(p["layers"][k] for k in layers) / p["wall_s"] for p in traced)
        verdict = "matches" if share >= floor else "differs from"
        print(f"share of a traced pass in {' + '.join(layers)}: {share:.3f} ({verdict} the baseline >= {floor})")
    else:
        wanted = spec["end_to_end"]
    print_table(rows)
    for problem in problems:
        print(f"FAILED CHECK: {problem}")

    by_name = {name: value for name, value, _, _ in rows}
    doc = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": by_name[w["name"]], "unit": w["unit"]} for w in wanted},
    }
    print(json.dumps(doc))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
