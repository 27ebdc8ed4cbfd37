"""What the before/after scripts share: fresh interpreters on a checkout,
perfbench runs, and alternating parent/change pairs.

A checkout is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``).  Every child process gets the
checkout's ``src/`` on its path and one BLAS and OpenMP thread.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("gate", "sweep")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
ONE_CPU = ("taskset", "-c", "0")
RECORD = ("exit_code", "correct", "attempted", "failed", "metrics")
HOST = f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}"


def env(root: Path) -> dict[str, str]:
    out = dict(os.environ)
    out["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        out[var] = "1"
    return out


def python(root: Path, code: str, *args: str, prefix: tuple[str, ...] = ()) -> list[str]:
    """The stdout lines of CODE run in a fresh interpreter in ROOT."""
    out = subprocess.run([*prefix, sys.executable, "-c", code, *args], cwd=root, env=env(root),
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int = 0,
              prefix: tuple[str, ...] = ()) -> dict:
    """One run of ROOT's ``perfbench/run.py``: the RECORD keys (``metrics``
    maps each name to its value), the JSON line as printed (``doc``), the
    fingerprint line and whether the meshes matched the seed-0 reference."""
    out = subprocess.run(
        [*prefix, sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env(root), capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    prints = [json.loads(line.removeprefix("fingerprints: ")) for line in lines if line.startswith("fingerprints: ")]
    return {
        "exit_code": out.returncode,
        "correct": doc.get("correct"),
        "attempted": doc.get("attempted"),
        "failed": doc.get("failed"),
        "metrics": {name: m["value"] for name, m in doc.get("metrics", {}).items()},
        "doc": doc or None,
        "fingerprints": prints[0] if prints else None,
        "meshes_match_reference": any("meshes match the seed-0 reference" in line for line in lines),
    }


def alternate(parent: Path, change: Path, count: int, measure, label: str, show=str) -> dict[str, list]:
    """COUNT pairs of MEASURE(root, i), i = 1..COUNT; pair i runs the parent
    first when i is odd.  Prints SHOW(result) of each run."""
    runs = {"parent": [], "change": []}
    for i in range(1, count + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            runs[side].append(measure(parent if side == "parent" else change, i))
        print(f"{label} pair {i}: " + ", ".join(f"{side} {show(runs[side][-1])}" for side in order), flush=True)
    return runs


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict[str, list], values=lambda run: run) -> dict:
    """For each name of VALUES(run): each side's median and quartiles, and
    the pairs the change won (lower reads better; ties count for neither)."""
    named = {side: [values(run) for run in side_runs] for side, side_runs in runs.items()}
    out = {}
    for name in named["parent"][0]:
        before, after = ([v[name] for v in named[side]] for side in ("parent", "change"))
        out[name] = {"parent": _quartiles(before), "change": _quartiles(after),
                     "change_won": sum(a < b for a, b in zip(after, before)), "pairs": len(before)}
    return out


def pairs(parent: Path, change: Path, workload: str, count: int, seconds: float) -> dict:
    """COUNT perfbench pairs of WORKLOAD at seeds 1..COUNT, compared on the
    end-to-end metrics."""
    def measure(root: Path, seed: int) -> dict:
        run = perfbench(root, workload, seed, seconds)  # one run per side and pair
        return {key: run[key] for key in RECORD}

    runs = alternate(parent, change, count, measure, workload,
                     lambda run: f"{run['metrics'].get('wall_s', float('nan')):.3f} s")
    return {"runs": runs, "metrics": compare(runs, lambda run: {name: run["metrics"][name] for name in END_TO_END})}
