"""Before/after figures for the gate's artifacts built on two processes.

    python3 benchmarks/concurrency.py --parent CHECKOUT --change CHECKOUT --out BENCH.json [--pairs 10]

Each CHECKOUT is a directory holding a tree of the repository (``src/``,
``perfbench/``, ``BENCHMARK.json``); the script writes nothing into them
except perfbench's own temporary directories.  Every run is a fresh
interpreter, and pair i runs the parent first when i is odd.  It records,
in order, and rewrites OUT after each part:

- ``rss``: PAIRS pairs of one process running ``neckfield verify``: its
  wall time, its own peak RSS (``RUSAGE_SELF``, what perfbench reports) and
  the largest peak RSS of its children (``RUSAGE_CHILDREN``, the worker).
- ``cold_verify``: PAIRS pairs of ``python -m neckfield.cli verify`` on the
  default config, wall time of the whole process.  Nothing is cached, so
  a far field refined in both processes would show here.
- ``one_cpu``: the same under ``taskset -c 0``, where the gate runs in one
  process.
- ``fingerprints``: ``perfbench/run.py --workload gate --seed 0`` for one
  pass in each checkout, with and without ``taskset -c 0``: the
  fingerprint line perfbench prints.  perfbench sees the meshes of its
  own process only, so the four agree only if the gate builds every mesh
  there.  Then the same for ``--workload sweep`` (meshes and CSVs).
- ``pairs``: for each workload, PAIRS alternating perfbench pairs, as in
  ``benchmarks/symmetry.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from startup import _alternate
from symmetry import WORKLOADS, _env, _python, pairs

ONE_CPU = ("taskset", "-c", "0")
RSS_CODE = """
import contextlib, io, json, resource, time
t0 = time.perf_counter()
from neckfield.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify"])
wall = time.perf_counter() - t0
assert code == 0, code
print(json.dumps({
    "wall_s": wall,
    "self_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
}))
"""


def _cli_wall(root: Path, *args: str, prefix: tuple[str, ...] = ()) -> float:
    """Wall time of one ``python -m neckfield.cli`` process, run in a
    temporary directory that the default config's output goes to."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(f"[output]\ndirectory = {Path(tmp) / 'out'}\n")
        t0 = time.perf_counter()
        subprocess.run(
            [*prefix, sys.executable, "-m", "neckfield.cli", *args, "--config", str(cfg)],
            cwd=root, env=_env(root), capture_output=True, check=True,
        )
        return time.perf_counter() - t0


def _fingerprint(root: Path, prefix: tuple[str, ...], workload: str = "gate") -> dict:
    out = subprocess.run(
        [*prefix, sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1"],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    )
    line = next(line for line in out.stdout.splitlines() if line.startswith("fingerprints: "))
    return json.loads(line.removeprefix("fingerprints: "))


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

    doc["rss"] = _alternate(parent, change, args.pairs, lambda root: json.loads(_python(root, RSS_CODE)[-1]), "rss")
    save()
    doc["cold_verify"] = _alternate(parent, change, args.pairs,
                                    lambda root: {"wall_s": _cli_wall(root, "verify")}, "cold verify")
    save()
    doc["one_cpu"] = _alternate(parent, change, args.pairs,
                                lambda root: {"wall_s": _cli_wall(root, "verify", prefix=ONE_CPU)}, "one-CPU verify")
    save()
    doc["fingerprints"] = {}
    for side, root in (("parent", parent), ("change", change)):
        doc["fingerprints"][f"{side}_one_cpu"] = _fingerprint(root, ONE_CPU)
        doc["fingerprints"][f"{side}_two_cpus"] = _fingerprint(root, ())
        doc["fingerprints"][f"{side}_sweep"] = _fingerprint(root, (), "sweep")
    print(f"fingerprints {doc['fingerprints']}", flush=True)
    save()
    doc["pairs"] = {}
    for workload in WORKLOADS:
        doc["pairs"][workload] = pairs(parent, change, workload, args.pairs, seconds)
        save()


if __name__ == "__main__":
    main()
