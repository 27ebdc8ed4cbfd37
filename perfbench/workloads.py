"""The three workloads: what one pass runs and how its outputs are checked.

Each workload calls only public entry points of the program: ``cli.main``,
``experiments.mesh_convergence`` and the ``config`` module.  ``run`` is the
timed part of a pass; ``check`` reads the outputs afterwards and returns the
operations that failed, the problems found and the accuracy figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field, replace
from pathlib import Path


@dataclass
class Outcome:
    failed: int
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)


def _quiet(fn, *args):
    """Call fn with the program's own printing captured; return (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


class Sweep:
    """``neckfield sweep`` on the default config and on the gate's quartic pair.

    Bound by the mesher: ``generate`` is about 93% of a pass.  A seed other
    than 0 scales ``[sweep] start`` of both configs by a factor in [0.5, 1].
    """

    name = "sweep"
    gaps = 6
    ops_per_pass = 2 * gaps  # an operation is one gap

    def __init__(self, nf, seed: int):
        self.nf = nf
        self.scale = 1.0 if seed == 0 else random.Random(seed).uniform(0.5, 1.0)
        base = nf.config.parse_config(nf.config.default_config_text())
        base = replace(base, sweep=replace(base.sweep, start=base.sweep.start * self.scale))
        quartic = replace(base.geometry, profile="power", order=4.0, coefficient=4.0)
        # key -> (config, predicted slope per fitted quantity)
        self.cases = {
            "m2": (base, {"max_grad_u_neck": -0.5, "max_grad_v1_neck": -1.0}),
            "m4": (replace(base, geometry=quartic), {"max_grad_u_neck": -0.25}),
        }
        self.tol = base.tolerances

    def describe(self) -> str:
        return f"[sweep] start = {self.cases['m2'][0].sweep.start!r} (seeded factor {self.scale:.6f})"

    def run(self, tmp: Path) -> dict[str, int]:
        codes = {}
        for key, (cfg, _) in self.cases.items():
            path = tmp / f"{key}.cfg"
            path.write_text(self.nf.config.emit_config(replace(cfg, output_dir=str(tmp / key))))
            codes[key], _ = _quiet(self.nf.cli.main, ["sweep", "--config", str(path)])
        return codes

    def check(self, codes: dict[str, int], tmp: Path) -> Outcome:
        out = Outcome(failed=0)
        amp_err, slope_err = 0.0, 0.0
        for key, (_, predicted) in self.cases.items():
            problems = []
            if codes[key] != 0:
                problems.append(f"{key}: exit code {codes[key]}")
            else:
                csv_bytes = (tmp / key / "sweep.csv").read_bytes()
                out.hashes[f"{key}.csv"] = hashlib.sha256(csv_bytes).hexdigest()
                summary = json.loads((tmp / key / "summary.json").read_text())
                if summary["records"] != self.gaps or summary["failures"]:
                    problems.append(f"{key}: {summary['records']} records, failures {summary['failures']}")
                else:
                    ratio = summary["energy_fit"]["fitted_/_oracle"]
                    amp_err = max(amp_err, abs(ratio - 1.0))
                    if abs(ratio - 1.0) > self.tol.energy_constant_rel:
                        problems.append(f"{key}: amplitude/oracle {ratio:.5f}")
                    for quantity, slope in predicted.items():
                        err = abs(summary[f"rate_{quantity}"]["slope"] - slope)
                        slope_err = max(slope_err, err)
                        if err > self.tol.rate_slope:
                            problems.append(f"{key}: slope of {quantity} off by {err:.4f}")
            if problems:
                out.failed += self.gaps
                out.problems += problems
        out.values = {"amplitude_err": amp_err, "slope_err": slope_err}
        return out


class Ladder:
    """``mesh_convergence`` on the quadratic pair, four quadrisection levels.

    Bound by the sparse LU and ``refine_quadrisect``.  A seed other than 0
    draws the gap log-uniformly from [5e-4, 2e-3] instead of 1e-3.
    """

    name = "ladder"
    levels = 4
    ops_per_pass = levels  # an operation is one level

    def __init__(self, nf, seed: int):
        self.nf = nf
        if seed == 0:
            self.eps = 1e-3
        else:
            self.eps = 10.0 ** random.Random(seed).uniform(math.log10(5e-4), math.log10(2e-3))
        self.cfg = nf.config.parse_config(nf.config.default_config_text())

    def describe(self) -> str:
        return f"eps = {self.eps!r}"

    def run(self, tmp: Path):
        cfg = self.cfg
        return self.nf.experiments.mesh_convergence(
            cfg.geometry.pair(self.eps), cfg.boundary.data(), cfg.mesh, levels=self.levels
        )

    def check(self, report, tmp: Path) -> Outcome:
        out = Outcome(failed=0, values={"energy_err_rel": report.error_bar_rel})
        if len(report.energies) != self.levels:
            out.problems.append(f"{len(report.energies)} levels solved")
        if not report.shrink_ok:
            out.problems.append(f"differences shrink by {report.min_shrink:.2f} < 1.5")
        if not report.error_bar_rel < 0.01:
            out.problems.append(f"error bar {report.error_bar_rel:.3e} of the energy")
        if out.problems:
            out.failed = self.levels
        return out


class Gate:
    """``neckfield verify`` with the default config: nine criteria must pass.

    The gate pins its own geometries, so the seed does not apply to it.
    """

    name = "gate"
    criteria = 9
    ops_per_pass = criteria  # an operation is one criterion

    def __init__(self, nf, seed: int):
        self.nf = nf

    def describe(self) -> str:
        return "the gate pins its own geometries; the seed does not apply"

    def run(self, tmp: Path):
        return _quiet(self.nf.cli.main, ["verify"])

    def check(self, result, tmp: Path) -> Outcome:
        code, text = result
        passed = len(re.findall(r"^C\d [^\n]*: PASS \(", text, re.M))
        out = Outcome(failed=self.criteria - passed)
        if code != 0 or passed != self.criteria:
            out.problems.append(f"exit code {code}, {passed}/{self.criteria} PASS lines")
            out.problems += [line for line in text.splitlines() if ": FAIL" in line or " BAD " in line]
        return out


WORKLOADS = {w.name: w for w in (Sweep, Ladder, Gate)}
