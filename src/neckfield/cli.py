"""Command line interface.

Subcommands: constants, mesh, solve, sweep, verify, report.  Every run
writes a manifest (configuration hash, versions, timings) next to its
outputs; the data files themselves carry no timestamps, so rerunning the
same configuration reproduces them byte for byte.

Exit codes: 0 success, 1 acceptance criterion failed, 2 configuration
error, 3 solver or mesh failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

from . import InputError, __version__, fem
from .acceptance import run_all
from .closed_forms import AsymptoticParams, constants_report, energy_error_scale_m
from .config import ConfigError, ExperimentConfig, default_config_text, emit_config, parse_config
from .experiments import (
    SWEEP_CSV_HEADER,
    fit_blowup_limit,
    fit_energy_constants,
    fit_rate,
    records_to_csv,
    run_sweep,
    sweep_record,
)
from .geometry import InclusionPair
from .mesh import MeshError, audit, generate, write_mesh_text
from .quadrature import QuadratureError
from .svgplot import render_loglog

RANDOM_SEED = 20260810  # sampling checks are seeded and recorded
# Sized when numpy loads; the gate's two processes take one thread each.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _load_config(path: str | None) -> tuple[ExperimentConfig, str]:
    if path is None:
        text = default_config_text()
    else:
        text = Path(path).read_text(encoding="utf-8")
    return parse_config(text), text


def _write_manifest(outdir: Path, cfg: ExperimentConfig, timings: dict[str, float], outputs: list[str]) -> None:
    import numpy
    import scipy

    canonical = emit_config(cfg)
    manifest = {
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "package": f"neckfield {__version__}",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": RANDOM_SEED,
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
        "outputs": outputs,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_init_config(args) -> int:
    text = default_config_text()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_constants(args) -> int:
    curvatures = tuple(args.curvature) if args.curvature else None
    try:
        params = AsymptoticParams(args.dimension, args.order, args.coefficient, args.eps, curvatures, args.neck_radius)
    except InputError as exc:
        key = exc.keys[0]
        flag = {"n": "dimension", "m": "order", "curvatures": "curvature", "neck_radius": "neck-radius"}.get(key, key)
        raise ValueError(f"--{flag} {str(exc).removeprefix(key + ' ')}") from None
    report = constants_report(params)
    width = max(len(k) for k, _ in report.rows())
    for key, value in report.rows():
        print(f"{key:<{width}}  {value}")
    if args.json:
        doc = {key.replace(" ", "_"): value for key, value in report.rows()}
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


def _pair(args, cfg: ExperimentConfig) -> InclusionPair:
    """The pair at the --epsilon override, else at the sweep's first gap;
    like the [sweep] gaps, the override must lie in (0, 1) and fit the
    strip budget."""
    if args.epsilon is None:
        return cfg.geometry.pair(cfg.sweep.eps_list()[0])
    if not (0.0 < args.epsilon < 1.0):
        raise ValueError(f"--epsilon: gap {args.epsilon:g} outside (0, 1)")
    try:
        pair = cfg.geometry.pair(args.epsilon)
        cfg.mesh.check_budget(cfg.geometry.outer_radius, pair)
    except (InputError, MeshError) as exc:
        raise ValueError(f"--epsilon: {exc}") from None
    return pair


def _cmd_mesh(args) -> int:
    cfg, _ = _load_config(args.config)
    if cfg.geometry.dimension != 2:
        print("meshing is implemented for dimension 2 only", file=sys.stderr)
        return 2
    pair = _pair(args, cfg)
    t0 = time.perf_counter()
    mesh = generate(pair, cfg.mesh)
    report = audit(mesh)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else outdir / "mesh.txt"
    out.write_text(write_mesh_text(mesh))
    _write_manifest(outdir, cfg, {"mesh": time.perf_counter() - t0}, [out.name])
    print(f"wrote {out} (V={report.vertex_count} E={report.edge_count} T={report.triangle_count})")
    print(
        f"boundary loops {report.boundary_loop_count}, neck triangles {report.neck_triangle_count}, "
        f"far min angle {report.far_min_angle_deg:.1f} deg, far max aspect {report.far_max_aspect:.1f}"
    )
    if not report.passed:
        for failure in report.failures:
            print(f"audit failure: {failure}", file=sys.stderr)
        return 3
    print("audit passed")
    return 0


def _cmd_solve(args) -> int:
    cfg, _ = _load_config(args.config)
    if cfg.geometry.dimension != 2:
        print("solves are implemented for dimension 2 only", file=sys.stderr)
        return 2
    pair = _pair(args, cfg)
    t0 = time.perf_counter()
    phi = cfg.boundary.data()
    mesh = generate(pair, cfg.mesh)
    record, bundle, w = sweep_record(pair, mesh, phi)
    doc = {
        "epsilon": pair.eps,
        "a11": record.a11,
        "a12": record.a12,
        "a21": record.a21,
        "a22": record.a22,
        "b1": record.b1,
        "b2": record.b2,
        "C1": record.c1,
        "C2": record.c2,
        "B_eps": record.b_factor,
        "energy_v1": record.energy_v1,
        "max_grad_u_neck": record.max_grad_u_neck,
        "max_grad_v1_neck": record.max_grad_v1_neck,
        "max_grad_vb_neck": record.max_grad_vb_neck,
        "max_grad_w_neck": record.max_grad_w_neck,
    }
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "solve.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    outputs = [out.name]
    if args.dump_fields:
        for name, f in (
            ("u", bundle.u),
            ("v1", bundle.v1),
            ("v2", bundle.v2),
            ("v0", bundle.v0),
            ("vb", bundle.vb),
            ("w", w),
        ):
            path = outdir / f"field_{name}.txt"
            path.write_text("".join(f"{i} {float(v)!r}\n" for i, v in enumerate(f.values)))
            outputs.append(path.name)
    _write_manifest(outdir, cfg, {"solve": time.perf_counter() - t0}, outputs)
    print(json.dumps(doc, indent=2, sort_keys=True))
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg, _ = _load_config(args.config)
    if cfg.geometry.dimension != 2:
        print("sweeps are implemented for dimension 2 only", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    eps_list = cfg.sweep.eps_list()
    pair = cfg.geometry.pair(eps_list[0])
    phi = cfg.boundary.data()
    records, failures = run_sweep(pair, phi, eps_list, cfg.mesh)
    t_sweep = time.perf_counter() - t0

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "sweep.csv"
    csv_path.write_text(records_to_csv(records))
    outputs = [csv_path.name]

    summary: dict[str, object] = {
        "csv_schema": SWEEP_CSV_HEADER[0].lstrip("# "),
        "records": len(records),
        "failures": {repr(k): v for k, v in failures.items()},
    }
    m, _ = pair.profile.power_equivalent()
    if len(records) >= 4:
        for quantity in ("max_grad_u_neck", "max_grad_v1_neck", "energy_v1"):
            fit = fit_rate(records, quantity)
            summary[f"rate_{quantity}"] = {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "stderr": fit.stderr,
                "residual_norm": fit.residual_norm,
                "model": fit.model,
            }
        efit = fit_energy_constants(records, pair)
        summary["energy_fit"] = {key.replace(" ", "_"): value for key, value in efit.table()}
        # Remainder scales of the energy asymptote: reported only; at these
        # gaps they are not separable from discretization error.
        summary["energy_remainder_scale"] = {
            repr(r.eps): energy_error_scale_m(r.eps, pair.dimension, m) for r in records
        }
        try:
            lim = fit_blowup_limit(records)
            summary["blowup_factor_limit"] = {
                "b0": lim.b0,
                "rate_coefficient": lim.rate_coefficient,
                "stderr": lim.stderr,
            }
        except ValueError as exc:
            summary["blowup_factor_limit"] = {"error": str(exc)}
    summary_path = outdir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs.append(summary_path.name)

    if args.plots:
        outputs += [path.name for path in _plot_sweep(outdir, *_read_sweep(outdir))]
    _write_manifest(outdir, cfg, {"sweep": t_sweep}, outputs)
    print(f"wrote {csv_path} ({len(records)} records, {len(failures)} failures)")
    print(f"wrote {summary_path}")
    return 0


def _cmd_verify(args) -> int:
    cfg, _ = _load_config(args.config)
    results = run_all(cfg)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


# The columns ``report`` prints or plots; the plotted ones must be positive.
_REPORT_COLUMNS = ("eps", "energy_v1", "c1", "c2", "b_factor", "max_grad_u_neck", "max_grad_v1_neck")
_PLOTTED_COLUMNS = ("eps", "rate", "energy_v1", "max_grad_u_neck")


def _read_sweep(outdir: Path) -> tuple[list[dict[str, float]], dict]:
    """The rows of ``sweep.csv`` under OUTDIR, and its ``summary.json`` or
    an empty dict.  ValueError, naming the file and the row or key at
    fault, unless the CSV is of this schema, has the printed and plotted
    columns and at least one row, every row has a number in each field and
    a positive one in each plotted column, and the summary is a JSON object
    whose gradient rate, if any, has a finite slope and intercept."""
    import csv

    csv_path = outdir / "sweep.csv"
    if not csv_path.exists():
        raise ValueError(f"no sweep.csv under {outdir}")
    lines = csv_path.read_text().splitlines()
    if not lines or not lines[0].startswith(SWEEP_CSV_HEADER[0]):
        raise ValueError(f"{csv_path}: unrecognized sweep schema")
    reader = csv.DictReader(lines[1:])
    missing = [name for name in (*_REPORT_COLUMNS, *_PLOTTED_COLUMNS) if name not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{csv_path}: no column {missing[0]}")
    rows = []
    for number, row in enumerate(reader, start=1):
        # A short row leaves fields None, a long one puts the rest under None.
        present = [value for key, value in row.items() if key is not None and value is not None] + row.get(None, [])
        if len(present) != len(reader.fieldnames):
            raise ValueError(f"{csv_path}: row {number} has {len(present)} fields, the header {len(reader.fieldnames)}")
        try:
            values = {key: float(text) for key, text in row.items()}
        except ValueError:
            key = next(key for key, text in row.items() if not _is_number(text))
            raise ValueError(f"{csv_path}: row {number}: {key} = {row[key]!r} is not a number") from None
        for key in _PLOTTED_COLUMNS:
            if not (math.isfinite(values[key]) and values[key] > 0.0):
                raise ValueError(f"{csv_path}: row {number}: {key} = {row[key]} is not positive and finite")
        rows.append(values)
    if not rows:
        raise ValueError(f"{csv_path}: no rows below the header")
    summary_path = outdir / "summary.json"
    if not summary_path.exists():
        return rows, {}
    try:
        summary = json.loads(summary_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{summary_path}: {exc}") from None
    if not isinstance(summary, dict):
        raise ValueError(f"{summary_path}: not a JSON object")
    rate = summary.get("rate_max_grad_u_neck")
    for key in ("slope", "intercept") if rate is not None else ():
        value = rate.get(key) if isinstance(rate, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{summary_path}: rate_max_grad_u_neck has no finite {key}")
    return rows, summary


def _plot_sweep(outdir: Path, rows: list[dict[str, float]], summary: dict) -> list[Path]:
    """The two log-log plots of a stored sweep; the gradient plot carries
    the summary's fitted rate line when the sweep had one."""
    rate = summary.get("rate_max_grad_u_neck")
    line = (rate["slope"], rate["intercept"]) if rate is not None else None
    grad_points = [(row["eps"], row["max_grad_u_neck"]) for row in rows]
    path = outdir / "report_gradient.svg"
    path.write_text(render_loglog(grad_points, "neck gradient vs gap", "gap", "max |grad u|", fit=line))
    energy_points = [(1.0 / row["rate"], row["energy_v1"]) for row in rows]
    path2 = outdir / "report_energy.svg"
    path2.write_text(render_loglog(energy_points, "energy vs reciprocal rate", "1/rate", "energy"))
    return [path, path2]


def _cmd_report(args) -> int:
    outdir = Path(args.dir)
    rows, summary = _read_sweep(outdir)
    print("  ".join(f"{c:>16}" for c in _REPORT_COLUMNS))
    for row in rows:
        print("  ".join(f"{row[c]:>16.8g}" for c in _REPORT_COLUMNS))
    for key in sorted(summary):
        print(f"{key}: {json.dumps(summary[key], sort_keys=True)}")
    path, path2 = _plot_sweep(outdir, rows, summary)
    print(f"wrote {path} and {path2}")
    return 0


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str], float_flags: list[str]) -> list[str]:
    """argv with each float flag, a long one perhaps abbreviated, joined to
    a following value that starts with "-", as in ``--eps=-1e-3``: argparse
    takes a separate -1e-3 or -inf for an option, not for the flag's value."""
    joined: list[str] = []
    for token in argv:
        last = joined[-1] if joined else ""
        names_float = last in float_flags or (
            last.startswith("--") and len(last) > 2 and any(flag.startswith(last) for flag in float_flags)
        )
        if names_float and token.startswith("-") and _is_number(token):
            joined[-1] = f"{last}={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:  # a value set in the environment wins
        for var in THREAD_VARS:
            os.environ.setdefault(var, "1")
    parser = argparse.ArgumentParser(
        prog="neckfield",
        description="Field concentration between nearly touching perfect conductors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    float_flags: list[str] = []

    def add_float(p, *flags, **kwargs) -> None:
        float_flags.extend(p.add_argument(*flags, type=float, **kwargs).option_strings)

    p = sub.add_parser("init-config", help="print or write the default configuration")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(handler=_cmd_init_config)

    p = sub.add_parser("constants", help="closed-form constants and the quadrature oracle")
    p.add_argument("--dimension", "-n", "--n", type=int, default=2)
    add_float(p, "--order", "-m", "--m", default=2.0)
    add_float(p, "--coefficient", default=1.0, help="relative profile coefficient")
    add_float(p, "--curvature", action="append", help="relative principal curvature (repeat for dimension 3)")
    add_float(p, "--eps", default=1e-8)
    add_float(p, "--neck-radius", default=0.5)
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("mesh", help="generate, audit and export a mesh")
    p.add_argument("--config", help="configuration file (default: built-in)")
    add_float(p, "--epsilon", help="gap override")
    p.add_argument("--out", help="output path (default: <outdir>/mesh.txt)")
    p.set_defaults(handler=_cmd_mesh)

    p = sub.add_parser("solve", help="solve one gap value and emit the flux document")
    p.add_argument("--config", help="configuration file (default: built-in)")
    add_float(p, "--epsilon", help="gap override")
    p.add_argument("--dump-fields", action="store_true", help="also write nodal fields")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("sweep", help="run the gap sweep and fit rates")
    p.add_argument("--config", help="configuration file (default: built-in)")
    p.add_argument("--plots", action="store_true", help="also render SVG plots")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--config", help="configuration file (default: built-in)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("report", help="render stored sweep outputs")
    p.add_argument("--dir", required=True, help="directory holding sweep.csv")
    p.set_defaults(handler=_cmd_report)

    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv, float_flags))
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshError, fem.SolverError, QuadratureError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
