"""Sweeps, rate fits, constant adjudication and convergence studies.

A sweep solves the conductor problem over a decreasing gap list and
collects per-gap observables.  One ordinary least-squares line fit
serves every fit: log-log data give the blow-up rates, the energy column
fitted against amplitude/rate + offset gives the leading constant (which
is then tabulated against the quadrature oracle and the printed value),
and the blow-up factor fitted against the rate extrapolates to its
touching limit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from . import InputError, _Deferred, fem
from .closed_forms import energy_limit_constant, gap_rate_m, printed_energy_constant
from .conductivity import BoundaryData, SolveBundle, neck_interpolant, neck_remainder, solve_bundle
from .geometry import GeometryError, InclusionPair
from .mesh import Mesh, MeshError, MeshParams, generate, refine_quadrisect
from .quadrature import QuadratureError

np = _Deferred("numpy")

__all__ = [
    "SweepRecord",
    "FitResult",
    "BlowupLimit",
    "EnergyFit",
    "LeadingTermReport",
    "ConvergenceReport",
    "run_sweep",
    "sweep_gaps",
    "sweep_record",
    "fit_line",
    "fit_rate",
    "fit_blowup_limit",
    "fit_energy_constants",
    "verify_leading_term",
    "mesh_convergence",
    "ladder_meshes",
    "ladder_solves",
    "convergence_report",
    "vb_station_profile",
    "records_to_csv",
    "SWEEP_CSV_HEADER",
    "SHRINK_FACTOR",
]


@dataclass
class SweepRecord:
    """Observables of one gap value."""

    eps: float
    rate: float
    energy_v1: float
    a11: float
    a12: float
    a21: float
    a22: float
    b1: float
    b2: float
    c1: float
    c2: float
    b_factor: float
    max_grad_u_neck: float
    max_grad_v1_neck: float
    max_grad_w_neck: float
    max_grad_vb_neck: float
    vb_center: float
    vb_offside: float
    centerline_residual: float
    vertex_count: int
    triangle_count: int
    vb_profile: list[tuple[float, float]] = field(default_factory=list)

    @property
    def c_diff(self) -> float:
        return self.c1 - self.c2


@dataclass(frozen=True)
class FitResult:
    """Least-squares line y = slope*x + intercept; ``stderr`` is the
    standard error of the slope."""

    slope: float
    intercept: float
    stderr: float
    intercept_stderr: float
    residual_norm: float
    model: str


def fit_line(x: np.ndarray, y: np.ndarray, model: str = "", max_cond: float = math.inf) -> FitResult:
    """Ordinary least squares of y on the columns [x, 1].

    Raises ValueError when the normal matrix A'A of the design A has a
    condition number above ``max_cond``, i.e. when the regressors are
    nearly collinear.  That condition number and the standard errors are
    computed from A itself, from its singular values and from its QR
    factor R with (A'A)^-1 = R^-1 R^-T, so that forming A'A does not
    square the rounding error.
    """
    a = np.column_stack([x, np.ones_like(x)])
    coef, _, _, sv = np.linalg.lstsq(a, y, rcond=None)
    cond = (sv[0] / sv[-1]) ** 2 if sv[-1] > 0.0 else math.inf
    if cond > max_cond:
        raise ValueError(f"regressors nearly collinear (cond {cond:.2e})")
    resid = y - a @ coef
    sigma = math.sqrt(float(resid @ resid) / max(len(x) - 2, 1))
    stderr = sigma * np.linalg.norm(np.linalg.inv(np.linalg.qr(a, mode="r")), axis=1)
    return FitResult(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        stderr=float(stderr[0]),
        intercept_stderr=float(stderr[1]),
        residual_norm=float(np.linalg.norm(resid)),
        model=model,
    )


def vb_station_profile(bundle: SolveBundle) -> list[tuple[float, float]]:
    """Largest |grad vb| per neck station column, inner to outer."""
    view = bundle.mesh.neck_view
    grads = view.gradients(bundle.vb.values)
    norms = np.hypot(grads[:, 0], grads[:, 1])
    peaks = np.maximum.reduceat(norms[view.column_order], view.column_starts)
    return list(zip(view.column_x.tolist(), peaks.tolist()))


def _centerline_residual(bundle: SolveBundle, ramp: np.ndarray) -> float:
    """Max over gap-centerline triangles of |grad u - (c1-c2) grad of the
    explicit neck potential|, with the potential represented in the same
    P1 space (its nodal interpolant ``ramp``) so the comparison is
    consistent."""
    view = bundle.mesh.neck_view
    gradients = view.gradients
    levels = ramp[gradients.corners].mean(axis=1)
    # Per column, the triangle with the level nearest 1/2; lexsort is
    # stable, so ties go to the first triangle, as argmin's do.  Its runs of
    # columns are those of the view's stable column order.
    at = np.lexsort((np.abs(levels - 0.5), view.columns))[view.column_starts]
    resid = gradients(bundle.u.values, at) - (bundle.c1 - bundle.c2) * gradients(ramp, at)
    return float(np.hypot(resid[:, 0], resid[:, 1]).max(initial=0.0))


def sweep_record(
    pair: InclusionPair, mesh: Mesh, phi: BoundaryData
) -> tuple[SweepRecord, SolveBundle, fem.ScalarField]:
    """Solve one gap value and collect its observables; also returns the
    solved bundle and the neck remainder field."""
    bundle = solve_bundle(mesh, phi)
    ramp = neck_interpolant(pair, mesh)
    w = neck_remainder(bundle, ramp)
    mg_u, _ = fem.max_gradient(bundle.u)
    mg_v1, _ = fem.max_gradient(bundle.v1)
    mg_w, _ = fem.max_gradient(w)
    profile = vb_station_profile(bundle)
    xs = np.array([p[0] for p in profile])
    vs = np.array([p[1] for p in profile])
    mg_vb = float(vs.max())  # the column peaks cover every neck triangle
    vb_center = float(vs[np.argmin(np.abs(xs))])
    half = pair.neck_radius / 2.0
    vb_off = max(
        float(vs[np.argmin(np.abs(xs - half))]),
        float(vs[np.argmin(np.abs(xs + half))]),
    )
    m, _ = pair.profile.power_equivalent()
    record = SweepRecord(
        eps=pair.eps,
        rate=gap_rate_m(pair.eps, pair.dimension, m),
        energy_v1=bundle.a11,
        a11=bundle.a11,
        a12=bundle.a12,
        a21=bundle.a21,
        a22=bundle.a22,
        b1=bundle.b1,
        b2=bundle.b2,
        c1=bundle.c1,
        c2=bundle.c2,
        b_factor=bundle.b_factor,
        max_grad_u_neck=mg_u,
        max_grad_v1_neck=mg_v1,
        max_grad_w_neck=mg_w,
        max_grad_vb_neck=mg_vb,
        vb_center=vb_center,
        vb_offside=vb_off,
        centerline_residual=_centerline_residual(bundle, ramp),
        vertex_count=mesh.vertex_count,
        triangle_count=mesh.triangle_count,
        vb_profile=profile,
    )
    # The observables are read: a mesh kept after its record, as the gate
    # keeps its sweeps' meshes, need not keep its neck view too.
    del mesh.neck_view
    return record, bundle, w


# What drops one gap from a sweep instead of failing the sweep.
_GAP_ERRORS = (MeshError, fem.SolverError, GeometryError, QuadratureError)


def sweep_gaps(eps_list: list[float]) -> list[float]:
    """The distinct gaps of a sweep, largest first.  Raises InputError on a
    gap outside (0, 1), and ValueError unless there are at least four of
    them spanning two decades."""
    for eps in eps_list:
        if not 0.0 < eps < 1.0:
            raise InputError(f"gap {eps:g} outside (0, 1)")
    eps_sorted = sorted(set(eps_list), reverse=True)
    if len(eps_sorted) < 4:
        raise ValueError("a sweep needs at least four distinct gap values")
    if eps_sorted[0] / eps_sorted[-1] < 100.0:
        raise ValueError("a sweep should span at least two decades")
    return eps_sorted


def run_sweep(
    pair: InclusionPair,
    phi: BoundaryData,
    eps_list: list[float],
    params: MeshParams,
) -> tuple[list[SweepRecord], dict[float, str]]:
    """One record per gap, largest gap first; per-gap failures collected."""
    records: list[SweepRecord] = []
    failures: dict[float, str] = {}
    for eps in sweep_gaps(eps_list):
        try:
            p = pair.with_gap(eps)
            records.append(sweep_record(p, generate(p, params), phi)[0])
        except _GAP_ERRORS as exc:
            failures[eps] = f"{type(exc).__name__}: {exc}"
    if not records:
        raise RuntimeError(f"every gap value failed: {failures}")
    return records, failures


def fit_rate(records: list[SweepRecord], quantity: str) -> FitResult:
    """Least squares of log(quantity) on log(gap)."""
    if len(records) < 4:
        raise ValueError("need at least four records to fit a rate")
    eps = np.array([r.eps for r in records])
    vals = np.array([getattr(r, quantity) for r in records], dtype=float)
    if np.any(vals <= 0.0):
        raise ValueError(f"quantity {quantity} must be positive for a log-log fit")
    return fit_line(np.log(eps), np.log(vals), model=f"log({quantity}) ~ slope*log(eps)+b")


@dataclass(frozen=True)
class BlowupLimit:
    """Touching-limit blow-up factor extrapolated over a sweep."""

    b0: float
    rate_coefficient: float
    stderr: float
    uncertainty: float


def fit_blowup_limit(records: list[SweepRecord]) -> BlowupLimit:
    """Least squares of b_factor = b0 + coefficient * rate over the gaps.

    The uncertainty of b0 is its standard error plus the largest residual.
    """
    if len(records) < 3:
        raise ValueError("need at least three gap values to extrapolate")
    rate = np.array([r.rate for r in records])
    vals = np.array([r.b_factor for r in records])
    fit = fit_line(rate, vals, model="b_factor ~ b0 + coefficient*rate", max_cond=1e12)
    resid = vals - (fit.intercept + fit.slope * rate)
    return BlowupLimit(
        b0=fit.intercept,
        rate_coefficient=fit.slope,
        stderr=fit.intercept_stderr,
        uncertainty=fit.intercept_stderr + float(np.max(np.abs(resid))),
    )


@dataclass(frozen=True)
class EnergyFit:
    """Energy asymptote fit with the three-way constant adjudication."""

    amplitude: float
    offset: float
    fit: FitResult
    oracle_constant: float
    printed_constant: float
    amplitude_over_oracle: float
    amplitude_over_printed: float
    offset_half_range: float

    def table(self) -> list[tuple[str, float]]:
        return [
            ("fitted amplitude", self.amplitude),
            ("oracle constant", self.oracle_constant),
            ("printed constant", self.printed_constant),
            ("fitted / oracle", self.amplitude_over_oracle),
            ("fitted / printed", self.amplitude_over_printed),
            ("fitted offset", self.offset),
            ("offset (lower half refit)", self.offset_half_range),
        ]


def fit_energy_constants(records: list[SweepRecord], pair: InclusionPair) -> EnergyFit:
    """Fit energy = amplitude/rate + offset and adjudicate the amplitude."""
    if len(records) < 4:
        raise ValueError("need at least four records to fit the energy asymptote")
    inv_rate = np.array([1.0 / r.rate for r in records])
    energy = np.array([r.energy_v1 for r in records])
    fit = fit_line(inv_rate, energy, model="energy ~ amplitude/rate + offset")
    half = len(records) // 2
    fit_lo = fit_line(inv_rate[half:], energy[half:], model="lower-half refit")
    m, lam = pair.profile.power_equivalent()
    oracle = energy_limit_constant(pair.dimension, m, lam)
    printed = printed_energy_constant(pair.dimension, m, lam)
    return EnergyFit(
        amplitude=fit.slope,
        offset=fit.intercept,
        fit=fit,
        oracle_constant=oracle,
        printed_constant=printed,
        amplitude_over_oracle=fit.slope / oracle,
        amplitude_over_printed=fit.slope / printed,
        offset_half_range=fit_lo.intercept,
    )


@dataclass(frozen=True)
class LeadingTermReport:
    """Boundedness of the centerline remainder and coefficient agreement."""

    residuals: tuple[float, ...]
    residual_growth: float
    coefficient_ratios: tuple[float, ...]
    final_ratio: float


def verify_leading_term(
    records: list[SweepRecord], blowup_factor: float, amplitude: float
) -> LeadingTermReport:
    """Check the composed gradient against its predicted leading term.

    The centerline residual |grad u - (c1-c2) grad(neck potential)| must
    stay of order one across the sweep, and (c1-c2) must track
    blowup_factor * rate / amplitude.
    """
    resid = tuple(r.centerline_residual for r in records)
    growth = max(resid) / max(resid[0], 1e-300)
    ratios = []
    for r in records:
        predicted = blowup_factor * r.rate / amplitude
        ratios.append(r.c_diff / predicted if predicted != 0.0 else math.nan)
    return LeadingTermReport(
        residuals=resid,
        residual_growth=growth,
        coefficient_ratios=tuple(ratios),
        final_ratio=ratios[-1],
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Self-convergence of key scalars under nested refinement."""

    levels: int
    energies: tuple[float, ...]
    c_diffs: tuple[float, ...]
    b_factors: tuple[float, ...]
    shrink_ok: bool
    min_shrink: float
    error_bar: float
    error_bar_rel: float


def ladder_meshes(pair: InclusionPair, params: MeshParams, levels: int):
    """``generate(pair, params)`` and its quadrisections, ``levels`` meshes
    in all, each built as it is taken."""
    mesh = generate(pair, params)
    yield mesh
    for _ in range(1, levels):
        mesh = refine_quadrisect(mesh, pair)
        yield mesh


def ladder_solves(meshes, phi: BoundaryData) -> list[tuple[float, float, float]]:
    """Energy, level gap c1 - c2 and blow-up factor on each of ``meshes``.

    A ladder can be solved in parts, each on its own process, and the parts
    joined for ``convergence_report``.
    """
    solves = []
    for mesh in meshes:
        bundle = solve_bundle(mesh, phi)
        solves.append((bundle.a11, bundle.c1 - bundle.c2, bundle.b_factor))
    return solves


# The least factor by which each level difference of a ladder must shrink.
SHRINK_FACTOR = 1.5


def convergence_report(solves: list[tuple[float, float, float]]) -> ConvergenceReport:
    """Difference decay over the ``ladder_solves`` of ladder levels 0, 1, 2, ..."""
    energies, c_diffs, b_factors = (list(series) for series in zip(*solves))
    min_shrink = math.inf
    shrink_ok = True
    for series in (energies, c_diffs, b_factors):
        d = np.abs(np.diff(np.asarray(series)))
        if np.any(d == 0.0):
            continue  # converged below rounding; cannot shrink further
        ratios = d[:-1] / d[1:]
        if len(ratios):
            min_shrink = min(min_shrink, float(ratios.min()))
            if np.any(ratios < SHRINK_FACTOR):
                shrink_ok = False
    error_bar = abs(energies[-1] - energies[-2])
    return ConvergenceReport(
        levels=len(solves),
        energies=tuple(energies),
        c_diffs=tuple(c_diffs),
        b_factors=tuple(b_factors),
        shrink_ok=shrink_ok,
        min_shrink=min_shrink,
        error_bar=error_bar,
        error_bar_rel=error_bar / abs(energies[-1]),
    )


def mesh_convergence(
    pair: InclusionPair,
    phi: BoundaryData,
    params: MeshParams,
    levels: int = 3,
) -> ConvergenceReport:
    """Solve on a nested quadrisection ladder and check difference decay.

    The finest two levels define the discretization error bar attached to
    acceptance checks.
    """
    if levels < 3:
        raise ValueError("need at least three ladder levels")
    return convergence_report(ladder_solves(ladder_meshes(pair, params, levels), phi))


# ---------------------------------------------------------------------------
# persistence

SWEEP_CSV_HEADER = (
    "# neckfield-sweep-v1",
    "eps,rate,energy_v1,a11,a12,a21,a22,b1,b2,c1,c2,b_factor,"
    "max_grad_u_neck,max_grad_v1_neck,max_grad_w_neck,max_grad_vb_neck,"
    "vb_center,vb_offside,centerline_residual,vertex_count,triangle_count",
)

_CSV_FIELDS = SWEEP_CSV_HEADER[1].split(",")


def records_to_csv(records: list[SweepRecord]) -> str:
    """Versioned CSV, one row per record.

    Timing is deliberately excluded so reruns of the same configuration
    produce identical bytes; wall times live in the run manifest.
    """
    buf = io.StringIO()
    buf.write(SWEEP_CSV_HEADER[0] + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in records:
        row = []
        for name in _CSV_FIELDS:
            value = getattr(r, name)
            row.append(repr(value) if isinstance(value, float) else str(value))
        writer.writerow(row)
    return buf.getvalue()
