"""Acceptance suite: nine gate criteria with pinned tolerances.

Each criterion is a function of a shared context (so the two heavy sweeps
are solved once) returning a CriterionResult; run_all executes every
criterion and reports one pass/fail line each.  Geometry and boundary
data are pinned per criterion; mesh resolution and fit tolerances come
from the configuration.

The heavy artifacts share no data, so with two usable CPUs run_all builds
them on two processes before the criteria run
(``AcceptanceContext.prefetch``): a worker forked before any mesh builds
the quadrisection ladder and solves its finest level, while this process
builds every other artifact and every mesh, in the order of a one-process
run.  The criteria then run, in order, on those results with the same
code, so every number is what a one-process run gives, and an artifact's
error is raised when the first criterion that needs it asks for it.  With
one usable CPU every artifact is built when first asked for.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import closed_forms as cf
from . import fem
from .conductivity import BoundaryData, solve_bundle, solve_touching, touching_meshes
from .config import ExperimentConfig
from .experiments import (
    convergence_report,
    fit_blowup_limit,
    fit_energy_constants,
    fit_line,
    fit_rate,
    ladder_meshes,
    ladder_solves,
    solve_sweep,
    sweep_meshes,
)
from .geometry import InclusionPair, NeckProfile, ProfileKind
from .mesh import INCLUSION1, INCLUSION2, OUTER, generate

__all__ = ["CriterionResult", "AcceptanceContext", "run_all", "CRITERIA"]

# What ``AcceptanceContext.prefetch`` builds in the gate's process while its
# worker solves the finest ladder level, in the order the criteria ask for it.
INLINE_ARTIFACTS = ("identities", "sweep_m2", "sweep_m4", "degeneracy", "ladder_coarse", "b0_dir")
# The artifacts that solve on each mesh plan; once all are built, the
# plan's meshes are dropped.
PLAN_READERS = {
    "op_m2": ("identities", "degeneracy"),  # C3 and C6 solve on it through its operator
    "sweep_m2": ("sweep_m2",),
    "sweep_m4": ("sweep_m4",),
    "constant_data": ("degeneracy",),
    "ladder": ("ladder_coarse", "ladder_finest"),
    "cusp": ("b0_dir",),
}
LADDER_LEVELS = 4
COARSE_LEVELS = 3  # the ladder levels solved in the gate's process; the worker solves the rest
CONSTANT_DATA_GAPS = (1e-2, 1e-4, 1e-5)  # C6
CONSTANT_DATA = BoundaryData(kind="constant", value=2.0)  # C6
ODD_DATA = BoundaryData(kind="linear_x1")  # C6
CUSP_CUTS = (0.08, 0.04, 0.02)  # truncated-cusp radii, at two far-field refinements


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime: float
    details: list[str]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.runtime:.1f}s)"


class AcceptanceContext:
    """Shared solves for the acceptance criteria.

    ``_mesh_plans`` gives the meshes of each heavy artifact and
    ``_builders`` one function per artifact that solves on them.  A mesh
    plan is built whole when first used and an artifact when first asked
    for; either keeps the error that building it raised, which is raised
    again wherever it is asked for.  A plan's meshes are dropped once every
    artifact in ``PLAN_READERS`` that solves on them is built.
    ``build_seconds`` holds the seconds ``prefetch`` spent on each
    artifact, the mesh plans it built included, which no criterion's clock
    saw.
    """

    def __init__(self, cfg: ExperimentConfig | None = None):
        self.cfg = cfg or ExperimentConfig()
        self.params = self.cfg.mesh
        self.tol = self.cfg.tolerances
        self.phi = BoundaryData(kind="linear_xn")
        self.eps_list = [1e-2 * 4.0 ** (-k) for k in range(6)]
        self._cache: dict[str, object] = {}  # key -> artifact, or the error building it raised
        self._meshes: dict[str, list] = {}  # plan -> its meshes, an error in place of those it stopped
        self.build_seconds: dict[str, float] = {}

    def _mesh_plans(self) -> dict:
        """The meshes of each artifact, in the order the criteria first ask
        for them.  Made afresh at each call, so that no closure keeps the
        context alive after its run."""
        quad, params = self.quad_pair(1e-3), self.params
        finer = replace(params, refinement=params.refinement + 2)
        return {
            "op_m2": lambda: [generate(quad, params)],
            "sweep_m2": lambda: sweep_meshes(quad, self.eps_list, params),
            "sweep_m4": lambda: sweep_meshes(self.pow4_pair(1e-3), self.eps_list, params),
            "constant_data": lambda: (generate(self.quad_pair(eps), params) for eps in CONSTANT_DATA_GAPS),
            "ladder": lambda: ladder_meshes(quad, params, LADDER_LEVELS),
            "cusp": lambda: itertools.chain(
                touching_meshes(self.quad_pair(0.0), CUSP_CUTS, params),
                touching_meshes(self.quad_pair(0.0), CUSP_CUTS, finer),
            ),
        }

    def meshes(self, plan: str):
        """Iterator over the meshes of ``plan``, built whole on first use; an
        error that building raised is raised again in its place."""
        if plan not in self._meshes:
            self._meshes[plan] = _built(self._mesh_plans()[plan])
        return _raising(self._meshes[plan])

    def _builders(self) -> dict:
        """One function per heavy artifact.  Made afresh at each build, so
        that no closure keeps the context alive after its run."""
        meshes, phi = self.meshes, self.phi
        return {
            "sweep_m2": lambda: solve_sweep(meshes("sweep_m2"), phi),
            "sweep_m4": lambda: solve_sweep(meshes("sweep_m4"), phi),
            # Stiffness operator, with its mesh and LU factorization, of the
            # quadratic pair at gap 1e-3 on the configured mesh.
            "op_m2": lambda: fem.assemble(next(meshes("op_m2"))),
            "identities": lambda: _identity_numbers(self.default_operator(), phi),
            "degeneracy": lambda: _degeneracy_numbers(meshes("constant_data"), self.default_operator()),
            "ladder_coarse": lambda: ladder_solves(itertools.islice(meshes("ladder"), COARSE_LEVELS), phi),
            "ladder_finest": lambda: ladder_solves(itertools.islice(meshes("ladder"), COARSE_LEVELS, None), phi),
            "b0_ext": lambda: fit_blowup_limit(self.records_m2()),
            "b0_dir": lambda: _truncated_cusp_factor(meshes("cusp"), phi),
        }

    # pinned geometries ----------------------------------------------------

    def quad_pair(self, eps: float) -> InclusionPair:
        profile = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,))
        return InclusionPair(dimension=2, profile=profile, eps=eps)

    def pow4_pair(self, eps: float) -> InclusionPair:
        profile = NeckProfile(kind=ProfileKind.POWER_LAW, order=4.0, coefficient=4.0)
        return InclusionPair(dimension=2, profile=profile, eps=eps)

    # cached heavy artifacts ------------------------------------------------

    def _build(self, key: str) -> tuple[object, float]:
        """Build an artifact; returns it, or the error that building it
        raised, and the seconds it took."""
        t0 = time.perf_counter()
        try:
            value = self._builders()[key]()
        except Exception as exc:  # raised again where the artifact is asked for
            value = exc
        return value, time.perf_counter() - t0

    def off_clock(self, *keys: str) -> float:
        """Seconds ``prefetch`` spent on these artifacts, their mesh plans
        included; a runtime budget adds them, since no criterion's clock
        saw them."""
        return sum(self.build_seconds.get(key, 0.0) for key in keys)

    def _drop_read_plans(self) -> None:
        for plan, readers in PLAN_READERS.items():
            if plan in self._meshes and all(key in self._cache for key in readers):
                del self._meshes[plan]

    def _get(self, key: str):
        if key not in self._cache:
            self._cache[key], _ = self._build(key)
            self._drop_read_plans()
        value = self._cache[key]
        if isinstance(value, Exception):
            raise value
        return value

    def prefetch(self) -> None:
        """Build the heavy artifacts on two processes, if two CPUs are usable.

        A worker forked before any mesh is built builds ``ladder_finest``.
        This process builds INLINE_ARTIFACTS in order, each with the mesh
        plans it reads first, then collects the worker's result, or its
        error with the worker's traceback, and stops the worker.
        """
        if _usable_cpus() < 2:
            return
        import concurrent.futures
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(1, fork, initializer=_adopt, initargs=(self,)) as worker:
            future = worker.submit(_build_adopted, "ladder_finest")
            # Every mesh plan is built here, the ladder too: perfbench's fingerprint and
            # audit see only this process's meshes, so the worker's ladder is a second
            # build until the trace carries each mesh's hash (ROADMAP item 2).
            for key in INLINE_ARTIFACTS:
                self._cache[key], self.build_seconds[key] = self._build(key)
                self._drop_read_plans()
            error = future.exception()
            finest = (error, 0.0) if error is not None else future.result()
        self._cache["ladder_finest"], self.build_seconds["ladder_finest"] = finest
        self._drop_read_plans()

    def sweep(self, order: int):
        """Records and per-gap failures of the quadratic (2) or quartic (4) sweep."""
        return self._get(f"sweep_m{order}")

    def records_m2(self):
        return self.sweep(2)[0]

    def records_m4(self):
        return self.sweep(4)[0]

    def dropped_gaps(self, *orders: int) -> list[tuple[str, bool]]:
        """One failing check per gap that a sweep dropped, with its error."""
        return [
            (f"m={order} sweep dropped eps={eps:.1e}: {error}", False)
            for order in orders
            for eps, error in sorted(self.sweep(order)[1].items(), reverse=True)
        ]

    def default_operator(self) -> fem.StiffnessOperator:
        """The operator of the quadratic pair at gap 1e-3; C3 and C6 share it."""
        return self._get("op_m2")

    def convergence(self):
        # The coarse levels first, so that an error surfaces in level order.
        return convergence_report(self._get("ladder_coarse") + self._get("ladder_finest"))

    def blowup_extrapolated(self):
        """The m = 2 sweep's blow-up factor extrapolated to the touching limit."""
        return self._get("b0_ext")

    def blowup_direct(self) -> tuple[float, float]:
        """Truncated-cusp factor and its uncertainty."""
        return self._get("b0_dir")


def _built(build) -> list:
    """Every item of the plan ``build()``; an error that building raised
    takes the place of the items it stopped."""
    items = []
    try:
        for item in build():
            items.append(item)
    except Exception as exc:  # raised again where the plan is taken
        items.append(exc)
    return items


def _raising(items: list):
    """The items of a built plan; a kept error is raised where it stands."""
    for item in items:
        if isinstance(item, Exception):
            raise item
        yield item


def _identity_numbers(op: fem.StiffnessOperator, phi: BoundaryData) -> dict:
    """The numbers C3 checks, on the solve of ``phi`` with ``op``: flux
    reciprocity and a11 against the energy (relative), the decomposition
    residual, each unit-potential field's violation of the maximum
    principle, and the total flux of v1."""
    bundle = solve_bundle(op.mesh, phi, op=op)
    energy = op.energy(bundle.v1)
    flux = op.fluxes(bundle.v1)
    composed = (bundle.c1 - bundle.c2) * bundle.v1.values + bundle.vb.values
    return {
        "reciprocity": abs(bundle.a12 - bundle.a21) / abs(bundle.a12),
        "energy": abs(bundle.a11 - energy) / energy,
        "decomposition": float(np.abs(bundle.u.values - composed).max()),
        "maximum_principle": {
            name: max(float(-f.values.min()), float(f.values.max() - 1.0), 0.0)
            for name, f in (("v1", bundle.v1), ("v2", bundle.v2))
        },
        "total_flux": abs(flux[OUTER] + flux[INCLUSION1] + flux[INCLUSION2]),
    }


def _degeneracy_numbers(meshes, op: fem.StiffnessOperator) -> dict:
    """The numbers C6 checks: for constant data on each of ``meshes``, |B|,
    the levels' distance from the data and the largest neck gradient; then
    |C1 - C2| for odd data with ``op``."""
    constant = []
    for mesh in meshes:
        bundle = solve_bundle(mesh, CONSTANT_DATA)
        level = max(abs(bundle.c1 - CONSTANT_DATA.value), abs(bundle.c2 - CONSTANT_DATA.value))
        constant.append((abs(bundle.b_factor), level, fem.max_gradient(bundle.u, "neck")[0]))
    bundle = solve_bundle(op.mesh, ODD_DATA, op=op)
    return {"constant": constant, "odd_level_gap": abs(bundle.c1 - bundle.c2)}


def _truncated_cusp_factor(meshes, phi: BoundaryData) -> tuple[float, float]:
    """Truncated-cusp factor and its uncertainty, which includes the change
    under two more levels of far-field refinement (the second half of the
    ``cusp`` plan)."""
    meshes = iter(meshes)
    base, finer = (solve_touching(itertools.islice(meshes, len(CUSP_CUTS)), phi) for _ in range(2))
    return base.b0, base.b0_uncertainty + abs(base.b0 - finer.b0)


_adopted: AcceptanceContext | None = None  # in a prefetch worker, the context it builds for


def _adopt(ctx: AcceptanceContext) -> None:
    global _adopted
    _adopted = ctx


def _build_adopted(key: str) -> tuple[object, float]:
    value, seconds = _adopted._build(key)
    if isinstance(value, Exception):
        raise value  # the executor sends it back with this traceback
    return value, seconds


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, so a run pinned to one CPU stays in one process.  The worker
    is forked, so where the platform cannot fork this is 1."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _result(name: str, t0: float, checks: list[tuple[str, bool]]) -> CriterionResult:
    details = [f"{'ok ' if ok else 'BAD'} {text}" for text, ok in checks]
    return CriterionResult(
        name=name,
        passed=all(ok for _, ok in checks),
        runtime=time.perf_counter() - t0,
        details=details,
    )


def criterion_1_closed_form_constants(ctx: AcceptanceContext) -> CriterionResult:
    """Analytic identity vs quadrature for the order-m constants."""
    t0 = time.perf_counter()
    checks = []
    for m, n in ((2, 2), (3, 2), (4, 2), (6, 2), (3, 3), (4, 3), (6, 3)):
        val = cf.profile_energy_constant(float(m), n)
        diff = abs(val.difference)
        checks.append((f"constant(m={m},n={n}) |analytic-quadrature| = {diff:.2e} <= 1e-9", diff <= 1e-9))
    runtime = time.perf_counter() - t0
    checks.append((f"runtime {runtime:.3f}s < 1s", runtime < 1.0))
    return _result("C1 closed-form constants", t0, checks)


def criterion_2_oracle_asymptotics(ctx: AcceptanceContext) -> CriterionResult:
    """Scaling limits of the gap integral pin the energy constants."""
    t0 = time.perf_counter()
    checks = []
    val2 = cf.gap_integral_radial(2, 2.0, 1.0, 1e-8, 0.5) * math.sqrt(1e-8)
    checks.append(
        (f"2D strict convexity: integral*sqrt(gap) = {val2:.6f} within 1% of pi", abs(val2 / math.pi - 1.0) <= 0.01)
    )
    # Logarithmic branch: the offset log(lam*R0^2) decays only like the
    # rate itself, so the window is checked on a wide neck.
    r0_log = 0.9
    val3 = cf.gap_integral_radial(3, 2.0, 1.0, 1e-10, r0_log) / abs(math.log(1e-10))
    checks.append(
        (
            f"3D strict convexity (R0={r0_log}): integral/|log gap| = {val3:.6f} within 2% of pi",
            abs(val3 / math.pi - 1.0) <= 0.02,
        )
    )
    prods = [
        cf.gap_integral_radial(2, 4.0, 1.0, eps, 0.5) * eps**0.75 for eps in (1e-6, 1e-8, 1e-10)
    ]
    ratios = [prods[i + 1] / prods[i] for i in range(2)]
    checks.append(
        (
            f"2D order 4: successive products ratio {ratios[-1]:.6f} within 1% of 1",
            all(abs(r - 1.0) <= 0.01 for r in ratios),
        )
    )
    # Adjudication of printed constants against the oracle (reported).
    r32 = cf.printed_energy_constant(3, 2.0, 1.0) / cf.energy_limit_constant(3, 2.0, 1.0)
    r22 = cf.printed_energy_constant(2, 2.0, 1.0) / cf.energy_limit_constant(2, 2.0, 1.0)
    r42_1 = cf.printed_energy_constant(2, 4.0, 1.0) / cf.energy_limit_constant(2, 4.0, 1.0)
    r42_2 = cf.printed_energy_constant(2, 4.0, 2.0) / cf.energy_limit_constant(2, 4.0, 2.0)
    checks.append((f"printed/oracle n=2,m=2: {r22:g} (curvature constant matches)", True))
    checks.append((f"printed/oracle n=3,m=2: {r32:g} (printed is half the oracle)", True))
    checks.append(
        (
            f"printed/oracle n=2,m=4: {r42_1:g} at coeff 1, {r42_2:g} at coeff 2 "
            "(missing factor 2 and opposite coefficient power)",
            True,
        )
    )
    checks.append(("dimension 3 is quadrature-verified here, not solved by FEM", True))
    runtime = time.perf_counter() - t0
    checks.append((f"runtime {runtime:.3f}s < 5s", runtime < 5.0))
    return _result("C2 oracle asymptotics", t0, checks)


def criterion_3_structural_identities(ctx: AcceptanceContext) -> CriterionResult:
    """Exact discrete identities on the default mesh at gap 1e-3."""
    t0 = time.perf_counter()
    num = ctx._get("identities")
    t0 -= ctx.off_clock("identities")
    checks = [
        (f"flux reciprocity rel {num['reciprocity']:.2e} <= 1e-8", num["reciprocity"] <= 1e-8),
        (f"a11 vs energy rel {num['energy']:.2e} <= 1e-10", num["energy"] <= 1e-10),
        (f"decomposition identity {num['decomposition']:.2e} <= 1e-12", num["decomposition"] <= 1e-12),
    ]
    for name, viol in num["maximum_principle"].items():
        checks.append((f"maximum principle {name} violation {viol:.2e} <= 1e-10", viol <= 1e-10))
    total = num["total_flux"]
    checks.append((f"total flux of v1 {total:.2e} <= 1e-10", total <= 1e-10))
    runtime = time.perf_counter() - t0
    checks.append((f"runtime {runtime:.1f}s < 60s", runtime < 60.0))
    return _result("C3 structural identities", t0, checks)


def criterion_4_blowup_rates(ctx: AcceptanceContext) -> CriterionResult:
    """Log-log slopes of the composed and unit-potential gradients."""
    t0 = time.perf_counter()
    tol = ctx.tol.rate_slope
    rec2 = ctx.records_m2()
    rec4 = ctx.records_m4()
    t0 -= ctx.off_clock("sweep_m2", "sweep_m4")
    checks = ctx.dropped_gaps(2, 4)
    s_u2 = fit_rate(rec2, "max_grad_u_neck").slope
    checks.append((f"m=2 slope of max|grad u| = {s_u2:.4f} in -0.5 +- {tol}", abs(s_u2 + 0.5) <= tol))
    s_u4 = fit_rate(rec4, "max_grad_u_neck").slope
    checks.append((f"m=4 slope of max|grad u| = {s_u4:.4f} in -0.25 +- {tol}", abs(s_u4 + 0.25) <= tol))
    s_v2 = fit_rate(rec2, "max_grad_v1_neck").slope
    checks.append((f"m=2 slope of max|grad v1| = {s_v2:.4f} in -1 +- {tol}", abs(s_v2 + 1.0) <= tol))
    span = rec2[0].eps / rec2[-1].eps
    checks.append(
        (f"sweep spans {math.log10(span):.1f} decades (>= 2.5) down to {rec2[-1].eps:.1e} <= 1e-5",
         math.log10(span) >= 2.5 and rec2[-1].eps <= 1e-5)
    )
    runtime = time.perf_counter() - t0
    checks.append((f"runtime {runtime:.1f}s < 20min", runtime < 1200.0))
    return _result("C4 blow-up rates", t0, checks)


def criterion_5_energy_constants(ctx: AcceptanceContext) -> CriterionResult:
    """Fitted energy amplitude against the oracle and the printed value."""
    t0 = time.perf_counter()
    rec2 = ctx.records_m2()
    pair = ctx.quad_pair(1e-3)
    efit = fit_energy_constants(rec2, pair)
    tol = ctx.tol.energy_constant_rel
    checks = ctx.dropped_gaps(2) + [
        (
            f"amplitude {efit.amplitude:.5f} within {100 * tol:.0f}% of oracle pi "
            f"(ratio {efit.amplitude_over_oracle:.4f})",
            abs(efit.amplitude_over_oracle - 1.0) <= tol,
        ),
        (
            f"amplitude within {100 * tol:.0f}% of curvature constant "
            f"(ratio {efit.amplitude_over_printed:.4f})",
            abs(efit.amplitude_over_printed - 1.0) <= tol,
        ),
    ]
    off_move = abs(efit.offset_half_range - efit.offset) / max(abs(efit.offset), 1e-300)
    checks.append(
        (
            f"offset {efit.offset:.4f} moves {100 * off_move:.1f}% under half-range refit "
            f"(<= {100 * ctx.tol.offset_stability:.0f}%)",
            off_move <= ctx.tol.offset_stability,
        )
    )
    return _result("C5 energy constants", t0, checks)


def criterion_6_degeneracy_and_symmetry(ctx: AcceptanceContext) -> CriterionResult:
    """Constant data kills the blow-up; odd data kills the level gap."""
    t0 = time.perf_counter()
    num = ctx._get("degeneracy")
    t0 -= ctx.off_clock("degeneracy")
    checks = []
    for eps, (b_abs, lev, _) in zip(CONSTANT_DATA_GAPS, num["constant"]):
        checks.append((f"eps={eps:.0e} constant data: |B| = {b_abs:.2e} <= 1e-10", b_abs <= 1e-10))
        checks.append((f"eps={eps:.0e} constant data: levels off by {lev:.2e} <= 1e-10", lev <= 1e-10))
    max_grad = max(mg for _, _, mg in num["constant"])
    checks.append(
        (f"constant data: max|grad u| stays {max_grad:.2e} <= 1e-6 across sweep", max_grad <= 1e-6)
    )
    scale = ODD_DATA.scale(ctx.quad_pair(1e-3).outer_radius)
    gap = num["odd_level_gap"]
    checks.append(
        (f"odd-in-x data on symmetric pair: |C1-C2| = {gap:.2e} <= 1e-8*scale", gap <= 1e-8 * scale)
    )
    return _result("C6 degeneracy and symmetry", t0, checks)


def criterion_7_blowup_factor_convergence(ctx: AcceptanceContext) -> CriterionResult:
    """Cauchy rate of the factor and agreement of the two limit methods."""
    t0 = time.perf_counter()
    rec2 = ctx.records_m2()
    eps = np.array([r.eps for r in rec2])
    vals = np.array([r.b_factor for r in rec2])
    diffs = np.abs(vals[:-1] - vals[1:])  # consecutive gaps differ by 4
    slope = fit_line(np.log(eps[:-1]), np.log(diffs)).slope
    tol = ctx.tol.cauchy_slope
    checks = ctx.dropped_gaps(2) + [
        (f"Cauchy slope of factor differences = {slope:.4f} in 0.5 +- {tol}", abs(slope - 0.5) <= tol)
    ]
    ext = ctx.blowup_extrapolated()
    # Mesh-level uncertainty from the nested ladder.
    conv = ctx.convergence()
    sig_ext = ext.uncertainty + float(np.abs(np.diff(np.asarray(conv.b_factors))).max())
    b0_dir, sig_dir = ctx.blowup_direct()
    gap = abs(ext.b0 - b0_dir)
    budget = sig_ext + sig_dir
    checks.append(
        (
            f"extrapolated {ext.b0:.5f} (+-{sig_ext:.1e}) vs truncated-cusp {b0_dir:.5f} "
            f"(+-{sig_dir:.1e}): |diff| {gap:.1e} <= {budget:.1e}",
            gap <= budget,
        )
    )
    return _result("C7 blow-up factor convergence", t0, checks)


def criterion_8_boundedness_surrogates(ctx: AcceptanceContext) -> CriterionResult:
    """Remainder gradient stays put while the singular gradient grows."""
    t0 = time.perf_counter()
    rec2 = ctx.records_m2()
    w_vals = [r.max_grad_w_neck for r in rec2]
    v_vals = [r.max_grad_v1_neck for r in rec2]
    w_span = max(w_vals) / min(w_vals)
    v_growth = max(v_vals) / min(v_vals)
    checks = ctx.dropped_gaps(2) + [
        (f"max|grad(v1 - explicit)| varies {w_span:.2f}x (< 2x) across sweep", w_span < 2.0),
        (f"max|grad v1| grows {v_growth:.0f}x (>= 10x)", v_growth >= 10.0),
    ]
    # The centre gradient is at rounding level, so only the half-neck value
    # is printed; a zero centre gradient still needs a nonzero half-neck one.
    for r in rec2:
        if r.eps <= 1e-4:
            checks.append(
                (
                    f"eps={r.eps:.1e}: |grad vb| at half-neck {r.vb_offside:.2e} >= 10x center",
                    max(r.vb_center, 1e-300) <= r.vb_offside / 10.0,
                )
            )
    return _result("C8 boundedness surrogates", t0, checks)


def criterion_9_self_convergence(ctx: AcceptanceContext) -> CriterionResult:
    """Nested-refinement differences shrink; finest level sets the error bar."""
    t0 = time.perf_counter()
    conv = ctx.convergence()
    checks = [
        (
            f"difference shrink factor {conv.min_shrink:.2f} >= 1.5 per level "
            f"(energy, level gap, factor)",
            conv.shrink_ok,
        ),
        (
            f"finest error bar {100 * conv.error_bar_rel:.4f}% of energy < 1%",
            conv.error_bar_rel < 0.01,
        ),
    ]
    return _result("C9 self-convergence", t0, checks)


CRITERIA = (
    criterion_1_closed_form_constants,
    criterion_2_oracle_asymptotics,
    criterion_3_structural_identities,
    criterion_4_blowup_rates,
    criterion_5_energy_constants,
    criterion_6_degeneracy_and_symmetry,
    criterion_7_blowup_factor_convergence,
    criterion_8_boundedness_surrogates,
    criterion_9_self_convergence,
)


def run_all(cfg: ExperimentConfig | None = None, echo=print) -> list[CriterionResult]:
    """Run every criterion, one pass/fail line each, on the artifacts that
    ``AcceptanceContext.prefetch`` builds."""
    ctx = AcceptanceContext(cfg)
    ctx.prefetch()
    results = []
    for criterion in CRITERIA:
        result = criterion(ctx)
        results.append(result)
        echo(result.line())
        for detail in result.details:
            echo(f"    {detail}")
    return results
