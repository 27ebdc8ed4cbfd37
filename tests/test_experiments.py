import math
from fractions import Fraction

import numpy as np
import pytest

from neckfield import experiments, fem
from neckfield.closed_forms import gap_rate_m
from neckfield.conductivity import BoundaryData, neck_interpolant, solve_bundle
from neckfield.experiments import (
    SWEEP_CSV_HEADER,
    SweepRecord,
    fit_blowup_limit,
    fit_energy_constants,
    fit_line,
    fit_rate,
    mesh_convergence,
    records_to_csv,
    run_sweep,
    vb_station_profile,
    verify_leading_term,
)
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import MeshParams, generate, refine_quadrisect


@pytest.fixture(scope="module")
def pair():
    prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,))
    return InclusionPair(2, prof, 1e-3)


@pytest.fixture(scope="module")
def phi():
    return BoundaryData(kind="linear_xn")


@pytest.fixture(scope="module")
def records(pair, phi):
    eps_list = [1e-2 * 4.0 ** (-k) for k in range(6)]
    recs, failures = run_sweep(pair, phi, eps_list, MeshParams())
    assert not failures
    return recs


def synthetic_records(eps_list, fn):
    out = []
    for eps in eps_list:
        out.append(
            SweepRecord(
                eps=eps,
                rate=math.sqrt(eps),
                energy_v1=fn(eps),
                a11=fn(eps),
                a12=0.0,
                a21=0.0,
                a22=0.0,
                b1=0.0,
                b2=0.0,
                c1=0.0,
                c2=0.0,
                b_factor=0.0,
                max_grad_u_neck=2.0 * eps**-0.5,
                max_grad_v1_neck=1.0 / eps,
                max_grad_w_neck=0.3,
                max_grad_vb_neck=0.01,
                vb_center=0.0,
                vb_offside=0.0,
                centerline_residual=0.1,
                vertex_count=100,
                triangle_count=180,
            )
        )
    return out


class TestRunSweep:
    def test_smoke_counts(self, records):
        assert len(records) == 6
        assert all(r.eps > r2.eps for r, r2 in zip(records, records[1:]))

    def test_energy_strictly_increasing(self, records):
        energies = [r.energy_v1 for r in records]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_gradient_strictly_increasing(self, records):
        grads = [r.max_grad_u_neck for r in records]
        assert all(b > a for a, b in zip(grads, grads[1:]))

    def test_all_finite(self, records):
        for r in records:
            for name in ("energy_v1", "b_factor", "c1", "c2", "max_grad_u_neck"):
                assert math.isfinite(getattr(r, name))

    def test_needs_enough_points(self, pair, phi):
        with pytest.raises(ValueError):
            run_sweep(pair, phi, [1e-2, 1e-3, 1e-4], MeshParams())
        with pytest.raises(ValueError):
            run_sweep(pair, phi, [1e-2, 8e-3, 6e-3, 5e-3], MeshParams())

    def test_per_gap_failures_do_not_abort(self, pair, phi):
        # a machine-thin gap fails its mesh but the rest of the sweep survives
        eps_list = [1e-2, 1e-3, 1e-4, 1e-14]
        records, failures = run_sweep(pair, phi, eps_list, MeshParams())
        assert len(records) == 3
        assert list(failures) == [1e-14]
        assert "MeshError" in failures[1e-14]

    def test_programming_errors_crash(self, pair, phi, monkeypatch):
        def broken(p, params):
            raise TypeError("not a gap failure")

        monkeypatch.setattr(experiments, "generate", broken)
        with pytest.raises(TypeError, match="not a gap failure"):
            run_sweep(pair, phi, [1e-2, 1e-3, 1e-4, 1e-5], MeshParams())

    def test_solve_failures_drop_the_gap(self, pair, phi, monkeypatch):
        def record(p, mesh, phi):
            if p.eps < 1e-4:
                raise fem.SolverError("forced solve failure")
            return p.eps, None, None

        monkeypatch.setattr(experiments, "generate", lambda p, params: None)
        monkeypatch.setattr(experiments, "sweep_record", record)
        records, failures = run_sweep(pair, phi, [1e-2, 1e-3, 1e-4, 1e-5], MeshParams())
        assert records == [1e-2, 1e-3, 1e-4]
        assert failures == {1e-5: "SolverError: forced solve failure"}


class TestFitLine:
    def test_exact_line_recovery(self):
        x = np.array([-1.0, 0.5, 2.0, 4.0])
        fit = fit_line(x, 1.5 - 0.25 * x, model="line")
        assert fit.slope == pytest.approx(-0.25, abs=1e-14)
        assert fit.intercept == pytest.approx(1.5, abs=1e-14)
        assert fit.stderr <= 1e-14 and fit.intercept_stderr <= 1e-14
        assert fit.residual_norm <= 1e-14
        assert fit.model == "line"

    def test_standard_errors_match_textbook_formulas(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 3.0, 9)
        y = 2.0 * x + 1.0 + 0.1 * rng.standard_normal(len(x))
        fit = fit_line(x, y)
        sxx = float(np.sum((x - x.mean()) ** 2))
        resid = y - (fit.intercept + fit.slope * x)
        s2 = float(resid @ resid) / (len(x) - 2)
        assert fit.stderr == pytest.approx(math.sqrt(s2 / sxx), rel=1e-10)
        want = math.sqrt(s2 * (1.0 / len(x) + x.mean() ** 2 / sxx))
        assert fit.intercept_stderr == pytest.approx(want, rel=1e-10)
        assert fit.residual_norm == pytest.approx(math.sqrt(float(resid @ resid)), rel=1e-10)

    def test_condition_bound(self):
        x = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9])
        with pytest.raises(ValueError, match="collinear"):
            fit_line(x, x, max_cond=1e12)
        fit_line(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]), max_cond=1e12)

    @pytest.mark.parametrize("design", ["order-6 energy", "nearly collinear"])
    def test_standard_errors_keep_their_digits(self, design):
        # Against A'A and its inverse in exact rational arithmetic.  The
        # energy fit's 1/rate over twelve gaps has cond(A'A) = 2.6e13 from
        # the scale of its columns; x = 1 + k*1e-6 has cond(A'A) = 1.4e12
        # from near collinearity, where inverting the rounded A'A loses
        # 7.6e-6 of the standard errors.
        if design == "order-6 energy":
            x = np.array([1.0 / gap_rate_m(1e-2 / 4.0**k, 2, 6.0) for k in range(12)])
        else:
            x = 1.0 + 1e-6 * np.arange(6.0)
        y = math.pi * x + 3.2 + 1e-3 * np.cos(np.arange(len(x)))
        fit = fit_line(x, y)
        sxx, sx, n = sum(Fraction(v) ** 2 for v in x), sum(Fraction(v) for v in x), len(x)
        det = n * sxx - sx * sx
        trace = float(sxx + n)
        largest = 0.5 * (trace + math.sqrt(trace**2 - 4.0 * float(det)))
        cond = largest**2 / float(det)
        sigma = fit.residual_norm / math.sqrt(n - 2)
        assert fit.stderr == pytest.approx(sigma * math.sqrt(n / det), rel=1e-9)
        assert fit.intercept_stderr == pytest.approx(sigma * math.sqrt(sxx / det), rel=1e-9)
        with pytest.raises(ValueError, match="collinear"):
            fit_line(x, y, max_cond=cond / 1.01)
        fit_line(x, y, max_cond=cond * 1.01)


class TestFitRate:
    def test_exact_power_law_recovery(self):
        eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
        recs = synthetic_records(eps_list, lambda e: 5.0)
        fit = fit_rate(recs, "max_grad_u_neck")
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.stderr <= 1e-12

    def test_rejects_nonpositive(self):
        recs = synthetic_records([1e-2, 1e-3, 1e-4, 1e-5], lambda e: 5.0)
        recs[0].b_factor = -1.0
        with pytest.raises(ValueError):
            fit_rate(recs, "b_factor")

    def test_measured_slopes(self, records):
        assert abs(fit_rate(records, "max_grad_u_neck").slope + 0.5) <= 0.05
        assert abs(fit_rate(records, "max_grad_v1_neck").slope + 1.0) <= 0.05


class TestEnergyFit:
    def test_synthetic_recovery(self, pair):
        eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
        recs = synthetic_records(eps_list, lambda e: 2.5 / math.sqrt(e) + 7.0)
        efit = fit_energy_constants(recs, pair)
        assert efit.amplitude == pytest.approx(2.5, abs=1e-9)
        assert efit.offset == pytest.approx(7.0, abs=1e-7)

    def test_measured_amplitude_matches_oracle(self, records, pair):
        efit = fit_energy_constants(records, pair)
        assert efit.oracle_constant == pytest.approx(math.pi, rel=1e-14)
        assert abs(efit.amplitude_over_oracle - 1.0) <= 0.02
        move = abs(efit.offset_half_range - efit.offset) / abs(efit.offset)
        assert move <= 0.10

    def test_adjudication_table_has_three_constants(self, records, pair):
        table = dict(fit_energy_constants(records, pair).table())
        assert {"fitted amplitude", "oracle constant", "printed constant"} <= set(table)


class TestLeadingTerm:
    def test_residual_bounded_and_ratio_converges(self, records, pair):
        b0 = fit_blowup_limit(records).b0
        efit = fit_energy_constants(records, pair)
        rep = verify_leading_term(records, b0, efit.amplitude)
        assert rep.residual_growth <= 3.0
        assert rep.final_ratio == pytest.approx(1.0, abs=0.05)

    def test_zero_factor_keeps_gradients_flat(self, pair):
        recs, _ = run_sweep(
            pair,
            BoundaryData(kind="constant", value=1.0),
            [1e-2, 1e-3, 1e-4, 1e-5],
            MeshParams(),
        )
        grads = [r.max_grad_u_neck for r in recs]
        assert max(grads) <= 1e-6


class TestMeshConvergence:
    def test_ladder(self, pair, phi):
        report = mesh_convergence(pair, phi, MeshParams(), levels=3)
        assert report.shrink_ok
        assert report.min_shrink >= 1.5
        assert report.error_bar_rel < 0.01
        assert len(report.energies) == 3

    def test_ladder_in_former_failure_band(self, pair, phi):
        # Gaps from 6.02e-4 to 6.95e-4 once broke the shrink check.
        report = mesh_convergence(pair.with_gap(6.954e-4), phi, MeshParams(), levels=3)
        assert report.shrink_ok
        assert report.min_shrink >= 1.5

    def test_needs_three_levels(self, pair, phi):
        with pytest.raises(ValueError):
            mesh_convergence(pair, phi, MeshParams(), levels=2)

    def test_layer_ladder_energies_settle(self, pair, phi):
        # the parameter ladder (more layers, smaller steps) also converges
        from neckfield.conductivity import solve_bundle
        from neckfield.mesh import generate

        energies = []
        for refinement, layers in ((0, 4), (1, 6), (2, 8), (3, 12)):
            params = MeshParams(layers=layers, refinement=refinement)
            energies.append(solve_bundle(generate(pair, params), phi).a11)
        diffs = [abs(b - a) for a, b in zip(energies, energies[1:])]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))


def _station_profile_loop(bundle):
    # Reference: one mask of the neck triangles per station column.
    grads = fem.element_gradients(bundle.vb)
    norms = np.hypot(grads[:, 0], grads[:, 1])
    mesh = bundle.mesh
    cols = mesh.neck_column_x[mesh.neck]
    vals = norms[mesh.neck]
    return [(float(x), float(vals[cols == x].max())) for x in np.unique(cols)]


def _centerline_residual_loop(bundle, ramp):
    # Reference: per column, argmin's first triangle with the level nearest 1/2.
    mesh = bundle.mesh
    neck_ids = np.flatnonzero(mesh.neck)
    grads_u = fem.element_gradients(bundle.u)
    grads_ramp = fem.element_gradients(fem.ScalarField(mesh, ramp))
    coeff = bundle.c1 - bundle.c2
    levels = ramp[mesh.triangles[neck_ids]].mean(axis=1)
    col_vals = mesh.neck_column_x[neck_ids]
    worst = 0.0
    for x in np.unique(col_vals):
        sel = col_vals == x
        tri = neck_ids[sel][np.argmin(np.abs(levels[sel] - 0.5))]
        resid = grads_u[tri] - coeff * grads_ramp[tri]
        worst = max(worst, float(np.hypot(resid[0], resid[1])))
    return worst


class TestStationProfile:
    @pytest.mark.parametrize("levels", [0, 2])
    def test_grouped_columns_match_loop(self, pair, phi, levels):
        mesh = generate(pair, MeshParams())
        for _ in range(levels):
            mesh = refine_quadrisect(mesh, pair)
        bundle = solve_bundle(mesh, phi)
        ramp = neck_interpolant(pair, mesh)
        profile = vb_station_profile(bundle)
        assert profile == _station_profile_loop(bundle)
        assert max(v for _, v in profile) == fem.max_gradient(bundle.vb)[0]
        assert experiments._centerline_residual(bundle, ramp) == _centerline_residual_loop(bundle, ramp)
        rows = np.concatenate([np.flatnonzero(mesh.neck), [mesh.triangle_count - 1, 0, 0]])
        for f in (bundle.u, bundle.vb, fem.ScalarField(mesh, ramp)):
            full = fem.element_gradients(f)
            assert np.array_equal(fem.element_gradients(f, rows), full[rows])
            assert np.array_equal(fem.element_gradients(f, np.arange(mesh.triangle_count)), full)

    def test_centerline_tie_goes_to_first_triangle(self, pair, phi, monkeypatch):
        # A zero ramp ties every triangle of a column at distance 1/2 from
        # level 1/2; only each column's first triangle carries a residual.
        mesh = generate(pair, MeshParams())
        bundle = solve_bundle(mesh, phi)
        neck_ids = np.flatnonzero(mesh.neck)
        ramp = np.zeros(mesh.vertex_count)
        first = {}
        for i in neck_ids.tolist():
            first.setdefault(float(mesh.neck_column_x[i]), i)
        grads = np.zeros((mesh.triangle_count, 2))
        grads[list(first.values())] = 1.0
        fake = lambda f, rows=slice(None): (grads if f is bundle.u else 0.0 * grads)[rows]  # noqa: E731
        monkeypatch.setattr(fem, "element_gradients", fake)
        # The residual reads the neck view's operator, at positions among
        # the neck triangles.
        neck = grads[neck_ids]
        fake_view = lambda self, values, at=slice(None): (neck if values is bundle.u.values else 0.0 * neck)[at]  # noqa: E731
        monkeypatch.setattr(fem._Gradients, "__call__", fake_view)
        assert experiments._centerline_residual(bundle, ramp) == math.sqrt(2.0)
        assert _centerline_residual_loop(bundle, ramp) == math.sqrt(2.0)

    def test_one_neck_view_per_record(self, pair, phi, monkeypatch):
        # Every observable of a record reads one view of the mesh, which
        # the record drops: a mesh kept after its record does not keep it.
        built = []
        view = fem.NeckView
        monkeypatch.setattr(fem, "NeckView", lambda mesh: built.append(mesh) or view(mesh))
        mesh = generate(pair, MeshParams())
        experiments.sweep_record(pair, mesh, phi)
        assert len(built) == 1 and built[0] is mesh
        assert "neck_view" not in vars(mesh)
        assert not mesh.neck_view.gradients.rotated.flags.writeable

    def test_refined_mesh_doubles_the_columns(self, pair, phi):
        mesh = generate(pair, MeshParams())
        columns = len(np.unique(mesh.neck_column_x[mesh.neck]))
        assert len(vb_station_profile(solve_bundle(mesh, phi))) == columns
        fine = refine_quadrisect(mesh, pair)
        profile = vb_station_profile(solve_bundle(fine, phi))
        assert len(profile) == 2 * columns
        xs = [x for x, _ in profile]
        assert xs == sorted(xs)


class TestCsv:
    def test_versioned_header_and_shape(self, records):
        text = records_to_csv(records)
        lines = text.strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER[0]
        assert lines[1].split(",")[0] == "eps"
        assert len(lines) == 2 + len(records)

    def test_floats_round_trip(self, records):
        text = records_to_csv(records)
        lines = text.strip().splitlines()
        fields = lines[1].split(",")
        row = dict(zip(fields, lines[2].split(",")))
        assert float(row["eps"]) == records[0].eps
        assert float(row["energy_v1"]) == records[0].energy_v1

    def test_deterministic_bytes(self, records):
        assert records_to_csv(records) == records_to_csv(records)
