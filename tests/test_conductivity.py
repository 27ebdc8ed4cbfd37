import math
from dataclasses import replace

import numpy as np
import pytest

from neckfield import fem
from neckfield.conductivity import (
    BoundaryData,
    neck_interpolant,
    neck_remainder,
    solve_bundle,
    solve_components,
    solve_constants,
    solve_limit_direct,
)
from neckfield.experiments import fit_blowup_limit, run_sweep
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import INCLUSION1, INCLUSION2, OUTER, MeshParams, generate


@pytest.fixture(scope="module")
def pair():
    prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,))
    return InclusionPair(2, prof, 1e-3)


@pytest.fixture(scope="module")
def mesh(pair):
    return generate(pair, MeshParams())


@pytest.fixture(scope="module")
def op(mesh):
    return fem.assemble(mesh)


@pytest.fixture(scope="module")
def bundle(mesh, op):
    return solve_bundle(mesh, BoundaryData(kind="linear_xn"), op=op)


def sweep(pair, phi):
    records, failures = run_sweep(pair, phi, [1e-2, 1e-3, 1e-4, 1e-5], MeshParams())
    assert not failures
    return records


@pytest.fixture(scope="module")
def records_xn(pair):
    return sweep(pair, BoundaryData(kind="linear_xn"))


def with_factors(template, eps, factors):
    """Copies of one record at the given gaps (quadratic rate) and factors."""
    return [replace(template, eps=e, rate=math.sqrt(e), b_factor=b) for e, b in zip(eps, factors)]


class TestBoundaryData:
    def test_presets_evaluate(self):
        pts = np.array([[4.0, 0.0], [0.0, 4.0], [0.0, -4.0]])
        assert np.allclose(BoundaryData(kind="constant", value=2.0).evaluate(pts), 2.0)
        assert np.allclose(BoundaryData(kind="linear_xn").evaluate(pts), [0.0, 4.0, -4.0])
        assert np.allclose(BoundaryData(kind="linear_x1").evaluate(pts), [4.0, 0.0, 0.0])
        four = BoundaryData(kind="fourier", cos_coeffs=(1.0,), sin_coeffs=(0.5,))
        vals = four.evaluate(pts)
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(0.5)

    def test_fourier_needs_coefficients(self):
        with pytest.raises(ValueError):
            BoundaryData(kind="fourier")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BoundaryData(kind="sombrero")


class TestComponents:
    def test_superposition(self, mesh, op):
        v1, v2, _ = solve_components(op, BoundaryData(kind="linear_xn"))
        both = op.solve_dirichlet({INCLUSION1: 1.0, INCLUSION2: 1.0, OUTER: 0.0})
        assert np.abs(both.values - (v1.values + v2.values)).max() <= 1e-10

    def test_zero_data_gives_zero_response(self, op):
        _, _, v0 = solve_components(op, BoundaryData(kind="constant", value=0.0))
        assert np.abs(v0.values).max() == 0.0

    def test_all_fields_respect_bounds(self, bundle):
        for f in (bundle.v1, bundle.v2):
            assert -1e-10 <= f.values.min() and f.values.max() <= 1.0 + 1e-10
        phi_max = 4.0
        assert np.abs(bundle.v0.values).max() <= phi_max + 1e-10


class TestFluxSystem:
    def test_diagonal_equals_energy(self, bundle, op):
        assert bundle.a11 == pytest.approx(op.energy(bundle.v1), rel=1e-10)

    def test_reciprocity(self, bundle):
        assert bundle.a12 == pytest.approx(bundle.a21, rel=1e-8)

    def test_zero_data_zero_loads(self, mesh, op):
        b = solve_bundle(mesh, BoundaryData(kind="constant", value=0.0), op=op)
        assert abs(b.b1) <= 1e-12 and abs(b.b2) <= 1e-12

    def test_constant_data_levels(self, mesh, op):
        b = solve_bundle(mesh, BoundaryData(kind="constant", value=2.0), op=op)
        assert b.c1 == pytest.approx(2.0, abs=1e-10)
        assert b.c2 == pytest.approx(2.0, abs=1e-10)
        assert abs(b.b_factor) <= 1e-10

    def test_singular_system_rejected(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(fem.SolverError):
            solve_constants(a, np.array([1.0, 2.0]))

    def test_odd_data_forces_equal_levels(self, mesh, op):
        b = solve_bundle(mesh, BoundaryData(kind="linear_x1"), op=op)
        assert abs(b.c1 - b.c2) <= 1e-8 * 4.0

    def test_levels_bounded_over_sweep(self, pair):
        phi = BoundaryData(kind="linear_xn")
        for eps in (1e-2, 1e-4, 1e-6):
            b = solve_bundle(generate(pair.with_gap(eps), MeshParams()), phi)
            assert abs(b.c1) + abs(b.c2) <= 2.0 * phi.scale(pair.outer_radius)


class TestComposition:
    def test_decomposition_identity(self, bundle):
        lhs = bundle.u.values - (
            (bundle.c1 - bundle.c2) * bundle.v1.values + bundle.vb.values
        )
        assert np.abs(lhs).max() <= 1e-12

    def test_factor_routes_agree(self, bundle):
        assert abs(bundle.b_factor - bundle.b_factor_system) <= 1e-10

    def test_level_difference_crosscheck(self, bundle):
        assert abs(bundle.c_diff_residual) <= 1e-8 * max(abs(bundle.c1 - bundle.c2), 1e-30)

    def test_neck_remainder_small_gradient(self, pair, bundle):
        w = neck_remainder(bundle, neck_interpolant(pair, bundle.mesh))
        mg, _ = fem.max_gradient(w, "neck")
        mg_v1, _ = fem.max_gradient(bundle.v1, "neck")
        assert mg < 0.01 * mg_v1


class TestBlowupFit:
    def test_exact_model_recovery(self, records_xn):
        eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        lim = fit_blowup_limit(with_factors(records_xn[0], eps, 3.0 + 0.7 * np.sqrt(eps)))
        assert lim.b0 == pytest.approx(3.0, abs=1e-10)
        assert lim.rate_coefficient == pytest.approx(0.7, abs=1e-8)
        assert lim.stderr <= 1e-10
        assert lim.uncertainty <= 1e-10

    def test_collinear_rejected(self, records_xn):
        with pytest.raises(ValueError, match="collinear"):
            fit_blowup_limit(with_factors(records_xn[0], [1e-3] * 3, np.ones(3)))

    def test_too_few_points(self, records_xn):
        with pytest.raises(ValueError, match="three"):
            fit_blowup_limit(records_xn[:2])

    def test_constant_data_extrapolates_to_zero(self, pair):
        lim = fit_blowup_limit(sweep(pair, BoundaryData(kind="constant", value=1.5)))
        assert abs(lim.b0) <= 1e-9

    def test_nondegenerate_data_gives_nonzero_factor(self, records_xn):
        assert abs(fit_blowup_limit(records_xn).b0) > 1.0


@pytest.fixture(scope="module")
def pair0(pair):
    return pair.with_gap(0.0)


class TestTouchingLimit:

    def test_merged_conductor_energy_positive(self, pair0):
        lim = solve_limit_direct(pair0, BoundaryData(kind="linear_xn"), [0.08, 0.04], MeshParams())
        op_fields = lim.fields
        u1 = op_fields["u1"]
        # unit field of the merged conductor has positive energy
        op = fem.assemble(op_fields["mesh"])
        assert op.energy(u1) > 0.0

    def test_constant_data_recovers_level(self, pair0):
        lim = solve_limit_direct(
            pair0, BoundaryData(kind="constant", value=2.0), [0.08, 0.04], MeshParams()
        )
        assert lim.c0 == pytest.approx(2.0, abs=1e-10)
        assert abs(lim.b0) <= 1e-10

    def test_agrees_with_extrapolation(self, records_xn, pair0):
        ext = fit_blowup_limit(records_xn)
        direct = solve_limit_direct(pair0, BoundaryData(kind="linear_xn"), [0.08, 0.04, 0.02], MeshParams())
        combined = ext.uncertainty + direct.b0_uncertainty + 5e-3
        assert abs(ext.b0 - direct.b0) <= combined

    def test_needs_touching_pair_cut_range(self, pair0):
        with pytest.raises(ValueError):
            solve_limit_direct(pair0, BoundaryData(kind="linear_xn"), [0.08], MeshParams())

    def test_composed_limit_field_boundary_level(self, pair0):
        lim = solve_limit_direct(pair0, BoundaryData(kind="linear_xn"), [0.08, 0.04], MeshParams())
        mesh = lim.fields["mesh"]
        u = lim.fields["u_limit"]
        on_conductor = np.isin(mesh.vertex_tags, (INCLUSION1, INCLUSION2))
        assert np.abs(u.values[on_conductor] - lim.c0).max() <= 1e-12


@pytest.fixture(scope="module")
def asym():
    """Asymmetric split makes the mean-level convergence rate-tight."""
    prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,), split=(0.35, 0.65))
    pair = InclusionPair(2, prof, 1e-3, outer_radius=4.5)
    phi = BoundaryData(kind="linear_xn")
    eps_list = [1e-2 * 4.0 ** (-k) for k in range(6)]
    records, _ = run_sweep(pair, phi, eps_list, MeshParams())
    direct = solve_limit_direct(pair.with_gap(0.0), phi, [0.08, 0.04, 0.02], MeshParams())
    return records, direct


class TestLimitTracking:
    """The mean conductor level approaches the touching-limit level at the
    branch rate; the level difference scales exactly like the rate."""

    def test_mean_level_rate(self, asym):
        records, direct = asym
        eps = np.array([r.eps for r in records])
        diffs = np.array([abs(0.5 * (r.c1 + r.c2) - direct.c0) for r in records])
        a = np.column_stack([np.log(eps), np.ones_like(eps)])
        slope = np.linalg.lstsq(a, np.log(diffs), rcond=None)[0][0]
        assert abs(slope - 0.5) <= 0.15

    def test_level_difference_tracks_rate(self, asym):
        records, _ = asym
        scaled = [abs(r.c_diff) / math.sqrt(r.eps) for r in records]
        assert max(scaled) <= 1.5 * min(scaled)


class TestBoundedPartDecay:
    def test_exponential_shape_along_neck(self, pair):
        # log|grad vb| against (eps+x^2)^(-1/2) hugs a negative-slope line
        from neckfield.experiments import sweep_record
        from neckfield.mesh import generate as gen

        p = pair.with_gap(1e-4)
        rec, _, _ = sweep_record(p, gen(p, MeshParams()), BoundaryData(kind="linear_xn"))
        xs = np.array([q[0] for q in rec.vb_profile])
        gs = np.array([q[1] for q in rec.vb_profile])
        u = (p.eps + xs * xs) ** (-0.5)
        keep = gs > 1e-11  # below this the values are solver noise
        assert keep.sum() >= 10
        a = np.column_stack([u[keep], np.ones(int(keep.sum()))])
        slope = np.linalg.lstsq(a, np.log(gs[keep]), rcond=None)[0][0]
        corr = np.corrcoef(u[keep], np.log(gs[keep]))[0, 1]
        assert slope < 0.0
        assert corr <= -0.95
