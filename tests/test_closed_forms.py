import math

import numpy as np
import pytest

from neckfield import closed_forms as cf
from neckfield.geometry import GeometryError, InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import MeshParams, generate
from neckfield.quadrature import adaptive_integral

from exact_gap import exact_gap_integral_m2


def quad_pair(eps, lam=2.0):
    prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(lam,))
    return InclusionPair(2, prof, eps)


def power_pair(eps, m, lam, dim=2):
    prof = NeckProfile(kind=ProfileKind.POWER_LAW, order=m, coefficient=lam)
    return InclusionPair(dim, prof, eps)


class TestRates:
    def test_strict_rate_values(self):
        # strict convexity (m = 2): sqrt(eps) in 2D, 1/|log eps| in 3D
        assert cf.gap_rate_m(1e-2, 2, 2.0) == pytest.approx(0.1, rel=0)
        assert cf.gap_rate_m(math.exp(-10), 3, 2.0) == pytest.approx(0.1, rel=1e-14)
        assert cf.gap_rate_m(0.25, 2, 2.0) == 0.5

    def test_order_rate_values(self):
        assert cf.gap_rate_m(1e-4, 2, 2) == pytest.approx(1e-2, rel=1e-14)
        assert cf.gap_rate_m(1e-4, 3, 4) == pytest.approx(1e-2, rel=1e-14)
        assert cf.gap_rate_m(math.exp(-5), 3, 2) == pytest.approx(0.2, rel=1e-14)

    def test_rate_rejects_gap_of_one_or_more(self):
        with pytest.raises(ValueError):
            cf.gap_rate_m(1.0, 2, 2.0)
        with pytest.raises(ValueError):
            cf.gap_rate_m(2.0, 2, 2)

    @pytest.mark.parametrize("eps", [1e-310, 5e-324, 0.0, 1.0])
    def test_gap_below_the_smallest_normal_refused(self, eps):
        with pytest.raises(ValueError, match=r"gap must lie in \[2.2250738585072014e-308, 1\)"):
            cf.gap_rate_m(eps, 2, 2.0)
        assert cf.gap_rate_m(2.2250738585072014e-308, 2, 2.0) > 0.0

    def test_inadmissible_order(self):
        with pytest.raises(ValueError):
            cf.gap_rate_m(1e-3, 3, 1.5)
        with pytest.raises(ValueError):
            cf.gap_rate_m(1e-3, 2, 1.0)

    @pytest.mark.parametrize("n,m", [(2, 2.0), (2, 4.0), (3, 2.0), (3, 3.0), (4, 3.0)])
    def test_strictly_increasing_in_gap(self, n, m):
        eps = np.logspace(-9, -0.05, 40)
        vals = [cf.gap_rate_m(e, n, m) for e in eps]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestConstants:
    def test_curvature_constant_values(self):
        assert cf.curvature_energy_constant(2.0, n=2) == pytest.approx(math.pi, rel=1e-15)
        assert cf.curvature_energy_constant(1.0, 1.0, n=3) == pytest.approx(math.pi, rel=1e-15)
        assert cf.curvature_energy_constant(8.0, n=2) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_sphere_measures(self):
        assert cf.sphere_surface_measure(1) == pytest.approx(2.0, rel=1e-15)
        assert cf.sphere_surface_measure(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert cf.sphere_surface_measure(3) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_order_constant_m2_n2_is_half_pi(self):
        val = cf.profile_energy_constant(2.0, 2)
        assert val.closed_form == pytest.approx(math.pi / 2, rel=1e-15)

    def test_order_constant_m4_n2(self):
        # adaptive quadrature of the defining integral confirms the value
        val = cf.profile_energy_constant(4.0, 2)
        assert val.closed_form == pytest.approx(1.1107207345395915, rel=1e-12)
        assert abs(val.difference) <= 1e-9

    def test_order_constant_m4_n3(self):
        val = cf.profile_energy_constant(4.0, 3)
        assert val.closed_form == pytest.approx(math.pi**2 / 2, rel=1e-14)
        assert val.quadrature == pytest.approx(val.closed_form, abs=1e-9)

    @pytest.mark.parametrize("m", [2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_vs_quadrature(self, m, n):
        if n == 3 and m == 2.0:
            val = cf.profile_energy_constant(m, n)
            assert val.quadrature is None
            assert val.closed_form == pytest.approx(math.pi, rel=1e-15)
        else:
            val = cf.profile_energy_constant(m, n)
            assert abs(val.difference) <= 1e-9

    def test_divergent_tail_rejected(self):
        with pytest.raises(ValueError):
            cf.reciprocal_power_tail(2.0, 2.0)


class TestGapIntegral:
    def test_arctan_oracle(self):
        # closed antiderivative: 2/sqrt(eps) * atan(R0/sqrt(eps))
        pair = power_pair(1e-4, 2.0, 1.0)
        exact = 2.0 / math.sqrt(1e-4) * math.atan(0.5 / math.sqrt(1e-4))
        assert exact == pytest.approx(310.1597985643492, rel=1e-13)
        assert cf.gap_integral(pair) == pytest.approx(exact, rel=1e-10)

    def test_log_oracle_dimension3(self):
        pair = power_pair(1e-6, 2.0, 1.0, dim=3)
        exact = math.pi * math.log1p(0.25e6)
        assert cf.gap_integral(pair) == pytest.approx(exact, rel=1e-10)

    def test_scaling_limit(self):
        vals = [cf.gap_integral(power_pair(eps, 2.0, 1.0)) * math.sqrt(eps) for eps in (1e-8, 1e-10)]
        for v in vals:
            assert v == pytest.approx(math.pi, rel=1e-3)

    def test_product_with_rate_converges(self):
        # sweep over four decades; successive products settle within 2 percent
        for n, m, lam in ((2, 2.0, 1.0), (2, 4.0, 1.0), (3, 4.0, 1.0), (3, 2.0, 1.0)):
            eps = [1e-6, 1e-8, 1e-10]
            prods = [
                cf.gap_integral_radial(n, m, lam, e, 0.5) * cf.gap_rate_m(e, n, m) for e in eps
            ]
            if m == n - 1:
                # logarithmic branch converges only like the rate itself
                assert abs(prods[-1] / prods[-2] - 1.0) < 0.05
            else:
                assert abs(prods[-1] / prods[-2] - 1.0) < 0.02

    def test_touching_integral_rejected(self):
        with pytest.raises(ValueError):
            cf.gap_integral_radial(2, 2.0, 1.0, 0.0, 0.5)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lam", [1e-250, 1e-100, 1.0, 1e40, 1e100, 1e250])
    def test_exact_forms_across_the_admitted_range(self, n, lam):
        # The peak of width (eps/lam)^(1/2) at r = 0 fell between the nodes
        # of [0, r0]: at lam = 1e40 the 3D integral came out 0.129 of this.
        for eps in (1e-2, 1e-8, 1e-100, 2.2250738585072014e-308):
            for r0 in (1e-3, 0.5, 10.0):
                want = exact_gap_integral_m2(n, lam, eps, r0)
                assert cf.gap_integral_radial(n, 2.0, lam, eps, r0) == pytest.approx(want, rel=1e-9, abs=0), (eps, r0)

    @pytest.mark.parametrize(
        "n,m", [(3, 2.0), (3, 2.000000001), (3, 2.05), (3, 2.5), (10, 9.001), (50, 50.3), (101, 100.0)]
    )
    def test_finite_near_the_logarithmic_order(self, n, m):
        # The folded tail keeps s^(m-n), near 1/s here, out of the quadrature.
        for lam in (1e-250, 1.0, 1e250):
            for eps in (1e-8, 2.2250738585072014e-308):
                value = cf.gap_integral_radial(n, m, lam, eps, 0.5)
                assert math.isfinite(value) and value > 0.0, (lam, eps)

    def test_anisotropic_quadratic_vs_nested_quadrature(self):
        lam1, lam2, eps, r0 = 3.0, 1.0, 1e-4, 0.5
        val = cf.gap_integral_quadratic((lam1, lam2), eps, r0)

        def inner(x1):
            return adaptive_integral(
                lambda x2: 1.0 / (eps + 0.5 * (lam1 * x1 * x1 + lam2 * x2 * x2)),
                -math.sqrt(r0 * r0 - x1 * x1),
                math.sqrt(r0 * r0 - x1 * x1),
                rel_tol=1e-9,
            )

        ref = adaptive_integral(inner, -r0 * (1 - 1e-14), r0 * (1 - 1e-14), rel_tol=1e-7)
        assert val == pytest.approx(ref, rel=1e-5)

    def test_anisotropic_limit_constant(self):
        # leading coefficient 2*pi/sqrt(lam1*lam2) per unit |log eps|;
        # differencing two gaps cancels the constant offset
        lam1, lam2 = 3.0, 1.0
        v1 = cf.gap_integral_quadratic((lam1, lam2), 1e-6, 0.5)
        v2 = cf.gap_integral_quadratic((lam1, lam2), 1e-12, 0.5)
        slope = (v2 - v1) / (abs(math.log(1e-12)) - abs(math.log(1e-6)))
        assert slope == pytest.approx(2 * math.pi / math.sqrt(3.0), rel=1e-6)


class TestNeckPotential:
    def test_midpoint_value(self):
        pair = quad_pair(1e-3)
        assert cf.neck_potential(pair, [0.0, 5e-4]) == pytest.approx(0.5, rel=1e-14)

    def test_boundary_values_exact(self):
        pair = quad_pair(1e-3)
        rng = np.random.default_rng(20260810)
        for x in rng.uniform(-0.99, 0.99, size=50):
            h1, h2 = pair.profile.heights([x])
            assert cf.neck_potential(pair, [x, h2]) == 0.0
            assert cf.neck_potential(pair, [x, pair.eps + h1]) == pytest.approx(1.0, abs=1e-15)

    def test_vertical_derivative_is_reciprocal_gap(self):
        # The potential is affine in x_n, so the difference quotient is exact.
        pair = quad_pair(1e-3)
        g = (cf.neck_potential(pair, [0.0, 2e-4]) - cf.neck_potential(pair, [0.0, 0.0])) / 2e-4
        assert g == pytest.approx(1000.0, rel=1e-14)

    @pytest.mark.parametrize("pair_args", [(2.0, 1.0), (4.0, 4.0)])
    def test_gradient_matches_finite_differences(self, pair_args):
        m, lam = pair_args
        prof = NeckProfile(kind=ProfileKind.POWER_LAW, order=m, coefficient=lam, split=(0.3, 0.7))
        pair = InclusionPair(2, prof, 1e-4, outer_radius=6.0)
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            x = rng.uniform(-0.95, 0.95)
            h1, h2 = pair.profile.heights([x])
            delta = pair.eps + (h1 - h2)
            y = h2 + rng.uniform(0.2, 0.8) * delta
            # The exact gradient of (y - h2)/delta, with h2 = -0.7*rel and delta = eps + rel.
            rel_slope = lam * m * abs(x) ** (m - 2.0) * x
            grad = np.array([rel_slope * (0.7 * delta - (y - h2)) / delta**2, 1.0 / delta])
            h = 1e-6 * delta
            fd = np.array(
                [
                    (cf.neck_potential(pair, [x + h, y]) - cf.neck_potential(pair, [x - h, y])) / (2 * h),
                    (cf.neck_potential(pair, [x, y + h]) - cf.neck_potential(pair, [x, y - h])) / (2 * h),
                ]
            )
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    def test_rejects_points_outside_neck(self):
        pair = quad_pair(1e-3)
        with pytest.raises(GeometryError):
            cf.neck_potential(pair, [0.0, 1.0])
        with pytest.raises(GeometryError):
            cf.neck_potential(pair, [1.5, 0.0])

    @pytest.mark.parametrize("pair", [quad_pair(1e-3), power_pair(1e-3, 4.0, 4.0)], ids=["quadratic", "quartic"])
    def test_array_matches_scalar_bits(self, pair):
        mesh = generate(pair, MeshParams())
        pts = mesh.vertices[np.unique(mesh.triangles[mesh.neck])]
        got = cf.neck_potential(pair, pts)
        # The per-point formula of the scalar loop, on the scalar profile.
        want = []
        for x in pts:
            _, h2 = pair.profile.heights(x[:-1])
            want.append((float(x[-1]) - h2) / (pair.eps + pair.profile.relative(x[:-1])))
        assert got.shape == (len(pts),)
        assert np.array_equal(got, np.array(want))
        assert got.tobytes() == np.array(want).tobytes()
        assert all(cf.neck_potential(pair, x) == v for x, v in zip(pts, got.tolist()))

    def test_array_error_names_first_bad_point(self):
        pair = quad_pair(1e-3)
        with pytest.raises(GeometryError, match=r"^point \[0\. 1\.\] lies outside the gap strip$"):
            cf.neck_potential(pair, [[0.0, 5e-4], [0.0, 1.0], [1.5, 0.0]])
        with pytest.raises(GeometryError, match=r"^\|x'\| = 1\.5 outside the neck range 1\.0$"):
            cf.neck_potential(pair, [[0.0, 5e-4], [1.5, 0.0], [0.0, 1.0]])
        with pytest.raises(GeometryError, match=r"got shape \(2, 3\)"):
            cf.neck_potential(pair, np.zeros((2, 3)))


class TestErrorScales:
    def test_order_scale_examples(self):
        assert cf.energy_error_scale_m(2.0**-12, 2, 3) == pytest.approx(0.5, rel=1e-12)
        assert cf.energy_error_scale_m(1e-4, 3, 4) == pytest.approx(1e-4 ** 0.125, rel=1e-12)
        # logarithmic branch takes the slower of its two terms
        val = cf.energy_error_scale_m(1e-8, 3, 2)
        assert val == pytest.approx(max(1e-4, 1e-2 * abs(math.log(1e-8))), rel=1e-12)


class TestConstantsReport:
    def test_adjudication_dimension2(self):
        params = cf.AsymptoticParams(n=2, m=2.0, coefficient=1.0, eps=1e-8, curvatures=(2.0,))
        rep = cf.constants_report(params)
        assert rep.printed_over_oracle == pytest.approx(1.0, rel=1e-14)
        assert rep.quadrature_over_oracle == pytest.approx(1.0, abs=2e-4)
        assert rep.curvature_constant == pytest.approx(math.pi, rel=1e-14)
        assert abs(rep.profile_constant_difference) <= 1e-9

    def test_adjudication_dimension3_factor_two(self):
        params = cf.AsymptoticParams(n=3, m=2.0, coefficient=1.0, eps=1e-10, curvatures=(2.0, 2.0))
        rep = cf.constants_report(params)
        assert rep.printed_over_oracle == pytest.approx(0.5, rel=1e-14)

    def test_coefficient_power_discrepancy(self):
        # the printed form carries the coefficient power on the opposite side
        lam = 2.0
        ratio = cf.printed_energy_constant(2, 4.0, lam) / cf.energy_limit_constant(2, 4.0, lam)
        assert ratio == pytest.approx(0.5 * lam**0.5, rel=1e-14)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            cf.AsymptoticParams(n=3, m=1.5, coefficient=1.0, eps=1e-3)
        with pytest.raises(ValueError):
            cf.AsymptoticParams(n=2, m=4.0, coefficient=1.0, eps=1e-3, curvatures=(1.0,))

    @pytest.mark.parametrize(
        "fields,key",
        [
            (dict(n=1), "n"),
            (dict(n=3, m=1.5), "m"),
            (dict(m=4.0, curvatures=(1.0,)), "m"),
            (dict(coefficient=1e300), "coefficient"),
            (dict(n=3, m=2.000000001, coefficient=1e200), "coefficient"),
            (dict(eps=1e-310), "eps"),
            (dict(curvatures=(1.0, 32.0)), "curvatures"),
            (dict(n=3, curvatures=()), "curvatures"),
            (dict(n=3, curvatures=(1e200, 1e200)), "curvatures"),
            (dict(m=40.0, neck_radius=1e10), "neck_radius"),
        ],
    )
    def test_params_name_the_field_at_fault(self, fields, key):
        from neckfield import InputError

        with pytest.raises(InputError) as err:
            cf.AsymptoticParams(**{"n": 2, "m": 2.0, "coefficient": 1.0, "eps": 1e-8, **fields})
        assert err.value.keys[0] == key
        assert str(err.value).startswith(f"{key} must be ")

    @pytest.mark.parametrize(
        "n,curvatures,coefficient",
        [(2, (2.0,), 1.0), (3, (2.0,), 1.0), (3, (2.0, 2.0), 1.0), (3, (1.0, 2.0), math.sqrt(2.0) / 2.0)],
    )
    def test_curvatures_give_the_coefficient(self, n, curvatures, coefficient):
        # One curvature stands for all n - 1; the profile is sum(lam_j x_j**2)/2.
        params = cf.AsymptoticParams(n=n, m=2.0, coefficient=7.0, eps=1e-8, curvatures=curvatures)
        assert params.coefficient == coefficient
