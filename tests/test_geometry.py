import numpy as np
import pytest

from neckfield.geometry import (
    GeometryError,
    InclusionPair,
    NeckProfile,
    ProfileKind,
)


def quad_profile(lam=2.0, split=(0.5, 0.5)):
    return NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(lam,), split=split)


def power_profile(m, lam, split=(0.5, 0.5)):
    return NeckProfile(kind=ProfileKind.POWER_LAW, order=m, coefficient=lam, split=split)


class TestProfileHeights:
    def test_quadratic_tangency_at_origin(self):
        h1, h2 = quad_profile(lam=2.0).heights([0.0])
        assert h1 == 0.0 and h2 == 0.0

    def test_power_law_one_sided_split(self):
        prof = power_profile(4.0, 1.0, split=(1.0, 0.0))
        h1, h2 = prof.heights([0.5])
        assert h1 == pytest.approx(0.0625, abs=0)
        assert h2 == 0.0

    def test_relative_profile_independent_of_split(self):
        for split in ((0.5, 0.5), (0.3, 0.7), (0.9, 0.1)):
            prof = quad_profile(lam=2.0, split=split)
            h1, h2 = prof.heights([0.1])
            assert h1 - h2 == pytest.approx(0.01, rel=1e-14)

    def test_out_of_range_rejected(self):
        pair = InclusionPair(2, quad_profile(), 1e-3)
        with pytest.raises(GeometryError):
            pair.heights([1.5])


def _former_relative_line(prof, x):
    """The former ``NeckProfile.relative_line``: one transverse variable."""
    if prof.kind is ProfileKind.QUADRATIC:
        (lam,) = prof.curvatures
        return 0.5 * (float(lam) * x * x)
    return prof.coefficient * np.array([r**prof.order for r in np.sqrt(x * x).tolist()])


def _former_relative_rows(prof, xp):
    """The former ``closed_forms._relative_rows``: one point per row."""
    if prof.kind is ProfileKind.QUADRATIC:
        return 0.5 * np.sum(np.asarray(prof.curvatures, dtype=float) * xp * xp, axis=1)
    r = np.sqrt(np.sum(xp * xp, axis=1))
    return np.array([prof.coefficient * ri**prof.order for ri in r.tolist()], dtype=float)


LINE_PROFILES = [quad_profile(2.0), quad_profile(3.7), power_profile(4.0, 4.0), power_profile(3.3, 1.7)]


class TestRelativeRows:
    @pytest.fixture
    def line(self):
        rng = np.random.default_rng(20261019)
        return np.concatenate([[0.0, 1e-300, 0.5, -0.5, 1.0, -1.0], rng.uniform(-1.0, 1.0, 4000)])

    @pytest.mark.parametrize("prof", LINE_PROFILES, ids=["quad2", "quad3.7", "power4", "power3.3"])
    def test_rows_equal_former_formulas_bitwise(self, prof, line):
        got = prof.relative(line[:, None])
        assert got.shape == line.shape
        assert got.tobytes() == _former_relative_line(prof, line).tobytes()
        assert got.tobytes() == _former_relative_rows(prof, line[:, None]).tobytes()
        assert [prof.relative([t]) for t in line.tolist()] == got.tolist()
        assert [prof.relative_radial(abs(t)) for t in line.tolist()] == got.tolist()

    @pytest.mark.parametrize(
        "prof",
        [NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(1.5, 2.5)), power_profile(3.3, 1.7)],
        ids=["quad-two-curvatures", "power"],
    )
    def test_plane_rows_equal_former_formula_bitwise(self, prof):
        xp = np.random.default_rng(7).uniform(-0.7, 0.7, size=(3000, 2))
        got = prof.relative(xp)
        assert got.tobytes() == _former_relative_rows(prof, xp).tobytes()
        assert [prof.relative(row) for row in xp] == got.tolist()

    def test_single_point_gives_a_float(self):
        assert type(quad_profile().relative([0.3])) is float
        assert type(power_profile(4.0, 4.0).relative(0.3)) is float
        assert type(NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(1.5, 2.5)).relative([0.1, 0.2])) is float
        assert type(power_profile(3.3, 1.7).relative(np.array([0.1, 0.2]))) is float

    def test_wrong_width_rejected(self):
        with pytest.raises(GeometryError, match="neither"):
            quad_profile().relative([0.1, 0.2])
        with pytest.raises(GeometryError, match="neither"):
            quad_profile().relative(np.zeros((3, 2)))
        with pytest.raises(GeometryError, match="neither"):
            power_profile(4.0, 4.0).relative(np.zeros((2, 2, 1)))


class TestGap:
    def test_gap_at_origin_is_eps(self):
        pair = InclusionPair(2, power_profile(2.0, 1.0), 1e-3)
        assert pair.gap([0.0]) == pytest.approx(1e-3, rel=0)

    def test_gap_formula(self):
        pair = InclusionPair(2, power_profile(2.0, 1.0), 1e-3)
        assert pair.gap([0.1]) == pytest.approx(0.011, rel=1e-12)

    def test_touching_limit(self):
        pair = InclusionPair(2, power_profile(2.0, 1.0), 0.0)
        assert pair.gap([0.0]) == 0.0

    def test_gap_minimal_at_origin(self):
        pair = InclusionPair(2, quad_profile(), 1e-4)
        rng = np.random.default_rng(20260810)
        for x in rng.uniform(-0.99, 0.99, size=200):
            if x != 0.0:
                assert pair.gap([x]) > pair.eps


class TestInNeck:
    @pytest.fixture
    def pair(self):
        return InclusionPair(2, quad_profile(), 1e-3)

    def test_gap_midpoint(self, pair):
        assert pair.in_neck([0.0, pair.eps / 2])

    def test_neck_radius_parameter(self, pair):
        # a point past the default neck radius still counts inside a wider one
        x = [0.7, 0.0]
        assert not pair.in_neck(x)
        assert pair.in_neck(x, r=0.9)

    def test_neck_consistency_with_heights(self, pair):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = rng.uniform(-0.6, 0.6)
            y = rng.uniform(-0.2, 0.2)
            h1, h2 = pair.profile.heights([x])
            expect = abs(x) < pair.neck_radius and h2 < y < pair.eps + h1
            assert pair.in_neck([x, y]) == expect


class TestCaps:
    def test_tangent_matching(self):
        # cap circle slope equals the profile slope at the junction
        pair = InclusionPair(2, quad_profile(), 1e-3)
        cap1, cap2 = pair.caps()
        r0 = pair.neck_radius
        h1, h2 = pair.profile.heights([r0])
        # point on circle at the junction
        dx = r0 - 0.0
        dy = pair.eps + h1 - cap1.center_height
        assert dx * dx + dy * dy == pytest.approx(cap1.radius**2, rel=1e-12)
        slope_circle = -dx / dy
        s1 = pair.profile.split[0]
        slope_profile = s1 * pair.profile.relative_slope_radial(r0)
        assert slope_circle == pytest.approx(slope_profile, rel=1e-12)
        dy2 = h2 - cap2.center_height
        assert r0 * r0 + dy2 * dy2 == pytest.approx(cap2.radius**2, rel=1e-12)

    def test_separation_enforced(self):
        # a huge flat inclusion would reach the outer boundary
        with pytest.raises(GeometryError):
            InclusionPair(2, power_profile(4.0, 1.0), 1e-3)

    def test_power_m4_fits_with_larger_coefficient(self):
        InclusionPair(2, power_profile(4.0, 4.0), 1e-3)


class TestValidation:
    def test_negative_curvature_rejected(self):
        with pytest.raises(GeometryError):
            NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(-1.0,))

    def test_small_order_rejected(self):
        with pytest.raises(GeometryError):
            NeckProfile(kind=ProfileKind.POWER_LAW, order=1.5, coefficient=1.0)

    def test_split_must_sum_to_one(self):
        with pytest.raises(GeometryError):
            NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(1.0,), split=(0.6, 0.6))

    def test_one_sided_split_cannot_close(self):
        with pytest.raises(GeometryError):
            InclusionPair(2, power_profile(2.0, 1.0, split=(1.0, 0.0)), 1e-3)

    def test_negative_gap_rejected(self):
        with pytest.raises(GeometryError):
            InclusionPair(2, quad_profile(), -1e-3)

    @pytest.mark.parametrize(
        "field,value",
        [("eps", float("nan")), ("eps", float("inf")), ("outer_radius", float("inf")),
         ("separation", float("nan")), ("neck_radius", float("nan"))],
    )
    def test_non_finite_length_rejected(self, field, value):
        lengths = {"eps": 1e-3, field: value}
        with pytest.raises(GeometryError, match=f"{field} must be finite, got {value}"):
            InclusionPair(2, quad_profile(), **lengths)

    @pytest.mark.parametrize(
        "profile",
        [lambda: quad_profile(lam=float("nan")), lambda: quad_profile(lam=float("inf")),
         lambda: power_profile(float("nan"), 4.0), lambda: power_profile(4.0, float("nan"))],
        ids=["curvature-nan", "curvature-inf", "order-nan", "coefficient-nan"],
    )
    def test_non_finite_profile_rejected(self, profile):
        with pytest.raises(GeometryError, match="finite"):
            profile()

    def test_dimension3_needs_isotropy(self):
        prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(1.0, 2.0))
        with pytest.raises(GeometryError):
            InclusionPair(3, prof, 1e-3)

    def test_dimension3_radial_ok(self):
        prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0, 2.0))
        pair = InclusionPair(3, prof, 1e-3)
        assert pair.in_neck([0.0, 0.0, pair.eps / 2])


class TestDerivedScales:
    def test_power_equivalent_of_quadratic(self):
        m, lam = quad_profile(lam=2.0).power_equivalent()
        assert (m, lam) == (2.0, 1.0)

    def test_translation_family(self):
        pair = InclusionPair(2, quad_profile(), 1e-3)
        moved = pair.with_gap(1e-5)
        # the lower inclusion stays put; the upper one moves by the gap change
        assert moved.caps()[1] == pair.caps()[1]
        shift = moved.caps()[0].center_height - pair.caps()[0].center_height
        assert shift == pytest.approx(1e-5 - 1e-3, rel=1e-9)
        assert moved.eps == 1e-5 and moved.profile is pair.profile
