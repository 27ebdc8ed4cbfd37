import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neckfield import fem
from neckfield import mesh as mesh_module
from neckfield.conductivity import BoundaryData, solve_bundle
from neckfield.geometry import GeometryError, InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import (
    INCLUSION1,
    INCLUSION2,
    INTERIOR,
    OUTER,
    MeshError,
    MeshParams,
    audit,
    generate,
    generate_touching,
    refine_quadrisect,
    write_mesh_text,
)

from polygon_mesh import mesh_convex_polygon


@pytest.fixture(scope="module")
def pair():
    prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,))
    return InclusionPair(2, prof, 1e-2)


@pytest.fixture(scope="module")
def mesh(pair):
    return generate(pair, MeshParams(layers=4))


@pytest.fixture
def cold_far_field():
    """Clears the far-field cache before and after the test, so the test
    runs the refiner under its own settings and leaves no piece behind."""
    mesh_module._far_reference.cache_clear()
    yield
    mesh_module._far_reference.cache_clear()


class TestGenerate:
    def test_layer_count_on_strip_fibers(self, pair, mesh):
        # every station carries exactly layers+1 vertex rows
        for x in mesh.stations:
            rows = np.sum(np.abs(mesh.vertices[:, 0] - x) < 1e-15)
            assert rows >= mesh.layers + 1

    def test_audit_clean(self, mesh):
        report = audit(mesh)
        assert report.passed, report.failures
        assert report.boundary_loop_count == 3
        assert report.euler_characteristic == -1

    def test_far_field_quality(self, mesh):
        report = audit(mesh)
        assert report.far_min_angle_deg >= 20.0
        assert report.neck_triangle_count > 0

    def test_refining_far_field_grows_triangle_count(self, pair):
        coarse = generate(pair, MeshParams(h_far=0.4))
        fine = generate(pair, MeshParams(h_far=0.2))
        far_coarse = int((~coarse.neck).sum())
        far_fine = int((~fine.neck).sum())
        assert far_fine >= 2 * far_coarse

    def test_deterministic(self, pair):
        a = generate(pair, MeshParams())
        b = generate(pair, MeshParams())
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.boundary_tags, b.boundary_tags)

    def test_profile_interpolated_exactly(self, pair, mesh):
        # each station fiber spans exactly [h2, eps+h1] with layers+1 rows
        for x in mesh.stations:
            h1, h2 = pair.profile.heights([x])
            top = pair.eps + h1
            at_x = mesh.vertices[mesh.vertices[:, 0] == x]
            band = at_x[(at_x[:, 1] >= h2 - 1e-12) & (at_x[:, 1] <= top + 1e-12)]
            assert len(band) == mesh.layers + 1
            assert abs(band[:, 1].min() - h2) <= 1e-14
            assert abs(band[:, 1].max() - top) <= 1e-14

    def test_mirror_symmetry(self, mesh):
        keys = set(map(tuple, mesh.vertices))
        mirrored = set(map(tuple, np.column_stack([-mesh.vertices[:, 0] + 0.0, mesh.vertices[:, 1]])))
        assert keys == mirrored

    def test_neck_flags_match_region(self, pair, mesh):
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        for i in np.flatnonzero(mesh.neck)[::7]:
            assert pair.in_neck(cent[i])

    def test_outer_vertices_on_circle(self, mesh, pair):
        sel = mesh.vertex_tags == OUTER
        radii = np.hypot(mesh.vertices[sel, 0], mesh.vertices[sel, 1])
        assert np.abs(radii - pair.outer_radius).max() <= 1e-12


class TestGenerateErrors:
    def test_zero_gap_needs_touching_variant(self, pair):
        with pytest.raises(MeshError):
            generate(pair.with_gap(0.0), MeshParams())

    def test_too_few_layers(self):
        with pytest.raises(MeshError):
            MeshParams(layers=3)

    def test_machine_thin_gap(self, pair):
        with pytest.raises(MeshError):
            generate(pair.with_gap(1e-14), MeshParams())

    def test_dimension3_rejected(self):
        prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0, 2.0))
        with pytest.raises(MeshError):
            generate(InclusionPair(3, prof, 1e-3), MeshParams())


class TestTouching:
    def test_two_loops(self, pair):
        mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        report = audit(mesh)
        assert report.passed, report.failures
        assert report.boundary_loop_count == 2
        assert report.euler_characteristic == 0

    def test_bridge_carries_both_tags(self, pair):
        mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        bridge = np.abs(np.abs(mesh.vertices[:, 0]) - 0.05) < 1e-15
        tags = set(mesh.vertex_tags[bridge]) - {INTERIOR}
        assert tags == {INCLUSION1, INCLUSION2}

    def test_cut_radius_range(self, pair):
        with pytest.raises(MeshError):
            generate_touching(pair.with_gap(0.0), 0.4, MeshParams())
        with pytest.raises(MeshError):
            generate_touching(pair, 0.05, MeshParams())  # nonzero gap


class TestQuadrisect:
    def test_counts_and_audit(self, pair, mesh):
        fine = refine_quadrisect(mesh, pair)
        assert fine.triangle_count == 4 * mesh.triangle_count
        report = audit(fine)
        assert report.passed, report.failures
        assert report.boundary_loop_count == 3

    def test_boundary_midpoints_projected(self, pair, mesh):
        fine = refine_quadrisect(mesh, pair)
        sel = fine.vertex_tags == OUTER
        radii = np.hypot(fine.vertices[sel, 0], fine.vertices[sel, 1])
        assert np.abs(radii - pair.outer_radius).max() <= 1e-12

    def test_neck_flags_inherited(self, pair, mesh):
        fine = refine_quadrisect(mesh, pair)
        assert int(fine.neck.sum()) == 4 * int(mesh.neck.sum())

    @pytest.mark.parametrize("touching", [False, True])
    def test_station_columns_split_in_two(self, pair, mesh, touching):
        if touching:
            pair = pair.with_gap(0.0)
            mesh = generate_touching(pair, 0.05, MeshParams())
        columns = np.unique(mesh.neck_column_x[mesh.neck])
        fine = refine_quadrisect(mesh, pair)
        s = fine.stations
        assert len(s) == len(mesh.stations) + len(columns)
        assert np.all(np.diff(s) > 0.0)
        assert len(np.unique(fine.neck_column_x[fine.neck])) == 2 * len(columns)
        # Each neck child spans exactly the half-column whose centre it carries.
        c = fine.neck_column_x[fine.neck]
        k = np.searchsorted(s, c)
        x = fine.vertices[fine.triangles[fine.neck], 0]
        assert np.array_equal(x.min(axis=1), s[k - 1])
        assert np.array_equal(x.max(axis=1), s[k])
        assert np.array_equal(c, 0.5 * (s[k - 1] + s[k]))
        assert np.all(np.isnan(fine.neck_column_x[~fine.neck]))


class TestExport:
    def test_text_format_roundtrip_counts(self, mesh):
        text = write_mesh_text(mesh)
        lines = text.strip().splitlines()
        nv, ne, nt = map(int, lines[0].split())
        assert nv == mesh.vertex_count and nt == mesh.triangle_count
        nb = len(lines) - 1 - nv - nt
        assert nb == len(mesh.boundary_edges)
        # vertex lines parse back exactly
        x, y = map(float, lines[1].split())
        assert (x, y) == (mesh.vertices[0, 0], mesh.vertices[0, 1])
        tag = lines[-1].split()[2]
        assert tag in ("outer", "inclusion1", "inclusion2")


def _edge_counts_loop(mesh):
    counts = {}
    for tri in mesh.triangles.tolist():
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestEdgeIndex:
    @pytest.mark.parametrize("touching", [False, True])
    def test_matches_loop(self, pair, mesh, touching):
        if touching:
            mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        ref = _edge_counts_loop(mesh)
        edges, counts = mesh.edge_index()
        assert [tuple(e) for e in edges.tolist()] == sorted(ref)
        assert counts.tolist() == [ref[e] for e in sorted(ref)]
        report = audit(mesh)
        assert report.passed, report.failures
        assert report.edge_count == len(ref)
        assert report.euler_characteristic == mesh.vertex_count - len(ref) + mesh.triangle_count
        assert report.boundary_loop_count == (2 if touching else 3)

    def test_audit_counts_overshared_edges(self):
        verts = np.array([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 2]], float)
        tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        fan = mesh_module.Mesh(
            vertices=verts,
            triangles=tris,
            boundary_edges=np.array([[0, 2], [1, 2], [0, 3], [1, 3], [0, 4], [1, 4]]),
            boundary_tags=np.full(6, OUTER),
            vertex_tags=np.full(5, OUTER),
            neck=np.zeros(3, bool),
            neck_column_x=np.full(3, np.nan),
            stations=np.array([]),
            layers=4,
        )
        report = audit(fan)
        assert report.edge_count == len(_edge_counts_loop(fan)) == 7
        assert "1 edges shared by more than two triangles" in report.failures
        assert "2 non-manifold boundary vertices" in report.failures


_SQUARE_RIM = [(0, 1, OUTER), (1, 2, OUTER), (2, 3, OUTER), (3, 0, OUTER)]


def _square(segments):
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    return mesh_module._Piece(vertices=verts, triangles=np.array([[0, 1, 2], [0, 2, 3]]), segments=segments)


def _glue(*pieces):
    return mesh_module._finalize(np.asarray([]), 4, mesh_module._merge_pieces(list(pieces)))


class TestMergeFinalize:
    def test_degenerate_triangle(self):
        piece = mesh_module._Piece(
            vertices=np.array([[0, 0], [1, 0], [2, 0]], float),
            triangles=np.array([[0, 1, 2]]),
            segments=[(0, 1, OUTER), (1, 2, OUTER), (2, 0, OUTER)],
        )
        with pytest.raises(MeshError, match=r"^degenerate triangle produced during merge$"):
            _glue(piece)

    def test_conflicting_tags(self):
        with pytest.raises(MeshError, match=r"^conflicting tags on boundary edge \(0, 1\)$"):
            _glue(_square(_SQUARE_RIM + [(1, 0, INCLUSION1)]))

    def test_boundary_mismatch(self):
        segments = [(0, 1, OUTER), (1, 2, OUTER), (3, 0, OUTER), (0, 2, OUTER)]
        with pytest.raises(
            MeshError, match=r"^boundary mismatch: 1 declared edges interior, 1 untagged boundary edges$"
        ):
            _glue(_square(segments))

    def test_incompatible_vertex_tags(self):
        segments = [(0, 1, INCLUSION1)] + _SQUARE_RIM[1:]
        with pytest.raises(MeshError, match=r"^boundary vertex carries edges of incompatible tags$"):
            _glue(_square(segments))

    def test_inclusion_tags_meet_as_inclusion1(self):
        segments = [(0, 1, INCLUSION2), (1, 2, INCLUSION2), (2, 3, INCLUSION1), (3, 0, INCLUSION1)]
        mesh = _glue(_square(segments))
        assert mesh.vertex_tags.tolist() == [INCLUSION1, INCLUSION2, INCLUSION1, INCLUSION1]

    def test_signed_zero_vertices_merge_keeping_first_coordinates(self):
        left = mesh_module._Piece(
            vertices=np.array([[-1.0, 0.0], [-0.0, 0.0], [-0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            segments=[(0, 1, OUTER), (2, 0, OUTER)],
        )
        right = mesh_module._Piece(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            segments=[(0, 1, OUTER), (1, 2, OUTER)],
        )
        mesh = _glue(left, right)
        assert mesh.vertex_count == 4
        assert mesh.vertices.tolist() == [[-1.0, 0.0], [-0.0, 0.0], [-0.0, 1.0], [1.0, 0.0]]
        assert np.signbit(mesh.vertices[1:3, 0]).all()
        assert mesh.triangles.tolist() == [[0, 1, 2], [1, 3, 2]]


class TestConvexHelper:
    def test_square(self):
        mesh = mesh_convex_polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), 0.2)
        report = audit(mesh)
        assert report.passed
        assert report.boundary_loop_count == 1
        assert np.isclose(mesh.areas().sum(), 1.0, atol=1e-12)


def _sha256(mesh):
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(mesh.vertices, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(mesh.triangles, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestPinnedBytes:
    """Vertex and triangle bytes pinned: the convex polygon to the loop
    version of the far-field refiner; the generated meshes and their
    quadrisections to the far field meshed at gap 0 and moved to the gap."""

    def test_generate(self, mesh):
        assert _sha256(mesh) == "842bf9ed9b9830d970d746ed8ead19810f14106f02adc6c5b8caf3902b2710be"

    def test_generate_touching(self, pair):
        mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        assert _sha256(mesh) == "450a5a0e8772c63415fc57ecdbc95ee9f948ab15927600e98544da977212876e"

    def test_convex_polygon(self):
        mesh = mesh_convex_polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), 0.2)
        assert _sha256(mesh) == "e8bd875e39ec2a94eebc6c6f7081ee7c23c81eb3889a86f9ac247dbbe058a4ca"

    def test_quadrisect_two_levels(self, pair, mesh):
        fine = refine_quadrisect(mesh, pair)
        assert _sha256(fine) == "20e777a7200d0f1ef686d8e5e07527c4d423f683a9b9e76715a864fcbf5cb4a1"
        finer = refine_quadrisect(fine, pair)
        assert _sha256(finer) == "843b14fe0abaeb1ac05369acf5ee56f90575900e3db05dcc260d9bf5554dd6a2"

    def test_quadrisect_quartic(self):
        prof = NeckProfile(kind=ProfileKind.POWER_LAW, order=4.0, coefficient=4.0)
        quartic = InclusionPair(2, prof, 1e-3)
        fine = refine_quadrisect(generate(quartic, MeshParams()), quartic)
        assert _sha256(fine) == "77d50a48cf8cfabc76f56cb11ef6bfe51d48d32681390e23b280771babc5cce6"

    def test_quadrisect_touching(self, pair):
        touching = pair.with_gap(0.0)
        fine = refine_quadrisect(generate_touching(touching, 0.05, MeshParams()), touching)
        assert _sha256(fine) == "e9d8303cfebacf75d03e0acfa5f414cd509337277c2205990682dcd373146fbb"


def _reference_gap(pair, params):
    end_fiber = mesh_module._fibers(pair, [pair.neck_radius], params.layers)[0]
    return mesh_module._far_half_piece(pair, params, end_fiber)[1]


def _wide_pair(order, eps, split=0.5, scale=1.0, neck_radius=0.5, outer_radius=5.0):
    # Order 0 is the quadratic profile; at scale 1 every profile has gap
    # 0.25 at x = 0.5.  The default outer radius leaves room for gaps up
    # to 0.9.
    if order == 0:
        prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0 * scale,), split=(split, 1.0 - split))
    else:
        coefficient = 0.25 * scale * 2.0**order
        prof = NeckProfile(kind=ProfileKind.POWER_LAW, order=float(order), coefficient=coefficient,
                           split=(split, 1.0 - split))
    return InclusionPair(2, prof, eps, neck_radius=neck_radius, outer_radius=outer_radius)


def _assert_solve_invariants(mesh):
    """Reciprocity, zero total flux, flux equal to energy and the maximum
    principle of the ``linear_xn`` solve on ``mesh``."""
    op = fem.assemble(mesh)
    bundle = solve_bundle(mesh, BoundaryData(kind="linear_xn"), op=op)
    assert abs(bundle.a12 - bundle.a21) / abs(bundle.a12) <= 1e-8
    # C3's 1e-10 bound at its energy of about 100, per unit energy: the
    # rounding in the flux sum grows with the energy, 1e-15 of it.
    flux = op.fluxes(bundle.v1)
    total = sum(flux[tag] for tag in (OUTER, INCLUSION1, INCLUSION2))
    assert abs(total) <= 1e-12 * bundle.a11
    # Flux equals energy, within C3's bound.
    energy = op.energy(bundle.v1)
    assert abs(bundle.a11 - energy) <= 1e-10 * energy
    for f in (bundle.v1, bundle.v2):
        assert f.values.min() >= -1e-10 and f.values.max() <= 1.0 + 1e-10


class TestMovedFarField:
    def test_cache_miss_and_hit_give_the_same_bytes(self, pair, cold_far_field):
        params = MeshParams()
        miss = generate(pair, params)
        assert mesh_module._far_reference.cache_info().misses == 1
        hit = generate(pair, params)
        assert mesh_module._far_reference.cache_info().hits == 1
        for name in (
            "vertices",
            "triangles",
            "boundary_edges",
            "boundary_tags",
            "vertex_tags",
            "neck",
            "neck_column_x",
            "stations",
        ):
            a, b = getattr(miss, name), getattr(hit, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert write_mesh_text(miss) == write_mesh_text(hit)

    def test_cached_arrays_are_read_only(self, pair):
        ref = mesh_module._far_reference(pair.with_gap(0.0), MeshParams())
        for a in (ref.vertices, ref.triangles, ref.fiber, ref.lift):
            assert not a.flags.writeable
        before = ref.vertices.tobytes()
        generate(pair.with_gap(0.05), MeshParams())
        assert ref.vertices.tobytes() == before

    def test_lift_boundary_values(self, pair):
        params = MeshParams()
        ref = mesh_module._far_reference(pair.with_gap(0.0), params)
        seg = np.asarray(ref.segments)
        for tag, value in ((INCLUSION1, 1.0), (INCLUSION2, 0.0), (OUTER, 0.0)):
            ends = np.setdiff1d(seg[seg[:, 2] == tag, :2], ref.fiber)
            assert np.all(ref.lift[ends] == value)
        assert np.array_equal(ref.lift[ref.fiber], np.arange(params.layers + 1) / params.layers)

    def test_large_gap_falls_back_to_its_own_far_field(self):
        params = MeshParams(h_far=0.4)
        for eps, expected in ((0.05, 0.0), (0.9, 0.9)):
            pair = _wide_pair(0, eps)
            assert _reference_gap(pair, params) == expected
            report = audit(generate(pair, params))
            assert report.passed, report.failures
            assert report.far_min_angle_deg >= 20.0
        # Only the gap-0 piece moves, so only it has a lift solved.
        assert mesh_module._far_reference(_wide_pair(0, 0.0), params).lift.any()
        assert not mesh_module._far_reference(_wide_pair(0, 0.9), params).lift.any()

    @settings(max_examples=20, deadline=None, derandomize=True)
    @example(log_eps=math.log10(0.9), order=0, refinement=1, geometry=(0.5, 1.0, 0.5, 5.0), layers=6)
    @example(log_eps=math.log10(0.9), order=6, refinement=0, geometry=(0.5, 1.0, 0.5, 5.0), layers=6)
    @given(
        log_eps=st.floats(math.log10(1e-8), math.log10(0.9)),
        order=st.sampled_from([0, 2, 3, 4, 5, 6]),
        refinement=st.integers(0, 2),
        # split of the upper inclusion, coefficient scale, neck radius, outer radius
        geometry=st.tuples(st.floats(0.3, 0.7), st.floats(0.5, 2.0), st.floats(0.3, 0.7), st.floats(4.5, 6.0)),
        layers=st.integers(4, 8),
    )
    def test_moved_meshes_keep_the_invariants(self, log_eps, order, refinement, geometry, layers):
        try:
            pair = _wide_pair(order, 10.0**log_eps, *geometry)
        except GeometryError:
            assume(False)
        params = MeshParams(layers=layers, h_far=0.5, refinement=refinement)
        mesh = generate(pair, params)
        report = audit(mesh)  # the mirror included
        assert mesh.mirror is not None
        assert report.passed, report.failures
        assert report.far_min_angle_deg >= 20.0
        mirrored = np.column_stack([-mesh.vertices[:, 0] + 0.0, mesh.vertices[:, 1]])
        assert set(map(tuple, mesh.vertices.tolist())) == set(map(tuple, mirrored.tolist()))
        # The moved upper cap stays on the upper inclusion's circle.
        cap1, _ = pair.caps()
        on_cap = mesh.vertex_tags == INCLUSION1
        on_cap[mesh.triangles[mesh.neck]] = False  # the strip's vertices lie on the profile graph
        radii = np.hypot(mesh.vertices[on_cap, 0], mesh.vertices[on_cap, 1] - cap1.center_height)
        assert np.abs(radii - cap1.radius).max() <= 1e-12

        _assert_solve_invariants(mesh)
        if refinement == 0:
            # A quadrisected mesh keeps them too, its mirror included.
            finer = refine_quadrisect(mesh, pair)
            assert finer.mirror is not None
            report = audit(finer)
            assert report.passed, report.failures
            _assert_solve_invariants(finer)

        if _reference_gap(pair, params) == 0.0:
            ref = mesh_module._far_reference(pair.with_gap(0.0), params)
            on_axis = int(np.sum(ref.vertices[:, 0] == 0.0))
            assert len(np.unique(mesh.triangles[~mesh.neck])) == 2 * len(ref.vertices) - on_axis


class TestIterationBudget:
    def test_small_batches_settle(self, pair, cold_far_field, monkeypatch):
        # Ten insertions a pass take about 120 passes at the default h_far,
        # twice the fixed budget of 60 the refiner once had.
        monkeypatch.setattr(mesh_module, "_BATCH_LIMIT", 10)
        report = audit(generate(pair, MeshParams()))
        assert report.passed, report.failures
        assert report.far_min_angle_deg >= 20.0

    def test_qhull_failure_is_a_mesh_error(self, pair, cold_far_field, monkeypatch):
        import scipy.spatial

        def degenerate(points):
            raise scipy.spatial.QhullError("QH6154 initial simplex is flat")

        monkeypatch.setattr(scipy.spatial, "Delaunay", degenerate)
        with pytest.raises(MeshError, match="Delaunay triangulation failed: QH6154") as err:
            generate(pair, MeshParams())
        assert isinstance(err.value.__cause__, scipy.spatial.QhullError)

    def test_over_budget_refinement_fails_at_once(self, pair):
        params = MeshParams(refinement=8)
        with pytest.raises(MeshError, match=r"needs about 241275 points, above the budget of 200000"):
            params.check_budget(pair.outer_radius)
        t0 = time.perf_counter()
        with pytest.raises(MeshError, match="above the budget of 200000"):
            generate(pair, params)
        assert time.perf_counter() - t0 < 5.0

    def test_supported_refinement_within_budget(self, pair):
        MeshParams(refinement=7).check_budget(pair.outer_radius)


def _points_inside_loop(poly, query):
    # Reference: the even-odd rule one polygon edge at a time.
    x, y = query[:, 0], query[:, 1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    inside = np.zeros(len(query), dtype=bool)
    for i in range(len(poly)):
        cond = (y0[i] > y) != (y1[i] > y)
        t = (y[cond] - y0[i]) / (y1[i] - y0[i])
        xc = x0[i] + t * (x1[i] - x0[i])
        idx = np.flatnonzero(cond)[x[cond] < xc]
        inside[idx] = ~inside[idx]
    return inside


def _screen_loop(cands, inside, pts, mid, rad2, seg_prot, size_fn):
    # Reference: the greedy candidate screen one candidate at a time.
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    accepted, split = [], set()
    for cand, ok in zip(cands, inside):
        if not ok:
            owner = int(np.argmin(np.sum((mid - cand) ** 2, axis=1)))
            if not seg_prot[owner]:
                split.add(owner)
            continue
        hit = np.flatnonzero(np.sum((mid - cand) ** 2, axis=1) < rad2 * (1.0 - 1e-12))
        if len(hit):
            if not seg_prot[hit].any():
                split.update(hit.tolist())
            continue
        local = float(size_fn(cand[None, :])[0])
        if tree.query(cand)[0] < 0.45 * local:
            continue
        if any(np.hypot(*(cand - q)) < 0.45 * local for q in accepted):
            continue
        accepted.append(cand)
    return np.asarray(accepted).reshape(-1, 2), sorted(split)


class TestArrayKernels:
    """The array kernels of the far-field refiner against loop references."""

    @pytest.fixture
    def star(self):
        # Non-convex polygon whose vertices share y values with query points.
        rng = np.random.default_rng(7)
        theta = np.linspace(0.0, 2.0 * np.pi, 41)[:-1]
        radius = 1.0 + 0.4 * rng.random(len(theta))
        poly = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
        query = rng.uniform(-1.6, 1.6, size=(3000, 2))
        query[:40, 1] = poly[:, 1]
        query[40:80] = poly
        return poly, query

    def test_points_inside_matches_loop(self, star, monkeypatch):
        poly, query = star
        expected = _points_inside_loop(poly, query)
        assert np.array_equal(mesh_module._points_inside(poly, query), expected)
        monkeypatch.setattr(mesh_module, "_PAIR_CHUNK", 7)
        assert np.array_equal(mesh_module._points_inside(poly, query), expected)

    def test_screen_candidates_matches_loop(self, star):
        poly, _ = star
        rng = np.random.default_rng(11)
        a, b = poly, np.roll(poly, -1, axis=0)
        mid = 0.5 * (a + b)
        rad2 = np.sum((a - mid) ** 2, axis=1)
        seg_prot = rng.random(len(poly)) < 0.2
        pts = rng.uniform(-1.0, 1.0, size=(60, 2))
        cands = rng.uniform(-1.5, 1.5, size=(400, 2))
        inside = mesh_module._points_inside(poly, cands)

        def size_fn(p):
            return 0.05 + 0.1 * np.hypot(p[:, 0], p[:, 1])

        accepted, split = mesh_module._screen_candidates(cands, inside, pts, mid, rad2, seg_prot, size_fn)
        ref_accepted, ref_split = _screen_loop(cands, inside, pts, mid, rad2, seg_prot, size_fn)
        assert len(ref_accepted) > 10 and len(ref_split) > 5
        assert np.array_equal(accepted, ref_accepted)
        assert split.tolist() == ref_split


def _strip_loop(pair, params, x_start, bridge):
    # The former strip builder: one fiber per station, one quad at a time.
    xs = mesh_module._neck_stations(pair, params, x_start)
    ns, nl = len(xs), params.layers
    rows = nl + 1

    def fiber(x):
        h1, h2 = pair.profile.heights([x])
        y = h2 + (np.arange(nl + 1) / nl) * (pair.eps + pair.profile.relative([x]))
        y[-1] = pair.eps + h1
        return np.column_stack([np.full(nl + 1, x), y])

    verts = np.concatenate([fiber(x) for x in xs])
    tris, col_x, segments = [], [], []
    for s in range(ns - 1):
        b0, b1 = s * rows, (s + 1) * rows
        mid = 0.5 * (xs[s] + xs[s + 1])
        for j in range(nl):
            tris += [(b0 + j, b1 + j, b1 + j + 1), (b0 + j, b1 + j + 1, b0 + j + 1)]
            col_x += [mid, mid]
    for s in range(ns - 1):
        segments += [(s * rows, (s + 1) * rows, INCLUSION2), (s * rows + nl, (s + 1) * rows + nl, INCLUSION1)]
    if bridge:
        h1, h2 = pair.profile.heights([x_start])
        mid_curve = 0.5 * (pair.eps + h1 + h2)
        for j in range(nl):
            ymid = 0.5 * (verts[j, 1] + verts[j + 1, 1])
            segments.append((j, j + 1, INCLUSION1 if ymid > mid_curve else INCLUSION2))
    return verts, np.asarray(tris, dtype=np.int64), segments, np.asarray(col_x), xs


def _project_loop(mesh, pair, a, b, mid):
    # The former projection: one boundary midpoint at a time.
    cap1, cap2 = pair.caps()

    def on_profile(i, upper):
        x, y = mesh.vertices[i]
        if abs(x) > pair.neck_radius + 1e-12:
            return False
        h1, h2 = pair.profile.heights([x])
        ref = pair.eps + h1 if upper else h2
        return abs(y - ref) <= 1e-9 * max(1.0, abs(ref))

    def project(i, j, tag, m):
        pa, pb = mesh.vertices[i], mesh.vertices[j]
        if tag == OUTER:
            return m * (pair.outer_radius / math.hypot(m[0], m[1]))
        if abs(pa[0] - pb[0]) <= 1e-14:
            return m
        upper = tag == INCLUSION1
        if on_profile(i, upper) and on_profile(j, upper):
            h1, h2 = pair.profile.heights([m[0]])
            return np.array([m[0], pair.eps + h1 if upper else h2])
        cap = cap1 if upper else cap2
        center = np.array([0.0, cap.center_height])
        d = m - center
        return center + d * (cap.radius / math.hypot(d[0], d[1]))

    out = mid.copy()
    for k, (i, j, tag) in enumerate(zip(a.tolist(), b.tolist(), mesh.boundary_tags.tolist())):
        out[k] = project(i, j, tag, mid[k])
    return out


def _profile_pair(kind, eps, split=(0.5, 0.5), outer_radius=4.0):
    if kind == "quadratic":
        prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,), split=split)
    else:
        prof = NeckProfile(kind=ProfileKind.POWER_LAW, order=float(kind), coefficient=4.0, split=split)
    return InclusionPair(2, prof, eps, outer_radius=outer_radius)


class TestArrayBits:
    """The array strip and boundary projection against their former
    one-station and one-edge loops, byte for byte."""

    @pytest.mark.parametrize("kind", ["quadratic", "4", "6"])
    @pytest.mark.parametrize("eps", [1e-8, 1e-5, 1e-3, 0.1, 0.5])
    def test_strip_matches_fiber_loop(self, kind, eps):
        # A wide outer circle admits the flat order-6 caps at large gaps.
        pair = _profile_pair(kind, eps, split=(0.6, 0.4) if eps == 0.1 else (0.5, 0.5), outer_radius=8.0)
        self._check_strip(pair, MeshParams(), 0.0, False)

    @pytest.mark.parametrize("kind", ["quadratic", "4", "6"])
    @pytest.mark.parametrize("r_cut", [0.02, 0.08])
    def test_bridge_strip_matches_fiber_loop(self, kind, r_cut):
        pair = _profile_pair(kind, 0.0)
        piece = self._check_strip(pair, MeshParams(layers=5), r_cut, True)
        assert {tag for _, _, tag in piece.segments[-5:]} == {INCLUSION1, INCLUSION2}

    @staticmethod
    def _check_strip(pair, params, x_start, bridge):
        piece, xs, end_fiber = mesh_module._strip_piece(pair, params, x_start, bridge)
        verts, tris, segments, col_x, ref_xs = _strip_loop(pair, params, x_start, bridge)
        assert piece.vertices.tobytes() == verts.tobytes()
        assert piece.triangles.dtype == tris.dtype and np.array_equal(piece.triangles, tris)
        assert [tuple(s) for s in piece.segments] == segments
        assert piece.neck.dtype == bool and piece.neck.all() and len(piece.neck) == len(tris)
        assert piece.column_x.tobytes() == col_x.tobytes()
        assert xs.tobytes() == ref_xs.tobytes()
        assert end_fiber.tobytes() == verts[-(params.layers + 1):].tobytes()
        return piece

    @pytest.mark.parametrize("case", ["ladder", "touching", "quartic"])
    def test_quadrisection_matches_projection_loop(self, case, monkeypatch):
        if case == "ladder":
            pair = _profile_pair("quadratic", 1e-3)
            meshes = [generate(pair, MeshParams())]
            for _ in range(2):
                meshes.append(refine_quadrisect(meshes[-1], pair))
        elif case == "touching":
            pair = _profile_pair("quadratic", 0.0)
            meshes = [generate_touching(pair, 0.05, MeshParams())]
        else:
            pair = _profile_pair("4", 1e-3)
            meshes = [generate(pair, MeshParams())]
        for coarse in meshes:
            got = refine_quadrisect(coarse, pair)
            with monkeypatch.context() as patch:
                patch.setattr(mesh_module, "_project_midpoints", _project_loop)
                want = refine_quadrisect(coarse, pair)
            for name in ("vertices", "triangles", "boundary_edges", "boundary_tags", "vertex_tags", "neck_column_x"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
