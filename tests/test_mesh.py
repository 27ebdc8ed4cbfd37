import hashlib
import time

import numpy as np
import pytest

from neckfield import mesh as mesh_module
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
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
    mesh_convex_polygon,
    refine_quadrisect,
    write_mesh_text,
)


@pytest.fixture(scope="module")
def pair():
    prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,))
    return InclusionPair(2, prof, 1e-2)


@pytest.fixture(scope="module")
def mesh(pair):
    return generate(pair, MeshParams(layers=4))


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
        cent = mesh.centroids()
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
    """Vertex and triangle bytes pinned to the meshes the per-candidate
    loop version of the far-field refiner produced."""

    def test_generate(self, mesh):
        assert _sha256(mesh) == "53e5e7fdd0298951a9d149bc078adf6bb03c61d35e8491aed55a23e97d8b05d7"

    def test_generate_touching(self, pair):
        mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        assert _sha256(mesh) == "a3016e7d3b4507519670c22de98b3bede795a35daff2195d331408f4809db61a"

    def test_convex_polygon(self):
        mesh = mesh_convex_polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), 0.2)
        assert _sha256(mesh) == "e8bd875e39ec2a94eebc6c6f7081ee7c23c81eb3889a86f9ac247dbbe058a4ca"


class TestIterationBudget:
    def test_small_batches_settle(self, pair, monkeypatch):
        # Ten insertions a pass take about 120 passes at the default h_far,
        # twice the fixed budget of 60 the refiner once had.
        monkeypatch.setattr(mesh_module, "_BATCH_LIMIT", 10)
        report = audit(generate(pair, MeshParams()))
        assert report.passed, report.failures
        assert report.far_min_angle_deg >= 20.0

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
