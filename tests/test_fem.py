import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded
from scipy.sparse import csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from neckfield import fem
from neckfield.conductivity import BoundaryData, solve_bundle, solve_components, solve_constants
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import (
    INCLUSION1,
    INCLUSION2,
    INTERIOR,
    OUTER,
    Mesh,
    MeshParams,
    generate,
    audit,
    generate_touching,
    refine_quadrisect,
)

from polygon_mesh import mesh_convex_polygon


def unit_square_two_triangles():
    # Centred on the axis and cut by one diagonal, so both triangles cross it.
    verts = np.array([[-0.5, 0], [0.5, 0], [0.5, 1], [-0.5, 1]], float)
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=np.array([[0, 1], [1, 2], [2, 3], [0, 3]]),
        boundary_tags=np.array([OUTER] * 4),
        vertex_tags=np.array([OUTER] * 4),
        neck=np.zeros(2, bool),
        neck_column_x=np.full(2, np.nan),
        stations=np.array([]),
        mirror=np.array([1, 0, 3, 2]),
    )


@pytest.fixture(scope="module")
def pair():
    prof = NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,))
    return InclusionPair(2, prof, 1e-3)


@pytest.fixture(scope="module")
def op(pair):
    return fem.assemble(generate(pair, MeshParams()))


@pytest.fixture(scope="module")
def v1(op):
    return op.solve_dirichlet({INCLUSION1: 1.0, INCLUSION2: 0.0, OUTER: 0.0})


@pytest.fixture(scope="module")
def k(op):
    return fem.stiffness_matrix(op.mesh.vertices, op.mesh.triangles)


class TestAssembly:
    def test_unit_square_textbook_entries(self):
        mesh = unit_square_two_triangles()
        k = fem.stiffness_matrix(mesh.vertices, mesh.triangles).toarray()
        expect = np.array(
            [
                [1.0, -0.5, 0.0, -0.5],
                [-0.5, 1.0, -0.5, 0.0],
                [0.0, -0.5, 1.0, -0.5],
                [-0.5, 0.0, -0.5, 1.0],
            ]
        )
        assert np.allclose(k, expect, atol=1e-15)

    def test_mirror_must_halve_the_triangles(self):
        with pytest.raises(fem.SolverError, match=r"^the mirror does not split the triangles into two halves$"):
            fem.assemble(unit_square_two_triangles())

    def test_row_sums_vanish(self, k):
        sums = np.abs(np.asarray(k.sum(axis=1))).max()
        assert sums <= 1e-12

    def test_exact_symmetry(self, k):
        diff = k - k.T
        defect = np.abs(diff.data).max() if diff.nnz else 0.0
        assert defect <= 1e-14

    def test_positive_semidefinite_on_samples(self, k):
        rng = np.random.default_rng(20260810)
        for _ in range(5):
            x = rng.standard_normal(k.shape[0])
            assert x @ (k @ x) >= -1e-9


def _symmetrized_stiffness(vertices, triangles):
    # The former assembly, which symmetrized K as (K + K') / 2.
    p = vertices[triangles]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    area2 = e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0])
    local = np.einsum("tid,tjd->tij", e, e) / (2.0 * area2)[:, None, None]
    rows = np.repeat(triangles, 3, axis=1).reshape(-1)
    cols = np.tile(triangles, (1, 3)).reshape(-1)
    k = sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(len(vertices), len(vertices))).tocsr()
    return ((k + k.T) * 0.5).tocsr(), int(np.count_nonzero(k.data == 0.0))


class TestAssemblyBits:
    @pytest.mark.parametrize("case", ["default", "quadrisected", "touching", "quartic"])
    def test_equals_symmetrized_formula(self, pair, op, case):
        if case == "default":
            mesh = op.mesh
        elif case == "quadrisected":
            mesh = refine_quadrisect(op.mesh, pair)
        elif case == "touching":
            mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        else:
            quartic = InclusionPair(2, NeckProfile(kind=ProfileKind.POWER_LAW, order=4.0, coefficient=4.0), 1e-3)
            mesh = generate(quartic, MeshParams())
        want, zeros = _symmetrized_stiffness(mesh.vertices, mesh.triangles)
        got = fem.stiffness_matrix(mesh.vertices, mesh.triangles)
        if case == "quadrisected":
            assert zeros > 0  # the explicit zeros that eliminate_zeros drops
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


class TestSolve:
    def test_constant_data_gives_constant_field(self, op):
        f = op.solve_dirichlet({INCLUSION1: 3.5, INCLUSION2: 3.5, OUTER: 3.5})
        assert np.abs(f.values - 3.5).max() <= 1e-10

    def test_linear_reproduction_on_convex_mesh(self):
        # The rectangle [-1, 1] x [0, 1].
        mesh = mesh_convex_polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), 0.15)
        op = fem.assemble(mesh)
        lin = lambda pts: 3.0 * pts[:, 0] - 2.0 * pts[:, 1] + 0.5
        f = op.solve_dirichlet({OUTER: lin})
        assert np.abs(f.values - lin(mesh.vertices)).max() <= 1e-10
        grads = fem.element_gradients(f)
        assert np.abs(grads - np.array([3.0, -2.0])).max() <= 1e-10

    def test_maximum_principle(self, v1):
        assert v1.values.min() >= -1e-12
        assert v1.values.max() <= 1.0 + 1e-12

    def test_boundary_values_exact(self, op, v1):
        mesh = op.mesh
        assert np.all(v1.values[mesh.vertex_tags == INCLUSION1] == 1.0)
        assert np.all(v1.values[mesh.vertex_tags == INCLUSION2] == 0.0)

    def test_missing_tag_data_rejected(self, op):
        with pytest.raises(fem.SolverError):
            op.solve_dirichlet({INCLUSION1: 1.0})

    def test_cg_fallback_matches_direct(self, op):
        # Two columns of boundary data without symmetry, so both blocks are solved.
        rng = np.random.default_rng(20260810)
        u = np.zeros((op.mesh.vertex_count, 2))
        boundary = np.flatnonzero(op.mesh.vertex_tags != INTERIOR)
        u[boundary] = rng.standard_normal((len(boundary), 2))
        direct, iterative = u.copy(), u.copy()
        assert op._solve(direct, op._lu) <= 1e-10
        assert op._solve(iterative, op._cg) <= 1e-10
        scale = np.abs(direct).max()
        assert np.abs(direct - iterative).max() <= 1e-7 * scale

    def test_lu_failure_falls_back_to_cg(self, op, monkeypatch):
        # The small-block factor gets each block negated, which is not
        # positive definite: its SolverError must reach the fallback, and
        # CG then solves the true blocks.
        data = {INCLUSION1: 1.0, INCLUSION2: 0.0, OUTER: BoundaryData(kind="linear_x1").evaluate}
        want = fem.assemble(op.mesh).solve_dirichlet(data)
        banded = fem._banded_cholesky
        monkeypatch.setattr(fem, "_banded_cholesky", lambda block: banded(-block))
        parts = _log_cg(monkeypatch)
        got = fem.assemble(op.mesh).solve_dirichlet(data)
        assert parts == ["even", "odd"]
        assert np.abs(got.values - want.values).max() <= 1e-7

    def test_dissection_lu_failure_falls_back_to_cg(self, ladder_op, monkeypatch):
        data = {INCLUSION1: 1.0, INCLUSION2: 0.0, OUTER: 0.0}
        want = ladder_op.solve_dirichlet(data)

        def failing(*args, **kwargs):
            raise MemoryError("forced LU failure")

        log = _SpluLog(failing)
        monkeypatch.setattr(fem, "spla", log)
        parts = _log_cg(monkeypatch)
        got = fem.assemble(ladder_op.mesh).solve_dirichlet(data)
        assert [size for size, _ in log.calls] == [len(ladder_op._unknowns["even"])]
        assert parts == ["even"]
        assert np.abs(got.values - want.values).max() <= 1e-7


def _log_cg(monkeypatch):
    """Record the part of every ``_cg`` call of the operators built from
    now on."""
    parts = []
    cg = fem.StiffnessOperator._cg

    def logged(self, part, residual):
        parts.append(part)
        return cg(self, part, residual)

    monkeypatch.setattr(fem.StiffnessOperator, "_cg", logged)
    return parts


class _FullOperator:
    """The full-K operator: K assembled from every triangle, and K_ii
    factored whole, by ``fem._banded_cholesky`` below ``fem._DISSECTION_MIN``
    unknowns and by SuperLU's COLAMD order from there on."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.matrix = fem.stiffness_matrix(mesh.vertices, mesh.triangles)
        tags = mesh.vertex_tags
        self.interior = np.flatnonzero(tags == INTERIOR)
        self.boundary = np.flatnonzero(tags != INTERIOR)
        rows = self.matrix[self.interior]
        self.k_ii = rows[:, self.interior].tocsc()
        self.k_ib = rows[:, self.boundary]
        if self.k_ii.shape[0] < fem._DISSECTION_MIN:
            perm, band = fem._banded_cholesky(self.k_ii)
            self.order, self.solve = self.interior[perm], lambda rhs: cho_solve_banded((band, True), rhs[perm])
        else:
            self.order, self.solve = self.interior, spla.splu(self.k_ii).solve

    def solve_dirichlet(self, data):
        if isinstance(data, list):
            return [self.solve_dirichlet(each) for each in data]
        tags = self.mesh.vertex_tags
        u = np.zeros(self.mesh.vertex_count)
        for tag, value in data.items():
            idx = np.flatnonzero(tags == tag)
            u[idx] = np.asarray(value(self.mesh.vertices[idx]), dtype=float) if callable(value) else float(value)
        u[self.order] = self.solve(-self.k_ib @ u[self.boundary])
        return fem.ScalarField(self.mesh, u)

    def energy(self, f):
        return float(f.values @ (self.matrix @ f.values))

    def fluxes(self, f):
        kf = self.matrix @ f.values
        tags = self.mesh.vertex_tags
        return {int(tag): float(kf[tags == tag].sum()) for tag in np.unique(tags[self.boundary])}


def _reference_error(op, data):
    # Relative max difference from an LU solve of the full K_ii.
    f = op.solve_dirichlet(data)
    ref = _FullOperator(op.mesh).solve_dirichlet(data).values
    return np.abs(f.values - ref).max() / np.abs(ref).max()


def _nudged(op):
    # One interior vertex off its mirror image.
    verts = op.mesh.vertices.copy()
    verts[op.interior[len(op.interior) // 2], 0] += 1e-9
    return dataclasses.replace(op.mesh, vertices=verts)


def _flipped(op):
    # Mirror-paired vertices and tags, but one diagonal flipped at x > 0.
    mesh = op.mesh
    tris = mesh.triangles.copy()
    owner = {}
    for t, (a, b, c) in enumerate(tris.tolist()):
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            owner[(i, j)] = (t, k)
    for (a, b), (t1, c) in owner.items():
        if (b, a) not in owner or mesh.vertices[[a, b, c], 0].min() <= 0.0:
            continue
        t2, d = owner[(b, a)]
        new = np.array([[a, d, c], [d, b, c]])
        p = mesh.vertices[new]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if mesh.vertices[d, 0] > 0.0 and np.all(area2 > 0.0):
            tris[[t1, t2]] = new
            return dataclasses.replace(mesh, triangles=tris)
    raise AssertionError("no flippable pair")


def _sorted_reflection(mesh):
    # The former search for the reflection, the oracle of the mirror a mesh
    # carries: a complex-key argsort of the vertices and two sorted int64
    # triangle-key arrays.  The identity when the mesh is not exactly
    # mirror symmetric.
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    count = len(x)
    identity = np.arange(count)
    order = np.argsort(np.abs(x) + 1j * y)
    off_axis = order[np.count_nonzero(x == 0.0):]
    if len(off_axis) % 2:
        return identity
    a, b = off_axis[0::2], off_axis[1::2]
    if not (np.array_equal(x[a], -x[b] + 0.0) and np.array_equal(y[a], y[b])):
        return identity
    refl = identity.copy()
    refl[a], refl[b] = b, a
    if not np.array_equal(mesh.vertex_tags[refl], mesh.vertex_tags):
        return identity

    def keys(tris):
        t0, t1, t2 = tris.astype(np.int64).T
        lo = np.minimum(np.minimum(t0, t1), t2)
        hi = np.maximum(np.maximum(t0, t1), t2)
        return np.sort((lo * count + (t0 + t1 + t2 - lo - hi)) * count + hi)

    if not np.array_equal(keys(refl[mesh.triangles]), keys(mesh.triangles)):
        return identity
    return refl


class TestReflection:
    @pytest.mark.parametrize("case", ["default", "level1", "level2", "level3", "touching", "quartic"])
    def test_equals_sorted_original(self, pair, op, case):
        if case == "default":
            mesh = op.mesh
        elif case.startswith("level"):
            mesh = op.mesh
            for _ in range(int(case[-1])):
                mesh = refine_quadrisect(mesh, pair)
        elif case == "touching":
            mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        else:
            quartic = InclusionPair(2, NeckProfile(kind=ProfileKind.POWER_LAW, order=4.0, coefficient=4.0), 1e-3)
            mesh = generate(quartic, MeshParams())
        found = _sorted_reflection(mesh)
        assert not np.array_equal(found, np.arange(mesh.vertex_count))
        assert np.array_equal(mesh.mirror, found)
        assert audit(mesh).passed

    @pytest.mark.parametrize("case", ["nudged", "flipped", "tags"])
    def test_audit_rejects_a_stale_mirror(self, op, case):
        if case == "nudged":
            mesh, failure = _nudged(op), "mirror does not map (x, y) to (-x, y) exactly"
        elif case == "flipped":
            mesh, failure = _flipped(op), "mirror does not map the triangles onto themselves"
        else:
            tags = op.mesh.vertex_tags.copy()
            tags[np.flatnonzero(op.mesh.vertices[:, 0] > 0.0)[0]] = INTERIOR
            mesh, failure = dataclasses.replace(op.mesh, vertex_tags=tags), "mirror changes vertex tags"
        assert failure in audit(mesh).failures

    def test_audit_rejects_a_mirror_that_is_no_involution(self, op):
        mirror = op.mesh.mirror.copy()
        off_axis = np.flatnonzero(op.mesh.vertices[:, 0] > 0.0)[0]
        mirror[off_axis] = off_axis  # and its image still maps to it
        mesh = dataclasses.replace(op.mesh, mirror=mirror)
        assert audit(mesh).failures[0] == "mirror is not an involution of the vertices"


class TestMirrorSplit:
    @pytest.mark.parametrize(
        ("phi", "parts"),
        [
            (BoundaryData(kind="linear_xn"), ["even"]),
            (BoundaryData(kind="linear_x1"), ["even", "odd"]),
            (BoundaryData(kind="fourier", cos_coeffs=(1.0, 1.0), sin_coeffs=(1.0,)), ["even", "odd"]),
        ],
    )
    def test_split_solve_matches_full_lu(self, op, phi, parts):
        fresh = fem.assemble(op.mesh)
        data = {INCLUSION1: 1.0, INCLUSION2: 0.0, OUTER: phi.evaluate}
        assert _reference_error(fresh, data) <= 1e-12
        assert sorted(fresh._factors) == parts

    def test_list_of_data_solves_each(self, op):
        datas = [
            {INCLUSION1: 1.0, INCLUSION2: 0.0, OUTER: 0.0},
            {INCLUSION1: 0.0, INCLUSION2: 0.0, OUTER: BoundaryData(kind="linear_x1").evaluate},
        ]
        fields = fem.assemble(op.mesh).solve_dirichlet(datas)
        for data, field in zip(datas, fields):
            alone = fem.assemble(op.mesh).solve_dirichlet(data).values
            assert np.abs(field.values - alone).max() <= 1e-13 * np.abs(alone).max()

    def test_default_mesh_reflects(self, op):
        mesh = op.mesh
        mirror = mesh.mirror
        assert np.any(mirror != np.arange(mesh.vertex_count))
        assert np.array_equal(mirror[mirror], np.arange(mesh.vertex_count))
        assert np.array_equal(mesh.vertices[mirror, 0], -mesh.vertices[:, 0])
        assert np.array_equal(mesh.vertices[mirror, 1], mesh.vertices[:, 1])
        n = len(op.interior)
        even, odd = (len(op._unknowns[part]) for part in ("even", "odd"))
        assert even + odd == n
        assert even < 0.55 * n

    @pytest.mark.parametrize("case", ["default", "ladder", "touching"])
    def test_assembles_half_the_triangles(self, pair, op, ladder_op, case, monkeypatch):
        if case == "touching":
            mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        else:
            mesh = (op if case == "default" else ladder_op).mesh
        assembled = []
        real = fem.stiffness_matrix

        def recorded(vertices, triangles):
            assembled.append((len(vertices), len(triangles)))
            return real(vertices, triangles)

        monkeypatch.setattr(fem, "stiffness_matrix", recorded)
        fresh = fem.assemble(mesh)
        half = int(np.sum(mesh.vertices[:, 0] >= 0.0))
        assert assembled == [(half, mesh.triangle_count // 2)]
        assert 2 * assembled[0][1] == mesh.triangle_count and half < mesh.vertex_count
        assert fresh._half.shape == (half, half)


class TestFluxAndEnergy:
    def test_constant_field_has_zero_energy(self, op):
        f = op.solve_dirichlet({INCLUSION1: 2.0, INCLUSION2: 2.0, OUTER: 2.0})
        assert abs(op.energy(f)) <= 1e-10

    def test_energy_positive(self, op, v1):
        assert op.energy(v1) > 0.0

    def test_flux_equals_energy(self, op, v1):
        e = op.energy(v1)
        assert abs(op.fluxes(v1)[INCLUSION1] - e) <= 1e-10 * e

    def test_reciprocity(self, op, v1):
        v2 = op.solve_dirichlet({INCLUSION1: 0.0, INCLUSION2: 1.0, OUTER: 0.0})
        a12 = op.fluxes(v2)[INCLUSION1]
        a21 = op.fluxes(v1)[INCLUSION2]
        assert abs(a12 - a21) <= 1e-8 * abs(a12)

    def test_total_flux_vanishes(self, op, v1):
        flux = op.fluxes(v1)
        total = flux[INCLUSION1] + flux[INCLUSION2] + flux[OUTER]
        assert abs(total) <= 1e-10

    def test_flux_linearity(self, op, v1):
        v2 = op.solve_dirichlet({INCLUSION1: 0.0, INCLUSION2: 1.0, OUTER: 0.0})
        combo = fem.ScalarField(op.mesh, 2.0 * v1.values + 3.0 * v2.values)
        lhs = op.fluxes(combo)[INCLUSION1]
        rhs = 2.0 * op.fluxes(v1)[INCLUSION1] + 3.0 * op.fluxes(v2)[INCLUSION1]
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_unknown_tag_rejected(self, op, v1):
        # Fluxes are given for the boundary tags present, and no other.
        assert sorted(op.fluxes(v1)) == sorted([OUTER, INCLUSION1, INCLUSION2])
        with pytest.raises(KeyError):
            op.fluxes(v1)[99]


class TestAcrossGaps:
    def test_energy_decreases_as_gap_opens(self, pair):
        energies = []
        for eps in (1e-4, 1e-3, 1e-2):
            op = fem.assemble(generate(pair.with_gap(eps), MeshParams()))
            f = op.solve_dirichlet({INCLUSION1: 1.0, INCLUSION2: 0.0, OUTER: 0.0})
            energies.append(op.energy(f))
        assert energies[0] > energies[1] > energies[2]

    def test_gradient_band_uniform_in_gap(self, pair):
        # |grad v1| * gap stays inside a fixed band across the sweep
        band_constants = []
        for eps in (1e-2, 1e-3, 1e-4):
            p = pair.with_gap(eps)
            mesh = generate(p, MeshParams())
            op = fem.assemble(mesh)
            f = op.solve_dirichlet({INCLUSION1: 1.0, INCLUSION2: 0.0, OUTER: 0.0})
            grads = fem.element_gradients(f)
            norms = np.hypot(grads[:, 0], grads[:, 1])
            cent = mesh.vertices[mesh.triangles].mean(axis=1)
            scaled = norms[mesh.neck] * np.array([p.gap([x]) for x in cent[mesh.neck, 0]])
            band_constants.append(max(scaled.max(), 1.0 / scaled.min()))
        assert max(band_constants) <= 2.0 * min(band_constants)
        assert max(band_constants) <= 3.0

    def test_max_gradient_location_near_center(self, pair, op, v1):
        value, loc = fem.max_gradient(v1)
        assert value == pytest.approx(1.0 / pair.eps, rel=0.05)
        assert abs(loc[0]) <= 0.02

    def test_max_gradient_constant_field(self, op):
        f = op.solve_dirichlet({INCLUSION1: 1.0, INCLUSION2: 1.0, OUTER: 1.0})
        value, _ = fem.max_gradient(f)
        assert value <= 1e-9


class _SpluLog:
    """Stands in for ``scipy.sparse.linalg`` inside ``fem``, recording the
    size and keyword arguments of every splu call, which ``splu`` then
    makes, scipy's own by default."""

    def __init__(self, splu=spla.splu):
        self.calls = []
        self._splu = splu

    def splu(self, matrix, **kwargs):
        self.calls.append((matrix.shape[0], kwargs))
        return self._splu(matrix, **kwargs)

    def __getattr__(self, name):
        return getattr(spla, name)


@pytest.fixture(scope="module")
def ladder_op(pair):
    mesh = generate(pair, MeshParams())
    for _ in range(2):
        mesh = refine_quadrisect(mesh, pair)
    return fem.assemble(mesh)


@pytest.fixture(scope="module")
def finest_op(pair, ladder_op):
    return fem.assemble(refine_quadrisect(ladder_op.mesh, pair))


def test_finest_ladder_level_passes_the_audit(finest_op):
    # Ladder level 3 (V = 124,471), which a two-process gate builds only in
    # its worker: the full audit, its mirror included.
    mesh = finest_op.mesh
    report = audit(mesh)
    assert mesh.vertex_count > 100_000 and mesh.mirror is not None
    assert report.passed, report.failures
    assert report.far_min_angle_deg >= 20.0


def test_finest_ladder_level_keeps_its_numbers(finest_op):
    # The energy, level gap and blow-up factor that C7 and C9 read off ladder
    # level 3, and its LU fill, as they were before the work around the LU
    # was cut.
    bundle = solve_bundle(finest_op.mesh, BoundaryData(kind="linear_xn"), op=finest_op)
    assert bundle.a11.hex() == "0x1.9a3b98aac3336p+6"
    assert (bundle.c1 - bundle.c2).hex() == "0x1.82ccb2f26d1bbp-4"
    assert bundle.b_factor.hex() == "0x1.35eaf13886dd2p+3"
    _, lu = finest_op._factor("even")
    assert lu.L.nnz + lu.U.nnz == 5_119_112


def _even_block(op):
    rows = op._unknowns["even"]
    return op._block(rows), op._points[rows]


def _former_kd_leaves(points):
    # The former k-d tree, the oracle of ``fem._kd_leaves``: each level
    # sorts every live unknown by (cell, rank along the cell's wider axis).
    n = len(points)
    coords = [np.ascontiguousarray(points[:, axis]) for axis in (0, 1)]
    rank = np.empty(2 * n, dtype=np.int64)  # rank along x, then along y
    for axis in (0, 1):
        rank[axis * n + np.argsort(coords[axis], kind="stable")] = np.arange(n)
    node = np.ones(n, dtype=np.int64)
    live = np.arange(n)
    cell = np.zeros(n, dtype=np.int64)
    sizes = np.array([n])
    while len(live):
        first = np.cumsum(sizes) - sizes
        here = [c[live] for c in coords]
        x, y = (np.maximum.reduceat(h, first) - np.minimum.reduceat(h, first) for h in here)
        axis = (y > x).astype(np.int64)
        live = live[np.argsort(cell * n + rank[(axis * n)[cell] + live])]
        high = np.arange(len(live)) >= (first + sizes // 2)[cell]
        node[live] = 2 * node[live] + high
        child = 2 * cell + high
        sizes = np.column_stack([sizes // 2, sizes - sizes // 2]).ravel()
        split = sizes > fem._DISSECTION_LEAF
        go = split[child]
        live, cell, sizes = live[go], (np.cumsum(split) - 1)[child[go]], sizes[split]
    return node


def _former_dissection(block, points):
    # The former nested-dissection order, the oracle of ``fem._dissection``:
    # the common ancestor of every coupling, leaves shared or not, and a
    # stable sort of the keys, over the former tree.
    n = block.shape[0]
    node = _former_kd_leaves(points)
    bits = fem._bit_length
    cols = np.repeat(np.arange(n, dtype=block.indices.dtype), np.diff(block.indptr))
    upper = block.indices < cols
    ei, ej = block.indices[upper], cols[upper]
    a, b = node[ei], node[ej]
    da, db = bits(a), bits(b)
    a, b = a >> np.maximum(da - db, 0), b >> np.maximum(db - da, 0)
    below = bits(a ^ b)
    cut = np.flatnonzero(below)
    ei, ej, a, below = ei[cut], ej[cut], a[cut], below[cut]
    depth = bits(a) - 1 - below
    i_low = ((a >> (below - 1)) & 1) == 0
    low_end, high_end = np.where(i_low, ei, ej), np.where(i_low, ej, ei)
    order = np.argsort(depth.astype(np.int16), kind="stable")
    low_end, high_end, depth = low_end[order], high_end[order], depth[order]
    sep = np.full(n, np.iinfo(np.int64).max)
    starts = np.flatnonzero(np.diff(depth, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(depth))):
        d, u, v = depth[lo], low_end[lo:hi], high_end[lo:hi]
        sep[u[(sep[u] > d) & (sep[v] > d)]] = d
    leaf_depth = bits(node) - 1
    deepest = int(leaf_depth.max())
    key = ((node - (1 << leaf_depth)) << (deepest - leaf_depth)) * 64
    s = np.flatnonzero(sep <= deepest)
    d = sep[s]
    end = (node[s] >> (leaf_depth[s] - d)) - (1 << d) + 1
    key[s] = (end << (deepest - d)) * 64 - 1 - d
    return np.argsort(key, kind="stable")


class TestDissection:
    def test_order_is_a_permutation(self, op, ladder_op):
        for case in (op, ladder_op):
            block, points = _even_block(case)
            perm = fem._dissection(block, points)
            assert np.array_equal(np.sort(perm), np.arange(block.shape[0]))

    def test_ordered_factor_solves_and_fills_less(self, ladder_op, monkeypatch):
        block, _ = _even_block(ladder_op)
        assert block.shape[0] >= fem._DISSECTION_MIN
        log = _SpluLog()
        monkeypatch.setattr(fem, "spla", log)
        fresh = fem.StiffnessOperator(ladder_op.mesh)
        u = np.zeros((fresh.mesh.vertex_count, 1))
        boundary = np.flatnonzero(fresh.mesh.vertex_tags != INTERIOR)
        u[boundary, 0] = np.random.default_rng(20261018).standard_normal(len(boundary))
        res = fresh._solve(u, fresh._lu)
        assert res <= 1e-12
        assert sorted(fresh._factors) == ["even", "odd"]
        assert [kwargs["permc_spec"] for _, kwargs in log.calls] == ["NATURAL", "NATURAL"]
        _, lu = fresh._factor("even")
        colamd = spla.splu(block)
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("part", ["even", "odd"])
    def test_equals_former_tree(self, ladder_op, finest_op, level, part, monkeypatch):
        case = ladder_op if level == 2 else finest_op
        rows = case._unknowns[part]
        block, points = case._block(rows), case._points[rows]
        assert np.array_equal(fem._kd_leaves(points), _former_kd_leaves(points))
        assert np.array_equal(fem._dissection(block, points), _former_dissection(block, points))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 600),
        spread=st.integers(1, 8),  # coordinates are integers below it, so many tie
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_former_tree_with_ties(self, n, spread, seed):
        rng = np.random.default_rng(seed)
        points = rng.integers(0, spread, size=(n, 2)).astype(float)
        assert np.array_equal(fem._kd_leaves(points), _former_kd_leaves(points))
        if n:
            # A random structurally symmetric block on the cloud.
            i, j = rng.integers(0, n, size=(2, 4 * n))
            block = sp.csr_matrix((np.ones(8 * n + n), (np.r_[i, j, np.arange(n)], np.r_[j, i, np.arange(n)])),
                                  shape=(n, n))
            assert np.array_equal(fem._dissection(block, points), _former_dissection(block, points))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 2000),
        spread=st.integers(1, 50),
        signed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_index_order_is_the_stable_sort(self, n, spread, signed, seed):
        # Few distinct values, so most tie; with signed zeros mixed in.
        rng = np.random.default_rng(seed)
        values = rng.integers(0, spread, size=n).astype(float) / 7.0
        if signed:
            values[rng.random(n) < 0.3] = -0.0
        assert np.array_equal(fem._index_order(values), np.argsort(values, kind="stable"))

    def test_lu_gets_the_former_arrays(self, ladder_op, monkeypatch):
        # The block is sliced from K_h once and then permuted; SuperLU gets
        # the bytes of slicing K_h on the permuted unknowns, in the canonical
        # form to which ``splu`` brings its input before it factors.
        log = _SpluLog(splu=lambda matrix, **kwargs: matrix)
        monkeypatch.setattr(fem, "spla", log)
        fresh = fem.StiffnessOperator(ladder_op.mesh)
        for part in ("even", "odd"):
            rows, got = fresh._factor(part)
            want = fresh._unknowns[part]
            want = want[_former_dissection(fresh._block(want), fresh._points[want])]
            assert np.array_equal(rows, want)
            half = fresh._half[want][:, want]
            assert not half.has_sorted_indices
            half.sum_duplicates()
            assert got.format == "csc" and got.has_canonical_format
            for name in ("data", "indices", "indptr"):
                assert getattr(got, name).tobytes() == getattr(half, name).tobytes(), name

    def test_small_block_is_banded(self, op, monkeypatch):
        # No splu call; each block's unknowns in reverse Cuthill-McKee order
        # and the band of its Cholesky factor.
        log = _SpluLog()
        monkeypatch.setattr(fem, "spla", log)
        fresh = fem.StiffnessOperator(op.mesh)
        u = np.zeros((fresh.mesh.vertex_count, 1))
        boundary = np.flatnonzero(fresh.mesh.vertex_tags != INTERIOR)
        u[boundary, 0] = np.random.default_rng(20261019).standard_normal(len(boundary))
        assert fresh._solve(u, fresh._lu) <= 1e-10
        assert log.calls == []
        assert sorted(fresh._factors) == ["even", "odd"]
        for part in ("even", "odd"):
            want = fresh._unknowns[part]
            block = fresh._block(want)
            assert block.shape[0] < fem._DISSECTION_MIN
            rows, band = fresh._factor(part)
            assert np.array_equal(rows, want[csgraph.reverse_cuthill_mckee(block, symmetric_mode=True)])
            factor = np.linalg.cholesky(fresh._half[rows][:, rows].toarray())
            n = len(rows)
            for k in range(band.shape[0]):
                assert np.allclose(band[k, : n - k], np.diagonal(factor, -k), rtol=0.0, atol=1e-12 * band[0].max())
            assert not np.tril(factor, -band.shape[0]).any()


class TestSides:
    """``_sides`` against its two products, byte for byte; one product when
    the field is even, which the solve reads off its boundary data."""

    @pytest.mark.parametrize("kind,even", [("linear_xn", True), ("linear_x1", False)])
    def test_equals_two_products(self, op, kind, even):
        fields = solve_components(op, BoundaryData(kind=kind))
        u = np.column_stack([f.values for f in fields])
        assert np.array_equal(*(u[ids] for ids in op._tagged)) == even
        assert np.array_equal(u[op._keep], u[op._image]) == even
        side, mirrored = op._sides(u, even)
        assert (mirrored is side) == even
        assert side.tobytes() == (op._half @ u[op._keep]).tobytes()
        assert mirrored.tobytes() == (op._half @ u[op._image]).tobytes()


class TestOperatorSetupBits:
    """The half-domain operator against the full-K operator: every number
    of a solve bundle within 1e-13 of its scale, where sums run in another
    order."""

    @pytest.mark.parametrize(
        "case,kind",
        [("default", "linear_xn"), ("ladder", "linear_xn"), ("touching", "linear_xn"),
         ("quartic", "linear_xn"), ("default", "linear_x1")],
    )
    def test_equals_former_path(self, pair, op, ladder_op, case, kind):
        if case == "default":
            mesh = op.mesh
        elif case == "ladder":
            mesh = ladder_op.mesh
        elif case == "touching":
            mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        else:
            quartic = InclusionPair(2, NeckProfile(kind=ProfileKind.POWER_LAW, order=4.0, coefficient=4.0), 1e-3)
            mesh = generate(quartic, MeshParams())
        assert mesh.mirror is not None
        new = fem.assemble(mesh)
        phi = BoundaryData(kind=kind)
        got, want = solve_bundle(mesh, phi, op=new), solve_bundle(mesh, phi, op=_FullOperator(mesh))
        assert ("odd" in new._factors) == (kind == "linear_x1")  # the odd correction ran
        for name in ("v1", "v2", "v0", "u", "vb"):
            value = getattr(want, name).values
            assert np.abs(getattr(got, name).values - value).max() <= 1e-13 * np.abs(value).max(), name
        for name in ("a11", "a12", "a21", "a22", "b1", "b2", "c1", "c2", "b_factor", "b_factor_system",
                     "c_diff_residual"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13 * want.a11, name


def _former_stiffness(vertices, triangles):
    # The former P1 assembly, the oracle of ``fem.stiffness_matrix``: every
    # local matrix as (T, 3, 3) products of the edge vectors.
    tri = triangles.astype(np.int32)
    x, y = vertices[:, 0][tri], vertices[:, 1][tri]
    ex = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    ey = y[:, [2, 0, 1]] - y[:, [1, 2, 0]]
    area2 = ex[:, 2] * (-ey[:, 1]) - ey[:, 2] * (-ex[:, 1])
    local = (ex[:, :, None] * ex[:, None, :] + ey[:, :, None] * ey[:, None, :]) / (2.0 * area2)[:, None, None]
    rows = np.repeat(tri, 3, axis=1).reshape(-1)
    cols = np.tile(tri, (1, 3)).reshape(-1)
    k = sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(len(vertices), len(vertices))).tocsr()
    k.eliminate_zeros()
    return k


class _FormerOperator(fem.StiffnessOperator):
    """The operator as it was before the finest ladder level's work around
    its LU was cut, the oracle of its bits: K_h from the half mask over the
    three corners at once and a scattered row numbering, the evenness test
    and residual norm over every kept row, the permuted block sliced from
    the block in the former dissection order, and each flux from the whole
    product K_h (f + f o m)."""

    def __init__(self, mesh):
        super().__init__(mesh)
        x = mesh.vertices[:, 0]
        half = np.all(x[mesh.triangles] >= 0.0, axis=1)
        local = np.empty(mesh.vertex_count, dtype=np.int64)
        local[self._keep] = np.arange(len(self._keep))
        self._half = _former_stiffness(mesh.vertices[self._keep], local[mesh.triangles[half]])
        kept = mesh.vertex_tags[self._keep]
        self._rows_of_tag = {tag: np.flatnonzero(kept == tag) for tag in self._tag_ids}
        self._axis = np.flatnonzero((kept == INTERIOR) & ~(self._points[:, 0] > 0.0))

    def _sides(self, values):
        kept = values[self._keep]
        side = self._half @ kept
        mirrored = values[self._image]
        return side, side if np.array_equal(kept, mirrored) else self._half @ mirrored

    def _interior_norm(self, side, image):
        odd, axis = self._unknowns["odd"], self._axis
        return np.sqrt(sum(np.square(part).sum(axis=0) for part in (side[odd], image[odd], side[axis] + image[axis])))

    def _factor(self, part):
        if part not in self._factors:
            rows = self._unknowns[part]
            block = self._block(rows)
            if block.shape[0] < fem._DISSECTION_MIN:
                perm, factor = fem._banded_cholesky(block)
            else:
                perm = _former_dissection(block, self._points[rows])
                factor = spla.splu(block[perm][:, perm], permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                   options={"SymmetricMode": True})
            self._factors[part] = rows[perm], factor
        return self._factors[part]

    def _lu(self, part, residual):
        rows, factor = self._factor(part)
        if isinstance(factor, np.ndarray):
            return rows, cho_solve_banded((factor, True), -residual[rows])
        return rows, factor.solve(-residual[rows])

    def _solve(self, u, block_solve):
        keep, image = self._keep, self._image
        side, mirrored = self._sides(u)
        scale = np.maximum(self._interior_norm(side, mirrored), 1e-30)
        rows, values = block_solve("even", 0.5 * (side + mirrored))
        u[keep[rows]] = values
        u[image[rows]] = values
        side, mirrored = self._sides(u)
        res = self._interior_norm(side, mirrored) / scale
        odd = np.flatnonzero(res > 1e-10)
        if len(odd):
            rows, step = block_solve("odd", 0.5 * (side[:, odd] - mirrored[:, odd]))
            u[np.ix_(keep[rows], odd)] += step
            u[np.ix_(image[rows], odd)] -= step
            side, mirrored = self._sides(u)
            res = self._interior_norm(side, mirrored) / scale
        return float(res.max())

    def fluxes(self, f):
        kf = self._half @ (f.values[self._keep] + f.values[self._image])
        return {tag: float(kf[rows].sum()) for tag, rows in self._rows_of_tag.items()}


class TestSolveBits:
    """Setup, factor order, solve and fluxes against the former operator:
    K_h, the factors' unknowns and every number of a solve bundle, byte for
    byte, with and without an odd part, on both factor paths."""

    @pytest.mark.parametrize("case", ["default", "ladder", "touching", "quartic"])
    @pytest.mark.parametrize("kind", ["linear_xn", "linear_x1", "fourier"])
    def test_equals_former_operator(self, pair, op, ladder_op, case, kind):
        if case in ("default", "ladder"):
            mesh = (op if case == "default" else ladder_op).mesh
        elif case == "touching":
            mesh = generate_touching(pair.with_gap(0.0), 0.05, MeshParams())
        else:
            quartic = InclusionPair(2, NeckProfile(kind=ProfileKind.POWER_LAW, order=4.0, coefficient=4.0), 1e-3)
            mesh = generate(quartic, MeshParams())
        if kind == "fourier":
            phi = BoundaryData(kind="fourier", cos_coeffs=(1.0, 1.0), sin_coeffs=(1.0,))
        else:
            phi = BoundaryData(kind=kind)
        new, former = fem.assemble(mesh), _FormerOperator(mesh)
        for name in ("data", "indices", "indptr"):
            assert getattr(new._half, name).tobytes() == getattr(former._half, name).tobytes(), name
        got, want = solve_bundle(mesh, phi, op=new), solve_bundle(mesh, phi, op=former)
        assert sorted(new._factors) == sorted(former._factors) == (["even"] if kind == "linear_xn" else ["even", "odd"])
        for part, (rows, _) in new._factors.items():
            assert np.array_equal(rows, former._factors[part][0]), part
        for name in ("v1", "v2", "v0", "u", "vb"):
            assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes(), name
        for name in ("a11", "a12", "a21", "a22", "b1", "b2", "c1", "c2", "b_factor", "b_factor_system",
                     "c_diff_residual"):
            assert getattr(got, name).hex() == getattr(want, name).hex(), name
