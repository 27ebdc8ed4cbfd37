"""P1 finite elements: stiffness, Dirichlet solves, energies, fluxes.

Boundary fluxes are extracted through the unconstrained bilinear form
against the nodal indicator of a tagged boundary part.  For a discrete
harmonic field this is exactly compatible with the discrete energy
identity (flux of the unit-potential field through its own boundary
equals its energy), which the solver pipeline relies on.

Dirichlet solves use the mirror symmetry x -> -x of the mesh (Bossavit,
CMAME 56, 1986).  The interior stiffness K_ii commutes with the
reflection, so it splits into an even block P'K_iiP and an odd block
Q'K_iiQ of about half the size each, and the LU of each block is far
cheaper than that of K_ii.  Every solve starts with the even block; the
odd block is factored and solved only when the residual against K_ii is
still above the 1e-10 bound, i.e. for data with an odd part.  A mesh
that is not exactly mirror symmetric takes the identity reflection:
P = I, no odd block, and the even solve is the full solve.

The operator slices the interior rows of K once.  K is exactly
symmetric, so the CSR arrays of its interior block K_ii are, unchanged,
the CSC arrays of K_ii: no conversion is needed for the factorizations.
Each field's boundary fluxes come from one product K f.

A block of at least ``_DISSECTION_MIN`` unknowns is factored in a
geometric nested-dissection order (George, SIAM J. Numer. Anal. 10,
1973), which gives O(N log N) fill on a planar mesh: a k-d tree splits
the unknowns at the median of each cell's wider axis, the unknowns of a
cell's low half that couple to its high half form its separator, and
each separator is numbered after both halves.  SuperLU then factors
without reordering or pivoting, which the symmetric positive definite
blocks allow.  Smaller blocks keep SuperLU's COLAMD ordering: the two
break even at a few thousand unknowns, and the ordering wins from about
15,000 on (BENCH_7.json has the figures per ladder level).

``sp`` and ``spla`` are deferred stand-ins for ``scipy.sparse`` and
``scipy.sparse.linalg`` (``mesh._Deferred``): the first assembly or
solve imports them, so commands that never solve load no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import INTERIOR, Mesh, _Deferred

sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")

__all__ = [
    "SolverError",
    "ScalarField",
    "StiffnessOperator",
    "stiffness_matrix",
    "assemble",
    "element_gradients",
    "max_gradient",
]


_RESIDUAL_BOUND = 1e-10
# Blocks from this many unknowns up are ordered by nested dissection,
# and the dissection stops at cells of at most _DISSECTION_LEAF unknowns.
_DISSECTION_MIN = 10_000
_DISSECTION_LEAF = 32


class SolverError(RuntimeError):
    """Linear solve failed to reach the required residual."""


@dataclass
class ScalarField:
    """Nodal P1 function over a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.mesh.vertex_count,):
            raise ValueError("field length must equal the vertex count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


class StiffnessOperator:
    """Sparse P1 stiffness with the interior/boundary index partition.

    ``matrix`` must be exactly symmetric, as ``stiffness_matrix`` is.
    """

    def __init__(self, mesh: Mesh, matrix: sp.csr_matrix):
        self.mesh = mesh
        self.matrix = matrix
        tags = mesh.vertex_tags
        self.boundary = np.flatnonzero(tags != INTERIOR)
        self.interior = np.flatnonzero(tags == INTERIOR)
        # The vertex ids of each boundary tag present, in tag order.
        self._tag_ids = {int(tag): np.flatnonzero(tags == tag) for tag in np.unique(tags[self.boundary])}
        rows = matrix[self.interior]
        k_ii = rows[:, self.interior]
        # K is exactly symmetric, so the CSR arrays of K_ii are its CSC arrays.
        self._k_ii = sp.csc_matrix((k_ii.data, k_ii.indices, k_ii.indptr), shape=k_ii.shape)
        self._k_ib = rows[:, self.boundary]
        self._even, self._odd, self._columns = _symmetry_bases(mesh, self.interior)
        self._factors: dict[str, tuple[sp.csc_matrix, object]] = {}

    def _factor(self, part: str):
        """Basis and LU of the even or odd block of K_ii, factored on first use.

        A block of at least ``_DISSECTION_MIN`` unknowns is factored in
        nested-dissection order, and the basis returned has its columns in
        that order, so that the solves need no permutation of their own.
        """
        if part not in self._factors:
            basis = self._even if part == "even" else self._odd
            block = (basis.T @ self._k_ii @ basis).tocsc()
            if block.shape[0] < _DISSECTION_MIN:
                self._factors[part] = basis, spla.splu(block)
            else:
                points = self.mesh.vertices[self.interior[self._columns[part]]]
                perm = _dissection(block, points)
                lu = spla.splu(
                    block[perm][:, perm].tocsc(),
                    permc_spec="NATURAL",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
                self._factors[part] = basis[:, perm], lu
        return self._factors[part]

    def _residual(self, sol: np.ndarray, rhs: np.ndarray) -> float:
        return np.linalg.norm(self._k_ii @ sol - rhs) / max(np.linalg.norm(rhs), 1e-30)

    def _solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """K_ii^-1 rhs by the even block, plus the odd block when the even
        solution alone misses the residual bound; returns the solution and
        its relative residual."""
        even, lu = self._factor("even")
        sol = even @ lu.solve(even.T @ rhs)
        res = self._residual(sol, rhs)
        if self._odd.shape[1] and res > _RESIDUAL_BOUND:
            odd, lu = self._factor("odd")
            sol += odd @ lu.solve(odd.T @ (rhs - self._k_ii @ sol))
            res = self._residual(sol, rhs)
        return sol, res

    def solve_dirichlet(self, data: dict[int, object]) -> ScalarField:
        """Discrete harmonic extension of tagged boundary data.

        ``data`` maps every boundary tag present in the mesh to a constant
        or to a callable taking an (N, 2) coordinate array.  The residual
        of the constrained system is verified to 1e-10 relative.
        """
        mesh = self.mesh
        missing = set(self._tag_ids) - set(data)
        if missing:
            raise SolverError(f"boundary tags without data: {sorted(missing)}")
        u = np.zeros(mesh.vertex_count)
        for tag, value in data.items():
            idx = self._tag_ids.get(tag)
            if idx is None:
                continue
            if callable(value):
                u[idx] = np.asarray(value(mesh.vertices[idx]), dtype=float)
            else:
                u[idx] = float(value)
        rhs = -self._k_ib @ u[self.boundary]
        if len(self.interior):
            try:
                sol, res = self._solve(rhs)
            except (RuntimeError, MemoryError):
                sol, res = self._cg(rhs)
            if res > _RESIDUAL_BOUND:
                raise SolverError(f"relative residual {res:.3e} exceeds 1e-10")
            u[self.interior] = sol
        return ScalarField(mesh=mesh, values=u)

    def _cg(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        diag = self._k_ii.diagonal()
        precond = spla.LinearOperator(
            self._k_ii.shape, matvec=lambda x: x / diag
        )
        cap = int(50 * math.sqrt(max(len(rhs), 1)))
        sol, info = spla.cg(self._k_ii, rhs, rtol=1e-12, maxiter=cap, M=precond)
        res = self._residual(sol, rhs)
        if info != 0:
            raise SolverError(f"conjugate gradient stopped after {cap} iterations, residual {res:.3e}")
        return sol, res

    def energy(self, f: ScalarField) -> float:
        """Dirichlet energy f'Kf of a nodal field."""
        return float(f.values @ (self.matrix @ f.values))

    def fluxes(self, f: ScalarField) -> dict[int, float]:
        """Consistent boundary flux through each tagged part present, from
        one product K f.

        Sign convention: the unit-potential field of a conductor has
        positive flux through its own boundary, equal to its energy.
        """
        kf = self.matrix @ f.values
        return {tag: float(kf[ids].sum()) for tag, ids in self._tag_ids.items()}


def _reflection(mesh: Mesh) -> np.ndarray:
    """Vertex permutation of x -> -x, or the identity when the mesh is not
    exactly mirror symmetric: in coordinates, in tags and in triangles."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    count = len(x)
    identity = np.arange(count)
    # Sorted by |x| then y, the vertices on the axis come first and every
    # other vertex sits next to its mirror image.
    order = np.argsort(_dense_rank(np.abs(x)) * count + _dense_rank(y))
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

    def keys(corners: np.ndarray) -> np.ndarray:
        t0, t1, t2 = corners
        lo = np.minimum(np.minimum(t0, t1), t2)
        hi = np.maximum(np.maximum(t0, t1), t2)
        return np.sort((lo.astype(np.int64) * count + (t0 + t1 + t2 - lo - hi)) * count + hi)

    # One contiguous int32 row of vertex ids per triangle corner.
    corners = np.ascontiguousarray(mesh.triangles.T, dtype=np.int32)
    if not np.array_equal(keys(refl.astype(np.int32)[corners]), keys(corners)):
        return identity
    return refl


def _dense_rank(values: np.ndarray) -> np.ndarray:
    """Rank of each entry among the distinct values; equal values share one."""
    order = np.argsort(values)
    ordered = values[order]
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.cumsum(np.concatenate(([0], ordered[1:] != ordered[:-1])))
    return rank


def _symmetry_bases(
    mesh: Mesh, interior: np.ndarray
) -> tuple[sp.csc_matrix, sp.csc_matrix, dict[str, np.ndarray]]:
    """Even basis P and odd basis Q over the interior unknowns, and the
    interior position of the vertex each of their columns belongs to.

    P has a column per interior vertex with x >= 0 (every vertex under the
    identity reflection), with a 1 on the vertex and on its mirror; Q has a
    column per interior vertex with x > 0, +1 on the vertex and -1 on its
    mirror.  Together they span the interior space, and K_ii maps the span
    of each into itself.
    """
    position = np.empty(mesh.vertex_count, dtype=np.int64)
    position[interior] = np.arange(len(interior))
    mirror = position[_reflection(mesh)[interior]]
    moved = mirror != np.arange(len(interior))
    right = mesh.vertices[interior, 0] > 0.0
    odd = np.flatnonzero(moved & right)
    even = np.flatnonzero(~moved | right)

    def basis(cols: np.ndarray, sign: float) -> sp.csc_matrix:
        pair = moved[cols]
        rows = np.concatenate([cols, mirror[cols[pair]]])
        at = np.concatenate([np.arange(len(cols)), np.flatnonzero(pair)])
        vals = np.concatenate([np.ones(len(cols)), np.full(int(pair.sum()), sign)])
        return sp.csc_matrix((vals, (rows, at)), shape=(len(interior), len(cols)))

    return basis(even, 1.0), basis(odd, -1.0), {"even": even, "odd": odd}


def _bit_length(a: np.ndarray) -> np.ndarray:
    """Bit length of each entry of a non-negative integer array below 2**53."""
    return np.frexp(a)[1].astype(np.int64)


def _dissection(block: sp.csc_matrix, points: np.ndarray) -> np.ndarray:
    """Nested-dissection order of a structurally symmetric block whose
    unknowns sit at ``points``: ``perm[k]`` is the unknown numbered k.

    A k-d tree splits every cell above ``_DISSECTION_LEAF`` unknowns at the
    median of its wider axis, one level of cells at a time.  Each coupling
    between two leaves is cut by their lowest common ancestor; the cutting
    node takes the coupled unknown of its low half into its separator,
    unless either unknown already sits in a coarser separator.  A node's
    range of numbers holds its low subtree, its high subtree, then its
    separator.
    """
    n = block.shape[0]
    coords = [np.ascontiguousarray(points[:, axis]) for axis in (0, 1)]
    rank = np.empty(2 * n, dtype=np.int64)  # rank along x, then along y
    for axis in (0, 1):
        rank[axis * n + np.argsort(coords[axis], kind="stable")] = np.arange(n)
    node = np.ones(n, dtype=np.int64)  # heap index of the leaf: root 1, children 2h, 2h + 1
    live = np.arange(n)  # unknowns of cells still to split, grouped by cell
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
        split = sizes > _DISSECTION_LEAF
        go = split[child]
        live, cell, sizes = live[go], (np.cumsum(split) - 1)[child[go]], sizes[split]

    # The lowest common ancestor of the two leaves of each coupling, by
    # bringing both heap indices to the same depth and dropping the bits
    # in which they differ.
    cols = np.repeat(np.arange(n, dtype=block.indices.dtype), np.diff(block.indptr))
    upper = block.indices < cols
    ei, ej = block.indices[upper], cols[upper]
    a, b = node[ei], node[ej]
    da, db = _bit_length(a), _bit_length(b)
    a, b = a >> np.maximum(da - db, 0), b >> np.maximum(db - da, 0)
    below = _bit_length(a ^ b)  # levels between the ancestor and a
    cut = np.flatnonzero(below)
    ei, ej, a, below = ei[cut], ej[cut], a[cut], below[cut]
    depth = _bit_length(a) - 1 - below
    i_low = ((a >> (below - 1)) & 1) == 0
    low_end, high_end = np.where(i_low, ei, ej), np.where(i_low, ej, ei)
    order = np.argsort(depth, kind="stable")
    low_end, high_end, depth = low_end[order], high_end[order], depth[order]
    sep = np.full(n, np.iinfo(np.int64).max)  # depth of the separator holding each unknown
    starts = np.flatnonzero(np.diff(depth, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(depth))):
        d, u, v = depth[lo], low_end[lo:hi], high_end[lo:hi]
        sep[u[(sep[u] > d) & (sep[v] > d)]] = d

    # Sort key: the leaf's path, left-aligned to the deepest leaf, so that
    # every subtree takes a contiguous range; a separator sorts just before
    # the end of its node's range, deeper separators first.
    leaf_depth = _bit_length(node) - 1
    deepest = int(leaf_depth.max())
    key = ((node - (1 << leaf_depth)) << (deepest - leaf_depth)) * 64
    s = np.flatnonzero(sep <= deepest)
    d = sep[s]
    end = (node[s] >> (leaf_depth[s] - d)) - (1 << d) + 1
    key[s] = (end << (deepest - d)) * 64 - 1 - d
    return np.argsort(key, kind="stable")


def stiffness_matrix(vertices: np.ndarray, triangles: np.ndarray) -> sp.csr_matrix:
    """P1 stiffness matrix of counterclockwise triangles, exactly symmetric."""
    tri = triangles.astype(np.int32)  # vertex counts stay far below 2**31
    x, y = vertices[:, 0][tri], vertices[:, 1][tri]
    # edge opposite each vertex i, from vertex i+1 to vertex i+2
    ex = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    ey = y[:, [2, 0, 1]] - y[:, [1, 2, 0]]
    area2 = ex[:, 2] * (-ey[:, 1]) - ey[:, 2] * (-ex[:, 1])
    if np.any(area2 <= 0.0):
        raise SolverError("mesh contains non-positive triangle areas")
    local = (ex[:, :, None] * ex[:, None, :] + ey[:, :, None] * ey[:, None, :]) / (2.0 * area2)[:, None, None]
    rows = np.repeat(tri, 3, axis=1).reshape(-1)
    cols = np.tile(tri, (1, 3)).reshape(-1)
    k = sp.coo_matrix(
        (local.reshape(-1), (rows, cols)),
        shape=(len(vertices), len(vertices)),
    ).tocsr()
    # Already exactly symmetric: each local matrix is, and an off-diagonal
    # entry sums at most two contributions, in either order.  What is left
    # to drop are the zeros of right angles and of cancelling pairs.
    k.eliminate_zeros()
    return k


def assemble(mesh: Mesh) -> StiffnessOperator:
    """Assemble the P1 stiffness matrix, exactly symmetric."""
    return StiffnessOperator(mesh, stiffness_matrix(mesh.vertices, mesh.triangles))


def element_gradients(f: ScalarField, rows: np.ndarray | None = None) -> np.ndarray:
    """Exact P1 gradient on each triangle, shape (T, 2), or on the triangles
    ``rows`` only, shape (len(rows), 2), with the same values."""
    mesh = f.mesh
    tris = mesh.triangles if rows is None else mesh.triangles[rows]
    p = mesh.vertices[tris]
    v = f.values[tris]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    area2 = e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0])
    # grad of barycentric i is the opposite edge rotated by +90deg over 2A
    rot = np.stack([-e[:, :, 1], e[:, :, 0]], axis=2)
    return np.einsum("ti,tid->td", v, rot) / area2[:, None]


def max_gradient(f: ScalarField, region: str = "all") -> tuple[float, np.ndarray]:
    """Largest |grad| over triangles in the region and its centroid."""
    if region == "neck":
        mask = f.mesh.neck
    elif region == "far":
        mask = ~f.mesh.neck
    elif region == "all":
        mask = np.ones(f.mesh.triangle_count, dtype=bool)
    else:
        raise ValueError(f"unknown region {region!r}")
    if not mask.any():
        raise ValueError(f"region {region!r} contains no triangles")
    idx = np.flatnonzero(mask)
    grads = element_gradients(f, idx)
    norms = np.hypot(grads[:, 0], grads[:, 1])
    best = int(np.argmax(norms))
    return float(norms[best]), f.mesh.vertices[f.mesh.triangles[idx[best]]].mean(axis=0)
