"""P1 finite elements: stiffness, Dirichlet solves, energies, fluxes.

Boundary fluxes are extracted through the unconstrained bilinear form
against the nodal indicator of a tagged boundary part.  For a discrete
harmonic field this is exactly compatible with the discrete energy
identity (flux of the unit-potential field through its own boundary
equals its energy), which the solver pipeline relies on.

A mesh built mirror symmetric carries its vertex permutation m of
x -> -x (``Mesh.mirror``), and the operator assembles only the half
stiffness K_h of the triangles at x >= 0, over the vertices at x >= 0.
The full stiffness is K f = K_h f + (K_h (f o m)) o m, which gives the
residuals, energies and fluxes.  The Dirichlet solves split into an even
and an odd part (Bossavit, CMAME 56, 1986): the even part solves the
interior block of K_h on the vertices at x >= 0, which is the natural
condition on the axis, and the odd part the block on the vertices at
x > 0, which is the zero Dirichlet condition.  Each block has about half
the unknowns of the full problem, and its LU is far cheaper.  Every
solve starts with the even block; the odd block is factored and solved
only when the residual of the full system is still above the 1e-10
bound, i.e. for data with an odd part.  A mesh without a mirror is
assembled whole, and its even solve is the full solve.  Several boundary
data given at once share each LU solve.

A block of at least ``_DISSECTION_MIN`` unknowns is factored in a
geometric nested-dissection order (George, SIAM J. Numer. Anal. 10,
1973; ``_dissection``), which gives O(N log N) fill on a planar mesh.
SuperLU then factors without reordering or pivoting, which the symmetric
positive definite blocks allow.  Smaller blocks keep SuperLU's COLAMD
ordering: the two break even at a few thousand unknowns, and the
ordering wins from about 15,000 on (BENCH_7.json has the figures per
ladder level).

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
    """P1 stiffness of a mesh, assembled on its fundamental domain: the
    triangles at x >= 0 when the mesh carries a mirror, else all of them.

    Rows of the half stiffness K_h are the vertices ``_keep`` of the
    fundamental domain; ``_image`` holds their mirror images.  K f is
    K_h f at x > 0, K_h (f o m) at the images and the sum of the two on
    the axis.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        tags = mesh.vertex_tags
        self.interior = np.flatnonzero(tags == INTERIOR)
        # The vertex ids of each boundary tag present, in tag order.
        self._tag_ids = {int(tag): np.flatnonzero(tags == tag) for tag in np.unique(tags[tags != INTERIOR])}
        verts, tris = mesh.vertices, mesh.triangles
        self._keep, self._image = np.arange(mesh.vertex_count), None
        if mesh.mirror is not None:
            x = verts[:, 0]
            half = np.all(x[tris] >= 0.0, axis=1)
            if 2 * np.count_nonzero(half) != len(tris):
                raise SolverError("the mirror does not split the triangles into two halves")
            self._keep = np.flatnonzero(x >= 0.0)
            self._image = mesh.mirror[self._keep]
            local = np.empty(mesh.vertex_count, dtype=np.int64)
            local[self._keep] = np.arange(len(self._keep))
            verts, tris = verts[self._keep], local[tris[half]]
        self._points = verts
        self._half = stiffness_matrix(verts, tris)
        kept = tags[self._keep]
        self._tag_rows = {tag: np.flatnonzero(kept == tag) for tag in self._tag_ids}
        # The unknowns of each block, as rows of K_h; the odd block leaves
        # out the axis.
        inner = kept == INTERIOR
        self._unknowns = {"even": np.flatnonzero(inner)}
        if self._image is not None:
            self._unknowns["odd"] = np.flatnonzero(inner & (verts[:, 0] > 0.0))
            self._axis = np.flatnonzero(inner & (verts[:, 0] == 0.0))
        self._factors: dict[str, tuple[np.ndarray, object]] = {}

    def _sides(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """K_h f and K_h (f o m) over the fundamental domain, the second None
        without a mirror.  Where f o m equals f on the kept rows, the second
        is the first itself: its product would be the same bits."""
        kept = values[self._keep]
        side = self._half @ kept
        if self._image is None:
            return side, None
        mirrored = values[self._image]
        return side, side if np.array_equal(kept, mirrored) else self._half @ mirrored

    def _interior_norm(self, side: np.ndarray, image: np.ndarray | None) -> np.ndarray:
        """Norm of K f over the interior vertices, from ``_sides(f)``, for
        each column f."""
        if image is None:
            return np.linalg.norm(side[self._unknowns["even"]], axis=0)
        odd, axis = self._unknowns["odd"], self._axis
        return np.sqrt(sum(np.square(part).sum(axis=0) for part in (side[odd], image[odd], side[axis] + image[axis])))

    def _block(self, rows: np.ndarray) -> sp.csc_matrix:
        """The principal block of K_h on ``rows``, in CSC."""
        block = self._half[rows][:, rows]
        # K_h is exactly symmetric, so the CSR arrays of the block are its CSC arrays.
        return sp.csc_matrix((block.data, block.indices, block.indptr), shape=block.shape)

    def _factor(self, part: str):
        """Unknowns and LU of the even or odd block, factored on first use.

        A block of at least ``_DISSECTION_MIN`` unknowns is factored with
        its unknowns in nested-dissection order, a smaller one in COLAMD's;
        the unknowns are returned in the order of the factor's rows.
        """
        if part not in self._factors:
            rows = self._unknowns[part]
            block = self._block(rows)
            if block.shape[0] < _DISSECTION_MIN:
                self._factors[part] = rows, spla.splu(block)
            else:
                perm = _dissection(block, self._points[rows])
                lu = spla.splu(
                    block[perm][:, perm],
                    permc_spec="NATURAL",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
                self._factors[part] = rows[perm], lu
        return self._factors[part]

    def _lu(self, part: str, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The even or odd block's unknowns and their correction for a
        residual over the rows of K_h, by its LU."""
        rows, lu = self._factor(part)
        return rows, lu.solve(-residual[rows])

    def _cg(self, part: str, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_lu`` by Jacobi preconditioned conjugate gradients, one column
        at a time: the fallback when the LU fails."""
        rows = self._unknowns[part]
        block, rhs = self._block(rows), -residual[rows]
        diag = block.diagonal()
        precond = spla.LinearOperator(block.shape, matvec=lambda x: x / diag)
        cap = int(50 * math.sqrt(max(len(rhs), 1)))
        sol = np.empty_like(rhs)
        for col in range(rhs.shape[1]):
            sol[:, col], info = spla.cg(block, rhs[:, col], rtol=1e-12, maxiter=cap, M=precond)
            if info != 0:
                res = np.linalg.norm(block @ sol[:, col] - rhs[:, col]) / max(np.linalg.norm(rhs[:, col]), 1e-30)
                raise SolverError(f"conjugate gradient stopped after {cap} iterations, residual {res:.3e}")
        return rows, sol

    def _solve(self, u: np.ndarray, block_solve) -> float:
        """Fill in the interior values of each column of ``u``, zero on
        entry, so that K u vanishes on the interior; returns the largest
        relative residual.

        The even part comes first: the solution for the even part of the
        data, (u + u o m) / 2.  The odd part, for the residual's odd part,
        is added only to the columns whose even part alone misses the
        residual bound.  ``block_solve(part, residual)`` solves a block.
        """
        keep, image = self._keep, self._image
        side, mirrored = self._sides(u)
        scale = np.maximum(self._interior_norm(side, mirrored), 1e-30)
        rows, values = block_solve("even", side if image is None else 0.5 * (side + mirrored))
        u[keep[rows]] = values
        if image is not None:
            u[image[rows]] = values
        side, mirrored = self._sides(u)
        res = self._interior_norm(side, mirrored) / scale
        odd = np.flatnonzero(res > _RESIDUAL_BOUND)
        if image is not None and len(odd):
            rows, step = block_solve("odd", 0.5 * (side[:, odd] - mirrored[:, odd]))
            u[np.ix_(keep[rows], odd)] += step
            u[np.ix_(image[rows], odd)] -= step
            side, mirrored = self._sides(u)
            res = self._interior_norm(side, mirrored) / scale
        return float(res.max())

    def solve_dirichlet(self, data: dict[int, object] | list[dict[int, object]]):
        """Discrete harmonic extension of tagged boundary data.

        ``data`` maps every boundary tag present in the mesh to a constant
        or to a callable taking an (N, 2) coordinate array.  A list of such
        maps is solved at once, each LU solve taking every right-hand side,
        and gives the list of fields.  The residual of each constrained
        system is verified to 1e-10 relative.
        """
        mesh = self.mesh
        each = data if isinstance(data, list) else [data]
        u = np.zeros((mesh.vertex_count, len(each)), order="F")  # each field's values contiguous
        for col, values in enumerate(each):
            missing = set(self._tag_ids) - set(values)
            if missing:
                raise SolverError(f"boundary tags without data: {sorted(missing)}")
            for tag, value in values.items():
                idx = self._tag_ids.get(tag)
                if idx is None:
                    continue
                if callable(value):
                    u[idx, col] = np.asarray(value(mesh.vertices[idx]), dtype=float)
                else:
                    u[idx, col] = float(value)
        if len(self.interior):
            try:
                res = self._solve(u, self._lu)
            except (RuntimeError, MemoryError):
                u[self.interior] = 0.0
                res = self._solve(u, self._cg)
            if res > _RESIDUAL_BOUND:
                raise SolverError(f"relative residual {res:.3e} exceeds 1e-10")
        fields = [ScalarField(mesh=mesh, values=u[:, col]) for col in range(len(each))]
        return fields if isinstance(data, list) else fields[0]

    def energy(self, f: ScalarField) -> float:
        """Dirichlet energy f'Kf of a nodal field: f'K_h f plus the same for
        f o m."""
        sides = [f.values[self._keep]] if self._image is None else [f.values[self._keep], f.values[self._image]]
        return float(sum(side @ (self._half @ side) for side in sides))

    def fluxes(self, f: ScalarField) -> dict[int, float]:
        """Consistent boundary flux through each tagged part present, from
        one product K f.

        Every tag is mirror symmetric, so a flux is the sum of
        K_h (f + f o m) over the tag's vertices at x >= 0.
        Sign convention: the unit-potential field of a conductor has
        positive flux through its own boundary, equal to its energy.
        """
        values = f.values[self._keep]
        if self._image is not None:
            values = values + f.values[self._image]
        kf = self._half @ values
        return {tag: float(kf[rows].sum()) for tag, rows in self._tag_rows.items()}


def _bit_length(a: np.ndarray) -> np.ndarray:
    """Bit length of each entry of a non-negative integer array below 2**53."""
    return np.frexp(a)[1].astype(np.int64)


def _dissection(block: sp.csc_matrix, points: np.ndarray) -> np.ndarray:
    """Nested-dissection order of a structurally symmetric block whose
    unknowns sit at ``points``: ``perm[k]`` is the unknown numbered k.

    Each coupling between two leaves of the k-d tree (``_kd_leaves``) is
    cut by their lowest common ancestor; the cutting node takes the coupled
    unknown of its low half into its separator, unless either unknown
    already sits in a coarser separator.  A node's range of numbers holds
    its low subtree, its high subtree, then its separator.
    """
    n = block.shape[0]
    node = _kd_leaves(points)

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
    order = np.argsort(depth.astype(np.int16), kind="stable")  # a radix sort: depths are below 64
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


def _kd_leaves(points: np.ndarray) -> np.ndarray:
    """Heap index of each point's leaf (root 1, children 2h and 2h + 1) in
    a k-d tree that splits the root and every cell above ``_DISSECTION_LEAF``
    points at the median of its wider axis, ties by index, smaller half low."""
    n = len(points)
    coords = [np.ascontiguousarray(points[:, axis]) for axis in (0, 1)]
    # The points of the cells left to split, grouped by cell, each cell in
    # x order and in y order.  A split partitions the order across its cut
    # stably, so no level sorts again.
    orders = [np.argsort(c, kind="stable") for c in coords]
    node = np.ones(n, dtype=np.int64)
    high = np.zeros(n, dtype=bool)  # whether a point went to its cell's high half
    sizes, ids = np.array([n]), np.array([1])  # each cell's point count and heap index
    while len(orders[0]):
        first = np.cumsum(sizes) - sizes
        x, y = (c[o[first + sizes - 1]] - c[o[first]] for c, o in zip(coords, orders))
        wide = np.repeat(y > x, sizes)  # the cell is cut along y
        along, across = np.where(wide, orders[1], orders[0]), np.where(wide, orders[0], orders[1])
        lows = sizes // 2
        cut = np.repeat(first + lows, sizes)  # the first position of each high half
        position = np.arange(len(along))
        high[along] = position >= cut
        went = high[across]
        before = np.cumsum(went) - went  # high points before each position
        highs = before - np.repeat(before[first], sizes)  # ... in its own cell
        split = np.empty_like(across)
        split[np.where(went, cut + highs, position - highs)] = across
        orders = [np.where(wide, split, along), np.where(wide, along, split)]
        sizes, ids = np.column_stack([lows, sizes - lows]).ravel(), np.column_stack([2 * ids, 2 * ids + 1]).ravel()
        more = sizes > _DISSECTION_LEAF
        if not more.all():  # some cells are leaves: number their points, drop them
            go = np.repeat(more, sizes)
            node[orders[0][~go]] = np.repeat(ids[~more], sizes[~more])
            orders, sizes, ids = [o[go] for o in orders], sizes[more], ids[more]
    return node


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
    """Assemble the P1 stiffness operator of a mesh on its fundamental domain."""
    return StiffnessOperator(mesh)


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
