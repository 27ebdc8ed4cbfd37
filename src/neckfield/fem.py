"""P1 finite elements: stiffness, Dirichlet solves, energies, fluxes.

Boundary fluxes are extracted through the unconstrained bilinear form
against the nodal indicator of a tagged boundary part.  For a discrete
harmonic field this is exactly compatible with the discrete energy
identity (flux of the unit-potential field through its own boundary
equals its energy), which the solver pipeline relies on.

Every mesh is mirror symmetric and carries its vertex permutation m of
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
bound, i.e. for data with an odd part.  Several boundary data given at
once share each block solve.

A block of at least ``_DISSECTION_MIN`` unknowns is factored in a
geometric nested-dissection order (George, SIAM J. Numer. Anal. 10,
1973; ``_dissection``), which gives O(N log N) fill on a planar mesh.
SuperLU then factors without reordering or pivoting, which the symmetric
positive definite blocks allow.  A smaller block is ordered by reverse
Cuthill-McKee and factored by LAPACK's banded Cholesky (George and Liu,
1981; ``_banded_cholesky``), in 0.3-0.6 of SuperLU's time at a sweep's
thousand unknowns; from about 10,000 on, where the band is often too
wide, the dissection wins (BENCH_17.json has the figures per block).

``np``, ``sp``, ``spla``, ``csgraph`` and ``linalg`` are deferred
stand-ins for numpy, ``scipy.sparse``, ``scipy.sparse.linalg``,
``scipy.sparse.csgraph`` and ``scipy.linalg`` (``neckfield._Deferred``):
the first assembly or solve imports them, so commands that never solve
load neither numpy nor scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _Deferred
from .mesh import INTERIOR, Mesh, _corners

np = _Deferred("numpy")
sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")
csgraph = _Deferred("scipy.sparse.csgraph")
linalg = _Deferred("scipy.linalg")

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
# Blocks from this many unknowns up are ordered by nested dissection and
# LU-factored, smaller ones get a banded Cholesky factor; the dissection
# stops at cells of at most _DISSECTION_LEAF unknowns.
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
    triangles at x >= 0, which must be half of them.

    Rows of the half stiffness K_h are the vertices ``_keep`` at x >= 0;
    ``_image`` holds their mirror images.  K f is K_h f at x > 0,
    K_h (f o m) at the images and the sum of the two on the axis.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        tags = mesh.vertex_tags
        self.interior = np.flatnonzero(tags == INTERIOR)
        # The vertex ids of each boundary tag present, in tag order.
        self._tag_ids = {int(tag): np.flatnonzero(tags == tag) for tag in np.unique(tags[tags != INTERIOR])}
        right = mesh.vertices[:, 0] >= 0.0
        tri = mesh.triangles
        half = right[tri[:, 0]] & right[tri[:, 1]] & right[tri[:, 2]]
        if 2 * np.count_nonzero(half) != mesh.triangle_count:
            raise SolverError("the mirror does not split the triangles into two halves")
        self._keep = np.flatnonzero(right)
        self._image = mesh.mirror[self._keep]
        local = np.cumsum(right, dtype=np.int32) - 1  # each kept vertex's row
        self._points = mesh.vertices.take(self._keep, axis=0)
        self._half = stiffness_matrix(self._points, local.take(np.compress(half, tri, axis=0)))
        kept = tags[self._keep]
        # The unknowns of each block, as rows of K_h; the odd block leaves
        # out the axis.  K f over the interior has the squared norm
        # 2 (e'W_e e + o'W_o o) for the even and odd parts e and o of K_h f:
        # W_o weighs the odd block's rows by 1, W_e the even block's rows by
        # 1 and those on the axis by 2.
        inner, off_axis = kept == INTERIOR, self._points[:, 0] > 0.0
        self._unknowns = {"even": np.flatnonzero(inner), "odd": np.flatnonzero(inner & off_axis)}
        self._weights = np.where(off_axis, 1.0, 2.0) * inner, 1.0 * (inner & off_axis)
        # The boundary rows of K_h: their vertices and images, whose data
        # tell whether a solve is even, and the rows on the columns they
        # couple, enough for every flux, with each tag's rows among them.
        tagged = np.flatnonzero(~inner)
        rows = self._half[tagged]
        cols = _distinct(rows.indices, len(self._keep))
        self._flux_rows = sp.csr_matrix((rows.data, np.searchsorted(cols, rows.indices), rows.indptr),
                                        shape=(len(tagged), len(cols)))
        self._flux_cols = self._keep[cols], self._image[cols]
        self._tagged = self._keep[tagged], self._image[tagged]
        self._tag_rows = {tag: np.flatnonzero(kept[tagged] == tag) for tag in self._tag_ids}
        self._factors: dict[str, tuple[np.ndarray, object]] = {}

    def _sides(self, values: np.ndarray, even: bool) -> tuple[np.ndarray, np.ndarray]:
        """K_h f and K_h (f o m) over the fundamental domain.  Where f is
        even, f o m is f and the second is the first itself."""
        side = self._half @ values.take(self._keep, axis=0)
        return side, side if even else self._half @ values.take(self._image, axis=0)

    def _parts(self, values: np.ndarray, even: bool) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """The even and odd parts (K_h f ± K_h (f o m)) / 2 over the rows of
        K_h, the odd one None where f is even, and the norm of K f over the
        interior, for each column f."""
        side, mirrored = self._sides(values, even)
        if even:  # (s + s) / 2 is s, bit for bit
            return side, None, np.sqrt(2.0 * (self._weights[0] @ np.square(side)))
        even_part, odd_part = 0.5 * (side + mirrored), 0.5 * (side - mirrored)
        square = self._weights[0] @ np.square(even_part) + self._weights[1] @ np.square(odd_part)
        return even_part, odd_part, np.sqrt(2.0 * square)

    def _block(self, rows: np.ndarray) -> sp.csc_matrix:
        """The principal block of K_h on ``rows``, in CSC."""
        block = self._half[rows][:, rows]
        # K_h is exactly symmetric, so the CSR arrays of the block are its CSC arrays.
        return sp.csc_matrix((block.data, block.indices, block.indptr), shape=block.shape)

    def _factor(self, part: str):
        """Unknowns and factor of the even or odd block, factored on first use.

        A block of at least ``_DISSECTION_MIN`` unknowns gets SuperLU's LU
        with its unknowns in nested-dissection order, a smaller one the band
        of its Cholesky factor in reverse Cuthill-McKee order
        (``_banded_cholesky``); the unknowns are returned in the order of
        the factor's rows.
        """
        if part not in self._factors:
            rows = self._unknowns[part]
            block = self._block(rows)
            if block.shape[0] < _DISSECTION_MIN:
                perm, factor = _banded_cholesky(block)
                rows = rows[perm]
            else:
                perm = _dissection(block, self._points[rows])
                rows = rows[perm]
                factor = spla.splu(
                    _permuted(block, perm),
                    permc_spec="NATURAL",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            self._factors[part] = rows, factor
        return self._factors[part]

    def _lu(self, part: str, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The even or odd block's unknowns and their correction for a
        residual over the rows of K_h, by its factor."""
        rows, factor = self._factor(part)
        if isinstance(factor, np.ndarray):
            return rows, linalg.cho_solve_banded((factor, True), -residual.take(rows, axis=0))
        return rows, factor.solve(-residual.take(rows, axis=0))

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
        # u is even where its boundary data are: the interior is zero, and
        # the even part keeps it so.
        even = np.array_equal(*(u.take(ids, axis=0) for ids in self._tagged))
        even_part, _, scale = self._parts(u, even)
        scale = np.maximum(scale, 1e-30)
        rows, values = block_solve("even", even_part)
        u[keep[rows]] = values
        u[image[rows]] = values
        _, odd_part, norm = self._parts(u, even)
        res = norm / scale
        cols = np.flatnonzero(res > _RESIDUAL_BOUND)
        if len(cols) and odd_part is not None:
            rows, step = block_solve("odd", odd_part[:, cols])
            u[np.ix_(keep[rows], cols)] += step
            u[np.ix_(image[rows], cols)] -= step
            res = self._parts(u, False)[2] / scale
        return float(res.max())

    def solve_dirichlet(self, data: dict[int, object] | list[dict[int, object]]):
        """Discrete harmonic extension of tagged boundary data.

        ``data`` maps every boundary tag present in the mesh to a constant
        or to a callable taking an (N, 2) coordinate array.  A list of such
        maps is solved at once, each block solve taking every right-hand side,
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
        sides = f.values[self._keep], f.values[self._image]
        return float(sum(side @ (self._half @ side) for side in sides))

    def fluxes(self, f: ScalarField) -> dict[int, float]:
        """Consistent boundary flux through each tagged part present, from
        one product K f.

        Every tag is mirror symmetric, so a flux is the sum of
        K_h (f + f o m) over the tag's vertices at x >= 0.
        Sign convention: the unit-potential field of a conductor has
        positive flux through its own boundary, equal to its energy.
        """
        at, images = self._flux_cols
        kf = self._flux_rows @ (f.values[at] + f.values[images])
        return {tag: float(kf[rows].sum()) for tag, rows in self._tag_rows.items()}


def _distinct(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.unique`` of an array of integers in [0, n), by marking them:
    several times faster at a sweep's sizes."""
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


def _banded_cholesky(block: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Reverse Cuthill-McKee order of a symmetric positive definite CSC block
    (``perm[k]`` is the unknown numbered k) and the lower band of its
    Cholesky factor in that order, the band filled from the block's own
    arrays.  SolverError, which the CG fallback catches, if not definite."""
    perm = csgraph.reverse_cuthill_mckee(block, symmetric_mode=True)
    number = np.argsort(perm)
    i, j = number[block.indices], np.repeat(number, np.diff(block.indptr))
    offset = i - j
    lower = offset >= 0
    band = np.zeros((int(offset.max(initial=0)) + 1, block.shape[0]))
    band[offset[lower], j[lower]] = block.data[lower]
    try:
        return perm, linalg.cholesky_banded(band, overwrite_ab=True, lower=True)
    except linalg.LinAlgError as exc:
        raise SolverError(f"banded Cholesky failed: {exc}") from exc


def _permuted(block: sp.csc_matrix, perm: np.ndarray) -> sp.csc_matrix:
    """P B P' of a symmetric CSC block B, where row k of P B is row
    ``perm[k]`` of B, with every column's rows sorted, as ``splu`` would
    sort them: B's rows gathered in ``perm`` order (a symmetric block's
    CSC arrays are its CSR arrays), transposed, which sorts each row's
    columns, and gathered once more."""
    arrays = sp.csr_matrix((block.data, block.indices, block.indptr), shape=block.shape)[perm].tocsc()
    rows = sp.csr_matrix((arrays.data, arrays.indices, arrays.indptr), shape=block.shape)[perm]
    return sp.csc_matrix((rows.data, rows.indices, rows.indptr), shape=block.shape)


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
    leaf_depth = _bit_length(node) - 1

    # The lowest common ancestor of the two leaves of each coupling across
    # leaves, by bringing both heap indices to the same depth and dropping
    # the bits in which they differ.
    cols = np.repeat(np.arange(n, dtype=block.indices.dtype), np.diff(block.indptr))
    upper = block.indices < cols
    ei, ej = block.indices[upper], cols[upper]
    a, b = node[ei], node[ej]
    cut = np.flatnonzero(a != b)
    ei, ej, a, b = ei[cut], ej[cut], a[cut], b[cut]
    da, db = leaf_depth[ei], leaf_depth[ej]
    a, b = a >> np.maximum(da - db, 0), b >> np.maximum(db - da, 0)
    below = _bit_length(a ^ b)  # levels between the ancestor and a
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
    # the end of its node's range, deeper separators first.  Ties go by
    # index, folded into the key.
    deepest = int(leaf_depth.max())
    key = ((node - (1 << leaf_depth)) << (deepest - leaf_depth)) * 64
    s = np.flatnonzero(sep <= deepest)
    d = sep[s]
    end = (node[s] >> (leaf_depth[s] - d)) - (1 << d) + 1
    key[s] = (end << (deepest - d)) * 64 - 1 - d
    return np.argsort(key * n + np.arange(n))


def _kd_leaves(points: np.ndarray) -> np.ndarray:
    """Heap index of each point's leaf (root 1, children 2h and 2h + 1) in
    a k-d tree that splits the root and every cell above ``_DISSECTION_LEAF``
    points at the median of its wider axis, ties by index, smaller half low."""
    n = len(points)
    coords = [np.ascontiguousarray(points[:, axis]) for axis in (0, 1)]
    # The points of the cells left to split, grouped by cell, each cell in
    # x order and in y order.  A split partitions the order across its cut
    # stably, so no level sorts again.
    orders = [_index_order(c) for c in coords]
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


def _index_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of a float array: numpy's
    default sort, about three times faster, with each run of equal values
    put back in index order."""
    order = np.argsort(values)
    ordered = values[order]
    tie = ordered[1:] == ordered[:-1]
    if tie.any():
        run = np.cumsum(np.concatenate([[True], ~tie]))  # the run of each position
        at = np.flatnonzero(np.concatenate([tie, [False]]) | np.concatenate([[False], tie]))
        tied = order[at]
        order[at] = tied[np.argsort(run[at] * len(values) + tied)]
    return order


def stiffness_matrix(vertices: np.ndarray, triangles: np.ndarray) -> sp.csr_matrix:
    """P1 stiffness matrix of counterclockwise triangles, exactly symmetric."""
    tri = triangles.astype(np.int32, copy=False)  # vertex counts stay far below 2**31
    # The coordinates of each corner, and the edge opposite each corner i,
    # from corner i+1 to corner i+2.
    (x0, x1, x2), (y0, y1, y2) = _corners(vertices, tri)
    ex, ey = (x2 - x1, x0 - x2, x1 - x0), (y2 - y1, y0 - y2, y1 - y0)
    area2 = ex[2] * (-ey[1]) - ey[2] * (-ex[1])
    if np.any(area2 <= 0.0):
        raise SolverError("mesh contains non-positive triangle areas")
    # Entry (i, j) of each local matrix, which is symmetric, row by row.
    twice = 2.0 * area2
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    upper = np.stack([(ex[i] * ex[j] + ey[i] * ey[j]) / twice for i, j in pairs], axis=1)
    local = upper.take([0, 1, 2, 1, 3, 4, 2, 4, 5], axis=1)
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


class _Gradients:
    """The exact P1 gradient operator of some triangles, given by their
    corners' vertex ids: the gradient of barycentric i is the edge opposite
    corner i rotated by +90 degrees, over twice the area."""

    def __init__(self, vertices: np.ndarray, corners: np.ndarray):
        self.corners = corners
        (x0, x1, x2), (y0, y1, y2) = _corners(vertices, corners)
        ex, ey = (x2 - x1, x0 - x2, x1 - x0), (y2 - y1, y0 - y2, y1 - y0)
        self.area2 = ex[2] * (-ey[1]) - ey[2] * (-ex[1])
        self.rotated = np.stack([np.stack([-e for e in ey], axis=1), np.stack(ex, axis=1)], axis=2)

    def __call__(self, values: np.ndarray, at=slice(None)) -> np.ndarray:
        """The gradient of the nodal field ``values`` on each triangle, or on
        those at the positions ``at`` only, with the same values."""
        return np.einsum("ti,tid->td", values[self.corners[at]], self.rotated[at]) / self.area2[at, None]


class NeckView:
    """What the neck observables read of a mesh, derived once and read-only
    (``Mesh.neck_view``): the sorted ids of the neck triangles' vertices,
    the triangles' gradient operator, in triangle order, and their station
    columns.  ``column_order`` sorts the neck triangles by column x,
    stably; the distinct columns ``column_x`` start at ``column_starts`` in
    that order."""

    def __init__(self, mesh: Mesh):
        ids = np.flatnonzero(mesh.neck)
        corners = mesh.triangles[ids]
        self.vertex_ids = _distinct(corners, mesh.vertex_count)
        self.gradients = _Gradients(mesh.vertices, corners)
        self.columns = mesh.neck_column_x[ids]
        self.column_order = np.argsort(self.columns, kind="stable")
        self.column_x, self.column_starts = np.unique(self.columns[self.column_order], return_index=True)
        for a in (self.vertex_ids, self.columns, self.column_order, self.column_x, self.column_starts,
                  *vars(self.gradients).values()):
            a.setflags(write=False)


def element_gradients(f: ScalarField, rows: np.ndarray | None = None) -> np.ndarray:
    """Exact P1 gradient on each triangle, shape (T, 2), or on the triangles
    ``rows`` only, shape (len(rows), 2), with the same values."""
    mesh = f.mesh
    return _Gradients(mesh.vertices, mesh.triangles if rows is None else mesh.triangles[rows])(f.values)


def max_gradient(f: ScalarField) -> tuple[float, np.ndarray]:
    """Largest |grad| over the neck triangles and its centroid."""
    view = f.mesh.neck_view
    grads = view.gradients(f.values)
    norms = np.hypot(grads[:, 0], grads[:, 1])
    best = int(np.argmax(norms))
    return float(norms[best]), f.mesh.vertices[view.gradients.corners[best]].mean(axis=0)
