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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import INTERIOR, Mesh

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
    """Sparse P1 stiffness with the interior/boundary index partition."""

    def __init__(self, mesh: Mesh, matrix: sp.csr_matrix):
        self.mesh = mesh
        self.matrix = matrix
        self.boundary = np.flatnonzero(mesh.vertex_tags != INTERIOR)
        self.interior = np.flatnonzero(mesh.vertex_tags == INTERIOR)
        self._k_ii = matrix[self.interior][:, self.interior].tocsc()
        self._k_ib = matrix[self.interior][:, self.boundary].tocsr()
        self._even, self._odd = _symmetry_bases(mesh, self.interior)
        self._factors: dict[str, object] = {}

    def _factor(self, part: str):
        """LU of the even or odd block of K_ii, factored on first use."""
        if part not in self._factors:
            basis = self._even if part == "even" else self._odd
            self._factors[part] = spla.splu((basis.T @ self._k_ii @ basis).tocsc())
        return self._factors[part]

    def _residual(self, sol: np.ndarray, rhs: np.ndarray) -> float:
        return np.linalg.norm(self._k_ii @ sol - rhs) / max(np.linalg.norm(rhs), 1e-30)

    def _solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """K_ii^-1 rhs by the even block, plus the odd block when the even
        solution alone misses the residual bound; returns the solution and
        its relative residual."""
        sol = self._even @ self._factor("even").solve(self._even.T @ rhs)
        res = self._residual(sol, rhs)
        if self._odd.shape[1] and res > _RESIDUAL_BOUND:
            sol += self._odd @ self._factor("odd").solve(self._odd.T @ (rhs - self._k_ii @ sol))
            res = self._residual(sol, rhs)
        return sol, res

    def solve_dirichlet(self, data: dict[int, object]) -> ScalarField:
        """Discrete harmonic extension of tagged boundary data.

        ``data`` maps every boundary tag present in the mesh to a constant
        or to a callable taking an (N, 2) coordinate array.  The residual
        of the constrained system is verified to 1e-10 relative.
        """
        mesh = self.mesh
        tags = set(int(t) for t in np.unique(mesh.vertex_tags) if t != INTERIOR)
        missing = tags - set(data)
        if missing:
            raise SolverError(f"boundary tags without data: {sorted(missing)}")
        u = np.zeros(mesh.vertex_count)
        for tag, value in data.items():
            idx = np.flatnonzero(mesh.vertex_tags == tag)
            if len(idx) == 0:
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

    def flux(self, f: ScalarField, tag: int) -> float:
        """Consistent boundary flux through the tagged part.

        Sign convention: the unit-potential field of a conductor has
        positive flux through its own boundary, equal to its energy.
        """
        mask = self.mesh.vertex_tags == tag
        if not mask.any():
            raise SolverError(f"no boundary vertices carry tag {tag}")
        return float((self.matrix @ f.values)[mask].sum())


def _reflection(mesh: Mesh) -> np.ndarray:
    """Vertex permutation of x -> -x, or the identity when the mesh is not
    exactly mirror symmetric: in coordinates, in tags and in triangles."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    count = len(x)
    identity = np.arange(count)
    # Sorted by |x| then y, the vertices on the axis come first and every
    # other vertex sits next to its mirror image.
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

    def keys(tris: np.ndarray) -> np.ndarray:
        t0, t1, t2 = tris.astype(np.int64).T
        lo = np.minimum(np.minimum(t0, t1), t2)
        hi = np.maximum(np.maximum(t0, t1), t2)
        return np.sort((lo * count + (t0 + t1 + t2 - lo - hi)) * count + hi)

    if not np.array_equal(keys(refl[mesh.triangles]), keys(mesh.triangles)):
        return identity
    return refl


def _symmetry_bases(mesh: Mesh, interior: np.ndarray) -> tuple[sp.csc_matrix, sp.csc_matrix]:
    """Even basis P and odd basis Q over the interior unknowns.

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

    return basis(even, 1.0), basis(odd, -1.0)


def stiffness_matrix(vertices: np.ndarray, triangles: np.ndarray) -> sp.csr_matrix:
    """P1 stiffness matrix of counterclockwise triangles (exactly symmetrized)."""
    p = vertices[triangles]
    e = np.stack(
        [p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1
    )  # edge opposite each vertex
    area2 = e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0])
    if np.any(area2 <= 0.0):
        raise SolverError("mesh contains non-positive triangle areas")
    local = np.einsum("tid,tjd->tij", e, e) / (2.0 * area2)[:, None, None]
    rows = np.repeat(triangles, 3, axis=1).reshape(-1)
    cols = np.tile(triangles, (1, 3)).reshape(-1)
    k = sp.coo_matrix(
        (local.reshape(-1), (rows, cols)),
        shape=(len(vertices), len(vertices)),
    ).tocsr()
    k = (k + k.T) * 0.5
    return k.tocsr()


def assemble(mesh: Mesh) -> StiffnessOperator:
    """Assemble the P1 stiffness matrix (exactly symmetrized)."""
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
