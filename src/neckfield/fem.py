"""P1 finite elements: stiffness, Dirichlet solves, energies, fluxes.

Boundary fluxes are extracted through the unconstrained bilinear form
against the nodal indicator of a tagged boundary part.  For a discrete
harmonic field this is exactly compatible with the discrete energy
identity (flux of the unit-potential field through its own boundary
equals its energy), which the solver pipeline relies on.
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
        self._factor = None

    def _factorization(self):
        if self._factor is None:
            self._factor = spla.splu(self._k_ii)
        return self._factor

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
                sol = self._factorization().solve(rhs)
            except (RuntimeError, MemoryError):
                sol = self._cg(rhs)
            res = np.linalg.norm(self._k_ii @ sol - rhs)
            denom = max(np.linalg.norm(rhs), 1e-30)
            if res / denom > 1e-10:
                raise SolverError(f"relative residual {res / denom:.3e} exceeds 1e-10")
            u[self.interior] = sol
        return ScalarField(mesh=mesh, values=u)

    def _cg(self, rhs: np.ndarray) -> np.ndarray:
        diag = self._k_ii.diagonal()
        precond = spla.LinearOperator(
            self._k_ii.shape, matvec=lambda x: x / diag
        )
        cap = int(50 * math.sqrt(max(len(rhs), 1)))
        sol, info = spla.cg(self._k_ii, rhs, rtol=1e-12, maxiter=cap, M=precond)
        if info != 0:
            res = np.linalg.norm(self._k_ii @ sol - rhs) / max(np.linalg.norm(rhs), 1e-30)
            raise SolverError(f"conjugate gradient stopped after {cap} iterations, residual {res:.3e}")
        return sol

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


def element_gradients(f: ScalarField) -> np.ndarray:
    """Exact P1 gradient on each triangle, shape (T, 2)."""
    mesh = f.mesh
    p = mesh.vertices[mesh.triangles]
    v = f.values[mesh.triangles]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    area2 = e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0])
    # grad of barycentric i is the opposite edge rotated by +90deg over 2A
    rot = np.stack([-e[:, :, 1], e[:, :, 0]], axis=2)
    return np.einsum("ti,tid->td", v, rot) / area2[:, None]


def max_gradient(f: ScalarField, region: str = "all") -> tuple[float, np.ndarray]:
    """Largest |grad| over triangles in the region and its centroid."""
    grads = element_gradients(f)
    norms = np.hypot(grads[:, 0], grads[:, 1])
    if region == "neck":
        mask = f.mesh.neck
    elif region == "far":
        mask = ~f.mesh.neck
    elif region == "all":
        mask = np.ones(len(norms), dtype=bool)
    else:
        raise ValueError(f"unknown region {region!r}")
    if not mask.any():
        raise ValueError(f"region {region!r} contains no triangles")
    idx = np.flatnonzero(mask)
    best = idx[np.argmax(norms[idx])]
    return float(norms[best]), f.mesh.vertices[f.mesh.triangles[best]].mean(axis=0)
