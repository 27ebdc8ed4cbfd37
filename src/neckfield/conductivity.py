"""Solution structure of the perfect conductivity problem.

The potential with unknown conductor levels is assembled from three
Dirichlet solves: unit potential on one inclusion (v1, then v2 by
symmetry of roles) and the inclusion-grounded response to the outer data
(v0).  The conductor levels C1, C2 follow from the zero-net-flux
conditions, a 2x2 linear system in the six boundary fluxes.  The bounded
part vb = C2*(v1+v2) + v0 carries the blow-up factor: the flux of vb
through the upper inclusion decides whether the composed gradient blows
up as the gap closes, and converges to the touching-limit factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import InputError, _Deferred, fem
from .closed_forms import neck_potential
from .geometry import InclusionPair
from .mesh import INCLUSION1, INCLUSION2, OUTER, Mesh, MeshParams, generate_touching

np = _Deferred("numpy")

__all__ = [
    "BoundaryData",
    "SolveBundle",
    "LimitBundle",
    "solve_components",
    "flux_system",
    "solve_constants",
    "solve_bundle",
    "neck_interpolant",
    "neck_remainder",
    "solve_limit_direct",
]


@dataclass(frozen=True)
class BoundaryData:
    """Outer boundary data presets; all are smooth on the outer circle.

    kinds: 'constant' (value), 'linear_xn', 'linear_x1', 'fourier'
    (cos_coeffs[k-1]*cos(k*theta) + sin_coeffs[k-1]*sin(k*theta)).
    """

    kind: str
    value: float = 0.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "linear_xn", "linear_x1", "fourier"):
            raise InputError(f"unknown boundary data kind {self.kind!r}", "kind")
        if self.kind == "fourier" and not (self.cos_coeffs or self.sin_coeffs):
            raise InputError("fourier data needs at least one coefficient", "kind")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.kind == "constant":
            return np.full(len(pts), self.value)
        if self.kind == "linear_xn":
            return pts[:, 1].copy()
        if self.kind == "linear_x1":
            return pts[:, 0].copy()
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.zeros(len(pts))
        for k, a in enumerate(self.cos_coeffs, start=1):
            out += a * np.cos(k * theta)
        for k, b in enumerate(self.sin_coeffs, start=1):
            out += b * np.sin(k * theta)
        return out

    def scale(self, outer_radius: float) -> float:
        """Size proxy used to normalize tolerances."""
        if self.kind == "constant":
            return max(1.0, abs(self.value))
        if self.kind in ("linear_xn", "linear_x1"):
            return max(1.0, outer_radius)
        return max(1.0, sum(map(abs, self.cos_coeffs)) + sum(map(abs, self.sin_coeffs)))


@dataclass
class SolveBundle:
    """Component fields, flux matrix, conductor levels and derived fields."""

    mesh: Mesh
    phi: BoundaryData
    v1: fem.ScalarField
    v2: fem.ScalarField
    v0: fem.ScalarField
    a11: float
    a12: float
    a21: float
    a22: float
    b1: float
    b2: float
    c1: float
    c2: float
    u: fem.ScalarField
    vb: fem.ScalarField
    b_factor: float
    b_factor_system: float
    c_diff_residual: float


def solve_components(
    op: fem.StiffnessOperator, phi: BoundaryData
) -> tuple[fem.ScalarField, fem.ScalarField, fem.ScalarField]:
    """Unit-potential fields of each inclusion and the grounded response."""
    v1, v2, v0 = op.solve_dirichlet(
        [
            {INCLUSION1: 1.0, INCLUSION2: 0.0, OUTER: 0.0},
            {INCLUSION1: 0.0, INCLUSION2: 1.0, OUTER: 0.0},
            {INCLUSION1: 0.0, INCLUSION2: 0.0, OUTER: phi.evaluate},
        ]
    )
    return v1, v2, v0


def flux_system(
    op: fem.StiffnessOperator,
    v1: fem.ScalarField,
    v2: fem.ScalarField,
    v0: fem.ScalarField,
) -> tuple[np.ndarray, np.ndarray]:
    """Flux matrix a_ij (field j through inclusion i) and loads b_i."""
    f1, f2, f0 = (op.fluxes(v) for v in (v1, v2, v0))
    a = np.array([[f1[INCLUSION1], f2[INCLUSION1]], [f1[INCLUSION2], f2[INCLUSION2]]])
    b = np.array([-f0[INCLUSION1], -f0[INCLUSION2]])
    return a, b


def solve_constants(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Conductor levels from the zero-net-flux system."""
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    scale = abs(a[0, 0] * a[1, 1]) + abs(a[0, 1] * a[1, 0])
    if abs(det) <= 1e-14 * max(scale, 1e-300):
        raise fem.SolverError(f"flux system is singular (det {det:.3e} vs scale {scale:.3e})")
    c1 = (b[0] * a[1, 1] - a[0, 1] * b[1]) / det
    c2 = (a[0, 0] * b[1] - b[0] * a[1, 0]) / det
    return float(c1), float(c2)


def solve_bundle(
    mesh: Mesh, phi: BoundaryData, op: fem.StiffnessOperator | None = None
) -> SolveBundle:
    """Full pipeline on one mesh: components, fluxes, levels, composition.

    The bounded field is composed algebraically as vb = c2*(v1+v2) + v0,
    which satisfies its defining problem exactly in the discrete space.
    The blow-up factor is recorded both as the direct flux of vb and as
    b1 - c2*(a11+a12); the two must agree to rounding.
    """
    if op is None:
        op = fem.assemble(mesh)
    v1, v2, v0 = solve_components(op, phi)
    a, b = flux_system(op, v1, v2, v0)
    c1, c2 = solve_constants(a, b)
    u = fem.ScalarField(mesh, c1 * v1.values + c2 * v2.values + v0.values)
    vb = fem.ScalarField(mesh, c2 * (v1.values + v2.values) + v0.values)
    b_direct = -op.fluxes(vb)[INCLUSION1]
    b_system = b[0] - c2 * (a[0, 0] + a[0, 1])
    c_diff_residual = (c1 - c2) - b_direct / a[0, 0]
    return SolveBundle(
        mesh=mesh,
        phi=phi,
        v1=v1,
        v2=v2,
        v0=v0,
        a11=float(a[0, 0]),
        a12=float(a[0, 1]),
        a21=float(a[1, 0]),
        a22=float(a[1, 1]),
        b1=float(b[0]),
        b2=float(b[1]),
        c1=c1,
        c2=c2,
        u=u,
        vb=vb,
        b_factor=float(b_direct),
        b_factor_system=float(b_system),
        c_diff_residual=float(c_diff_residual),
    )


def neck_interpolant(pair: InclusionPair, mesh: Mesh) -> np.ndarray:
    """Nodal interpolant of the explicit neck potential: its values at the
    vertices of the neck strip, 0 elsewhere."""
    ids = mesh.neck_view.vertex_ids
    ramp = np.zeros(mesh.vertex_count)
    ramp[ids] = neck_potential(pair, mesh.vertices[ids])
    return ramp


def neck_remainder(bundle: SolveBundle, ramp: np.ndarray) -> fem.ScalarField:
    """Difference between the solved unit-potential field and ``ramp``, the
    nodal interpolant of the explicit neck potential, as a nodal field
    supported on the neck strip."""
    mesh = bundle.mesh
    ids = mesh.neck_view.vertex_ids
    w = np.zeros(mesh.vertex_count)
    w[ids] = bundle.v1.values[ids] - ramp[ids]
    return fem.ScalarField(mesh, w)


# ---------------------------------------------------------------------------
# blow-up factor: the truncated-cusp limit


@dataclass
class LimitBundle:
    """Touching-limit factor and level with an uncertainty, and the fields
    of the finest cut."""

    b0: float
    b0_uncertainty: float
    c0: float
    fields: dict


def solve_limit_direct(
    pair: InclusionPair,
    phi: BoundaryData,
    r_cuts: list[float],
    params: MeshParams,
) -> LimitBundle:
    """Touching-limit factor from meshes with the cusp excised.

    The channel |x| < r_cut is removed and its fibers become boundary of
    the merged conductor; the single level c0 follows from the combined
    zero-flux condition, and the factor is the flux of c0*u1 + u0 through
    the upper part.  The sequence over shrinking r_cut is Aitken
    extrapolated; the uncertainty is the extrapolation's own correction.
    """
    if pair.eps != 0.0:
        pair = pair.with_gap(0.0)
    cuts = sorted(r_cuts, reverse=True)
    if len(cuts) < 2:
        raise ValueError("need at least two cut radii")
    b_vals = []
    c_vals = []
    fields = None
    for r_cut in cuts:
        mesh = generate_touching(pair, r_cut, params)
        op = fem.assemble(mesh)
        u1, u0 = op.solve_dirichlet(
            [{INCLUSION1: 1.0, INCLUSION2: 1.0, OUTER: 0.0}, {INCLUSION1: 0.0, INCLUSION2: 0.0, OUTER: phi.evaluate}]
        )
        f1, f0 = op.fluxes(u1), op.fluxes(u0)
        denom = f1[INCLUSION1] + f1[INCLUSION2]
        if denom <= 0.0:
            raise fem.SolverError(f"merged-conductor flux {denom:.3e} should be positive")
        c0 = -(f0[INCLUSION1] + f0[INCLUSION2]) / denom
        b0 = -(c0 * f1[INCLUSION1] + f0[INCLUSION1])
        b_vals.append(b0)
        c_vals.append(c0)
        composed = fem.ScalarField(mesh, c0 * u1.values + u0.values)
        fields = {"u1": u1, "u0": u0, "u_limit": composed, "mesh": mesh}
    b_arr = np.asarray(b_vals)
    if len(b_arr) >= 3:
        d1 = b_arr[-2] - b_arr[-3]
        d2 = b_arr[-1] - b_arr[-2]
        denom = d2 - d1
        if abs(denom) > 1e-14 * max(abs(d1), abs(d2), 1e-300) and abs(d2) < abs(d1):
            b_ext = b_arr[-1] - d2 * d2 / denom
        else:
            b_ext = b_arr[-1]
    else:
        b_ext = b_arr[-1]
    uncertainty = abs(b_ext - b_arr[-1]) + 0.5 * abs(b_arr[-1] - b_arr[-2])
    return LimitBundle(
        b0=float(b_ext),
        b0_uncertainty=float(uncertainty),
        c0=float(c_vals[-1]),
        fields=fields,
    )
