"""Two-inclusion geometry: neck profiles, gap function, neck predicate.

The configuration is a pair of convex inclusions inside a disk (or ball),
almost touching across a thin gap on the x_n axis.  Near the closest points
the inclusion boundaries are graphs ``x_n = eps + h1(x')`` (upper) and
``x_n = h2(x')`` (lower) over ``|x'| <= 2*R0``; beyond ``|x'| = R0`` each
boundary is closed by a circular (or spherical) cap that meets the graph
with matching tangent.  The lower inclusion is fixed with its top at the
origin; the upper one is translated up by the gap width ``eps``.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace

from . import InputError, _Deferred

np = _Deferred("numpy")

__all__ = [
    "GeometryError",
    "ReachError",
    "ProfileKind",
    "NeckProfile",
    "CapArc",
    "InclusionPair",
]


class GeometryError(InputError):
    """Invalid geometric data or an evaluation outside its domain; ``keys``
    names the ``NeckProfile`` and ``InclusionPair`` fields at fault."""


class ReachError(GeometryError):
    """The inclusions reach too near the outer boundary."""


class ProfileKind(enum.Enum):
    QUADRATIC = "quadratic"
    POWER_LAW = "power"


@dataclass(frozen=True)
class NeckProfile:
    """Shape of the two boundary graphs near the closest points.

    The relative profile ``h1 - h2`` is the quantity every asymptotic
    formula depends on; ``split = (s1, s2)`` with ``s1 + s2 = 1``
    apportions it between the upper graph ``h1 = s1 * rel`` and the lower
    graph ``h2 = -s2 * rel``.

    kind QUADRATIC: ``rel(x') = sum_j curvatures[j] * x_j**2 / 2`` with all
    relative principal curvatures positive.
    kind POWER_LAW: ``rel(x') = coefficient * |x'|**order`` with
    ``order >= 2``.
    """

    kind: ProfileKind
    curvatures: tuple[float, ...] | None = None
    order: float | None = None
    coefficient: float | None = None
    split: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self) -> None:
        if len(self.split) != 2:
            raise GeometryError(f"split takes exactly two fractions, got {self.split}", "split")
        s1, s2 = self.split
        if not (0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0):
            raise GeometryError(f"split fractions must lie in [0, 1], got {self.split}", "split")
        if abs(s1 + s2 - 1.0) > 1e-12:
            raise GeometryError(f"split fractions must sum to 1, got {self.split}", "split")
        if self.kind is ProfileKind.QUADRATIC:
            if not self.curvatures:
                raise GeometryError("quadratic profile needs at least one curvature", "curvatures")
            if not all(0.0 < lam < math.inf for lam in self.curvatures):
                raise GeometryError(f"curvatures must be positive and finite, got {self.curvatures}", "curvatures")
            if self.order is not None or self.coefficient is not None:
                raise GeometryError("quadratic profile takes no order/coefficient", "order", "coefficient")
        elif self.kind is ProfileKind.POWER_LAW:
            if self.order is None or self.coefficient is None:
                raise GeometryError("power-law profile needs order and coefficient", "order", "coefficient")
            if not 2.0 <= self.order < math.inf:
                raise GeometryError(f"power-law order {self.order} inadmissible: must be finite and >= 2", "order")
            if not 0.0 < self.coefficient < math.inf:
                raise GeometryError(f"coefficient must be positive and finite, got {self.coefficient}", "coefficient")
            if self.curvatures is not None:
                raise GeometryError("power-law profile takes no curvature list", "curvatures")
        else:  # pragma: no cover - enum is closed
            raise GeometryError(f"unknown profile kind {self.kind}")

    # -- evaluation ---------------------------------------------------------

    def relative(self, xp):
        """Relative profile (h1 - h2)(x'), exact for the model shapes.

        ``xp`` is one point, shape (n-1,), giving a float, or N points,
        shape (N, n-1), giving an array of N values with the same bits.
        """
        arr = np.atleast_1d(np.asarray(xp, dtype=float))
        if arr.ndim > 2 or (self.kind is ProfileKind.QUADRATIC and arr.shape[-1] != len(self.curvatures)):
            raise GeometryError(f"coordinate shape {arr.shape} is neither (n-1,) nor (N, n-1) for this profile")
        if self.kind is ProfileKind.QUADRATIC:
            rel = 0.5 * np.sum(np.asarray(self.curvatures, dtype=float) * arr * arr, axis=-1)
        else:
            # Python's float power, not np.power: the two differ in the last bit.
            r = np.sqrt(np.sum(arr * arr, axis=-1)).reshape(-1).tolist()
            rel = np.array([self.coefficient * ri**self.order for ri in r], dtype=float)
        return rel.item() if arr.ndim == 1 else rel

    def relative_radial(self, r: float) -> float:
        """Relative profile at radius ``r`` (isotropic profiles only)."""
        if not self.is_radial():
            raise GeometryError("radial evaluation needs an isotropic profile")
        if self.kind is ProfileKind.QUADRATIC:
            return 0.5 * self.curvatures[0] * r * r
        return self.coefficient * r**self.order

    def relative_slope_radial(self, r: float) -> float:
        """d/dr of the relative profile (isotropic profiles only)."""
        if not self.is_radial():
            raise GeometryError("radial evaluation needs an isotropic profile")
        if self.kind is ProfileKind.QUADRATIC:
            return self.curvatures[0] * r
        return self.coefficient * self.order * r ** (self.order - 1.0)

    def heights(self, xp) -> tuple[float, float]:
        """Upper and lower graph heights (h1, h2) before the eps shift."""
        rel = self.relative(xp)
        s1, s2 = self.split
        return s1 * rel, -s2 * rel

    def is_radial(self) -> bool:
        if self.kind is ProfileKind.POWER_LAW:
            return True
        return len(set(self.curvatures)) == 1

    # -- derived scales -----------------------------------------------------

    def power_equivalent(self) -> tuple[float, float]:
        """(order m, coefficient lam) with rel = lam * |x'|**m; radial only."""
        if self.kind is ProfileKind.POWER_LAW:
            return float(self.order), float(self.coefficient)
        if not self.is_radial():
            raise GeometryError("anisotropic quadratic profile has no radial power form")
        return 2.0, 0.5 * self.curvatures[0]

    def curvature_scale(self, r: float, gap0: float) -> float:
        """Local second-derivative scale of the relative profile.

        Used to grade neck meshes; floored at the radius where the profile
        first reaches the size of the central gap ``gap0`` so the scale
        stays positive for flat (order > 2) profiles.
        """
        m, lam = self.power_equivalent()
        if m == 2.0:
            return 2.0 * lam
        r_gap = (max(gap0, 1e-300) / lam) ** (1.0 / m)
        r_eff = max(abs(r), r_gap)
        return m * (m - 1.0) * lam * r_eff ** (m - 2.0)


@dataclass(frozen=True)
class CapArc:
    """Circular (spherical for n=3) cap closing one inclusion boundary.

    The cap circle is centred on the symmetry axis at height
    ``center_height``; it passes through the profile endpoints at
    ``|x'| = R0`` with matching tangent.
    """

    center_height: float
    radius: float


def _cap_for_graph(height_at_r0: float, slope_at_r0: float, r0: float, keys: tuple[str, ...]) -> CapArc:
    # Tangent matching: the radius vector at the junction is normal to the
    # graph, so the centre sits at signed distance r0/slope above the join.
    if slope_at_r0 == 0.0:
        raise GeometryError("flat profile side cannot be closed by a tangent cap", *keys)
    offset = r0 / slope_at_r0
    center = height_at_r0 + offset
    radius = math.hypot(r0, offset)
    return CapArc(center_height=center, radius=radius)


@dataclass(frozen=True)
class InclusionPair:
    """Full description of the two-inclusion configuration.

    ``dimension`` is 2 or 3; for 3 the profile must be isotropic so the
    caps are surfaces of revolution.  ``eps >= 0``; zero gives the touching
    configuration used by the limit problem.  The outer domain is the disk
    or ball of radius ``outer_radius`` about the origin, and construction
    checks the separation ``dist(inclusions, outer boundary) > separation``.
    """

    dimension: int
    profile: NeckProfile
    eps: float
    neck_radius: float = 0.5
    outer_radius: float = 4.0
    separation: float = 1.0

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise GeometryError(f"dimension must be 2 or 3, got {self.dimension}", "dimension")
        for name in ("eps", "neck_radius", "outer_radius", "separation"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError(f"{name} must be finite, got {getattr(self, name)}", name)
        if self.eps < 0.0:
            raise GeometryError(f"gap must be nonnegative, got {self.eps}", "eps")
        if not (sys.float_info.min <= self.neck_radius < 1.0):  # the strip divides by it
            raise GeometryError(f"neck radius must lie in (0, 1), not subnormal, got {self.neck_radius}", "neck_radius")
        if self.separation < 1.0:
            raise GeometryError(f"separation bound must be at least 1, got {self.separation}", "separation")
        s1, s2 = self.profile.split
        if s1 <= 0.0 or s2 <= 0.0:
            raise GeometryError("closed inclusions need strictly positive split fractions", "split")
        if self.dimension == 3 and not self.profile.is_radial():
            raise GeometryError("dimension 3 needs an isotropic profile (equal curvatures)", "curvatures", "dimension")
        if self.profile.kind is ProfileKind.QUADRATIC:
            expected = self.dimension - 1
            if len(self.profile.curvatures) != expected:
                raise GeometryError(
                    f"quadratic profile needs {expected} curvature(s) in dimension {self.dimension}",
                    "curvatures",
                    "dimension",
                )
        # Caps exist and the pair stays away from the outer boundary.
        shape = ("curvatures",) if self.profile.kind is ProfileKind.QUADRATIC else ("order", "coefficient")
        object.__setattr__(self, "_caps", self._build_caps((*shape, "neck_radius")))
        cap1, cap2 = self.caps()
        reach = max(abs(cap1.center_height) + cap1.radius, abs(cap2.center_height) + cap2.radius)
        margin = self.outer_radius - reach
        if margin <= self.separation:
            keys = ("split", *shape, "neck_radius", "separation", "outer_radius")
            raise ReachError(
                f"inclusions reach within {margin:.3g} of the outer boundary; need more than "
                f"{self.separation:.3g}; the inclusions follow from {', '.join(keys[:-1])} and {keys[-1]}",
                *keys,
            )

    # -- construction helpers -------------------------------------------------

    def caps(self) -> tuple[CapArc, CapArc]:
        return self._caps

    def _build_caps(self, keys: tuple[str, ...]) -> tuple[CapArc, CapArc]:
        r0 = self.neck_radius
        s1, s2 = self.profile.split
        slope = self.profile.relative_slope_radial(r0) if self.profile.is_radial() else None
        if slope is None:  # pragma: no cover - dimension 3 requires radial
            raise GeometryError("caps need an isotropic profile")
        h1 = s1 * self.profile.relative_radial(r0)
        h2 = -s2 * self.profile.relative_radial(r0)
        cap1 = _cap_for_graph(self.eps + h1, s1 * slope, r0, keys)
        cap2 = _cap_for_graph(h2, -s2 * slope, r0, keys)
        return cap1, cap2

    def with_gap(self, eps: float) -> "InclusionPair":
        """Same fixed lower inclusion with the upper one translated to gap eps."""
        return replace(self, eps=eps)

    # -- scalar fields over the neck ------------------------------------------

    def _transverse(self, xp) -> np.ndarray:
        """x' as a float vector of n-1 components, checked against 2*R0."""
        arr = np.atleast_1d(np.asarray(xp, dtype=float))
        if arr.shape != (self.dimension - 1,):
            raise GeometryError(
                f"transverse coordinate must have {self.dimension - 1} component(s), got shape {arr.shape}"
            )
        r = float(np.sqrt(np.sum(arr * arr)))
        if r > 2.0 * self.neck_radius + 1e-12:
            raise GeometryError(f"|x'| = {r:.6g} outside the profile range 2*R0 = {2 * self.neck_radius}")
        return arr

    def heights(self, xp) -> tuple[float, float]:
        """(h1, h2) at transverse coordinate x'; rejects |x'| > 2*R0."""
        return self.profile.heights(self._transverse(xp))

    def gap(self, xp) -> float:
        """Gap width eps + (h1 - h2)(x') across the neck."""
        return self.eps + self.profile.relative(self._transverse(xp))

    def gap_radial(self, r: float) -> float:
        return self.eps + self.profile.relative_radial(r)

    # -- neck predicate ---------------------------------------------------------

    def _split_point(self, x) -> tuple[np.ndarray, float]:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dimension,):
            raise GeometryError(f"point must have {self.dimension} components, got shape {arr.shape}")
        return arr[:-1], float(arr[-1])

    def in_neck(self, x, r: float | None = None) -> bool:
        xp, xn = self._split_point(x)
        radius = self.neck_radius if r is None else r
        rho = float(np.sqrt(np.sum(xp * xp)))
        if rho >= radius:
            return False
        h1, h2 = self.profile.heights(xp)
        return h2 < xn < self.eps + h1
