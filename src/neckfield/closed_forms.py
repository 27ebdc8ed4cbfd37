"""Explicit formulas: blow-up rates, energy constants, singular neck fields.

Everything here is closed-form or quadrature, no meshes.  The central
object is the gap integral

    integral over |x'| < R0 of dx' / (eps + (h1 - h2)(x'))

computed by adaptive quadrature; its eps -> 0 scaling limit is the ground
truth against which the printed energy constants are adjudicated, because
every capacity-type energy asymptote reduces to exactly this integral.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import InputError, _Deferred
from .geometry import GeometryError, InclusionPair
from .quadrature import adaptive_integral, integral_to_infinity

np = _Deferred("numpy")

__all__ = [
    "MAX_ORDER",
    "AsymptoticParams",
    "ConstantsReport",
    "ProfileConstant",
    "gap_rate_m",
    "curvature_energy_constant",
    "sphere_surface_measure",
    "reciprocal_power_tail",
    "profile_energy_constant",
    "gap_integral",
    "gap_integral_radial",
    "gap_integral_quadratic",
    "energy_limit_constant",
    "printed_energy_constant",
    "neck_potential",
    "energy_error_scale_m",
    "constants_report",
]

# The largest order the oracle takes: its order-m tail integral samples
# r = 4 / (1 - 0.9914554) = 468.1 (t = 1/r at the outermost Kronrod node of
# the first bisection), and r**m is finite for m < log(DBL_MAX) / log(468.1) = 115.4.
MAX_ORDER = 100.0


def _check_eps(eps: float) -> None:
    # A subnormal gap loses the digits the gap integral needs.
    if not (sys.float_info.min <= eps < 1.0):
        raise ValueError(f"gap must lie in [{sys.float_info.min!r}, 1), got {eps}")


def _check_admissible(n: int, m: float) -> None:
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if n == 2:
        if m < 2.0:
            raise ValueError(f"order must be >= 2 in dimension 2, got {m}")
    elif m < n - 1:
        raise ValueError(f"order must be >= {n - 1} in dimension {n}, got {m}")


# ---------------------------------------------------------------------------
# rates


def gap_rate_m(eps: float, n: int, m: float) -> float:
    """Rate for relative convexity of order m.

    eps^(1 - 1/m) in dimension 2; in dimension n >= 3 it is
    eps^(1 - (n-1)/m) for m > n-1 and 1/|log eps| for m = n-1.
    """
    _check_eps(eps)
    _check_admissible(n, m)
    if n == 2:
        return eps ** (1.0 - 1.0 / m)
    if m == n - 1:
        return 1.0 / abs(math.log(eps))
    return eps ** (1.0 - (n - 1.0) / m)


# ---------------------------------------------------------------------------
# constants


def curvature_energy_constant(lam1: float, lam2: float | None = None, *, n: int) -> float:
    """Energy constant as printed for strictly convex pairs.

    sqrt(2)*pi/sqrt(lam1) in dimension 2 and pi/sqrt(lam1*lam2) in
    dimension 3, with lam_j the relative principal curvatures.  The 3D
    value disagrees with the gap-integral oracle by a factor 2; see
    constants_report.
    """
    if lam1 <= 0.0 or (lam2 is not None and lam2 <= 0.0):
        raise ValueError("relative curvatures must be positive")
    if n == 2:
        return math.sqrt(2.0) * math.pi / math.sqrt(lam1)
    if n == 3:
        if lam2 is None:
            lam2 = lam1
        # Root by root: the product lam1 * lam2 under- or overflows.
        return math.pi / (math.sqrt(lam1) * math.sqrt(lam2))
    raise ValueError(f"dimension must be 2 or 3, got {n}")


def sphere_surface_measure(k: int) -> float:
    """Surface measure of the unit sphere S^(k-1) in R^k; k = 1 gives 2."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def reciprocal_power_tail(a: float, m: float) -> float:
    """Closed form of the integral of r^(a-1)/(1+r^m) over (0, infinity)."""
    if not (0.0 < a < m):
        raise ValueError(f"integral diverges unless 0 < a < m, got a={a}, m={m}")
    # sin(pi*a/m) = sin(pi*(m-a)/m), and the latter keeps its digits as
    # a/m -> 1; from m - a = 1 on both are accurate.
    return (math.pi / m) / math.sin((a if m - a >= 1.0 else m - a) * math.pi / m)


@dataclass(frozen=True)
class ProfileConstant:
    """Order-m energy constant, evaluated two independent ways."""

    closed_form: float
    quadrature: float | None
    difference: float | None


def _order_constant(m: float, n: int) -> float:
    """The closed form of profile_energy_constant."""
    omega = sphere_surface_measure(n - 1)
    if n >= 3 and m == n - 1:
        return omega / m  # defined directly, not by a convergent integral
    return (1.0 if n == 2 else omega) * reciprocal_power_tail(1.0 if n == 2 else n - 1.0, m)


def profile_energy_constant(m: float, n: int, rel_tol: float = 1e-11) -> ProfileConstant:
    """Order-m constant: the tail integral in dimension 2, scaled by the
    sphere measure for n >= 3, and omega/m in the logarithmic case m = n-1.
    """
    _check_admissible(n, m)
    closed = _order_constant(m, n)
    if n >= 3 and m == n - 1:
        return ProfileConstant(closed_form=closed, quadrature=None, difference=None)
    a = 1.0 if n == 2 else n - 1.0
    scale = 1.0 if n == 2 else sphere_surface_measure(n - 1)

    def integrand(r: float) -> float:
        return r ** (a - 1.0) / (1.0 + r**m)

    delta = m - a
    if n >= 3 and delta != math.floor(delta):
        # The folded tail t^(delta-1)/(1 + t^m) over (0, 1) is smooth at
        # t = 0 only for an integer delta; otherwise the bisection digs
        # toward t = 1/r = 0 until r**m overflows (below delta = 1 the tail
        # is singular there).  s = t^delta, 1/(1 + s^k) = 1 - s^k/(1 + s^k)
        # with k = m/delta, and u = s^k make it 1/delta minus a bounded
        # integral.
        head = adaptive_integral(integrand, 0.0, 1.0, rel_tol=rel_tol)
        rest = adaptive_integral(lambda u: u ** (delta / m) / (1.0 + u), 0.0, 1.0, rel_tol=rel_tol)
        quad = scale * (head + 1.0 / delta - rest / m)
    else:
        quad = scale * integral_to_infinity(integrand, 0.0, rel_tol=rel_tol)
    return ProfileConstant(closed_form=closed, quadrature=quad, difference=quad - closed)


# ---------------------------------------------------------------------------
# the gap-integral oracle


def gap_integral_radial(
    n: int,
    m: float,
    coefficient: float,
    eps: float,
    r0: float,
    rel_tol: float = 1e-10,
) -> float:
    """Integral of 1/(eps + lam*|x'|^m) over the transverse ball |x'| < r0.

    The peak at r = 0 has width w = (eps/lam)^(1/m), which at a large lam
    lies far inside the first quadrature node of [0, r0].  With rho =
    min(w, r0), r = rho*t gives omega * rho^(n-1)/eps times the integral of
    t^(n-2)/(1 + (rho*t/w)^m) over (0, 1).  Where the ball reaches past the
    peak, the rest is the same factor times the integral of t^(n-2)/(1 + t^m)
    over (1, r0/w); t = 1/s folds it to s^(m-n)/(1 + s^m) over (w/r0, 1),
    which is s^(m-n), integrated exactly, less the bounded s^(2m-n)/(1 + s^m).
    Lengths are taken by their logarithms, since eps/lam under- or overflows.
    """
    if eps <= 0.0:
        raise ValueError("gap integral needs a positive gap")
    log_w = (math.log(eps) - math.log(coefficient)) / m
    log_reach = math.log(r0) - log_w  # log(r0/w)
    q = math.exp(min(log_reach, 0.0))
    total = adaptive_integral(lambda t: t ** (n - 2.0) / (1.0 + (q * t) ** m), 0.0, 1.0, rel_tol=rel_tol)
    lower = math.exp(-max(log_reach, 0.0))  # w/r0, where the ball reaches past the peak
    if lower < 1.0:
        delta = m - n + 1.0
        power = log_reach if delta == 0.0 else -math.expm1(-delta * log_reach) / delta
        rest = adaptive_integral(lambda s: s ** (2.0 * m - n) / (1.0 + s**m), lower, 1.0, rel_tol=rel_tol)
        total += power - rest
    scale = math.exp((n - 1.0) * min(log_w, math.log(r0)) - math.log(eps))
    return sphere_surface_measure(n - 1) * scale * total


def gap_integral(pair: InclusionPair, rel_tol: float = 1e-10) -> float:
    """Adaptive quadrature of 1/gap over the neck cross-section |x'| < R0."""
    if not pair.profile.is_radial():
        raise GeometryError("pair gap integrals need an isotropic profile")
    m, lam = pair.profile.power_equivalent()
    return gap_integral_radial(pair.dimension, m, lam, pair.eps, pair.neck_radius, rel_tol)


def gap_integral_quadratic(
    curvatures: tuple[float, float],
    eps: float,
    r0: float,
    rel_tol: float = 1e-10,
) -> float:
    """3D gap integral for an anisotropic quadratic relative profile.

    Rescaling x_j = sqrt(2/lam_j) y_j turns the profile into |y|^2 and the
    disk |x'| < r0 into an ellipse, leaving one angular quadrature of the
    exact radial antiderivative.
    """
    lam1, lam2 = curvatures
    if lam1 <= 0.0 or lam2 <= 0.0 or eps <= 0.0:
        raise ValueError("curvatures and gap must be positive")
    jac = 2.0 / math.sqrt(lam1 * lam2)

    def integrand(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        r_theta2 = r0**2 / (2.0 * c * c / lam1 + 2.0 * s * s / lam2)
        ratio = r_theta2 / eps  # overflows at the smallest gaps, where log1p is log
        return 0.5 * (math.log1p(ratio) if ratio < math.inf else math.log(r_theta2) - math.log(eps))

    return jac * adaptive_integral(integrand, 0.0, 2.0 * math.pi, rel_tol=rel_tol)


def energy_limit_constant(n: int, m: float, coefficient: float) -> float:
    """Analytic limit of gap_integral(eps) * gap_rate_m(eps) as eps -> 0."""
    _check_admissible(n, m)
    if coefficient <= 0.0:
        raise ValueError("profile coefficient must be positive")
    return (2.0 if n == 2 else 1.0) * _order_constant(m, n) / coefficient ** ((n - 1.0) / m)


def printed_energy_constant(n: int, m: float, coefficient: float) -> float:
    """Energy constant exactly as printed in the asymptotic statements.

    Strictly convex case: curvature constant with lam_j = 2*coefficient.
    Order m case: order-m constant times coefficient^((n-1)/m), with the
    coefficient power placed as in the statements (opposite to the
    oracle's placement; the ratio to energy_limit_constant records both
    that and the dimension-2 factor 2).
    """
    _check_admissible(n, m)
    if m == 2.0 and n in (2, 3):
        lam = 2.0 * coefficient
        return curvature_energy_constant(lam, lam if n == 3 else None, n=n)
    return _order_constant(m, n) * coefficient ** ((n - 1.0) / m)


# ---------------------------------------------------------------------------
# singular neck fields


def _strip_rows(pair: InclusionPair, x) -> tuple[np.ndarray, np.ndarray]:
    """One point (n,) or N points (N, n) as rows, with the relative profile
    at each; rejects, naming the first, a point outside the neck range or
    the gap strip."""
    arr = np.asarray(x, dtype=float)
    n = pair.dimension
    if arr.shape != (n,) and not (arr.ndim == 2 and arr.shape[1] == n):
        raise GeometryError(f"point must have {n} components, got shape {arr.shape}")
    pts = arr.reshape(-1, n)
    xp, xn = pts[:, :-1], pts[:, -1]
    rho = np.sqrt(np.sum(xp * xp, axis=1))
    limit = 2.0 * pair.neck_radius
    far = rho > limit + 1e-12
    rel = np.full(len(pts), np.nan)
    rel[~far] = pair.profile.relative(xp[~far])
    s1, s2 = pair.profile.split
    h1, h2 = s1 * rel, -s2 * rel
    tol = 1e-12 * np.maximum(1.0, np.abs(xn))
    top = pair.eps + h1 + tol
    bad = np.flatnonzero(far | ~((h2 - tol <= xn) & (xn <= top)))
    if len(bad):
        i = bad[0]
        if far[i]:
            raise GeometryError(f"|x'| = {rho[i]:.6g} outside the neck range {limit}")
        raise GeometryError(f"point {pts[i]} lies outside the gap strip")
    return pts, rel


def neck_potential(pair: InclusionPair, x):
    """Explicit potential (x_n - h2)/(eps + h1 - h2), 0 below and 1 above.

    ``x`` is one point, shape (n,), giving a float, or N points, shape
    (N, n), giving an array of N values.
    """
    pts, rel = _strip_rows(pair, x)
    delta = pair.eps + rel
    if np.any(delta <= 0.0):
        raise GeometryError("degenerate gap at the evaluation point")
    h2 = -pair.profile.split[1] * rel
    values = (pts[:, -1] - h2) / delta
    return values if np.ndim(x) == 2 else float(values[0])


# ---------------------------------------------------------------------------
# error scales


def energy_error_scale_m(eps: float, n: int, m: float) -> float:
    """Remainder scale of the order-m energy asymptote."""
    _check_eps(eps)
    _check_admissible(n, m)
    if n == 2:
        return eps ** (1.0 / (4.0 * m))
    if m == n - 1:
        return max(eps ** (1.0 / (n - 1.0)), eps**0.25 * abs(math.log(eps)))
    return eps ** ((n - 1.0) / (4.0 * m))


# ---------------------------------------------------------------------------
# parameter bundle and report


@dataclass(frozen=True)
class AsymptoticParams:
    """The inputs of constants_report, each checked once.

    The relative profile is coefficient * |x'|**m over the neck ball
    |x'| < neck_radius.  Curvatures, at m = 2 only and at most n - 1 of
    them, stand for the profile sum(lam_j x_j**2)/2 and replace the
    coefficient by (prod lam_j)**(1/(n-1))/2, one value standing for all
    n - 1; two unequal ones make the gap integral the anisotropic one.
    Each field is checked in order, and the first out of range raises an
    InputError whose first key is that field.
    """

    n: int
    m: float
    coefficient: float
    eps: float
    curvatures: tuple[float, ...] | None = None
    neck_radius: float = 0.5

    def __post_init__(self) -> None:
        n, m, c, lams, r0 = self.n, self.m, self.coefficient, self.curvatures, self.neck_radius

        def need(admissible: bool, key: str, what: str, *reads: str) -> None:
            if not admissible:
                raise InputError(f"{key} must be {what}", key, *reads)

        # Each constant is the coefficient to a power in [-1, 1] times a factor
        # below 1e15, so in this range every one of them is a finite nonzero double.
        low, high = 1e-250, 1e250
        span = f"in [{low:g}, {high:g}]"
        min_order = 2.0 if n == 2 else n - 1.0
        need(2 <= n <= MAX_ORDER + 1, "n", f"in [2, {MAX_ORDER + 1:g}], got {n}")
        in_range = f"in [{min_order:g}, {MAX_ORDER:g}] in dimension {n}, got {m}"
        need(min_order <= m <= MAX_ORDER, "m", in_range, "n")
        need(lams is None or m == 2.0, "m", f"2 when curvatures are given, got {m}", "curvatures")
        need(low <= c <= high, "coefficient", f"{span}, got {c}")
        # Away from m = 2, printed / oracle goes like coefficient**(2(n-1)/m).
        ratio = printed_energy_constant(n, m, c) / energy_limit_constant(n, m, c)
        nearer = f"nearer 1 at order {m}, got {c}: printed / oracle out of range"
        need(0.0 < ratio < math.inf, "coefficient", nearer, "m")
        # A subnormal gap loses the digits the gap integral needs.
        need(sys.float_info.min <= self.eps < 1.0, "eps", f"in [{sys.float_info.min!r}, 1), got {self.eps}")
        if lams is not None:  # then n is 2 or 3
            need(1 <= len(lams) <= n - 1, "curvatures", f"one to n - 1 = {n - 1} values, got {lams}", "n")
            inside = all(low <= x <= high for x in lams)
            product = math.prod(lams * (n - 1) if len(lams) == 1 else lams) if inside else math.nan
            c = (math.sqrt(product) if n == 3 else product) / 2.0
            need(low <= c <= high, "curvatures", f"{span}, as must the coefficient they give, got {lams}")
            object.__setattr__(self, "coefficient", c)
        # The profile grows like neck_radius**m out to the rim of the ball.
        rim = 0.0 < r0 < math.inf and m * math.log(r0) < math.log(sys.float_info.max)
        need(rim, "neck_radius", f"positive, with neck_radius**{m:g} finite, got {r0}", "m")


@dataclass(frozen=True)
class ConstantsReport:
    """Side-by-side view of printed constants and the quadrature oracle."""

    n: int
    m: float
    coefficient: float
    eps: float
    omega: float
    profile_constant_closed: float
    profile_constant_quadrature: float | None
    profile_constant_difference: float | None
    curvature_constant: float | None
    oracle_constant: float
    printed_constant: float
    printed_over_oracle: float
    gap_integral_value: float
    gap_integral_times_rate: float
    quadrature_over_oracle: float

    def rows(self) -> list[tuple[str, str]]:
        out = [
            ("dimension n", f"{self.n}"),
            ("convexity order m", f"{self.m:g}"),
            ("profile coefficient", f"{self.coefficient:g}"),
            ("gap eps", f"{self.eps:g}"),
            ("sphere measure omega", f"{self.omega:.12g}"),
            ("order-m constant (closed form)", f"{self.profile_constant_closed:.12g}"),
        ]
        if self.profile_constant_quadrature is not None:
            out.append(("order-m constant (quadrature)", f"{self.profile_constant_quadrature:.12g}"))
            out.append(("order-m constant difference", f"{self.profile_constant_difference:.3e}"))
        if self.curvature_constant is not None:
            out.append(("curvature constant (printed)", f"{self.curvature_constant:.12g}"))
        out += [
            ("oracle limit of gap integral * rate", f"{self.oracle_constant:.12g}"),
            ("printed constant", f"{self.printed_constant:.12g}"),
            ("printed / oracle", f"{self.printed_over_oracle:.12g}"),
            ("gap integral at eps", f"{self.gap_integral_value:.12g}"),
            ("gap integral * rate at eps", f"{self.gap_integral_times_rate:.12g}"),
            ("(gap integral * rate) / oracle", f"{self.quadrature_over_oracle:.12g}"),
        ]
        return out


def constants_report(params: AsymptoticParams) -> ConstantsReport:
    """Evaluate every closed-form constant and adjudicate it against the
    oracle; on checked params every value reported is finite."""
    n, m, lam, eps, lams = params.n, params.m, params.coefficient, params.eps, params.curvatures
    omega = sphere_surface_measure(n - 1)
    prof = profile_energy_constant(m, n)
    oracle = energy_limit_constant(n, m, lam)
    printed = printed_energy_constant(n, m, lam)
    kappa = None
    if m == 2.0 and n in (2, 3):
        kappa = printed if lams is None else curvature_energy_constant(*lams, n=n)
    if lams is not None and len(lams) == 2 and lams[0] != lams[1]:
        integral = gap_integral_quadratic((lams[0], lams[1]), eps, params.neck_radius)
    else:
        integral = gap_integral_radial(n, m, lam, eps, params.neck_radius)
    product = integral * gap_rate_m(eps, n, m)
    return ConstantsReport(
        n=n,
        m=m,
        coefficient=lam,
        eps=eps,
        omega=omega,
        profile_constant_closed=prof.closed_form,
        profile_constant_quadrature=prof.quadrature,
        profile_constant_difference=prof.difference,
        curvature_constant=kappa,
        oracle_constant=oracle,
        printed_constant=printed,
        printed_over_oracle=printed / oracle,
        gap_integral_value=integral,
        gap_integral_times_rate=product,
        quadrature_over_oracle=product / oracle,
    )
