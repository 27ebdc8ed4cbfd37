"""Declarative experiment configuration.

Sectioned key = value text; '#' starts a comment.  Unknown sections or
keys, duplicates and type mismatches are collected as located errors
(line, key, message) rather than raised one at a time.  emit() produces a
canonical form whose reparse compares equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .conductivity import BoundaryData
from .experiments import sweep_gaps
from .geometry import GeometryError, InclusionPair, NeckProfile, ProfileKind
from .mesh import MeshError, MeshParams

__all__ = [
    "ConfigError",
    "GeometryConfig",
    "BoundaryConfig",
    "SweepConfig",
    "ToleranceConfig",
    "ExperimentConfig",
    "parse_config",
    "emit_config",
    "default_config_text",
]


class ConfigError(ValueError):
    """One or more located configuration problems."""

    def __init__(self, problems: list[tuple[int, str, str]]):
        self.problems = problems
        lines = [f"line {ln}: [{key}] {msg}" for ln, key, msg in problems]
        super().__init__("invalid configuration:\n" + "\n".join(lines))


@dataclass(frozen=True)
class GeometryConfig:
    dimension: int = 2
    profile: str = "quadratic"
    curvatures: tuple[float, ...] = (2.0,)
    order: float = 2.0
    coefficient: float = 1.0
    split: tuple[float, ...] = (0.5, 0.5)
    neck_radius: float = 0.5
    outer_radius: float = 4.0
    separation: float = 1.0

    def neck_profile(self) -> NeckProfile:
        split = (self.split[0], self.split[1])
        if self.profile == "quadratic":
            return NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=self.curvatures, split=split)
        return NeckProfile(
            kind=ProfileKind.POWER_LAW, order=self.order, coefficient=self.coefficient, split=split
        )

    def pair(self, eps: float) -> InclusionPair:
        return InclusionPair(
            dimension=self.dimension,
            profile=self.neck_profile(),
            eps=eps,
            neck_radius=self.neck_radius,
            outer_radius=self.outer_radius,
            separation=self.separation,
        )


@dataclass(frozen=True)
class BoundaryConfig:
    kind: str = "linear_xn"
    value: float = 0.0
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    def data(self) -> BoundaryData:
        return BoundaryData(kind=self.kind, value=self.value, cos_coeffs=self.cos, sin_coeffs=self.sin)


@dataclass(frozen=True)
class SweepConfig:
    epsilons: tuple[float, ...] = ()
    start: float = 1e-2
    factor: float = 4.0
    count: int = 6

    def eps_list(self) -> list[float]:
        if self.epsilons:
            return sorted(self.epsilons, reverse=True)
        return [self.start / self.factor**k for k in range(self.count)]


@dataclass(frozen=True)
class ToleranceConfig:
    rate_slope: float = 0.05
    cauchy_slope: float = 0.15
    energy_constant_rel: float = 0.02
    offset_stability: float = 0.10


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometryConfig = GeometryConfig()
    boundary: BoundaryConfig = BoundaryConfig()
    sweep: SweepConfig = SweepConfig()
    mesh: MeshParams = MeshParams()
    tolerances: ToleranceConfig = ToleranceConfig()
    output_dir: str = "out"


def _parse_int(s: str) -> int:
    value = float(s)
    if value != int(value):
        raise ValueError(f"expected an integer, got {s!r}")
    return int(value)


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in s.split())


# Each section's keys are its dataclass's fields, parsed after the type of
# their defaults.
_SECTIONS = {
    "geometry": GeometryConfig,
    "boundary": BoundaryConfig,
    "sweep": SweepConfig,
    "mesh": MeshParams,
    "tolerances": ToleranceConfig,
}
_PARSERS = {int: _parse_int, float: float, tuple: _parse_floats, str: str}
_SCHEMA: dict[str, dict[str, object]] = {
    **{name: {f.name: _PARSERS[type(f.default)] for f in fields(cls)} for name, cls in _SECTIONS.items()},
    "output": {"directory": str},
}


def _smallest_split(geometry: GeometryConfig, eps: float) -> float | None:
    """Smallest fraction of the thinner inclusion, rounded up to four
    decimals, for which the pair at gap ``eps`` exists with the rest of
    ``geometry`` as given; None when the even split fails too.  The caps
    reach less far as that fraction grows to 1/2, so bisection finds it."""
    thin_first = geometry.split[0] < geometry.split[1]

    def admissible(f: float) -> bool:
        split = (f, 1.0 - f) if thin_first else (1.0 - f, f)
        try:
            replace(geometry, split=split).pair(eps)
        except GeometryError:
            return False
        return True

    if not admissible(0.5):
        return None
    lo, hi = 0.0, 0.5  # a zero fraction is never admissible
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if admissible(mid) else (mid, hi)
    return math.ceil(hi * 1e4) / 1e4


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every located problem."""
    problems: list[tuple[int, str, str]] = []
    raw: dict[tuple[str, str], object] = {}
    lines_of: dict[tuple[str, str], int] = {}
    section_lines: dict[str, int] = {}
    section = None
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in _SCHEMA:
                problems.append((ln, section, f"unknown section [{section}]"))
                section = None
            else:
                section_lines.setdefault(section, ln)
            continue
        if "=" not in body:
            problems.append((ln, body, "expected key = value"))
            continue
        if section is None:
            problems.append((ln, body.split("=", 1)[0].strip(), "key outside any known section"))
            continue
        key, value = (part.strip() for part in body.split("=", 1))
        schema = _SCHEMA[section]
        if key not in schema:
            problems.append((ln, key, f"unknown key in [{section}]"))
            continue
        if (section, key) in raw:
            problems.append((ln, key, f"duplicate key in [{section}] (first at line {lines_of[(section, key)]})"))
            continue
        try:
            raw[(section, key)] = schema[key](value)
            lines_of[(section, key)] = ln
        except ValueError as exc:
            problems.append((ln, key, str(exc)))

    def given(section: str) -> dict[str, object]:
        """The keys set in one section; every other key keeps its default."""
        return {key: value for (sec, key), value in raw.items() if sec == section}

    def where(section: str, key: str) -> int:
        return lines_of.get((section, key), 0)

    geometry = GeometryConfig(**given("geometry"))
    boundary = BoundaryConfig(**given("boundary"))
    sweep = SweepConfig(**given("sweep"))
    tolerances = ToleranceConfig(**given("tolerances"))

    # Semantic validation with located reports.
    if geometry.dimension not in (2, 3):
        problems.append((where("geometry", "dimension"), "dimension", "dimension must be 2 or 3"))
    if geometry.profile not in ("quadratic", "power"):
        problems.append((where("geometry", "profile"), "profile", "profile must be quadratic or power"))
    if geometry.profile == "power":
        min_order = 2.0 if geometry.dimension == 2 else max(2.0, geometry.dimension - 1.0)
        if geometry.order < min_order:
            problems.append(
                (
                    where("geometry", "order"),
                    "order",
                    f"order {geometry.order:g} inadmissible in dimension {geometry.dimension} (need >= {min_order:g})",
                )
            )
    if geometry.profile == "quadratic" and len(geometry.curvatures) != geometry.dimension - 1:
        problems.append(
            (
                where("geometry", "curvatures"),
                "curvatures",
                f"need {geometry.dimension - 1} curvature(s) in dimension {geometry.dimension}",
            )
        )
    for key in ("neck_radius", "outer_radius", "separation"):
        if not math.isfinite(getattr(geometry, key)):
            problems.append((where("geometry", key), key, f"{key} must be finite, got {getattr(geometry, key)}"))
    if len(geometry.split) != 2:
        problems.append((where("geometry", "split"), "split", "split takes exactly two fractions"))
    if boundary.kind not in ("constant", "linear_xn", "linear_x1", "fourier"):
        problems.append((where("boundary", "kind"), "kind", f"unknown boundary kind {boundary.kind!r}"))
    if boundary.kind == "fourier" and not (boundary.cos or boundary.sin):
        problems.append((where("boundary", "kind"), "kind", "fourier data needs cos or sin coefficients"))
    eps_candidates = sweep.eps_list() if not problems else []
    for eps in eps_candidates:
        if not (0.0 < eps < 1.0):
            problems.append((where("sweep", "epsilons"), "epsilons", f"gap {eps:g} outside (0, 1)"))
            break
    if not problems:
        try:
            sweep_gaps(eps_candidates)
        except ValueError as exc:
            problems.append((section_lines.get("sweep", 0), "sweep", str(exc)))

    mesh = None
    if not problems:
        try:
            mesh = MeshParams(**given("mesh"))
        except MeshError as exc:
            problems.append((where("mesh", exc.key), exc.key, str(exc)))
        else:
            try:
                mesh.check_budget(geometry.outer_radius)
            except MeshError as exc:
                key = exc.key or "refinement"
                problems.append((where("mesh", key), key, str(exc)))
        try:
            geometry.neck_profile()
        except GeometryError as exc:
            problems.append((where("geometry", "profile"), "profile", str(exc)))
        else:
            # The inclusions reach farthest at the largest gap.
            eps_max = max(eps_candidates, default=0.0)
            try:
                geometry.pair(eps_max)
            except GeometryError as exc:
                names = "split, curvatures (or order and coefficient), neck_radius, separation and outer_radius"
                msg = f"{exc}; the inclusions follow from {names}"
                bound = _smallest_split(geometry, eps_max)
                if bound is not None:
                    msg += f"; with the rest as given, the smaller split fraction must be at least {bound:.4f}"
                problems.append((where("geometry", "split"), "split", msg))

    if problems:
        raise ConfigError(sorted(problems))
    return ExperimentConfig(
        geometry=geometry,
        boundary=boundary,
        sweep=sweep,
        mesh=mesh,
        tolerances=tolerances,
        output_dir=raw.get(("output", "directory"), "out"),
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(repr(float(v)) for v in value)
    return str(value)


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(emit(cfg)) == cfg.

    Every key of the schema is written except empty optional lists, and
    the sweep writes either its explicit gaps or its geometric sequence.
    """
    lines = []
    for name in _SECTIONS:
        lines.append(f"[{name}]")
        for key in _SCHEMA[name]:
            value = getattr(getattr(cfg, name), key)
            if key in ("cos", "sin", "epsilons") and not value:
                continue
            if name == "sweep" and cfg.sweep.epsilons and key != "epsilons":
                continue
            lines.append(f"{key} = {_fmt(value)}")
        lines.append("")
    lines += ["[output]", f"directory = {cfg.output_dir}", ""]
    return "\n".join(lines)


def default_config_text() -> str:
    """The shipped default: symmetric strictly convex pair, vertical linear
    outer data, six gaps over three decades."""
    return emit_config(ExperimentConfig())
