"""Declarative experiment configuration.

Sectioned key = value text; '#' starts a comment.  Unknown sections or
keys, duplicates and type mismatches are collected as located errors
(line, key, message) rather than raised one at a time.  Each value is
then checked once, by the type that owns it (NeckProfile, InclusionPair,
BoundaryData, SweepConfig, sweep_gaps and MeshParams), and the first
failure of each section is reported on the line of the key at fault,
else of the first key the file sets that the check reads, else of the
section's header.  emit() produces a canonical form whose reparse
compares equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from . import InputError
from .conductivity import BoundaryData
from .experiments import sweep_gaps
from .geometry import GeometryError, InclusionPair, NeckProfile, ProfileKind, ReachError
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
        if self.profile == "quadratic":
            return NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=self.curvatures, split=self.split)
        if self.profile == "power":
            return NeckProfile(
                kind=ProfileKind.POWER_LAW, order=self.order, coefficient=self.coefficient, split=self.split
            )
        raise GeometryError(f"profile must be quadratic or power, got {self.profile!r}", "profile")

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


# Every gap of a sweep is a mesh and a solve.
_MAX_COUNT = 100


@dataclass(frozen=True)
class SweepConfig:
    """The explicit ``epsilons``, else ``count`` gaps ``start / factor**k``."""

    epsilons: tuple[float, ...] = ()
    start: float = 1e-2
    factor: float = 4.0
    count: int = 6

    def __post_init__(self) -> None:
        if self.count > _MAX_COUNT:
            raise InputError(f"count must be at most {_MAX_COUNT}, got {self.count}", "count")
        try:
            last = self.factor ** max(self.count - 1, 0)
        except OverflowError:
            last = math.inf
        if not (self.factor > 0.0 and 0.0 < last < math.inf):
            raise InputError(
                f"factor must be positive with factor**(count - 1) finite and nonzero, got {self.factor!r}",
                "factor",
                "count",
            )

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
    if not value.is_integer():
        raise ValueError(f"expected an integer, got {s!r}")
    return int(value)


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in s.split())


def _parse_directory(s: str) -> str:
    """A directory as written: values are not quoted, so quotes around one
    would become part of its name."""
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        raise ValueError(f"write the directory without quotes, got {s}")
    return s


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
    "output": {"directory": _parse_directory},
}


def _split_hint(geometry: GeometryConfig, eps: float) -> str:
    """The smallest fraction of the thinner inclusion, rounded up to four
    decimals, for which the pair at gap ``eps`` exists with the rest of
    ``geometry`` as given; empty when the even split fails too.  The caps
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
        return ""
    lo, hi = 0.0, 0.5  # a zero fraction is never admissible
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if admissible(mid) else (mid, hi)
    return f"; with the rest as given, the smaller split fraction must be at least {math.ceil(hi * 1e4) / 1e4:.4f}"


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every located problem:
    each malformed line, and the first failed check of each section."""
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

    def report(section: str, keys: tuple[str, ...], message: str, reads: tuple[str, ...] = ()) -> None:
        """Locate a problem on the first of ``keys`` that the file sets in
        ``section``, else on the first key it sets in the sections
        ``reads``, else on the header of ``section``."""
        found = [(lines_of[(section, key)], key) for key in keys if (section, key) in lines_of]
        found = found or sorted((ln, key) for (sec, key), ln in lines_of.items() if sec in reads)
        line, key = found[0] if found else (section_lines[section], section)
        problems.append((line, key, message))

    geometry = GeometryConfig(**given("geometry"))
    tolerances = ToleranceConfig(**given("tolerances"))
    boundary = BoundaryConfig(**given("boundary"))
    try:
        boundary.data()
    except InputError as exc:
        report("boundary", exc.keys, str(exc))
    gaps: list[float] = []
    try:
        sweep = SweepConfig(**given("sweep"))
        gaps = sweep_gaps(sweep.eps_list())
    except InputError as exc:  # a bad count or factor, or a gap outside (0, 1)
        report("sweep", exc.keys or ("epsilons", "start", "factor", "count"), str(exc))
    except ValueError as exc:  # too few gaps, or too short a span
        report("sweep", (), str(exc))
    pair = None
    try:
        pair = geometry.pair(max(gaps, default=0.0))  # the caps reach farthest at the largest gap
    except GeometryError as exc:
        hint = _split_hint(geometry, max(gaps, default=0.0)) if isinstance(exc, ReachError) else ""
        report("geometry", exc.keys, f"{exc}{hint}", ("sweep",))
    try:
        mesh = MeshParams(**given("mesh"))
        if pair is not None:
            mesh.check_budget(geometry.outer_radius, *(pair.with_gap(eps) for eps in gaps))
    except MeshError as exc:
        report("mesh", exc.keys, str(exc), ("geometry", "sweep"))

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
