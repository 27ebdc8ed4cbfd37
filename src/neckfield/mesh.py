"""Conforming triangulation of the two-inclusion domain (dimension 2).

The neck strip |x| <= R0 is a structured grid: graded stations along x,
``layers`` rows across the gap placed at fixed fractions of the local gap
width, quads split into triangles.  The far field is meshed by Delaunay
refinement (repeated scipy Delaunay builds with circumcenter insertion and
encroachment-driven boundary splits) on the half domain x >= 0 and then
mirrored, so the final mesh is exactly symmetric under x -> -x.  The
refiner keeps its boundary as flat arrays, as Shewchuk keeps a planar
straight-line graph: one coordinate array, a cyclic loop of vertex ids and
the chain that owns each loop segment.  The strip and the far field share
the vertical fiber of vertices at x = R0, so the glued mesh is
vertex-conforming.  The far field is refined once per geometry at gap 0,
cached, and moved to each gap by a harmonic vertical displacement; a gap
whose moved far field misses the minimum angle gets one refined at that
gap.

Boundary edge tags: OUTER, INCLUSION1 (upper), INCLUSION2 (lower).

``np``, ``sp``, ``spla``, ``csgraph`` and ``spatial`` are deferred stand-ins
for numpy, ``scipy.sparse``, ``scipy.sparse.linalg``, ``scipy.sparse.csgraph``
and ``scipy.spatial`` (``neckfield._Deferred``), each imported at its first
use, so importing the package loads neither numpy nor scipy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import _Deferred, _Keyed
from .geometry import InclusionPair

np = _Deferred("numpy")
sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")
csgraph = _Deferred("scipy.sparse.csgraph")
spatial = _Deferred("scipy.spatial")

__all__ = [
    "MeshError",
    "MeshParams",
    "Mesh",
    "MeshAudit",
    "INTERIOR",
    "OUTER",
    "INCLUSION1",
    "INCLUSION2",
    "TAG_NAMES",
    "generate",
    "generate_touching",
    "refine_quadrisect",
    "audit",
    "write_mesh_text",
]

INTERIOR = 0
OUTER = 1
INCLUSION1 = 2
INCLUSION2 = 3
TAG_NAMES = {OUTER: "outer", INCLUSION1: "inclusion1", INCLUSION2: "inclusion2"}

_MIN_ANGLE_DEG = 20.0
_SIZE_SLACK = 1.35
_BATCH_LIMIT = 400
_MIN_ITER = 60
_MAX_POINTS = 200_000
# Far-field points per h**2 of domain area: 1.2-1.5 measured at refinement
# 0-4, the excess over an equilateral mesh coming from the junction grading.
_POINT_DENSITY = 1.5
_PAIR_CHUNK = 1 << 16


class MeshError(_Keyed, RuntimeError):
    """Mesh generation failed or produced an inconsistent triangulation;
    ``keys`` names the ``MeshParams`` fields that the failed check reads,
    if it is a check of them."""


@dataclass(frozen=True)
class MeshParams:
    """Resolution knobs.

    ``layers`` rows span the gap (>= 4).  The neck station spacing is
    ``neck_step_factor * (gap / curvature_scale) ** grading_exponent`` so
    element anisotropy follows the gap; ``refinement`` scales both that
    factor and ``h_far`` by 2**(-refinement/2) per level.
    """

    layers: int = 6
    h_far: float = 0.2
    grading_exponent: float = 0.5
    neck_step_factor: float = 0.25
    refinement: int = 0

    def __post_init__(self) -> None:
        for key, admissible, need in (
            ("layers", self.layers >= 4, "at least 4 (rows across the gap)"),
            ("h_far", 0.0 < self.h_far < math.inf, "positive and finite"),
            ("grading_exponent", 0.0 < self.grading_exponent <= 1.0, "in (0, 1]"),
            ("neck_step_factor", 0.0 < self.neck_step_factor < math.inf, "positive and finite"),
            ("refinement", self.refinement >= 0, "nonnegative"),
        ):
            if not admissible:
                raise MeshError(f"{key} must be {need}, got {getattr(self, key)!r}", key)

    def scaled(self) -> tuple[float, float]:
        """(effective neck factor, effective far size) after refinement."""
        shrink = 2.0 ** (-0.5 * self.refinement)
        return self.neck_step_factor * shrink, self.h_far * shrink

    def check_budget(self, outer_radius: float, *pairs: InclusionPair) -> None:
        """Fail at once when ``h_far`` exceeds the outer radius (a far field
        that coarse can leave the outer half-circle one segment, whose
        midpoint is the centre), when the far field of a domain of this
        outer radius would need more points than the mesher allows at this
        refinement, or when the stations of the neck strip of one of
        ``pairs`` would fail (see ``_neck_stations``)."""
        if self.h_far > outer_radius:
            raise MeshError(f"h_far must be at most the outer radius {outer_radius:g}, got {self.h_far!r}", "h_far")
        _expected_points(0.5 * math.pi * outer_radius * outer_radius, self.scaled()[1])
        for pair in pairs:
            _neck_stations(pair, self, 0.0)


@dataclass
class Mesh:
    """Immutable triangulation, mirror symmetric under x -> -x, with tagged
    boundary and neck bookkeeping.  ``mirror`` is the vertex permutation of
    the symmetry; ``audit`` checks it."""

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    vertex_tags: np.ndarray
    neck: np.ndarray
    neck_column_x: np.ndarray
    stations: np.ndarray
    mirror: np.ndarray

    def __post_init__(self) -> None:
        self.mirror.setflags(write=False)
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self.boundary_edges.setflags(write=False)
        self.boundary_tags.setflags(write=False)
        self.vertex_tags.setflags(write=False)
        self.neck.setflags(write=False)
        self.neck_column_x.setflags(write=False)
        self.stations.setflags(write=False)

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @property
    def triangle_count(self) -> int:
        return self.triangles.shape[0]

    def areas(self) -> np.ndarray:
        return 0.5 * _signed_area2(*_corners(self.vertices, self.triangles))

    @functools.cached_property
    def neck_view(self):
        """The neck triangles' vertices, gradient operator and station
        columns (``fem.NeckView``), built at first use and kept with the
        mesh until deleted, as ``sweep_record`` does once it is read."""
        from .fem import NeckView  # fem imports this module

        return NeckView(self)

    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected edges as sorted (E, 2) rows, lower id first, and the
        number of triangles incident to each."""
        n = self.vertex_count
        keys, counts = np.unique(_edge_keys(self.triangles, n), return_counts=True)
        return np.column_stack([keys // n, keys % n]), counts


def _edge_keys(triangles: np.ndarray, n: int) -> np.ndarray:
    """Key lo*n + hi of each triangle edge: triangle by triangle, edges
    (v0, v1), (v1, v2), (v2, v0)."""
    nxt = np.roll(triangles, -1, axis=1)
    return (np.minimum(triangles, nxt) * n + np.maximum(triangles, nxt)).ravel()


def _corners(vertices: np.ndarray, triangles: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The coordinates (x0, x1, x2), (y0, y1, y2) of each triangle's
    corners, each gathered from one coordinate column, which is several
    times faster than the (T, 3, 2) gather ``vertices[triangles]``."""
    corners = triangles.T.copy()
    x, y = vertices.T.copy()
    return tuple(x.take(at) for at in corners), tuple(y.take(at) for at in corners)


def _signed_area2(x: tuple[np.ndarray, ...], y: tuple[np.ndarray, ...]) -> np.ndarray:
    """Twice the signed (counterclockwise positive) area per triangle, from
    its corners' coordinates (``_corners``)."""
    return (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])


# ---------------------------------------------------------------------------
# neck strip


def _neck_step(pair: InclusionPair, params: MeshParams, x: float, gap0: float) -> float:
    """Station step at x for a strip that starts at gap width gap0."""
    factor, _ = params.scaled()
    g = params.grading_exponent
    scale = pair.profile.curvature_scale(x, gap0)
    return factor * (pair.gap_radial(x) / scale) ** g * pair.neck_radius ** (1.0 - 2.0 * g)


def _neck_stations(pair: InclusionPair, params: MeshParams, x_start: float) -> list[float]:
    """Station abscissae from x_start to R0.  Fails at once when the gap
    is too thin for the layers, when the step vanishes, or when the strip,
    mirrored, would have more vertices than the point budget."""
    r0 = pair.neck_radius
    gap0 = pair.gap_radial(x_start)
    if gap0 <= 0.0:
        raise MeshError("strip must start at positive gap width")
    if pair.eps > 0.0 and pair.eps / params.layers < 1e-13:
        raise MeshError(f"gap {pair.eps:g} too thin for {params.layers} layers at machine precision", "layers")
    rows = params.layers + 1
    xs = [x_start]
    x = x_start
    while True:
        if (2 * len(xs) - 1) * rows > _MAX_POINTS:
            raise MeshError(
                f"neck strip at gap {pair.eps:g} needs at least {(2 * len(xs) - 1) * rows} points, above the "
                f"budget of {_MAX_POINTS}; raise neck_step_factor or lower the layers or the refinement",
                "neck_step_factor",
                "layers",
                "refinement",
                "grading_exponent",
            )
        step = _neck_step(pair, params, x, gap0)
        if step <= 1e-13 * max(1.0, r0):
            raise MeshError(
                f"neck step at gap {pair.eps:g} degenerated to {step:g}; geometry too thin for this grading",
                "neck_step_factor",
                "grading_exponent",
                "refinement",
            )
        nxt = x + step
        if nxt >= r0 - 0.5 * step:
            xs.append(r0)
            break
        xs.append(nxt)
        x = nxt
    return xs


def _fibers(pair: InclusionPair, xs, layers: int) -> np.ndarray:
    """Station fibers at xs, shape (len(xs), layers + 1, 2), each bottom to
    top: rows at fixed fractions of the local gap, the top row exactly on
    the upper graph."""
    xs = np.asarray(xs, dtype=float)
    rel = pair.profile.relative(xs[:, None])
    s1, s2 = pair.profile.split
    y = -s2 * rel[:, None] + (np.arange(layers + 1) / layers) * (pair.eps + rel)[:, None]
    y[:, -1] = pair.eps + s1 * rel
    return np.stack([np.broadcast_to(xs[:, None], y.shape), y], axis=2)


@dataclass
class _Piece:
    """Triangles counterclockwise; ``segments`` the read-only (S, 3) rows
    (start, end, tag) of the tagged boundary edges."""

    vertices: np.ndarray
    triangles: np.ndarray
    segments: np.ndarray
    neck: np.ndarray | None = None
    column_x: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.segments.setflags(write=False)


def _strip_piece(pair: InclusionPair, params: MeshParams, x_start: float, bridge: bool) -> tuple[_Piece, np.ndarray, np.ndarray]:
    """Structured strip for x in [x_start, R0].

    Returns the piece, the station array and the coordinates of the end
    fiber at x = R0 (bottom to top).  With ``bridge`` the start fiber at
    x = x_start is a tagged boundary (touching-limit excision); otherwise
    it is left untagged (interior seam at x = 0).
    """
    xs = np.asarray(_neck_stations(pair, params, x_start))
    ns, nl = len(xs), params.layers
    rows = nl + 1
    fibers = _fibers(pair, xs, nl)
    verts = fibers.reshape(-1, 2)
    # Column s, layer j: the quad v, v + rows, v + rows + 1, v + 1 with v =
    # s * rows + j, cut into two triangles along its rising diagonal.
    v = (np.arange(ns - 1)[:, None] * rows + np.arange(nl)).ravel()
    tris = np.column_stack([v, v + rows, v + rows + 1, v, v + rows + 1, v + 1]).reshape(-1, 3)
    # The lower and upper graph edge of each column.
    s = np.arange(ns - 1) * rows
    lower, upper = np.full(ns - 1, INCLUSION2), np.full(ns - 1, INCLUSION1)
    segments = np.column_stack([s, s + rows, lower, s + nl, s + rows + nl, upper]).reshape(-1, 3)
    if bridge:
        h1, h2 = pair.profile.heights([x_start])
        mid_curve = 0.5 * (pair.eps + h1 + h2)
        y = fibers[0, :, 1]
        tags = np.where(0.5 * (y[:-1] + y[1:]) > mid_curve, INCLUSION1, INCLUSION2)
        segments = np.vstack([segments, np.column_stack([np.arange(nl), np.arange(1, nl + 1), tags])])
    piece = _Piece(
        vertices=verts,
        triangles=tris,
        segments=segments,
        neck=np.ones(len(tris), dtype=bool),
        column_x=np.repeat(0.5 * (xs[:-1] + xs[1:]), 2 * nl),
    )
    end_fiber = fibers[-1].copy()
    return piece, xs, end_fiber


# ---------------------------------------------------------------------------
# far-field half domain


@dataclass(frozen=True)
class _Chain:
    """Boundary curve through ``points``: an arc of the circle of ``center``
    and ``radius`` where the radius is positive, else straight.  An
    untagged chain has tag INTERIOR; a protected one is never split."""

    points: np.ndarray
    tag: int
    protected: bool = False
    center: np.ndarray | tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0


def _graded_positions(length: float, s_start: float, s_end: float) -> np.ndarray:
    """Positions in [0, 1] splitting a curve of the given length with local
    sizes grading geometrically from the small end toward the large one."""
    if s_end < s_start:
        return 1.0 - _graded_positions(length, s_end, s_start)[::-1]
    steps = []
    pos = 0.0
    size = s_start
    while pos < length:
        steps.append(size)
        pos += size
        size = min(s_end, size * 1.3)
    total = sum(steps)
    return np.concatenate([[0.0], np.cumsum(steps) / total])


def _arc_chain(center, radius: float, th0: float, th1: float, sizes, tag: int, p_start, p_end) -> _Chain:
    """Arc of the circle from angle th0 to th1, its point spacing grading
    from sizes[0] to sizes[1].  The ends are snapped to the shared corners
    p_start and p_end, so consecutive chains meet bitwise exactly."""
    length = abs(th1 - th0) * radius
    positions = _graded_positions(length, sizes[0], sizes[1])
    thetas = th0 + (th1 - th0) * positions
    pts = center + radius * np.array([[math.cos(t), math.sin(t)] for t in thetas])
    pts[0], pts[-1] = p_start, p_end
    return _Chain(points=pts, tag=tag, center=center, radius=radius)


def _segment_chain(a: np.ndarray, b: np.ndarray, size: float, tag: int) -> _Chain:
    count = max(1, int(math.ceil(math.hypot(*(b - a)) / size)))
    pts = a + (b - a) * (np.arange(count + 1) / count)[:, None]
    pts[0], pts[-1] = a, b
    return _Chain(points=pts, tag=tag)


def _area2(poly: np.ndarray) -> float:
    """Twice the signed (counterclockwise positive) area of a polygon."""
    return float(np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1]))


def _points_inside(poly: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Even-odd rule.

    Each polygon edge is tested only against the query points whose y lies
    in the edge's half-open y-range, found by bisection on the sorted y
    values; the (edge, point) pairs are built in chunks of bounded size.
    """
    x, y = query[:, 0], query[:, 1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    order = np.argsort(y, kind="stable")
    ys = y[order]
    start = np.searchsorted(ys, np.minimum(y0, y1), side="left")
    count = np.searchsorted(ys, np.maximum(y0, y1), side="left") - start
    crossings = np.zeros(len(query), dtype=np.int64)
    edges = np.flatnonzero(count)
    cuts = np.searchsorted(np.cumsum(count[edges]), np.arange(_PAIR_CHUNK, count.sum(), _PAIR_CHUNK))
    for e in np.split(edges, np.unique(cuts)):
        c = count[e]
        first = np.cumsum(c) - c
        p = order[np.repeat(start[e] - first, c) + np.arange(c.sum())]
        i = np.repeat(e, c)
        t = (y[p] - y0[i]) / (y1[i] - y0[i])
        xc = x0[i] + t * (x1[i] - x0[i])
        crossings += np.bincount(p[x[p] < xc], minlength=len(query))
    return crossings % 2 == 1


def _tri_quality(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min interior angle (radians) and longest edge per triangle, p of shape (T,3,2)."""
    a = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    b = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    c = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    angles = np.empty((len(p), 3))
    for k, (opp, s1, s2) in enumerate(((a, b, c), (b, a, c), (c, a, b))):
        cosv = (s1**2 + s2**2 - opp**2) / np.maximum(2.0 * s1 * s2, 1e-300)
        angles[:, k] = np.arccos(np.clip(cosv, -1.0, 1.0))
    return angles.min(axis=1), np.maximum(np.maximum(a, b), c)


def _min_angle(x: tuple[np.ndarray, ...], y: tuple[np.ndarray, ...]) -> float:
    """The smallest interior angle (radians) over all triangles, from their
    corners' coordinates (``_corners``): the arccos of the largest cosine.
    The sides and cosines are ``_tri_quality``'s, and arccos does not
    increase, so this is the least of its angles, bit for bit."""
    a, b, c = (np.sqrt(dx * dx + dy * dy) for dx, dy in
               ((x[1] - x[2], y[1] - y[2]), (x[0] - x[2], y[0] - y[2]), (x[0] - x[1], y[0] - y[1])))
    largest = np.max([((s1**2 + s2**2 - opp**2) / np.maximum(2.0 * s1 * s2, 1e-300)).max()
                      for opp, s1, s2 in ((a, b, c), (b, a, c), (c, a, b))])
    return float(np.arccos(np.clip(largest, -1.0, 1.0)))


def _hypot(d: np.ndarray) -> np.ndarray:
    """Row lengths of the (N, 2) array d by ``math.hypot``, which numpy's
    hypot need not match bit for bit."""
    return np.array(list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())))


def _circumcenters(p: np.ndarray) -> np.ndarray:
    ax, ay = p[:, 0, 0], p[:, 0, 1]
    bx, by = p[:, 1, 0], p[:, 1, 1]
    cx, cy = p[:, 2, 0], p[:, 2, 1]
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    d = np.where(np.abs(d) < 1e-300, 1e-300, d)
    a2 = ax**2 + ay**2
    b2 = bx**2 + by**2
    c2 = cx**2 + cy**2
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return np.column_stack([ux, uy])


def _expected_points(area: float, h: float) -> int:
    """Far-field point count expected for target edge length ``h``; fails
    at once above the point budget."""
    # Divided twice, as h**2 underflows for a tiny h; h itself underflows
    # to 0 at a refinement above about 2150.
    expected = _POINT_DENSITY * area / h / h if h > 0.0 else math.inf
    if expected > _MAX_POINTS:
        about = f"about {math.ceil(expected)}" if math.isfinite(expected) else "more"
        raise MeshError(
            f"far field at edge length {h:.6g} needs {about} points, "
            f"above the budget of {_MAX_POINTS}; lower the refinement or raise h_far",
            "refinement",
            "h_far",
        )
    return math.ceil(expected)


def _refine_polygon(chains: list[_Chain], size_fn, h: float) -> _Piece:
    """Delaunay refinement of the region bounded by the closed loop of
    ``chains``, each starting where the one before it ends, with target
    edge length ``size_fn`` (at most ``h``).

    The boundary is the array ``coords`` of its vertices by id and the
    cyclic ``loop`` of their ids, first the chains' points in chain order;
    loop segment s runs from ``loop[s]`` to ``loop[s + 1]`` on chain
    ``owner[s]``.  Boundary splits append their midpoints to ``coords``
    and insert their ids in the loop.  The mesh vertices are ``coords``
    followed by the interior points in order of insertion.  Returns the
    piece with counterclockwise triangles and the segments of the tagged
    chains in loop order.
    """
    coords = np.concatenate([ch.points[:-1] for ch in chains])
    owner = np.repeat(np.arange(len(chains)), [len(ch.points) - 1 for ch in chains])
    loop = np.arange(len(coords))
    protected = np.array([ch.protected for ch in chains])
    area = 0.5 * abs(_area2(coords))
    # Each pass inserts at most _BATCH_LIMIT points and some passes only
    # split boundary segments, hence the factor 2 and the margin.
    max_iter = max(_MIN_ITER, 2 * math.ceil(_expected_points(area, h) / _BATCH_LIMIT) + 20)
    free = np.zeros((0, 2))

    for _ in range(max_iter):
        pts = np.concatenate([coords, free])
        if len(pts) > _MAX_POINTS:
            raise MeshError(f"refinement exceeded {_MAX_POINTS} points")
        try:
            tri = spatial.Delaunay(pts)
        except spatial.QhullError as exc:
            raise MeshError(f"Delaunay triangulation failed: {exc}") from exc
        seg_a, seg_b = loop, np.roll(loop, -1)
        seg_prot = protected[owner]
        poly = coords[loop]
        cells = tri.simplices
        cent = pts[cells].mean(axis=1)
        keep = _points_inside(poly, cent)
        cells = cells[keep]

        # Conformity: every loop segment must be a triangulation edge.
        # Boundary vertices come first in pts, so only edges between two
        # of them can be loop segments.
        nb = len(coords)
        lo = np.minimum(cells, np.roll(cells, -1, axis=1)).ravel()
        hi = np.maximum(cells, np.roll(cells, -1, axis=1)).ravel()
        on_boundary = hi < nb
        seg_keys = np.minimum(seg_a, seg_b) * nb + np.maximum(seg_a, seg_b)
        missing = np.flatnonzero(~np.isin(seg_keys, lo[on_boundary] * nb + hi[on_boundary]))
        if len(missing):
            if seg_prot[missing].any():
                raise MeshError("protected interface segment lost Delaunay conformity")
            coords, loop, owner = _split_segments(chains, coords, loop, owner, missing)
            continue

        pcoords = pts[cells]
        min_ang, longest = _tri_quality(pcoords)
        target = size_fn(cent[keep])
        too_big = longest > _SIZE_SLACK * target
        too_thin = min_ang < math.radians(_MIN_ANGLE_DEG)
        bad = np.flatnonzero(too_big | too_thin)
        if len(bad) == 0:
            break

        ratio = longest[bad] / target[bad]
        order = np.lexsort((bad, -ratio))
        bad = bad[order][:_BATCH_LIMIT]
        cands = _circumcenters(pcoords[bad])
        a, b = coords[seg_a], coords[seg_b]
        mid = 0.5 * (a + b)
        rad2 = np.sum((a - mid) ** 2, axis=1)
        inside = _points_inside(poly, cands)
        accepted, split = _screen_candidates(cands, inside, pts, mid, rad2, seg_prot, size_fn)
        thin = too_thin[bad]
        if not len(accepted) and not len(split) and thin.any():
            # Stalled on thin triangles smaller than their local size, as where
            # a fiber of short segments meets a coarser far field.  Their
            # circumcenters take at most the distance to the nearest point,
            # their circumradius, as local size, so only their spacing screens them.
            tree = spatial.cKDTree(pts)
            accepted, split = _screen_candidates(
                cands[thin], inside[thin], pts, mid, rad2, seg_prot, lambda p: np.minimum(size_fn(p), tree.query(p)[0])
            )

        if not len(accepted) and not len(split):
            break
        coords, loop, owner = _split_segments(chains, coords, loop, owner, split)
        free = np.concatenate([free, accepted])
    else:
        raise MeshError(f"far-field refinement did not settle within the iteration budget of {max_iter}")

    # Both exits leave the points as the last pass triangulated them.
    cells = cells.astype(np.int64)
    cells = np.where((_signed_area2(*_corners(pts, cells)) < 0.0)[:, None], cells[:, ::-1], cells)
    tag = np.array([ch.tag for ch in chains])[owner]
    segments = np.column_stack([loop, np.roll(loop, -1), tag])[tag != INTERIOR]
    return _Piece(vertices=pts, triangles=cells, segments=segments)


def _screen_candidates(cands, inside, pts, mid, rad2, seg_prot, size_fn) -> tuple[np.ndarray, np.ndarray]:
    """Greedy filter of one batch of circumcenters, in batch order.

    A candidate that escaped the domain asks for a split of the boundary
    segment with the nearest midpoint.  One that encroaches on segments
    asks for their splits, unless one of them is protected.  Otherwise it
    is accepted unless it lies within 0.45 local sizes of a mesh point or
    of a candidate accepted before it.  Returns the accepted points and the
    sorted indices of the segments to split.
    """
    split = []
    out = np.flatnonzero(~inside)
    if len(out):
        q, s = _ball_pairs(mid, cands[out], spatial.cKDTree(mid).query(cands[out])[0])
        d2 = np.sum((mid[s] - cands[out][q]) ** 2, axis=1)
        first = np.lexsort((s, d2, q))
        owner = s[first][np.unique(q[first], return_index=True)[1]]
        split.append(owner[~seg_prot[owner]])

    ins = np.flatnonzero(inside)
    s, c = _ball_pairs(cands[ins], mid, np.sqrt(rad2))
    hit = np.sum((mid[s] - cands[ins][c]) ** 2, axis=1) < rad2[s] * (1.0 - 1e-12)
    s, c = s[hit], c[hit]
    blocked = np.zeros(len(ins), dtype=bool)
    blocked[c[seg_prot[s]]] = True
    split.append(s[~blocked[c]])
    enc = np.zeros(len(ins), dtype=bool)
    enc[c] = True

    fresh = cands[ins[~enc]]
    radius = 0.45 * size_fn(fresh)
    if len(fresh):
        near = spatial.cKDTree(pts).query(fresh)[0] < radius
        fresh, radius = fresh[~near], radius[~near]
    j, i = _ball_pairs(fresh, fresh, radius)
    earlier = i < j
    j, i = j[earlier], i[earlier]
    d = fresh[j] - fresh[i]
    close = np.hypot(d[:, 0], d[:, 1]) < radius[j]
    # Pairs in ascending j: each earlier candidate's fate is settled first.
    accept = [True] * len(fresh)
    for jj, ii in sorted(zip(j[close].tolist(), i[close].tolist())):
        if accept[ii]:
            accept[jj] = False
    return fresh[np.asarray(accept, dtype=bool)], np.unique(np.concatenate(split))


def _ball_pairs(points: np.ndarray, queries: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (query, point) with the point within a hair over the
    query's radius: a kd-tree superset for an exact test by the caller."""
    if len(points) == 0 or len(queries) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    hits = spatial.cKDTree(points).query_ball_point(queries, radii * (1.0 + 1e-9))
    counts = np.fromiter(map(len, hits), dtype=np.int64, count=len(hits))
    q = np.repeat(np.arange(len(hits)), counts)
    p = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.int64, count=int(counts.sum()))
    return q, p


def _split_segments(chains: list[_Chain], coords: np.ndarray, loop: np.ndarray, owner: np.ndarray, split: np.ndarray):
    """Split the loop segments at the ascending positions ``split`` at their
    midpoints, projected onto their chain's circle if it has one.  The
    midpoints take ids after ``coords``, numbered from the last split
    segment to the first.  Returns the new ``coords``, ``loop`` and ``owner``."""
    ch = owner[split]
    if any(chains[c].protected for c in ch):
        raise MeshError("attempted to split a protected interface segment")
    mid = 0.5 * (coords[loop[split]] + coords[np.roll(loop, -1)[split]])
    center = np.array([c.center for c in chains], dtype=float)[ch]
    radius = np.array([c.radius for c in chains])[ch]
    arc = radius > 0.0
    d = mid[arc] - center[arc]
    mid[arc] = center[arc] + radius[arc][:, None] * d / _hypot(d)[:, None]
    coords = np.concatenate([coords, mid[::-1]])
    if len(np.unique(coords + 0.0, axis=0)) < len(coords):  # -0.0 meets 0.0
        raise MeshError("boundary split produced a duplicate vertex")
    ids = len(coords) - 1 - np.arange(len(split))
    return coords, np.insert(loop, split + 1, ids), np.insert(owner, split + 1, ch)


# ---------------------------------------------------------------------------
# assembly of the full mesh


def _refine_far_half(pair: InclusionPair, params: MeshParams, end_fiber: np.ndarray) -> _Piece:
    _, h_far = params.scaled()
    cap1, cap2 = pair.caps()
    rd = pair.outer_radius
    c1 = np.array([0.0, cap1.center_height])
    c2 = np.array([0.0, cap2.center_height])
    top1 = np.array([0.0, cap1.center_height + cap1.radius])
    bot2 = np.array([0.0, cap2.center_height - cap2.radius])
    jun1 = end_fiber[-1]
    jun2 = end_fiber[0]
    # The junction size follows the fiber and the nominal station step at
    # R0, not the strip's last station, which varies with the gap and the cut.
    fiber_dy = float(np.diff(end_fiber[:, 1]).max())
    s_jun = min(h_far, max(fiber_dy, 0.6 * _neck_step(pair, params, pair.neck_radius, pair.eps)))

    theta1 = math.atan2(jun1[1] - c1[1], jun1[0] - c1[0])
    theta2 = math.atan2(jun2[1] - c2[1], jun2[0] - c2[0])
    top_rd = np.array([0.0, rd])
    bot_rd = np.array([0.0, -rd])

    # Down the axis over the caps and the fiber, then back up the outer
    # circle: counterclockwise, interior on the left.  The fiber is shared
    # verbatim with the strip and never split.
    chains = [
        _segment_chain(top_rd, top1, h_far, INTERIOR),
        _arc_chain(c1, cap1.radius, math.pi / 2.0, theta1, (h_far, s_jun), INCLUSION1, top1, jun1),
        _Chain(points=end_fiber[::-1], tag=INTERIOR, protected=True),
        _arc_chain(c2, cap2.radius, theta2, -math.pi / 2.0, (s_jun, h_far), INCLUSION2, jun2, bot2),
        _segment_chain(bot2, bot_rd, h_far, INTERIOR),
        _arc_chain(np.zeros(2), rd, -math.pi / 2.0, math.pi / 2.0, (h_far, h_far), OUTER, bot_rd, top_rd),
    ]
    junctions = np.stack([jun1, jun2])

    def size_fn(pts: np.ndarray) -> np.ndarray:
        d = np.sqrt(np.min(np.sum((pts[:, None, :] - junctions[None, :, :]) ** 2, axis=2), axis=1))
        return np.minimum(h_far, s_jun + 0.45 * d)

    return _refine_polygon(chains, size_fn, h_far)


@dataclass(frozen=True)
class _FarReference:
    """Far-field half piece meshed at a reference gap, triangles
    counterclockwise, with ``lift``: the vertical displacement per unit
    change of the gap.  ``fiber`` holds the ids of the x = R0 fiber
    vertices, bottom to top.  The arrays are read-only."""

    vertices: np.ndarray
    triangles: np.ndarray
    segments: np.ndarray
    fiber: np.ndarray
    lift: np.ndarray


@functools.lru_cache(maxsize=16)
def _far_reference(pair: InclusionPair, params: MeshParams) -> _FarReference:
    """The refined far-field half piece of ``pair`` and its lift.

    The lift is the P1 harmonic extension of the boundary motion under a
    unit gap change: 1 on the upper cap, which translates with the upper
    inclusion, 0 on the lower cap and the outer circle, j/layers on fiber
    row j, and natural on the x = 0 axis (Johnson and Tezduyar's mesh
    update by a Laplace solve).  Only the gap-0 piece is ever moved; a
    piece meshed at another gap is used at that gap alone, so its lift is
    zero and no Laplace system is solved for it.
    """
    from .fem import stiffness_matrix  # fem imports this module

    end_fiber = _fibers(pair, [pair.neck_radius], params.layers)[0]
    piece = _refine_far_half(pair, params, end_fiber)
    verts, tris, seg = piece.vertices, piece.triangles, piece.segments
    vid, row = np.nonzero(np.all(verts[:, None, :] == end_fiber[None, :, :], axis=2))
    fiber = vid[np.argsort(row)]

    lift = np.zeros(len(verts))
    if pair.eps == 0.0:
        value = np.full(len(verts), np.nan)
        value[seg[:, :2]] = (seg[:, 2] == INCLUSION1)[:, None]
        value[fiber] = np.arange(params.layers + 1) / params.layers
        fixed = np.flatnonzero(~np.isnan(value))
        free = np.flatnonzero(np.isnan(value))
        k = stiffness_matrix(verts, tris)
        lift = value.copy()
        lift[free] = spla.spsolve(k[free][:, free].tocsc(), -(k[free][:, fixed] @ value[fixed]))

    for a in (verts, tris, fiber, lift):
        a.setflags(write=False)
    return _FarReference(verts, tris, seg, fiber, lift)


def _far_half_piece(pair: InclusionPair, params: MeshParams, end_fiber: np.ndarray) -> tuple[_Piece, float]:
    """Far-field half piece for the gap of ``pair`` and the reference gap it
    was moved from.

    The piece meshed at gap 0 is moved to the gap by its lift and its fiber
    takes the strip's ``end_fiber`` bytes, so the pieces glue by value.  If
    the moved piece inverts a triangle or falls under the minimum angle, the
    piece meshed at the actual gap is used instead.
    """
    for eps_ref in (0.0, pair.eps):
        ref = _far_reference(pair.with_gap(eps_ref), params)
        verts = ref.vertices.copy()
        verts[:, 1] += (pair.eps - eps_ref) * ref.lift
        verts[ref.fiber] = end_fiber
        if eps_ref == pair.eps:
            break
        x, y = _corners(verts, ref.triangles)
        if np.all(_signed_area2(x, y) > 0.0) and _min_angle(x, y) >= math.radians(_MIN_ANGLE_DEG):
            break
    return _Piece(vertices=verts, triangles=ref.triangles, segments=ref.segments), eps_ref


def _mirror_piece(piece: _Piece) -> _Piece:
    verts = piece.vertices.copy()
    verts[:, 0] = -verts[:, 0] + 0.0
    tris = piece.triangles[:, ::-1].copy()
    col = None if piece.column_x is None else -piece.column_x + 0.0
    return _Piece(
        vertices=verts,
        triangles=tris,
        segments=piece.segments,
        neck=None if piece.neck is None else piece.neck.copy(),
        column_x=col,
    )


def _merge_pieces(pieces: list[_Piece]) -> tuple:
    """Glue the pieces, each followed by its mirror image, at coincident
    vertices.  Vertices match by value, so -0.0 meets 0.0; ids and
    coordinates follow first occurrence.  The vertex permutation of
    x -> -x comes last in the result."""
    pieces = [p for right in pieces for p in (right, _mirror_piece(right))]
    allv = np.concatenate([piece.vertices for piece in pieces])
    # One key x + iy per vertex: numpy orders complex numbers by (real,
    # imag), as lexsort((y, x)) does, and -0.0 equals 0.0 in both.
    key = allv.view(np.complex128).ravel()
    order = np.argsort(key, kind="stable")
    ks = key[order]
    starts = np.ones(len(ks), dtype=bool)
    starts[1:] = ks[1:] != ks[:-1]
    # The sort is stable, so each run of equal keys starts at its first
    # occurrence; the first occurrences, in stacking order, are the vertices.
    first = order[starts]
    is_first = np.zeros(len(allv), dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first) - 1
    ids = np.empty(len(allv), dtype=np.int64)
    ids[order] = rank[first][np.cumsum(starts) - 1]

    tris, segs, neck_flags, col_x = [], [], [], []
    offset = 0
    for piece in pieces:
        local = ids[offset : offset + len(piece.vertices)]
        offset += len(piece.vertices)
        tris.append(local[piece.triangles])
        segs.append(np.column_stack([local[piece.segments[:, :2]], piece.segments[:, 2]]))
        count = len(piece.triangles)
        if piece.neck is None:
            neck_flags.append(np.zeros(count, dtype=bool))
            col_x.append(np.full(count, np.nan))
        else:
            neck_flags.append(piece.neck)
            col_x.append(piece.column_x)
    verts = allv[is_first]
    # Vertex j of a piece and vertex j of its image are mirror images.
    mirror = np.empty(len(verts), dtype=np.int64)
    starts = np.cumsum([0] + [len(p.vertices) for p in pieces])
    for lo, mid, hi in zip(starts[0::2], starts[1::2], starts[2::2]):
        right, left = ids[lo:mid], ids[mid:hi]
        mirror[right], mirror[left] = left, right
    return verts, np.vstack(tris), np.vstack(segs), np.concatenate(neck_flags), np.concatenate(col_x), mirror


def _finalize(pair_stations: np.ndarray, merged) -> Mesh:
    verts, tris, segs, neck, col_x, mirror = merged
    area2 = _signed_area2(*_corners(verts, tris))
    if np.any(area2 == 0.0):
        raise MeshError("degenerate triangle produced during merge")
    if np.any(area2 < 0.0):
        raise MeshError("clockwise triangle produced during merge")

    n = len(verts)
    seg_keys = np.minimum(segs[:, 0], segs[:, 1]) * n + np.maximum(segs[:, 0], segs[:, 1])
    order = np.argsort(seg_keys, kind="stable")
    sk, st = seg_keys[order], segs[order, 2]
    clash = np.flatnonzero((sk[1:] == sk[:-1]) & (st[1:] != st[:-1])) + 1
    if len(clash):
        key = int(seg_keys[order[clash].min()])
        raise MeshError(f"conflicting tags on boundary edge {(key // n, key % n)}")
    declared, where = np.unique(sk, return_index=True)
    # The boundary edges are the keys that occur once.
    keys = np.sort(_edge_keys(tris, n))
    once = np.ones(len(keys) + 1, dtype=bool)
    once[1:-1] = keys[1:] != keys[:-1]
    boundary = keys[once[:-1] & once[1:]]
    if not np.array_equal(declared, boundary):
        missing = int(np.sum(~np.isin(declared, boundary)))
        extra = int(np.sum(~np.isin(boundary, declared)))
        raise MeshError(f"boundary mismatch: {missing} declared edges interior, {extra} untagged boundary edges")
    b_edges = np.column_stack([boundary // n, boundary % n])
    b_tags = st[where]

    # A vertex takes the tag of its boundary edges.  The two inclusion tags
    # meet mid-bridge on touching-limit meshes, where the merged conductor
    # makes the choice immaterial: INCLUSION1 (< INCLUSION2) wins.
    ends = b_edges.ravel()
    end_tags = np.repeat(b_tags, 2)
    lo = np.full(n, INCLUSION2 + 1, dtype=np.int64)
    hi = np.full(n, INTERIOR, dtype=np.int64)
    np.minimum.at(lo, ends, end_tags)
    np.maximum.at(hi, ends, end_tags)
    if np.any((lo < hi) & ((lo != INCLUSION1) | (hi != INCLUSION2))):
        raise MeshError("boundary vertex carries edges of incompatible tags")
    vtags = np.where(hi > INTERIOR, lo, INTERIOR)

    return Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=b_edges,
        boundary_tags=b_tags,
        vertex_tags=vtags,
        neck=neck,
        neck_column_x=col_x,
        stations=pair_stations,
        mirror=mirror,
    )


def _glued_mesh(pair: InclusionPair, params: MeshParams, x_start: float) -> Mesh:
    """Strip from x_start (a bridge fiber there when positive) glued to the
    far field, then mirrored."""
    if pair.dimension != 2:
        raise MeshError("meshing is implemented for dimension 2 only")
    strip_r, xs, end_fiber = _strip_piece(pair, params, x_start, bridge=x_start > 0.0)
    far_r, _ = _far_half_piece(pair, params, end_fiber)
    left = -xs[::-1] + 0.0
    stations = np.concatenate([left if x_start > 0.0 else left[:-1], xs])
    return _finalize(stations, _merge_pieces([strip_r, far_r]))


def generate(pair: InclusionPair, params: MeshParams) -> Mesh:
    """Mesh the full domain for a positive gap.

    Only the neck strip is built for each gap: the far field meshed at gap
    0 for this geometry and ``params`` is moved to the gap, unless that
    would spoil its minimum angle.
    """
    if pair.eps <= 0.0:
        raise MeshError("generate needs a positive gap; use generate_touching for eps = 0")
    return _glued_mesh(pair, params, 0.0)


def generate_touching(pair: InclusionPair, r_cut: float, params: MeshParams) -> Mesh:
    """Mesh the touching-limit domain with |x| < r_cut excised and the
    excision fibers tagged as (merged) inclusion boundary."""
    if pair.eps != 0.0:
        raise MeshError("touching mesh needs eps = 0")
    if not (0.0 < r_cut < pair.neck_radius / 2.0):
        raise MeshError(f"cut radius must lie in (0, R0/2), got {r_cut}")
    return _glued_mesh(pair, params, r_cut)


# ---------------------------------------------------------------------------
# audit and export


@dataclass(frozen=True)
class MeshAudit:
    vertex_count: int
    edge_count: int
    triangle_count: int
    boundary_loop_count: int
    euler_characteristic: int
    neck_triangle_count: int
    min_area: float
    far_min_angle_deg: float
    far_max_aspect: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def audit(mesh: Mesh) -> MeshAudit:
    """Invariant replay: the mirror, watertightness, orientation, Euler
    count and quality."""
    failures = _mirror_failures(mesh)
    areas = mesh.areas()
    if np.any(areas <= 0.0):
        failures.append(f"{int(np.sum(areas <= 0.0))} non-positively oriented triangles")
    edges, counts = mesh.edge_index()
    n_edges = len(edges)
    over = int(np.sum(counts > 2))
    if over:
        failures.append(f"{over} edges shared by more than two triangles")
    boundary = edges[counts == 1]
    declared = np.unique(np.sort(mesh.boundary_edges.reshape(-1, 2), axis=1), axis=0)
    if not np.array_equal(boundary, declared):
        failures.append("boundary edges do not match declared tagged edges")

    n = mesh.vertex_count
    degree = np.bincount(boundary.ravel(), minlength=n)
    non_manifold = int(np.sum((degree != 0) & (degree != 2)))
    loops = 0
    if non_manifold:
        failures.append(f"{non_manifold} non-manifold boundary vertices")
    else:
        # Every boundary vertex has two boundary edges, so each component
        # of the boundary edges is one loop; the other vertices stand alone.
        graph = sp.coo_matrix((np.ones(len(boundary)), boundary.T), shape=(n, n))
        loops = csgraph.connected_components(graph, directed=False)[0] - int(np.sum(degree == 0))

    euler = n - n_edges + mesh.triangle_count
    if loops and euler != 2 - loops:
        failures.append(f"Euler characteristic {euler} inconsistent with {loops} boundary loops")

    far = ~mesh.neck
    if far.any():
        p = mesh.vertices[mesh.triangles[far]]
        min_ang, longest = _tri_quality(p)
        min_angle = math.degrees(float(min_ang.min()))
        aspect = float((longest**2 / (2.0 * np.abs(areas[far]))).max())
    else:
        min_angle = float("nan")
        aspect = float("nan")

    return MeshAudit(
        vertex_count=mesh.vertex_count,
        edge_count=n_edges,
        triangle_count=mesh.triangle_count,
        boundary_loop_count=loops,
        euler_characteristic=euler,
        neck_triangle_count=int(mesh.neck.sum()),
        min_area=float(areas.min()),
        far_min_angle_deg=min_angle,
        far_max_aspect=aspect,
        failures=tuple(failures),
    )


def _mirror_failures(mesh: Mesh) -> list[str]:
    """How ``mesh.mirror`` fails to be the symmetry x -> -x: an involution
    of the vertices that maps (x, y) to (-x, y) exactly, keeps the tags,
    maps the triangles onto themselves and leaves no triangle across the
    axis."""
    n, m = mesh.vertex_count, mesh.mirror
    if m.shape != (n,) or m.min() < 0 or m.max() >= n or not np.array_equal(m[m], np.arange(n)):
        return ["mirror is not an involution of the vertices"]
    failures = []
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    if not (np.array_equal(x[m], -x) and np.array_equal(y[m], y)):
        failures.append("mirror does not map (x, y) to (-x, y) exactly")
    if not np.array_equal(mesh.vertex_tags[m], mesh.vertex_tags):
        failures.append("mirror changes vertex tags")

    def keys(tris: np.ndarray) -> np.ndarray:
        s = np.sort(tris, axis=1).astype(np.int64)
        return np.sort((s[:, 0] * n + s[:, 1]) * n + s[:, 2])

    if not np.array_equal(keys(m[mesh.triangles]), keys(mesh.triangles)):
        failures.append("mirror does not map the triangles onto themselves")
    across = int(np.sum((x[mesh.triangles].min(axis=1) < 0.0) & (x[mesh.triangles].max(axis=1) > 0.0)))
    if across:
        failures.append(f"{across} triangles cross the mirror axis")
    return failures


def refine_quadrisect(mesh: Mesh, pair: InclusionPair) -> Mesh:
    """Split every triangle into four via edge midpoints.

    Midpoints of boundary edges are projected back onto the exact boundary
    curve (outer circle, cap circles, or profile graph), so repeated
    refinement converges to the true domain while successive meshes stay
    nested up to that projection.  This gives monotone self-convergence
    for mesh studies, independent of the unstructured generator.

    Midpoints are numbered after the parent's vertices in order of first
    occurrence, triangle by triangle.  Each neck station column splits in
    two: the column centres join the stations, and a neck child takes the
    centre of the half-column that holds its centroid.  The mirror image
    of the midpoint of edge (a, b) is the midpoint of (m(a), m(b)).
    """
    n = mesh.vertex_count
    keys = _edge_keys(mesh.triangles, n)
    # Any sort will do: each run of equal keys is one edge, and the least
    # position in its run is the edge's first occurrence.
    by_key = np.argsort(keys)
    runs = np.flatnonzero(np.diff(keys[by_key], prepend=-1))
    uniq = keys[by_key[runs]]
    first = np.minimum.reduceat(by_key, runs)
    fresh = np.zeros(len(keys), dtype=bool)  # the first occurrence of each edge
    fresh[first] = True
    rank = (np.cumsum(fresh) - 1)[first]  # each edge's number in order of first occurrence
    mids = np.empty(len(keys), dtype=np.int64)  # the midpoint of each triangle edge
    mids[by_key] = n + np.repeat(rank, np.diff(runs, append=len(keys)))
    a, b = np.divmod(keys[fresh], n)
    verts = np.concatenate([mesh.vertices, 0.5 * (mesh.vertices.take(a, axis=0) + mesh.vertices.take(b, axis=0))])
    vtags = np.concatenate([mesh.vertex_tags, np.full(len(uniq), INTERIOR, dtype=np.int64)])

    lo = mesh.boundary_edges.min(axis=1)
    hi = mesh.boundary_edges.max(axis=1)
    b_mid = n + rank[np.searchsorted(uniq, lo * n + hi)]
    verts[b_mid] = _project_midpoints(mesh, pair, lo, hi, verts[b_mid])
    vtags[b_mid] = mesh.boundary_tags
    b_edges = np.column_stack([np.concatenate([lo, hi]), np.concatenate([b_mid, b_mid])])
    order = np.lexsort((b_edges[:, 1], b_edges[:, 0]))

    # The children of a triangle (v0, v1, v2) with edge midpoints m01, m12
    # and m20: (v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20).
    mids = mids.reshape(-1, 3)
    tris = np.empty((len(mids), 4, 3), dtype=np.int64)
    tris[:, :3, 0] = mesh.triangles
    tris[:, :3, 1] = tris[:, 3] = mids
    tris[:, 0, 2], tris[:, 1, 2], tris[:, 2, 2] = mids[:, 2], mids[:, 0], mids[:, 1]
    tris = tris.reshape(-1, 3)
    neck = np.repeat(mesh.neck, 4)

    stations = np.union1d(mesh.stations, mesh.neck_column_x[mesh.neck])
    col_x = np.full(len(tris), np.nan)
    at = np.flatnonzero(neck)
    k = np.searchsorted(stations, verts[:, 0].take(tris.take(at, axis=0)).mean(axis=1)) - 1
    col_x[at] = 0.5 * (stations[k] + stations[k + 1])

    # In key order, the images' keys come nearly sorted, which the search favours.
    a, b = np.divmod(uniq, n)
    a, b = mesh.mirror[a], mesh.mirror[b]
    image = np.searchsorted(uniq, np.minimum(a, b) * n + np.maximum(a, b))
    mid_mirror = np.empty(len(uniq), dtype=np.int64)
    mid_mirror[rank] = n + rank[image]

    return Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=b_edges[order],
        boundary_tags=np.tile(mesh.boundary_tags, 2)[order],
        vertex_tags=vtags,
        neck=neck,
        neck_column_x=col_x,
        stations=stations,
        mirror=np.concatenate([mesh.mirror, mid_mirror]),
    )


def _project_midpoints(mesh: Mesh, pair: InclusionPair, a: np.ndarray, b: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """The midpoints ``mid`` of the boundary edges (a, b) of ``mesh``, in
    the order of ``mesh.boundary_tags``, projected onto their curves: the
    outer circle, the profile graph where both ends lie on it, else the
    cap circle.  Midpoints of vertical excision fibers stay put."""
    tags = mesh.boundary_tags
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    out = mid.copy()
    upper = tags == INCLUSION1

    def graph(x: np.ndarray, up: np.ndarray) -> np.ndarray:
        rel = pair.profile.relative(x[:, None])
        s1, s2 = pair.profile.split
        return np.where(up, pair.eps + s1 * rel, -s2 * rel)

    def on_graph(p: np.ndarray, up: np.ndarray) -> np.ndarray:
        ref = graph(p[:, 0], up)
        near = np.abs(p[:, 0]) <= pair.neck_radius + 1e-12
        return near & (np.abs(p[:, 1] - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))

    outer = tags == OUTER
    out[outer] = mid[outer] * (pair.outer_radius / _hypot(mid[outer]))[:, None]
    curved = ~outer & (np.abs(pa[:, 0] - pb[:, 0]) > 1e-14)
    up = upper[curved]
    on = on_graph(pa[curved], up) & on_graph(pb[curved], up)
    at = np.flatnonzero(curved)
    profile, cap = at[on], at[~on]
    out[profile, 1] = graph(mid[profile, 0], upper[profile])
    cap1, cap2 = pair.caps()
    center = np.column_stack([np.zeros(len(cap)), np.where(upper[cap], cap1.center_height, cap2.center_height)])
    d = mid[cap] - center
    out[cap] = center + d * (np.where(upper[cap], cap1.radius, cap2.radius) / _hypot(d))[:, None]
    return out


def write_mesh_text(mesh: Mesh) -> str:
    """Plain-text encoding: header 'V E T', vertices, triangles, tagged
    boundary edges, whitespace separated."""
    edges, _ = mesh.edge_index()
    lines = [f"{mesh.vertex_count} {len(edges)} {mesh.triangle_count}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        lines.append(f"{i} {j} {TAG_NAMES[int(tag)]}")
    return "\n".join(lines) + "\n"
