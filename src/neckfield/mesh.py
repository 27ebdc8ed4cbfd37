"""Conforming triangulation of the two-inclusion domain (dimension 2).

The neck strip |x| <= R0 is a structured grid: graded stations along x,
``layers`` rows across the gap placed at fixed fractions of the local gap
width, quads split into triangles.  The far field is meshed by Delaunay
refinement (repeated scipy Delaunay builds with circumcenter insertion and
encroachment-driven boundary splits) on the half domain x >= 0 and then
mirrored, so the final mesh is exactly symmetric under x -> -x.  The strip
and the far field share the vertical fiber of vertices at x = R0, so the
glued mesh is vertex-conforming.  The far field is refined once per
geometry at gap 0, cached, and moved to each gap by a harmonic vertical
displacement; a gap whose moved far field misses the minimum angle gets
one refined at that gap.

Boundary edge tags: OUTER, INCLUSION1 (upper), INCLUSION2 (lower).

``spatial`` and ``spla`` are deferred stand-ins for ``scipy.spatial`` and
``scipy.sparse.linalg``, each imported at its first use (the first
far-field mesh), so importing the package loads no scipy.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import InclusionPair


class _Deferred:
    """Stands in for a module and imports it at the first attribute access."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self._name), attr)


spla = _Deferred("scipy.sparse.linalg")
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


class MeshError(RuntimeError):
    """Mesh generation failed or produced an inconsistent triangulation."""


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
        if self.layers < 4:
            raise MeshError(f"need at least 4 layers across the gap, got {self.layers}")
        if self.h_far <= 0.0:
            raise MeshError(f"far-field edge length must be positive, got {self.h_far}")
        if not (0.0 < self.grading_exponent <= 1.0):
            raise MeshError(f"grading exponent must lie in (0, 1], got {self.grading_exponent}")
        if self.neck_step_factor <= 0.0:
            raise MeshError("neck step factor must be positive")
        if self.refinement < 0:
            raise MeshError("refinement level must be nonnegative")

    def scaled(self) -> tuple[float, float]:
        """(effective neck factor, effective far size) after refinement."""
        shrink = 2.0 ** (-0.5 * self.refinement)
        return self.neck_step_factor * shrink, self.h_far * shrink

    def check_budget(self, outer_radius: float) -> None:
        """Fail at once when the far field of a domain of this outer radius
        would need more points than the mesher allows at this refinement."""
        _expected_points(0.5 * math.pi * outer_radius**2, self.scaled()[1])


@dataclass
class Mesh:
    """Immutable triangulation with tagged boundary and neck bookkeeping."""

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    vertex_tags: np.ndarray
    neck: np.ndarray
    neck_column_x: np.ndarray
    stations: np.ndarray
    layers: int
    # The vertex permutation of x -> -x on a mesh built mirror symmetric,
    # else None.
    mirror: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mirror is not None:
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
        return 0.5 * _signed_area2(self.vertices[self.triangles])

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


def _signed_area2(p: np.ndarray) -> np.ndarray:
    """Twice the signed (counterclockwise positive) area per triangle, p of shape (T,3,2)."""
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


# ---------------------------------------------------------------------------
# neck strip


def _neck_step(pair: InclusionPair, params: MeshParams, x: float, gap0: float) -> float:
    """Station step at x for a strip that starts at gap width gap0."""
    factor, _ = params.scaled()
    g = params.grading_exponent
    scale = pair.profile.curvature_scale(x, gap0)
    return factor * (pair.gap_radial(x) / scale) ** g * pair.neck_radius ** (1.0 - 2.0 * g)


def _neck_stations(pair: InclusionPair, params: MeshParams, x_start: float) -> np.ndarray:
    r0 = pair.neck_radius
    gap0 = pair.gap_radial(x_start)
    if gap0 <= 0.0:
        raise MeshError("strip must start at positive gap width")
    xs = [x_start]
    x = x_start
    while True:
        step = _neck_step(pair, params, x, gap0)
        if step <= 1e-13 * max(1.0, r0):
            raise MeshError(f"neck step degenerated to {step:g}; geometry too thin for this grading")
        nxt = x + step
        if nxt >= r0 - 0.5 * step:
            xs.append(r0)
            break
        xs.append(nxt)
        x = nxt
    return np.asarray(xs)


def _fibers(pair: InclusionPair, xs, layers: int) -> np.ndarray:
    """Station fibers at xs, shape (len(xs), layers + 1, 2), each bottom to
    top: rows at fixed fractions of the local gap, the top row exactly on
    the upper graph."""
    xs = np.asarray(xs, dtype=float)
    rel = pair.profile.relative_line(xs)
    s1, s2 = pair.profile.split
    y = -s2 * rel[:, None] + (np.arange(layers + 1) / layers) * (pair.eps + rel)[:, None]
    y[:, -1] = pair.eps + s1 * rel
    return np.stack([np.broadcast_to(xs[:, None], y.shape), y], axis=2)


@dataclass
class _Piece:
    vertices: np.ndarray
    triangles: np.ndarray
    segments: list[tuple[int, int, int]] = field(default_factory=list)
    neck: np.ndarray | None = None
    column_x: np.ndarray | None = None


def _strip_piece(pair: InclusionPair, params: MeshParams, x_start: float, bridge: bool) -> tuple[_Piece, np.ndarray, np.ndarray]:
    """Structured strip for x in [x_start, R0].

    Returns the piece, the station array and the coordinates of the end
    fiber at x = R0 (bottom to top).  With ``bridge`` the start fiber at
    x = x_start is a tagged boundary (touching-limit excision); otherwise
    it is left untagged (interior seam at x = 0).
    """
    if pair.eps > 0.0 and pair.eps / params.layers < 1e-13:
        raise MeshError(f"gap {pair.eps:g} too thin for {params.layers} layers at machine precision")
    xs = _neck_stations(pair, params, x_start)
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
        segments=segments.tolist(),
        neck=np.ones(len(tris), dtype=bool),
        column_x=np.repeat(0.5 * (xs[:-1] + xs[1:]), 2 * nl),
    )
    end_fiber = fibers[-1].copy()
    return piece, xs, end_fiber


# ---------------------------------------------------------------------------
# far-field half domain


@dataclass
class _Chain:
    points: list[np.ndarray]
    tag: int | None
    protected: bool = False
    projector: object | None = None


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


def _arc_chain(
    center: np.ndarray,
    radius: float,
    th0: float,
    th1: float,
    sizes: tuple[float, float],
    tag: int | None,
    p_start: np.ndarray,
    p_end: np.ndarray,
) -> _Chain:
    # Endpoints are snapped to the shared corner coordinates so consecutive
    # chains meet bitwise exactly.
    length = abs(th1 - th0) * radius
    positions = _graded_positions(length, sizes[0], sizes[1])
    thetas = th0 + (th1 - th0) * positions
    pts = [center + radius * np.array([math.cos(t), math.sin(t)]) for t in thetas]
    pts[0] = np.asarray(p_start, dtype=float)
    pts[-1] = np.asarray(p_end, dtype=float)

    def project(p: np.ndarray) -> np.ndarray:
        d = p - center
        return center + radius * d / math.hypot(d[0], d[1])

    return _Chain(points=pts, tag=tag, projector=project)


def _segment_chain(a: np.ndarray, b: np.ndarray, size: float, tag: int | None) -> _Chain:
    length = math.hypot(*(b - a))
    count = max(1, int(math.ceil(length / size)))
    pts = [a + (b - a) * (k / count) for k in range(count + 1)]
    pts[0] = np.asarray(a, dtype=float)
    pts[-1] = np.asarray(b, dtype=float)
    return _Chain(points=pts, tag=tag)


def _fiber_chain(fiber: np.ndarray) -> _Chain:
    # Bottom-to-top fiber shared verbatim with the strip; never split.
    return _Chain(points=[fiber[j].copy() for j in range(fiber.shape[0])], tag=None, protected=True)


def _polygon_points(chains: list[_Chain]) -> np.ndarray:
    pts = []
    for chain in chains:
        pts.extend(chain.points[:-1])
    return np.asarray(pts)


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


def _tri_min_angles(p: np.ndarray) -> np.ndarray:
    """Min interior angle (radians) per triangle, p of shape (T,3,2)."""
    a = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    b = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    c = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    angles = np.empty((len(p), 3))
    for k, (opp, s1, s2) in enumerate(((a, b, c), (b, a, c), (c, a, b))):
        cosv = (s1**2 + s2**2 - opp**2) / np.maximum(2.0 * s1 * s2, 1e-300)
        angles[:, k] = np.arccos(np.clip(cosv, -1.0, 1.0))
    return angles.min(axis=1)


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
    expected = math.ceil(_POINT_DENSITY * area / h**2)
    if expected > _MAX_POINTS:
        raise MeshError(
            f"far field at edge length {h:.6g} needs about {expected} points, "
            f"above the budget of {_MAX_POINTS}; lower the refinement or raise h_far"
        )
    return expected


def _refine_polygon(chains: list[_Chain], size_fn, h: float) -> _Piece:
    """Delaunay refinement of the region bounded by the chain loop, with
    target edge length ``size_fn`` (at most ``h``)."""
    # Global vertex store; chains index into it.
    coords: list[np.ndarray] = []
    index: dict[tuple[float, float], int] = {}

    def intern(p: np.ndarray) -> int:
        key = (float(p[0]), float(p[1]))
        got = index.get(key)
        if got is None:
            got = len(coords)
            index[key] = got
            coords.append(np.asarray(p, dtype=float))
        return got

    chain_ids: list[list[int]] = [[intern(p) for p in ch.points] for ch in chains]
    area = 0.5 * abs(_area2(_polygon_points(chains)))
    # Each pass inserts at most _BATCH_LIMIT points and some passes only
    # split boundary segments, hence the factor 2 and the margin.
    max_iter = max(_MIN_ITER, 2 * math.ceil(_expected_points(area, h) / _BATCH_LIMIT) + 20)
    free: list[np.ndarray] = []

    for _ in range(max_iter):
        boundary = np.asarray(coords)
        pts = np.concatenate([boundary, *free])
        if len(pts) > _MAX_POINTS:
            raise MeshError(f"refinement exceeded {_MAX_POINTS} points")
        try:
            tri = spatial.Delaunay(pts)
        except spatial.QhullError as exc:
            raise MeshError(f"Delaunay triangulation failed: {exc}") from exc
        seg_a, seg_b, seg_prot, seg_ci, seg_k = _segment_arrays(chains, chain_ids)
        poly = boundary[seg_a]
        cells = tri.simplices
        cent = pts[cells].mean(axis=1)
        keep = _points_inside(poly, cent)
        cells = cells[keep]

        # Conformity: every chain segment must be a triangulation edge.
        # Boundary vertices come first in pts, so only edges between two
        # of them can be chain segments.
        nb = len(boundary)
        lo = np.minimum(cells, np.roll(cells, -1, axis=1)).ravel()
        hi = np.maximum(cells, np.roll(cells, -1, axis=1)).ravel()
        on_boundary = hi < nb
        seg_keys = np.minimum(seg_a, seg_b) * nb + np.maximum(seg_a, seg_b)
        missing = np.flatnonzero(~np.isin(seg_keys, lo[on_boundary] * nb + hi[on_boundary]))
        if len(missing):
            if seg_prot[missing].any():
                raise MeshError("protected interface segment lost Delaunay conformity")
            for s in missing[::-1]:
                _split_chain_segment(chains[seg_ci[s]], chain_ids[seg_ci[s]], seg_k[s], coords, index)
            continue

        pcoords = pts[cells]
        min_ang = _tri_min_angles(pcoords)
        lengths = np.stack(
            [
                np.linalg.norm(pcoords[:, 0] - pcoords[:, 1], axis=1),
                np.linalg.norm(pcoords[:, 1] - pcoords[:, 2], axis=1),
                np.linalg.norm(pcoords[:, 2] - pcoords[:, 0], axis=1),
            ],
            axis=1,
        )
        longest = lengths.max(axis=1)
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
        a, b = boundary[seg_a], boundary[seg_b]
        mid = 0.5 * (a + b)
        rad2 = np.sum((a - mid) ** 2, axis=1)
        accepted, split = _screen_candidates(cands, _points_inside(poly, cands), pts, mid, rad2, seg_prot, size_fn)

        # Segment order is (chain, position) order; split from the back so
        # positions ahead stay valid.
        for s in split[::-1]:
            _split_chain_segment(chains[seg_ci[s]], chain_ids[seg_ci[s]], seg_k[s], coords, index)
        free.append(accepted)
        if not len(accepted) and not len(split):
            break
    else:
        raise MeshError(f"far-field refinement did not settle within the iteration budget of {max_iter}")

    pts = np.concatenate([np.asarray(coords), *free])
    tri = spatial.Delaunay(pts)
    poly = _polygon_points(chains)
    cells = tri.simplices
    keep = _points_inside(poly, pts[cells].mean(axis=1))
    cells = cells[keep]
    segments: list[tuple[int, int, int]] = []
    for ch, ids in zip(chains, chain_ids):
        if ch.tag is None:
            continue
        for k in range(len(ids) - 1):
            segments.append((ids[k], ids[k + 1], ch.tag))
    return _Piece(vertices=pts, triangles=np.asarray(cells, dtype=np.int64), segments=segments)


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


def _segment_arrays(chains, chain_ids):
    a, b, prot, ci_list, k_list = [], [], [], [], []
    for ci, ids in enumerate(chain_ids):
        for k in range(len(ids) - 1):
            a.append(ids[k])
            b.append(ids[k + 1])
            prot.append(chains[ci].protected)
            ci_list.append(ci)
            k_list.append(k)
    return (
        np.asarray(a, dtype=np.int64),
        np.asarray(b, dtype=np.int64),
        np.asarray(prot, dtype=bool),
        np.asarray(ci_list),
        np.asarray(k_list),
    )


def _split_chain_segment(chain: _Chain, ids: list[int], k: int, coords, index) -> None:
    if chain.protected:
        raise MeshError("attempted to split a protected interface segment")
    a = coords[ids[k]]
    b = coords[ids[k + 1]]
    mid = 0.5 * (a + b)
    if chain.projector is not None:
        mid = chain.projector(mid)
    key = (float(mid[0]), float(mid[1]))
    if key in index:
        raise MeshError("boundary split produced a duplicate vertex")
    new_id = len(coords)
    index[key] = new_id
    coords.append(np.asarray(mid, dtype=float))
    chain.points.insert(k + 1, mid)
    ids.insert(k + 1, new_id)


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

    chains = [
        _segment_chain(top_rd, top1, h_far, tag=None),
        _arc_chain(c1, cap1.radius, math.pi / 2.0, theta1, (h_far, s_jun), INCLUSION1, top1, jun1),
        _fiber_chain(end_fiber[::-1]),
        _arc_chain(c2, cap2.radius, theta2, -math.pi / 2.0, (s_jun, h_far), INCLUSION2, jun2, bot2),
        _segment_chain(bot2, bot_rd, h_far, tag=None),
        _arc_chain(np.zeros(2), rd, -math.pi / 2.0, math.pi / 2.0, (h_far, h_far), OUTER, bot_rd, top_rd),
    ]
    # The loop above runs clockwise in angle on the caps but the overall
    # traversal keeps the interior on the left; fix orientation by area.
    if _area2(_polygon_points(chains)) < 0.0:
        chains = [
            _Chain(points=list(reversed(ch.points)), tag=ch.tag, protected=ch.protected, projector=ch.projector)
            for ch in reversed(chains)
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
    segments: tuple[tuple[int, int, int], ...]
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
    verts = piece.vertices
    tris = piece.triangles
    tris = np.where((_signed_area2(verts[tris]) < 0.0)[:, None], tris[:, ::-1], tris)
    vid, row = np.nonzero(np.all(verts[:, None, :] == end_fiber[None, :, :], axis=2))
    fiber = vid[np.argsort(row)]

    lift = np.zeros(len(verts))
    if pair.eps == 0.0:
        value = np.full(len(verts), np.nan)
        seg = np.asarray(piece.segments, dtype=np.int64)
        value[seg[:, :2]] = (seg[:, 2] == INCLUSION1)[:, None]
        value[fiber] = np.arange(params.layers + 1) / params.layers
        fixed = np.flatnonzero(~np.isnan(value))
        free = np.flatnonzero(np.isnan(value))
        k = stiffness_matrix(verts, tris)
        lift = value.copy()
        lift[free] = spla.spsolve(k[free][:, free].tocsc(), -(k[free][:, fixed] @ value[fixed]))

    for a in (verts, tris, fiber, lift):
        a.setflags(write=False)
    return _FarReference(verts, tris, tuple(piece.segments), fiber, lift)


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
        p = verts[ref.triangles]
        if np.all(_signed_area2(p) > 0.0) and _tri_min_angles(p).min() >= math.radians(_MIN_ANGLE_DEG):
            break
    return _Piece(vertices=verts, triangles=ref.triangles, segments=list(ref.segments)), eps_ref


def _mirror_piece(piece: _Piece) -> _Piece:
    verts = piece.vertices.copy()
    verts[:, 0] = -verts[:, 0] + 0.0
    tris = piece.triangles[:, ::-1].copy()
    col = None if piece.column_x is None else -piece.column_x + 0.0
    return _Piece(
        vertices=verts,
        triangles=tris,
        segments=list(piece.segments),
        neck=None if piece.neck is None else piece.neck.copy(),
        column_x=col,
    )


def _merge_pieces(pieces: list[_Piece], mirrored: bool = False) -> tuple:
    """Glue the pieces at coincident vertices.  Vertices match by value, so
    -0.0 meets 0.0; ids and coordinates follow first occurrence.

    With ``mirrored``, each piece is followed by its mirror image, and the
    vertex permutation of x -> -x comes last in the result, else None."""
    if mirrored:
        pieces = [p for right in pieces for p in (right, _mirror_piece(right))]
    allv = np.concatenate([piece.vertices for piece in pieces])
    key = allv + 0.0  # -0.0 -> 0.0; every other value is unchanged
    order = np.lexsort((key[:, 1], key[:, 0]))
    ks = key[order]
    starts = np.ones(len(ks), dtype=bool)
    starts[1:] = np.any(ks[1:] != ks[:-1], axis=1)
    # lexsort is stable, so each run of equal keys starts at its first occurrence.
    first = order[starts]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    ids = np.empty(len(allv), dtype=np.int64)
    ids[order] = rank[np.cumsum(starts) - 1]

    tris, segs, neck_flags, col_x = [], [], [], []
    offset = 0
    for piece in pieces:
        local = ids[offset : offset + len(piece.vertices)]
        offset += len(piece.vertices)
        tris.append(local[piece.triangles])
        seg = np.asarray(piece.segments, dtype=np.int64).reshape(-1, 3)
        segs.append(np.column_stack([local[seg[:, 0]], local[seg[:, 1]], seg[:, 2]]))
        count = len(piece.triangles)
        if piece.neck is None:
            neck_flags.append(np.zeros(count, dtype=bool))
            col_x.append(np.full(count, np.nan))
        else:
            neck_flags.append(piece.neck)
            col_x.append(piece.column_x)
    verts = allv[np.sort(first)]
    mirror = None
    if mirrored:
        # Vertex j of a piece and vertex j of its image are mirror images.
        mirror = np.empty(len(verts), dtype=np.int64)
        starts = np.cumsum([0] + [len(p.vertices) for p in pieces])
        for lo, mid, hi in zip(starts[0::2], starts[1::2], starts[2::2]):
            right, left = ids[lo:mid], ids[mid:hi]
            mirror[right], mirror[left] = left, right
    return verts, np.vstack(tris), np.vstack(segs), np.concatenate(neck_flags), np.concatenate(col_x), mirror


def _finalize(pair_stations: np.ndarray, layers: int, merged) -> Mesh:
    verts, tris, segs, neck, col_x, mirror = merged
    area2 = _signed_area2(verts[tris])
    if np.any(area2 == 0.0):
        raise MeshError("degenerate triangle produced during merge")
    flip = area2 < 0.0
    tris = tris.copy()
    tris[flip] = tris[flip][:, ::-1]

    n = len(verts)
    seg_keys = np.minimum(segs[:, 0], segs[:, 1]) * n + np.maximum(segs[:, 0], segs[:, 1])
    order = np.argsort(seg_keys, kind="stable")
    sk, st = seg_keys[order], segs[order, 2]
    clash = np.flatnonzero((sk[1:] == sk[:-1]) & (st[1:] != st[:-1])) + 1
    if len(clash):
        key = int(seg_keys[order[clash].min()])
        raise MeshError(f"conflicting tags on boundary edge {(key // n, key % n)}")
    declared, where = np.unique(sk, return_index=True)
    keys, counts = np.unique(_edge_keys(tris, n), return_counts=True)
    boundary = keys[counts == 1]
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
        layers=layers,
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
    merged = _merge_pieces([strip_r, far_r], mirrored=True)
    return _finalize(stations, params.layers, merged)


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
    """Invariant replay: watertightness, orientation, Euler count, quality,
    and the mirror where the mesh carries one."""
    failures = [] if mesh.mirror is None else _mirror_failures(mesh)
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

    adjacency: dict[int, list[int]] = {}
    for a, b in boundary.tolist():
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    non_manifold = [v for v, nb in adjacency.items() if len(nb) != 2]
    loops = 0
    if non_manifold:
        failures.append(f"{len(non_manifold)} non-manifold boundary vertices")
    else:
        seen: set[int] = set()
        for start in sorted(adjacency):
            if start in seen:
                continue
            loops += 1
            prev, cur = None, start
            while True:
                seen.add(cur)
                nxt = [w for w in adjacency[cur] if w != prev]
                prev, cur = cur, nxt[0]
                if cur == start:
                    break

    euler = mesh.vertex_count - n_edges + mesh.triangle_count
    if loops and euler != 2 - loops:
        failures.append(f"Euler characteristic {euler} inconsistent with {loops} boundary loops")

    far = ~mesh.neck
    if far.any():
        p = mesh.vertices[mesh.triangles[far]]
        min_angle = math.degrees(float(_tri_min_angles(p).min()))
        lengths = np.stack(
            [
                np.linalg.norm(p[:, 0] - p[:, 1], axis=1),
                np.linalg.norm(p[:, 1] - p[:, 2], axis=1),
                np.linalg.norm(p[:, 2] - p[:, 0], axis=1),
            ],
            axis=1,
        )
        longest = lengths.max(axis=1)
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
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    fresh = np.zeros(len(keys), dtype=bool)  # the first occurrence of each edge
    fresh[first] = True
    rank = (np.cumsum(fresh) - 1)[first]  # each edge's number in order of first occurrence
    new_keys = keys[fresh]
    verts = np.concatenate([mesh.vertices, 0.5 * (mesh.vertices[new_keys // n] + mesh.vertices[new_keys % n])])
    vtags = np.concatenate([mesh.vertex_tags, np.full(len(uniq), INTERIOR, dtype=np.int64)])

    lo = mesh.boundary_edges.min(axis=1)
    hi = mesh.boundary_edges.max(axis=1)
    b_mid = n + rank[np.searchsorted(uniq, lo * n + hi)]
    verts[b_mid] = _project_midpoints(mesh, pair, lo, hi, verts[b_mid])
    vtags[b_mid] = mesh.boundary_tags
    b_edges = np.column_stack([np.concatenate([lo, hi]), np.concatenate([b_mid, b_mid])])
    order = np.lexsort((b_edges[:, 1], b_edges[:, 0]))

    v0, v1, v2 = mesh.triangles.T
    m01, m12, m20 = (n + rank[inverse]).reshape(-1, 3).T
    tris = np.stack([v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20], axis=1).reshape(-1, 3)
    neck = np.repeat(mesh.neck, 4)

    stations = np.union1d(mesh.stations, mesh.neck_column_x[mesh.neck])
    col_x = np.full(len(tris), np.nan)
    cx = verts[tris[neck], 0].mean(axis=1)
    k = np.searchsorted(stations, cx) - 1
    col_x[neck] = 0.5 * (stations[k] + stations[k + 1])

    mirror = mesh.mirror
    if mirror is not None:
        # In key order, the images' keys come nearly sorted, which the search favours.
        a, b = mirror[uniq // n], mirror[uniq % n]
        image = np.searchsorted(uniq, np.minimum(a, b) * n + np.maximum(a, b))
        mid_mirror = np.empty(len(uniq), dtype=np.int64)
        mid_mirror[rank] = n + rank[image]
        mirror = np.concatenate([mirror, mid_mirror])

    return Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=b_edges[order],
        boundary_tags=np.tile(mesh.boundary_tags, 2)[order],
        vertex_tags=vtags,
        neck=neck,
        neck_column_x=col_x,
        stations=stations,
        layers=2 * mesh.layers,
        mirror=mirror,
    )


def _project_midpoints(mesh: Mesh, pair: InclusionPair, a: np.ndarray, b: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """The midpoints ``mid`` of the boundary edges (a, b) of ``mesh``, in
    the order of ``mesh.boundary_tags``, projected onto their curves: the
    outer circle, the profile graph where both ends lie on it, else the
    cap circle.  Midpoints of vertical excision fibers stay put.  Lengths
    come from ``math.hypot``, which numpy's hypot need not match."""
    tags = mesh.boundary_tags
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    out = mid.copy()
    upper = tags == INCLUSION1

    def hypot(d: np.ndarray) -> np.ndarray:
        return np.array(list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())))

    def graph(x: np.ndarray, up: np.ndarray) -> np.ndarray:
        rel = pair.profile.relative_line(x)
        s1, s2 = pair.profile.split
        return np.where(up, pair.eps + s1 * rel, -s2 * rel)

    def on_graph(p: np.ndarray, up: np.ndarray) -> np.ndarray:
        ref = graph(p[:, 0], up)
        near = np.abs(p[:, 0]) <= pair.neck_radius + 1e-12
        return near & (np.abs(p[:, 1] - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))

    outer = tags == OUTER
    out[outer] = mid[outer] * (pair.outer_radius / hypot(mid[outer]))[:, None]
    curved = ~outer & (np.abs(pa[:, 0] - pb[:, 0]) > 1e-14)
    up = upper[curved]
    on = on_graph(pa[curved], up) & on_graph(pb[curved], up)
    at = np.flatnonzero(curved)
    profile, cap = at[on], at[~on]
    out[profile, 1] = graph(mid[profile, 0], upper[profile])
    cap1, cap2 = pair.caps()
    center = np.column_stack([np.zeros(len(cap)), np.where(upper[cap], cap1.center_height, cap2.center_height)])
    d = mid[cap] - center
    out[cap] = center + d * (np.where(upper[cap], cap1.radius, cap2.radius) / hypot(d))[:, None]
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
