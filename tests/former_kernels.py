"""The former kernels of a sweep gap, kept as oracles for their faster
replacements, which must match them bit for bit.

Each gathered coordinates through the (T, 3, 2) index ``vertices[tris]``;
the observables derived the neck arrays once per call, six gradient calls
per record; the far-field test took the least of every angle's arccos; the
glue numbered the vertices by a two-key lexsort.
"""

import math

import numpy as np

from neckfield import fem
from neckfield import mesh as mesh_module
from neckfield.closed_forms import neck_potential


def signed_area2(p):
    """Twice the signed area per triangle, p of shape (T, 3, 2)."""
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def far_field_passes(vertices, triangles):
    """Whether a moved far-field piece keeps its orientation and minimum
    angle, by the least of ``_tri_quality``'s angles."""
    p = vertices[triangles]
    return bool(np.all(signed_area2(p) > 0.0)
                and mesh_module._tri_quality(p)[0].min() >= math.radians(mesh_module._MIN_ANGLE_DEG))


def glue(pieces):
    """The vertices, triangles and mirror of ``_merge_pieces``, numbered by
    lexsort((y, x))."""
    pieces = [p for right in pieces for p in (right, mesh_module._mirror_piece(right))]
    allv = np.concatenate([piece.vertices for piece in pieces])
    order = np.lexsort((allv[:, 1], allv[:, 0]))
    ks = allv[order]
    starts = np.ones(len(ks), dtype=bool)
    starts[1:] = np.any(ks[1:] != ks[:-1], axis=1)
    first = order[starts]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    ids = np.empty(len(allv), dtype=np.int64)
    ids[order] = rank[np.cumsum(starts) - 1]
    bounds = np.cumsum([0] + [len(p.vertices) for p in pieces])
    tris = np.vstack([ids[lo:hi][p.triangles] for p, lo, hi in zip(pieces, bounds, bounds[1:])])
    mirror = np.empty(len(first), dtype=np.int64)
    for lo, mid, hi in zip(bounds[0::2], bounds[1::2], bounds[2::2]):
        mirror[ids[lo:mid]], mirror[ids[mid:hi]] = ids[mid:hi], ids[lo:mid]
    return allv[np.sort(first)], tris, mirror


def element_gradients(f, rows=None):
    mesh = f.mesh
    tris = mesh.triangles if rows is None else mesh.triangles[rows]
    p = mesh.vertices[tris]
    v = f.values[tris]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    area2 = e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0])
    rot = np.stack([-e[:, :, 1], e[:, :, 0]], axis=2)
    return np.einsum("ti,tid->td", v, rot) / area2[:, None]


def max_gradient(f):
    idx = np.flatnonzero(f.mesh.neck)
    grads = element_gradients(f, idx)
    norms = np.hypot(grads[:, 0], grads[:, 1])
    best = int(np.argmax(norms))
    return float(norms[best]), f.mesh.vertices[f.mesh.triangles[idx[best]]].mean(axis=0)


def neck_interpolant(pair, mesh):
    ids = np.unique(mesh.triangles[mesh.neck])
    ramp = np.zeros(mesh.vertex_count)
    ramp[ids] = neck_potential(pair, mesh.vertices[ids])
    return ramp


def neck_remainder(bundle, ramp):
    mesh = bundle.mesh
    ids = np.unique(mesh.triangles[mesh.neck])
    w = np.zeros(mesh.vertex_count)
    w[ids] = bundle.v1.values[ids] - ramp[ids]
    return fem.ScalarField(mesh, w)


def station_profile(bundle):
    mesh = bundle.mesh
    neck_ids = np.flatnonzero(mesh.neck)
    grads = element_gradients(bundle.vb, neck_ids)
    norms = np.hypot(grads[:, 0], grads[:, 1])
    cols = mesh.neck_column_x[neck_ids]
    order = np.argsort(cols, kind="stable")
    xs, starts = np.unique(cols[order], return_index=True)
    peaks = np.maximum.reduceat(norms[order], starts)
    return list(zip(xs.tolist(), peaks.tolist()))


def centerline_residual(bundle, ramp):
    mesh = bundle.mesh
    neck_ids = np.flatnonzero(mesh.neck)
    levels = ramp[mesh.triangles[neck_ids]].mean(axis=1)
    col_vals = mesh.neck_column_x[neck_ids]
    order = np.lexsort((np.abs(levels - 0.5), col_vals))
    tri = neck_ids[order[np.unique(col_vals[order], return_index=True)[1]]]
    grads_u = element_gradients(bundle.u, tri)
    grads_ramp = element_gradients(fem.ScalarField(mesh, ramp), tri)
    resid = grads_u - (bundle.c1 - bundle.c2) * grads_ramp
    return float(np.hypot(resid[:, 0], resid[:, 1]).max(initial=0.0))


def observables(pair, bundle):
    """The neck observables of ``sweep_record`` on a solved bundle, each
    array as bytes: the interpolant, the remainder, each largest gradient
    with its centroid, the station profile and the centerline residual."""
    ramp = neck_interpolant(pair, bundle.mesh)
    w = neck_remainder(bundle, ramp)
    out = {"ramp": ramp.tobytes(), "w": w.values.tobytes()}
    for name, f in (("u", bundle.u), ("v1", bundle.v1), ("w", w), ("vb", bundle.vb)):
        peak, centroid = max_gradient(f)
        out[f"max_grad_{name}"] = (peak, centroid.tobytes())
    out["profile"] = station_profile(bundle)
    out["centerline"] = centerline_residual(bundle, ramp)
    return out


def assert_mesh_kernels_match(pair, params, x_start=0.0):
    """The area check, the far-field test and the glue of ``pair``'s mesh
    (strip from ``x_start``, as ``_glued_mesh`` builds it) against their
    former kernels, bit for bit; returns the mesh and whether the moved
    gap-0 far field passed its test."""
    strip, xs, end_fiber = mesh_module._strip_piece(pair, params, x_start, x_start > 0.0)
    # The gap-0 piece moved to the gap, as the far-field test sees it.
    ref = mesh_module._far_reference(pair.with_gap(0.0), params)
    moved = ref.vertices.copy()
    moved[:, 1] += pair.eps * ref.lift
    moved[ref.fiber] = end_fiber
    x, y = mesh_module._corners(moved, ref.triangles)
    area2 = mesh_module._signed_area2(x, y)
    assert area2.tobytes() == signed_area2(moved[ref.triangles]).tobytes()
    passes = bool(np.all(area2 > 0.0) and mesh_module._min_angle(x, y) >= math.radians(mesh_module._MIN_ANGLE_DEG))
    assert passes == far_field_passes(moved, ref.triangles)
    if np.all(area2 > 0.0):
        assert mesh_module._min_angle(x, y) == mesh_module._tri_quality(moved[ref.triangles])[0].min()

    far, _ = mesh_module._far_half_piece(pair, params, end_fiber)
    merged = mesh_module._merge_pieces([strip, far])
    verts, tris, mirror = glue([strip, far])
    assert merged[0].tobytes() == verts.tobytes()
    assert merged[1].dtype == tris.dtype and merged[1].tobytes() == tris.tobytes()
    assert merged[5].tobytes() == mirror.tobytes()
    mesh = mesh_module._glued_mesh(pair, params, x_start)
    assert mesh.areas().tobytes() == (0.5 * signed_area2(mesh.vertices[mesh.triangles])).tobytes()
    return mesh, passes


def assert_observables_match(pair, bundle):
    """The neck observables of ``sweep_record`` on ``bundle`` against their
    former six-call kernels, bit for bit."""
    from neckfield import experiments
    from neckfield.conductivity import neck_interpolant, neck_remainder

    ramp = neck_interpolant(pair, bundle.mesh)
    w = neck_remainder(bundle, ramp)
    got = {"ramp": ramp.tobytes(), "w": w.values.tobytes()}
    for name, f in (("u", bundle.u), ("v1", bundle.v1), ("w", w), ("vb", bundle.vb)):
        peak, centroid = fem.max_gradient(f)
        got[f"max_grad_{name}"] = (peak, centroid.tobytes())
    got["profile"] = experiments.vb_station_profile(bundle)
    got["centerline"] = experiments._centerline_residual(bundle, ramp)
    want = observables(pair, bundle)
    assert got == want
    rows = np.concatenate([np.flatnonzero(bundle.mesh.neck), [bundle.mesh.triangle_count - 1, 0, 0]])
    for f in (bundle.u, bundle.vb, w):
        assert fem.element_gradients(f).tobytes() == element_gradients(f).tobytes()
        assert fem.element_gradients(f, rows).tobytes() == element_gradients(f, rows).tobytes()
    return want
