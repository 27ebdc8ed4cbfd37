"""A uniform mesh of a convex polygon, for solver checks on hole-free domains."""

import numpy as np

from neckfield import mesh as mesh_module
from neckfield.mesh import OUTER, Mesh


def mesh_convex_polygon(corners: np.ndarray, h: float) -> Mesh:
    """Uniform refinement of a convex polygon; single OUTER boundary tag."""
    corners = np.asarray(corners, dtype=float)
    chains = [
        mesh_module._segment_chain(corners[k], corners[(k + 1) % len(corners)], h, tag=OUTER)
        for k in range(len(corners))
    ]
    piece = mesh_module._refine_polygon(chains, lambda pts: np.full(len(pts), h), h)
    count = len(piece.triangles)
    piece.neck = np.zeros(count, dtype=bool)
    piece.column_x = np.full(count, np.nan)
    return mesh_module._finalize(np.asarray([]), 4, mesh_module._merge_pieces([piece]))
