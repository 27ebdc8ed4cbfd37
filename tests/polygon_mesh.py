"""Uniform meshes of convex polygons, for solver checks on hole-free domains.

As the far field is built, the right half x >= 0 is refined with its edge on
the axis x = 0 as an untagged chain, then glued to its mirror image.
"""

import numpy as np

from neckfield import mesh as mesh_module
from neckfield.mesh import INTERIOR, OUTER, Mesh


def polygon_chains(corners: np.ndarray, size: float) -> list:
    """Straight chains of segments at most ``size`` long around the
    counterclockwise polygon ``corners``: OUTER, but untagged on the axis."""
    corners = np.asarray(corners, dtype=float)
    ends = [(corners[k], corners[(k + 1) % len(corners)]) for k in range(len(corners))]
    return [mesh_module._segment_chain(a, b, size, INTERIOR if a[0] == b[0] == 0.0 else OUTER) for a, b in ends]


def polygon_piece(corners: np.ndarray, h: float):
    """Uniform refinement of the polygon ``corners`` at target size h."""
    return mesh_module._refine_polygon(polygon_chains(corners, h), lambda pts: np.full(len(pts), h), h)


def mirrored_mesh(*pieces) -> Mesh:
    """The mesh of pieces at x >= 0, each glued to its mirror image."""
    return mesh_module._finalize(np.asarray([]), mesh_module._merge_pieces(list(pieces)))


def mesh_convex_polygon(corners: np.ndarray, h: float) -> Mesh:
    """Uniform mesh of a convex polygon at x >= 0 with one edge on the axis,
    glued to its mirror image; single OUTER boundary tag."""
    return mirrored_mesh(polygon_piece(corners, h))
