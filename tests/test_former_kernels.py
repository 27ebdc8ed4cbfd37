"""A sweep gap's kernels against the former ones they replaced, bit for bit
(``former_kernels``): on every gap of the default sweep and of its quartic
pair, on the gap whose moved far field fails its test, and on a touching
mesh.  The moved-mesh property tests of ``test_mesh`` check the same."""

from dataclasses import replace

import numpy as np
import pytest

from neckfield import config, experiments
from neckfield.conductivity import BoundaryData, solve_bundle
from neckfield.geometry import InclusionPair, NeckProfile, ProfileKind
from neckfield.mesh import MeshParams

import former_kernels

_BASE = config.parse_config(config.default_config_text())
_CONFIGS = {
    "default": _BASE,
    "quartic": replace(_BASE, geometry=replace(_BASE.geometry, profile="power", order=4.0, coefficient=4.0)),
}
_SWEEP_GAPS = [(key, eps) for key, cfg in _CONFIGS.items() for eps in experiments.sweep_gaps(cfg.sweep.eps_list())]


@pytest.mark.parametrize("key,eps", _SWEEP_GAPS)
def test_sweep_gap_matches_former_kernels(key, eps):
    cfg = _CONFIGS[key]
    pair = cfg.geometry.pair(eps)
    mesh, moved = former_kernels.assert_mesh_kernels_match(pair, cfg.mesh)
    assert moved
    record, bundle, w = experiments.sweep_record(pair, mesh, cfg.boundary.data())
    want = former_kernels.assert_observables_match(pair, bundle)
    xs = np.array([x for x, _ in want["profile"]])
    vs = np.array([v for _, v in want["profile"]])
    half = pair.neck_radius / 2.0
    assert record.max_grad_u_neck == want["max_grad_u"][0]
    assert record.max_grad_v1_neck == want["max_grad_v1"][0]
    assert record.max_grad_w_neck == want["max_grad_w"][0]
    assert record.max_grad_vb_neck == vs.max() == want["max_grad_vb"][0]
    assert record.vb_center == vs[np.argmin(np.abs(xs))]
    assert record.vb_offside == max(vs[np.argmin(np.abs(xs - half))], vs[np.argmin(np.abs(xs + half))])
    assert record.centerline_residual == want["centerline"]
    assert record.vb_profile == want["profile"]
    assert w.values.tobytes() == want["w"]


def test_fallback_gap_matches_former_kernels():
    # The gap of test_large_gap_falls_back_to_its_own_far_field whose moved
    # far field fails the minimum angle.
    pair = InclusionPair(2, NeckProfile(kind=ProfileKind.QUADRATIC, curvatures=(2.0,)), 0.9, outer_radius=5.0)
    params = MeshParams(h_far=0.4)
    mesh, moved = former_kernels.assert_mesh_kernels_match(pair, params)
    assert not moved
    former_kernels.assert_observables_match(pair, solve_bundle(mesh, BoundaryData(kind="linear_xn")))


def test_touching_mesh_matches_former_kernels():
    pair = _BASE.geometry.pair(0.0)
    mesh, _ = former_kernels.assert_mesh_kernels_match(pair, _BASE.mesh, 0.05)
    former_kernels.assert_observables_match(pair, solve_bundle(mesh, _BASE.boundary.data()))

