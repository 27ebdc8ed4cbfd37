"""Acceptance gate: every criterion at its stated tolerance.

Heavy solves (the two gap sweeps, the refinement ladder, the two
touching-limit estimates) are shared through a session context, so the
whole gate runs in well under its budgets.  Each test prints the
criterion's pass/fail line and its detail rows.  The tests of ``run_all``
set the usable CPU count, which decides whether a worker is forked.
"""

import gc
import hashlib
import multiprocessing
import os
import re
import sys
import time
import weakref
from dataclasses import replace

import pytest

from neckfield import acceptance, experiments
from neckfield import mesh as mesh_module
from neckfield.fem import SolverError
from neckfield.mesh import MeshError


@pytest.fixture(scope="module")
def ctx():
    return acceptance.AcceptanceContext()


def _check(result):
    print()
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    assert result.passed, "\n".join(result.details)


def test_c1_closed_form_constants(ctx):
    _check(acceptance.criterion_1_closed_form_constants(ctx))


def test_c2_oracle_asymptotics(ctx):
    _check(acceptance.criterion_2_oracle_asymptotics(ctx))


def test_c3_structural_identities(ctx):
    _check(acceptance.criterion_3_structural_identities(ctx))


def test_c4_blowup_rates(ctx):
    _check(acceptance.criterion_4_blowup_rates(ctx))


def test_c5_energy_constants(ctx):
    _check(acceptance.criterion_5_energy_constants(ctx))


def test_c6_degeneracy_and_symmetry(ctx):
    _check(acceptance.criterion_6_degeneracy_and_symmetry(ctx))


def test_c7_blowup_factor_convergence(ctx):
    _check(acceptance.criterion_7_blowup_factor_convergence(ctx))


def test_c8_boundedness_surrogates(ctx):
    _check(acceptance.criterion_8_boundedness_surrogates(ctx))


def test_c9_self_convergence(ctx):
    _check(acceptance.criterion_9_self_convergence(ctx))


def test_dropped_gap_fails_the_sweep_criteria(monkeypatch):
    real = experiments.generate

    def flaky(pair, params):
        if pair.eps < 1e-5:
            raise MeshError("forced failure")
        return real(pair, params)

    monkeypatch.setattr(experiments, "generate", flaky)
    fresh = acceptance.AcceptanceContext()
    for criterion in (
        acceptance.criterion_5_energy_constants,
        acceptance.criterion_8_boundedness_surrogates,
    ):
        result = criterion(fresh)
        assert not result.passed
        assert "BAD m=2 sweep dropped eps=9.8e-06: MeshError: forced failure" in result.details


@pytest.mark.parametrize("both_zero", [False, True], ids=["center-over-a-tenth", "both-zero"])
def test_c8_fails_when_center_gradient_is_not_small(ctx, both_zero):
    if both_zero:
        records = [replace(r, vb_center=0.0, vb_offside=0.0) for r in ctx.records_m2()]
    else:
        records = [replace(r, vb_center=r.vb_offside / 9.0) for r in ctx.records_m2()]
    bad = acceptance.AcceptanceContext()
    bad._cache["sweep_m2"] = (records, {})
    result = acceptance.criterion_8_boundedness_surrogates(bad)
    assert not result.passed
    center_lines = [d for d in result.details if "half-neck" in d]
    assert len(center_lines) == 2 and all(d.startswith("BAD") for d in center_lines)


def _run_all(monkeypatch, cpus, echo=lambda line: None):
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: cpus)
    return acceptance.run_all(echo=echo)


def _lines(results):
    """Every result and detail line, runtimes aside."""
    lines = []
    for result in results:
        lines.append(re.sub(r"\([\d.]+s\)$", "", result.line()))
        lines += [re.sub(r"runtime [\d.]+s", "runtime", detail) for detail in result.details]
    return lines


def _record_meshes(monkeypatch):
    """Hash of every mesh this process's mesh producers return, in call
    order; the producers are rebound wherever they were imported."""
    made = []
    for name in ("generate", "generate_touching", "refine_quadrisect"):
        original = getattr(mesh_module, name)

        def recorded(*args, _original=original, **kwargs):
            mesh = _original(*args, **kwargs)
            made.append(hashlib.sha256(mesh.vertices.tobytes() + mesh.triangles.tobytes()).hexdigest())
            return mesh

        for module in [m for n, m in sys.modules.items() if n.startswith("neckfield.") and m is not None]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recorded)
    return made


def test_worker_gate_equals_inline_gate(monkeypatch):
    # Same lines, and the same meshes in the same order, all made in this
    # process; the worker's second build of the ladder, in its own process,
    # is not among them.
    made = _record_meshes(monkeypatch)
    inline = _lines(_run_all(monkeypatch, 1))
    inline_meshes = made[:]
    made.clear()
    forked = _lines(_run_all(monkeypatch, 2))
    assert forked == inline
    assert sum(line.endswith(": PASS ") for line in forked) == 9
    assert made == inline_meshes and len(made) == 26
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_mesh_plan_is_built_once_and_dropped(monkeypatch, cpus):
    plans = acceptance.AcceptanceContext._mesh_plans
    built, contexts = [], []

    def counted(self):
        return {name: lambda make=make, name=name: built.append(name) or make() for name, make in plans(self).items()}

    prefetch = acceptance.AcceptanceContext.prefetch

    def kept(self):
        contexts.append(self)
        prefetch(self)

    monkeypatch.setattr(acceptance.AcceptanceContext, "_mesh_plans", counted)
    monkeypatch.setattr(acceptance.AcceptanceContext, "prefetch", kept)
    results = _run_all(monkeypatch, cpus)
    assert all(result.passed for result in results)
    assert sorted(built) == sorted(acceptance.PLAN_READERS)
    assert contexts[0]._meshes == {}


def test_worker_programming_error_crashes(monkeypatch):
    def broken(*args):
        raise TypeError("not a gate failure")

    # The truncated-cusp factor, built in the gate's process while the
    # worker solves the finest ladder level.
    monkeypatch.setattr(acceptance, "solve_touching", broken)
    with pytest.raises(TypeError, match="not a gate failure"):
        _run_all(monkeypatch, 2)
    assert multiprocessing.active_children() == []


def test_worker_finest_level_programming_error_crashes(monkeypatch):
    # The level-3 solve raises, in the worker only: a process other than
    # this one.  The error is raised where C7 asks for the ladder.
    real, parent = experiments.solve_bundle, os.getpid()

    def broken(mesh, *args, **kwargs):
        if os.getpid() != parent and mesh.vertex_count > 100_000:
            raise TypeError("not a gate failure")
        return real(mesh, *args, **kwargs)

    monkeypatch.setattr(experiments, "solve_bundle", broken)
    echoed = []
    with pytest.raises(TypeError, match="not a gate failure"):
        _run_all(monkeypatch, 2, echo=echoed.append)
    assert [line.split()[0] for line in echoed if not line.startswith(" ")] == [f"C{i}" for i in range(1, 7)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_finest_mesh_error_surfaces_at_c7(monkeypatch, cpus):
    # The finest ladder mesh fails.  With a worker it fails before any
    # criterion runs, and is raised when C7 asks for the ladder, as inline.
    real = experiments.refine_quadrisect

    def failing(mesh, pair):
        if mesh.vertex_count > 20_000:
            raise MeshError("forced finest-level failure")
        return real(mesh, pair)

    monkeypatch.setattr(experiments, "refine_quadrisect", failing)
    echoed = []
    with pytest.raises(MeshError, match="forced finest-level failure"):
        _run_all(monkeypatch, cpus, echo=echoed.append)
    assert [line.split()[0] for line in echoed if not line.startswith(" ")] == [f"C{i}" for i in range(1, 7)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_identity_error_surfaces_at_c3(monkeypatch, cpus):
    # C3's and C6's solves fail.  With a worker they fail in the gate's
    # process before any criterion runs, and the error is raised, with its
    # type, when C3 asks for its numbers, as inline.
    def failing(*args, **kwargs):
        raise SolverError("forced C3/C6 failure")

    monkeypatch.setattr(acceptance, "solve_bundle", failing)  # C3's and C6's solves only
    echoed = []
    with pytest.raises(SolverError, match="forced C3/C6 failure"):
        _run_all(monkeypatch, cpus, echo=echoed.append)
    assert [line.split()[0] for line in echoed if not line.startswith(" ")] == ["C1", "C2"]
    assert multiprocessing.active_children() == []


def test_worker_dropped_gap_fails_the_sweep_criteria(monkeypatch):
    real = experiments.generate

    def flaky(pair, params):
        if pair.eps < 1e-5:
            raise MeshError("forced failure")
        return real(pair, params)

    monkeypatch.setattr(experiments, "generate", flaky)
    results = {r.name.split()[0]: r for r in _run_all(monkeypatch, 2)}
    line = "BAD m=2 sweep dropped eps=9.8e-06: MeshError: forced failure"
    for name in ("C4", "C5", "C7", "C8"):
        assert not results[name].passed and line in results[name].details
    assert "BAD m=4 sweep dropped eps=9.8e-06: MeshError: forced failure" in results["C4"].details


def test_runtime_budgets_count_prefetched_work(monkeypatch):
    # What prefetch built before the criteria ran is on the budgets of C3,
    # C4 and C6: their solves, and their meshes, each mesh plan built inside
    # the timed build of the artifact that reads it first.
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    spans = {}  # (method, plan or artifact) -> (start, end) of its first call in this process

    def spanned(name):
        original = getattr(acceptance.AcceptanceContext, name)

        def wrapper(self, key):
            t0 = time.perf_counter()
            out = original(self, key)
            spans.setdefault((name, key), (t0, time.perf_counter()))
            return out

        monkeypatch.setattr(acceptance.AcceptanceContext, name, wrapper)

    spanned("meshes")
    spanned("_build")
    fresh = acceptance.AcceptanceContext()
    fresh.prefetch()
    assert multiprocessing.active_children() == []
    results = {r.name.split()[0]: r for r in (criterion(fresh) for criterion in acceptance.CRITERIA[2:6])}
    for name, keys, plans in (
        ("C3", ["identities"], {"op_m2": "identities"}),
        ("C4", ["sweep_m2", "sweep_m4"], {"sweep_m2": "sweep_m2", "sweep_m4": "sweep_m4"}),
        ("C6", ["degeneracy"], {"constant_data": "degeneracy"}),
    ):
        assert all(fresh.build_seconds[key] > 0.0 for key in keys)
        for plan, reader in plans.items():
            (start, end), (first, last) = spans["_build", reader], spans["meshes", plan]
            assert start <= first <= last <= end
        spent = sum(fresh.build_seconds[key] for key in keys)
        assert results[name].runtime >= spent
        for budget in [d for d in results[name].details if "runtime" in d]:  # C6 prints none
            assert float(re.search(r"runtime ([\d.]+)s", budget).group(1)) >= float(f"{spent:.1f}")


@pytest.mark.parametrize(
    "mask,count,fork,cpus",
    [(8, 64, True, 8), (None, None, True, 1), (8, 8, False, 1)],
    ids=["mask-wins", "unknown-count", "no-fork"],
)
def test_usable_cpus(monkeypatch, mask, count, fork, cpus):
    # ``mask`` is the size of the affinity mask; None stands for a platform
    # without one.
    if mask is None:
        monkeypatch.delattr(acceptance.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(acceptance.os, "sched_getaffinity", lambda pid: set(range(mask)))
    monkeypatch.setattr(acceptance.os, "cpu_count", lambda: count)
    if not fork:
        monkeypatch.delattr(acceptance.os, "fork", raising=False)
    assert acceptance._usable_cpus() == cpus


class _NoProcess(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2])
def test_prefetch_forks_only_with_two_cpus(monkeypatch, cpus):
    # The stand-in executor starts no process; with two CPUs it stops
    # prefetch where the worker would be forked.
    import concurrent.futures

    made = []

    def executor(*args, **kwargs):
        made.append(args)
        raise _NoProcess

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(acceptance.AcceptanceContext, "_mesh_plans", lambda self: {})
    fresh = acceptance.AcceptanceContext()
    if cpus == 1:
        fresh.prefetch()
        assert made == [] and fresh._cache == {}
    else:
        with pytest.raises(_NoProcess):
            fresh.prefetch()
        assert len(made) == 1


def test_worker_is_forked_before_any_mesh(monkeypatch):
    # The stand-in executor starts no process.  It records the mesh plans
    # built when the worker would be forked, and what the worker is given.
    import concurrent.futures

    fresh = acceptance.AcceptanceContext()
    seen = []

    class Executor:
        def __init__(self, *args, **kwargs):
            seen.append(dict(fresh._meshes))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            seen.append(args)
            raise _NoProcess

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    with pytest.raises(_NoProcess):
        fresh.prefetch()
    assert seen == [{}, ("ladder_finest",)]


def test_context_needs_no_cycle_collector():
    # A context that only reference counting frees does not pile up across
    # the runs of one process.
    gc.disable()
    try:
        ctx = acceptance.AcceptanceContext()
        ctx._builders()
        ctx._mesh_plans()
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()
