"""Per-layer measurement taken from outside the program.

A ``Probe`` replaces, for the length of one pass, the public functions of
the neckfield modules by wrappers.  A function is rebound in every module
namespace that imported it (``generate`` lives in ``mesh`` but is called
through ``experiments``, ``acceptance``, ``conductivity`` and ``cli``), so
every call is seen.  Nothing under ``src/`` is edited.

Without tracing, only the mesh producers are wrapped, and only to keep a
reference to each mesh; hashing and auditing happen after the pass, outside
its timed interval.  With tracing, each wrapped call also records a span
(name, start, end, parent) in memory.  Work the probe itself does after a
call (reading LU fill, bundle cross-checks) is recorded as a ``probe``
span, so that it is subtracted from the enclosing span's self time.

The private sub-stages of the mesher (strip, refinement, merge, finalize)
are not wrapped; they need tracing inside the program.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PROBE = "probe"

# (defining module, function, span name)
FUNCTIONS = (
    ("mesh", "generate", "mesh.generate"),
    ("mesh", "generate_touching", "mesh.generate_touching"),
    ("mesh", "refine_quadrisect", "mesh.refine_quadrisect"),
    ("fem", "assemble", "fem.assemble"),
    ("fem", "max_gradient", "fem.max_gradient"),
    ("conductivity", "solve_bundle", "conductivity.solve_bundle"),
    ("conductivity", "neck_remainder", "conductivity.neck_remainder"),
    ("conductivity", "solve_limit_direct", "conductivity.solve_limit_direct"),
    ("closed_forms", "neck_potential", "closed_forms.neck_potential"),
    ("closed_forms", "profile_energy_constant", "closed_forms.constants"),
    ("closed_forms", "energy_limit_constant", "closed_forms.constants"),
    ("closed_forms", "printed_energy_constant", "closed_forms.constants"),
    ("closed_forms", "gap_integral", "closed_forms.constants"),
    ("closed_forms", "gap_integral_radial", "closed_forms.constants"),
    ("closed_forms", "gap_integral_quadratic", "closed_forms.constants"),
    ("closed_forms", "constants_report", "closed_forms.constants"),
    ("quadrature", "adaptive_integral", "quadrature.integral"),
    ("quadrature", "integral_to_infinity", "quadrature.integral"),
    ("experiments", "sweep_record", "experiments.sweep_record"),
    ("experiments", "run_sweep", "experiments.run_sweep"),
    ("experiments", "mesh_convergence", "experiments.mesh_convergence"),
    ("experiments", "fit_rate", "experiments.fit"),
    ("experiments", "fit_energy_constants", "experiments.fit"),
    ("config", "parse_config", "config.parse"),
    ("cli", "main", "cli"),
)

MESH_PRODUCERS = ("generate", "generate_touching", "refine_quadrisect")

# Largest value over the pass of each cross-check read from a SolveBundle.
CROSS_CHECKS = (
    "conductivity.reciprocity_max",
    "conductivity.b_factor_xcheck_max",
    "conductivity.c_diff_residual_max",
)

# Names whose reported time is self time: the span minus its children.
SELF_TIMED = (
    "fem.solve_dirichlet",
    "conductivity.solve_bundle",
    "conductivity.neck_remainder",
    "conductivity.solve_limit_direct",
    "experiments.sweep_record",
    "cli",
)


class _SpluProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``fem``; only splu differs."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


class Probe:
    """Wraps the program for one pass; ``traced`` adds spans and counters."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.meshes = []
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.extrema = dict.fromkeys(CROSS_CHECKS, 0.0)
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # installation ----------------------------------------------------------

    def __enter__(self) -> "Probe":
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("neckfield.") and mod is not None
        }
        for mod_name, attr, span in FUNCTIONS:
            if attr in MESH_PRODUCERS:
                after = self._after_mesh
            elif not self.traced:
                continue
            else:
                after = {
                    "conductivity.solve_bundle": self._after_bundle,
                    "experiments.run_sweep": self._after_sweep,
                }.get(span)
            original = getattr(modules[mod_name], attr)
            wrapped = self._wrap(span, original, after)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        if self.traced:
            fem, acceptance = modules["fem"], modules["acceptance"]
            op = fem.StiffnessOperator
            self._patch(op, "solve_dirichlet", self._wrap("fem.solve_dirichlet", op.solve_dirichlet))
            self._patch(op, "_cg", self._wrap("fem.cg", op._cg))
            splu = self._wrap("fem.lu", fem.spla.splu, self._after_lu)
            self._patch(fem, "spla", _SpluProxy(fem.spla, splu))
            criteria = tuple(
                self._wrap(f"acceptance.C{i}", fn) for i, fn in enumerate(acceptance.CRITERIA, start=1)
            )
            self._patch(acceptance, "CRITERIA", criteria)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, after=None):
        if not self.traced:

            @functools.wraps(fn)
            def kept(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(out, args)
                return out

            return kept

        spans, stack, clock = self.spans, self._open, time.perf_counter

        def record(span_name, call, *args, **kwargs):
            idx = len(spans)
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return call(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = record(name, fn, *args, **kwargs)
            if after is not None:
                record(PROBE, after, out, args)
            return out

        return traced

    # what the probe reads from results -------------------------------------

    def _after_mesh(self, mesh, args) -> None:
        self.meshes.append(mesh)
        self.counts["mesh.vertices"] += mesh.vertex_count
        self.counts["mesh.triangles"] += mesh.triangle_count

    def _after_lu(self, lu, args) -> None:
        self.counts["fem.lu_nnz"] += lu.L.nnz + lu.U.nnz
        self.counts["fem.k_ii_nnz"] += args[0].nnz

    def _after_bundle(self, bundle, args) -> None:
        values = (
            abs(bundle.a12 - bundle.a21) / abs(bundle.a12),
            abs(bundle.b_factor - bundle.b_factor_system),
            abs(bundle.c_diff_residual),
        )
        for key, value in zip(CROSS_CHECKS, values):
            self.extrema[key] = max(self.extrema[key], float(value))

    def _after_sweep(self, out, args) -> None:
        self.counts["experiments.gaps_failed"] += len(out[1])

    # reduction -------------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], Counter]:
        """Seconds and call counts per span name.

        A span nested in one of the same name (a recursive or re-entrant
        call) is not counted again.  Names in SELF_TIMED get self time; the
        others get their span minus the probe's own work inside it.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        probe_s = [0.0] * len(spans)  # probe work inside each span, at any depth
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
            p = parent
            while name == PROBE and p >= 0:
                probe_s[p] += end - start
                p = spans[p][3]
        seconds: dict[str, float] = {}
        calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            if name == PROBE:
                continue
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p >= 0:
                continue
            own = end - start - (child_s[i] if name in SELF_TIMED else probe_s[i])
            seconds[name] = seconds.get(name, 0.0) + own
            calls[name] += 1
        return seconds, calls
