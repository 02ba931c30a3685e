"""Span tracing of the fneighbors layers, installed from outside the package.

The traced run replaces the public functions of each fneighbors module (and
the scipy callees those modules bind: Qhull's Delaunay, HiGHS' linprog,
Nelder-Mead's minimize) with thin wrappers that record one span per call.
Nothing under src/ changes: the wrappers are set on the module attributes
and removed again when the traced run ends.

A function defined in fneighbors is wrapped in every fneighbors module that
binds it (muopt and cli import neighbor_graph by name, so patching only
fneighbors.neighbors would miss their calls).  A scipy callee is wrapped
only in the one module named by its target, so minimize gets one label per
caller (muopt.nelder_mead, witness.nelder_mead).  Per-pair methods such as
SampledDomain.rho are deliberately left alone: wrapping them would cost
more than the work they do.  A target missing from its module (a later
change may delete or rename it) is listed as absent and its metrics read 0.

Self time of a span is its duration minus the durations of its direct child
spans, so the self times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

PACKAGE = "fneighbors"


def _count_certificates(tracer, result):
    tracer.count("neighbors.certificates", len(result))


def _count_verdict(tracer, result):
    tracer.count("neighbors.pair_is_neighbor_fast.yes", int(result[0] == "yes"))


def _count_witness_status(tracer, result):
    tracer.count("witness.witness_point.ok", int(result.status == "ok"))


def _count_nfev(tracer, result):
    tracer.count("witness.nelder_mead.nfev", int(result.nfev))


def _count_mu(tracer, result):
    tracer.count("muopt.evals", int(result.settings["evals"]))
    tracer.count("muopt.improvements", len(result.trace))


# (module, attribute, span label, hook on the return value)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("neighbors", "neighbor_graph", "neighbors.neighbor_graph", _count_certificates),
    ("neighbors", "compute_df", "neighbors.compute_df", None),
    ("neighbors", "extremal_pair", "neighbors.extremal_pair", None),
    ("neighbors", "pair_is_neighbor_fast", "neighbors.pair_is_neighbor_fast",
     _count_verdict),
    ("neighbors", "Delaunay", "neighbors.qhull", None),
    ("neighbors", "linprog", "neighbors.lp", None),
    ("maps", "evaluate", "maps.evaluate", None),
    ("maps", "discretization_allowance", "maps.discretization_allowance", None),
    ("domains", "sample_sphere", "domains.sample_sphere", None),
    ("domains", "cube_boundary_cover", "domains.cube_boundary_cover", None),
    ("domains", "regular_triangulation_cover",
     "domains.regular_triangulation_cover", None),
    ("geometry", "circumsphere", "geometry.circumsphere", None),
    ("geometry", "fit_sphere", "geometry.fit_sphere", None),
    ("witness", "witness_point", "witness.witness_point", _count_witness_status),
    ("witness", "disjoint_faces_check", "witness.disjoint_faces_check", None),
    ("witness", "minimize", "witness.nelder_mead", _count_nfev),
    ("homotopy", "certify_cover", "homotopy.certify_cover", None),
    ("muopt", "estimate_mu", "muopt.estimate_mu", _count_mu),
    ("muopt", "verify_sphere_bound", "muopt.verify_sphere_bound", None),
    ("muopt", "verify_cube_faces", "muopt.verify_cube_faces", None),
    ("muopt", "minimize", "muopt.nelder_mead", None),
]


class Tracer:
    """In-memory span recorder.  Spans nest by call order on one thread
    (every workload is a single-threaded closed loop)."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, fn, label: str, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            span_id = len(tracer.spans)
            tracer.spans.append((span_id, parent, label, 0.0, 0.0))
            frame = [span_id, 0.0]  # id, time covered by child spans
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.spans[span_id] = (span_id, parent, label, start, end)
                tracer.calls[label] = tracer.calls.get(label, 0) + 1
                tracer.self_s[label] = tracer.self_s.get(label, 0.0) + dur - frame[1]
                tracer.durations.setdefault(label, []).append(dur)
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if hook is not None:
                hook(tracer, result)
            return result

        # updated=() skips copying a class __dict__ (Delaunay is a class)
        return functools.update_wrapper(wrapper, fn, updated=())

    def install(self) -> None:
        """Wrap every target; call uninstall() to restore the originals."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, attr, label, hook in TARGETS:
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                self.absent.append(label)
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(label)
                continue
            wrapper = self._wrap(original, label, hook)
            owned = getattr(original, "__module__", "").startswith(PACKAGE)
            for mod in (modules if owned else [home]):
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def percentile_ms(self, label: str, q: int) -> float:
        """q-th percentile of one label's span durations, in ms (0 with no
        spans; a single span gives its own duration)."""
        d = self.durations.get(label, [])
        if not d:
            return 0.0
        if len(d) == 1:
            return 1e3 * d[0]
        return 1e3 * statistics.quantiles(d, n=100, method="inclusive")[q - 1]

    def layer_table(self) -> dict:
        """Every recorded label with calls, total and self seconds."""
        return {label: {"calls": self.calls[label],
                        "total_s": sum(self.durations[label]),
                        "self_s": self.self_s[label]}
                for label in sorted(self.calls)}
