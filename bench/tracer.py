"""Span tracer that times glkit's public functions from outside the library.

Wrappers are installed on every binding of a traced function, found by
identity across the loaded ``glkit`` module dicts (so the
``from .solvers import ...`` copies in statnet, netdyn, spectralid and
smoothlearn are covered, and call-time imports read the wrapped module
attribute). Class methods are wrapped on the class. Spans stay in memory
as flat lists and are aggregated or written out when the run ends.

A span is ``[name, phase, parent, start, end, child_s, iters, converged,
nbytes]``; ``child_s`` accumulates the durations of its direct children,
so a span's self time is ``end - start - child_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# layer name -> (module, attribute path)
TRACED = {
    "solvers.lasso_cd": ("glkit.solvers", "lasso_cd"),
    "solvers.lasso_cd_gram": ("glkit.solvers", "lasso_cd_gram"),
    "solvers.admm_l1_spectral": ("glkit.solvers", "admm_l1_spectral"),
    "solvers.spectral_gap": ("glkit.solvers", "spectral_gap"),
    "solvers.SpectralCoupling.project": ("glkit.solvers", "SpectralCoupling.project"),
    "solvers.ShiftConstraintSet.project": ("glkit.solvers", "ShiftConstraintSet.project"),
    "solvers.prox_neg_logdet": ("glkit.solvers", "prox_neg_logdet"),
    "solvers.primal_dual_graph": ("glkit.solvers", "primal_dual_graph"),
    "scipy.optimize.linprog": ("scipy.optimize", "linprog"),
    "statnet.neighborhood_lasso": ("glkit.statnet", "neighborhood_lasso"),
    "statnet.graphical_lasso": ("glkit.statnet", "graphical_lasso"),
    "statnet.laplacian_gmrf": ("glkit.statnet", "laplacian_gmrf"),
    "statnet.sample_covariance": ("glkit.statnet", "sample_covariance"),
    "statnet.correlation_network": ("glkit.statnet", "correlation_network"),
    "statnet.partial_correlation_network": ("glkit.statnet", "partial_correlation_network"),
    "smoothlearn.kalofolias_learn": ("glkit.smoothlearn", "kalofolias_learn"),
    "smoothlearn.dong_learn": ("glkit.smoothlearn", "dong_learn"),
    "smoothlearn.distance_matrix": ("glkit.smoothlearn", "distance_matrix"),
    "smoothlearn.edge_select": ("glkit.smoothlearn", "edge_select"),
    "spectralid.infer_shift_from_signals": ("glkit.spectralid", "infer_shift_from_signals"),
    "spectralid.network_deconvolve": ("glkit.spectralid", "network_deconvolve"),
    "spectralid.estimate_eigenbasis": ("glkit.spectralid", "estimate_eigenbasis"),
    "netdyn.sem_fit": ("glkit.netdyn", "sem_fit"),
    "netdyn.svarm_fit": ("glkit.netdyn", "svarm_fit"),
    "netdyn.dynamic_sem_track": ("glkit.netdyn", "dynamic_sem_track"),
    "graphcore.eigendecompose": ("glkit.graphcore", "eigendecompose"),
    "simulate.gen_er_graph": ("glkit.simulate", "gen_er_graph"),
    "simulate.gen_er_digraph": ("glkit.simulate", "gen_er_digraph"),
    "simulate.sample_gmrf": ("glkit.simulate", "sample_gmrf"),
    "simulate.gen_diffusion": ("glkit.simulate", "gen_diffusion"),
    "simulate.gen_smooth": ("glkit.simulate", "gen_smooth"),
    "simulate.gen_sem": ("glkit.simulate", "gen_sem"),
    "simulate.diffusion_covariance": ("glkit.simulate", "diffusion_covariance"),
    "metrics.evaluate": ("glkit.metrics", "evaluate"),
    "serialize.read_matrix_csv": ("glkit.serialize", "read_matrix_csv"),
    "serialize.write_matrix_csv": ("glkit.serialize", "write_matrix_csv"),
    "serialize.read_graph_json": ("glkit.serialize", "read_graph_json"),
    "serialize.write_graph_json": ("glkit.serialize", "write_graph_json"),
    "cli.main": ("glkit.cli", "main"),
}

# learners whose returned SolveTrace gives the cli workload its converged flags
CLI_LEARNERS = ("statnet.graphical_lasso", "spectralid.infer_shift_from_signals")

NAME, PHASE, PARENT, START, END, CHILD, ITERS, CONVERGED, NBYTES = range(9)


def _solve_trace(out):
    """The SolveTrace-like object among a return value's items, if any."""
    for item in out if isinstance(out, tuple) else (out,):
        if hasattr(item, "iters_used") and hasattr(item, "converged"):
            return item
    return None


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Installs span-recording wrappers; records only while enabled."""

    def __init__(self, names=None):
        self.names = list(TRACED) if names is None else list(names)
        self.spans = []
        self.phase = None          # None: wrappers pass straight through
        self.absent = []
        self._stack = []
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self):
        self.absent = []
        for name in self.names:
            module, path = TRACED[name]
            if not module.startswith("glkit") and module not in sys.modules:
                # imported lazily by the solver at call time: importing it
                # here would move that cost, so it stays untraced in this run
                continue
            try:
                holder = importlib.import_module(module)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    holder = getattr(holder, part)
                original = getattr(holder, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            self._patch(holder, attr, original, wrapper)
            if not owner_path:
                # every other module-level binding of the same object
                for mod_name, mod in list(sys.modules.items()):
                    if mod is holder or not mod_name.startswith("glkit"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def _wrap(self, name, fn):
        tracer = self
        reads = name.startswith("serialize.read_")
        writes = name.startswith("serialize.write_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            rec = [name, tracer.phase, parent, 0.0, 0.0, 0.0, None, None, None]
            if reads and args:
                rec[NBYTES] = _file_size(args[0])
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rec[START], rec[END] = start, end
                if parent >= 0:
                    tracer.spans[parent][CHILD] += end - start
            if writes and args:
                rec[NBYTES] = _file_size(args[0])
            trace = _solve_trace(out)
            if trace is not None:
                rec[ITERS] = int(trace.iters_used)
                rec[CONVERGED] = bool(trace.converged)
            return out

        return wrapper


# -- aggregation ---------------------------------------------------------


def aggregate(spans, phases):
    """Per-name totals over the spans whose phase is in ``phases``."""
    phases = set(phases)
    out = {}
    for rec in spans:
        if rec[PHASE] not in phases:
            continue
        dur = rec[END] - rec[START]
        a = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                       "iters": 0, "with_trace": 0,
                                       "converged": 0, "bytes": 0})
        a["calls"] += 1
        a["total_s"] += dur
        a["self_s"] += dur - rec[CHILD]
        if rec[ITERS] is not None:
            a["iters"] += rec[ITERS]
            a["with_trace"] += 1
            a["converged"] += int(rec[CONVERGED])
        if rec[NBYTES] is not None:
            a["bytes"] += rec[NBYTES]
    return out


def covered_s(spans, phases):
    """Wall time covered by top-level spans (the sum of all self times)."""
    phases = set(phases)
    return sum(rec[END] - rec[START] for rec in spans
               if rec[PHASE] in phases and rec[PARENT] < 0)


def counts(spans, phase):
    """``{name.calls: n, name.iters: k}`` for one phase (repeatability)."""
    out = {}
    for name, a in aggregate(spans, [phase]).items():
        out[f"{name}.calls"] = a["calls"]
        if a["with_trace"]:
            out[f"{name}.iters"] = a["iters"]
    return out


def children(spans, phase, parent, child):
    """For each ``parent`` span of a phase: (its iters, its direct
    ``child`` spans)."""
    index = {i: [0] for i, rec in enumerate(spans)
             if rec[PHASE] == phase and rec[NAME] == parent}
    for rec in spans:
        if rec[PHASE] == phase and rec[NAME] == child and rec[PARENT] in index:
            index[rec[PARENT]][0] += 1
    return [(spans[i][ITERS], n) for i, (n,) in index.items()]
