"""Span tracer that wraps fpfkit's public functions from outside the package.

Every wrapped call records one span (name, start, end, parent) in memory.
Names are patched in the namespace of the module that calls them, for example
``fpfkit.pipeline.bsp_estimate`` and ``fpfkit.runner.fit_surface``, and methods
on their class. Hooks take deterministic counts from arguments, return values
and public attributes (``partition.n_leaves``, ``FailureEstimate.n_levels``,
``model.n_evaluations`` before and after a call). Per-layer metrics are derived
from the spans once the measured command has returned, and ``dump`` writes the
spans out.

A target that no longer exists is skipped and counted in
``trace.missing_targets``; a hook that raises is reported on stderr and counted
in ``trace.hook_errors``. The traced run keeps going either way, so a later
refactor of the package shows up as a count instead of a crash.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import traceback
from array import array

import numpy as np

class Tracer:
    """In-memory span store shared by every wrapped function of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.hook_errors = 0
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        # spans opened by pool threads hang under the main thread's open span
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def put(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = value

    def next_call(self, key: str) -> int:
        """0-based index of this call among the calls counted under ``key``."""
        with self._lock:
            n = self._calls.get(key, 0)
            self._calls[key] = n + 1
        return n

    def _hook(self, fn, *args):
        try:
            return fn(self, *args)
        except Exception:
            self.hook_errors += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(tracer, args, kwargs)`` runs ahead of the span and its result
        is handed to ``after(tracer, idx, args, kwargs, result, state)``, which
        runs once the call has returned.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            state = self._hook(before, args, kwargs) if before else None
            stack = self._stack()
            with self._lock:
                idx = len(self.start)
                self.parent.append(
                    stack[-1] if stack else (main_stack[-1] if main_stack else -1)
                )
                self.name.append(nid)
                self.end.append(0.0)
                self.start.append(time.perf_counter())
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
            if after:
                self._hook(after, idx, args, kwargs, result, state)
            return result

        setattr(owner, attr, functools.wraps(orig)(traced))

    def _arrays(self):
        return (
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
        )

    def summarize(self) -> dict[str, float]:
        """Per-name totals plus the hook counts.

        ``<name>.s`` sums the spans with no ancestor of the same name (so a
        recursive call is not counted twice), ``<name>.self_s`` sums each
        span minus the union of its children's intervals, and
        ``<name>.calls`` counts spans.
        """
        start, end, name, parent = self._arrays()
        n = start.size
        dur = end - start
        self_t = dur - _child_cover(start, end, parent, n)
        nested = _has_ancestor(name, parent, np.arange(n), name)
        out: dict[str, float] = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            out[f"{nm}.s"] = float(dur[sel & ~nested].sum())
            out[f"{nm}.self_s"] = float(self_t[sel].sum())
            out[f"{nm}.calls"] = int(sel.sum())
        out.update(self.counts)
        out["trace.missing_targets"] = len(self.missing)
        out["trace.hook_errors"] = self.hook_errors
        return out

    def count_under(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` that have an ancestor named ``ancestor``."""
        if child not in self._ids or ancestor not in self._ids:
            return 0
        _, _, name, parent = self._arrays()
        cid, aid = self._ids[child], self._ids[ancestor]
        rows = np.flatnonzero(name == cid)
        return int(_has_ancestor(name, parent, rows, np.full(rows.size, aid)).sum())

    def dump(self, path) -> None:
        start, end, name, parent = self._arrays()
        np.savez(
            path, start=start, end=end, name=name, parent=parent,
            names=np.array(self.names),
        )


def _has_ancestor(name, parent, rows, wanted) -> np.ndarray:
    """Whether each span in ``rows`` has an ancestor named ``wanted[i]``."""
    found = np.zeros(rows.size, dtype=bool)
    anc = parent[rows]
    live = anc >= 0
    while live.any():
        found[live] |= name[anc[live]] == wanted[live]
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return found


def _child_cover(start, end, parent, n: int) -> np.ndarray:
    """Per span, the length of the union of its children's intervals.

    Children run one after another on one thread, except under the grid
    oracle, whose pool threads overlap; the union handles both.
    """
    covered = np.zeros(n)
    idx = np.flatnonzero(parent >= 0)
    if idx.size == 0:
        return covered
    order = idx[np.lexsort((start[idx], parent[idx]))]
    p, s, e = parent[order], start[order], end[order]
    t0 = float(start.min())
    width = float(end.max()) - t0 + 1.0
    group = np.concatenate(([0], np.cumsum(p[1:] != p[:-1])))
    # offset each parent's group so the running maximum never leaks across groups
    shifted = (e - t0) + group * width
    prev = np.concatenate(([-np.inf], np.maximum.accumulate(shifted)[:-1]))
    prev_end = prev - group * width + t0
    new = np.maximum(0.0, e - np.maximum(s, prev_end))
    covered += np.bincount(p, weights=new, minlength=n)
    return covered


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _phi_rows(samples) -> np.ndarray:
    """Design rows of a sample collection: an array-backed set or a sequence
    of objects with a ``phi`` attribute."""
    phi = getattr(samples, "phi", None)
    if phi is not None:
        return np.asarray(phi, dtype=float)
    return np.array([s.phi for s in samples], dtype=float)


def _evals_before(pos: int):
    def before(tr, args, kwargs):
        return _arg(args, kwargs, pos, "model").n_evaluations
    return before


def _bsp_after(tr, idx, args, kwargs, result, state):
    k = tr.next_call("bsp")
    pre = f"bsp.bsp_estimate.l{k}"
    leaves = result.partition.n_leaves
    cap = kwargs.get("max_leaves", args[7] if len(args) > 7 else 64)
    tr.put(f"{pre}.s", tr.duration(idx))
    tr.put(f"{pre}.n_points", len(_arg(args, kwargs, 0, "points")))
    tr.put(f"{pre}.leaves", leaves)
    tr.put(f"{pre}.at_cap", int(leaves >= cap))
    tr.put(f"{pre}.log_score", float(result.log_score))


def _populate_after(tr, idx, args, kwargs, result, before):
    k = tr.next_call("populate") + 1
    pre = f"reliability.populate_region.l{k}"
    phis = _phi_rows(result)
    evals = _arg(args, kwargs, 2, "model").n_evaluations - before
    tr.put(f"{pre}.s", tr.duration(idx))
    tr.put(f"{pre}.n_out", len(phis))
    tr.put(f"{pre}.distinct_frac", len(np.unique(phis, axis=0)) / max(len(phis), 1))
    tr.add("reliability.populate_region.evals", evals)


def _subset_after(tr, idx, args, kwargs, result, before):
    tr.add(
        "reliability.subset_simulation.evals",
        _arg(args, kwargs, 0, "model").n_evaluations - before,
    )
    tr.add("reliability.subset_simulation.levels", int(result.n_levels))
    tr.put("reliability.subset_simulation.cov_reported", float(result.cov))


def _oracle_after(tr, idx, args, kwargs, result, before):
    evals = _arg(args, kwargs, 0, "model").n_evaluations - before
    tr.add("benchmarks.grid_dmcs_oracle.evals", evals)


def _rows_after(tr, idx, args, kwargs, result, state):
    tr.add("model.evaluate_batch.rows", len(_arg(args, kwargs, 1, "phis")))


def _level_after(tr, idx, args, kwargs, result, state):
    k = int(_arg(args, kwargs, 0, "index"))
    tr.put(f"regions.boxes.l{k}", len(_arg(args, kwargs, 1, "region").boxes))


def _fpf_points_after(tr, idx, args, kwargs, result, state):
    phi = np.asarray(_arg(args, kwargs, 1, "phi"))
    tr.add("pipeline.FPFApproximation.fpf.points", 1 if phi.ndim == 1 else len(phi))


def _support_after(tr, idx, args, kwargs, result, state):
    tr.add("smoothing.extract_support_points.n", len(result))


def _optimize_after(tr, idx, args, kwargs, result, state):
    tr.add("optimize.optimize.nit", sum(int(r.n_iterations) for r in result.starts))


def _bytes_after(tr, idx, args, kwargs, result, state):
    tr.add("artifacts.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def install(tr: Tracer) -> None:
    """Wrap the public functions of every fpfkit layer."""
    from fpfkit import config, model, pipeline, regions, runner, smoothing

    wrap = tr.wrap
    wrap(config, "load_config", "config.load_config")
    wrap(runner, "build_problem", "runner.build_problem")
    wrap(runner, "run_command", "runner.run_command")
    wrap(runner, "grid_command", "runner.grid_command")
    wrap(runner, "run_pipeline", "pipeline.run_pipeline")
    wrap(pipeline, "direct_mcs", "reliability.direct_mcs")
    wrap(pipeline, "subset_simulation", "reliability.subset_simulation",
         before=_evals_before(0), after=_subset_after)
    wrap(pipeline, "populate_region", "reliability.populate_region",
         before=_evals_before(2), after=_populate_after)
    wrap(pipeline, "bsp_estimate", "bsp.bsp_estimate", after=_bsp_after)
    wrap(pipeline, "build_level", "pipeline.build_level", after=_level_after)
    wrap(pipeline.FPFApproximation, "fpf", "pipeline.FPFApproximation.fpf",
         after=_fpf_points_after)
    wrap(model.LimitStateModel, "evaluate_batch", "model.evaluate_batch",
         after=_rows_after)
    wrap(regions.RegionIndicator, "contains", "regions.RegionIndicator.contains")
    wrap(runner, "extract_support_points", "smoothing.extract_support_points",
         after=_support_after)
    wrap(runner, "fit_surface", "smoothing.fit_surface")
    wrap(smoothing.SmoothedFPF, "__call__", "smoothing.SmoothedFPF.call")
    wrap(smoothing.SmoothedFPF, "gradient", "smoothing.SmoothedFPF.gradient")
    wrap(runner, "optimize", "optimize.optimize", after=_optimize_after)
    for fn in ("write_samples_csv", "write_csv", "write_json", "write_oracle_csv"):
        wrap(runner, fn, f"artifacts.{fn}", after=_bytes_after)
    wrap(runner, "sha256_of", "artifacts.sha256_of")
    wrap(runner, "grid_dmcs_oracle", "benchmarks.grid_dmcs_oracle",
         before=_evals_before(0), after=_oracle_after)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Named per-layer values: span totals, hook counts and derived rates."""
    out = tr.summarize()

    def rate(num: str, den: str) -> float:
        d = out.get(den, 0.0)
        return out.get(num, 0.0) / d if d > 0 else 0.0

    out["reliability.populate_region.evals_per_s"] = rate(
        "reliability.populate_region.evals", "reliability.populate_region.s"
    )
    out["benchmarks.grid_dmcs_oracle.evals_per_s"] = rate(
        "benchmarks.grid_dmcs_oracle.evals", "benchmarks.grid_dmcs_oracle.s"
    )
    out["model.evaluate_batch.rows_per_call"] = rate(
        "model.evaluate_batch.rows", "model.evaluate_batch.calls"
    )
    out["optimize.optimize.fpf_calls"] = tr.count_under(
        "smoothing.SmoothedFPF.call", "optimize.optimize"
    )
    return out
