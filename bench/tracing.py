"""Per-layer spans and counts for scorerisk, recorded from outside the package.

`Tracer.install` replaces the public functions of each layer module with
wrappers, together with every alias other scorerisk modules hold through
``from .module import name``, so calls between layers are seen too. A
wrapper records a span (name, start, end, parent, operation) and the
layer's counts while the tracer is active, and is a plain pass-through
otherwise. Spans stay in memory until `write_spans`.

A layer's total time sums its outermost spans (a recursive call is not
counted twice); its self time is each span's duration minus the time of
its direct children. Peak memory per call comes from ``tracemalloc``,
which only the traced run turns on.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict

import numpy as np

MiB = 1024.0 * 1024.0


class _Frame:
    __slots__ = ("index", "name", "t0", "child", "peak_tracked", "mem_base", "mem_peak")

    def __init__(self, index, name, t0, peak_tracked):
        self.index = index
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.peak_tracked = peak_tracked
        self.mem_base = 0
        self.mem_peak = 0


class Tracer:
    def __init__(self, track_memory: bool = True) -> None:
        self.track_memory = track_memory
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.peak_mib = defaultdict(float)
        self._stack: list[_Frame] = []
        self._on_stack = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def outermost(self, name: str) -> bool:
        """True when no enclosing span has the same name (inside a wrapper)."""
        return self._on_stack[name] == 1

    def _enter(self, name: str, peak_tracked: bool) -> _Frame:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1].index if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = _Frame(index, name, 0.0, peak_tracked and self.track_memory)
        if frame.peak_tracked:
            # fold the peak reached so far into every open tracked frame,
            # then restart the process-wide peak for this call
            current, peak = tracemalloc.get_traced_memory()
            for outer in self._stack:
                if outer.peak_tracked:
                    outer.mem_peak = max(outer.mem_peak, peak)
            tracemalloc.reset_peak()
            frame.mem_base = frame.mem_peak = current
        self._stack.append(frame)
        self._on_stack[name] += 1
        frame.t0 = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        t1 = time.perf_counter()
        duration = t1 - frame.t0
        self._stack.pop()
        self._on_stack[frame.name] -= 1
        self.span_start[frame.index] = frame.t0
        self.span_end[frame.index] = t1
        if self._on_stack[frame.name] == 0:
            self.total[frame.name] += duration
        self.self_time[frame.name] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        if frame.peak_tracked:
            _, peak = tracemalloc.get_traced_memory()
            used = (max(frame.mem_peak, peak) - frame.mem_base) / MiB
            self.peak_mib[frame.name] = max(self.peak_mib[frame.name], used)
            for outer in self._stack:
                if outer.peak_tracked:
                    outer.mem_peak = max(outer.mem_peak, peak)

    def wrap(self, name, fn, before=None, after=None, peak=False):
        """Wrap ``fn`` in a span. ``name`` may be a function of the call's
        arguments; ``before(tracer, args, kwargs)`` may return replacement
        arguments; ``after(tracer, args, kwargs, result)`` sees the result.
        Both run inside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name(args, kwargs) if callable(name) else name, peak)
            try:
                if before is not None:
                    args, kwargs = before(tracer, args, kwargs) or (args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
            finally:
                tracer._exit(frame)

        return wrapper

    # -- installation ------------------------------------------------------------

    def patch_function(self, module, attr: str, name, **hooks) -> None:
        """Replace ``module.attr`` and every scorerisk alias of it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        holders = [m for k, m in list(sys.modules.items())
                   if k == "scorerisk" or k.startswith("scorerisk.")]
        if module not in holders:
            holders.append(module)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def patch_method(self, cls, attr: str, name, **hooks) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def install(self) -> None:
        """Wrap the public functions of every scorerisk layer."""
        from scorerisk import (applications, cli, conditional, convex1d, convexnd,
                               risk, scores, solver, spaces)

        counts = self.counts

        def once(key, value=lambda result: 1):
            def after(tracer, args, kwargs, result):
                counts[key] += value(result)
            return after

        def load_rows(tracer, args, kwargs, result):
            if tracer.outermost("spaces.load_csv"):
                counts["spaces.load_csv.rows"] += result[0].n

        self.patch_function(spaces, "load_csv", "spaces.load_csv", after=load_rows)

        x_arg = _argument(scores.ScoreFunction.f, "x")

        def f_elems(tracer, args, kwargs):
            if tracer.outermost("scores.f"):
                counts["scores.f.elems"] += np.size(x_arg(args, kwargs))

        self.patch_method(scores.ScoreFunction, "f", "scores.f", before=f_elems)
        for attr in ("fprime_right", "fprime_left"):
            self.patch_method(scores.ScoreFunction, attr, "scores.fprime")

        z_arg = _argument(risk.evaluate_batch, "Z")

        def batch_counts(tracer, args, kwargs):
            counts["risk.evaluate_batch.calls"] += 1
            counts["risk.evaluate_batch.elems"] += np.size(z_arg(args, kwargs))

        self.patch_function(risk, "evaluate_batch", "risk.evaluate_batch", before=batch_counts)
        self.patch_function(risk, "payoff_gradient", "risk.payoff_gradient",
                            after=once("risk.payoff_gradient.calls"))

        def solve_counts(tracer, args, kwargs, result):
            counts["solver.solve.calls"] += 1
            counts["solver.solve.evaluations"] += result.evaluations

        self.patch_function(solver, "solve", "solver.solve", after=solve_counts, peak=True)
        self.patch_function(solver, "brute_force_oracle", "solver.brute_force_oracle",
                            after=once("solver.brute_force_oracle.evaluations",
                                       lambda result: result.evaluations))
        self.patch_function(convex1d, "minimizer_interval", "convex1d.minimizer_interval",
                            after=once("convex1d.minimizer_interval.calls"))
        self.patch_function(convex1d, "min_value", "convex1d.min_value")

        f_arg = _argument(convexnd.minimize_convex, "F")
        cap_arg = _argument(convexnd.minimize_convex, "max_sweeps")

        def count_objective(tracer, args, kwargs):
            F = f_arg(args, kwargs)

            def counted(theta):
                counts["convexnd.minimize_convex.objective_calls"] += 1
                return F(theta)

            if args:
                return (counted, *args[1:]), kwargs
            return args, {**kwargs, "F": counted}

        def convex_counts(tracer, args, kwargs, result):
            counts["convexnd.minimize_convex.calls"] += 1
            counts["convexnd.minimize_convex.sweeps"] += result.sweeps
            counts["convexnd.minimize_convex.capped"] += int(
                result.sweeps >= cap_arg(args, kwargs))

        self.patch_function(convexnd, "minimize_convex", "convexnd.minimize_convex",
                            before=count_objective, after=convex_counts)

        def fit_counts(tracer, args, kwargs, result):
            counts["conditional.fit.calls"] += 1
            counts["conditional.fit.iterations"] += result.iterations

        self.patch_function(conditional, "fit", "conditional.fit", after=fit_counts, peak=True)
        # conditional imports linprog from scipy.optimize at call time; a
        # process that has not imported scipy.optimize yet (a cli command
        # other than regress, portfolio or hedge) never calls it
        if "scipy.optimize" in sys.modules:
            self.patch_function(sys.modules["scipy.optimize"], "linprog", "conditional.linprog")
        method_arg = _argument(applications.min_deviation_portfolio, "method")
        self.patch_function(
            applications, "min_deviation_portfolio",
            lambda args, kwargs: f"applications.min_deviation_portfolio.{method_arg(args, kwargs)}")
        self.patch_function(applications, "optimal_hedge", "applications.optimal_hedge")
        self.patch_function(cli, "run", "cli.run")
        self.patch_function(cli, "render_json", "cli.render_json")
        if self.track_memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()
        if self.track_memory:
            tracemalloc.stop()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Totals, self times, counts and peaks keyed by metric name."""
        out = {}
        for name, value in self.total.items():
            out[f"{name}.s"] = value
        for name, value in self.self_time.items():
            out[f"{name}.self_s"] = value
        out.update(self.counts)
        for name, value in self.peak_mib.items():
            out[f"{name}.peak_mb"] = value
        return out

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }


def _argument(fn, key: str):
    """Accessor for parameter ``key`` of ``fn`` in an (args, kwargs) call."""
    parameters = inspect.signature(fn).parameters
    index = list(parameters).index(key)
    default = parameters[key].default

    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(key, default)

    return get


def merge_summaries(summaries) -> dict:
    """Add totals and counts; take the largest peak."""
    merged = defaultdict(float)
    for summary in summaries:
        for key, value in summary.items():
            if key.endswith(".peak_mb"):
                merged[key] = max(merged[key], value)
            else:
                merged[key] += value
    return merged


def write_spans(path, span_sets) -> None:
    """Save spans of one or more tracers as one .npz; names are re-indexed."""
    ids: dict[str, int] = {}
    cols = defaultdict(list)
    offset = 0
    for spans in span_sets:
        remap = np.array([ids.setdefault(n, len(ids)) for n in spans["names"]] or [0],
                         dtype=np.int32)
        cols["name"].append(remap[spans["name"]])
        parent = spans["parent"].copy()
        parent[parent >= 0] += offset
        cols["parent"].append(parent)
        for key in ("op", "start", "end"):
            cols[key].append(spans[key])
        offset += spans["name"].size
    names = sorted(ids, key=ids.get)
    arrays = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
    np.savez_compressed(path, names=np.array(json.dumps(names)), **arrays)
