"""Per-layer spans and counts, recorded from outside the library.

The tracer replaces selected curvefold functions with wrappers that record
a span (name, start, end, parent) per call.  A function is replaced under
every curvefold module attribute bound to it, so each caller's own lookup
(`foldsim.propagate_both_modes`, `parallel.partition_uniform`, ...) and the
function-local imports that read the defining module both see the wrapper.
Spans stay in memory until the run ends.
"""
from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

#: (defining module, function, layer).  A layer's time is the self time
#: of its spans: span time minus the time its child spans cover.
TARGETS = (
    ("geometry", "partition_uniform", "geometry.partition"),
    ("geometry", "partition_tube", "geometry.partition"),
    ("geometry", "staircase", "geometry.staircase"),
    ("geometry", "hausdorff", "geometry.hausdorff"),
    ("geometry", "search_theta", "geometry.search_theta"),
    ("kinematics", "solve_first_vertex", "kinematics.solve_first_vertex"),
    ("kinematics", "propagate_both_modes", "kinematics.vertex_solve"),
    ("parallel", "build_pattern", "parallel.build"),
    ("ortho", "build_ortho_pattern", "ortho.build"),
    ("ortho", "propagate_grid", "ortho.build"),
    ("pattern", "assemble_grid", "pattern.assemble_grid"),
    ("pattern", "check_embeddable", "pattern.check_embeddable"),
    ("cli", "_auto_theta", "cli.auto_theta"),
    ("foldsim", "sweep_to_halt", "foldsim.sweep"),
    ("foldsim", "propagate", "foldsim.propagate"),
    ("foldsim", "assign_fold_angles", "foldsim.assign_fold_angles"),
    ("foldsim", "place_panels", "foldsim.place_panels"),
    ("foldsim", "clash_test", "foldsim.clash"),
    ("foldsim", "bootstrap_mv", "foldsim.bootstrap_mv"),
    ("foldio", "load_design_spec", "foldio.load_spec"),
    ("foldio", "export_fold", "foldio.export"),
    ("foldio", "import_fold", "foldio.import"),
    ("foldio", "export_svg", "foldio.svg"),
    ("verify", "run_pattern_checks", "verify.checks"),
)

#: per-layer time metrics, in the order BENCHMARK.json lists them
LAYER_TIMES = sorted({layer for _, _, layer in TARGETS})

#: the benchmark's own root spans whose wall time the layers must explain
COVERED_ROOTS = ("bench.design", "bench.fold")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, ok]
        self._stack = []
        self.counts = Counter()
        self._patched = []
        self._sweep_flat = 0

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, True])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx, ok):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = ok
        self._stack.pop()

    def _in_sweep(self):
        return any(self.spans[i][0] == "foldsim.sweep" for i in self._stack)

    def _before(self, layer, args, kwargs):
        if layer == "foldsim.sweep":
            self._sweep_flat = 0
        elif layer == "foldsim.propagate" and self._in_sweep():
            prev = args[2] if len(args) > 2 else kwargs.get("prev")
            if prev is None:
                # sweep_to_halt starts from flat twice: once for the halt
                # search, once to rebuild the returned trajectory
                self._sweep_flat += 1
            phase = "search" if self._sweep_flat <= 1 else "trajectory"
            self.counts[f"foldsim.{phase}_propagations"] += 1

    def _after(self, layer, result):
        if layer == "foldio.export":
            self.counts["foldio.fold_bytes"] += len(result.encode())
        elif layer == "verify.checks":
            self.counts["verify.checks"] += len(result)

    def _wrapper(self, layer, fn):
        def traced(*args, **kwargs):
            self._before(layer, args, kwargs)
            idx = self._open(layer)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, ok)
            self._after(layer, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self):
        """Patch every TARGETS function wherever curvefold binds it."""
        import importlib
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "curvefold" or name.startswith("curvefold."))]
        for mod_name, fn_name, layer in TARGETS:
            home = importlib.import_module(f"curvefold.{mod_name}")
            orig = getattr(home, fn_name)
            wrapped = self._wrapper(layer, orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self):
        """Per-layer metrics: self times, call counts, failures, coverage."""
        own = self.self_times()
        names = [s[0] for s in self.spans]
        times = Counter()
        calls = Counter()
        failed = Counter()
        for name, t, span in zip(names, own, self.spans):
            times[name] += t
            calls[name] += 1
            if not span[4]:
                failed[name] += 1
        out = {f"{layer}_s": float(times[layer]) for layer in LAYER_TIMES}
        root_wall = sum(s[2] - s[1] for s in self.spans if s[0] in COVERED_ROOTS)
        root_self = sum(t for name, t in zip(names, own) if name in COVERED_ROOTS)
        out.update({
            "trace.overhead_s": len(self.spans) * self.span_cost(),
            "geometry.search_theta_calls": calls["geometry.search_theta"],
            "kinematics.vertex_solves": calls["kinematics.vertex_solve"],
            "foldsim.propagations": calls["foldsim.propagate"],
            "foldsim.failed_propagations": failed["foldsim.propagate"],
            "foldsim.placements": calls["foldsim.place_panels"],
            "foldsim.search_propagations": self.counts["foldsim.search_propagations"],
            "foldsim.trajectory_propagations":
                self.counts["foldsim.trajectory_propagations"],
            "foldsim.states_per_propagation":
                self.counts["useful_states"] / max(calls["foldsim.propagate"], 1),
            "foldsim.clash_tests": calls["foldsim.clash"],
            "foldio.fold_bytes": self.counts["foldio.fold_bytes"],
            "verify.checks": self.counts["verify.checks"],
            "trace.spans": len(self.spans),
            "trace.layer_share": (root_wall - root_self) / root_wall if root_wall else 0.0,
        })
        return out

    def span_cost(self, calls=20000):
        """Seconds one recorded span adds to a call, measured on a no-op."""
        def noop():
            return None

        traced = self._wrapper("trace.probe", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        del self.spans[-calls:]
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def dump(self):
        return {"columns": ["name", "start", "end", "parent", "ok"],
                "spans": self.spans}


class NullTracer:
    """Stand-in for timed runs: no spans, no patching."""

    def __init__(self):
        self.counts = Counter()

    @contextmanager
    def span(self, name):
        yield
