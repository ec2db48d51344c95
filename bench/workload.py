"""One workload in one process: timed rounds, or one traced round.

    python3 bench/workload.py --workload fig5 --seed 1 --seconds 30 --trace 0
    python3 bench/workload.py --workload fig5 --seed 1 --setup-probe

`run.py` starts this in a fresh interpreter with single-threaded numeric
libraries.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402  (standard library only)

#: `curvefold fold` sweeps to this many states unless told otherwise
FOLD_STATES = 64
#: extra designs per fig5/fig7 round, made both before and after the
#: pipeline so that design_s is a median of samples taken apart in time
DESIGN_REPEATS = 3
#: trajectory states checked besides the halt
CHECKED_STATES = 4


def load_inputs(workload, seed):
    """The workload's design-spec documents, each parsed once to check it."""
    from curvefold.foldio import load_design_spec
    texts = specs.spec_texts(workload, seed)
    for text in texts:
        load_design_spec(text)
    return texts


def setup_probe(workload, seed):
    t0 = time.perf_counter()
    import curvefold  # noqa: F401
    load_inputs(workload, seed)
    print(repr(time.perf_counter() - t0))


class Runner:
    def __init__(self, workload, tracer):
        from curvefold import cli, foldio, foldsim, verify
        import checks
        self.cli, self.foldio, self.foldsim, self.verify = cli, foldio, foldsim, verify
        self.checks = checks
        self.workload = workload
        self.tracer = tracer
        self.times = {"design_s": [], "fold_s": [], "pipeline_s": []}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.correct = True

    # --- program steps, timed -------------------------------------------

    def design(self, text):
        with self.tracer.span("bench.design"):
            kind, fields, theta = self.foldio.load_design_spec(text)
            return self.cli._build_from_spec(kind, fields, theta)

    def write_out(self, pattern, report):
        """What `curvefold design` writes, then the FOLD re-import."""
        f = self.foldio
        with self.tracer.span("bench.io"):
            fold_text = f.export_fold(pattern)
            svg = f.export_svg(pattern)
            f.report_json(report)
            f.report_text(report)
            imported, _ = f.import_fold(fold_text)
        return fold_text, svg, imported

    def sample_motion(self, pattern):
        """Chained propagation from flat at the fixed explore driving values."""
        fs = self.foldsim
        dc = fs.default_driving_crease(pattern)
        sgn = pattern.creases[dc].mv or 1
        states, prev = [], None
        with self.tracer.span("bench.fold"):
            for d in specs.EXPLORE_DRIVING:
                prev = fs.propagate(pattern, sgn * d, prev=prev, driving_crease=dc)
                states.append(prev)
        self.tracer.counts["useful_states"] += len(states)
        return states

    def sweep(self, pattern):
        with self.tracer.span("bench.fold"):
            traj = self.foldsim.sweep_to_halt(pattern, samples=FOLD_STATES)
        self.tracer.counts["useful_states"] += len(traj.states)
        return traj

    # --- operations ------------------------------------------------------

    def op(self, fn, *args):
        from curvefold.errors import CurvefoldError
        self.attempted += 1
        try:
            fn(*args)
        except CurvefoldError as e:
            self.failed += 1
            self.failures.append(f"{type(e).__name__}: {e}")
        except self.checks.CheckFailed as e:
            self.correct = False
            self.failures.append(f"check {e}")

    def design_only(self, text):
        t0 = time.perf_counter()
        pattern, _ = self.design(text)
        self.times["design_s"].append(time.perf_counter() - t0)
        self.checks.developability(pattern)

    def pipeline(self, text):
        figure = self.workload != "explore"
        t0 = time.perf_counter()
        pattern, report = self.design(text)
        t1 = time.perf_counter()
        fold_text, svg, imported = self.write_out(pattern, report)
        t2 = time.perf_counter()
        if figure:
            traj = self.sweep(pattern)
            states, halt = traj.states, traj.halt
        else:
            traj = None
            states = self.sample_motion(pattern)
            halt = states[-1]
        t3 = time.perf_counter()
        with self.tracer.span("bench.verify"):
            results = self.verify.run_pattern_checks(pattern, state=halt, trajectory=traj)
        t4 = time.perf_counter()
        self.times["design_s"].append(t1 - t0)
        self.times["fold_s"].append(t3 - t2)
        self.times["pipeline_s"].append(t4 - t0)
        with self.tracer.span("bench.check"):
            self.check(pattern, fold_text, svg, imported, states, halt, traj, results)

    def f3_near_flat(self):
        """Fault F3: fails with NotRigidFoldable while the fault stands."""
        text = json.dumps(specs.F3_SPEC)
        pattern, _ = self.design(text)
        fs = self.foldsim
        dc = fs.default_driving_crease(pattern)
        fs.propagate(pattern, (pattern.creases[dc].mv or 1) * specs.F3_DRIVING,
                     driving_crease=dc)

    # --- checks made apart from the program ------------------------------

    def check(self, pattern, fold_text, svg, imported, states, halt, traj, results):
        c = self.checks
        f = self.foldio
        c.program_checks(results)
        c.developability(pattern)
        c.svg_lines(svg, pattern)
        c.same_pattern(pattern, imported)
        c.round_trip(fold_text, f.export_fold, f.import_fold)
        c.round_trip(f.export_fold(pattern, state=halt), f.export_fold, f.import_fold)
        ortho = pattern.design.get("type") == "orthodiagonal"
        axes = ("column", "row") if ortho else ("column",)
        step = max(1, (len(states) - 1) // CHECKED_STATES)
        for st in list(states[step::step]) + [halt]:
            c.isometry(pattern, st.vertex_coords)
            c.coplanarity(pattern, st.vertex_coords, axes)
            c.fold_angles(pattern, st)
        if traj is not None:
            c.halting_creases(pattern, halt)
            if not ortho:
                c.driving_halt(traj.driving_values[-1], pattern.design["rho4"])
                c.matches_design_halt(pattern, halt)

    # --- rounds -------------------------------------------------------------

    def round(self, inputs, traced):
        if self.workload == "explore":
            for text in inputs:
                self.op(self.pipeline, text)
            self.op(self.f3_near_flat)
        else:
            text = inputs[0]
            extra = 0 if traced else DESIGN_REPEATS
            for _ in range(extra):
                self.op(self.design_only, text)
            self.op(self.pipeline, text)
            for _ in range(extra):
                self.op(self.design_only, text)

    def timed_round(self, inputs, traced=False):
        """One round; returns the times it added, per metric."""
        before = {k: len(v) for k, v in self.times.items()}
        self.round(inputs, traced)
        return {k: v[before[k]:] for k, v in self.times.items()}


def round_metrics(workload, rounds):
    """fig5, fig7: the median over every sample of the run.  explore: the
    median over rounds of the mean per spec.  A median across the batch's
    specs would be a single sample of one mid-sized spec, and so would carry
    the machine's short-term speed swings whole; the round mean spreads
    them over the whole batch."""
    out = {}
    for k in ("design_s", "fold_s", "pipeline_s"):
        if workload == "explore":
            out[k] = median([statistics.fmean(r[k]) for r in rounds if r[k]])
        else:
            out[k] = median([x for r in rounds for x in r[k]])
    return out


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true")
    p.add_argument("--trace-out", help="write the spans of a traced run here")
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    from spans import NullTracer, Tracer
    inputs = load_inputs(args.workload, args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    runner = Runner(args.workload, tracer)
    if args.trace:
        tracer.install()
        try:
            rounds = [runner.timed_round(inputs, traced=True)]
        finally:
            tracer.uninstall()
        metrics = tracer.summary()
        metrics["trace.pipeline_s"] = round_metrics(args.workload, rounds)["pipeline_s"]
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    else:
        start = time.perf_counter()
        rounds = []
        while True:
            r0 = time.perf_counter()
            rounds.append(runner.timed_round(inputs))
            now = time.perf_counter()
            if now - start + (now - r0) > args.seconds:
                break
        metrics = round_metrics(args.workload, rounds)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"correct": runner.correct,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "failures": runner.failures[:4], "metrics": metrics,
                      "samples": runner.times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
