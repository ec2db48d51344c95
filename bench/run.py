"""curvefold benchmark: one workload, one result line.

    python3 bench/run.py --workload fig5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The set-up time is the median of
several fresh interpreters that import curvefold and load the workload's
inputs; the workload itself then runs in one more fresh interpreter with
single-threaded numeric libraries.  With --trace 1 the workload runs one
traced round and the result carries the per-layer metrics instead.  The
last line of standard output is the result as one JSON object; the full
record, with the interpreter and library versions, goes to bench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402  (standard library only)

RESULTS = HERE / "results"

#: fresh interpreters timed for setup_s, half before and half after the
#: workload, after one untimed warm-up that also writes the byte-code caches
SETUP_PROBES = 6
#: the workload child must end well inside the 180 s a run may take
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20

UNITS = {"setup_s": "s", "design_s": "s", "fold_s": "s", "pipeline_s": "s",
         "peak_rss_mb": "MB"}
END_TO_END = ("setup_s", "design_s", "fold_s", "pipeline_s", "peak_rss_mb")

#: numeric libraries read these when they start; one thread each
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, timeout):
    """Run bench/workload.py in a fresh interpreter; its last stdout line."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def environment():
    import platform
    nproc = subprocess.run(["nproc"], stdout=subprocess.PIPE, text=True).stdout.strip()
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        env=child_env(), stdout=subprocess.PIPE, text=True).stdout.split()
    return {"python": platform.python_version(), "numpy": versions[0],
            "scipy": versions[1], "nproc": nproc}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "curvefold" / "__init__.py").is_file():
        sys.stderr.write(f"no curvefold sources under {ROOT / 'src'}; "
                         "run from the root of a source checkout\n")
        return 2
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def probe():
        return float(run_child(common + ["--setup-probe"], SETUP_TIMEOUT_S))

    setup = []
    if not args.trace:
        probe()
        setup += [probe() for _ in range(SETUP_PROBES // 2)]
    extra = ["--trace-out", str(RESULTS / f"spans-{tag}.json")] if args.trace else []
    child = json.loads(run_child(common + ["--seconds", str(args.seconds),
                                           "--trace", str(args.trace)] + extra,
                                 CHILD_TIMEOUT_S))
    if not args.trace:
        setup += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    raw = child["metrics"]
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(raw.items())
                   if k != "peak_rss_mb"}
    else:
        raw["setup_s"] = statistics.median(setup)
        metrics = {k: {"value": raw[k], "unit": UNITS[k]} for k in END_TO_END}
    result = {"correct": child["correct"], "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_samples": setup, "samples": child["samples"],
              "failures": child["failures"], **result}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"environment": record["environment"], "failures": child["failures"]}))
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("trace.layer_share", "foldsim.states_per_propagation"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
