"""The benchmark in `bench/` reaches into the library by name and by
keyword; these tests fail when a rename or a removed setting would break
it."""
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_names_resolve_and_selftest_passes():
    # a traced name that does not resolve stops every `--trace 1` run
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{fn}" for mod, fn, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"curvefold.{mod}"), fn, None))]
    assert not missing, missing
    run = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


def test_bench_tolerance_keys_resolve():
    # bench/checks.py reads its bounds from verify.TOLERANCES by key
    from curvefold.verify import TOLERANCES
    keys = set(re.findall(r'TOLERANCES\["(\w+)"\]', (BENCH / "checks.py").read_text()))
    assert keys >= {"developability", "isometry", "coplanarity"}
    assert all(isinstance(TOLERANCES[k], float) for k in keys)


def test_library_takes_the_keywords_of_the_timed_runs():
    # the calls of bench/workload.py's timed runs, keywords as it passes
    # them: a keyword the library no longer takes stops every run
    from curvefold import foldio, foldsim, verify
    pattern, state = object(), object()
    calls = [(foldsim.propagate, (pattern, 0.1), {"prev": state, "driving_crease": 0}),
             (foldsim.sweep_to_halt, (pattern,), {"samples": 64}),
             (foldio.export_fold, (pattern,), {"state": state}),
             (verify.run_pattern_checks, (pattern,), {"state": state, "trajectory": None})]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
