"""The benchmark in `bench/` reaches into the library by name; this test
fails when a rename would break it."""
import importlib
import importlib.util
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
