"""The benchmark in `bench/` reaches into the library by name and by
keyword; these tests fail when a rename or a removed setting would break
it."""
import copy
import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_names_resolve_and_selftest_passes():
    # a traced name that does not resolve stops every `--trace 1` run
    spans = _bench_module("spans")
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


@pytest.mark.parametrize("fig", ["fig5", "fig7"])
def test_bench_crease_reads(fig):
    # the crease reads of bench/workload.py's runs and of bench/checks.py,
    # made as they make them, on the designed and the FOLD-re-imported
    # pattern: one crease's fields, iteration and a deepcopy's write
    from curvefold import cli, foldio, foldsim
    checks = _bench_module("checks")
    kind, fields, theta = foldio.load_design_spec(json.dumps(cli.DEMOS[fig]))
    designed, _ = cli._build_from_spec(kind, fields, theta)
    imported, _ = foldio.import_fold(foldio.export_fold(designed))
    for pattern in (designed, imported):
        dc = foldsim.default_driving_crease(pattern)
        sgn = pattern.creases[dc].mv or 1
        assert sgn == pattern.creases.mv[dc] in (-1, 1)
        prev = None
        for d in (0.1, 0.15):
            prev = foldsim.propagate(pattern, sgn * d, prev=prev, driving_crease=dc)
        assert np.sign(prev.rho[dc]) == sgn
        index = checks.crease_index(pattern)
        assert index == {(min(u, v), max(u, v)): i
                         for i, (u, v) in enumerate(pattern.crease_ends().tolist())}
    assert [(c.u, c.v, c.mv) for c in designed.creases] == \
        [(c.u, c.v, c.mv) for c in imported.creases]
    checks.same_pattern(designed, imported)
    mv = imported.creases.mv.copy()
    flipped = copy.deepcopy(imported)
    flipped.creases[dc].mv *= -1
    assert flipped.creases.mv[dc] == -mv[dc]
    assert np.array_equal(imported.creases.mv, mv)
    with pytest.raises(checks.CheckFailed, match="fold-io"):
        checks.same_pattern(designed, flipped)
