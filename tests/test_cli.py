import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import curvefold
from curvefold import cli, foldsim, parallel
from curvefold.cli import _build_from_spec, _check_states, main
from curvefold.errors import CreaseIntersection, SchemaError
from curvefold.foldio import (MAX_COUNT, MAX_GRID, MAX_SAMPLES, MAX_STATES, export_fold,
                              load_design_spec)
from curvefold.foldsim import propagate, sweep_to_halt
from curvefold.geometry import partition_uniform, search_theta
from curvefold.kinematics import solve_first_vertex
from support import FUZZ_SPECS, JSON
from test_acceptance import _random_smooth_datum, _random_target

SMALL_PARALLEL_SPEC = {
    "type": "parallel-repeating",
    "datum": {"builtin": "fig4-spiralish", "samples_n": 129},
    "target": {"builtin": "fig5-exp", "samples_n": 129},
    "n_row": 3, "n_col": 2,
    "rho4": 5 * np.pi / 6,
    "theta": float(np.deg2rad(73)),
    "eps": 1.0,
}


SMALL_ORTHO_SPEC = {
    "type": "orthodiagonal",
    "datum": {"builtin": "fig7-sine"},
    "target": {"builtin": "fig7-tlnt"},
    "n": 3, "m": 3,
    "theta": float(np.deg2rad(30)),
    "eps": 0.2,
}

#: (id, base spec, fields replaced) -> SchemaError
BAD_SPECS = [
    ("phase", SMALL_PARALLEL_SPEC, {"phase": "z"}),
    ("output", SMALL_PARALLEL_SPEC, {"output": "out"}),
    ("n_row-0", SMALL_PARALLEL_SPEC, {"n_row": 0}),
    ("n_col-0", SMALL_PARALLEL_SPEC, {"n_col": 0}),
    ("n-0", SMALL_ORTHO_SPEC, {"n": 0}),
    ("m-0", SMALL_ORTHO_SPEC, {"m": 0}),
    ("n_row-string", SMALL_PARALLEL_SPEC, {"n_row": "a"}),
    ("rho4-above-pi", SMALL_PARALLEL_SPEC, {"rho4": 4.0}),
    ("eps-negative", SMALL_PARALLEL_SPEC, {"eps": -1}),
    ("eps-string", SMALL_PARALLEL_SPEC, {"eps": "x"}),
    ("eps-0", SMALL_ORTHO_SPEC, {"eps": 0}),
    ("tube_eps-negative", SMALL_ORTHO_SPEC, {"tube_eps": -1}),
    ("samples_n-1", SMALL_PARALLEL_SPEC, {"datum": {"builtin": "fig4-spiralish",
                                                    "samples_n": 1}}),
    ("samples_n-above", SMALL_PARALLEL_SPEC, {"datum": {"builtin": "fig4-spiralish",
                                                        "samples_n": MAX_SAMPLES + 1}}),
    ("n_col-above", SMALL_PARALLEL_SPEC, {"n_col": MAX_COUNT + 1}),
    ("m-above", SMALL_ORTHO_SPEC, {"m": MAX_COUNT + 1}),
    ("equal-samples", SMALL_ORTHO_SPEC, {"datum": {"samples": [[0, 0], [0, 0], [1, 1]]}}),
    ("nan-sample", SMALL_ORTHO_SPEC, {"datum": {"samples": [[0, 0], [1, float("nan")],
                                                            [2, 0], [3, 1]]}}),
    ("target-3d", SMALL_PARALLEL_SPEC, {"target": {"builtin": "fig4-spiralish"}}),
    ("scale-string", SMALL_PARALLEL_SPEC, {"target": {"builtin": "fig5-exp",
                                                      "scale": "a"}}),
]

#: (id, base spec, command-line overrides) -> SchemaError
BAD_OVERRIDES = [
    ("flag-n-0", SMALL_PARALLEL_SPEC, ["--n", "0"]),
    ("flag-ortho-n-0", SMALL_ORTHO_SPEC, ["--n", "0"]),
    ("flag-eps-negative", SMALL_PARALLEL_SPEC, ["--eps", "-1"]),
    ("flag-eps-nan", SMALL_ORTHO_SPEC, ["--eps", "nan"]),
    ("flag-rho4-above-pi", SMALL_PARALLEL_SPEC, ["--rho4", "4"]),
    ("flag-alpha11-nan", SMALL_ORTHO_SPEC, ["--alpha11", "nan"]),
    ("flag-theta-inf", SMALL_PARALLEL_SPEC, ["--theta", "inf"]),
]
#: a datum whose uniform partition of 3 points repeats a point
REPEATED_POINT = {"samples": [[0, 0], [1, 0], [0, 0], [1, 0], [0, 0]]}
MALFORMED = ([(i, base, fields, []) for i, base, fields in BAD_SPECS]
             + [(i, base, {}, flags) for i, base, flags in BAD_OVERRIDES])


class TestInputLimits:
    """Each upper limit of a spec holds at its value and fails one past
    it, before the pattern is built."""

    def test_samples_n(self):
        for key in ("datum", "target"):
            curve = dict(SMALL_PARALLEL_SPEC[key], samples_n=MAX_SAMPLES)
            _, fields, _ = load_design_spec(json.dumps(dict(SMALL_PARALLEL_SPEC, **{key: curve})))
            assert len(fields[key].samples) == MAX_SAMPLES
            curve["samples_n"] += 1
            with pytest.raises(SchemaError, match=f"{key} curve samples_n must be .*{MAX_SAMPLES}"):
                load_design_spec(json.dumps(dict(SMALL_PARALLEL_SPEC, **{key: curve})))

    @pytest.mark.parametrize("base, key", [(SMALL_PARALLEL_SPEC, "n_row"),
                                           (SMALL_PARALLEL_SPEC, "n_col"),
                                           (SMALL_ORTHO_SPEC, "n"), (SMALL_ORTHO_SPEC, "m")])
    def test_grid_counts(self, base, key):
        assert load_design_spec(json.dumps(dict(base, **{key: MAX_COUNT})))[1][key] == MAX_COUNT
        with pytest.raises(SchemaError, match=f"{key} must be an integer in \\[1, {MAX_COUNT}\\]"):
            load_design_spec(json.dumps(dict(base, **{key: MAX_COUNT + 1})))

    def test_admissible_grid(self, monkeypatch, capsys):
        # the scan itself is stubbed: the limit is checked before any theta
        # is allocated, and holds at its value
        grids = []
        monkeypatch.setattr(cli, "search_theta", lambda f, xi, grid: grids.append(grid) or [])
        argv = ["admissible", "fig5-exp", "--xi", "0.3", "--grid"]
        assert main(argv + [str(MAX_GRID)]) == 0 and grids == [MAX_GRID]
        capsys.readouterr()
        assert main(argv + [str(MAX_GRID + 1)]) == 1 and grids == [MAX_GRID]
        assert capsys.readouterr().err == f"error: --grid must be at most {MAX_GRID}\n"


def write_spec(tmp_path, doc):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    return p


class TestDesign:
    def test_design_outputs(self, tmp_path):
        spec = write_spec(tmp_path, SMALL_PARALLEL_SPEC)
        out = tmp_path / "out"
        assert main(["design", str(spec), "--out", str(out)]) == 0
        for name in ("pattern.fold", "pattern.svg", "report.json", "report.txt"):
            assert (out / name).exists()

    def test_invalid_spec_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"type": "parallel-repeating", "bogus": 1}))
        assert main(["design", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_builtin_curve_exit_1(self, tmp_path, capsys):
        doc = dict(SMALL_PARALLEL_SPEC, datum={"builtin": "nope"})
        spec = write_spec(tmp_path, doc)
        assert main(["design", str(spec), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown builtin curve 'nope'")

    def test_design_failure_exit_2(self, tmp_path, capsys):
        doc = dict(SMALL_PARALLEL_SPEC)
        doc["theta"] = 0.0  # not admissible for the exp target
        spec = write_spec(tmp_path, doc)
        assert main(["design", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "NotAdmissible" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, point", [
        (dict(SMALL_PARALLEL_SPEC, datum=REPEATED_POINT, n_row=1, n_col=2, theta=1.274,
              rho4=2.6), 1),
        (dict(SMALL_ORTHO_SPEC, datum=REPEATED_POINT, n=1, m=2), 2),
    ], ids=["parallel", "orthodiagonal"])
    def test_repeated_datum_point_exit_2(self, doc, point, tmp_path, capsys):
        # the datum's uniform partition lands on (0, 0) three times: a
        # segment (parallel) or a tube chord (orthodiagonal) has no direction
        assert main(["design", str(write_spec(tmp_path, doc)), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"DegenerateTurn: partition point {point} repeats point 0 at (0.0, 0.0): "
            "the curve passes through it twice\n")

    @pytest.mark.parametrize("base,fields,flags", [c[1:] for c in MALFORMED],
                             ids=[c[0] for c in MALFORMED])
    def test_malformed_spec_exit_1(self, base, fields, flags, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(base, **fields))
        assert main(["design", str(spec), "--out", str(tmp_path / "o"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_overrides_apply(self, tmp_path):
        spec = write_spec(tmp_path, SMALL_PARALLEL_SPEC)
        out = tmp_path / "o"
        assert main(["design", str(spec), "--out", str(out), "--n", "2", "--eps", "0.9"]) == 0
        assert json.loads((out / "report.json").read_text())["eps_target"] == 0.9
        assert json.loads((out / "pattern.fold").read_text())["curvefold:grid"]["cols"] == 2

    def test_large_ortho_design(self, tmp_path):
        # 34 x 34 = 1156 inner vertices, more than the default recursion limit
        spec = write_spec(tmp_path, {
            "type": "orthodiagonal",
            "datum": {"builtin": "fig7-sine"}, "target": {"builtin": "fig7-tlnt"},
            "n": 34, "m": 34, "theta": "auto", "eps": 0.2})
        assert main(["design", str(spec), "--out", str(tmp_path / "o")]) == 0

    def test_determinism(self, tmp_path):
        spec = write_spec(tmp_path, SMALL_PARALLEL_SPEC)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["design", str(spec), "--out", str(out)])
            outs.append((out / "pattern.fold").read_bytes()
                        + (out / "pattern.svg").read_bytes()
                        + (out / "report.json").read_bytes())
        assert outs[0] == outs[1]


def _mixed_winding_pattern(monkeypatch):
    """The third spec of test_criterion_05's stream, which draws faces that
    wind against their neighbours; the designer rejects the layout in
    check_embeddable, so it is built here with that check off."""
    rng = np.random.default_rng(20260808)
    for _ in range(3):
        datum, target = _random_smooth_datum(rng), _random_target(rng)
        n_row, n_col = int(rng.integers(3, 6)), int(rng.integers(3, 5))
        rho4 = rng.uniform(0.65, 0.9) * np.pi
    _, a2 = solve_first_vertex(partition_uniform(datum, n_row).turn_angles[0], rho4)
    theta = search_theta(target, abs(2 * a2 - np.pi), grid=90)[0]
    monkeypatch.setattr(parallel, "check_embeddable", lambda pattern: True)
    pattern, _ = parallel.build_pattern(parallel.ParallelDesignSpec(
        datum=datum, target=target, n_row=n_row, n_col=n_col, rho4=rho4, theta=theta,
        eps=10.0))
    with pytest.raises(CreaseIntersection, match="faces wind against their neighbours"):
        foldsim.placement_order(pattern)
    return pattern


class TestFoldVerify:
    @pytest.fixture(scope="class")
    def designed(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli")
        spec = write_spec(tmp, SMALL_PARALLEL_SPEC)
        out = tmp / "out"
        main(["design", str(spec), "--out", str(out)])
        return out

    def test_fold(self, designed, tmp_path, capsys):
        rc = main(["fold", str(designed / "pattern.fold"), "--out", str(tmp_path),
                   "--states", "4", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["halt_reason"] == "crease-at-pi"
        assert (tmp_path / "halt.fold").exists()
        assert abs(payload["driving_halt"] - 5 * np.pi / 6) < 1e-5

    def test_verify_pass(self, designed, capsys):
        rc = main(["verify", str(designed / "pattern.fold"), "--states", "3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["passed"]

    def test_verify_corrupted_fails(self, designed, tmp_path, capsys):
        doc = json.loads((designed / "pattern.fold").read_text())
        doc["vertices_coords"][7][0] += 0.05
        bad = tmp_path / "bad.fold"
        bad.write_text(json.dumps(doc))
        rc = main(["verify", str(bad), "--states", "3"])
        assert rc == 2

    def test_verify_folded_state(self, designed, tmp_path, capsys):
        assert main(["fold", str(designed / "pattern.fold"), "--out", str(tmp_path),
                     "--states", "4"]) == 0
        halt = tmp_path / "halt.fold"
        capsys.readouterr()
        assert main(["verify", str(halt)]) == 0
        checks = {c["check_id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["closure"]["residual"] < 1e-9
        # one column crease bent by 0.01 degrees no longer closes
        doc = json.loads(halt.read_text())
        idx = doc["curvefold:roles"].index("column-crease")
        doc["edges_foldAngle"][idx] += 0.01
        bad = tmp_path / "bad.fold"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == 2
        checks = {c["check_id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not checks["closure"]["ok"]

    def test_verify_malformed_design_exit_1(self, designed, tmp_path):
        # a design value the checks read, wrong in type, ends in the
        # error line of a schema failure, not in a traceback
        doc = json.loads((designed / "pattern.fold").read_text())
        doc["curvefold:design"]["xi"] = "abc"
        bad = tmp_path / "bad.fold"
        bad.write_text(json.dumps(doc))
        src = str(Path(curvefold.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "curvefold.cli", "verify", str(bad)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 1
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr

    def test_mixed_winding_document_exit_1(self, tmp_path, monkeypatch, capsys):
        pattern = _mixed_winding_pattern(monkeypatch)
        doc = tmp_path / "mixed.fold"
        doc.write_text(export_fold(pattern))
        capsys.readouterr()
        for argv in (["fold", str(doc), "--out", str(tmp_path / "out")], ["verify", str(doc)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_mixed_winding_layout_folds_to_typed_error(self, monkeypatch):
        # a library caller folding the same layout gets the typed error, not
        # an index error from the placement tables, and gets it before any
        # fold: past the placement the fold at -0.1 raises NotRigidFoldable
        # (a loop mismatch of 1.31 rad), and a lane pass drops that lane
        pattern = _mixed_winding_pattern(monkeypatch)
        E = len(pattern.creases)
        for fold in (lambda: propagate(pattern, 0.1), lambda: propagate(pattern, -0.1),
                     lambda: foldsim._fold_lanes(pattern, np.array([0.1, -0.1]),
                                                 np.zeros((2, E))),
                     lambda: sweep_to_halt(pattern)):
            with pytest.raises(CreaseIntersection, match="faces wind against their neighbours"):
                fold()

    @pytest.mark.parametrize("states", ["1", "0", "-3"])
    @pytest.mark.parametrize("cmd", ["fold", "verify"])
    def test_states_below_two_exit_1(self, designed, cmd, states, tmp_path, capsys):
        argv = [cmd, str(designed / "pattern.fold"), "--states", states]
        if cmd == "fold":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --states must be at least 2\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["fold", "verify"])
    def test_states_above_limit_exit_1(self, cmd, tmp_path, capsys):
        # the limit is checked before the document is read
        argv = [cmd, str(tmp_path / "missing.fold"), "--states", str(MAX_STATES + 1)]
        if cmd == "fold":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --states must be at most {MAX_STATES}\n"
        assert not (tmp_path / "out").exists()
        _check_states(MAX_STATES)

    def test_export_roundtrip(self, designed, tmp_path):
        rc = main(["export", str(designed / "pattern.fold"), "--out", str(tmp_path),
                   "--format", "fold"])
        assert rc == 0
        assert (tmp_path / "pattern.fold").read_text() == \
            (designed / "pattern.fold").read_text()


class TestAdmissible:
    def test_fig3_contains_70(self, capsys):
        rc = main(["admissible", "fig3-parabola", "--xi", str(np.deg2rad(60)),
                   "--grid", "360", "--format", "json"])
        assert rc == 0
        hits = json.loads(capsys.readouterr().out)["theta"]
        assert any(abs(t - np.deg2rad(70)) <= 2 * np.pi / 360 for t in hits)

    def test_line_contains_zero(self, tmp_path, capsys):
        f = tmp_path / "line.json"
        t = np.linspace(0, 1, 32)
        f.write_text(json.dumps({"samples": np.stack([t, -t], axis=1).tolist()}))
        rc = main(["admissible", str(f), "--xi", str(np.pi / 2), "--grid", "4"])
        assert rc == 0
        assert "0" in capsys.readouterr().out

    @pytest.mark.parametrize("doc,flags", [
        ({"param": [0, 1]}, []),
        ({"samples": [[0, 0], [1, -1]]}, ["--xi", "0"]),
        ({"samples": [[0, 0], [1, -1]]}, ["--grid", "0"]),
        ({"samples": [[0, 0, 0], [1, -1, 1]]}, []),
        ([[0, 0], [1, -1]], []),
    ], ids=["no-samples", "xi-0", "grid-0", "space-curve", "not-an-object"])
    def test_bad_input_exit_1(self, doc, flags, tmp_path, capsys):
        f = tmp_path / "curve.json"
        f.write_text(json.dumps(doc))
        argv = ["admissible", str(f), "--xi", "1.0", *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_circle_exit_2(self, tmp_path, capsys):
        f = tmp_path / "circle.json"
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        f.write_text(json.dumps({"samples": np.stack([np.cos(t), np.sin(t)], axis=1).tolist(),
                                 "closed": True}))
        rc = main(["admissible", str(f), "--xi", str(np.pi / 2)])
        assert rc == 2
        assert "ClosedCurve" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["fold", "missing.fold"], ["design", "missing.json"],
                                  ["verify", "."]],
                         ids=["fold-missing", "design-missing", "verify-directory"])
def test_unreadable_input_exit_1(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {argv[1]}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["demo", "fig9"], ["fold", "p.fold", "--states", "x"], []],
                         ids=["unknown-demo", "states-not-int", "no-command"])
def test_usage_error_exit_1(argv, capsys):
    # exit code 2 is a failed design or verification, not a typo
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: curvefold") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["fold", "--help"]])
def test_help_exit_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: curvefold")


@pytest.mark.parametrize("cmd", ["design", "fold", "export", "demo"])
def test_unwritable_output_exit_1(cmd, tmp_path, capsys):
    # --out below a regular file cannot be made: one error line, exit 1
    spec = write_spec(tmp_path, SMALL_PARALLEL_SPEC)
    assert main(["design", str(spec), "--out", str(tmp_path / "d")]) == 0
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    argv = {"design": ["design", str(spec)],
            "fold": ["fold", str(tmp_path / "d" / "pattern.fold"), "--states", "2"],
            "export": ["export", str(tmp_path / "d" / "pattern.fold")],
            "demo": ["demo", "fig4"]}[cmd]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
    assert "Not a directory" in err


#: sha256 of every file `demo <fig> --out D` and `fold D/pattern.fold
#: --states 64 --out D` write.  Pinned under Python 3.11 with numpy 2.4: the
#: folds go through libm's tan and atan2, and another libm or numpy may round
#: a last bit otherwise
GOLDEN = {
    "fig5": {
        "halt.fold":
            "c29339e137334a24fbf6e6752741a4439c6acd8b50fdc3a51b70c65d6d1ccec7",
        "halt.json":
            "edbc0ef36c7e48304bf2163a3d2b366ed063f839f10ebdbe892425be5b0c29b4",
        "pattern.fold":
            "aa5341d61dac8f7583e9742e399e409760b2b97f99453e82cdb4a38109b5f339",
        "pattern.svg":
            "217ac1e1bf3c6f86cf91b3222e5a09d15904f22b6bd565bc0b454b6ab02ec5ae",
        "report.json":
            "9f6b7233867f42423ccef76448933fa3e0c9ee9d39d0d474047505dfae377c4b",
        "report.txt":
            "1be6c6bebe05d58364cd3e05d8ffa0a13603c909520d4542ada5752c86e048f5",
        "spec.json":
            "846904f242d820c1126f5c37d675c6e73600df339965e2b8ae446aabbadd8124",
    },
    "fig7": {
        "halt.fold":
            "c8e8cb540a1b0df08aa9040511951e240647edc1505f02c4239bf8ab711b605d",
        "halt.json":
            "44488f6eb41106e11004d9655d20876dc430297dbcd2d669f7f6b4b6b07366b3",
        "pattern.fold":
            "008d38685afaa75845ffda67c8772959a33b0f4a95e2a9618ba073c8cbebcec6",
        "pattern.svg":
            "63507aa5028cb47ca18712913569e37b9c4d9765ddf150cc3a243fa5150cfd77",
        "report.json":
            "5c30c4d239f07f01da6c5c9f18dc139bcb327fedd77817afcf867ab6ba78a0ef",
        "report.txt":
            "a1fe0e1b84353407309a988166ea5f81f75e65506a2ad5ccdd4c366214617601",
        "spec.json":
            "3b414d249d33adc0075bf133839422dd42575bf443ddc675df25aefc0a4c160b",
    },
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11) or not np.__version__.startswith("2.4."),
                    reason="digests pinned under Python 3.11 with numpy 2.4")
@pytest.mark.parametrize("fig", sorted(GOLDEN))
def test_demo_and_fold_bytes(fig, tmp_path, capsys):
    assert main(["demo", fig, "--out", str(tmp_path)]) == 0
    assert main(["fold", str(tmp_path / "pattern.fold"), "--states", "64",
                 "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == GOLDEN[fig]


class TestDemo:
    def test_fig4_demo(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "fig4", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["design_type"] == "parallel-repeating"

    def test_fig5_without_scipy(self, tmp_path):
        # numpy is the one runtime dependency: designing and sweeping fig5
        # in a fresh interpreter loads no scipy module
        code = ("import sys\n"
                "from curvefold.cli import main\n"
                f"out = {str(tmp_path)!r}\n"
                "assert main(['demo', 'fig5', '--out', out]) == 0\n"
                "assert main(['fold', out + '/pattern.fold', '--states', '2', '--out', out]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(curvefold.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"


#: specs that design, fold and verify in well under a second
CLI_FUZZ_SPECS = [
    FUZZ_SPECS[0],
    {"type": "orthodiagonal", "datum": {"builtin": "fig7-sine", "samples_n": 33},
     "target": {"builtin": "fig7-tlnt", "samples_n": 33}, "n": 3, "m": 4,
     "theta": 0.5236, "eps": 0.2},
]
#: halting_col values of a FOLD grid, None for none: only 1 imports
HALTING_COLS = [None, None, 1, 1, 2, 0, "1", True]
#: the spec fields and the FOLD fields mutated, None (no mutation) about
#: half the time
SPEC_KEYS = [None] * 8 + ["n_row", "n_col", "n", "m", "rho4", "theta", "eps", "alpha11",
                          "phase", "datum", "target"]
FOLD_KEYS = [None] * 6 + [("curvefold:design", "xi"), ("curvefold:design", "grid_alpha"),
                          ("curvefold:design", "type"), ("curvefold:grid", "rows"),
                          ("curvefold:grid", "ext_id"), ("edges_assignment",),
                          ("edges_foldAngle",)]


@lru_cache(maxsize=None)
def _base_fold(k):
    """The FOLD export of CLI_FUZZ_SPECS[k]."""
    spec = json.dumps(CLI_FUZZ_SPECS[k])
    return export_fold(_build_from_spec(*load_design_spec(spec))[0])


def _exit_code(argv):
    """main(argv), its exit code 0, 1 or 2 and nothing on stderr that reads
    as a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    return code


class TestFuzz:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(k=hs.sampled_from(range(len(CLI_FUZZ_SPECS))), spec_key=hs.sampled_from(SPEC_KEYS),
           spec_value=JSON, halting=hs.sampled_from(HALTING_COLS),
           fold_key=hs.sampled_from(FOLD_KEYS), fold_value=JSON)
    def test_every_command_exits_0_1_or_2(self, k, spec_key, spec_value, halting, fold_key,
                                          fold_value):
        # a mutated spec goes through `design`; its FOLD output, or the
        # base's where it does not design, goes through `fold`, `verify`
        # and `export` with a halting_col and one more value mutated
        with tempfile.TemporaryDirectory() as tmp:
            doc = copy.deepcopy(CLI_FUZZ_SPECS[k])
            if spec_key is not None:
                doc[spec_key] = spec_value
            spec = Path(tmp, "spec.json")
            spec.write_text(json.dumps(doc))
            designed = Path(tmp, "d", "pattern.fold")
            if _exit_code(["design", str(spec), "--out", str(designed.parent)]) == 0:
                fold = json.loads(designed.read_text())
            else:
                fold = json.loads(_base_fold(k))
            fold["curvefold:grid"].pop("halting_col")
            if halting is not None:
                fold["curvefold:grid"]["halting_col"] = halting
            if fold_key is not None:
                *outer, inner = fold_key
                (fold[outer[0]] if outer else fold)[inner] = fold_value
            path = Path(tmp, "pattern.fold")
            path.write_text(json.dumps(fold))
            codes = [_exit_code(["fold", str(path), "--states", "8", "--out", f"{tmp}/f"]),
                     _exit_code(["verify", str(path)]),
                     _exit_code(["export", str(path), "--out", f"{tmp}/e"])]
            if not (halting is None or (type(halting) is int and halting == 1)):
                assert codes == [1, 1, 1]
            elif fold_key is None:
                assert codes[2] == 0
