import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as hs

import grid_oracle
from curvefold import curves
from curvefold.cli import _build_from_spec, main
from curvefold.errors import CurvefoldError, NotQuadGrid, SchemaError
from curvefold.foldio import (export_fold, export_svg, import_fold,
                              load_design_spec, report_json, report_text)
from curvefold.foldsim import sweep_to_halt
from curvefold.geometry import AffineParams, staircase
from curvefold.verify import CheckResult, run_pattern_checks
from support import FUZZ_SPECS, JSON, SMALL_SPECS, assert_same, bare_document, scrambled


class TestFoldRoundTrip:
    def test_pattern_byte_identical(self, fig5_design):
        pattern, _ = fig5_design
        t1 = export_fold(pattern)
        pat2, st = import_fold(t1)
        assert st is None
        t2 = export_fold(pat2)
        assert t1 == t2

    def test_ortho_pattern_byte_identical(self, fig7_design):
        pattern, _ = fig7_design
        t1 = export_fold(pattern)
        pat2, _ = import_fold(t1)
        assert t1 == export_fold(pat2)

    def test_state_roundtrip(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        halt = fig5_halt.halt
        t1 = export_fold(pattern, state=halt)
        pat2, st2 = import_fold(t1)
        assert st2 is not None
        assert np.abs(st2.vertex_coords - halt.vertex_coords).max() < 1e-11
        t2 = export_fold(pat2, state=st2)
        assert t1 == t2

    @pytest.mark.parametrize("design", ["fig5_design", "fig7_design"])
    def test_shuffled_edge_order_keeps_grid_index(self, design, request):
        pattern, _ = request.getfixturevalue(design)
        doc = json.loads(export_fold(pattern))
        perm = np.random.default_rng(3).permutation(len(pattern.creases))
        for key in ("edges_vertices", "edges_assignment", "edges_foldAngle",
                    "curvefold:roles"):
            doc[key] = [doc[key][i] for i in perm]
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        pat2, _ = import_fold(text)

        def ends(pat, idx):
            return {pat.creases[idx].u, pat.creases[idx].v}

        for a, b in zip(pattern.vertex_creases.ravel(), pat2.vertex_creases.ravel()):
            assert ends(pattern, a) == ends(pat2, b)
        # crease k of the re-import is crease perm[k] of the original
        assert np.array_equal(pat2.crease_faces, pattern.crease_faces[perm])
        assert export_fold(pat2) == text

    @pytest.mark.parametrize("design", ["fig5_design", "fig7_design"])
    def test_relabelled_vertices_round_trip(self, design, request):
        pattern, _ = request.getfixturevalue(design)
        original = export_fold(pattern)
        pat1, _ = import_fold(original)
        doc = json.loads(original)
        perm = np.random.default_rng(5).permutation(len(pattern.vertices))

        def relabel(ids):
            return perm[np.asarray(ids)].tolist()

        coords = np.empty((len(perm), 2))
        coords[perm] = doc["vertices_coords"]
        doc["vertices_coords"] = coords.tolist()
        doc["edges_vertices"] = relabel(doc["edges_vertices"])
        doc["faces_vertices"] = relabel(doc["faces_vertices"])
        doc["curvefold:grid"]["ext_id"] = relabel(doc["curvefold:grid"]["ext_id"])
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        pat2, _ = import_fold(text)
        assert export_fold(pat2) == text
        for attr in ("sectors", "vertex_creases", "crease_faces"):
            assert np.array_equal(getattr(pat2, attr), getattr(pat1, attr)), attr

    @pytest.mark.parametrize("design", ["fig5_design", "fig7_design"])
    def test_edge_order_keeps_folded_bits(self, design, request):
        # the placement order follows the grid, not the document's edge order
        from curvefold.foldsim import propagate
        pattern, _ = request.getfixturevalue(design)
        text = export_fold(pattern)
        want = propagate(import_fold(text)[0], 0.5).vertex_coords
        doc = json.loads(text)
        perm = np.random.default_rng(3).permutation(len(pattern.creases))
        for key in ("edges_vertices", "edges_assignment", "edges_foldAngle",
                    "curvefold:roles"):
            doc[key] = [doc[key][i] for i in perm]
        shuffled = propagate(import_fold(json.dumps(doc))[0], 0.5).vertex_coords
        assert np.array_equal(shuffled, want)
        # and with the vertices relabelled as well
        relabel = np.random.default_rng(5).permutation(len(pattern.vertices))
        coords = np.empty((len(relabel), 2))
        coords[relabel] = doc["vertices_coords"]
        doc["vertices_coords"] = coords.tolist()
        for key in ("edges_vertices", "faces_vertices"):
            doc[key] = relabel[np.asarray(doc[key])].tolist()
        doc["curvefold:grid"]["ext_id"] = relabel[np.asarray(doc["curvefold:grid"]["ext_id"])].tolist()
        relabelled = propagate(import_fold(json.dumps(doc))[0], 0.5).vertex_coords
        assert np.array_equal(relabelled[relabel], want)

    def test_flat_state_zero_angles(self, small_parallel):
        pattern, _ = small_parallel
        from curvefold.foldsim import propagate
        doc = json.loads(export_fold(pattern, state=propagate(pattern, 0.0)))
        assert max(abs(a) for a in doc["edges_foldAngle"]) < 1e-12

    def test_halt_fold_angles_reach_180(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        doc = json.loads(export_fold(pattern, state=fig5_halt.halt))
        stubs = pattern.row_creases[1:pattern.rows + 1, 0].tolist()
        for idx in stubs:
            assert abs(abs(doc["edges_foldAngle"][idx]) - 180.0) < 1e-3

    def test_fold_keys_present(self, small_parallel):
        pattern, _ = small_parallel
        doc = json.loads(export_fold(pattern))
        for key in ("file_spec", "vertices_coords", "edges_vertices",
                    "edges_assignment", "edges_foldAngle", "faces_vertices"):
            assert key in doc
        assert doc["file_spec"] == 1.1
        assert set(doc["edges_assignment"]) <= {"M", "V", "B"}

    def test_grid_inference_without_custom_fields(self, small_parallel):
        pattern, _ = small_parallel
        doc = json.loads(export_fold(pattern))
        for key in list(doc):
            if key.startswith("curvefold:"):
                del doc[key]
        pat2, _ = import_fold(json.dumps(doc))
        assert pat2.rows * pat2.cols == pattern.rows * pattern.cols
        assert len(pat2.creases) == len(pattern.creases)

    def test_triangle_faces_rejected(self):
        doc = {
            "vertices_coords": [[0, 0], [1, 0], [0, 1]],
            "edges_vertices": [[0, 1], [1, 2], [2, 0]],
            "faces_vertices": [[0, 1, 2]],
        }
        with pytest.raises(NotQuadGrid):
            import_fold(json.dumps(doc))

    def test_bad_json_rejected(self):
        with pytest.raises(SchemaError):
            import_fold("not json {")

    def test_corrupted_geometry_caught_downstream(self, small_parallel):
        # moving a vertex keeps the angle sums at 2*pi (any planar star
        # does), so the corruption surfaces as a rigidity failure instead
        pattern, _ = small_parallel
        doc = json.loads(export_fold(pattern))
        doc["vertices_coords"][pattern.ext_id[1, 1]][0] += 0.1
        pat2, _ = import_fold(json.dumps(doc))
        from curvefold.errors import NotRigidFoldable, OutOfRange
        from curvefold.foldsim import propagate
        with pytest.raises((NotRigidFoldable, OutOfRange)):
            propagate(pat2, 0.5)


def _drop_key(d, key):
    del d[key]


def _one_short(rows):
    del rows[-1]


def _first_edge(d, a, b):
    """Point the first edge from grid node a to grid node b."""
    ext = d["curvefold:grid"]["ext_id"]
    d["edges_vertices"][0] = [ext[a[0]][a[1]], ext[b[0]][b[1]]]


#: (id, edit of a fig7 FOLD document, folded frame) -> SchemaError
FOLD_CORRUPTIONS = [
    ("rows-disagree", lambda d: d["curvefold:grid"].update(rows=12), False),
    ("ext-id-out-of-range",
     lambda d: d["curvefold:grid"]["ext_id"][1].__setitem__(1, 10 ** 6), False),
    ("ext-id-row-dropped", lambda d: _one_short(d["curvefold:grid"]["ext_id"]), False),
    ("ext-id-ragged", lambda d: _one_short(d["curvefold:grid"]["ext_id"][1]), False),
    ("grid-without-ext-id", lambda d: _drop_key(d["curvefold:grid"], "ext_id"), False),
    ("grid-int", lambda d: d.update({"curvefold:grid": 3}), False),
    ("coordinate-1d", lambda d: d["vertices_coords"].__setitem__(0, [0.0]), False),
    ("coordinate-string", lambda d: d["vertices_coords"][0].__setitem__(0, "a"), False),
    ("edge-one-vertex", lambda d: _one_short(d["edges_vertices"][0]), False),
    ("edge-diagonal", lambda d: _first_edge(d, (1, 1), (2, 2)), False),
    ("edge-across-rows", lambda d: _first_edge(d, (1, -1), (2, 0)), False),
    ("edge-loop", lambda d: _first_edge(d, (1, 1), (1, 1)), False),
    ("edge-twice", lambda d: _first_edge(d, (1, 1), (1, 2)), False),
    ("faces-int", lambda d: d.update(faces_vertices=5), False),
    ("face-triangle", lambda d: _one_short(d["faces_vertices"][0]), False),
    ("inferred-face-dropped",
     lambda d: (_drop_key(d, "curvefold:grid"), _one_short(d["faces_vertices"])), False),
    ("halting-col-string", lambda d: d["curvefold:grid"].update(halting_col="1"), False),
    ("halting-col-2", lambda d: d["curvefold:grid"].update(halting_col=2), False),
    ("halting-col-0", lambda d: d["curvefold:grid"].update(halting_col=0), False),
    ("halting-col-true", lambda d: d["curvefold:grid"].update(halting_col=True), False),
    ("inferred-face-id-out-of-range",
     lambda d: (_drop_key(d, "curvefold:grid"),
                d["faces_vertices"][0].__setitem__(0, 10 ** 6)), False),
    ("flat-row-short", lambda d: _one_short(d["curvefold:vertices_flat"]), True),
    ("fold-angles-empty", lambda d: d.update(edges_foldAngle=[]), True),
    ("design-xi-string", lambda d: d["curvefold:design"].update(xi="abc"), False),
    ("design-xi-too-long", lambda d: d["curvefold:design"].update(xi=[0.5] * 20), False),
    ("design-grid-alpha-string",
     lambda d: d["curvefold:design"].update(grid_alpha="x"), False),
]

#: (id, edit of a fig7 FOLD document) -> imports, and `verify` fails the
#: check named
FOLD_CHECK_FAILURES = [
    # tan 0 / tan 0: a NaN ratio, so a NaN residual
    ("grid-alpha-zero-tangent",
     lambda d: d["curvefold:design"].update(grid_alpha=[[0.0, 0.0], [0.0, 0.0]]),
     "separability"),
]


class TestFoldImportValidation:
    @pytest.mark.parametrize("edit,folded", [c[1:] for c in FOLD_CORRUPTIONS],
                             ids=[c[0] for c in FOLD_CORRUPTIONS])
    def test_export_exit_1(self, edit, folded, fig7_design, fig7_halt, tmp_path, capsys):
        pattern, _ = fig7_design
        doc = json.loads(export_fold(pattern, state=fig7_halt.halt if folded else None))
        edit(doc)
        bad = tmp_path / "bad.fold"
        bad.write_text(json.dumps(doc))
        assert main(["export", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit,check", [c[1:] for c in FOLD_CHECK_FAILURES],
                             ids=[c[0] for c in FOLD_CHECK_FAILURES])
    def test_verify_exit_2(self, edit, check, fig7_design, tmp_path, capsys):
        doc = json.loads(export_fold(fig7_design[0]))
        edit(doc)
        path = tmp_path / "pattern.fold"
        path.write_text(json.dumps(doc))
        import_fold(path.read_text())
        assert main(["verify", str(path)]) == 2
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["check_id"] for c in checks if not c["ok"]] == [check]


    @pytest.mark.parametrize("design", ["fig5_design", "fig7_design"])
    def test_mirrored_grid_names_its_winding(self, design, request, tmp_path, capsys):
        # x -> -x: the curvefold:grid of the full document turns the other
        # way at every face, which no developable grid does
        doc = json.loads(export_fold(request.getfixturevalue(design)[0]))
        doc["vertices_coords"] = [[-x, y] for x, y in doc["vertices_coords"]]
        path = tmp_path / "mirrored.fold"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"^curvefold:grid is mirrored \(clockwise faces\)"):
            import_fold(path.read_text())
        assert main(["fold", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: curvefold:grid is mirrored")


def _check_regrid(pattern, scrambles):
    """Scrambled bare exports of the pattern re-grid to its own grid, one
    of the four quarter turns of the oracle's."""
    doc = bare_document(export_fold(pattern))
    rng = np.random.default_rng(11)
    for _ in range(scrambles):
        bare, perm = scrambled(doc, rng)
        ext = import_fold(json.dumps(bare))[0].ext_id
        assert np.array_equal(ext, perm[pattern.ext_id])
        ref = grid_oracle._infer_grid(np.array(bare["vertices_coords"]),
                                      bare["faces_vertices"])
        assert any(np.array_equal(ext, np.rot90(ref, k)) for k in range(4))


class TestBareDocument:
    """FOLD documents without curvefold:grid are re-gridded from their
    faces and planar frame to the grid the design drew."""

    @pytest.mark.parametrize("design", ["fig5_design", "fig7_design"])
    def test_regrid_figures(self, design, request):
        _check_regrid(request.getfixturevalue(design)[0], scrambles=25)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(SMALL_SPECS)
    def test_regrid_small_specs(self, doc):
        try:
            pattern, _ = _build_from_spec(*load_design_spec(json.dumps(doc)))
        except CurvefoldError:
            reject()
        _check_regrid(pattern, scrambles=5)

    @pytest.mark.parametrize("fig", ["fig5", "fig7"])
    def test_bare_pattern_sweeps_as_the_full_document(self, fig, request):
        text = export_fold(request.getfixturevalue(f"{fig}_design")[0])
        full = sweep_to_halt(import_fold(text)[0], samples=4)
        bare = sweep_to_halt(import_fold(json.dumps(bare_document(text)))[0], samples=4)
        assert_same(bare, full)

    @pytest.mark.parametrize("fig", ["fig5", "fig7"])
    def test_bare_halt_fold_reads_its_planar_frame(self, fig, request):
        # the folded coordinates would orient faces by their 3D shadow
        pattern, _ = request.getfixturevalue(f"{fig}_design")
        halt = request.getfixturevalue(f"{fig}_halt").halt
        doc = bare_document(export_fold(pattern, state=halt), keep=("curvefold:vertices_flat",))
        pat2, state = import_fold(json.dumps(doc))
        assert np.array_equal(pat2.ext_id, pattern.ext_id)
        assert np.array_equal(state.vertex_coords, np.array(doc["vertices_coords"]))

    @pytest.mark.parametrize("fig", ["fig5", "fig7"])
    def test_cli_fold_of_bare_document(self, fig, request, tmp_path):
        text = export_fold(request.getfixturevalue(f"{fig}_design")[0])
        for name, body in (("full", text), ("bare", json.dumps(bare_document(text)))):
            (tmp_path / f"{name}.fold").write_text(body)
            assert main(["fold", str(tmp_path / f"{name}.fold"), "--states", "8",
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "bare" / "halt.json").read_bytes()
                == (tmp_path / "full" / "halt.json").read_bytes())

    def test_verify_bare_orthodiagonal_document(self, fig7_design, tmp_path, capsys):
        # a bare document names no design type, so verify runs neither
        # family's own checks on it, and fig7's other checks pass
        path = tmp_path / "bare.fold"
        path.write_text(json.dumps(bare_document(export_fold(fig7_design[0]))))
        assert main(["verify", str(path)]) == 0
        ids = {c["check_id"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert {"developability", "closure", "isometry", "halt-fold"} <= ids
        assert not ids & {"opposite-row-folds", "rows-perpendicular", "rows-contain-tangent"}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(edits=hs.lists(hs.tuples(
        hs.sampled_from(["drop", "duplicate", "swap", "scramble", "repeat", "random"]),
        hs.integers(0, 10 ** 6), hs.integers(0, 10 ** 6)), min_size=1, max_size=3))
    def test_corrupted_faces_import_or_exit_1(self, small_parallel, edits):
        doc = bare_document(export_fold(small_parallel[0]))
        faces, nv = doc["faces_vertices"], len(doc["vertices_coords"])
        for kind, i, j in edits:
            f, g = faces[i % len(faces)], faces[j % len(faces)]
            if kind == "drop":
                faces.remove(f)
            elif kind == "duplicate":
                faces.insert(j % len(faces), list(f))
            elif kind == "swap":
                f[i % 4], g[j % 4] = g[j % 4], f[i % 4]
            elif kind == "scramble":
                f[:] = [f[k] for k in np.random.default_rng(j).permutation(4)]
            elif kind == "repeat":
                f[i % 4] = f[j % 4]
            else:
                f[i % 4] = j % nv
        text = json.dumps(doc)
        try:
            import_fold(text)
            want = 0
        except SchemaError:
            want = 1
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            (Path(tmp) / "in.fold").write_text(text)
            assert main(["export", str(Path(tmp) / "in.fold"), "--out", tmp]) == want
        assert "Traceback" not in err.getvalue()


class TestSvg:
    def test_byte_identical_repeat(self, small_parallel):
        pattern, _ = small_parallel
        assert export_svg(pattern) == export_svg(pattern)

    def test_stroke_classes(self, small_parallel):
        pattern, _ = small_parallel
        svg = export_svg(pattern)
        for cls in ('class="m"', 'class="v"', 'class="b"'):
            assert cls in svg

    def test_overlay_option(self):
        f = curves.parabola(65)
        a = AffineParams(np.deg2rad(70), np.deg2rad(60))
        st = staircase(f, a, 8)
        from curvefold.parallel import ParallelDesignSpec, build_pattern
        spec = ParallelDesignSpec(datum=curves.space_arc(65), target=curves.exp_curve(65),
                                  n_row=2, n_col=2, theta=np.deg2rad(73), eps=2.0)
        pattern, _ = build_pattern(spec)
        svg = export_svg(pattern, overlays=[(f.samples, "curve"), (st.points, "stair")])
        assert svg.count("<polyline") == 2


class TestDesignSpecFile:
    def test_parallel_spec(self):
        doc = {"type": "parallel-repeating", "datum": {"builtin": "fig4-spiralish"},
               "target": {"builtin": "fig5-exp"}, "n_row": 4, "n_col": 3,
               "rho4": 2.6, "theta": 1.27, "eps": 0.5}
        kind, fields, theta = load_design_spec(json.dumps(doc))
        assert kind == "parallel-repeating"
        assert fields["n_row"] == 4 and theta == 1.27

    def test_unknown_field_rejected(self):
        for key in ("bogus", "output"):
            doc = {"type": "parallel-repeating", "datum": {"builtin": "fig4-spiralish"},
                   "target": {"builtin": "fig5-exp"}, key: 1}
            with pytest.raises(SchemaError, match=f"unknown fields: \\['{key}'\\]"):
                load_design_spec(json.dumps(doc))

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            load_design_spec(json.dumps({"type": "nope"}))

    def test_inline_samples(self):
        doc = {"type": "orthodiagonal",
               "datum": {"samples": [[0, 0], [1, 0.2], [2, 0]]},
               "target": {"builtin": "fig7-tlnt"}, "n": 2, "m": 2}
        kind, fields, theta = load_design_spec(json.dumps(doc))
        assert kind == "orthodiagonal"
        assert fields["datum"].samples.shape == (3, 2)
        assert theta == "auto"

    def test_bad_curve_rejected(self):
        doc = {"type": "orthodiagonal", "datum": {"nope": 1},
               "target": {"builtin": "fig7-tlnt"}}
        with pytest.raises(SchemaError):
            load_design_spec(json.dumps(doc))


class TestReport:
    def test_json_and_text(self, fig5_design):
        _, report = fig5_design
        j = json.loads(report_json(report))
        assert j["design_type"] == "parallel-repeating"
        assert "eps_datum" in j
        txt = report_text(report)
        assert "eps datum" in txt and "within budget" in txt


class TestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(where=hs.sampled_from([("curvefold:design", k)
                                  for k in ("type", "xi", "grid_alpha", "halt_rho")]
                                 + [("curvefold:grid", k)
                                    for k in ("rows", "cols", "halting_col", "ext_id")]),
           value=JSON)
    def test_fold_import_rejects_or_checks(self, small_parallel, small_parallel_halt,
                                           where, value):
        # a FOLD document with one drawn design or grid value either fails
        # the schema or gets through the whole invariant suite
        pattern, _ = small_parallel
        doc = json.loads(export_fold(pattern))
        doc[where[0]][where[1]] = value
        try:
            pat, _ = import_fold(json.dumps(doc))
        except SchemaError:
            return
        checks = run_pattern_checks(pat, state=small_parallel_halt.halt)
        assert all(isinstance(c, CheckResult) for c in checks)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(base=hs.sampled_from(FUZZ_SPECS), key=hs.sampled_from(
        ["type", "datum", "target", "n_row", "n_col", "n", "m", "rho4", "alpha11",
         "tube_eps", "theta", "eps", "phase", "bogus", "datum.builtin", "datum.samples_n",
         "datum.samples", "datum.param", "datum.closed", "target.builtin",
         "target.samples_n", "target.scale", "target.bogus"]), value=JSON)
    def test_spec_loads_or_rejects(self, base, key, value):
        doc = copy.deepcopy(base)
        *outer, inner = key.split(".")
        (doc[outer[0]] if outer else doc)[inner] = value
        try:
            kind, fields, _ = load_design_spec(json.dumps(doc))
        except SchemaError:
            return
        assert kind == doc["type"] and isinstance(fields, dict)
