"""What `foldsim` keeps of the grid, against what it replaces: the fold
plan's data flow against the row-major vertex sweep and the shape that
leaves no vertex without a known crease, its errors in floats and in
lanes, the placement depths against the placement order, the clash
test's table of vertex-sharing triangles against the per-pair test, and
the pattern's one store of what the grid fixes against fresh builds."""
import copy
import json
import operator
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings

import design_oracle
from curvefold import foldsim
from curvefold import pattern as pattern_mod
from curvefold.cli import DEMOS, _build_from_spec, main
from curvefold.errors import CurvefoldError, NotRigidFoldable, OutOfRange, SchemaError
from curvefold.foldio import export_fold, import_fold, load_design_spec
from curvefold.foldsim import (assign_fold_angles, bootstrap_mv, default_driving_crease,
                               place_panels, placement_order, propagate, sweep_to_halt)
from curvefold.kinematics import VertexStack
from curvefold.pattern import assemble_grid
from support import SMALL_SPECS, bare_document, scrambled

FIGS = ("fig5_design", "fig7_design", "fig5_reimported")
LANE_STEP = 100.0  # lane l carries its folds plus l x LANE_STEP
NO_BRANCH = "configuration beyond the vertex folding range"


@pytest.fixture(scope="module")
def fig5_reimported(fig5_design):
    """fig5 through its FOLD export, which relabels the crease ids."""
    return import_fold(export_fold(fig5_design[0]))


def _tag(v, j):
    """The fold the traced kernel writes on slot j of vertex v."""
    return 10.0 + 4 * v + j


def _row_major(pattern, drive):
    """The input (slot, fold) of every vertex and the final fold of every
    crease in the row-major sweep, each vertex writing `_tag` on its
    creases: each vertex reads its first crease written before it."""
    fold, inputs = {default_driving_crease(pattern): drive}, []
    for v, cids in enumerate(pattern.vertex_creases.reshape(-1, 4).tolist()):
        j = next(j for j, c in enumerate(cids) if c in fold)
        inputs.append((j, fold[cids[j]]))
        for k, c in enumerate(cids):
            fold[c] = _tag(v, k)
    return inputs, [fold.get(c) for c in range(len(pattern.creases))]


def _check_data_flow(pattern, lanes):
    """Fold `pattern` with a kernel that writes `_tag` and records what
    each vertex reads: on one state, or on `lanes` lanes in one pass."""
    index = {id(v): k for k, v in enumerate(pattern.kept(pattern_mod._vertex_table))}
    seen, calls = [], []

    def kernel(v, j, x):
        ks = [index[id(u)] for u in getattr(v, "verts", [v])]
        xs = np.reshape(x, (len(ks), -1))
        calls.append(len(ks))
        seen.extend((k, j, row.tolist()) for k, row in zip(ks, xs))
        folds = (np.array([[_tag(k, i) for k in ks] for i in range(4)])[:, :, None]
                 + LANE_STEP * np.arange(xs.shape[1]))
        if np.ndim(x) == 0:
            return True, folds[:, 0, 0].tolist(), folds[:, 0, 0].tolist(), False
        return np.ones(xs.shape, dtype=bool), folds, folds, np.zeros(xs.shape, dtype=bool)

    E = len(pattern.creases)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(foldsim, "propagate_both_modes", kernel)
        if lanes:
            drive = 0.5 + LANE_STEP * np.arange(lanes)
            rho, _, ok, _ = foldsim._fold_levels(pattern, drive, np.zeros((E, lanes)),
                                                 np.zeros((E, lanes)))
            assert ok.all()
        else:
            rho, _, _, _ = foldsim._fold_levels(pattern, 0.5, [0.0] * E, [0] * E)
            rho = rho[None]
    shift = LANE_STEP * np.arange(len(rho))
    inputs, final = _row_major(pattern, 0.5)
    # every vertex is solved once, from the crease and the fold the
    # row-major sweep gives it: its input's last writer before it
    assert sorted(k for k, _, _ in seen) == list(range(len(inputs)))
    for k, j, xs in seen:
        assert (j, xs) == (inputs[k][0], (inputs[k][1] + shift).tolist())
    # each crease ends with its last writer's fold, and 0 where none wrote
    want = np.array([shift * 0.0 if f is None else f + shift for f in final]).T
    assert np.array_equal(rho, want)
    return calls


def _check_plan_shape(pattern):
    """The plan of a quad grid: vertex (1, 1) reads the driving value on R,
    the rest of row 1 reads L, the R of the vertex before it, and every
    other vertex U, the D of the vertex above; vertex (k, i) has level
    (k - 1) + (i - 1).  So every vertex has a known crease."""
    plan = pattern.kept(foldsim.FoldPlan)
    rows, cols = pattern.rows, pattern.cols
    N = rows * cols
    vertex, slot = np.empty(N, dtype=int), np.empty(N, dtype=int)
    for a, b, j, vs in plan.groups:
        vertex[a:b], slot[a:b] = vs, j
    assert sorted(vertex.tolist()) == list(range(N))
    k, i = np.divmod(vertex, cols)  # from 0
    assert np.array_equal(slot, np.where(k > 0, 1, np.where(i > 0, 2, 0)))
    # the input's writer: its slot and its position, or the driving value
    from_slot, at = np.divmod(plan.src, N + 1)
    driven = plan.src == N
    assert driven.tolist() == [True] + [False] * (N - 1) and vertex[0] == 0
    assert np.array_equal(vertex[at[1:]], np.where(k > 0, vertex - cols, vertex - 1)[1:])
    assert np.array_equal(from_slot[1:], np.where(k > 0, 3, 0)[1:])
    level = np.zeros(N, dtype=int)
    for p in range(1, N):
        assert at[p] < p
        level[p] = level[at[p]] + 1
    assert np.array_equal(level, k + i)
    assert len(plan.groups) == (2 * cols + rows - 2 if rows >= 2 else cols)


class TestFoldPlan:
    @pytest.mark.parametrize("lanes", (0, 1, 3))
    @pytest.mark.parametrize("fig", FIGS)
    def test_data_flow_is_the_row_major_sweep(self, fig, lanes, request):
        pattern, _ = request.getfixturevalue(fig)
        calls = _check_data_flow(pattern, lanes)
        if lanes:
            # 25 groups of one dependency level and input slot, not 81 vertices
            assert len(calls) == 25 and sum(calls) == 81
        else:
            assert calls == [1] * 81

    @pytest.mark.parametrize("fig", FIGS)
    def test_every_vertex_has_a_known_crease(self, fig, request):
        pattern, _ = request.getfixturevalue(fig)
        _check_plan_shape(pattern)
        assert len(pattern.kept(foldsim.FoldPlan).groups) == 25

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(SMALL_SPECS)
    def test_data_flow_on_small_specs(self, doc):
        try:
            pattern, _ = _build_from_spec(*load_design_spec(json.dumps(doc)))
        except CurvefoldError:
            reject()
        for lanes in (0, 2):
            calls = _check_data_flow(pattern, lanes)
            assert sum(calls) == pattern.rows * pattern.cols
        _check_plan_shape(pattern)

    def test_groups_at_34x34(self):
        pattern, _ = _build_from_spec(*load_design_spec(json.dumps({
            "type": "orthodiagonal", "datum": {"builtin": "fig7-sine"},
            "target": {"builtin": "fig7-tlnt"}, "n": 34, "m": 34, "theta": "auto",
            "eps": 0.2})))
        _check_plan_shape(pattern)
        plan = pattern.kept(foldsim.FoldPlan)
        assert len(plan.groups) == 100
        assert sorted(v for group in plan.groups for v in group[3]) == list(range(34 * 34))


    def test_one_plan_per_pattern(self, monkeypatch):
        # a design builds its FoldPlan once, for the M/V bootstrap, and the
        # sweep reads that plan.  A FOLD re-import gets a plan of
        # its own, and so does the design's pattern object with its crease
        # ids relabelled in place: the cache keys on what the plan reads
        built, real = [], foldsim.FoldPlan

        def counted(pattern):
            built.append(real(pattern))
            return built[-1]

        monkeypatch.setattr(foldsim, "FoldPlan", counted)
        pattern, _ = _build_from_spec(*load_design_spec(json.dumps(DEMOS["fig5"])))
        sweep_to_halt(pattern, samples=2)
        assert len(built) == 1 and pattern.kept(foldsim.FoldPlan) is built[0]
        imported, _ = import_fold(export_fold(pattern))
        sweep_to_halt(imported, samples=2)
        assert len(built) == 2 and imported.kept(foldsim.FoldPlan) is built[1]
        relabelled = copy.copy(pattern)
        perm = np.random.default_rng(5).permutation(len(pattern.creases))
        relabelled.row_creases, relabelled.col_creases = perm[pattern.row_creases], \
            perm[pattern.col_creases]
        relabelled.creases = pattern.creases[np.argsort(perm)]
        assert relabelled.kept(foldsim.FoldPlan) is built[2] and len(built) == 3
        assert np.array_equal(built[2].cids, perm[built[0].cids])
        assert pattern.kept(foldsim.FoldPlan) is built[0] and len(built) == 3

def _both(pattern, drive):
    """The errors of one state and of lanes at the driving values `drive`,
    or None where the fold assignment returns."""
    E = len(pattern.creases)
    got = []
    for d in ([drive[0]], [np.array(drive)]):
        try:
            if np.ndim(d[0]):
                foldsim._fold_levels(pattern, d[0], np.zeros((E, len(drive))),
                                     np.zeros((E, len(drive)), dtype=int))
            else:
                assign_fold_angles(pattern, d[0])
            got.append(None)
        except (OutOfRange, NotRigidFoldable) as e:
            got.append((type(e), str(e)))
    return got


def _plain_grid(tmp_path):
    """The FOLD export of a rectangular grid drawn on axis-aligned lines:
    every inner vertex is a cross."""
    nodes = np.stack(np.meshgrid(np.arange(5.0), -np.arange(4.0)), -1)
    path = tmp_path / "plain.fold"
    path.write_text(export_fold(assemble_grid(nodes, {})))
    return path


class TestErrors:
    # the error of the fold assignment: OutOfRange at the first group
    # where no state has a branch
    @pytest.mark.parametrize("fig", FIGS)
    def test_every_lane_out_of_range(self, fig, request):
        pattern, _ = request.getfixturevalue(fig)
        assert _both(pattern, [3.5, 4.0]) == [(OutOfRange, NO_BRANCH)] * 2
        assert _both(pattern, [0.1, 4.0]) == [None, None]

    @pytest.mark.parametrize("fig", FIGS)
    def test_first_error_in_row_major_order_wins(self, fig, request, monkeypatch):
        # no state has a branch at vertex (1,1): the one state and the
        # lanes raise there, after one kernel call each, and lanes with one
        # lane in range do not raise
        pattern, _ = request.getfixturevalue(fig)
        calls, solve = [], foldsim.propagate_both_modes

        def counted(v, j, x):
            calls.append(np.ndim(x) > 0)
            return solve(v, j, x)

        monkeypatch.setattr(foldsim, "propagate_both_modes", counted)
        assert _both(pattern, [3.5, 4.0]) == [(OutOfRange, NO_BRANCH)] * 2
        assert calls == [False, True]
        assert _both(pattern, [4.0, 0.1]) == [(OutOfRange, NO_BRANCH), None]

    @pytest.mark.parametrize("fig", FIGS)
    def test_propagate_takes_only_its_own_driving_crease(self, fig, request):
        # the keyword stays for callers that name the crease
        pattern, _ = request.getfixturevalue(fig)
        dc = default_driving_crease(pattern)
        want = propagate(pattern, 0.3)
        got = propagate(pattern, 0.3, driving_crease=dc)
        assert got.driving_crease == want.driving_crease == dc
        assert np.array_equal(got.rho, want.rho)
        with pytest.raises(ValueError, match="does not drive the pattern"):
            propagate(pattern, 0.3, driving_crease=int(pattern.row_creases[2, 1]))

    def test_flat_state_that_fails_raises_its_own_error(self, fig5_design, tmp_path, capsys):
        # a halting column other than 1 is a schema error: every command
        # that reads the document exits 1 with no traceback
        doc = json.loads(export_fold(fig5_design[0]))
        doc["curvefold:grid"]["halting_col"] = 2
        path = tmp_path / "pattern.fold"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="halting_col"):
            import_fold(path.read_text())
        for cmd in ("fold", "verify", "export"):
            argv = [cmd, str(path)] + ([] if cmd == "verify" else ["--out", str(tmp_path / "o")])
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        # a plain rectangular grid: vertex (1,1) is a cross, so the flat
        # state fails, and the sweep raises that error instead of NoHalt
        path = _plain_grid(tmp_path)
        pattern, _ = import_fold(path.read_text())
        cross = "vertex (1,1): sectors form a cross"
        for run in (lambda: propagate(pattern, 0.0), lambda: sweep_to_halt(pattern)):
            with pytest.raises(NotRigidFoldable, match=re.escape(cross)):
                run()
        for argv in (["fold", str(path), "--out", str(tmp_path / "o")], ["verify", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"NotRigidFoldable: {cross}\n"


class TestPlacementDepths:
    @pytest.mark.parametrize("fig", FIGS)
    def test_depths_follow_the_placement(self, fig, request):
        # every hinge row once, each after its parent face is placed, in
        # 18 depths for 99 hinges
        pattern, _ = request.getfixturevalue(fig)
        placement, depths = pattern.kept(placement_order)
        assert len(depths) == 18
        assert sorted(np.concatenate(depths).tolist()) == list(range(len(placement)))
        placed = {0}
        for rows in depths:
            face, parent = placement[rows, :2].T
            assert set(parent.tolist()) <= placed
            placed |= set(face.tolist())
        assert placed == set(range(pattern.faces[..., 0].size))


def _check_touching(pattern):
    """The table's answer on every face pair p < q, and on the same pairs
    one stacked state on, against the per-pair test: the triangle pairs of
    the two faces that share no vertex id.  Returns the count of pairs that
    share one."""
    triangles = pattern.kept(foldsim._Triangles)
    F = len(triangles.ids) // 2
    p, q = np.triu_indices(F, 1)
    a = (2 * p[:, None] + [0, 0, 1, 1]).ravel()
    b = (2 * q[:, None] + [0, 1, 0, 1]).ravel()
    shared = (triangles.ids[a][:, :, None] == triangles.ids[b][:, None, :]).any(axis=(1, 2))
    for s in (0, 1):
        got = triangles.apart(p + s * F, q + s * F)
        assert np.array_equal(np.stack(got), np.stack([a[~shared], b[~shared]]) + 2 * s * F)
    return int(shared.sum())


class TestTouching:
    @pytest.mark.parametrize("fig", FIGS)
    def test_every_pair(self, fig, request):
        pattern, _ = request.getfixturevalue(fig)
        # 100 faces: the triangle pairs of the 8-neighbour faces that share
        # a corner or an edge
        assert _check_touching(pattern) > 100

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(SMALL_SPECS)
    def test_every_pair_on_small_specs(self, doc):
        try:
            pattern, _ = _build_from_spec(*load_design_spec(json.dumps(doc)))
        except CurvefoldError:
            reject()
        _check_touching(pattern)


def _same(a, b):
    """a and b hold the same values, arrays bit for bit (shape and dtype
    too), objects attribute by attribute; a VertexStack by its vertices,
    not by the terms it has cached so far."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and (a.shape, a.dtype) == (b.shape, b.dtype)
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, VertexStack):
        return _same(a.verts, b.verts)
    if isinstance(a, (foldsim._Triangles, foldsim.FoldPlan)):
        return type(a) is type(b) and _same(vars(a), vars(b))
    return type(a) is type(b) and a == b


def _kept(pattern):
    """What the pattern keeps: its placement, FoldPlan, vertex table, vertex
    stacks, placement constants and clash triangles."""
    return [pattern.kept(placement_order), pattern.kept(foldsim.FoldPlan),
            pattern.kept(pattern_mod._vertex_table), pattern.kept(foldsim._stacks),
            pattern.kept(foldsim._frames), pattern.kept(foldsim._Triangles)]


def _check_kept_is_fresh(pattern):
    """Everything the pattern keeps equals a build from the pattern as it
    is now, the placement that of `design_oracle.placement`."""
    placement, plan, verts, stacks, frames, triangles = _kept(pattern)
    for got, want in ((placement, placement_order(pattern)),
                      (placement, design_oracle.placement(pattern)),
                      (triangles, foldsim._Triangles(pattern)),
                      (plan, foldsim.FoldPlan(pattern)),
                      (verts, pattern_mod._vertex_table(pattern)),
                      (stacks, foldsim._stacks(pattern)), (frames, foldsim._frames(pattern))):
        assert _same(got, want)


class TestKept:
    def test_edits_in_place_rebuild_what_is_kept(self, fig5_design):
        # one pattern object folded and placed, then each array the key
        # covers edited in place: everything it keeps is rebuilt, and
        # equals a fresh build.  Writing M/V rebuilds nothing
        pattern = copy.deepcopy(fig5_design[0])
        E = len(pattern.creases)
        foldsim._fold_lanes(pattern, np.array([0.2, 0.3]), np.zeros((2, E)))
        place_panels(pattern, np.zeros(E))
        _check_kept_is_fresh(pattern)
        before = _kept(pattern)
        bootstrap_mv(pattern)
        pattern.creases.mv = -pattern.creases.mv
        assert all(map(operator.is_, _kept(pattern), before))

        # the re-import with its vertex ids, faces and edge order scrambled
        rng = np.random.default_rng(7)
        doc, _ = scrambled(bare_document(export_fold(pattern)), rng)
        perm = rng.permutation(E)
        for key in ("edges_vertices", "edges_assignment"):
            doc[key] = [doc[key][k] for k in perm]
        other = import_fold(json.dumps(doc))[0]
        hinge = pattern.kept(placement_order)[0][:, 2]
        reversed_hinges = pattern.creases.copy()
        reversed_hinges.u[hinge], reversed_hinges.v[hinge] = (pattern.creases.v[hinge],
                                                              pattern.creases.u[hinge])
        edits = [("vertices scaled", pattern.vertices, 1.25 * pattern.vertices),
                 ("hinge creases reversed", pattern.creases, reversed_hinges),
                 ("row crease ids relabelled", pattern.row_creases, perm[pattern.row_creases]),
                 ("column crease ids relabelled", pattern.col_creases,
                  perm[pattern.col_creases]),
                 ("crease sides swapped", pattern.crease_faces, pattern.crease_faces[:, ::-1]),
                 ("sectors turned end for end", pattern.sectors, pattern.sectors[::-1, ::-1]),
                 ("faces of a relabelled re-import", pattern.faces, other.faces)]
        for name, array, value in edits:
            before = _kept(pattern)
            array[...] = value.copy()
            assert not any(map(operator.is_, _kept(pattern), before)), name
            _check_kept_is_fresh(pattern)

    def test_one_key_per_fold_layer(self, fig5_design, monkeypatch):
        # a warm fold reads the store once for the fold loop (placement,
        # plan and vertex table or stacks) and once for the placement's
        # constants: a one-state propagate and a two-lane pass alike build
        # the key twice
        pattern = fig5_design[0]
        flat = propagate(pattern, 0.0)
        foldsim.propagate_lanes(pattern, [0.1, 0.2], [flat, flat])
        lookups, real = [], pattern_mod.CreasePattern.kept

        def counted(self, *builds):
            lookups.append(builds)
            return real(self, *builds)

        monkeypatch.setattr(pattern_mod.CreasePattern, "kept", counted)
        propagate(pattern, 0.1, prev=flat)
        assert lookups == [(placement_order, foldsim.FoldPlan, pattern_mod._vertex_table),
                           (foldsim._frames,)]
        lookups.clear()
        foldsim.propagate_lanes(pattern, [0.1, 0.2], [flat, flat])
        assert lookups == [(placement_order, foldsim.FoldPlan, foldsim._stacks),
                           (foldsim._frames,)]

