"""The grid schedule of `foldsim`, against what it replaces: the fold
plan's data flow against the row-major vertex sweep, its errors in floats
and in lanes, the placement depths against the placement order, and the
clash test's table of vertex-sharing triangles against the per-pair
test."""
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings

from curvefold import foldsim
from curvefold.cli import _build_from_spec, main
from curvefold.errors import CurvefoldError, NotRigidFoldable, OutOfRange
from curvefold.foldio import export_fold, import_fold, load_design_spec
from curvefold.foldsim import (assign_fold_angles, default_driving_crease, grid_schedule,
                               propagate, propagate_lanes, sweep_to_halt)
from support import SMALL_SPECS

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


def _row_major(pattern, dc, drive):
    """The input (slot, fold) of every vertex and the final fold of every
    crease in the row-major sweep, each vertex writing `_tag` on its
    creases: each vertex reads its first crease written before it."""
    fold, inputs = {dc: drive}, []
    for v, cids in enumerate(pattern.vertex_creases.reshape(-1, 4).tolist()):
        j = next(j for j, c in enumerate(cids) if c in fold)
        inputs.append((j, fold[cids[j]]))
        for k, c in enumerate(cids):
            fold[c] = _tag(v, k)
    return inputs, [fold.get(c) for c in range(len(pattern.creases))]


def _check_data_flow(pattern, lanes):
    """Fold `pattern` with a kernel that writes `_tag` and records what
    each vertex reads: on one state, or on `lanes` lanes in one pass."""
    dc = default_driving_crease(pattern)
    index = {id(v): k for k, v in enumerate(pattern.vertex_angles())}
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
            rho, _, ok, _ = foldsim._fold_angles(pattern, drive, np.zeros((E, lanes)),
                                                 np.zeros((E, lanes)), dc)
            assert ok.all()
        else:
            rho, _, _, _ = foldsim._fold_angles(pattern, 0.5, [0.0] * E, [0] * E, dc)
            rho = rho[None]
    shift = LANE_STEP * np.arange(len(rho))
    inputs, final = _row_major(pattern, dc, 0.5)
    # every vertex is solved once, from the crease and the fold the
    # row-major sweep gives it: its input's last writer before it
    assert sorted(k for k, _, _ in seen) == list(range(len(inputs)))
    for k, j, xs in seen:
        assert (j, xs) == (inputs[k][0], (inputs[k][1] + shift).tolist())
    # each crease ends with its last writer's fold, and 0 where none wrote
    want = np.array([shift * 0.0 if f is None else f + shift for f in final]).T
    assert np.array_equal(rho, want)
    return calls


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

    def test_groups_at_34x34(self):
        pattern, _ = _build_from_spec(*load_design_spec(json.dumps({
            "type": "orthodiagonal", "datum": {"builtin": "fig7-sine"},
            "target": {"builtin": "fig7-tlnt"}, "n": 34, "m": 34, "theta": "auto",
            "eps": 0.2})))
        plan = grid_schedule(pattern).folds(pattern, default_driving_crease(pattern))
        assert len(plan.groups) == 100
        assert sorted(v for group in plan.groups for v in group[3]) == list(range(34 * 34))


def _both(pattern, drive, dc):
    """The errors of one state and of lanes at the driving values `drive`,
    or None where the fold assignment returns."""
    E = len(pattern.creases)
    got = []
    for d in ([drive[0]], [np.array(drive)]):
        try:
            if np.ndim(d[0]):
                foldsim._fold_angles(pattern, d[0], np.zeros((E, len(drive))),
                                     np.zeros((E, len(drive)), dtype=int), dc)
            else:
                assign_fold_angles(pattern, d[0], driving_crease=dc)
            got.append(None)
        except (OutOfRange, NotRigidFoldable) as e:
            got.append((type(e), str(e)))
    return got


class TestErrors:
    # the errors the row-major sweep raised: OutOfRange at the first
    # vertex where no state has a branch, NotRigidFoldable at the first
    # vertex with no known crease, whichever the sweep meets first
    @pytest.mark.parametrize("fig", FIGS)
    def test_driving_crease_off_the_first_row(self, fig, request):
        # a crease of the second row leaves vertex (1,1) with no known crease
        pattern, _ = request.getfixturevalue(fig)
        dc = int(pattern.row_creases[2, 1])
        want = (NotRigidFoldable, "sweep reached vertex (1,1) with no known crease")
        assert _both(pattern, [0.1, 0.2], dc) == [want, want]
        flat = propagate(pattern, 0.0)
        assert propagate_lanes(pattern, [0.1, 0.2], [flat, flat], dc) == [None, None]

    @pytest.mark.parametrize("fig", FIGS)
    def test_every_lane_out_of_range(self, fig, request):
        pattern, _ = request.getfixturevalue(fig)
        dc = default_driving_crease(pattern)
        assert _both(pattern, [3.5, 4.0], dc) == [(OutOfRange, NO_BRANCH)] * 2
        assert _both(pattern, [0.1, 4.0], dc) == [None, None]

    @pytest.mark.parametrize("fig", FIGS)
    def test_first_error_in_row_major_order_wins(self, fig, request):
        # the last vertex's creases replaced by four of the paper's top
        # edge, which no vertex writes: the sweep reaches it with no known
        # crease after every other vertex had a branch, and does not reach
        # it where no state has a branch at vertex (1,1)
        pattern, _ = request.getfixturevalue(fig)
        creases = pattern.vertex_creases.copy()
        creases[-1, -1] = pattern.row_creases[0, :4]

        class Edited(type(pattern)):
            vertex_creases = creases

        pattern = Edited(**{f.name: getattr(pattern, f.name)
                            for f in dataclasses.fields(pattern)})
        dc = default_driving_crease(pattern)
        stuck = (NotRigidFoldable, "sweep reached vertex (9,9) with no known crease")
        assert _both(pattern, [0.1, 0.2], dc) == [stuck, stuck]
        assert _both(pattern, [4.0, 0.1], dc) == [(OutOfRange, NO_BRANCH), stuck]
        assert _both(pattern, [3.5, 4.0], dc) == [(OutOfRange, NO_BRANCH)] * 2

    def test_flat_state_that_fails_raises_its_own_error(self, fig5_design, tmp_path, capsys):
        # halting column 2 drives a crease of vertex (1,2), which leaves
        # vertex (1,1) with no known crease: every state fails, flat first,
        # and the sweep raises that error instead of ending in NoHalt
        doc = json.loads(export_fold(fig5_design[0]))
        doc["curvefold:grid"]["halting_col"] = 2
        path = tmp_path / "pattern.fold"
        path.write_text(json.dumps(doc))
        pattern, _ = import_fold(path.read_text())
        stuck = "sweep reached vertex (1,1) with no known crease"
        for run in (lambda: propagate(pattern, 0.0), lambda: sweep_to_halt(pattern)):
            with pytest.raises(NotRigidFoldable, match=re.escape(stuck)):
                run()
        for argv in (["fold", str(path), "--out", str(tmp_path / "o")], ["verify", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"NotRigidFoldable: {stuck}\n"


class TestPlacementDepths:
    @pytest.mark.parametrize("fig", FIGS)
    def test_depths_follow_the_placement(self, fig, request):
        # every hinge row once, each after its parent face is placed, in
        # 18 depths for 99 hinges
        pattern, _ = request.getfixturevalue(fig)
        depths = grid_schedule(pattern).depths
        assert len(depths) == 18
        assert sorted(np.concatenate(depths).tolist()) == list(range(len(pattern.placement)))
        placed = {0}
        for rows in depths:
            face, parent = pattern.placement[rows, :2].T
            assert set(parent.tolist()) <= placed
            placed |= set(face.tolist())
        assert placed == set(range(pattern.faces[..., 0].size))


def _check_touching(pattern):
    """The table's answer on every triangle pair a < b against the
    per-pair test: the same face, or a shared vertex id."""
    sched = grid_schedule(pattern)
    a, b = np.triu_indices(len(sched.ids), 1)
    want = ((a >> 1) == (b >> 1)) | (sched.ids[a][:, :, None]
                                     == sched.ids[b][:, None, :]).any(axis=(1, 2))
    assert np.array_equal(sched.touching(a, b), want)
    return int(want.sum())


class TestTouching:
    @pytest.mark.parametrize("fig", FIGS)
    def test_every_pair(self, fig, request):
        pattern, _ = request.getfixturevalue(fig)
        # 100 faces: one pair within each, and the pairs of the 8-neighbour
        # faces that share a corner or an edge
        assert _check_touching(pattern) > 100

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(SMALL_SPECS)
    def test_every_pair_on_small_specs(self, doc):
        try:
            pattern, _ = _build_from_spec(*load_design_spec(json.dumps(doc)))
        except CurvefoldError:
            reject()
        _check_touching(pattern)
