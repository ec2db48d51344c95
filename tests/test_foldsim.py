import copy
import dataclasses
import itertools
import json
import math
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import design_oracle
import placement_oracle
from clash_oracle import _tri_tri_penetration, candidate_pairs
from curvefold import curves, foldsim, kinematics
from curvefold import pattern as pattern_mod
from curvefold.cli import DEMOS, _build_from_spec
from curvefold.errors import NotRigidFoldable, OutOfRange
from curvefold.foldio import export_fold, import_fold, load_design_spec
from curvefold.foldsim import (LANE_BLOCK, _penetrates, _unit_normals, bootstrap_mv,
                               clash_test, default_driving_crease, place_panels, propagate,
                               sweep_to_halt)
from curvefold.geometry import PolyCurve, measure_polyline, partition_uniform
from curvefold.parallel import ParallelDesignSpec, build_pattern
from curvefold.pattern import ROLE_BOUNDARY
from curvefold.tolerances import CLASH_REL, CLOSURE_REL
from curvefold.verify import TOLERANCES, check_isometry, run_pattern_checks
from support import bare_document, explore_designs, rigid_align, scrambled

RHO4 = 5 * np.pi / 6


class TestPropagate:
    def test_flat_state_is_planar_embedding(self, small_parallel):
        pattern, _ = small_parallel
        st = propagate(pattern, 0.0)
        assert np.abs(st.vertex_coords[:, 2]).max() < 1e-12
        assert np.abs(st.vertex_coords[:, :2] - pattern.vertices).max() < 1e-12

    def test_closure_at_random_driving(self, small_parallel):
        pattern, _ = small_parallel
        sgn = pattern.creases[default_driving_crease(pattern)].mv or 1
        for d in (0.2, 0.7, 1.5):
            st = propagate(pattern, sgn * d)
            assert st.residuals["closure"] < 1e-9
            assert st.residuals["vertex_spread"] < 1e-9

    def test_isometry(self, small_parallel):
        pattern, _ = small_parallel
        st = propagate(pattern, 0.9 * (pattern.creases[default_driving_crease(pattern)].mv or 1))
        V = st.vertex_coords
        for quad in pattern.faces.reshape(-1, 4):
            for a in range(4):
                for b in range(a + 1, 4):
                    d2 = np.linalg.norm(pattern.vertices[quad[a]] - pattern.vertices[quad[b]])
                    d3 = np.linalg.norm(V[quad[a]] - V[quad[b]])
                    assert abs(d3 - d2) <= 1e-9 * max(d2, 1.0)

    def test_corrupted_sector_fails(self, small_parallel):
        pattern, _ = small_parallel
        sectors = pattern.sectors.copy()
        try:
            pattern.sectors[1, 1, 0] += 1e-3
            with pytest.raises((NotRigidFoldable, OutOfRange)):
                propagate(pattern, 0.5)
        finally:
            pattern.sectors = sectors

    def test_compensated_corruption_fails_closure(self, small_parallel):
        # keep the angle sum intact so the vertex stays developable but the
        # transfer equations break
        pattern, _ = small_parallel
        sectors = pattern.sectors.copy()
        try:
            pattern.sectors[1, 1, 0] += 1e-3
            pattern.sectors[1, 1, 1] -= 1e-3
            with pytest.raises((NotRigidFoldable, OutOfRange)):
                propagate(pattern, 0.5)
        finally:
            pattern.sectors = sectors

    def test_beyond_pi_rejected(self, small_parallel):
        pattern, _ = small_parallel
        with pytest.raises(OutOfRange):
            propagate(pattern, 3.5)


def _design(doc):
    return _build_from_spec(*load_design_spec(json.dumps(doc)))[0]


class TestNearFlat:
    # parallel designs the designer accepts fold from flat at the
    # simulator's tolerances: the vertex kernel keeps its digits near flat
    # and on wide grids

    def test_f3_spec_folds_near_flat(self):
        pattern = _design({"type": "parallel-repeating",
                           "datum": {"builtin": "fig4-spiralish"},
                           "target": {"builtin": "fig5-exp", "scale": 0.7777980584603617},
                           "n_row": 12, "n_col": 5, "rho4": 2.77072033977294,
                           "theta": "auto", "eps": 10.0})
        dc = default_driving_crease(pattern)
        for d in (0.001, 0.005, 0.025):
            st = propagate(pattern, (pattern.creases[dc].mv or 1) * d)
            assert st.residuals["closure"] <= CLOSURE_REL

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_f6_wide_parallel_grid_is_isometric(self, seed):
        # 7 columns, 11 rows, rho4 and target scale drawn from the ranges
        # of the benchmark's explore batch, chained from flat
        rng = random.Random(seed)
        pattern = _design({"type": "parallel-repeating",
                           "datum": {"builtin": "fig4-spiralish"},
                           "target": {"builtin": "fig5-exp", "scale": rng.uniform(0.6, 0.8)},
                           "n_row": 7, "n_col": 11,
                           "rho4": rng.uniform(0.86 * math.pi, 0.875 * math.pi),
                           "theta": "auto", "eps": 10.0})
        sgn = pattern.creases[default_driving_crease(pattern)].mv or 1
        st = None
        for k in range(8):
            st = propagate(pattern, sgn * (0.1 + 0.05 * k), prev=st)
            assert check_isometry(pattern, st).residual <= TOLERANCES["isometry"]


@pytest.mark.parametrize("halt", ["fig5_halt", "fig7_halt"])
def test_vertex_rotation_product_closes_at_halt(halt, request):
    # hinge and sector rotations around every vertex compose to the
    # identity: the kernel's folds at one vertex are consistent with each
    # other, not only with the panel placement
    def rx(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])

    def rz(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

    pattern, _ = request.getfixturevalue(halt.replace("halt", "design"))
    rho = request.getfixturevalue(halt).halt.rho
    worst = 0.0
    for cids, sectors in zip(pattern.vertex_creases.reshape(-1, 4),
                             pattern.sectors.reshape(-1, 4)):
        T = np.eye(3)
        for c, s in zip(cids, sectors):
            T = T @ rx(rho[c]) @ rz(s)
        worst = max(worst, np.abs(T - np.eye(3)).max())
    assert worst <= 1e-13


class TestVertexTable:
    def test_invalid_vertex_is_typed_in_both_callers(self, fig7_design):
        # a sector sum off 2*pi by 1e-6 is no developable vertex
        pattern, _ = fig7_design
        sectors = pattern.sectors.copy()
        mv = [c.mv for c in pattern.creases]
        try:
            pattern.sectors[4, 4, 0] += 1e-6
            with pytest.raises(NotRigidFoldable, match=r"vertex \(5,5\)"):
                bootstrap_mv(pattern)
            with pytest.raises(NotRigidFoldable, match=r"vertex \(5,5\)"):
                propagate(pattern, 0.1)
        finally:
            pattern.sectors = sectors
            for c, m in zip(pattern.creases, mv):
                c.mv = m
        assert np.isfinite(propagate(pattern, 0.1).rho).all()


def _sweep_calls(pattern, monkeypatch, samples=64):
    """Calls of propagate, of the vertex solve on one state and on lanes
    ("vertex_lanes", one per group of vertices solved together, with the
    vertices of each group added up under "lane_vertices"), and of the
    batched clash test ("clash_calls", with the states it tests added up
    under "clash_states" and the pairs its exact test sees under
    "exact_pairs") in a sweep of `samples` states;
    under "lanes" the lane count of each propagate_lanes call of more than
    one lane (one lane goes through propagate), under
    "lane_passes" that of each fold pass over lanes, under "placements"
    the calls of place_panels and under "placed_lanes" the count of states
    placed as lanes."""
    calls = {"propagate": 0, "propagate_both_modes": 0, "vertex_lanes": 0, "clash_calls": 0,
             "clash_states": 0, "exact_pairs": 0, "lane_vertices": 0, "lanes": [],
             "lane_passes": [], "placements": 0, "placed_lanes": 0}
    for name in ("propagate", "propagate_both_modes"):
        fn = getattr(foldsim, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            lanes = _name == "propagate_both_modes" and isinstance(args[2], np.ndarray)
            calls["vertex_lanes" if lanes else _name] += 1
            if lanes:
                calls["lane_vertices"] += len(args[0].verts)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(foldsim, name, counted)
    lanes, fold_lanes, place = foldsim.propagate_lanes, foldsim._fold_lanes, foldsim.place_panels
    clashes, penetrates = foldsim._clashes, foldsim._penetrates

    def in_lanes(pattern, driving_rho, *args, **kwargs):
        if len(driving_rho) > 1:
            calls["lanes"].append(len(driving_rho))
        return lanes(pattern, driving_rho, *args, **kwargs)

    def lane_pass(pattern, driving_rho, *args):
        calls["lane_passes"].append(len(driving_rho))
        return fold_lanes(pattern, driving_rho, *args)

    def placed(pattern, rho):
        calls["placements"] += 1
        calls["placed_lanes"] += len(rho) if np.ndim(rho) == 2 else 0
        return place(pattern, rho)

    def clash_batch(pattern, states):
        calls["clash_calls"] += 1
        calls["clash_states"] += len(states)
        return clashes(pattern, states)

    def exact(T, N, ia, ib, tol):
        calls["exact_pairs"] += len(ia)
        return penetrates(T, N, ia, ib, tol)

    monkeypatch.setattr(foldsim, "propagate_lanes", in_lanes)
    monkeypatch.setattr(foldsim, "_fold_lanes", lane_pass)
    monkeypatch.setattr(foldsim, "place_panels", placed)
    monkeypatch.setattr(foldsim, "_clashes", clash_batch)
    monkeypatch.setattr(foldsim, "_penetrates", exact)
    return sweep_to_halt(pattern, samples=samples), calls


@pytest.fixture(scope="module")
def large_ortho():
    """The 34 x 34 orthodiagonal design of test_cli's test_large_ortho_design."""
    return _design({"type": "orthodiagonal",
                    "datum": {"builtin": "fig7-sine"}, "target": {"builtin": "fig7-tlnt"},
                    "n": 34, "m": 34, "theta": "auto", "eps": 0.2})


def _mv_kept(pattern, fn, d0):
    """fn(pattern, d0) and the M/V it sets, with the pattern's own M/V put
    back after."""
    mv = [c.mv for c in pattern.creases]
    try:
        rho = fn(pattern, d0)
        return rho, [c.mv for c in pattern.creases]
    finally:
        for c, m in zip(pattern.creases, mv):
            c.mv = m


def _near_flat_rays(sectors):
    """The two unit fold directions (4, 2), over (R, U, L, D), in which a
    degree-4 vertex of these sector angles leaves the flat state, from its
    sector angles alone: the null space of the first-order closure
    sum_i w_i u_i = 0, u_i the in-plane unit direction of crease i at angle
    phi_i, cut by the second-order closure
    sum_{i<j} w_i w_j sin(phi_j - phi_i) = 0."""
    phi = np.concatenate([[0.0], np.cumsum(sectors[:3])])
    null = np.linalg.svd(np.stack([np.cos(phi), np.sin(phi)]))[2][2:].T
    S = np.triu(np.sin(phi[None, :] - phi[:, None]), 1)
    lam, vec = np.linalg.eigh(null.T @ (S + S.T) @ null)
    assert lam[0] < 0 < lam[1]
    a, b = np.sqrt(lam[1]), np.sqrt(-lam[0])
    rays = null @ vec @ np.array([[a, a], [b, -b]])
    return rays / np.linalg.norm(rays, axis=0)


class TestBootstrap:
    @pytest.fixture
    def designs(self, fig5_design, fig7_design, large_ortho):
        return [fig5_design[0], fig7_design[0], large_ortho] + explore_designs(1)

    def test_walk_is_the_search(self, designs):
        # the walk's folds and M/V are the depth-first search's, bit for bit
        for pattern in designs:
            for d0 in (0.02, -0.02):
                got, got_mv = _mv_kept(pattern, bootstrap_mv, d0)
                want, want_mv = _mv_kept(pattern, design_oracle.bootstrap_mv, d0)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert got_mv == want_mv

    def test_folds_on_near_flat_rays(self, designs):
        # every vertex leaves flat along one of the two rays its sectors
        # allow, and with the design's M/V: in the bootstrap walk, and in
        # the fold from flat, whose branches `_fold_levels`' rule picks; at
        # d0 the rays are tangents, off the folds by O(d0 ** 2)
        for pattern in designs:
            want_mv = np.array([c.mv for c in pattern.creases])
            d0 = math.copysign(1e-4, want_mv[default_driving_crease(pattern)] or 1)
            walked, _ = _mv_kept(pattern, bootstrap_mv, d0)
            for rho in (walked, propagate(pattern, d0).rho):
                for cids, sectors in zip(pattern.vertex_creases.reshape(-1, 4),
                                         pattern.sectors.reshape(-1, 4)):
                    w = rho[cids] / np.linalg.norm(rho[cids])
                    rays = _near_flat_rays(sectors)
                    assert min(np.linalg.norm(w[:, None] - s * rays, axis=0).min()
                               for s in (1, -1)) <= 1e-8
                inner = want_mv != 0
                assert np.array_equal(np.where(rho >= 0, 1, -1)[inner], want_mv[inner])

    def test_failure_is_linear(self, large_ortho, monkeypatch):
        # two opposite sectors of vertex (18, 18) moved by +-1e-3 still sum
        # to 2 pi, but leave the vertex on no branch of its neighbours: the
        # walk raises there after one solve per vertex at most, where a
        # search that backs up over the vertices before it takes time
        # exponential in the grid's width
        pattern = copy.copy(large_ortho)
        solve, calls = foldsim.propagate_both_modes, [0]

        def counted(*args):
            calls[0] += 1
            assert calls[0] <= 34 * 34, "more than one vertex solve per vertex"
            return solve(*args)

        monkeypatch.setattr(foldsim, "propagate_both_modes", counted)
        for j in (0, 1):
            pattern.sectors = large_ortho.sectors.copy()
            pattern.sectors[17, 17, [j, j + 2]] += [1e-3, -1e-3]
            calls[0] = 0
            with pytest.raises(NotRigidFoldable, match=r"vertex \(18,18\)"):
                bootstrap_mv(pattern)


class TestCounts:
    # deterministic call counts of the 64-state sweeps; more calls than these
    # would be a regression of the halt search.  fig5 is swept with its first
    # vertex in closed form and from the root scan of design_oracle: the two
    # differ in the last bits, which moves the steps of the halt search.  The
    # march runs in blocks of 64 lanes, each guessed in one lane pass, then
    # re-scored against the state before each lane; a block ends one even step
    # past the first even step at or above the halt the vertex chain predicts
    # from flat (`_chain_halt`), so fig5's second block has 46 lanes and fig7's
    # first 40.  Its exact lanes run up to the first lane out of range, one
    # march step past the halt: scored against the state before it, that lane
    # picks the other mode at 8 of the 81 vertices, so it goes to `propagate`,
    # which raises.  It is lane 43 of fig5's second block (106 exact lanes, all
    # placed) and lane 37 of fig7's first (36 exact).  The 4 lanes after it are
    # guessed for nothing, and `propagate` makes only the flat state, that lane
    # and the halt search's states: the chain's halt and the float next to it
    # on fig5, fig7 and closed-form fig5, 4 more where the root scan's halt
    # lies 7 ulps above the chain's.  The 62 samples that are not march or
    # search states replay as lanes of one pass, each from the nearest march
    # or search state below it.  Each lane pass solves each of the 81 vertices
    # once for all its lanes, in 25 kernel calls: one per group of vertices of
    # one dependency level and one input slot.  Single vertex solves are those
    # of `propagate` and of the two chains, 45 per chain.  The march's lanes
    # are placed in chunks of PLACE_BLOCK = 16, and each chunk's even states
    # (8) are clash-tested in one batch; the search's states are placed and
    # clash-tested one at a time, and the replay is placed in chunks.  The
    # exact test sees the pairs the per-state triangle broadphase leaves
    # (`clash_oracle.candidate_pairs`)
    @pytest.mark.parametrize("design, bounds", [
        pytest.param("fig5_design", (4, 334, 8, 54, 14, 15_675), id="closed-form"),
        pytest.param("fig5_root_scan_design", (8, 658, 12, 58, 18, 18_443), id="root-scan"),
    ])
    def test_fig5_sweep_counts(self, design, bounds, request, monkeypatch):
        pattern, _ = request.getfixturevalue(design)
        traj, calls = _sweep_calls(pattern, monkeypatch)
        assert abs(traj.driving_values[-1] - RHO4) < 1e-6
        assert calls["propagate"] <= bounds[0]
        assert calls["propagate_both_modes"] <= bounds[1]
        assert calls["clash_calls"] == bounds[2]
        assert calls["clash_states"] == bounds[3]
        assert calls["placements"] == bounds[4]
        assert calls["exact_pairs"] == bounds[5]
        assert calls["lanes"] == [62]
        assert calls["lane_passes"] == [64, 46, 62]
        assert calls["vertex_lanes"] == 3 * 25
        assert calls["lane_vertices"] == 3 * 81
        exact = calls["placed_lanes"] - 62
        assert exact == 64 + 42
        assert sum(calls["lane_passes"][:2]) - exact == 4  # guessed past the halt

    def test_fig7_sweep_counts(self, fig7_design, monkeypatch):
        pattern, _ = fig7_design
        traj, calls = _sweep_calls(pattern, monkeypatch)
        assert traj.halt.halt_reason == "crease-at-pi"
        assert calls["propagate"] <= 4
        assert calls["propagate_both_modes"] <= 334
        assert calls["clash_calls"] == 4
        assert calls["clash_states"] == 19
        assert calls["placements"] == 10
        assert calls["exact_pairs"] == 4_118
        assert calls["lanes"] == [62]
        assert calls["lane_passes"] == [40, 62]
        assert calls["vertex_lanes"] == 2 * 25
        assert calls["lane_vertices"] == 2 * 81
        guess, exact = calls["lane_passes"][0], calls["placed_lanes"] - 62
        assert exact == 36
        assert guess - exact == 4  # guessed past the halt

    def test_fig7_replay_fills_lane_blocks(self, fig7_design, monkeypatch):
        # at 200 samples fig7's sample spacing is below the march step, yet
        # the 198 samples between flat and the halt replay in
        # ceil(198 / LANE_BLOCK) full passes, each sample from a march or
        # search state, not in waves chained from the samples below them
        traj, calls = _sweep_calls(fig7_design[0], monkeypatch, samples=200)
        assert len(traj.states) == 200
        assert calls["lanes"] == [LANE_BLOCK] * 3 + [198 - 3 * LANE_BLOCK]
        assert calls["lane_passes"] == [40] + calls["lanes"]

    @pytest.mark.parametrize("design, passes", [("fig5_design", [64, 46, 62]),
                                                ("fig7_design", [40, 62])])
    def test_six_libm_calls_per_vertex_lane(self, design, passes, request, monkeypatch):
        # the kernel takes tan and atan2 from math, lanes one element at a
        # time: every vertex-lane of each lane pass, and every one-state
        # solve, makes one tan and five atan2, mode -1's fold on the
        # opposite crease being mode +1's negated
        pattern, _ = request.getfixturevalue(design)
        libm, counts = types.SimpleNamespace(**vars(math)), {"tan": 0, "atan2": 0}
        for name in counts:
            def counted(*args, _fn=getattr(math, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            setattr(libm, name, counted)
        monkeypatch.setattr(kinematics, "math", libm)
        solve, fold_lanes = foldsim.propagate_both_modes, foldsim._fold_lanes
        solves, lane_passes = [], []

        def solved(v, j, x):
            before = dict(counts)
            out = solve(v, j, x)
            solves.append((np.ndim(x) > 0, np.size(x), counts["tan"] - before["tan"],
                           counts["atan2"] - before["atan2"]))
            return out

        def lane_pass(pattern, driving_rho, *args):
            lane_passes.append(len(driving_rho))
            return fold_lanes(pattern, driving_rho, *args)

        monkeypatch.setattr(foldsim, "propagate_both_modes", solved)
        monkeypatch.setattr(foldsim, "_fold_lanes", lane_pass)
        sweep_to_halt(pattern, samples=64)
        assert lane_passes == passes
        assert [(n, a) for _, n, _, a in solves] == [(t, 5 * t) for _, _, t, _ in solves]
        vertex_lanes = sum(n for lanes, n, _, _ in solves if lanes)
        assert vertex_lanes == pattern.rows * pattern.cols * sum(passes)
        floats = sum(1 for lanes, _, _, _ in solves if not lanes)
        assert floats > 0 and counts["tan"] + counts["atan2"] == 6 * (vertex_lanes + floats)

    def test_large_ortho_sweep_counts(self, large_ortho, monkeypatch):
        # the 34 x 34 spec of test_cli's test_large_ortho_design: 1,225
        # panels, of whose pairs the x-interval sweep lists 54,888 per
        # clash-tested state on average (the triangle sweep it replaces
        # listed 177,176 of 2,450 triangles).  Each lane pass solves the
        # 1,156 vertices in 100 kernel calls
        pattern = large_ortho
        calls = {"clash_calls": 0, "clash_states": 0, "pairs": 0, "lane_passes": 0,
                 "groups": 0, "vertices": 0, "exact_pairs": 0}
        clashes, sweep, penetrates = foldsim._clashes, foldsim.sweep_pairs, foldsim._penetrates
        fold_lanes, solve = foldsim._fold_lanes, foldsim.propagate_both_modes

        def lane_pass(*args):
            calls["lane_passes"] += 1
            return fold_lanes(*args)

        def counted_solve(v, *args):
            if isinstance(args[1], np.ndarray):
                calls["groups"] += 1
                calls["vertices"] += len(v.verts)
            return solve(v, *args)

        def clash_batch(pattern, states):
            calls["clash_calls"] += 1
            calls["clash_states"] += len(states)
            return clashes(pattern, states)

        def counted_sweep(*args, **kwargs):
            for i, j in sweep(*args, **kwargs):
                calls["pairs"] += len(i)
                yield i, j

        def exact(T, N, ia, ib, tol):
            calls["exact_pairs"] += len(ia)
            return penetrates(T, N, ia, ib, tol)

        monkeypatch.setattr(foldsim, "_clashes", clash_batch)
        monkeypatch.setattr(foldsim, "sweep_pairs", counted_sweep)
        monkeypatch.setattr(foldsim, "_penetrates", exact)
        monkeypatch.setattr(foldsim, "_fold_lanes", lane_pass)
        monkeypatch.setattr(foldsim, "propagate_both_modes", counted_solve)
        traj = sweep_to_halt(pattern, samples=16)
        assert traj.halt.halt_reason == "crease-at-pi"
        assert calls["clash_states"] == 38
        assert calls["clash_calls"] == 6
        assert calls["pairs"] == 2_085_730
        assert calls["exact_pairs"] == 273_785
        assert calls["lane_passes"] > 0
        assert calls["groups"] == 100 * calls["lane_passes"]
        assert calls["vertices"] == 34 * 34 * calls["lane_passes"]


class TestSweep:
    def test_fig5_halts_at_designed_column(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        traj = fig5_halt
        halt = traj.halt
        assert halt.halted and halt.halt_reason == "crease-at-pi"
        # the halting creases are exactly the left row stubs
        stubs = sorted(pattern.row_creases[1:pattern.rows + 1, 0].tolist())
        assert sorted(halt.residuals["halting_creases"]) == stubs
        # and no other crease reached pi first: at halt all others are below
        others = [abs(halt.rho[i]) for i in range(len(pattern.creases)) if i not in stubs]
        assert max(others) < np.pi - 1e-4

    def test_fig5_driving_halt_equals_rho4(self, fig5_halt):
        assert abs(fig5_halt.driving_values[-1] - RHO4) < 1e-6

    def test_trajectory_from_flat(self, fig5_halt):
        traj = fig5_halt
        assert np.abs(traj.states[0].rho).max() < 1e-12
        assert traj.states[-1].halted

    def test_fig7_halts_at_datum_column(self, fig7_design, fig7_halt):
        pattern, _ = fig7_design
        halt = fig7_halt.halt
        assert halt.halt_reason == "crease-at-pi"
        stubs = sorted(pattern.row_creases[1:pattern.rows + 1, 0].tolist())
        assert sorted(halt.residuals["halting_creases"]) == stubs

    def test_fig5_halt_matches_design_state(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        Va = pattern.design["halting_state"]["coords"]
        Vs = fig5_halt.halt.vertex_coords
        R, t = rigid_align(Vs, Va)
        assert np.abs((Vs @ R.T + t) - Va).max() < 1e-6

    def test_one_dof_continuity(self, small_parallel):
        pattern, _ = small_parallel
        sgn = pattern.creases[default_driving_crease(pattern)].mv or 1
        base = propagate(pattern, sgn * 0.8)
        for delta in (1e-3, 1e-6):
            st = propagate(pattern, sgn * (0.8 + delta), prev=base)
            move = np.abs(st.vertex_coords - base.vertex_coords).max()
            assert move < 50 * delta
            assert move > 0
            # strict function of the driving angle: all folds move
            interior = [i for i, c in enumerate(pattern.creases) if c.mv != 0]
            assert all(abs(st.rho[i] - base.rho[i]) > 0 for i in interior)

    def test_small_parallel_halts_at_rho4(self, small_parallel_halt):
        assert small_parallel_halt.halt.halt_reason == "crease-at-pi"
        assert abs(small_parallel_halt.driving_values[-1] - RHO4) < 1e-6

    @pytest.mark.parametrize("design, halt", [("fig5_design", "fig5_halt"),
                                              ("small_parallel", "small_parallel_halt")])
    def test_mv_is_the_sign_the_motion_folds(self, design, halt, request):
        # the left row stubs end at pi, where the halting state shows no
        # sign; the state before the halt shows the one the motion gives
        pattern, _ = request.getfixturevalue(design)
        before = request.getfixturevalue(halt).states[-2]
        interior = [i for i, c in enumerate(pattern.creases) if c.role != ROLE_BOUNDARY]
        assert all(np.abs(before.rho[interior]) > 1e-3)
        assert [pattern.creases[i].mv for i in interior] == \
            [1 if before.rho[i] > 0 else -1 for i in interior]

    def test_explore_3x12_halts_at_rho4(self):
        # the seed-1 parallel spec of size (3, 12) of the benchmark's explore
        # batch, theta as its auto scan picks it
        target = curves.exp_curve(257)
        spec = ParallelDesignSpec(
            datum=curves.space_arc(257),
            target=PolyCurve(target.samples * 0.6990870174183882, target.param),
            n_row=3, n_col=12, rho4=2.72295144949214, theta=1.2217304763960306, eps=10.0)
        pattern, _ = build_pattern(spec)
        traj = sweep_to_halt(pattern, samples=2)
        assert traj.halt.halt_reason == "crease-at-pi"
        assert abs(traj.driving_values[-1] - spec.rho4) < 1e-6

    def test_single_vertex_flat_foldable_halts_at_pi(self):
        spec = ParallelDesignSpec(datum=curves.space_arc(65), target=curves.exp_curve(65),
                                  n_row=1, n_col=1, rho4=RHO4, theta=np.deg2rad(73),
                                  eps=2.0)
        pattern, _ = build_pattern(spec)
        traj = sweep_to_halt(pattern, samples=4)
        assert traj.halt.halt_reason == "crease-at-pi"


class TestClash:
    def test_flat_state_empty(self, small_parallel):
        pattern, _ = small_parallel
        st = propagate(pattern, 0.0)
        assert clash_test(pattern, st) == []

    def test_mid_trajectory_clean(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        mid = fig5_halt.states[len(fig5_halt.states) // 2]
        assert clash_test(pattern, mid) == []

    def test_coincident_adjacent_panels_reported(self, small_parallel):
        pattern, _ = small_parallel
        st = propagate(pattern, 0.0)
        st.rho = st.rho.copy()
        idx = default_driving_crease(pattern)
        st.rho[idx] = np.pi  # fake a fully folded crease
        pair = tuple(sorted(pattern.crease_faces[idx].tolist()))
        assert pair in clash_test(pattern, st)

    @pytest.mark.parametrize("scale", [0.01, 0.001])
    def test_small_drawing_halts_at_its_crease(self, scale):
        # the clash tolerance scales with the diameter at every size, so
        # fig5 drawn at a small scale halts, as at scale 1, on a crease
        # reaching pi, not on a clash the tolerance of a larger drawing hides
        pattern = _design(dict(DEMOS["fig5"],
                               datum={"builtin": "fig4-spiralish", "scale": scale},
                               target={"builtin": "fig5-exp", "scale": scale}))
        assert pattern.diameter < 1.0
        traj = sweep_to_halt(pattern, samples=8)
        assert traj.halt.halt_reason == "crease-at-pi"
        checks = {c.check_id: c for c in run_pattern_checks(pattern, trajectory=traj)}
        assert checks["halt-fold"].ok


def _brute_force_clash(pattern, coords):
    """Every pair of triangles of distinct panels that share no vertex,
    through the exact triangle test: clash_test without its prefilters."""
    tol = CLASH_REL * pattern.diameter
    tris = []
    for f, q in enumerate(pattern.faces.reshape(-1, 4).tolist()):
        tris += [(f, q[:3]), (f, [q[0], q[2], q[3]])]
    hits = set()
    for (fa, ia), (fb, ib) in itertools.combinations(tris, 2):
        if fa != fb and not set(ia) & set(ib) and \
                _tri_tri_penetration(coords[ia].tolist(), coords[ib].tolist(), tol):
            hits.add((min(fa, fb), max(fa, fb)))
    return sorted(hits)


def _moved_in_plane(q, src, src_dir, dst, dst_dir):
    """Points q of the plane z = 0, turned and shifted in it so that the
    point src goes to dst and the direction src_dir to dst_dir."""
    a = math.atan2(dst_dir[1], dst_dir[0]) - math.atan2(src_dir[1], src_dir[0])
    R = np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0],
                  [0.0, 0.0, 1.0]])
    return (q - src) @ R.T + dst


class TestClashPenetration:
    def test_panel_pushed_through_another(self, fig5_design, fig5_halt):
        # the last panel, moved onto the first one and turned a quarter
        # about the first one's edge direction through its centre, pierces
        # it along a segment across its middle
        pattern, _ = fig5_design
        mid = fig5_halt.states[len(fig5_halt.states) // 2]
        st = propagate(pattern, mid.driving_rho, prev=mid)
        quads = pattern.faces.reshape(-1, 4)
        first, last = 0, len(quads) - 1
        assert not set(quads[first]) & set(quads[last])
        assert clash_test(pattern, st) == []
        qa = st.vertex_coords[quads[first]]
        c = qa.mean(axis=0)
        u = (qa[1] - qa[0]) / np.linalg.norm(qa[1] - qa[0])
        K = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
        R = np.eye(3) + K + K @ K       # quarter turn about u
        coords = st.vertex_coords.copy()
        coords[quads[last]] = c + (qa - c) @ R.T
        st.vertex_coords = coords
        assert (first, last) in clash_test(pattern, st)

    def test_matches_brute_force_on_perturbed_states(self, small_parallel):
        pattern, _ = small_parallel
        sgn = pattern.creases[default_driving_crease(pattern)].mv or 1
        rng = np.random.default_rng(11)
        hits = 0
        for d in (0.5, 1.5, 2.5):
            st = propagate(pattern, sgn * d)
            assert np.abs(st.rho).max() < np.pi - 1e-9
            base = st.vertex_coords
            for scale in np.linspace(0.005, 0.1, 8):
                noise = rng.normal(scale=scale * pattern.diameter, size=base.shape)
                st.vertex_coords = base + noise
                want = _brute_force_clash(pattern, st.vertex_coords)
                assert clash_test(pattern, st) == want
                hits += len(want)
        assert hits > 100

    @pytest.mark.parametrize("how", ["overlap", "edge-contact", "crossing"])
    def test_coplanar_panels(self, fig5_design, how):
        # in the flat state the last panel is turned and shifted in the
        # plane: centre onto the first panel's centre, edge along its edge,
        # overlaps it; laid against the first panel's edge 0 -> 1 from
        # outside, it only touches it; shifted, not turned, centre onto the
        # first panel's centre, it crosses it like an X with no vertex of
        # either inside the other.  Its neighbours stretch with it
        pattern, _ = fig5_design
        st = propagate(pattern, 0.0)
        assert np.abs(st.vertex_coords[:, 2]).max() == 0.0
        quads = pattern.faces.reshape(-1, 4)
        first, last = 0, len(quads) - 1
        qa, qb = st.vertex_coords[quads[first]], st.vertex_coords[quads[last]]
        coords = st.vertex_coords.copy()
        if how == "edge-contact":
            coords[quads[last]] = _moved_in_plane(qb, qb[1], qb[0] - qb[1], qa[0], qa[1] - qa[0])
        elif how == "overlap":
            coords[quads[last]] = _moved_in_plane(qb, qb.mean(axis=0), qb[1] - qb[0],
                                                  qa.mean(axis=0), qa[1] - qa[0])
        else:
            coords[quads[last]] = qb - qb.mean(axis=0) + qa.mean(axis=0)
        st.vertex_coords = coords
        got = clash_test(pattern, st)
        assert got == _brute_force_clash(pattern, coords)
        assert ((first, last) in got) is (how != "edge-contact")

    def test_block_boundaries(self, fig7_design, fig7_halt, monkeypatch):
        pattern, _ = fig7_design
        mid = fig7_halt.states[len(fig7_halt.states) // 2]
        st = propagate(pattern, mid.driving_rho, prev=mid)
        rng = np.random.default_rng(9)
        st.vertex_coords += rng.normal(scale=0.02 * pattern.diameter, size=st.vertex_coords.shape)
        want = clash_test(pattern, st)
        assert len(want) > 10
        for block in (1, 2, 7, 100):
            monkeypatch.setattr(foldsim, "_PAIR_BLOCK", block)
            monkeypatch.setattr(pattern_mod, "_PAIR_BLOCK", block)
            assert clash_test(pattern, st) == want


def _oracle_clash(pattern, st):
    """clash_test from the brute force over all triangle pairs, with the
    panels of every interior crease folded to within 1e-9 of pi."""
    fl, fr = pattern.crease_faces.T
    at_pi = (fl >= 0) & (fr >= 0) & (np.abs(st.rho) >= np.pi - 1e-9)
    coincident = {(min(a, b), max(a, b)) for a, b in zip(fl[at_pi].tolist(), fr[at_pi].tolist())}
    return sorted(coincident | set(_brute_force_clash(pattern, st.vertex_coords)))


def _penetrate_calls(monkeypatch):
    """The pair count of every foldsim._penetrates call, in order."""
    sizes, real = [], foldsim._penetrates

    def counted(T, N, ia, ib, tol):
        sizes.append(len(ia))
        return real(T, N, ia, ib, tol)

    monkeypatch.setattr(foldsim, "_penetrates", counted)
    return sizes


def _exact_test_calls(monkeypatch):
    """Per foldsim._clashes call, its states and the pairs (ia, ib) of every
    foldsim._penetrates call it made, in order."""
    calls, clashes, penetrates = [], foldsim._clashes, foldsim._penetrates

    def batch(pattern, states):
        calls.append((states, []))
        return clashes(pattern, states)

    def exact(T, N, ia, ib, tol):
        calls[-1][1].append((ia, ib))
        return penetrates(T, N, ia, ib, tol)

    monkeypatch.setattr(foldsim, "_clashes", batch)
    monkeypatch.setattr(foldsim, "_penetrates", exact)
    return calls


def _assert_reference_pairs(pattern, calls):
    """Each state's pairs in the exact test are those of the per-state
    triangle broadphase, `clash_oracle.candidate_pairs`, each once, and no
    call of the exact test holds more than 2 _PAIR_BLOCK pairs.  Returns
    the count of pairs tested."""
    ids = pattern.kept(foldsim._Triangles).ids
    n, tol = len(ids), CLASH_REL * pattern.diameter
    total = 0
    for states, pairs in calls:
        assert all(len(ia) <= 2 * foldsim._PAIR_BLOCK for ia, _ in pairs)
        ia, ib = (np.concatenate([np.zeros(0, int)] + [p[k] for p in pairs]) for k in (0, 1))
        for s, st in enumerate(states):
            mine = ia // n == s
            got = list(zip((ia[mine] % n).tolist(), (ib[mine] % n).tolist()))
            assert len(set(got)) == len(got)
            assert set(got) == candidate_pairs(ids, st.vertex_coords, tol)
        total += len(ia)
    return total


class TestCandidatePairs:
    # the pairs the exact test sees, against the triangle broadphase of
    # clash_oracle, state by state: every state of a real trajectory has no
    # hit, so equal hits alone would show little
    @pytest.mark.parametrize("fig, states", [("fig5", 54), ("fig7", 19)])
    def test_sweep_states(self, fig, states, request, monkeypatch):
        pattern, _ = request.getfixturevalue(f"{fig}_design")
        calls = _exact_test_calls(monkeypatch)
        sweep_to_halt(pattern, samples=2)
        assert sum(len(st) for st, _ in calls) == states
        assert _assert_reference_pairs(pattern, calls) > 1000

    def test_large_ortho_halt(self, large_ortho, monkeypatch):
        halt = sweep_to_halt(large_ortho, samples=2).halt
        calls = _exact_test_calls(monkeypatch)
        clash_test(large_ortho, halt)
        assert _assert_reference_pairs(large_ortho, calls) > 5000


class TestClashBatch:
    # the batched clash test, `foldsim._clashes`, on stacks of fig5 states:
    # the coplanar X of test_coplanar_panels, a crease at pi, a state whose
    # vertices lie on a unit lattice in the plane z = x + y (no pair
    # outlives the box and shared-vertex filters), a state from the
    # trajectory and a perturbed one
    @pytest.fixture(scope="class")
    def stack(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        quads = pattern.faces.reshape(-1, 4)
        flat = propagate(pattern, 0.0)
        cross = propagate(pattern, 0.0)
        qa, qb = flat.vertex_coords[quads[0]], flat.vertex_coords[quads[-1]]
        cross.vertex_coords = flat.vertex_coords.copy()
        cross.vertex_coords[quads[-1]] = qb - qb.mean(axis=0) + qa.mean(axis=0)
        at_pi = propagate(pattern, 0.0)
        at_pi.rho = flat.rho.copy()
        at_pi.rho[default_driving_crease(pattern)] = np.pi
        lattice = propagate(pattern, 0.0)
        r, c = np.indices(pattern.ext_id.shape)
        lattice.vertex_coords = np.zeros_like(flat.vertex_coords)
        lattice.vertex_coords[pattern.ext_id] = np.stack([c, r, r + c], axis=-1)
        mid = fig5_halt.states[len(fig5_halt.states) // 2]
        noisy = propagate(pattern, mid.driving_rho, prev=mid)
        noisy.vertex_coords = noisy.vertex_coords + np.random.default_rng(9).normal(
            scale=0.02 * pattern.diameter, size=noisy.vertex_coords.shape)
        return pattern, [cross, lattice, at_pi, mid, noisy, lattice]

    def test_equals_clash_test_and_oracle(self, stack):
        pattern, states = stack
        got = foldsim._clashes(pattern, states)
        assert got == [clash_test(pattern, st) for st in states]
        assert (0, len(pattern.faces.reshape(-1, 4)) - 1) in got[0]
        hinge = tuple(sorted(pattern.crease_faces[default_driving_crease(pattern)].tolist()))
        assert got[1:4] == [[], [hinge], []]
        assert len(got[4]) > 100
        # the oracle's brute force takes about 0.7 s a state: the states
        # that only this test makes
        assert got[:3] == [_oracle_clash(pattern, st) for st in states[:3]]

    def test_lattice_leaves_no_pair(self, stack, monkeypatch):
        pattern, states = stack
        sizes = _penetrate_calls(monkeypatch)
        assert foldsim._clashes(pattern, [states[1]] * 3) == [[]] * 3
        assert sizes == []

    def test_flushes_at_pair_block(self, stack, monkeypatch):
        # 12 perturbed states hold more than _PAIR_BLOCK candidate pairs;
        # with the block cut down, here and in the x-interval sweep, the
        # stack flushes within one state too
        pattern, states = stack
        rng = np.random.default_rng(4)
        noisy = []
        for _ in range(12):
            st = propagate(pattern, states[3].driving_rho, prev=states[3])
            st.vertex_coords = st.vertex_coords + rng.normal(
                scale=0.02 * pattern.diameter, size=st.vertex_coords.shape)
            noisy.append(st)
        big = states + noisy
        want = [clash_test(pattern, st) for st in big]
        sizes = _penetrate_calls(monkeypatch)
        assert foldsim._clashes(pattern, big) == want
        assert len(sizes) > 1 and sum(sizes) > foldsim._PAIR_BLOCK
        for block in (7, 100, 1000):
            monkeypatch.setattr(foldsim, "_PAIR_BLOCK", block)
            monkeypatch.setattr(pattern_mod, "_PAIR_BLOCK", block)
            sizes.clear()
            assert foldsim._clashes(pattern, states) == want[:len(states)]
            assert len(sizes) > 1


    def test_exact_test_sees_reference_pairs(self, stack, monkeypatch):
        # the stack with 12 perturbed copies of its trajectory state, as
        # test_flushes_at_pair_block stacks them, in one batch
        pattern, states = stack
        rng = np.random.default_rng(4)
        noisy = []
        for _ in range(12):
            st = propagate(pattern, states[3].driving_rho, prev=states[3])
            st.vertex_coords = st.vertex_coords + rng.normal(
                scale=0.02 * pattern.diameter, size=st.vertex_coords.shape)
            noisy.append(st)
        calls = _exact_test_calls(monkeypatch)
        foldsim._clashes(pattern, states + noisy)
        assert _assert_reference_pairs(pattern, calls) > foldsim._PAIR_BLOCK


class TestMemory:
    # the traced peak of one warm 64-state sweep: the march's lane passes,
    # placement chunks and clash batches and the replay.  The bounds were
    # set at peaks of 2.34 MB on fig5 and 1.96 MB on fig7, with under 10 %
    # to spare; placing from cached constants, the peaks are 2.33 MB and
    # 1.74 MB.  A change that batches more must declare its memory
    @pytest.mark.parametrize("fig, bound", [("fig5", 2.55e6), ("fig7", 2.13e6)])
    def test_sweep_peak(self, fig, bound, request):
        pattern, _ = request.getfixturevalue(f"{fig}_design")
        sweep_to_halt(pattern, samples=64)
        tracemalloc.start()
        try:
            sweep_to_halt(pattern, samples=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def _relabelled(pattern, seed):
    """The pattern's FOLD export without its curvefold:* fields, its vertex
    ids and faces scrambled, imported: a re-gridded, relabelled copy."""
    doc, _ = scrambled(bare_document(export_fold(pattern)), np.random.default_rng(seed))
    return import_fold(json.dumps(doc))[0]


def _assert_placed_as_oracle(pattern, rho):
    """place_panels returns the oracle's coordinates, bit for bit, in the
    same shape, and the same residual dicts; returns the coordinates."""
    (got, got_res), (want, want_res) = (f(pattern, rho) for f in (place_panels,
                                                                 placement_oracle.place_panels))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def bits(res):
        return [{k: np.float64(v).tobytes() for k, v in r.items()}
                for r in (res if isinstance(res, list) else [res])]
    assert type(got_res) is type(want_res) and bits(got_res) == bits(want_res)
    return got


@pytest.fixture(scope="module")
def fig5_bare(fig5_design):
    return _relabelled(fig5_design[0], seed=5)


class TestPlacement:
    # every placement equals tests/placement_oracle.py, the placement before
    # its per-pattern constants were cached: halt states where a session
    # fixture has them, the flat state and seeded random folds, as one
    # (E,) state and as 1, 3 and 16 lanes
    @pytest.mark.parametrize("design", ["fig5_design", "fig7_design", "small_parallel",
                                        "large_ortho", "fig5_bare"])
    def test_bit_equal_to_oracle(self, design, request):
        pattern = request.getfixturevalue(design)
        pattern = pattern if design in ("large_ortho", "fig5_bare") else pattern[0]
        E = len(pattern.creases)
        rng = np.random.default_rng(0)
        rho = np.concatenate([np.zeros((1, E)), rng.uniform(-np.pi, np.pi, (15, E))])
        if design in ("fig5_design", "fig7_design"):
            halt = request.getfixturevalue(design.replace("design", "halt"))
            rho[1:1 + len(halt.states)] = [st.rho for st in halt.states]
        for lanes in (1, 3, 16):
            _assert_placed_as_oracle(pattern, rho[:lanes])
        for state in rho[[0, 1, 7, 15]]:
            _assert_placed_as_oracle(pattern, state)

    def test_constants_follow_the_pattern(self, small_parallel):
        # one pattern object placed, edited in place, and placed again: its
        # vertices moved, its hinge creases reversed, then every array
        # replaced by a relabelled re-import's
        pattern = copy.deepcopy(small_parallel[0])
        rho = np.random.default_rng(3).uniform(-2.0, 2.0, (3, len(pattern.creases)))
        first = _assert_placed_as_oracle(pattern, rho)
        pattern.vertices *= 1.25
        moved = _assert_placed_as_oracle(pattern, rho)
        assert not np.array_equal(moved, first)
        for c in pattern.kept(foldsim.placement_order)[0][:, 2].tolist():
            cr = pattern.creases[c]
            cr.u, cr.v = cr.v, cr.u
        assert not np.array_equal(_assert_placed_as_oracle(pattern, rho), moved)
        other = _relabelled(small_parallel[0], seed=7)
        for f in dataclasses.fields(other):
            setattr(pattern, f.name, getattr(other, f.name))
        assert np.array_equal(_assert_placed_as_oracle(pattern, rho),
                              place_panels(other, rho)[0])


_COORD = hs.one_of(hs.integers(-4, 4).map(lambda k: k / 4.0),
                   hs.floats(-1.0, 1.0, allow_nan=False))
_POINT = hs.lists(_COORD, min_size=3, max_size=3).map(lambda p: np.array(p, dtype=float))


@hs.composite
def _triangle_pair(draw):
    """Two triangles, generic or in one of the cases the pair test must
    decide as the scalar test does: a shared plane, contact along an edge,
    zero area, nearly parallel planes, one triangle tiny beside the
    other's plane."""
    kind = draw(hs.sampled_from(["any", "plane", "edge", "zero-area", "parallel", "tiny"]))
    p = [draw(_POINT) for _ in range(3)]
    q = [draw(_POINT) for _ in range(3)]
    if kind == "plane":
        # one plane z = h, with the axes permuted
        h, perm = draw(_COORD), draw(hs.permutations(range(3)))
        p, q = ([np.array([v[0], v[1], h])[perm] for v in tri] for tri in (p, q))
    elif kind == "edge":
        # q has two vertices on the line of p's edge 0 -> 1
        s, t = draw(_COORD), draw(_COORD)
        q[0], q[1] = p[0] + s * (p[1] - p[0]), p[0] + t * (p[1] - p[0])
    elif kind == "zero-area":
        s = draw(_COORD)
        p[2] = p[0] + s * (p[1] - p[0])
    elif kind == "parallel":
        # q moved into p's plane, then off it by up to 1e-3 and tilted
        n = np.cross(p[1] - p[0], p[2] - p[0])
        if np.linalg.norm(n) > 0.0:
            n = n / np.linalg.norm(n)
            off = draw(hs.floats(-1e-3, 1e-3))
            tilt = draw(hs.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
            q = [v - np.dot(v - p[0], n) * n + (off + k * tilt) * n for k, v in enumerate(q)]
    elif kind == "tiny":
        # p shrunk about a point of q's plane and lifted off it, within one
        # of the tolerances or not: near q's plane, while q is far from p's
        f = draw(hs.sampled_from([1e-16, 1e-12, 1e-10, 1e-6, 1e-4]))
        lift = draw(hs.sampled_from([0.0, 1e-10, 5e-4, 0.1]))
        s, t = draw(_COORD), draw(_COORD)
        n = np.cross(q[1] - q[0], q[2] - q[0])
        n = n / max(np.linalg.norm(n), 1e-300)
        at = q[0] + s * (q[1] - q[0]) + t * (q[2] - q[0]) + lift * n
        p = [at + f * (v - p[0]) for v in p]
    if draw(hs.booleans()):
        p, q = q, p
    return np.array([p, q])


class TestPairTest:
    # a vertex whose cross product with the other triangle's first edge
    # squares to tol^2 exactly is not strictly inside
    @example([np.array([[[0.5, 0.125, 0.0], [0.5, -1.0, 0.0], [0.6, -1.0, 0.0]],
                        [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]])], 0.25)
    # coplanar triangles crossing as a six-pointed star: no vertex of one
    # is inside the other, and their edges cross
    @example([np.array([[[0.0, 1.0, 0.0], [-0.875, -0.5, 0.0], [0.875, -0.5, 0.0]],
                        [[0.0, -1.0, 0.0], [0.875, 0.5, 0.0], [-0.875, 0.5, 0.0]]])], 1e-9)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(hs.lists(_triangle_pair(), min_size=1, max_size=16),
           hs.sampled_from([1e-9, 1e-3, 0.25]))
    def test_matches_scalar_oracle(self, pairs, tol):
        T = np.concatenate(pairs)
        ia = np.arange(0, len(T), 2)
        axis_major = T.transpose(2, 1, 0)
        got = _penetrates(axis_major, _unit_normals(axis_major), ia, ia + 1, tol)
        want = [_tri_tri_penetration(T[a].tolist(), T[a + 1].tolist(), tol) for a in ia]
        assert got.tolist() == want


class TestExtract:
    def test_flat_rows_are_pattern_lines(self, small_parallel):
        pattern, _ = small_parallel
        st = propagate(pattern, 0.0)
        row = st.vertex_coords[pattern.line_ids("row", 1)]
        assert len(row) == pattern.cols
        assert np.abs(row[:, 2]).max() < 1e-12

    def test_fig4_row_reproduces_partition(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        halt = fig5_halt.halt
        part = partition_uniform(curves.space_arc(), 9)
        row = halt.vertex_coords[pattern.line_ids("row", 1, include_boundary=True)]
        l, b, th = measure_polyline(row)
        assert np.abs(l - part.lengths).max() / part.lengths.max() < 1e-6
        assert np.abs(b - part.turn_angles).max() < 1e-6
        dd = np.abs(((th - part.dihedrals + np.pi) % (2 * np.pi)) - np.pi)
        assert dd.max() < 1e-6

    def test_column_coplanar_at_halt(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        halt = fig5_halt.halt
        for i in range(1, pattern.cols + 1):
            col = halt.vertex_coords[pattern.line_ids("column", i)]
            q = col - col.mean(axis=0)
            res = np.linalg.svd(q, compute_uv=False)[-1]
            assert res / pattern.diameter < 1e-8

    def test_opposite_row_folds(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        halt = fig5_halt.halt
        for r in range(1, pattern.rows):
            for c in range(1, pattern.cols + 1):
                a, b = pattern.row_creases[r:r + 2, c - 1]
                assert abs(halt.rho[a] + halt.rho[b]) < 1e-9

    def test_row_fold_magnitudes_equal(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        for st in (fig5_halt.states[3], fig5_halt.halt):
            for r in range(1, pattern.rows + 1):
                mags = [abs(st.rho[pattern.row_creases[r, c]])
                        for c in range(1, pattern.cols)]
                assert np.ptp(mags) < 1e-8
