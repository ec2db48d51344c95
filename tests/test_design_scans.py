"""The design layer's array scans against their loop forms in
`design_oracle`, bit for bit, and the typed errors of the layout checks."""
import ast
import copy
import json
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import design_oracle as oracle
from curvefold import curves, foldsim, geometry, ortho, parallel
from curvefold.cli import DEMOS, _build_from_spec, main
from curvefold.errors import (ClosedCurve, CreaseIntersection, CurvefoldError, DegenerateTurn,
                              NoSolution)
from curvefold.geometry import (AffineParams, PolyCurve, hausdorff, is_admissible,
                                measure_polyline, min_dist_to_polyline, partition_uniform,
                                search_theta)
from curvefold.kinematics import solve_first_vertex
from curvefold.foldio import load_design_spec
from curvefold.pattern import (CreasePattern, assemble_grid, check_embeddable,
                               panel_distances, signed_fold_angles)
from curvefold.tolerances import ROOT_SCAN_MARGIN
from support import circle, explore_designs, explore_spec_texts


# the message of a bit-equality failure in a case that hangs on rounding
BLAS_ROUNDING = ("the array pass rounds differently from the loop form: numpy's matmul "
                 "dispatched a product shape to a BLAS kernel that rounds unlike the "
                 "loop's (see the bit-equality note of curvefold.geometry)")


def _walk(rng, n, dim):
    scale = 10.0 ** rng.uniform(-2, 2)
    return np.cumsum(rng.normal(size=(n, dim)), axis=0) * scale + rng.normal(size=dim)


class TestHausdorff:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("per_segment", [1, 2, 5, 16, 64])
    def test_random_polylines(self, dim, per_segment):
        rng = np.random.default_rng(100 * dim + per_segment)
        for _ in range(25):
            # past 2 * geometry._RUN segments, runs of segments are culled
            a = _walk(rng, int(rng.integers(1, 30)), dim)
            b = _walk(rng, int(rng.integers(1, 300)), dim)
            assert hausdorff(a, b, per_segment) == oracle.hausdorff(a, b, per_segment)
            for x, y in ((a, b), (b, a)):
                want = oracle.min_dist_to_polyline(oracle.densify(x, per_segment), y).max()
                assert geometry._directed_hausdorff(x, per_segment, y) == want

    @pytest.mark.parametrize("dim", [2, 3])
    def test_lone_sample_is_the_max(self, dim):
        # a segment against a tent over its middle: the max sits at the one
        # sample between the two first evaluated, which is evaluated alone
        rng = np.random.default_rng(40 + dim)
        for _ in range(40):
            a = np.zeros((2, dim))
            a[1, 0] = 2.0
            b = np.zeros((3, dim))
            b[:, 0] = [0.0, 1.0, 2.0]
            b[:, 1] = [0.1, 5.0, 0.1]
            a += rng.normal(size=a.shape) * 0.01
            b += rng.normal(size=b.shape) * 0.01
            want = oracle.min_dist_to_polyline(oracle.densify(a, 2), b).max()
            assert geometry._directed_hausdorff(a, 2, b) == want, BLAS_ROUNDING

    @pytest.mark.parametrize("dim", [2, 3])
    def test_single_points(self, dim):
        rng = np.random.default_rng(dim)
        for nb in (1, 2, 3, 40):
            a = rng.normal(size=dim)
            b = _walk(rng, nb, dim)
            for x, y in ((a, b), (b, a), (a, a[None, :] + 1.0)):
                assert hausdorff(x, y) == oracle.hausdorff(x, y)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_min_dist_to_polyline(self, dim):
        rng = np.random.default_rng(7 + dim)
        for n_pts in (1, 2, 3, 50, 20_000):
            P = rng.normal(size=(n_pts, dim)) * 3.0
            for n_v in (1, 2, 3, 300):
                V = _walk(rng, n_v, dim)
                got = min_dist_to_polyline(P, V)
                assert np.array_equal(got, oracle.min_dist_to_polyline(P, V))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_min_dist_few_points_long_polyline(self, dim):
        # two points far apart along a drifting polyline: each run of
        # segments is near one of them only, and on a few seeds a lone
        # row would round a minimum differently
        for seed in range(300):
            rng = np.random.default_rng(seed)
            V = np.cumsum(rng.normal(size=(130, dim)) + 3.0, axis=0)
            P = V[[20, 110]] + rng.normal(size=(2, dim)) * 3.0
            assert np.array_equal(min_dist_to_polyline(P, V),
                                  oracle.min_dist_to_polyline(P, V)), BLAS_ROUNDING

    def test_repeated_vertices(self):
        # a zero-length segment counts as its point (the loop form fails
        # on it); the distances are those to the polyline without it
        V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
        P = np.array([[0.5, 0.3], [1.2, 1.0], [3.0, -1.0], [1.0, 0.0]])
        want = oracle.min_dist_to_polyline(P, np.delete(V, 2, axis=0))
        assert np.allclose(min_dist_to_polyline(P, V), want, rtol=0.0, atol=1e-15)

    def test_design_inputs(self, fig4_partition):
        datum = curves.space_arc().refined(4)
        assert hausdorff(fig4_partition.points, datum) == \
            oracle.hausdorff(fig4_partition.points, datum)
        target = curves.exp_curve()
        st = geometry.staircase(target, AffineParams(np.deg2rad(73.0), 1.0), 9)
        for per_segment in (3, 64):
            assert hausdorff(st.points, target.refined(4), per_segment) == \
                oracle.hausdorff(st.points, target.refined(4), per_segment)
            assert hausdorff(st, target, per_segment) == \
                oracle.hausdorff(st, target, per_segment)

    @pytest.mark.parametrize("per_segment", [1, 3, 64])
    @pytest.mark.parametrize("segments", [2 * geometry._RUN, 2 * geometry._RUN + 1])
    def test_either_side_of_the_convex_bound(self, segments, per_segment):
        # up to 2 * _RUN segments of the target, the samples of a segment
        # are skipped by the convex bound; past it, by the Lipschitz rounds
        rng = np.random.default_rng(10 * segments + per_segment)
        assert geometry._Polyline(_walk(rng, segments + 1, 2)).short == \
            (segments <= 2 * geometry._RUN)
        for dim in (2, 3):
            for _ in range(8):
                V = _walk(rng, segments + 1, dim)
                a = _walk(rng, int(rng.integers(2, 40)), dim)
                want = oracle.min_dist_to_polyline(oracle.densify(a, per_segment), V).max()
                assert geometry._directed_hausdorff(a, per_segment, V) == want, BLAS_ROUNDING
                assert hausdorff(a, V, per_segment) == oracle.hausdorff(a, V, per_segment)

    def test_refined(self):
        for c in (curves.space_arc(), curves.exp_curve(65), curves.sine_curve(5)):
            for factor in (1, 2, 4, 8):
                got, want = c.refined(factor), oracle.refined(c, factor)
                assert np.array_equal(got.param, want.param)
                assert np.array_equal(got.samples, want.samples)

    def test_memory_bounded(self, fig4_partition):
        # the design's datum comparison: 1025 vertices against 11, 64 samples
        # a segment; no temporary may scale with samples x segments
        datum = curves.space_arc().refined(4)
        tracemalloc.start()
        try:
            hausdorff(fig4_partition, datum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestMeasurePolyline:
    def test_random_walks(self):
        rng = np.random.default_rng(13)
        for n in [2, 3, 4, 11] + list(rng.integers(2, 200, size=40)):
            for dim in (2, 3):
                pts = _walk(rng, int(n), dim)
                for got, want in zip(measure_polyline(pts), oracle.measure_polyline(pts)):
                    assert got.dtype == want.dtype and np.array_equal(got, want), BLAS_ROUNDING

    def test_degenerate_input(self):
        # a collinear triple raises at the first turn whose dihedral reads
        # it, a repeated point before any; a lone triple has no dihedral
        rng = np.random.default_rng(14)
        for at in (1, 2, 3, 5):
            pts = _walk(rng, 8, 3)
            pts[at + 1] = 2.0 * pts[at] - pts[at - 1]
            for measure in (measure_polyline, oracle.measure_polyline):
                with pytest.raises(DegenerateTurn,
                                   match=f"interior point {max(at - 1, 1)}$"):
                    measure(pts)
                with pytest.raises(ValueError, match="zero vector"):
                    measure(np.vstack([pts[:at], pts[at - 1:]]))
        line = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
        for got, want in zip(measure_polyline(line), oracle.measure_polyline(line)):
            assert np.array_equal(got, want)


class TestSearchTheta:
    @pytest.mark.parametrize("make, xi, grid", [
        (lambda: curves.parabola(), np.deg2rad(60.0), 360),
        (lambda: curves.exp_curve(), 1.0, 720),
        (lambda: curves.t_minus_ln(65), 0.7, 180),
        (lambda: curves.sine_curve(33), 2.0, 97),
        (lambda: curves.exp_curve(), 0.3, 1),
    ])
    def test_builtin_curves(self, make, xi, grid):
        f = make()
        assert search_theta(f, xi, grid) == oracle.search_theta(f, xi, grid)

    def test_random_curves(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            # monotone walks pass on a band of thetas; noisy ones on few
            steps = np.abs(rng.normal(size=(n - 1, 2))) * [1.0, -1.0]
            steps += rng.normal(size=steps.shape) * rng.choice([0.0, 0.05, 0.5])
            pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
            f = PolyCurve(pts, np.arange(n, dtype=float))
            xi = rng.uniform(0.1, np.pi - 0.1)
            grid = int(rng.integers(1, 800))
            hits = search_theta(f, xi, grid)
            assert hits == oracle.search_theta(f, xi, grid)
            for t in hits[:3] + [rng.uniform(0.0, 2 * np.pi)]:
                ok, img = is_admissible(f, AffineParams(t, xi))
                want_ok, want_img = oracle.is_admissible(f, AffineParams(t, xi))
                assert ok == want_ok
                assert np.array_equal(img, want_img)

    def test_ties_fail(self):
        # a flat (then a vertical) image step, in both orientations
        for steps in ([[1.0, -1.0], [1.0, 0.0], [1.0, -1.0]],
                      [[1.0, -1.0], [0.0, -1.0], [1.0, -1.0]]):
            pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
            for f in (PolyCurve(pts, np.arange(4.0)), PolyCurve(pts[::-1], np.arange(4.0))):
                a = AffineParams(0.0, np.pi / 2)
                assert is_admissible(f, a)[0] is False
                assert oracle.is_admissible(f, a)[0] is False

    def test_errors_as_before(self):
        with pytest.raises(ValueError):
            search_theta(curves.exp_curve(), 1e-6)
        for scan in (search_theta, lambda f, xi, grid: is_admissible(f, AffineParams(0.0, xi))):
            with pytest.raises(ClosedCurve):
                scan(circle(), 1.0, grid=8)
            with pytest.raises(ValueError):
                scan(curves.space_arc(), 1.0, grid=8)


def _first_vertex_mp(beta1, rho4, a2_near):
    """(alpha1, alpha2) at a 40-digit root of g, the equation that
    `design_oracle.solve_first_vertex` scans, bracketed within 1e-9 of
    a2_near."""
    with mpmath.workdps(40):
        b, r = mpmath.mpf(beta1), mpmath.mpf(rho4)

        def alpha1_of(a2):
            return mpmath.acos(mpmath.cos(a2) * mpmath.cos(b))

        def g(a2):
            a1 = alpha1_of(a2)
            x4 = (mpmath.cos(a1) * mpmath.cos(b) - mpmath.cos(a2)) / (mpmath.sin(a1) * mpmath.sin(b))
            return 2 * mpmath.acos(x4) - r

        a2 = mpmath.findroot(g, (a2_near - 1e-9, a2_near + 1e-9), solver="anderson")
        return alpha1_of(a2), a2


class TestRootScans:
    def test_first_vertex_random(self):
        rng = np.random.default_rng(3)
        solved = 0
        for _ in range(60):
            beta1 = rng.uniform(0.01, np.pi - 0.01)
            rho4 = rng.uniform(0.01, np.pi - 0.01)
            try:
                want = oracle.solve_first_vertex(beta1, rho4)
            except NoSolution:
                with pytest.raises(NoSolution):
                    solve_first_vertex(beta1, rho4)
                continue
            got = solve_first_vertex(beta1, rho4)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            for x, root in zip(got, _first_vertex_mp(beta1, rho4, want[1])):
                assert abs(mpmath.mpf(x) - root) <= 4 * np.spacing(float(root))
            solved += 1
        assert solved > 30
        for beta1, rho4 in ((1e-9, np.pi / 2), (np.pi - 1e-9, 2.0), (1.0, 1e-9)):
            with pytest.raises(NoSolution):
                oracle.solve_first_vertex(beta1, rho4)
            with pytest.raises(NoSolution):
                solve_first_vertex(beta1, rho4)

    @pytest.mark.parametrize("rho4", [5 * np.pi / 6, 2.7, 2.2])
    def test_row_state_fig4_datum(self, fig4_partition, rho4):
        st = parallel._design_row_state(fig4_partition, rho4)
        slots, U, D = oracle.design_row_state(fig4_partition, rho4)
        assert st.slots == slots
        assert np.array_equal(np.array(st.U), np.array(U))
        assert np.array_equal(np.array(st.D), np.array(D))

    def test_row_state_other_datums(self):
        for n in (3, 6, 12):
            part = partition_uniform(curves.space_arc(129), n)
            st = parallel._design_row_state(part, 2.7)
            slots, U, D = oracle.design_row_state(part, 2.7)
            assert st.slots == slots
            assert np.array_equal(np.array(st.U), np.array(U))
            assert np.array_equal(np.array(st.D), np.array(D))


    @pytest.mark.parametrize("seed", range(1, 6))
    def test_row_state_explore_partitions(self, seed):
        for text in explore_spec_texts(seed):
            kind, fields, _ = load_design_spec(text)
            if kind != "parallel-repeating":
                continue
            part = partition_uniform(fields["datum"], fields["n_row"])
            st = parallel._design_row_state(part, fields["rho4"])
            slots, U, D = oracle.design_row_state(part, fields["rho4"])
            assert st.slots == slots, BLAS_ROUNDING
            assert np.array_equal(np.array(st.U), np.array(U)), BLAS_ROUNDING
            assert np.array_equal(np.array(st.D), np.array(D)), BLAS_ROUNDING

    def test_row_state_root_on_a_grid_point(self, fig4_partition, monkeypatch):
        # every arc pi - x, for x a scan point in [pi/2, pi), makes
        # g(phi) = phi - x, exactly 0 at phi = x: the scan takes it as it
        # is, with no bisection
        x = np.linspace(ROOT_SCAN_MARGIN, np.pi - ROOT_SCAN_MARGIN, 720)[500]
        assert np.pi / 2 <= x < np.pi and x + (np.pi - x) - np.pi == 0.0
        monkeypatch.setattr(parallel, "_arcs_to", lambda dirs, v: np.full(len(dirs), np.pi - x))
        monkeypatch.setattr(oracle, "_arc", lambda u, v: np.pi - x)
        monkeypatch.setattr(parallel, "_matching_branch", lambda *args: None)
        st = parallel._design_row_state(fig4_partition, 2.7)
        slots, U, D = oracle.design_row_state(fig4_partition, 2.7)
        assert [s[1] for s in st.slots[1:]] == [float(x)] * (len(slots) - 1)
        assert st.slots == slots
        assert np.array_equal(np.array(st.U), np.array(U))
        assert np.array_equal(np.array(st.D), np.array(D))

    @pytest.mark.parametrize("size", [1, 2, 63, 720])
    def test_row_solve_rounds_alike_at_any_length(self, size):
        # the scan and the multisection evaluate g on arrays of different
        # lengths: each element must come out as it does alone
        rng = np.random.default_rng(size)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        w = parallel._plane_basis(axis, rng.normal(size=3))
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        phi = np.concatenate([np.linspace(ROOT_SCAN_MARGIN, np.pi - ROOT_SCAN_MARGIN, 360),
                              rng.uniform(0.0, np.pi, 360)])
        dirs = parallel._in_plane(axis, w, phi)
        arcs = parallel._arcs_to(dirs, v)
        for k in range(0, len(phi), size):
            part = slice(k, k + size)
            assert np.array_equal(parallel._in_plane(axis, w, phi[part]), dirs[part]), BLAS_ROUNDING
            assert np.array_equal(parallel._arcs_to(dirs[part], v), arcs[part]), BLAS_ROUNDING


def _design_counts(name, monkeypatch):
    """Calls of parallel._arcs_to, and calls and point-segment pairs of
    geometry._segment_dist, of one `build_pattern` of a demo."""
    counts = {"arcs_to": 0, "segment_dist": 0, "pairs": 0}
    arcs_to, segment_dist = parallel._arcs_to, geometry._segment_dist

    def counted_arcs(dirs, v):
        counts["arcs_to"] += 1
        return arcs_to(dirs, v)

    def counted_dist(Q, a, d, l2):
        counts["segment_dist"] += 1
        counts["pairs"] += Q.shape[-2] * int(np.prod(a.shape[:-1]))
        return segment_dist(Q, a, d, l2)

    monkeypatch.setattr(parallel, "_arcs_to", counted_arcs)
    monkeypatch.setattr(geometry, "_segment_dist", counted_dist)
    _build_from_spec(*load_design_spec(json.dumps(DEMOS[name])))
    monkeypatch.undo()
    return counts


class TestWorkCounts:
    """Deterministic work of a design, where wall time is too noisy to
    gate: the row solve's arc evaluations (728 on fig5 with one bisection
    step per call of g) and the Hausdorff distance's point-segment pairs
    (157,478 on fig5 and 109,466 on fig7 with gap rounds against every
    target and the set-up in every call)."""

    def test_fig5(self, monkeypatch):
        counts = _design_counts("fig5", monkeypatch)
        assert counts["arcs_to"] <= 152
        assert counts["segment_dist"] <= 15
        assert counts["pairs"] <= 94_188

    def test_fig7(self, monkeypatch):
        counts = _design_counts("fig7", monkeypatch)
        assert counts["arcs_to"] == 0
        assert counts["segment_dist"] <= 14
        assert counts["pairs"] <= 51_416


class TestStaircase:
    @pytest.mark.parametrize("phase", ["x", "y"])
    def test_corners(self, phase):
        f = curves.exp_curve()
        ok, img = is_admissible(f, AffineParams(np.deg2rad(73.0), 1.0))
        assert ok
        for n in range(1, 14):
            assert np.array_equal(geometry._staircase_corners(img, n, phase),
                                  oracle.staircase_corners(img, n, phase))


class TestCurvature:
    @pytest.mark.parametrize("make", [curves.sine_curve, curves.t_minus_ln, curves.exp_curve,
                                      lambda: curves.space_arc().samples[:, :2]])
    def test_builtin_curves(self, make):
        c = make()
        pts = c.samples if isinstance(c, PolyCurve) else c
        assert geometry._polyline_curvature(pts) == oracle.polyline_curvature(pts)

    def test_random_walks(self):
        rng = np.random.default_rng(12)
        for n in [1, 2, 3, 4, 17, 257] + list(rng.integers(5, 400, size=60)):
            pts = _walk(rng, n, 2) * 10.0 ** rng.uniform(-5, 3)
            if n > 3 and rng.random() < 0.3:
                pts[n // 2] = pts[n // 2 - 1]  # a repeated sample: a zero side
            assert geometry._polyline_curvature(pts) == oracle.polyline_curvature(pts)


def _outcome(check, pattern):
    try:
        return check(pattern)
    except CreaseIntersection as e:
        return (str(e), e.pair, e.suggestion)


class TestSignedFoldAngles:
    def test_folded_states(self, fig5_design, fig5_halt, fig7_design, fig7_halt):
        fig5 = fig5_design[0]
        cases = [(fig5, fig5.design["halting_state"]["coords"])]
        for (pattern, _), traj in ((fig5_design, fig5_halt), (fig7_design, fig7_halt)):
            cases += [(pattern, s.vertex_coords) for s in traj.states[1:]]
        for pattern, coords in cases:
            assert np.array_equal(signed_fold_angles(pattern, coords),
                                  oracle.signed_fold_angles(pattern, coords)), BLAS_ROUNDING


def _same_index(got, want, coords):
    assert [(c.u, c.v, c.role, c.mv) for c in got.creases] == \
        [(c.u, c.v, c.role, c.mv) for c in want.creases]
    for attr in ("vertices", "ext_id", "faces", "sectors", "row_creases", "col_creases",
                 "vertex_creases", "crease_faces"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr
    # the placement rows and depths, or the same error where a face is missed
    placed = _outcome(foldsim.placement_order, got)
    oracle_placed = _outcome(oracle.placement, want)
    assert isinstance(placed[0], str) == isinstance(oracle_placed[0], str)
    if isinstance(placed[0], str):
        assert placed == oracle_placed
    else:
        for a, b in zip([placed[0], *placed[1]], [oracle_placed[0], *oracle_placed[1]],
                        strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b), "placement"
    for a, b in zip(panel_distances(got, coords), oracle.panel_distances(want, coords)):
        assert np.array_equal(a, b), BLAS_ROUNDING


class TestGridIndex:
    def test_designs(self, fig5_design, fig7_design, small_parallel):
        fig4 = _build_from_spec(*load_design_spec(json.dumps(DEMOS["fig4"])))[0]
        patterns = [fig4, fig5_design[0], fig7_design[0], small_parallel[0]]
        rng = np.random.default_rng(11)
        for pattern in patterns + explore_designs(1):
            nodes = pattern.vertices[pattern.ext_id]
            grids = [nodes] + [np.rot90(nodes, k) for k in (1, 2, 3)]
            for grid in grids:
                coords = rng.normal(size=(len(pattern.vertices), 3))
                _same_index(assemble_grid(grid, pattern.design),
                            oracle.assemble_grid(grid, pattern.design), coords)

    def test_faces_winding_either_way(self, monkeypatch):
        # random and mirrored drawings mix faces of both windings, and
        # neighbouring faces of opposite winding claim the same crease side;
        # random drawings are not developable, so the check is switched off.
        # Mixed windings can be developable: the parallel designer draws
        # some, which check_embeddable rejects and FOLD import refuses
        monkeypatch.setattr(CreasePattern, "developability_residual", lambda self: 0.0)
        rng = np.random.default_rng(12)
        for rows, cols in ((1, 1), (1, 4), (3, 2), (5, 6)):
            grid = np.stack(np.meshgrid(np.arange(cols + 2.0), np.arange(rows + 2.0)), -1)
            for nodes in (grid, grid[:, ::-1], grid + rng.normal(size=grid.shape)):
                coords = rng.normal(size=(nodes.shape[0] * nodes.shape[1], 3))
                _same_index(assemble_grid(nodes, {}), oracle.assemble_grid(nodes, {}), coords)


#: the record fields of `CreasePattern.creases`
CREASE_FIELDS = {"u", "v", "role", "mv"}
ITERATORS = {"enumerate", "filter", "iter", "list", "map", "sorted", "tuple", "zip"}


def _per_crease_reads(source):
    """Lines of `source` that loop over `.creases` or read one crease
    record's field, `.creases[...].mv`."""
    def is_creases(node):
        return isinstance(node, ast.Attribute) and node.attr == "creases"

    found = []
    for node in ast.walk(ast.parse(source)):
        looped = (isinstance(node, (ast.For, ast.comprehension)) and is_creases(node.iter)
                  or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ITERATORS and any(map(is_creases, node.args)))
        record = (isinstance(node, ast.Attribute)
                  and (node.attr in CREASE_FIELDS and isinstance(node.value, ast.Subscript)
                       and is_creases(node.value.value)
                       or node.attr.startswith("__") and is_creases(node.value)))
        if looped or record:
            found.append((node.iter if isinstance(node, ast.comprehension) else node).lineno)
    return found


def test_no_per_crease_loop_in_the_library():
    # the library reads and writes whole columns of the crease records
    found = [f"{p.name}:{line}" for p in sorted(Path(curves.__file__).parent.glob("*.py"))
             for line in _per_crease_reads(p.read_text())]
    assert not found, found
    assert sorted(_per_crease_reads("[c.mv for c in pattern.creases]\n"
                                    "for c, x in zip(p.creases, rho):\n    pass\n"
                                    "s = pattern.creases[dc].mv or 1\n"
                                    "map(pattern.creases.__getitem__, idx)\n")) == [1, 2, 4, 5]
    assert _per_crease_reads("s = int(pattern.creases.mv[dc]) or 1\n"
                             "n = len(pattern.creases)\n"
                             "ends = pattern.crease_ends()[idx]\n") == []


#: the names a pattern goes by in the library, besides `self` in CreasePattern
PATTERN_NAMES = {"pattern", "pat"}
ATTR_CALLS = {"getattr", "setattr", "hasattr", "delattr", "vars"}


def _private_pattern_reads(source):
    """Lines of `source` that store or read a private attribute on a
    pattern outside `CreasePattern.kept`: `pattern._x`, `self._x` in
    CreasePattern, a pattern's `__dict__` or `vars`, and any
    `getattr(x, "_x")` (or setattr, hasattr, delattr)."""
    tree = ast.parse(source)
    inside, kept = set(), set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "CreasePattern":
            inside |= set(map(id, ast.walk(cls)))
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "kept":
                    kept |= set(map(id, ast.walk(fn)))

    def is_pattern(node):
        return isinstance(node, ast.Name) and (
            node.id in PATTERN_NAMES or node.id == "self" and id(node) in inside)

    found = []
    for node in ast.walk(tree):
        private = (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   and (node.attr == "__dict__" or not node.attr.startswith("__"))
                   and is_pattern(node.value))
        by_name = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ATTR_CALLS and node.args
                   and (node.func.id == "vars" and is_pattern(node.args[0])
                        or len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                        and str(node.args[1].value).startswith("_")))
        if (private or by_name) and id(node) not in kept:
            found.append(node.lineno)
    return found


def test_no_pattern_cache_outside_kept():
    # one store with one key: no module keeps its own cache on a pattern
    found = [f"{p.name}:{line}" for p in sorted(Path(curves.__file__).parent.glob("*.py"))
             for line in _private_pattern_reads(p.read_text())]
    assert not found, found
    assert sorted(_private_pattern_reads(
        "pattern._plan = (key, plan)\n"
        "cached = getattr(pattern, '_schedule', None)\n"
        "class CreasePattern:\n"
        "    def vertex_angles(self):\n"
        "        return self._table\n"
        "    def kept(self, build):\n"
        "        return self.__dict__.get('_kept') or setattr(self, '_kept', 1)\n"
        "x = pat.__dict__['_frames'] or vars(pattern)\n"
        "setattr(other, '_stacks', 1)\n")) == [1, 2, 5, 8, 8, 9]
    assert _private_pattern_reads(
        "class Schedule:\n"
        "    def __init__(self, pattern):\n"
        "        self._slot = pattern.kept(FoldPlan)\n"
        "class CreasePattern:\n"
        "    def kept(self, build):\n"
        "        store = self.__dict__.get('_kept')\n"
        "        self._kept = store\n"
        "n = len(pattern.creases) + pattern.__class__.__name__.count('_')\n") == []


def _names(source):
    """(name, line) of each name, attribute, keyword, argument, function
    and class of `source`."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.keyword: "arg", ast.arg: "arg",
              ast.FunctionDef: "name", ast.ClassDef: "name"}
    return [(getattr(node, fields[type(node)]), node.lineno)
            for node in ast.walk(ast.parse(source)) if type(node) in fields]


def test_one_owner_of_the_placement_order():
    # the panel placement order is decided at fold time by
    # foldsim.placement_order alone: pattern and foldio hold no placement
    # and no face adjacency to search, and foldsim no second holder of it
    banned = {"pattern.py": {"placement", "adjacency"}, "foldio.py": {"placement", "adjacency"},
              "foldsim.py": {"Schedule", "grid_schedule"}}
    for module, names in banned.items():
        source = (Path(foldsim.__file__).parent / module).read_text()
        found = [line for name, line in _names(source) if name in names]
        assert not found, (module, found)
    assert sorted(line for name, line in _names(
        "class Schedule:\n"
        "    placement: np.ndarray\n"
        "pat = CreasePattern(placement=rows)\n"
        "for face in pattern.adjacency:\n"
        "    x = placement_order(pattern)\n"
        "def grid_schedule(placement):\n"
        "    pass\n") if name in {"Schedule", "placement", "adjacency", "grid_schedule"}) \
        == [1, 2, 3, 4, 6, 6]


#: the most lines `foldsim.sweep_to_halt` may take, its docstring included
SWEEP_DRIVER_LINES = 40


def _nested_functions(source, name):
    """Lines of the functions and lambdas defined inside the top-level
    function `name` of `source`, and that function's length in lines."""
    (fn,) = [node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    nested = [node.lineno for node in ast.walk(fn) if node is not fn
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    return nested, fn.end_lineno - fn.lineno + 1


def test_sweep_to_halt_is_a_short_driver():
    # the sweep's phases are module-level functions over one store of
    # states, not closures over shared lists inside the driver
    nested, length = _nested_functions(Path(foldsim.__file__).read_text(), "sweep_to_halt")
    assert not nested, nested
    assert length <= SWEEP_DRIVER_LINES, length
    assert _nested_functions("def f():\n    def g():\n        pass\n    h = lambda: 1\n"
                             "    return g, h\n", "f") == ([2, 4], 5)


class TestEmbeddable:
    def test_designs_embed(self, fig5_design, fig7_design, small_parallel):
        for pattern, _ in (fig5_design, fig7_design, small_parallel):
            assert check_embeddable(pattern) is True
            assert oracle.check_embeddable(pattern) is True

    def test_perturbed_layouts(self, small_parallel, fig7_design):
        rng = np.random.default_rng(5)
        crossings = 0
        for base in (small_parallel[0], fig7_design[0]):
            for amp in (0.01, 0.05, 0.2, 0.5, 1.0):
                for _ in range(8):
                    pattern = copy.copy(base)
                    pattern.vertices = base.vertices + rng.normal(
                        size=base.vertices.shape) * amp * base.diameter / 10.0
                    got = _outcome(check_embeddable, pattern)
                    assert got == _outcome(oracle.check_embeddable, pattern)
                    crossings += got is not True
        assert crossings >= 30

    def test_block_boundaries(self, fig7_design, monkeypatch):
        from curvefold import pattern as pattern_mod
        base = fig7_design[0]
        pattern = copy.copy(base)
        rng = np.random.default_rng(9)
        pattern.vertices = base.vertices + rng.normal(size=base.vertices.shape) * 0.1
        want = _outcome(oracle.check_embeddable, pattern)
        assert want is not True
        for block in (1, 2, 7, 100):
            monkeypatch.setattr(pattern_mod, "_PAIR_BLOCK", block)
            assert _outcome(check_embeddable, pattern) == want


PARALLEL_SPEC = {
    "type": "parallel-repeating",
    "datum": {"builtin": "fig4-spiralish", "samples_n": 129},
    "target": {"builtin": "fig5-exp", "samples_n": 129},
    "n_row": 3, "n_col": 2,
    "rho4": 5 * np.pi / 6,
    "theta": float(np.deg2rad(73)),
    "eps": 1.0,
}
ORTHO_SPEC = {
    "type": "orthodiagonal",
    "datum": {"builtin": "fig7-sine"}, "target": {"builtin": "fig7-tlnt"},
    "n": 6, "m": 3, "theta": float(np.deg2rad(30)), "eps": 0.2,
}


def _design_exit(tmp_path, capsys, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code = main(["design", str(spec), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


class TestLayoutErrors:
    """Each layout consistency check, forced, ends in LayoutError and CLI
    exit 2 with a one-line message."""

    def _assert_layout_error(self, tmp_path, capsys, doc, text):
        code, err = _design_exit(tmp_path, capsys, doc)
        assert code == 2
        assert err.startswith("LayoutError: ") and text in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_specs_design_unpatched(self, tmp_path, capsys):
        for doc in (PARALLEL_SPEC, ORTHO_SPEC):
            assert _design_exit(tmp_path, capsys, doc)[0] == 0

    def test_staircase_corner_count(self, tmp_path, capsys, monkeypatch):
        corners = geometry._staircase_corners
        monkeypatch.setattr(geometry, "_staircase_corners",
                            lambda img, n, phase: corners(img, n, phase)[:-1])
        self._assert_layout_error(tmp_path, capsys, PARALLEL_SPEC, "corners")

    def test_staircase_axes(self, tmp_path, capsys, monkeypatch):
        segments = parallel.staircase_segments
        flip = {"x": "y", "y": "x"}
        monkeypatch.setattr(parallel, "staircase_segments", lambda stair, a: [
            (flip[axis], base) for axis, base in segments(stair, a)])
        self._assert_layout_error(tmp_path, capsys, PARALLEL_SPEC, "axes")

    def test_row_translation_drift(self, tmp_path, capsys, monkeypatch):
        draw = parallel._draw_pattern

        def uneven(spec, part, slots, m, seg_len):
            # columns no longer step down by matching lengths
            return draw(spec, part, slots, m, lambda k, i: seg_len(k, i) * (1.0 + 0.01 * i))

        monkeypatch.setattr(parallel, "_draw_pattern", uneven)
        self._assert_layout_error(tmp_path, capsys, PARALLEL_SPEC, "drift")

    def test_column_misalignment(self, tmp_path, capsys, monkeypatch):
        draw = ortho._draw_ortho

        def uneven(spec, part, col0, a1col, base, scales):
            return draw(spec, part, col0, a1col, base,
                        scales * (1.0 + 0.01 * np.arange(len(scales))))

        monkeypatch.setattr(ortho, "_draw_ortho", uneven)
        self._assert_layout_error(tmp_path, capsys, ORTHO_SPEC, "misalignment")

    def test_is_curvefold_error(self):
        from curvefold.errors import LayoutError
        assert issubclass(LayoutError, CurvefoldError)
