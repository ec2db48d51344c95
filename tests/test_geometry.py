import numpy as np
import pytest

from curvefold import curves
from curvefold.errors import (ClosedCurve, DegenerateTurn, NotAdmissible, OutOfRange,
                              TubeSelfIntersect)
from curvefold.geometry import (AffineParams, PolyCurve, affine_map,
                                affine_unmap, design_staircase, hausdorff, is_admissible,
                                measure_polyline, partition_tube,
                                partition_uniform, search_theta, staircase)
from support import circle


def line_curve(n=64):
    t = np.linspace(0.0, 1.0, n)
    return PolyCurve(np.stack([t, -t], axis=1), t)


class TestAffine:
    def test_identity(self):
        a = AffineParams(0.0, np.pi / 2)
        assert np.allclose(affine_map([1.0, 2.0], a), [1.0, 2.0])

    def test_pure_rotation(self):
        a = AffineParams(np.pi / 2, np.pi / 2)
        assert np.allclose(affine_map([1.0, 0.0], a), [0.0, -1.0], atol=1e-15)

    def test_hand_evaluated_shear(self):
        # independent evaluation of the two matrix products
        th, xi = np.deg2rad(70.0), np.deg2rad(60.0)
        p = np.array([1.0, 1.0])
        rot = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        shear = np.array([[1.0, -1.0 / np.tan(xi)], [0.0, 1.0 / np.sin(xi)]])
        expect = shear @ (rot @ p)
        got = affine_map(p, AffineParams(th, xi))
        assert np.allclose(got, expect, rtol=0, atol=1e-15)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        n = 10_000
        pts = rng.normal(size=(n, 2)) * 10
        for _ in range(32):
            th = rng.uniform(0, 2 * np.pi)
            xi = rng.uniform(0.05, np.pi - 0.05)
            a = AffineParams(th, xi)
            back = affine_unmap(affine_map(pts, a), a)
            err = np.abs(back - pts).max() / max(np.abs(pts).max(), 1.0)
            assert err < 1e-12

    def test_xi_margin_enforced(self):
        with pytest.raises(ValueError):
            AffineParams(0.0, 1e-6)


class TestAdmissible:
    def test_parabola_fig3_angles(self):
        ok, _ = is_admissible(curves.parabola(), AffineParams(np.deg2rad(70), np.deg2rad(60)))
        assert ok

    def test_descending_line(self):
        ok, _ = is_admissible(line_curve(), AffineParams(0.0, np.pi / 2))
        assert ok

    def test_closed_curve_raises(self):
        with pytest.raises(ClosedCurve):
            is_admissible(circle(), AffineParams(0.0, np.pi / 2))

    def test_invariant_under_resampling(self):
        f = curves.parabola(65)
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = AffineParams(rng.uniform(0, 2 * np.pi), rng.uniform(0.3, np.pi - 0.3))
            ok1, _ = is_admissible(f, a)
            ok2, _ = is_admissible(f.refined(4), a)
            assert ok1 == ok2


class TestSearchTheta:
    def test_fig3_contains_70deg(self):
        hits = search_theta(curves.parabola(), np.deg2rad(60.0), grid=360)
        step = 2 * np.pi / 360
        assert any(abs(t - np.deg2rad(70.0)) <= step for t in hits)

    def test_line_contains_zero(self):
        hits = search_theta(line_curve(), np.pi / 2, grid=4)
        assert 0.0 in hits

    def test_closed_propagates(self):
        with pytest.raises(ClosedCurve):
            search_theta(circle(), np.pi / 2, grid=8)

    def test_empty_result_is_legal(self):
        # nearly-circular open arc admits no monotone image at this xi
        t = np.linspace(0.0, 1.9 * np.pi, 200)
        arc = PolyCurve(np.stack([np.cos(t), np.sin(t)], axis=1), t)
        assert search_theta(arc, np.pi / 2, grid=90) == []


class TestStaircase:
    def test_single_corner_line(self):
        st = staircase(line_curve(), AffineParams(0.0, np.pi / 2), 1)
        assert len(st.points) == 3
        assert np.allclose(st.points[0], [0, 0])
        assert np.allclose(st.points[-1], [1, -1])
        # interior corner on the axis-aligned rectangle through the endpoints
        assert np.allclose(st.points[1], [1, 0]) or np.allclose(st.points[1], [0, -1])
        assert abs(st.turn_angles[0] - np.pi / 2) < 1e-12

    def test_fig3_turn_angles(self):
        a = AffineParams(np.deg2rad(70), np.deg2rad(60))
        st = staircase(curves.parabola(), a, 8)
        assert np.abs(st.turn_angles - np.deg2rad(60)).max() < 1e-9

    def test_hausdorff_decreases_with_n(self):
        f = curves.parabola()
        a = AffineParams(np.deg2rad(70), np.deg2rad(60))
        dense = f.refined(8)
        h16 = hausdorff(staircase(f, a, 16).points, dense)
        h32 = hausdorff(staircase(f, a, 32).points, dense)
        assert h32 <= h16 + 2e-3

    def test_not_admissible_raises(self):
        with pytest.raises(NotAdmissible):
            staircase(curves.parabola(), AffineParams(0.0, np.pi / 2), 4)

    def test_random_admissible_angles_equal_xi(self):
        rng = np.random.default_rng(11)
        f = curves.parabola(101)
        count = 0
        while count < 10:
            xi = rng.uniform(0.4, np.pi - 0.4)
            hits = search_theta(f, xi, grid=64)
            if not hits:
                continue
            th = hits[rng.integers(len(hits))]
            n = int(rng.integers(1, 12))
            st = staircase(f, AffineParams(th, xi), n)
            assert np.abs(st.turn_angles - xi).max() < 1e-9
            count += 1


    def test_design_staircase(self):
        # the fig3 staircase with its segment bases, whose axes alternate
        # from the phase; every xi of the design, not only the first, is
        # kept XI_MARGIN away from 0 and pi, under the family's own name
        f, theta, xi = curves.parabola(), np.deg2rad(70), np.deg2rad(60)
        for phase in "xy":
            stair, base = design_staircase(f, theta, [xi, 1.0], 8, phase, "test")
            want = staircase(f, AffineParams(theta, xi), 8, phase=phase)
            assert np.array_equal(stair.points, want.points)
            assert len(base) == 9 and min(base) > 0.0
        for bad in (1e-3, np.pi - 1e-3, 5e-4):
            with pytest.raises(OutOfRange, match=f"^row angle xi = {bad:.6g} too close"):
                design_staircase(f, theta, [xi, bad], 8, "x", "row angle")


class TestPartitionUniform:
    def test_collinear_rejected(self):
        t = np.linspace(0, 1, 32)
        straight = PolyCurve(np.stack([t, t, t], axis=1), t)
        with pytest.raises(DegenerateTurn):
            partition_uniform(straight, 3)

    def test_planar_zigzag_dihedrals(self):
        t = np.arange(8.0)
        zig = PolyCurve(np.stack([t, t % 2, np.zeros_like(t)], axis=1), t)
        part = partition_uniform(zig, 6)
        for th in part.dihedrals:
            assert min(abs(th), abs(th - np.pi), abs(th - 2 * np.pi)) < 1e-9

    def test_fig4_against_vector_oracle(self, fig4_partition):
        part = fig4_partition
        assert len(part.points) == 11
        # partition points track the exact curve to sampling accuracy
        u = np.linspace(-1.0, 0.5, 11)
        exact = np.stack([u + np.cos(u), -2 * u * u, np.sin(u)], axis=1)
        assert np.abs(part.points - exact).max() < 1e-4
        # independent recomputation straight from coordinates
        pts = part.points
        el = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.allclose(part.lengths, el, atol=1e-12)
        for i in range(1, 10):
            v1 = pts[i - 1] - pts[i]
            v2 = pts[i + 1] - pts[i]
            c = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
            assert abs(part.turn_angles[i - 1] - np.arccos(c)) < 1e-12
        for i in range(1, 9):
            axis = pts[i + 1] - pts[i]
            axis = axis / np.linalg.norm(axis)
            n1 = np.cross(pts[i] - pts[i - 1], pts[i + 1] - pts[i])
            n2 = np.cross(pts[i + 1] - pts[i], pts[i + 2] - pts[i + 1])
            n1 /= np.linalg.norm(n1)
            n2 /= np.linalg.norm(n2)
            th = np.arctan2(np.cross(n1, n2) @ axis, n1 @ n2) % (2 * np.pi)
            assert abs(part.dihedrals[i - 1] - th) < 1e-12


class TestPartitionTube:
    def test_straight_segment_symmetric(self):
        t = np.linspace(0, 1, 64)
        seg = PolyCurve(np.stack([t, np.zeros_like(t)], axis=1), t)
        part = partition_tube(seg, 3, 0.1)
        # interior turns are equal by symmetry; the end turns differ because
        # the endpoints stay on the curve
        assert np.ptp(part.turn_angles[1:-1]) < 1e-9
        assert np.all(part.turn_angles < np.pi)

    def test_sine_alternates_within_eps(self):
        part = partition_tube(curves.sine_curve(), 9, 0.1)
        assert len(part.points) == 11
        assert list(part.turn_signs[:4]) in ([1, -1, 1, -1], [-1, 1, -1, 1])
        assert hausdorff(part.points, curves.sine_curve().refined(4)) <= 0.1 + 0.05

    def test_eps_to_zero_converges(self):
        f = curves.sine_curve()
        base = partition_uniform(f, 5)
        tube = partition_tube(f, 5, 1e-6)
        assert np.abs(tube.points - base.points).max() < 2e-6

    def test_self_intersect_guard(self):
        with pytest.raises(TubeSelfIntersect):
            partition_tube(curves.sine_curve(), 5, 1.5)


class TestHausdorff:
    def test_identical_zero(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 1]])
        assert hausdorff(pts, pts) == 0.0

    def test_parallel_segments(self):
        a = np.array([[0.0, 0], [1, 0]])
        b = np.array([[0.0, 0.25], [1, 0.25]])
        assert abs(hausdorff(a, b) - 0.25) < 1e-12

    def test_fig3_staircase_vs_bruteforce(self):
        f = curves.parabola()
        a = AffineParams(np.deg2rad(70), np.deg2rad(60))
        st = staircase(f, a, 8)
        fast = hausdorff(st.points, f.refined(4))
        # dense-pair-distance oracle: full pairwise matrix over 4096-point
        # resamplings of both polylines (1.7e7 point pairs)
        def densify(pts, total):
            pts = np.asarray(pts, float)
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            w = np.maximum((seg / seg.sum() * total).astype(int), 2)
            out = [np.linspace(pts[i], pts[i + 1], w[i], endpoint=False)
                   for i in range(len(seg))]
            return np.vstack(out + [pts[-1:]])
        A = densify(st.points, 4096)
        B = densify(f.samples, 4096)
        d2 = ((A[:, None, 0] - B[None, :, 0]) ** 2
              + (A[:, None, 1] - B[None, :, 1]) ** 2)
        brute = np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max()))
        assert abs(fast - brute) / brute < 0.01

    def test_monotone_under_refinement(self):
        f = curves.parabola()
        a = AffineParams(np.deg2rad(70), np.deg2rad(60))
        st = staircase(f, a, 6)
        h1 = hausdorff(st.points, f.samples, per_segment=16)
        h2 = hausdorff(st.points, f.samples, per_segment=64)
        assert abs(h1 - h2) < 1e-2


class TestMeasurePolyline:
    def test_two_points(self):
        l, b, t = measure_polyline(np.array([[0.0, 0, 0], [1, 0, 0]]))
        assert len(l) == 1 and len(b) == 0 and len(t) == 0
