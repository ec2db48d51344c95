import numpy as np
import pytest

from curvefold import curves
from curvefold.errors import CreaseIntersection, NotAdmissible
from curvefold.geometry import PolyCurve, hausdorff, partition_uniform
from curvefold.kinematics import VertexAngles
from curvefold.parallel import ParallelDesignSpec, build_pattern, xi_list, xi_recurrence
from curvefold.pattern import check_embeddable
from support import column_curves, design_row, is_flat_foldable

RHO4 = 5 * np.pi / 6
THETA5 = np.deg2rad(73.0)


def polygon_arc_curve(n_seg=7, beta=2.6):
    """Planar polyline turning the same way with equal angles: the discrete
    piecewise-spiral datum.  Uniform partition with n = n_seg - 2 lands
    exactly on the corners."""
    step = np.pi - beta
    headings = np.cumsum([0.0] + [step] * (n_seg - 1))
    pts = np.vstack([[0.0, 0.0, 0.0],
                     np.cumsum(np.stack([np.cos(headings), np.sin(headings),
                                         np.zeros_like(headings)], axis=1), axis=0)])
    t = np.arange(len(pts), dtype=float)
    return PolyCurve(pts, t)


class TestDesignRow:
    def test_fig4_full_row(self, fig4_partition):
        verts, log = design_row(fig4_partition, RHO4)
        assert len(verts) == 9
        assert len(log) == 8
        assert sum(len(v.sectors) for v in verts) == 36
        for v in verts:
            assert abs(sum(v.sectors) - 2 * np.pi) < 1e-10
        for v in verts[1:]:
            assert is_flat_foldable(v)

    def test_first_vertex_family(self, fig4_partition):
        verts, _ = design_row(fig4_partition, RHO4)
        s = verts[0].sectors
        assert abs(s[1] + s[2] - np.pi) < 1e-12
        assert abs(s[0] + s[3] - np.pi) < 1e-12

    def test_spiral_datum_repeats_from_second_vertex(self):
        part = partition_uniform(polygon_arc_curve(), 6)
        assert np.ptp(part.turn_angles) < 1e-12
        verts, _ = design_row(part, RHO4)
        # consecutive interior vertices are left-right mirrors of each other,
        # so every second vertex repeats exactly
        for i in range(1, len(verts) - 1):
            a, b = verts[i].sectors[:2]
            an, bn = verts[i + 1].sectors[:2]
            assert abs(an - b) < 1e-9 and abs(bn - a) < 1e-9


class TestXiRecurrence:
    def test_fixed_point(self):
        xi = 0.8
        out = xi_recurrence(xi, (1.2, 1.4, 1.2, 1.4))
        assert abs(out - xi) < 1e-12

    def test_right_angle_quad(self):
        xi = 1.1
        out = xi_recurrence(xi, (np.pi / 2,) * 4)
        assert abs(out - xi) < 1e-12

    def test_against_folded_measurement(self, fig4_partition):
        # geometric halting frames vs the recurrence values
        from curvefold.parallel import _design_row_state
        st = _design_row_state(fig4_partition, RHO4)
        xs = xi_list(st.slots)
        for i in range(len(xs)):
            u, d = st.U[i], st.D[i]
            measured = np.arccos(np.clip(u @ d, -1, 1))
            assert abs(measured - xs[i]) < 1e-8

    def test_xi1_is_halting_column_angle(self, fig4_partition):
        verts, _ = design_row(fig4_partition, RHO4)
        xs = xi_list([v.sectors for v in verts])
        assert abs(xs[0] - abs(2 * verts[0].sectors[1] - np.pi)) < 1e-12


class TestColumnCurves:
    def test_spiral_gives_identical_curves(self):
        part = partition_uniform(polygon_arc_curve(), 6)
        verts, _ = design_row(part, RHO4)
        f1 = curves.exp_curve(65)
        theta = None
        from curvefold.geometry import search_theta
        xs = xi_list([v.sectors for v in verts])
        hits = search_theta(f1, xs[0], grid=180)
        if not hits:
            pytest.skip("no admissible theta for this spiral's xi1")
        profiles = column_curves(f1, hits[0], verts)
        for p in profiles[2:]:
            assert np.abs(p.f - profiles[1].f).max() < 1e-8

    def test_fig5_profiles_match_halting_state(self, fig5_design):
        pattern, report = fig5_design
        verts = [VertexAngles(tuple(s)) for s in pattern.sectors[0]]
        profiles = column_curves(curves.exp_curve(), THETA5, verts)
        # column staircase angle in the folded state equals the profile xi
        hs = pattern.design["halting_state"]
        V = hs["coords"]
        ext = pattern.ext_id
        for i in range(1, pattern.cols + 1):
            pts = np.array([V[ext[r, i]] for r in range(0, pattern.rows + 2)])
            for k in range(1, len(pts) - 1):
                u = pts[k - 1] - pts[k]
                v = pts[k + 1] - pts[k]
                ang = np.arccos(np.clip(u @ v / np.linalg.norm(u) / np.linalg.norm(v), -1, 1))
                assert abs(ang - profiles[i - 1].xi) < 1e-8

    def test_phi_matches_plane_normals(self, fig5_design):
        pattern, _ = fig5_design
        verts = [VertexAngles(tuple(s)) for s in pattern.sectors[0]]
        profiles = column_curves(curves.exp_curve(), THETA5, verts)
        hs = pattern.design["halting_state"]
        V = hs["coords"]
        ext = pattern.ext_id
        for i in range(1, pattern.cols):
            n1 = _col_plane_normal(V, ext, i, pattern.rows)
            n2 = _col_plane_normal(V, ext, i + 1, pattern.rows)
            measured = np.arccos(np.clip(abs(n1 @ n2), -1, 1))
            phi = profiles[i - 1].phi
            assert min(abs(measured - phi), abs(np.pi - measured - phi)) < 1e-8

    def test_inadmissible_theta_raises(self, fig4_partition):
        verts, _ = design_row(fig4_partition, RHO4)
        with pytest.raises(NotAdmissible):
            column_curves(curves.exp_curve(), np.pi, verts)


def _col_plane_normal(V, ext, i, rows):
    pts = np.array([V[ext[r, i]] for r in range(0, rows + 2)])
    q = pts - pts.mean(axis=0)
    return np.linalg.svd(q, compute_uv=False, full_matrices=False)[-1] if False else \
        np.linalg.svd(q)[2][-1]


class TestBuildPattern:
    def test_minimal_1x1(self):
        spec = ParallelDesignSpec(datum=curves.space_arc(65), target=curves.exp_curve(65),
                                  n_row=1, n_col=1, rho4=RHO4, theta=THETA5, eps=2.0)
        pattern, report = build_pattern(spec)
        assert pattern.rows == 1 and pattern.cols == 1
        assert check_embeddable(pattern)

    def test_fig5_full(self, fig5_design):
        pattern, report = fig5_design
        assert pattern.cols == 9 and pattern.rows == 9
        assert report.eps_datum < report.eps_target
        assert report.notes["halting_residuals"]["isometry"] < 1e-9
        assert report.notes["halting_residuals"]["xi_vs_recurrence"] < 1e-9

    def test_developability_and_kawasaki(self, fig5_design):
        pattern, _ = fig5_design
        assert pattern.developability_residual() < 1e-10
        for i in range(1, pattern.cols):  # columns beyond the halting one
            for k in range(pattern.rows):
                s = pattern.sectors[k, i]
                assert abs(s[0] + s[2] - np.pi) < 1e-10
                assert abs(s[1] + s[3] - np.pi) < 1e-10

    def test_oversized_target_intersects(self):
        t = np.linspace(0.0, 1.0, 65)
        big = PolyCurve(np.stack([t, 40.0 * np.exp(t)], axis=1), t)
        spec = ParallelDesignSpec(datum=curves.space_arc(65), target=big,
                                  n_row=6, n_col=6, rho4=RHO4, theta=THETA5, eps=50.0)
        with pytest.raises((CreaseIntersection, NotAdmissible)):
            build_pattern(spec)

    def test_eps_within_budget_fig5(self, fig5_design):
        _, report = fig5_design
        assert report.within_budget
