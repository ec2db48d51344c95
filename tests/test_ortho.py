import json

import numpy as np
import pytest

from curvefold import curves
from curvefold.cli import DEMOS, _build_from_spec
from curvefold.errors import DegenerateAngle, OutOfRange
from curvefold.foldio import load_design_spec
from curvefold.geometry import PolyCurve, partition_tube
from curvefold.ortho import (OrthoAngleGrid, OrthoDesignSpec, alpha_left,
                             build_ortho_pattern, default_alpha11, effective_stub_angles,
                             ortho_xi, propagate_grid, validate_alpha11)
from support import ortho_row_curves

THETA7 = np.deg2rad(30.0)


def circular_arc(radius=2.0, span=1.8, n=257):
    t = np.linspace(0.0, span, n)
    return PolyCurve(radius * np.stack([np.sin(t), 1.0 - np.cos(t)], axis=1), t)


def circular_arc_aligned(n_part, radius=2.0, span=1.8, per=36):
    """Sampled so a uniform (n_part+2)-point partition lands on exact
    circle points."""
    N = (n_part + 1) * per + 1
    return circular_arc(radius, span, N)


class TestAlphaLeft:
    def test_left(self):
        assert abs(alpha_left(np.pi / 2, "left") - 3 * np.pi / 4) < 1e-15

    def test_right(self):
        assert abs(alpha_left(np.pi / 2, "right") - np.pi / 4) < 1e-15

    def test_near_pi_limits(self):
        b = np.pi - 1e-6
        assert abs(alpha_left(b, "left") - np.pi) < 1e-6
        assert abs(alpha_left(b, "right") - 0.0) < 1e-6


class TestValidateAlpha11:
    def test_valid(self):
        assert validate_alpha11(2 * np.pi / 3, 3 * np.pi / 4)

    def test_opposite_side(self):
        assert not validate_alpha11(np.pi / 3, 3 * np.pi / 4)

    def test_boundary_strict(self):
        assert not validate_alpha11(np.pi / 2, 3 * np.pi / 4)
        assert not validate_alpha11(3 * np.pi / 4, 3 * np.pi / 4)

    def test_default_midpoint(self):
        for a10 in (0.4, 2.7):
            a11 = default_alpha11(a10)
            assert validate_alpha11(a11, a10)


class TestPropagateGrid:
    def test_uniform(self):
        g = propagate_grid([1.0, 1.0, 1.0], 1.0, m=4)
        assert np.abs(g.alpha - 1.0).max() < 1e-12

    def test_separability_two_rows(self):
        g = propagate_grid([0.7, 1.1], 0.9, m=3)
        t = np.tan(g.alpha)
        c = t[0, 0] / t[1, 0]
        for j in range(g.alpha.shape[1]):
            assert abs(t[0, j] / t[1, j] - c) < 1e-12 * abs(c)

    def test_constant_after_first_column(self):
        g = propagate_grid([0.7, 2.3, 0.8], 0.9, m=5)
        for j in range(2, 6):
            assert np.abs(g.alpha[:, j] - g.alpha[:, 1]).max() == 0.0

    def test_ratio_check_residual(self):
        g = propagate_grid([0.6, 2.4, 0.75, 2.5], 0.85, m=4)
        assert g.separability_residual() < 1e-10

    def test_residual_of_the_scalar_loop(self, fig7_design):
        # one array pass, bit for bit the loop over cells it replaced, on
        # fig7's grid and on random ones; a 0 / 0 ratio reads NaN
        rng = np.random.default_rng(3)
        grids = [np.array(fig7_design[0].design["grid_alpha"])]
        grids += [rng.uniform(0.1, 3.0, size=(n, m)) for n, m in ((2, 2), (5, 3), (1, 4))]
        for alpha in grids:
            t, worst = np.tan(alpha), 0.0
            for i in range(t.shape[0] - 1):
                for j in range(t.shape[1] - 1):
                    lhs, rhs = t[i, j] / t[i, j + 1], t[i + 1, j] / t[i + 1, j + 1]
                    worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
            assert OrthoAngleGrid(alpha).separability_residual() == worst
        assert np.isnan(OrthoAngleGrid(np.zeros((2, 2))).separability_residual())

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateAngle, match="left sector angle 1.5708 hits"):
            propagate_grid([1.0, np.pi / 2], 0.9)
        with pytest.raises(DegenerateAngle, match="alpha11 = 1.5708 hits"):
            propagate_grid([1.0, 1.0], np.pi / 2)
        with pytest.raises(DegenerateAngle, match="propagated sector angle hits"):
            propagate_grid([1.0, np.pi - 1e-5], 1e-6)


class TestOrthoXi:
    def test_right_angle_case(self):
        assert abs(ortho_xi(np.pi / 3, np.pi / 2) - np.pi / 2) < 1e-12

    def test_perpendicular_alpha(self):
        assert abs(ortho_xi(np.pi / 2, 1.1) - np.pi) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            ortho_xi(0.1, 0.5)

    def test_matches_folded_measurement(self, fig7_design, fig7_halt):
        pattern, report = fig7_design
        halt = fig7_halt.halt
        from curvefold.verify import measure_xi
        xs = report.notes["xi"]
        for i in range(1, pattern.rows + 1):
            vals = measure_xi(pattern, halt, i, axis="row")[1:]
            for v in vals:
                assert abs(v - xs[i - 1]) < 1e-8


class TestOrthoRowCurves:
    def test_identity_row(self):
        part = partition_tube(circular_arc_aligned(4), 4, 1e-12)
        col0 = effective_stub_angles(part)
        g = propagate_grid(col0, default_alpha11(col0[0]), m=3)
        from curvefold.geometry import search_theta
        xi1 = ortho_xi(g.alpha[0, 1], part.turn_angles[0])
        hits = search_theta(curves.t_minus_ln(65), xi1, grid=180)
        if not hits:
            pytest.skip("no admissible theta at this xi")
        rows, xis = ortho_row_curves(curves.t_minus_ln(65), hits[0], g, part)
        # circular datum: constant angle grid, every row curve identical
        for r in rows[1:]:
            assert np.abs(r - rows[0]).max() < 1e-9

    def test_scale_ratio_in_conjugated_frame(self, fig7_design):
        from curvefold.geometry import AffineParams, affine_map
        pattern, report = fig7_design
        part = partition_tube(curves.sine_curve(), 9, 0.1)
        alpha = np.asarray(pattern.design["grid_alpha"])
        g = propagate_grid(alpha[:, 0], alpha[0, 1], m=9)
        rows, xis = ortho_row_curves(curves.t_minus_ln(), THETA7, g, part)
        a1 = alpha[:, 1]
        base = affine_map(rows[0], AffineParams(THETA7, xis[0]))
        for i, r in enumerate(rows):
            img = affine_map(r, AffineParams(THETA7, xis[i]))
            scale = np.sin(a1[0]) / np.sin(a1[i])
            assert np.abs(img - scale * base).max() < 1e-9


class TestBuildOrtho:
    def test_minimal(self):
        from curvefold.geometry import search_theta
        part = partition_tube(curves.sine_curve(65), 1, 0.3)
        col0 = effective_stub_angles(part)
        g = propagate_grid(col0, default_alpha11(col0[0]), m=1)
        xi1 = ortho_xi(g.alpha[0, 1], part.turn_angles[0])
        hits = search_theta(curves.t_minus_ln(65), xi1, grid=180)
        assert hits, "no admissible theta for the minimal design"
        spec = OrthoDesignSpec(datum=curves.sine_curve(65), target=curves.t_minus_ln(65),
                               n=1, m=1, theta=hits[0], eps=0.6)
        pattern, report = build_ortho_pattern(spec)
        assert pattern.rows == 1 and pattern.cols == 1

    def test_fig7_full(self, fig7_design):
        pattern, report = fig7_design
        assert pattern.rows == 9 and pattern.cols == 9
        assert report.notes["separability"] < 1e-10
        assert report.eps_datum < report.eps_target

    def test_alpha11_inequalities_enforced(self):
        spec = OrthoDesignSpec(datum=curves.sine_curve(65), target=curves.t_minus_ln(65),
                               n=4, m=3, theta=THETA7, eps=0.3, alpha11=np.pi / 8)
        with pytest.raises(DegenerateAngle):
            build_ortho_pattern(spec)

    @pytest.mark.parametrize("alpha11", (2.9, 3.0))
    def test_alpha11_inequalities_enforced_with_theta_auto(self, alpha11):
        # the theta search runs the same design prelude, halting check
        # included, so both theta forms reject alpha11 alike
        errors = []
        for theta in ("auto", 0.5236):
            doc = dict(DEMOS["fig7"], alpha11=alpha11, theta=theta)
            with pytest.raises(DegenerateAngle) as e:
                _build_from_spec(*load_design_spec(json.dumps(doc)))
            errors.append(str(e.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"alpha11 = {alpha11:.6g} violates the halting inequalities")

    def test_piecewise_circular_constant_angles(self):
        # constant-curvature datum, uniform on-curve partition in the
        # tube limit: the sector labels, normalized to one measurement
        # side per the accordion alternation, are exactly constant
        part = partition_tube(circular_arc_aligned(6), 6, 1e-12)
        assert np.ptp(part.turn_angles) < 1e-10
        col0 = effective_stub_angles(part)
        g = propagate_grid(col0, default_alpha11(col0[0]), m=3)
        for col in (g.alpha[:, 0], g.alpha[:, 1]):
            norm = np.where(np.arange(6) % 2 == 0, col, np.pi - col)
            assert np.ptp(norm) < 1e-10

    def test_straight_column_lines(self, fig7_design):
        pattern, _ = fig7_design
        ext = pattern.ext_id
        P = pattern.vertices
        for j in range(1, pattern.cols + 1):
            xs = [P[ext[r, j]][0] for r in range(0, pattern.rows + 2)]
            assert np.ptp(xs) < 1e-9 * max(1.0, pattern.diameter)

    def test_non_alternating_turns_supported(self):
        # a circular datum never alternates its turn sense, so every
        # consecutive pair repeats: the relative-sign rule flips the stub
        # side at every row and the pattern still folds rigidly
        from curvefold.geometry import search_theta
        gam = circular_arc_aligned(5)
        part = partition_tube(gam, 5, 0.02)
        signs = part.turn_signs
        assert all(signs[i] == signs[i + 1] for i in range(len(signs) - 1))
        col0 = effective_stub_angles(part)
        g = propagate_grid(col0, default_alpha11(col0[0]), m=3)
        xi1 = ortho_xi(g.alpha[0, 1], part.turn_angles[0])
        hits = search_theta(curves.t_minus_ln(65), xi1, grid=360)
        assert hits
        spec = OrthoDesignSpec(datum=gam, target=curves.t_minus_ln(65),
                               n=5, m=3, theta=hits[0], eps=0.3, tube_eps=0.02)
        pattern, report = build_ortho_pattern(spec)
        from curvefold.foldsim import propagate
        st = propagate(pattern, 0.2)
        assert st.residuals["closure"] < 1e-9
