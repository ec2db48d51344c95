import dataclasses

import numpy as np
import pytest

from curvefold.foldsim import propagate
from curvefold.verify import (TOLERANCES, check_coplanarity,
                              check_developability, check_halt,
                              check_isometry, check_kawasaki,
                              check_opposite_row_folds,
                              check_perpendicular_rows, check_phi,
                              check_row_fold_equal, check_separability,
                              check_xi, measure_phi, run_pattern_checks)
from support import rigid_align


class TestTolerances:
    def test_table_complete(self):
        for key in ("developability", "kawasaki", "coplanarity", "xi",
                    "row_fold_equal", "closure", "separability",
                    "phi", "halt_fold", "isometry"):
            assert key in TOLERANCES

    def test_results_reference_table(self, small_parallel):
        pattern, _ = small_parallel
        r = check_developability(pattern)
        assert r.tol == TOLERANCES["developability"]
        assert r.ok == (r.residual <= r.tol)


class TestChecks:
    def test_flat_coplanarity_zero(self, small_parallel):
        pattern, _ = small_parallel
        st = propagate(pattern, 0.0)
        r = check_coplanarity(pattern, st, "column", 1)
        assert r.ok and r.residual < 1e-14

    def test_folded_column_coplanarity(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        for i in range(1, pattern.cols + 1):
            assert check_coplanarity(pattern, fig5_halt.halt, "column", i).ok

    def test_ortho_rows_and_columns(self, fig7_design, fig7_halt):
        pattern, _ = fig7_design
        halt = fig7_halt.halt
        for i in range(1, pattern.cols + 1):
            assert check_coplanarity(pattern, halt, "column", i).ok
        for r in range(1, pattern.rows + 1):
            assert check_coplanarity(pattern, halt, "row", r).ok

    def test_xi_at_halt(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        xi = pattern.design["xi"]
        for i, x in enumerate(xi, start=1):
            assert check_xi(pattern, fig5_halt.halt, i, x).ok

    def test_phi_at_halt(self, fig5_design, fig5_halt):
        from curvefold.kinematics import VertexAngles
        from support import column_curves
        from curvefold import curves
        pattern, _ = fig5_design
        verts = [VertexAngles(tuple(s)) for s in pattern.sectors[0]]
        profiles = column_curves(curves.exp_curve(), np.deg2rad(73), verts)
        for i in range(1, pattern.cols):
            assert check_phi(pattern, fig5_halt.halt, i, profiles[i - 1].phi).ok

    def test_phi_skipped_flat(self, small_parallel):
        pattern, _ = small_parallel
        st = propagate(pattern, 0.0)
        r = check_phi(pattern, st, 1, 1.0)
        assert r.ok and r.residual == 0.0

    def test_halt_and_opposite_folds(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        assert check_halt(pattern, fig5_halt.halt).ok
        assert check_opposite_row_folds(pattern, fig5_halt.halt).ok

    def test_row_fold_equal(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        for r in range(1, pattern.rows + 1):
            assert check_row_fold_equal(pattern, fig5_halt.halt, r).ok

    def test_perpendicular_rows_ortho(self, fig7_design, fig7_halt):
        pattern, _ = fig7_design
        assert check_perpendicular_rows(pattern, fig7_halt.halt).ok

    def test_kawasaki_interior(self, fig5_design):
        pattern, _ = fig5_design
        assert check_kawasaki(pattern, range(2, pattern.cols + 1)).ok

    def test_separability(self, fig7_design):
        pattern, _ = fig7_design
        assert check_separability(pattern.design["grid_alpha"]).ok

    def test_separability_of_zero_tangents_fails(self):
        r = check_separability([[0.0, 0.0], [0.0, 0.0]])
        assert not r.ok and np.isnan(r.residual)

    def test_suite_checks_phi_at_halt(self, fig5_design, fig5_halt):
        # the dihedral of columns i, i+1 from the first-row sectors and xi
        pattern, _ = fig5_design
        checks = run_pattern_checks(pattern, state=fig5_halt.halt)
        phi = [c for c in checks if c.check_id.startswith("phi-")]
        assert [c.check_id for c in phi] == [f"phi-{i}" for i in range(1, pattern.cols)]
        assert all(c.ok and c.residual < 1e-11 for c in phi)
        # xi of 0: the spherical triangles do not close, and the checks fail
        bad = dataclasses.replace(pattern, design=dict(pattern.design, xi=[0.0] * 3))
        phi = [c for c in run_pattern_checks(bad, state=fig5_halt.halt)
               if c.check_id.startswith("phi-")]
        assert [c.check_id for c in phi] == ["phi-1", "phi-2"]
        assert not any(c.ok for c in phi)

    def test_isometry(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        assert check_isometry(pattern, fig5_halt.halt).ok

    def test_corruption_detected(self, small_parallel):
        pattern, _ = small_parallel
        sectors = pattern.sectors.copy()
        try:
            pattern.sectors[0, 1, 2] += 1e-3
            r = check_developability(pattern)
            assert not r.ok
        finally:
            pattern.sectors = sectors

    def test_suite_passes_on_designs(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        checks = run_pattern_checks(pattern, trajectory=fig5_halt)
        assert checks and all(c.ok for c in checks)

    def test_suite_passes_on_ortho(self, fig7_design, fig7_halt):
        pattern, _ = fig7_design
        checks = run_pattern_checks(pattern, trajectory=fig7_halt)
        assert checks and all(c.ok for c in checks)


class TestAlignment:
    def test_rigid_align_recovers_motion(self):
        rng = np.random.default_rng(2)
        src = rng.normal(size=(20, 3))
        ang = 0.7
        R = np.array([[np.cos(ang), -np.sin(ang), 0],
                      [np.sin(ang), np.cos(ang), 0], [0, 0, 1.0]])
        dst = src @ R.T + np.array([1.0, -2.0, 3.0])
        R2, t2 = rigid_align(src, dst)
        assert np.abs(src @ R2.T + t2 - dst).max() < 1e-12

    def test_measure_phi_symmetry(self, fig5_design, fig5_halt):
        pattern, _ = fig5_design
        v = measure_phi(pattern, fig5_halt.halt, 1)
        assert 0.0 <= v <= np.pi
