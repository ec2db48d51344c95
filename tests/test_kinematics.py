import math
import struct

import numpy as np
import pytest

import kinematics_oracle as oracle
from design_oracle import solve_next_vertex
from support import design_row

from curvefold import foldsim, kinematics
from curvefold.errors import NoSolution, OutOfRange
from curvefold.kinematics import (VertexAngles, VertexStack, propagate_both_modes,
                                  row_transfer_residual, solve_first_vertex)
from curvefold.tolerances import MODE_ATOL

RHO4 = 5 * np.pi / 6


def branches(v, crease, rho_in):
    """The branches propagate_both_modes keeps for a float input, as fold
    tuples, mode +1 first; OutOfRange where it has none."""
    ok, plus, minus, two = propagate_both_modes(v, crease, rho_in)
    if not ok:
        raise OutOfRange("beyond the folding range")
    return [tuple(plus)] + ([tuple(minus)] if two else [])


def folds(v, crease, rho_in, mode=+1):
    """The four folds propagate_both_modes gives a float input on the
    branch of `mode`; OutOfRange beyond the folding range."""
    ok, plus, minus, _ = propagate_both_modes(v, crease, float(rho_in))
    if not ok:
        raise OutOfRange("beyond the folding range")
    return plus if mode == +1 else minus


def halting_quad(a1, a2):
    return (a1, a2, np.pi - a2, np.pi - a1)


def flat_foldable_quad(a, b):
    return (a, b, np.pi - a, np.pi - b)


def wrap_fold(r):
    """Physical fold magnitude for a closed-form value in (0, 2*pi)."""
    return r if r <= np.pi else 2 * np.pi - r


def place_state(quad, beta):
    """Direct spherical construction of the folded halting-family vertex:
    row creases at space angle beta, column creases on the same side."""
    L = np.array([1.0, 0.0, 0.0])
    R = np.array([np.cos(beta), np.sin(beta), 0.0])
    U = oracle.place_fourth(R, L, quad[0], quad[1], -1)
    D = oracle.place_fourth(L, R, quad[2], quad[3], +1)
    if U is None or D is None:
        return None
    return [R, U, L, D]


class TestFoldFromBeta:
    def test_symmetric_alphas(self):
        r2, r4 = oracle.fold_from_beta(1.1, 1.1, 0.8)
        assert abs(r2 - r4) < 1e-12

    def test_right_angles(self):
        r2, r4 = oracle.fold_from_beta(np.pi / 2, np.pi / 2, np.pi / 2)
        assert abs(r2 - np.pi) < 1e-12 and abs(r4 - np.pi) < 1e-12

    def test_against_independent_arccos(self):
        a1, a2, b1 = np.deg2rad([70.0, 60.0, 80.0])
        r2, r4 = oracle.fold_from_beta(a1, a2, b1)
        e2 = 2 * np.arccos((np.cos(a2) * np.cos(b1) - np.cos(a1))
                           / (np.sin(a2) * np.sin(b1)))
        e4 = 2 * np.arccos((np.cos(a1) * np.cos(b1) - np.cos(a2))
                           / (np.sin(a1) * np.sin(b1)))
        assert abs(r2 - e2) < 1e-14 and abs(r4 - e4) < 1e-14

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a1, a2 = rng.uniform(0.2, np.pi - 0.2, 2)
            b = rng.uniform(0.2, np.pi - 0.2)
            try:
                r2, r4 = oracle.fold_from_beta(a1, a2, b)
                s2, s4 = oracle.fold_from_beta(a2, a1, b)
            except OutOfRange:
                continue
            assert r2 == s4 and r4 == s2

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            oracle.fold_from_beta(0.1, 3.0, 0.1)

    def test_matches_measured_fold_along_motion(self):
        # closed form vs direct spherical measurement of the same state
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 300:
            a1, a2 = rng.uniform(0.3, np.pi - 0.3, 2)
            lo = abs(a1 - a2) + 1e-3
            hi = min(a1 + a2, 2 * np.pi - a1 - a2) - 1e-3
            if lo >= hi:
                continue
            beta = rng.uniform(lo, hi)
            dirs = place_state(halting_quad(a1, a2), beta)
            if dirs is None:
                continue
            x2 = (np.cos(a2) * np.cos(beta) - np.cos(a1)) / (np.sin(a2) * np.sin(beta))
            x4 = (np.cos(a1) * np.cos(beta) - np.cos(a2)) / (np.sin(a1) * np.sin(beta))
            if max(abs(x2), abs(x4)) > 1:
                continue
            r2, r4 = oracle.fold_from_beta(a1, a2, beta)
            rho = oracle.vertex_fold_angles(dirs)
            assert abs(abs(rho[2]) - wrap_fold(r2)) < 1e-9
            assert abs(abs(rho[0]) - wrap_fold(r4)) < 1e-9
            checked += 1


class TestSolveFirstVertex:
    def test_right_angle_beta_analytic(self):
        a1, a2 = solve_first_vertex(np.pi / 2, RHO4)
        assert abs(a1 - np.pi / 2) < 1e-10
        assert abs(a2 - np.arccos(-np.cos(RHO4 / 2))) < 1e-10

    def test_fig4_roundtrip(self, fig4_partition):
        b1 = fig4_partition.turn_angles[0]
        a1, a2 = solve_first_vertex(b1, RHO4)
        r2, r4 = oracle.fold_from_beta(a1, a2, b1)
        assert abs(r2 - np.pi) < 1e-8
        assert abs(r4 - RHO4) < 1e-8

    def test_closed_form_oracle(self):
        # independent elimination: rho2 = pi forces cos a1 = cos a2 cos b;
        # substituting into the rho4 equation gives a closed form for cos a2
        rng = np.random.default_rng(23)
        for _ in range(50):
            b1 = rng.uniform(0.3, np.pi - 0.3)
            rho4 = rng.uniform(0.3, np.pi - 0.1)
            K = np.cos(rho4 / 2)
            c2 = -K / np.sqrt(np.sin(b1) ** 2 + K * K * np.cos(b1) ** 2)
            a1, a2 = solve_first_vertex(b1, rho4)
            assert abs(np.cos(a2) - c2) < 1e-9
            assert abs(np.cos(a1) - c2 * np.cos(b1)) < 1e-9

    def test_infeasible_raises(self):
        with pytest.raises(NoSolution):
            solve_first_vertex(1e-9, np.pi / 2)


class TestRowTransfer:
    def test_solution_zero_residual(self, fig4_partition):
        part = fig4_partition
        verts, log = design_row(part, RHO4)
        for i in range(len(verts) - 1):
            r1, r2 = row_transfer_residual(
                verts[i].sectors, verts[i + 1].sectors,
                part.turn_angles[i], part.turn_angles[i + 1],
                part.dihedrals[i], log[i])
            assert max(abs(r1), abs(r2)) < 1e-9

    def test_perturbation_moves_residual(self, fig4_partition):
        part = fig4_partition
        verts, log = design_row(part, RHO4)
        s = list(verts[1].sectors)
        s[0] += 1e-3
        r1, r2 = row_transfer_residual(
            verts[0].sectors, tuple(s), part.turn_angles[0],
            part.turn_angles[1], part.dihedrals[0], log[0])
        assert max(abs(r1), abs(r2)) > 1e-5

    def test_fd_sensitivity_matches_analytic_sign(self, fig4_partition):
        # analytic partial of the theta-equation residual wrt alpha_{4i+1}
        part = fig4_partition
        verts, log = design_row(part, RHO4)
        p, q = verts[0].sectors, list(verts[1].sectors)
        bi, bip, thi = part.turn_angles[0], part.turn_angles[1], part.dihedrals[0]
        br = log[0]

        def r2_of(q1):
            qq = (q1, q[1], np.pi - q1, q[3])
            return row_transfer_residual(p, qq, bi, bip, thi, br)[1]

        h = 1e-6
        fd = (r2_of(q[0] + h) - r2_of(q[0] - h)) / (2 * h)
        # analytic: dT2/dq1 with T2 = arccos((cos q1 - cos q2 cos b)/(sin q2 sin b))
        x = (np.cos(q[0]) - np.cos(q[1]) * np.cos(bip)) / (np.sin(q[1]) * np.sin(bip))
        dT2 = -(-np.sin(q[0]) / (np.sin(q[1]) * np.sin(bip))) / np.sqrt(1 - x * x)
        analytic = br[3] * dT2
        assert np.sign(fd) == np.sign(analytic)
        assert abs(fd - analytic) < 1e-4 * max(1.0, abs(analytic))


class TestSolveNextVertex:
    def test_spiral_repetition(self):
        # planar datum turning consistently: transfer admits the mirrored
        # previous vertex, the repetition behind piecewise-spiral datums
        p = flat_foldable_quad(1.2, 0.9)
        a, b, branch = solve_next_vertex(p, 0.8, 0.8, 0.0)
        assert abs(a - p[1]) < 1e-8 and abs(b - p[0]) < 1e-8

    def test_fig4_step_residual_oracle(self, fig4_partition):
        part = fig4_partition
        a1, a2 = solve_first_vertex(part.turn_angles[0], RHO4)
        prev = halting_quad(a1, a2)
        a, b, branch = solve_next_vertex(
            prev, part.turn_angles[0], part.turn_angles[1], part.dihedrals[0])
        r1, r2 = row_transfer_residual(prev, flat_foldable_quad(a, b),
                                       part.turn_angles[0], part.turn_angles[1],
                                       part.dihedrals[0], branch)
        assert max(abs(r1), abs(r2)) < 1e-9

    def test_no_solution(self):
        p = flat_foldable_quad(0.05, np.pi - 0.05)
        with pytest.raises(NoSolution):
            solve_next_vertex(p, 0.02, 3.1, 1.5)


class TestDegree4Propagate:
    def test_flat_input(self):
        v = VertexAngles(flat_foldable_quad(1.0, 1.3))
        f = folds(v, 0, 0.0)
        assert all(r == 0.0 for r in f)

    def test_flat_foldable_opposite_magnitudes(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 100:
            a, b = rng.uniform(0.3, np.pi - 0.3, 2)
            if abs(a + b - np.pi) < 0.05 or abs(a - b) < 0.05:
                continue
            v = VertexAngles(flat_foldable_quad(a, b))
            rho_in = rng.uniform(-2.5, 2.5)
            try:
                f = folds(v, 0, rho_in)
            except OutOfRange:
                continue
            assert abs(abs(f[0]) - abs(f[2])) < 1e-9
            assert abs(abs(f[1]) - abs(f[3])) < 1e-9
            done += 1

    def test_eq2_family_cross_check(self):
        # driving the left row crease with the closed-form rho2 must return
        # the closed-form rho4 on the right row crease
        rng = np.random.default_rng(43)
        worst = 0.0
        done = 0
        while done < 1000:
            a1, a2 = rng.uniform(0.3, np.pi - 0.3, 2)
            lo = abs(a1 - a2) + 1e-2
            hi = min(a1 + a2, 2 * np.pi - a1 - a2) - 1e-2
            if lo >= hi:
                continue
            beta = rng.uniform(lo, hi)
            x2 = (np.cos(a2) * np.cos(beta) - np.cos(a1)) / (np.sin(a2) * np.sin(beta))
            x4 = (np.cos(a1) * np.cos(beta) - np.cos(a2)) / (np.sin(a1) * np.sin(beta))
            if max(abs(x2), abs(x4)) > 0.999:
                continue
            r2, r4 = oracle.fold_from_beta(a1, a2, beta)
            v = VertexAngles(halting_quad(a1, a2))
            states = branches(v, 2, wrap_fold(r2))
            dev = min(abs(abs(f[0]) - wrap_fold(r4)) for f in states)
            worst = max(worst, dev)
            done += 1
        assert worst < 1e-9

    def test_loop_closure_rotation_product(self):
        # hinge rotations interleaved with sector rotations compose to the
        # identity for every propagated state
        def rx(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])

        def rz(a):
            c, s = np.cos(a), np.sin(a)
            return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

        rng = np.random.default_rng(47)
        done = 0
        while done < 100:
            a, b = rng.uniform(0.4, np.pi - 0.4, 2)
            if abs(a + b - np.pi) < 0.05:
                continue
            v = VertexAngles(flat_foldable_quad(a, b))
            try:
                f = folds(v, 0, rng.uniform(-2.0, 2.0))
            except OutOfRange:
                continue
            T = np.eye(3)
            for j in range(4):
                T = T @ rx(f[j]) @ rz(v.sectors[j])
            assert np.abs(T - np.eye(3)).max() < 1e-9
            done += 1

    def test_driving_pi_allowed(self):
        v = VertexAngles(flat_foldable_quad(1.0, 1.2))
        f = folds(v, 0, np.pi)
        assert abs(abs(f[2]) - np.pi) < 1e-9
        with pytest.raises(OutOfRange):
            folds(v, 0, np.pi + 1e-6)


FAMILIES = ["flat-foldable", "halting", "collinear", "generic"]


def _random_vertex(rng, family):
    """Sector quadruple of one kind: flat-foldable (no straight crease
    line), halting family (collinear column creases), a straight row line
    (collinear row creases) or generic (three random sectors, the fourth
    closing the sum)."""
    while family == "generic":
        s = rng.uniform(0.3, np.pi - 0.3, 3)
        if 0.3 < 2 * np.pi - s.sum() < np.pi - 0.3:
            return tuple(s) + (2 * np.pi - s.sum(),)
    while True:
        a, b = rng.uniform(0.3, np.pi - 0.3, 2)
        if abs(a + b - np.pi) > 0.05 and abs(a - b) > 0.05:
            break
    return {"flat-foldable": flat_foldable_quad(a, b),
            "halting": halting_quad(a, b),
            "collinear": (a, np.pi - a, b, np.pi - b)}[family]


class TestKernelOracle:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_numpy_kernel(self, family):
        # the states of the 40-digit reference, mode +1 first, within 1e-12
        # from 1e-6 rad to 2.8 rad; where the kernel has no state neither
        # reference has one.  Where the numpy kernel takes its cone route,
        # it orders the modes the same way.  Near +-pi the folds of the
        # special families turn on the last bits of their sectors, so there
        # the kernel must only accept every input the numpy kernel accepts
        rng = np.random.default_rng({"flat-foldable": 3, "halting": 5, "collinear": 7,
                                     "generic": 11}[family])
        compared = near_flat = near_pi = 0
        for _ in range(400):
            v = VertexAngles(_random_vertex(rng, family))
            crease = int(rng.integers(4))
            sign = rng.choice([-1.0, 1.0])
            inputs = (rng.uniform(-2.8, 2.8), sign * 10 ** rng.uniform(-6, -2),
                      sign * (np.pi - 10 ** rng.uniform(-9, -2)))
            for kind, rho_in in enumerate(inputs):
                try:
                    got = branches(v, crease, rho_in)
                except OutOfRange:
                    with pytest.raises(OutOfRange):
                        oracle.reference_modes(v.sectors, crease, rho_in)
                    with pytest.raises(OutOfRange):
                        oracle.propagate_both_modes(v.sectors, crease, rho_in)
                    continue
                if kind == 2:
                    near_pi += 1
                    continue
                want = oracle.reference_modes(v.sectors, crease, rho_in)
                assert len(got) == len(want)
                assert np.abs(np.subtract(got, want)).max() < 1e-12
                compared += 1
                near_flat += kind == 1
                s = v.sectors
                if kind == 0 and abs(s[crease - 1] + s[crease] - np.pi) > 1e-9:
                    order = oracle.propagate_both_modes(v.sectors, crease, rho_in)
                    assert np.abs(np.subtract(got, order)).max() < 1e-9
        assert compared > 600 and near_flat == 400 and near_pi > 100

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lanes_equal_scalar_kernel(self, family):
        # each lane keeps the branches of its float input, bit for bit and
        # in mode order, at flat, near flat and beyond pi
        rng = np.random.default_rng({"flat-foldable": 13, "halting": 17, "collinear": 19,
                                     "generic": 23}[family])
        for _ in range(60):
            v = VertexAngles(_random_vertex(rng, family))
            crease = int(rng.integers(4))
            rho_in = np.concatenate([rng.uniform(-3.3, 3.3, 24), [0.0, -1e-15, np.pi, -np.pi],
                                     rng.choice([-1, 1], 4) * 10 ** rng.uniform(-14, -2, 4)])
            ok, plus, minus, two = propagate_both_modes(v, crease, rho_in)
            for k, x in enumerate(rho_in.tolist()):
                try:
                    want = branches(v, crease, x)
                except OutOfRange:
                    want = []
                got = [tuple(f[:, k].tolist()) for f, keep in ((plus, ok), (minus, ok & two))
                       if keep[k]]
                assert got == want

    def test_dedup_rule_is_numpy_allclose(self, monkeypatch):
        # made-up kernel folds beside an input fold of 1: mode -1 is a
        # branch of its own exactly where np.allclose(minus, plus) fails,
        # on floats and on lanes.  The kernel gives mode -1's fold on the
        # opposite crease as the negation of mode +1's, so that crease's
        # pair keeps its difference about 0
        rng = np.random.default_rng(59)
        n = 2000
        b = rng.uniform(-np.pi, np.pi, (n, 4)) * 10.0 ** rng.integers(-12, 1, (n, 1))
        a = b + rng.choice([-1, 1], (n, 4)) * (MODE_ATOL + 1e-5 * np.abs(b)) \
            * rng.uniform(0.9, 1.1, (n, 4))
        a[:, 0] = b[:, 0] = 1.0
        b[:, 2] = (b[:, 2] - a[:, 2]) / 2
        a[:, 2] = -b[:, 2]
        want = [not np.allclose(m, p, atol=MODE_ATOL) for p, m in zip(b, a)]
        assert 0 < sum(want) < n
        v = VertexAngles(flat_foldable_quad(1.0, 1.3))
        folds = []
        monkeypatch.setattr(kinematics, "_half_angle_folds", lambda t, z: (True, folds[-1]))
        got = []
        for p, m in zip(b.tolist(), a.tolist()):
            folds.append(p[1:] + [m[1], m[3]])
            got.append(propagate_both_modes(v, 0, 1.0)[3])
        folds.append(np.concatenate([b.T[1:], a.T[[1, 3]]]))
        lanes = propagate_both_modes(v, 0, np.ones(n))[3]
        assert got == want and lanes.tolist() == want

    def test_stack_lanes_equal_float_solves(self):
        # one VertexStack of G vertices of mixed families, driven from every
        # input slot by (G, L) inputs at flat, -0.0, +-pi, beyond pi and
        # near flat: row g equals vertex g's float solve bit for bit, its
        # `ok`, both modes and `two`
        rng = np.random.default_rng(31)
        G = 7
        edge = [0.0, -0.0, np.pi, -np.pi, np.pi + 1e-9, -3.5, 4.0]
        for _ in range(10):
            verts = [VertexAngles(_random_vertex(rng, f)) for f in rng.choice(FAMILIES, G)]
            stack = VertexStack(verts)
            for a in range(4):
                x = np.hstack([rng.uniform(-3.3, 3.3, (G, 12)), np.tile(edge, (G, 1)),
                               rng.choice([-1, 1], (G, 10)) * 10 ** rng.uniform(-14, -2, (G, 10))])
                ok, plus, minus, two = propagate_both_modes(stack, a, x)
                assert plus.shape == minus.shape == (4,) + x.shape
                for g, v in enumerate(verts):
                    for k, xk in enumerate(x[g].tolist()):
                        want_ok, want_plus, want_minus, want_two = propagate_both_modes(v, a, xk)
                        assert ok[g, k] == want_ok and two[g, k] == want_two
                        assert plus[:, g, k].tobytes() == np.array(want_plus).tobytes()
                        assert minus[:, g, k].tobytes() == np.array(want_minus).tobytes()

    def test_lane_branch_rule_equals_float_rule(self):
        # foldsim._branch scores a (2, 4, G, L) stack of modes in one pass:
        # on every element it picks the bits the one-state rule picks, also
        # on forced ties (equal sign counts, and equal distances where
        # minus mirrors plus about prev = 0) and where `two` is False
        rng = np.random.default_rng(37)
        G, L = 5, 48
        plus = rng.uniform(-3, 3, (4, G, L)) * 10.0 ** rng.integers(-13, 1, (1, G, L))
        minus = rng.uniform(-3, 3, (4, G, L))
        mirror = rng.random((G, L)) < 0.4
        minus[:, mirror] = -plus[:, mirror]
        prev = np.where(mirror | (rng.random((G, L)) < 0.3), 0.0, rng.uniform(-3, 3, (4, G, L)))
        signs = rng.choice([-1, 0, 1], (4, G, L))
        signs[:, rng.random((G, L)) < 0.3] = 0
        two = rng.random((G, L)) < 0.8
        modes = np.array([plus, minus])
        got = foldsim._branch(modes, two, prev, signs)
        ties = 0
        for g in range(G):
            for k in range(L):
                one = [m[:, g, k].tolist() for m in modes]
                want = foldsim._branch(one, bool(two[g, k]), prev[:, g, k].tolist(),
                                       signs[:, g, k].tolist())
                assert got[:, g, k].tobytes() == np.array(want).tobytes()
                ties += mirror[g, k] and two[g, k] and not signs[:, g, k].any()
        assert ties > 10

    def test_atan2_is_odd_in_y_for_nonnegative_x(self):
        # the kernel gives mode -1's fold on the opposite crease as the
        # negation of mode +1's, 2 atan2(-k z, r) with r >= +0: that holds
        # bit for bit only while math.atan2(-y, x) == -math.atan2(y, x)
        rng = np.random.default_rng(41)
        tiny, huge = 5e-324, 1.7e308
        xs = [0.0, tiny, 1e-310, 1.0, huge, math.inf] + rng.uniform(0, 4, 400).tolist() \
            + (10.0 ** rng.uniform(-320, 308, 400)).tolist()
        ys = [0.0, -0.0, tiny, -tiny, 2.2e-308, huge, -huge, math.inf, -math.inf] \
            + rng.uniform(-4, 4, 400).tolist() \
            + (rng.choice([-1, 1], 400) * 10.0 ** rng.uniform(-320, 308, 400)).tolist()
        for x in xs:
            for y in ys:
                a, b = struct.pack("<d", math.atan2(-y, x)), struct.pack("<d", -math.atan2(y, x))
                assert a == b, (f"math.atan2({-y!r}, {x!r}) != -math.atan2({y!r}, {x!r}): mode "
                                "-1's fold on the opposite crease, the negation of mode +1's, "
                                "would not be its own atan2")

    def test_tangent_ratios_constant_along_branches(self):
        # Huffman / Tachi & Hull: on a flat-foldable vertex (a, b, pi-a,
        # pi-b) every branch keeps tan(rho_j/2) / tan(rho_0/2) constant,
        # equal to (1, -cos(s)/cos(d), 1, cos(s)/cos(d)) on one branch and
        # (1, sin(s)/sin(d), -1, sin(s)/sin(d)) on the other, s = (a+b)/2,
        # d = (a-b)/2
        rng = np.random.default_rng(53)
        for _ in range(40):
            a, b = _random_vertex(rng, "flat-foldable")[:2]
            v = VertexAngles(flat_foldable_quad(a, b))
            s, d = (a + b) / 2, (a - b) / 2
            closed = [np.array([1, -np.cos(s) / np.cos(d), 1, np.cos(s) / np.cos(d)]),
                      np.array([1, np.sin(s) / np.sin(d), -1, np.sin(s) / np.sin(d)])]
            for mode in (1, -1):
                for sign in (1, -1):
                    ratios = []
                    for mag in np.linspace(0.1, 2.8, 12):
                        try:
                            f = folds(v, 0, sign * mag, mode)
                        except OutOfRange:
                            continue
                        t = np.tan(np.array(f) / 2)
                        ratios.append(t / t[0])
                    assert len(ratios) >= 2
                    ratios = np.array(ratios)
                    spread = np.abs(ratios - ratios[0]).max(axis=0)
                    assert (spread <= 1e-9 * np.maximum(1.0, np.abs(ratios[0]))).all()
                    assert min(np.abs(ratios[0] - c).max() for c in closed) < 1e-9
