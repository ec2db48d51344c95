"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances come from the design contracts and are not relaxed here.
"""
import json

import numpy as np
import pytest
from design_oracle import solve_next_vertex
from kinematics_oracle import fold_from_beta

from curvefold import curves
from curvefold.errors import (ClosedCurve, CurvefoldError, NoSolution,
                              NotRigidFoldable, OutOfRange)
from curvefold.foldsim import clash_test, default_driving_crease, propagate, sweep_to_halt
from curvefold.geometry import (AffineParams, PolyCurve, hausdorff,
                                is_admissible, measure_polyline,
                                partition_tube, partition_uniform, staircase)
from curvefold.kinematics import (VertexAngles, propagate_both_modes,
                                  row_transfer_residual, solve_first_vertex)
from curvefold.ortho import (alpha_left, default_alpha11,
                             effective_stub_angles, propagate_grid)
from curvefold.parallel import ParallelDesignSpec, build_pattern, xi_recurrence
from curvefold.verify import TOLERANCES, check_developability
from support import circle, design_row, ellipse, rigid_align, rounded_square

RHO4 = 5 * np.pi / 6
THETA5 = np.deg2rad(73.0)


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_fig3_staircase():
    f = curves.parabola()
    aff = AffineParams(np.deg2rad(70.0), np.deg2rad(60.0))
    ok_adm, _ = is_admissible(f, aff)
    st8 = staircase(f, aff, 8)
    st16 = staircase(f, aff, 16)
    ang_err = np.abs(st16.turn_angles - np.deg2rad(60.0)).max()
    dense = f.refined(8)
    h8 = hausdorff(st8.points, dense)
    h16 = hausdorff(st16.points, dense)
    ok = ok_adm and ang_err < 1e-9 and h16 < h8
    _report(1, ok, f"admissible={ok_adm}, angle err={ang_err:.2e}, "
                   f"H16={h16:.4f} < H8={h8:.4f}")


def test_criterion_02_fig4_row(fig4_partition):
    part = fig4_partition
    verts, log = design_row(part, RHO4)  # no NoSolution
    narrow = PolyCurve(curves.exp_curve().samples * 0.3, curves.exp_curve().param)
    spec = ParallelDesignSpec(datum=curves.space_arc(), target=narrow,
                              n_row=9, n_col=1, rho4=RHO4, theta=THETA5, eps=1.0)
    pattern, _ = build_pattern(spec)
    traj = sweep_to_halt(pattern, samples=4)
    row = traj.halt.vertex_coords[pattern.line_ids("row", 1, include_boundary=True)]
    l, b, th = measure_polyline(row)
    l_err = (np.abs(l - part.lengths) / part.lengths.max()).max()
    b_err = np.abs(b - part.turn_angles).max()
    t_err = np.abs(((th - part.dihedrals + np.pi) % (2 * np.pi)) - np.pi).max()
    ok = len(verts) == 9 and l_err < 1e-6 and b_err < 1e-6 and t_err < 1e-6
    _report(2, ok, f"l err={l_err:.2e}, beta err={b_err:.2e}, theta err={t_err:.2e}")


def test_criterion_03_fig5_end_to_end(fig5_design, fig5_halt):
    pattern, report = fig5_design
    traj = fig5_halt
    halt = traj.halt
    # budget: twice the n=9 staircase discretization error
    aff = AffineParams(THETA5, pattern.design["xi"][0])
    st9 = staircase(curves.exp_curve(), aff, 9)
    eps_budget = 2.0 * hausdorff(st9.points, curves.exp_curve().refined(8))
    closure = max(s.residuals["closure"] for s in traj.states)
    ext = pattern.ext_id
    stubs = set(pattern.row_creases[1:pattern.rows + 1, 0].tolist())
    halts_at_target_col = set(halt.residuals["halting_creases"]) <= stubs
    # halting-state curve reproductions, aligned to the design frame
    Va = pattern.design["halting_state"]["coords"]
    R, t = rigid_align(halt.vertex_coords, Va)
    W = halt.vertex_coords @ R.T + t
    row = np.array([W[int(ext[1, c])] for c in range(0, pattern.cols + 2)])
    eps1 = hausdorff(row, np.hstack([curves.space_arc().samples]))
    col = np.array([W[int(ext[r, 1])] for r in range(0, pattern.rows + 2)])
    stair_pts = np.array([Va[int(ext[r, 1])] for r in range(0, pattern.rows + 2)])
    R2, t2 = rigid_align(col, stair_pts)
    f1_dense = curves.exp_curve().refined(4).samples
    # embed f1 in the analytic column plane for the comparison
    Rf, tf = rigid_align(stair_pts, col)  # identity-ish sanity
    d1 = st9.points  # staircase approximates f1 in its own plane
    eps2 = hausdorff(np.hstack([d1, np.zeros((len(d1), 1))]),
                     np.hstack([f1_dense, np.zeros((len(f1_dense), 1))]))
    # the simulated column matches the designed staircase rigidly
    col_dev = np.abs(col @ R2.T + t2 - stair_pts).max()
    ok = (closure < 1e-9 and halts_at_target_col and eps1 <= eps_budget
          and eps2 <= eps_budget and col_dev < 1e-6)
    _report(3, ok, f"closure={closure:.1e}, halt@target={halts_at_target_col}, "
                   f"eps1={eps1:.4f}, eps2={eps2:.4f} <= {eps_budget:.4f}, "
                   f"col dev={col_dev:.1e}")


def test_criterion_04_fig7_end_to_end(fig7_design, fig7_halt):
    pattern, report = fig7_design
    halt = fig7_halt.halt
    ext = pattern.ext_id
    stubs = set(pattern.row_creases[1:pattern.rows + 1, 0].tolist())
    halts_at_datum = set(halt.residuals["halting_creases"]) <= stubs
    diam = pattern.diameter

    def plane_res(pts):
        q = pts - pts.mean(axis=0)
        return np.linalg.svd(q, compute_uv=False)[-1]

    V = halt.vertex_coords
    worst = 0.0
    for r in range(1, pattern.rows + 1):
        worst = max(worst, plane_res(np.array([V[int(ext[r, j])]
                                               for j in range(1, pattern.cols + 1)])))
    for j in range(1, pattern.cols + 1):
        worst = max(worst, plane_res(np.array([V[int(ext[r, j])]
                                               for r in range(1, pattern.rows + 1)])))
    ok = halts_at_datum and worst / diam < 1e-8
    _report(4, ok, f"halt@datum={halts_at_datum}, coplanarity={worst / diam:.2e} x diam")


def _random_smooth_datum(rng, n_samples=97):
    u = np.linspace(0.0, 1.0, n_samples)
    a, b = rng.uniform(0.2, 0.6), rng.uniform(0.5, 1.5)
    c = rng.uniform(-0.8, 0.8)
    d = rng.uniform(0.2, 0.7)
    pts = np.stack([u + a * np.cos(b * u),
                    c * u * u + d * np.sin(2.0 * u + rng.uniform(0, 3)),
                    rng.uniform(0.2, 0.8) * np.sin(u + rng.uniform(0, 3))], axis=1)
    return PolyCurve(pts, u)


def _random_target(rng, n_samples=65):
    t = np.linspace(0.0, 1.0, n_samples)
    k = rng.uniform(0.5, 1.6)
    s = rng.uniform(0.15, 0.45)
    return PolyCurve(s * np.stack([t, np.exp(k * t)], axis=1), t)


def test_criterion_05_randomized_parallel_invariants():
    from curvefold.geometry import search_theta
    rng = np.random.default_rng(20260808)
    built = 0
    attempts = 0
    worst = {"dev": 0.0, "coplanar": 0.0, "xi": 0.0, "roweq": 0.0, "closure": 0.0}
    while built < 100 and attempts < 500:
        attempts += 1
        datum = _random_smooth_datum(rng)
        target = _random_target(rng)
        n_row = int(rng.integers(3, 6))
        n_col = int(rng.integers(3, 5))
        rho4 = rng.uniform(0.65, 0.9) * np.pi
        try:
            part = partition_uniform(datum, n_row)
            _, a2 = solve_first_vertex(part.turn_angles[0], rho4)
            xi1 = abs(2 * a2 - np.pi)
            hits = search_theta(target, xi1, grid=90)
            if not hits:
                continue
            spec = ParallelDesignSpec(datum=datum, target=target, n_row=n_row,
                                      n_col=n_col, rho4=rho4, theta=hits[0], eps=10.0)
            pattern, _ = build_pattern(spec)
        except CurvefoldError:
            continue
        built += 1
        worst["dev"] = max(worst["dev"], pattern.developability_residual())
        sgn = pattern.creases[default_driving_crease(pattern)].mv or 1
        prev = None
        d_prev = 0.0

        def chained(target):
            nonlocal prev, d_prev
            steps = max(1, int(np.ceil((target - d_prev) / (np.pi / 128))))
            for q in range(1, steps + 1):
                dq = d_prev + (target - d_prev) * q / steps
                prev = propagate(pattern, sgn * dq, prev=prev)
            d_prev = target
            return prev

        for d in np.linspace(0.1, 0.8, 8) * rho4:
            try:
                st = chained(d)
            except (OutOfRange, NotRigidFoldable):
                break
            worst["closure"] = max(worst["closure"], st.residuals["closure"])
            V = st.vertex_coords
            ext = pattern.ext_id
            xi_meas = []
            for i in range(1, pattern.cols + 1):
                pts = np.array([V[int(ext[r, i])] for r in range(0, pattern.rows + 2)])
                q = pts - pts.mean(axis=0)
                worst["coplanar"] = max(
                    worst["coplanar"],
                    np.linalg.svd(q, compute_uv=False)[-1] / pattern.diameter)
                angs = []
                for k in range(1, len(pts) - 1):
                    u = pts[k - 1] - pts[k]
                    v = pts[k + 1] - pts[k]
                    angs.append(np.arccos(np.clip(
                        u @ v / np.linalg.norm(u) / np.linalg.norm(v), -1, 1)))
                xi_meas.append(np.mean(angs))
            for i in range(pattern.cols - 1):
                s = pattern.sectors[0, i]
                sn = pattern.sectors[0, i + 1]
                pred = xi_recurrence(xi_meas[i], (s[0], s[3], sn[1], sn[2]))
                worst["xi"] = max(worst["xi"], abs(pred - xi_meas[i + 1]))
            for r in range(1, pattern.rows + 1):
                mags = [abs(st.rho[pattern.row_creases[r, c]])
                        for c in range(1, pattern.cols)]
                if mags:
                    worst["roweq"] = max(worst["roweq"], float(np.ptp(mags)))
    ok = (built == 100 and worst["dev"] < 1e-10 and worst["coplanar"] < 1e-8
          and worst["xi"] < 1e-8 and worst["roweq"] < 1e-8
          and worst["closure"] < 1e-9)
    _report(5, ok, f"designs={built}/100 (attempts {attempts}), dev={worst['dev']:.1e}, "
                   f"coplanar={worst['coplanar']:.1e}, xi={worst['xi']:.1e}, "
                   f"roweq={worst['roweq']:.1e}, closure={worst['closure']:.1e}")


def test_criterion_06_ortho_separability():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        col0 = rng.uniform(0.2, np.pi - 0.2, n)
        col0 = np.where(np.abs(col0 - np.pi / 2) < 0.05, col0 + 0.1, col0)
        a11 = default_alpha11(col0[0])
        try:
            grid = propagate_grid(col0, a11, m=int(rng.integers(1, 6)))
        except CurvefoldError:
            continue
        worst = max(worst, grid.separability_residual())
    # piecewise-circular datum: per-piece constant stub and first angles
    per = 36
    nn = 6
    t = np.linspace(0.0, 1.8, (nn + 1) * per + 1)
    arc = PolyCurve(2.0 * np.stack([np.sin(t), 1.0 - np.cos(t)], axis=1), t)
    part = partition_tube(arc, nn, 1e-12)
    col0 = effective_stub_angles(part)
    g = propagate_grid(col0, default_alpha11(col0[0]), m=3)
    const = 0.0
    for col in (g.alpha[:, 0], g.alpha[:, 1]):
        norm = np.where(np.arange(nn) % 2 == 0, col, np.pi - col)
        const = max(const, float(np.ptp(norm)))
    ok = worst < TOLERANCES["separability"] and const < 1e-10
    _report(6, ok, f"separability={worst:.1e}, circular constancy={const:.1e}")


def test_criterion_07_closed_curves_rejected():
    shapes = [circle(48), ellipse(48), rounded_square(48)]
    thetas = 2 * np.pi * np.arange(720) / 720
    xis = np.pi * np.arange(1, 180) / 180
    count = 0
    for c in shapes:
        for xi in xis:
            for th in thetas:
                try:
                    is_admissible(c, AffineParams(th, xi))
                    _report(7, False, f"closed curve accepted at theta={th}, xi={xi}")
                except ClosedCurve:
                    count += 1
    ok = count == len(shapes) * len(thetas) * len(xis)
    _report(7, ok, f"{count} rejections across 3 curves x 720 theta x 179 xi")


def test_criterion_08_oracle_equivalence(fig4_partition):
    rng = np.random.default_rng(11)
    # closed form vs single-vertex propagation
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
        r2, r4 = fold_from_beta(a1, a2, beta)
        wrap = lambda r: r if r <= np.pi else 2 * np.pi - r
        v = VertexAngles((a1, a2, np.pi - a2, np.pi - a1))
        ok, plus, minus, two = propagate_both_modes(v, 2, wrap(r2))
        assert ok
        worst = max(worst, min(abs(abs(f[0]) - wrap(r4)) for f in (plus, minus)[:1 + two]))
        done += 1
    # transfer solutions satisfy the residuals
    part = fig4_partition
    verts, _ = design_row(part, RHO4)
    res_worst = 0.0
    for i in range(len(verts) - 1):
        a, b, branch = solve_next_vertex(
            verts[i].sectors, part.turn_angles[i], part.turn_angles[i + 1],
            part.dihedrals[i], prefer=(verts[i + 1].sectors[0], verts[i + 1].sectors[1]))
        r1, r2 = row_transfer_residual(
            verts[i].sectors, (a, b, np.pi - a, np.pi - b),
            part.turn_angles[i], part.turn_angles[i + 1], part.dihedrals[i], branch)
        res_worst = max(res_worst, abs(r1), abs(r2))
    # finite-difference sensitivity sign vs analytic partial
    sign_ok = 0
    checked = 0
    h = 1e-6
    while checked < 100:
        p1, p2 = rng.uniform(0.5, np.pi - 0.5, 2)
        bi, bip = rng.uniform(0.5, np.pi - 0.5, 2)
        thi = rng.uniform(0.0, 0.4)
        prev = (p1, p2, np.pi - p1, np.pi - p2)
        try:
            a, b, branch = solve_next_vertex(prev, bi, bip, thi)
        except (NoSolution, OutOfRange):
            continue

        def r2_of(q1):
            qq = (q1, b, np.pi - q1, np.pi - b)
            return row_transfer_residual(prev, qq, bi, bip, thi, branch)[1]

        try:
            fd = (r2_of(a + h) - r2_of(a - h)) / (2 * h)
        except OutOfRange:
            continue
        x = (np.cos(a) - np.cos(b) * np.cos(bip)) / (np.sin(b) * np.sin(bip))
        if abs(x) >= 1.0 - 1e-9:
            continue
        analytic = branch[3] * (np.sin(a) / (np.sin(b) * np.sin(bip))) / np.sqrt(1 - x * x)
        checked += 1
        if np.sign(fd) == np.sign(analytic) and abs(fd - analytic) < 1e-3 * max(1, abs(analytic)):
            sign_ok += 1
    ok = worst < 1e-9 and res_worst < 1e-9 and sign_ok == checked == 100
    _report(8, ok, f"eq2 max dev={worst:.1e}, transfer residual={res_worst:.1e}, "
                   f"fd signs={sign_ok}/{checked}")


def test_criterion_09_falsification(small_parallel):
    pattern, _ = small_parallel
    rng = np.random.default_rng(3)
    detected = 0
    for trial in range(100):
        k = int(rng.integers(pattern.rows))
        i = int(rng.integers(pattern.cols))
        j = int(rng.integers(4))
        delta = 1e-3 * (1 if rng.random() < 0.5 else -1)
        saved = pattern.sectors.copy()
        pattern.sectors[k, i, j] += delta
        try:
            caught = not check_developability(pattern).ok
            if not caught:
                try:
                    propagate(pattern, 0.5)
                except (NotRigidFoldable, OutOfRange):
                    caught = True
            if caught:
                detected += 1
        finally:
            pattern.sectors = saved
    _report(9, detected == 100, f"{detected}/100 corruptions detected")


def test_criterion_10_io_determinism(tmp_path):
    from curvefold.cli import main
    from curvefold.foldio import export_fold, export_svg, import_fold
    ok = True
    details = []
    for demo in ("fig4", "fig5", "fig7"):
        out = tmp_path / demo
        rc = main(["demo", demo, "--out", str(out)])
        ok = ok and rc == 0
        t1 = (out / "pattern.fold").read_text()
        pat, _ = import_fold(t1)
        t2 = export_fold(pat)
        svg1 = (out / "pattern.svg").read_text()
        svg2 = export_svg(pat, overlays=None)
        fold_ok = t1 == t2
        ok = ok and fold_ok
        details.append(f"{demo}: fold={'=' if fold_ok else '!='}")
        # svg re-render of the same pattern is byte-stable
        ok = ok and export_svg(pat) == export_svg(pat)
    _report(10, ok, "; ".join(details))
