"""1-DOF rigid folding simulation of quad-grid crease patterns.

Folding angles are assigned by sweeping the vertex grid row-major with the
single-vertex propagator, panels are then placed along the pattern's BFS
placement order, and every shared edge is checked for closure.
The sweep-to-halt driver locates the smallest driving angle at which any
crease reaches pi (panel coincidence) or two panels interpenetrate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoHalt, NotRigidFoldable, OutOfRange
from .geometry import PolyCurve
from .kinematics import VertexAngles, propagate_both_modes
from .pattern import ROLE_BOUNDARY, CreasePattern

HALT_TOL = 1e-6          # a crease at pi - HALT_TOL halts the motion
CLOSURE_REL = 1e-9       # coordinate closure, relative to pattern diameter
FOLD_CONSISTENCY = 1e-7  # fold-angle agreement between vertex sweeps (rad)


@dataclass
class FoldedState:
    driving_crease: int
    driving_rho: float
    rho: np.ndarray
    vertex_coords: np.ndarray
    face_frames: dict
    halted: bool = False
    halt_reason: str = None
    residuals: dict = field(default_factory=dict)


@dataclass
class Trajectory:
    states: list
    driving_values: np.ndarray

    @property
    def halt(self):
        return self.states[-1]


def default_driving_crease(pattern: CreasePattern):
    """First row crease adjacent to the halting column: the one leaving
    inner vertex (1, halting_col) toward the next column."""
    return int(pattern.row_creases[1, pattern.halting_col])


def _rot_about(axis, ang):
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(ang) * K + (1.0 - np.cos(ang)) * (K @ K)


def assign_fold_angles(pattern: CreasePattern, driving_rho, prev_rho=None,
                       driving_crease=None):
    """Per-crease folding angles for one driving value.

    Branches are picked by closeness to prev_rho when given, else by the
    pattern's mountain/valley signs.  Disagreement with already-assigned
    creases beyond FOLD_CONSISTENCY raises NotRigidFoldable."""
    m, n = pattern.rows, pattern.cols
    if driving_crease is None:
        driving_crease = default_driving_crease(pattern)
    rho = np.full(len(pattern.creases), np.nan)
    rho[driving_crease] = driving_rho
    mv = np.array([c.mv for c in pattern.creases])
    use_mv = prev_rho is None or float(np.abs(prev_rho).max()) < 1e-8
    worst = 0.0
    for k in range(m):
        for i in range(n):
            cids = [int(x) for x in pattern.vertex_creases[k, i]]
            known = {j: rho[c] for j, c in enumerate(cids) if not np.isnan(rho[c])}
            if not known:
                raise NotRigidFoldable(
                    f"sweep reached vertex ({k + 1},{i + 1}) with no known crease")
            j_in = min(known)  # deterministic input choice
            try:
                v = VertexAngles(tuple(pattern.sectors[k, i]))
            except ValueError as e:
                raise NotRigidFoldable(f"vertex ({k + 1},{i + 1}): {e}")
            cands = propagate_both_modes(v, j_in, known[j_in])
            best = None
            for cand in cands:
                if use_mv:
                    # sign agreement first; break ties toward the state
                    # continuous with flat (other branches through the flat
                    # configuration carry large folds at tiny driving)
                    matches = -sum(
                        1 for j, c in enumerate(cids)
                        if mv[c] != 0 and np.sign(cand.rho[j]) == mv[c]
                        and abs(cand.rho[j]) > 1e-12)
                    score = (matches, float(np.linalg.norm(cand.rho)))
                else:
                    score = (float(np.linalg.norm(
                        [cand.rho[j] - prev_rho[c] for j, c in enumerate(cids)])),)
                if best is None or score < best[0]:
                    best = (score, cand)
            cand = best[1]
            for j, c in enumerate(cids):
                if j in known:
                    worst = max(worst, abs(cand.rho[j] - known[j]))
                rho[c] = cand.rho[j]
    if worst > FOLD_CONSISTENCY:
        raise NotRigidFoldable(
            f"fold-angle loop mismatch {worst:.3g} rad", residual=worst)
    rho[np.isnan(rho)] = 0.0
    return rho, worst


def place_panels(pattern: CreasePattern, rho):
    """Rigid placement of every panel along the pattern's placement order,
    from face 0 (top left) fixed in the plane z = 0; returns (frames keyed
    by face, vertex_coords, residuals)."""
    frames = {0: (np.eye(3), np.zeros(3))}
    pts2 = pattern.vertices

    def lift(p):
        return np.array([p[0], p[1], 0.0])

    for face, parent, idx, sign in pattern.placement.tolist():
        R0, t0 = frames[parent]
        cr = pattern.creases[idx]
        d = lift(pts2[cr.v]) - lift(pts2[cr.u])
        H = _rot_about(d, sign * rho[idx])
        p = lift(pts2[cr.u])
        Rn = R0 @ H
        tn = R0 @ (p - H @ p) + t0
        frames[face] = (Rn, tn)

    # closure on every interior shared edge
    diam = max(pattern.diameter, 1e-12)
    worst = 0.0
    for idx, (fl, fr) in enumerate(pattern.crease_faces.tolist()):
        if fl < 0 or fr < 0:
            continue
        cr = pattern.creases[idx]
        for vid in (cr.u, cr.v):
            p = lift(pts2[vid])
            Ra, ta = frames[fl]
            Rb, tb = frames[fr]
            worst = max(worst, float(np.linalg.norm((Ra @ p + ta) - (Rb @ p + tb))))
    closure = worst / diam
    if closure > CLOSURE_REL:
        raise NotRigidFoldable(f"panel loop closure {closure:.3g} x diameter",
                               residual=closure)

    coords = np.zeros((len(pts2), 3))
    counts = np.zeros(len(pts2))
    spread = 0.0
    placed = {vid: [] for vid in range(len(pts2))}
    quads = pattern.faces.reshape(-1, 4)
    for face, (R0, t0) in frames.items():
        for vid in quads[face]:
            w = R0 @ lift(pts2[vid]) + t0
            placed[vid].append(w)
            coords[vid] += w
            counts[vid] += 1
    coords /= counts[:, None]
    for vid, ws in placed.items():
        for w in ws:
            spread = max(spread, float(np.linalg.norm(w - coords[vid])))
    return frames, coords, {"closure": closure, "vertex_spread": spread / diam}


def bootstrap_mv(pattern: CreasePattern, d0=0.02, driving_crease=None):
    """Mountain/valley assignment from a depth-first consistent fold
    assignment at a small driving value.

    Branch choices are pruned against already-assigned creases, so the
    search settles on the pattern's folding branch without any prior
    sign information.  Returns the signed fold angles at d0."""
    m, n = pattern.rows, pattern.cols
    dc = driving_crease if driving_crease is not None else default_driving_crease(pattern)
    verts = [(k, i) for k in range(m) for i in range(n)]
    tol = 1e-8

    rho = np.full(len(pattern.creases), np.nan)
    rho[dc] = d0
    # an explicit stack, so grids with more vertices than the recursion
    # limit still search
    stack = [(0, rho)]
    while stack:
        idx, rho = stack.pop()
        if idx == len(verts):
            break
        k, i = verts[idx]
        cids = [int(x) for x in pattern.vertex_creases[k, i]]
        known = {j: rho[c] for j, c in enumerate(cids) if not np.isnan(rho[c])}
        if not known:
            continue
        j_in = min(known)
        v = VertexAngles(tuple(pattern.sectors[k, i]))
        try:
            cands = propagate_both_modes(v, j_in, known[j_in])
        except OutOfRange:
            continue
        # prefer fully folding branches over degenerate straight-line ones,
        # then the branch continuous with the flat state; the preferred
        # branch goes on the stack last so it is searched first
        cands = sorted(cands, key=lambda c: (sum(1 for x in c.rho if abs(x) < 1e-12),
                                             float(np.linalg.norm(c.rho))))
        for cand in reversed(cands):
            if all(abs(cand.rho[j] - val) < tol for j, val in known.items()):
                nxt = rho.copy()
                for j, c in enumerate(cids):
                    nxt[c] = cand.rho[j]
                stack.append((idx + 1, nxt))
    else:
        raise NotRigidFoldable("no consistent folding branch found near flat")
    rho[np.isnan(rho)] = 0.0
    for idx, cr in enumerate(pattern.creases):
        if cr.role == ROLE_BOUNDARY:
            cr.mv = 0
        else:
            cr.mv = 1 if rho[idx] >= 0 else -1
    return rho


def propagate(pattern: CreasePattern, driving_rho, prev=None, driving_crease=None):
    """Folded state at one driving angle.

    prev: optional previous FoldedState for branch continuity."""
    if abs(driving_rho) > np.pi:
        raise OutOfRange("driving angle beyond pi")
    prev_rho = prev.rho if prev is not None else None
    rho, mismatch = assign_fold_angles(pattern, driving_rho, prev_rho, driving_crease)
    frames, coords, residuals = place_panels(pattern, rho)
    residuals["fold_mismatch"] = mismatch
    dc = driving_crease if driving_crease is not None else default_driving_crease(pattern)
    return FoldedState(dc, driving_rho, rho, coords, frames, residuals=residuals)


def _face_tris(pattern, coords):
    tris = []
    for face, ids in enumerate(pattern.faces.reshape(-1, 4).tolist()):
        q = [coords[v] for v in ids]
        tris.append((face, ids[:3], np.array([q[0], q[1], q[2]])))
        tris.append((face, [ids[0], ids[2], ids[3]], np.array([q[0], q[2], q[3]])))
    return tris


def _interval_on_line(tri, dist, line_dir):
    """Parametric interval where the triangle crosses its plane-line."""
    proj = tri @ line_dir
    pts = []
    for i in range(3):
        j = (i + 1) % 3
        di, dj = dist[i], dist[j]
        if di * dj < 0.0:
            t = di / (di - dj)
            pts.append(proj[i] + t * (proj[j] - proj[i]))
        elif di == 0.0:
            pts.append(proj[i])
    if not pts:
        return None
    return min(pts), max(pts)


def _coplanar_overlap(t1, t2, n, tol):
    """Proper 2D overlap of coplanar triangles; contact along shared lines
    does not count (vertices must land strictly inside)."""
    k = int(np.argmax(np.abs(n)))
    keep = [ax for ax in range(3) if ax != k]
    a = t1[:, keep]
    b = t2[:, keep]

    def strictly_inside(p, tri):
        s = 0.0
        for j in range(3):
            u, v = tri[j], tri[(j + 1) % 3]
            cr = (v[0] - u[0]) * (p[1] - u[1]) - (v[1] - u[1]) * (p[0] - u[0])
            if s == 0.0:
                s = cr
            if cr * s <= tol * tol:
                return False
        return True

    return any(strictly_inside(p, b) for p in a) or \
        any(strictly_inside(p, a) for p in b)


def _tri_tri_penetration(t1, t2, tol):
    n2 = np.cross(t2[1] - t2[0], t2[2] - t2[0])
    nn2 = np.linalg.norm(n2)
    if nn2 < 1e-30:
        return False
    n2 /= nn2
    d1 = np.array([(p - t2[0]) @ n2 for p in t1])
    if np.all(d1 > tol) or np.all(d1 < -tol):
        return False
    n1 = np.cross(t1[1] - t1[0], t1[2] - t1[0])
    nn1 = np.linalg.norm(n1)
    if nn1 < 1e-30:
        return False
    n1 /= nn1
    d2 = np.array([(p - t1[0]) @ n1 for p in t2])
    if np.all(d2 > tol) or np.all(d2 < -tol):
        return False
    if np.all(np.abs(d1) <= tol) or np.all(np.abs(d2) <= tol):
        # coplanar: coincident-panel overlap counts, line contact does not
        return _coplanar_overlap(t1, t2, n2, tol)
    line = np.cross(n1, n2)
    ln = np.linalg.norm(line)
    if ln < 1e-12:
        return False
    line /= ln
    i1 = _interval_on_line(t1, d1, line)
    i2 = _interval_on_line(t2, d2, line)
    if i1 is None or i2 is None:
        return False
    overlap = min(i1[1], i2[1]) - max(i1[0], i2[0])
    return overlap > tol


def clash_test(pattern: CreasePattern, state: FoldedState):
    """Interpenetrating panel pairs (triangulated along a diagonal), as
    sorted pairs of face numbers.

    Panels sharing a crease are reported only when that crease has folded
    to pi (coincident panels); other vertex-sharing pairs are hinge
    contact by design.  Distinct pairs must interpenetrate by more than
    1e-9 x diameter; the same threshold treats near-coplanar overlap as
    the coincidence case."""
    coords = state.vertex_coords
    tol = 1e-9 * max(pattern.diameter, 1.0)
    hits = []
    for idx, (fl, fr) in enumerate(pattern.crease_faces.tolist()):
        if fl >= 0 and fr >= 0 and abs(state.rho[idx]) >= np.pi - 1e-9:
            hits.append(tuple(sorted((fl, fr))))
    tris = _face_tris(pattern, coords)
    lo = np.array([t[2].min(axis=0) for t in tris])
    hi = np.array([t[2].max(axis=0) for t in tris])
    for a in range(len(tris)):
        fa, ia, ta = tris[a]
        ok = np.all(lo[a + 1:] <= hi[a] + tol, axis=1) & \
             np.all(hi[a + 1:] >= lo[a] - tol, axis=1)
        for off in np.nonzero(ok)[0]:
            b = a + 1 + off
            fb, ib, tb = tris[b]
            if fa == fb or set(ia) & set(ib):
                continue
            if _tri_tri_penetration(ta, tb, tol):
                pair = tuple(sorted((fa, fb)))
                if pair not in hits:
                    hits.append(pair)
    return sorted(hits)


def sweep_to_halt(pattern: CreasePattern, samples=64, coarse=64, driving_crease=None):
    """Trajectory from flat to the halting state.

    Drives the designated crease with the sign of its mountain/valley
    assignment, marching then bisecting to the smallest driving value where
    any crease reaches pi - HALT_TOL or panels interpenetrate."""
    dc = driving_crease if driving_crease is not None else default_driving_crease(pattern)
    sgn = pattern.creases[dc].mv or 1
    max_step = np.pi / 128  # branch continuity needs modest driving steps

    def simulate(d, prev):
        d0 = abs(prev.driving_rho) if prev is not None else 0.0
        if prev is not None and abs(d - d0) > max_step:
            steps = int(np.ceil(abs(d - d0) / max_step))
            st = prev
            for q in range(1, steps):
                st = propagate(pattern, sgn * (d0 + (d - d0) * q / steps),
                               prev=st, driving_crease=dc)
            return propagate(pattern, sgn * d, prev=st, driving_crease=dc)
        return propagate(pattern, sgn * d, prev=prev, driving_crease=dc)

    def crease_metric(st):
        others = np.abs(st.rho)
        return float(others.max() - (np.pi - HALT_TOL))

    flat = simulate(0.0, None)
    last_good, last_d = flat, 0.0
    event_lo, event_hi = None, None
    limit = None
    for k in range(1, coarse + 1):
        d = np.pi * k / coarse
        try:
            st = simulate(d, last_good)
        except (OutOfRange, NotRigidFoldable):
            limit = (last_d, d)
            break
        if crease_metric(st) >= 0.0 or clash_test(pattern, st):
            event_lo, event_hi = last_d, d
            break
        last_good, last_d = st, d
    if event_lo is None:
        if limit is None:
            raise NoHalt("driving reached pi with no crease at pi and no clash")
        lo, hi = limit
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break  # float resolution: no later step can move lo or hi
            try:
                st = simulate(mid, last_good)
            except (OutOfRange, NotRigidFoldable):
                hi = mid
                continue
            if crease_metric(st) >= 0.0 or clash_test(pattern, st):
                event_lo, event_hi = lo, mid
                break
            lo = mid
            last_good, last_d = st, mid
        if event_lo is None:
            raise NoHalt("folding range ends with no crease at pi and no clash")

    lo, hi = event_lo, event_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        try:
            st = simulate(mid, last_good)
        except (OutOfRange, NotRigidFoldable):
            hi = mid
            continue
        if crease_metric(st) >= 0.0 or clash_test(pattern, st):
            hi = mid
        else:
            lo = mid
            last_good = st
    d_halt = hi

    values = np.linspace(0.0, d_halt, max(samples, 2))
    states, prevst = [], None
    for d in values:
        prevst = simulate(d, prevst)
        states.append(prevst)
    halt = states[-1]
    halt.halted = True
    if clash_test(pattern, halt) and crease_metric(halt) < 0:
        halt.halt_reason = "panel-interpenetration"
    else:
        halt.halt_reason = "crease-at-pi"
    halt.residuals["halting_creases"] = [
        int(i) for i in np.nonzero(np.abs(halt.rho) >= np.pi - 10 * HALT_TOL)[0]]
    return Trajectory(states, values)


def extract_polylines(pattern: CreasePattern, state: FoldedState, axis, index,
                      include_boundary=False):
    """Folded polyline of inner vertices along one grid row or column."""
    if axis not in ("row", "column"):
        raise ValueError("axis must be 'row' or 'column'")
    if not (1 <= index <= (pattern.rows if axis == "row" else pattern.cols)):
        raise IndexError(f"{axis} index out of range")
    pts = state.vertex_coords[pattern.line_ids(axis, index, include_boundary)]
    if len(pts) == 1:
        pts = np.vstack([pts, pts + [[1e-9, 0, 0]]])
    return PolyCurve(pts, np.arange(len(pts), dtype=float))
