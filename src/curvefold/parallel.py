"""Inverse design of the parallel repeating type.

A space datum curve is approximated by the top row of inner creases; a
planar target curve by the leftmost (halting) column.  The halting column
carries straight-column-line vertices (a1, a2, pi-a2, pi-a1) designed so
the left row stubs reach fold angle pi; all other vertices are
flat-foldable.  Rows of the pattern are parallel translates of the top
row polyline, so adjacent columns' staircases relate by the diagonal
scalings (k1, k2) and the whole folded surface is the target staircase
swept along the datum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, NoSolution, OutOfRange
from .foldsim import bootstrap_mv, default_driving_crease
from .geometry import (_SECTION, AffineParams, Partition, PolyCurve, _arc, _rowdot, _unit,
                       hausdorff, partition_uniform, staircase, staircase_segments)
from .kinematics import (BRANCH_ORDER, guarded_arccos, row_transfer_residual,
                         solve_first_vertex)
from .pattern import (DesignReport, assemble_grid, check_embeddable,
                      panel_distances, set_corners, signed_fold_angles)
from .tolerances import (COLLINEAR_FRAME, ROOT_SCAN_MARGIN, ROW_DRIFT,
                         TRANSFER_TOL, XI_MARGIN)

#: BRANCH_ORDER as one (4, 16) stack of signs, a column per branch
_BRANCHES = np.array(BRANCH_ORDER).T


def _rot2(v, ang):
    c, s = np.cos(ang), np.sin(ang)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _plane_basis(axis, ref):
    """Unit vector of plane(axis, ref) perpendicular to `axis`, on the ref
    side of it."""
    w = ref - (ref @ axis) * axis
    n = np.linalg.norm(w)
    if n < COLLINEAR_FRAME:
        raise OutOfRange("reference direction collinear with axis")
    return w / n


def _in_plane(axis, w, phi):
    """cos(phi) axis + sin(phi) w, for one angle or an array of them."""
    return np.multiply.outer(np.cos(phi), axis) + np.multiply.outer(np.sin(phi), w)


def _in_plane_dir(axis, ref, phi):
    """Unit vector at angle phi from `axis` inside plane(axis, ref), on the
    ref side of the axis."""
    return _in_plane(axis, _plane_basis(axis, ref), phi)


def _arcs_to(dirs, v):
    """_arc(v, d) for every row d of dirs: the per-row product is the dot
    kernel of the scalar `v @ d` (see the bit-equality note of geometry)."""
    return np.arccos(np.clip(_rowdot(dirs, v), -1.0, 1.0))


@dataclass(frozen=True)
class ParallelDesignSpec:
    """Inputs of a parallel-repeating design.

    n_row partitions the datum (one inner vertex per partition point, i.e.
    grid columns); n_col partitions the target curve (grid rows)."""

    datum: PolyCurve
    target: PolyCurve
    n_row: int
    n_col: int
    rho4: float = 5.0 * np.pi / 6.0
    theta: float = 0.0
    eps: float = 0.1
    phase: str = "x"

    def __post_init__(self):
        if not (0.0 < self.rho4 < np.pi):
            raise ValueError("rho4 must lie in (0, pi)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.target.closed:
            raise ValueError("target curve must be open")
        if self.n_row < 1 or self.n_col < 1:
            raise ValueError("partition counts must be >= 1")


@dataclass
class _RowState:
    """Halting-state frames of the designed row."""

    slots: list                 # per-vertex sector quadruples (R, U, L, D)
    U: list                     # unit up-crease directions at halting
    D: list
    branch_log: list
    points: np.ndarray          # partition points


def _design_row_state(partition: Partition, rho4):
    """Sector angles and halting-state crease frames along the datum row.

    Vertex 1 comes from the closed halting conditions; each next vertex is
    continued geometrically: its up/down creases live in the shared panel
    planes, flat-foldability plus developability fix the two placement
    angles via a bracketed 1-D root find.  Equivalent to solving the
    transfer equations; the vanishing sign branch is recorded."""
    pts = partition.points
    if pts.shape[1] == 2:
        pts = np.hstack([pts, np.zeros((len(pts), 1))])
    n = partition.n
    beta = partition.turn_angles
    a1, a2 = solve_first_vertex(beta[0], rho4)
    slots = [(a1, a2, np.pi - a2, np.pi - a1)]
    L1 = _unit(pts[0] - pts[1])
    R1 = _unit(pts[2] - pts[1])
    nrm = np.cross(L1, R1)
    if np.linalg.norm(nrm) < COLLINEAR_FRAME:
        raise NoSolution("first turn is degenerate", index=1)
    nrm = _unit(nrm)
    U = [np.cos(a2) * L1 + np.sin(a2) * nrm]
    D = [-np.cos(a2) * L1 + np.sin(a2) * nrm]
    branch_log = []
    grid = np.linspace(ROOT_SCAN_MARGIN, np.pi - ROOT_SCAN_MARGIN, 720)
    for i in range(1, n):
        Lp = _unit(pts[i] - pts[i + 1])
        Rp = _unit(pts[i + 2] - pts[i + 1])
        wU, wD = _plane_basis(Lp, U[-1]), _plane_basis(Lp, D[-1])

        def s1_of(phi):
            return _arcs_to(_in_plane(Lp, wU, phi), Rp)

        def g(phi):
            return phi + _arcs_to(_in_plane(Lp, wD, np.pi - s1_of(phi)), Rp) - np.pi

        # one form of g for the grid and the bisection, so g(grid[k]) is
        # vals[k] bit for bit and flo never changes sign
        vals = g(grid)
        hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
        if not len(hits):
            raise NoSolution(f"no transfer solution at row vertex {i + 1}", index=i + 1)
        k = hits[0]
        phi = float(grid[k]) if vals[k] == 0.0 else _bisect(g, grid[k], grid[k + 1], vals[k])
        s1p = float(s1_of(np.array([phi]))[0])
        psi = np.pi - s1p
        quad = (s1p, phi, psi, np.pi - phi)
        slots.append(quad)
        U.append(_in_plane(Lp, wU, phi))
        D.append(_in_plane(Lp, wD, psi))
        branch_log.append(_matching_branch(slots[i - 1], quad, beta[i - 1], beta[i],
                                           partition.dihedrals[i - 1]))
    return _RowState(slots, U, D, branch_log, pts)


def _bisect(g, lo, hi, flo):
    """(lo + hi) / 2 after up to 100 halvings of the bracket, g(lo) = flo,
    until a midpoint is not strictly inside.  The midpoints of _SECTION
    levels, each formed as the halving forms it, take one call of g."""
    top = 1 << _SECTION
    for step in range(100):
        if step % _SECTION == 0:
            # e[x] halves (e[x - b], e[x + b]), b = x & -x the lowest bit of x
            e = np.empty(top + 1)
            e[0], e[top] = lo, hi
            for j in range(_SECTION):
                h = top >> j
                e[h // 2::h] = 0.5 * (e[:-1:h] + e[h::h])
            fs, x = g(e[1:-1]), top // 2
        mid, fm = e[x], fs[x - 1]
        if not lo < mid < hi:
            break  # float resolution: (lo, hi) is a fixed point
        if flo * fm <= 0.0:
            hi, x = mid, x - (x & -x) // 2
        else:
            lo, flo, x = mid, fm, x + (x & -x) // 2
    return float(0.5 * (lo + hi))


def _matching_branch(prev, nxt, bi, bip, thi):
    """The first branch of BRANCH_ORDER with the least worst residual; an
    OutOfRange holds for every branch at once."""
    try:
        worst = np.abs(row_transfer_residual(prev, nxt, bi, bip, thi, _BRANCHES)).max(axis=0)
    except OutOfRange:
        worst = [np.inf]
    k = int(np.argmin(worst))
    if worst[k] > TRANSFER_TOL:
        raise NoSolution("no transfer sign branch matches the solved vertex")
    return BRANCH_ORDER[k]


def xi_recurrence(xi_i, quad):
    """Angle between adjacent inner creases of the next column.

    quad = (s1_i, s4_i, s2_{i+1}, s3_{i+1}): the row-crease-adjacent sectors
    of vertex i and the shared-crease sectors of vertex i+1."""
    s1, s4, s2n, s3n = quad
    for x in quad:
        if not (0.0 < x < np.pi):
            raise OutOfRange(f"sector {x:.6g} outside (0, pi)")
    c = np.cos(s2n) * np.cos(s3n) + (np.sin(s2n) * np.sin(s3n) / (np.sin(s1) * np.sin(s4))) \
        * (np.cos(xi_i) - np.cos(s1) * np.cos(s4))
    return guarded_arccos(c)


def xi_list(slots):
    """xi_1 = |2 a2 - pi| at the halting column, then the recurrence."""
    a2 = slots[0][1]
    xs = [abs(2.0 * a2 - np.pi)]
    for i in range(len(slots) - 1):
        s, sn = slots[i], slots[i + 1]
        xs.append(xi_recurrence(xs[-1], (s[0], s[3], sn[1], sn[2])))
    return xs


def column_scales(slots, phase="x"):
    """Cumulative per-column staircase scalings (x-image axis, y-image axis).

    Adjacent columns relate by k1 = sin s1_j / sin s2_{j+1} on the strips of
    one parity and k2 = sin s4_j / sin s3_{j+1} on the other; which parity
    carries the image x axis depends on the staircase phase."""
    n = len(slots)
    cumx, cumy = [1.0], [1.0]
    for j in range(n - 1):
        s, sn = slots[j], slots[j + 1]
        k1 = np.sin(s[0]) / np.sin(sn[1])
        k2 = np.sin(s[3]) / np.sin(sn[2])
        kx, ky = (k1, k2) if phase == "x" else (k2, k1)
        cumx.append(cumx[-1] * kx)
        cumy.append(cumy[-1] * ky)
    return np.array(cumx), np.array(cumy)


def column_dihedrals(sectors, xs):
    """The dihedral phi_i between the folded planes of columns i and i+1,
    for each pair of consecutive columns, from the spherical triangle of
    their shared top panel, given the first-row sectors (R, U, L, D) and
    the column crease angles xi.  Raises OutOfRange where a triangle does
    not close."""
    out = []
    for s, sn, x, xn in zip(sectors, sectors[1:], xs, xs[1:]):
        e1 = guarded_arccos((np.cos(s[3]) - np.cos(s[0]) * np.cos(x))
                            / (np.sin(s[0]) * np.sin(x)))
        e2 = guarded_arccos((np.cos(sn[2]) - np.cos(sn[1]) * np.cos(xn))
                            / (np.sin(sn[1]) * np.sin(xn)))
        cphi = -np.cos(e1) * np.cos(e2) - np.sin(e1) * np.sin(e2) * np.cos(s[0] + sn[1])
        out.append(guarded_arccos(cphi))
    return out


def build_pattern(spec: ParallelDesignSpec):
    """Full planar pattern plus design report.

    Raises NoSolution / NotAdmissible / OutOfRange / CreaseIntersection."""
    part = partition_uniform(spec.datum, spec.n_row)
    state = _design_row_state(part, spec.rho4)
    slots = state.slots
    n = len(slots)
    m = spec.n_col
    xs = xi_list(slots)
    for x in xs:
        if not (XI_MARGIN < x < np.pi - XI_MARGIN):
            raise OutOfRange(f"column crease angle xi = {x:.6g} too close to 0 or pi")
    aff1 = AffineParams(spec.theta, xs[0])
    stair = staircase(spec.target, aff1, m, phase=spec.phase)
    base_segs = staircase_segments(stair, aff1)
    want = spec.phase
    for axis, _ in base_segs:
        if axis != want:
            raise LayoutError("staircase segment axes do not alternate from the phase")
        want = "y" if want == "x" else "x"
    cumx, cumy = column_scales(slots, spec.phase)

    def seg_len(k, i):
        axis, base = base_segs[k]
        return base * (cumx[i - 1] if axis == "x" else cumy[i - 1])

    pattern = _draw_pattern(spec, part, slots, m, seg_len)
    folded = _halting_state(part, state, m, seg_len, pattern)
    # M/V from the motion near flat, driven the way the design folds it:
    # the stubs at pi read no sign of their own from the halting state
    rho = signed_fold_angles(pattern, folded["coords"])
    bootstrap_mv(pattern, d0=math.copysign(0.02, rho[default_driving_crease(pattern)]))
    pattern.design["halt_rho"] = (pattern.creases.mv * np.abs(rho)).tolist()
    check_embeddable(pattern)

    eps_datum = hausdorff(part.points, spec.datum.refined(4))
    eps_curve = hausdorff(stair.points, spec.target.refined(4))
    report = DesignReport(
        design_type="parallel-repeating",
        eps_target=spec.eps,
        eps_datum=eps_datum,
        eps_curve=eps_curve,
        branch_log=state.branch_log,
        stair=stair.points,
        notes={
            "rho4": spec.rho4,
            "theta": spec.theta,
            "xi": [float(x) for x in xs],
            "halting_residuals": folded["residuals"],
        },
    )
    pattern.design["halting_state"] = folded
    pattern.design["xi"] = [float(x) for x in xs]
    pattern.design["report"] = report
    return pattern, report


def _sweep_columns(row1, up, down, m, seg_len):
    """(m+2, n+2, dim) node grid with its n columns filled, in the plane or
    in space: row 1 is `row1`, each next row steps along its column by
    seg_len(k, column), down the zigzag `down`, -`up`, `down`, ... to the
    bottom stubs, and the top stubs step from row 1 along `up`."""
    n, dim = row1.shape
    up, down = np.asarray(up), np.asarray(down)
    lens = np.array([[seg_len(k, i) for i in range(1, n + 1)] for k in range(m + 1)])[..., None]
    nodes = np.zeros((m + 2, n + 2, dim))
    nodes[1, 1:-1] = row1
    for k in range(1, m + 1):
        nodes[k + 1, 1:-1] = nodes[k, 1:-1] + lens[k] * (down if k % 2 == 1 else -up)
    nodes[0, 1:-1] = row1 + lens[0] * up
    return nodes


def _draw_pattern(spec, part: Partition, slots, m, seg_len):
    """Planar layout: top row polyline from the partition lengths and
    sector sums, parallel translated rows below it."""
    n = len(slots)
    lengths = part.lengths
    headings = [np.array([1.0, 0.0])]
    for i in range(1, n):
        s = slots[i]
        headings.append(_rot2(headings[-1], np.pi - (s[0] + s[1])))
    row1 = [np.zeros(2)]
    for i in range(1, n):
        row1.append(row1[-1] + lengths[i] * headings[i - 1])
    s0 = slots[0]
    stub_l = _rot2(headings[0], s0[0] + s0[1])          # toward the left boundary
    stub_r = headings[-1]
    updir = [_rot2(headings[i], slots[i][0]) for i in range(n)]
    downdir = [_rot2(headings[i], -slots[i][3]) for i in range(n)]

    nodes = _sweep_columns(np.asarray(row1), updir, downdir, m, seg_len)
    inner = nodes[1:-1, 1:-1]
    # parallel-row closure residual (perpendicular drift between columns)
    seg = np.diff(inner, axis=1)
    seg = seg / np.sqrt(_rowdot(seg, seg))[..., None]
    drift = np.abs(seg[1:, :, 0] * seg[0, :, 1] - seg[1:, :, 1] * seg[0, :, 0]).max(initial=0.0)
    if drift > ROW_DRIFT:
        raise LayoutError(f"row translation drift {drift:.3g}")

    nodes[1:-1, 0] = inner[:, 0] + lengths[0] * stub_l
    nodes[1:-1, -1] = inner[:, -1] + lengths[n] * stub_r
    return assemble_grid(set_corners(nodes),
                         design={"type": "parallel-repeating", "theta": spec.theta,
                                 "phase": spec.phase, "rho4": spec.rho4})


def _halting_state(part: Partition, state: _RowState, m, seg_len, pattern):
    """Analytic folded coordinates at the halting configuration, mirroring
    the pattern's vertex indexing."""
    pts = state.points
    n = len(state.slots)
    nodes = _sweep_columns(pts[1:n + 1], state.U, state.D, m, seg_len)
    inner = nodes[1:-1, 1:-1]

    # row stubs: chained through the margin panel planes
    residuals = {}
    ldirs = [_unit(pts[0] - pts[1])]
    for k in range(1, m):
        up = -_unit(inner[k, 0] - inner[k - 1, 0])
        s = pattern.sectors[k, 0]  # measured from the drawing
        ldirs.append(_in_plane_dir(up, ldirs[-1], s[1]))
    rdirs = [_unit(pts[n + 1] - pts[n])]
    for k in range(1, m):
        up = -_unit(inner[k, n - 1] - inner[k - 1, n - 1])
        s = pattern.sectors[k, n - 1]
        rdirs.append(_in_plane_dir(up, rdirs[-1], s[0]))
    nodes[1:-1, 0] = inner[:, 0] + part.lengths[0] * np.array(ldirs)
    nodes[1:-1, -1] = inner[:, -1] + part.lengths[n] * np.array(rdirs)
    V = np.zeros((pattern.vertices.shape[0], 3))
    V[pattern.ext_id] = set_corners(nodes)

    # design-consistency residuals: panel isometry against the pattern
    d2, d3 = panel_distances(pattern, V)
    residuals["isometry"] = float(np.max(np.abs(d2 - d3)))
    xi_geo = max(abs(_arc(state.U[i], state.D[i]) - x)
                 for i, x in enumerate(xi_list(state.slots)))
    residuals["xi_vs_recurrence"] = float(xi_geo)
    return {"coords": V, "residuals": residuals}


