"""Cross-module verification: folded-state checks, each against its entry
of `tolerances.TOLERANCES`, used by the test suite and `curvefold verify`."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .foldsim import place_panels
from .ortho import OrthoAngleGrid
from .parallel import column_dihedrals
from .pattern import CreasePattern, panel_distances
from .tolerances import FLAT_STATE, LENGTH_FLOOR, TOLERANCES

@dataclass
class CheckResult:
    check_id: str
    ok: bool
    residual: float
    tol: float

    def as_dict(self):
        return {"check_id": self.check_id, "ok": bool(self.ok),
                "residual": float(self.residual), "tol": float(self.tol)}


def _result(check_id, residual, tol_key):
    tol = TOLERANCES[tol_key]
    return CheckResult(check_id, residual <= tol, float(residual), tol)


def _plane_fit_residual(pts):
    """Smallest singular value of the centered point cloud: total least
    squares distance scale to the best plane."""
    q = pts - pts.mean(axis=0)
    if len(pts) < 4:
        return 0.0
    return float(np.linalg.svd(q, compute_uv=False)[-1])


def check_developability(pattern: CreasePattern):
    return _result("developability", pattern.developability_residual(),
                   "developability")


def check_coplanarity(pattern, state, axis, index):
    pts = state.vertex_coords[pattern.line_ids(axis, index)]
    res = _plane_fit_residual(pts) / max(pattern.diameter, LENGTH_FLOOR)
    return _result(f"coplanarity-{axis}-{index}", res, "coplanarity")


def measure_xi(pattern, state, index, axis="column"):
    """Folded angles between consecutive inner creases along a grid line."""
    pts = state.vertex_coords[pattern.line_ids(axis, index, include_boundary=True)]
    out = []
    for k in range(1, len(pts) - 1):
        u = pts[k - 1] - pts[k]
        v = pts[k + 1] - pts[k]
        u = u / np.linalg.norm(u)
        v = v / np.linalg.norm(v)
        out.append(float(np.arccos(np.clip(u @ v, -1.0, 1.0))))
    return out


def check_xi(pattern, state, index, expected_xi, axis="column", skip_first=False):
    """Measured staircase angles along one grid line vs the design value.

    skip_first drops the corner at the halting column, whose turn is half
    the staircase angle by the halting construction."""
    vals = measure_xi(pattern, state, index, axis)
    if skip_first:
        vals = vals[1:]
    if not vals:
        return CheckResult(f"xi-{axis}-{index}", True, 0.0, TOLERANCES["xi"])
    res = max(abs(v - expected_xi) for v in vals)
    return _result(f"xi-{axis}-{index}", res, "xi")


def check_row_fold_equal(pattern, state, row):
    """All row creases of one grid row carry equal fold magnitude."""
    vals = np.abs(state.rho[pattern.row_creases[row, 1:pattern.cols]])
    res = (vals.max() - vals.min()) if len(vals) else 0.0
    return _result(f"row-fold-equal-{row}", res, "row_fold_equal")


def check_opposite_row_folds(pattern, state):
    """Row creases of consecutive grid rows fold with opposite signs and
    equal magnitudes (the longitudinal accordion of the repeating unit)."""
    rc = pattern.row_creases[1:pattern.rows + 1, :pattern.cols]
    res = np.abs(state.rho[rc[:-1]] + state.rho[rc[1:]]).max(initial=0.0)
    return _result("opposite-row-folds", res, "opposite_folds")


def check_closure(pattern, state):
    """Panel-loop closure of a state; a state read from a file carries none,
    so it is recomputed from the state's fold angles."""
    closure = state.residuals.get("closure")
    if closure is None:
        closure = place_panels(pattern, state.rho)[1]["closure"]
    return _result("closure", closure, "closure")


def check_isometry(pattern, state):
    d2, d3 = panel_distances(pattern, state.vertex_coords)
    res = np.max(np.abs(d3 - d2) / np.maximum(d2, LENGTH_FLOOR))
    return _result("isometry", res, "isometry")


def check_kawasaki(pattern: CreasePattern, columns):
    """Flat-foldability of the selected grid columns' vertices."""
    res = 0.0
    for i in columns:
        for k in range(pattern.rows):
            s = pattern.sectors[k, i - 1]
            res = max(res, abs(s[0] + s[2] - np.pi), abs(s[1] + s[3] - np.pi))
    return _result("kawasaki", res, "kawasaki")


def check_separability(grid_alpha):
    res = OrthoAngleGrid(np.asarray(grid_alpha, dtype=float)).separability_residual()
    return _result("separability", res, "separability")


def measure_phi(pattern, state, i):
    """Dihedral between the planes of folded columns i and i+1, measured
    from the cross products of their inner-crease directions."""
    V = state.vertex_coords
    a = V[pattern.line_ids("column", i, include_boundary=True)]
    b = V[pattern.line_ids("column", i + 1, include_boundary=True)]

    def plane_normal(pts):
        n = np.cross(pts[0] - pts[1], pts[2] - pts[1])
        return n / np.linalg.norm(n)

    na, nb = plane_normal(a), plane_normal(b)
    return float(np.arccos(np.clip(na @ nb, -1.0, 1.0)))


def check_phi(pattern, state, i, expected_phi):
    if np.abs(state.rho).max() < FLAT_STATE:
        return CheckResult(f"phi-{i}", True, 0.0, TOLERANCES["phi"])  # flat: undefined
    got = measure_phi(pattern, state, i)
    res = abs(got - expected_phi)
    return _result(f"phi-{i}", res, "phi")


def check_column_dihedrals(pattern, state, xi):
    """check_phi on the columns i = 1 .. cols - 1 that xi covers, against
    `parallel.column_dihedrals` of the first-row sectors and xi; NaN, and
    every check failed, where a spherical triangle does not close."""
    n = min(pattern.cols, len(xi))
    try:
        with np.errstate(all="ignore"):
            phis = column_dihedrals(pattern.sectors[0, :n], xi[:n])
    except OutOfRange:
        phis = [np.nan] * (n - 1)
    return [check_phi(pattern, state, i, phi) for i, phi in enumerate(phis, start=1)]


def check_halt(pattern, state):
    """The designated halting creases, the left row stubs of the halting
    column 1, reach pi at the halting state."""
    stubs = pattern.row_creases[1:pattern.rows + 1, 0]
    res = (np.pi - np.abs(state.rho[stubs])).max(initial=0.0)
    return _result("halt-fold", res, "halt_fold")


def check_perpendicular_rows(pattern, state):
    """Orthodiagonal: each folded row plane contains the local datum chord
    and is perpendicular to the datum plane."""
    V = state.vertex_coords
    dat = V[pattern.line_ids("column", 1, include_boundary=True)]
    dn = np.cross(dat[1] - dat[0], dat[2] - dat[0])
    for k in range(2, len(dat) - 1):
        cand = np.cross(dat[k] - dat[0], dat[k + 1] - dat[0])
        if np.linalg.norm(cand) > np.linalg.norm(dn):
            dn = cand
    dn = dn / np.linalg.norm(dn)
    res, res_t = 0.0, 0.0
    for r in range(1, pattern.rows + 1):
        row = V[pattern.line_ids("row", r)]
        q = row - row.mean(axis=0)
        _, _, Vt = np.linalg.svd(q)
        nrm = Vt[-1]
        res = max(res, abs(nrm @ dn))  # row plane vertical <=> normal in datum plane
        # local tangent in the angular sense: the direction symmetric
        # between the two datum segments at this vertex
        up = dat[r - 1] - dat[r]
        dn_seg = dat[r + 1] - dat[r]
        tang = dn_seg / np.linalg.norm(dn_seg) - up / np.linalg.norm(up)
        tang = tang / np.linalg.norm(tang)
        res_t = max(res_t, abs(tang @ nrm))
    vertical = _result("rows-perpendicular", res, "perpendicular")
    tangent = _result("rows-contain-tangent", res_t, "perpendicular_tangent")
    return vertical if not vertical.ok else tangent


def run_pattern_checks(pattern, state=None, trajectory=None):
    """The full invariant suite for one design; returns CheckResults.  A
    family's own checks run only on a design of that type: one with no
    type gets the checks every quad grid must pass."""
    kind = pattern.design.get("type")
    ortho, parallel = kind == "orthodiagonal", kind == "parallel-repeating"
    out = [check_developability(pattern)]
    if ortho and "grid_alpha" in pattern.design:
        out.append(check_separability(pattern.design["grid_alpha"]))
    else:
        cols = list(range(2, pattern.cols + 1))
        if cols:
            out.append(check_kawasaki(pattern, cols))
    states = []
    if state is not None:
        states.append(state)
    if trajectory is not None:
        states.extend(trajectory.states[1:])
    for st in states[-4:]:
        out.append(check_closure(pattern, st))
        out.append(check_isometry(pattern, st))
        for i in range(1, pattern.cols + 1):
            out.append(check_coplanarity(pattern, st, "column", i))
        if ortho:
            for r in range(1, pattern.rows + 1):
                out.append(check_coplanarity(pattern, st, "row", r))
        xi = pattern.design.get("xi")
        if xi and np.abs(st.rho).max() > FLAT_STATE and st.halted:
            for i, x in enumerate(xi, start=1):
                if ortho and pattern.cols >= 2:
                    out.append(check_xi(pattern, st, i, x, axis="row", skip_first=True))
                elif parallel and pattern.rows >= 2:
                    out.append(check_xi(pattern, st, i, x, axis="column"))
            if parallel:
                out.extend(check_column_dihedrals(pattern, st, xi))
        for r in range(1, pattern.rows + 1):
            out.append(check_row_fold_equal(pattern, st, r))
    if trajectory is not None:
        halt = trajectory.halt
        out.append(check_halt(pattern, halt))
        if ortho:
            out.append(check_perpendicular_rows(pattern, halt))
        elif parallel:
            out.append(check_opposite_row_folds(pattern, halt))
    return out
