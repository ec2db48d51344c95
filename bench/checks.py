"""Output checks computed apart from the program.

Each check recomputes a property the method guarantees from the raw
planar and folded coordinates, grid ids and fold angles; none compares
against a stored copy of an earlier output.  Tolerances are the program's
own `verify.TOLERANCES` values.  A failed check raises CheckFailed, whose
`kind` names the class of check for the self-test.
"""
from __future__ import annotations

import numpy as np

from curvefold.verify import TOLERANCES

#: folded-coordinate fold angles agree with the state's fold angles to this
#: (rad); the simulator's own cross-vertex consistency bound
FOLD_ANGLE_TOL = 1e-7
#: a crease within this of pi counts as halting (the sweep stops at
#: pi - 1e-6 and the other halting creases trail by a few times that)
HALT_ANGLE_TOL = 1e-5
#: fig5: driving halt against the designed rho4 (rad)
HALT_DRIVING_TOL = 1e-6
#: fig5: swept halt against the design's analytic halting state, after a
#: rigid alignment, as a share of the pattern diameter
HALT_STATE_TOL = 1e-6


class CheckFailed(AssertionError):
    def __init__(self, kind, message):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def require(ok, kind, message):
    if not ok:
        raise CheckFailed(kind, message)


def diameter(pattern):
    v = np.asarray(pattern.vertices, float)
    return float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))


def _inner(pattern):
    return np.asarray(pattern.ext_id)[1:-1, 1:-1]


def _faces(pattern):
    """Quad faces from the grid ids: (r, c) spans ext[r..r+1, c..c+1]."""
    ext = np.asarray(pattern.ext_id)
    return np.stack([ext[:-1, :-1], ext[:-1, 1:], ext[1:, 1:], ext[1:, :-1]], axis=-1)


def crease_index(pattern):
    return {(min(c.u, c.v), max(c.u, c.v)): i for i, c in enumerate(pattern.creases)}


def left_stubs(pattern):
    """Creases from the left boundary to the first inner column."""
    ext = np.asarray(pattern.ext_id)
    idx = crease_index(pattern)
    return {idx[tuple(sorted((int(ext[r, 0]), int(ext[r, 1]))))]
            for r in range(1, ext.shape[0] - 1)}


def developability(pattern):
    """Sector angles around every inner vertex, from the planar drawing,
    sum to 2 pi."""
    ext = np.asarray(pattern.ext_id)
    P = np.asarray(pattern.vertices, float)
    worst = 0.0
    for k in range(1, ext.shape[0] - 1):
        for i in range(1, ext.shape[1] - 1):
            o = P[ext[k, i]]
            nbrs = (ext[k, i + 1], ext[k - 1, i], ext[k, i - 1], ext[k + 1, i])
            d = [P[j] - o for j in nbrs]
            total = 0.0
            for j in range(4):
                a, b = d[j], d[(j + 1) % 4]
                cross = a[0] * b[1] - a[1] * b[0]
                total += np.arctan2(abs(cross), a @ b)
            worst = max(worst, abs(total - 2.0 * np.pi))
    tol = TOLERANCES["developability"]
    require(worst <= tol, "developability", f"sector sum off 2 pi by {worst:.3g} > {tol:g}")
    return worst


def isometry(pattern, coords):
    """Every panel keeps all its planar vertex distances when folded."""
    F = _faces(pattern).reshape(-1, 4)
    P = np.asarray(pattern.vertices, float)
    X = np.asarray(coords, float)
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            d2 = np.linalg.norm(P[F[:, a]] - P[F[:, b]], axis=1)
            d3 = np.linalg.norm(X[F[:, a]] - X[F[:, b]], axis=1)
            worst = max(worst, float(np.max(np.abs(d3 - d2) / d2)))
    tol = TOLERANCES["isometry"]
    require(worst <= tol, "isometry", f"panel distance change {worst:.3g} > {tol:g}")
    return worst


def _plane_residual(pts):
    q = pts - pts.mean(axis=0)
    return float(np.linalg.svd(q, compute_uv=False)[-1]) if len(pts) >= 4 else 0.0


def coplanarity(pattern, coords, axes=("column",)):
    """Every folded column (and row, when asked) of inner vertices lies in
    one plane."""
    X = np.asarray(coords, float)
    inner = _inner(pattern)
    lines = []
    if "column" in axes:
        lines += [inner[:, i] for i in range(inner.shape[1])]
    if "row" in axes:
        lines += [inner[k, :] for k in range(inner.shape[0])]
    worst = max(_plane_residual(X[ids]) for ids in lines) / diameter(pattern)
    tol = TOLERANCES["coplanarity"]
    require(worst <= tol, "coplanarity",
            f"grid line off its plane by {worst:.3g} x diameter > {tol:g}")
    return worst


def fold_angles(pattern, state):
    """Fold angles measured between the folded panels agree with the
    state's fold angles on every interior crease."""
    X = np.asarray(state.vertex_coords, float)
    F = _faces(pattern)
    n = np.cross(X[F[..., 2]] - X[F[..., 0]], X[F[..., 3]] - X[F[..., 1]])
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    ext = np.asarray(pattern.ext_id)
    idx = crease_index(pattern)
    rho = np.asarray(state.rho, float)
    worst = 0.0
    R, C = ext.shape
    pairs = []
    for r in range(1, R - 1):            # row creases: panels above and below
        for c in range(C - 1):
            pairs.append(((ext[r, c], ext[r, c + 1]), (r - 1, c), (r, c)))
    for c in range(1, C - 1):            # column creases: panels left and right
        for r in range(R - 1):
            pairs.append(((ext[r, c], ext[r + 1, c]), (r, c - 1), (r, c)))
    for (u, v), fa, fb in pairs:
        na, nb = n[fa], n[fb]
        ang = np.arctan2(np.linalg.norm(np.cross(na, nb)), na @ nb)
        i = idx[(min(int(u), int(v)), max(int(u), int(v)))]
        worst = max(worst, abs(ang - abs(rho[i])))
    require(worst <= FOLD_ANGLE_TOL, "fold-angle",
            f"panel dihedral off the state's fold angle by {worst:.3g} rad")
    return worst


def halting_creases(pattern, state):
    """Creases at pi in the halting state, all among the left row stubs."""
    rho = np.abs(np.asarray(state.rho, float))
    halting = {int(i) for i in np.nonzero(rho >= np.pi - HALT_ANGLE_TOL)[0]}
    require(bool(halting), "halt", "no crease reached pi at the halt")
    stray = halting - left_stubs(pattern)
    require(not stray, "halt", f"halting creases {sorted(stray)} are not left row stubs")
    return sorted(halting)


def kabsch(src, dst):
    """Rotation R and translation t minimising |R src + t - dst|."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    U, _, Vt = np.linalg.svd((src - cs).T @ (dst - cd))
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ D @ U.T
    return R, cd - R @ cs


def matches_design_halt(pattern, state):
    """The swept halting state is the design's analytic halting state up to
    a rigid motion."""
    ref = np.asarray(pattern.design["halting_state"]["coords"], float)
    X = np.asarray(state.vertex_coords, float)
    R, t = kabsch(ref, X)
    worst = float(np.max(np.linalg.norm(ref @ R.T + t - X, axis=1))) / diameter(pattern)
    require(worst <= HALT_STATE_TOL, "halt-state",
            f"swept halt off the designed halt by {worst:.3g} x diameter")
    return worst


def driving_halt(value, rho4):
    require(abs(abs(value) - rho4) <= HALT_DRIVING_TOL, "halt",
            f"driving halt {value!r} is not rho4 = {rho4!r}")


def round_trip(text, export, import_):
    """export(import(text)) reproduces the FOLD document byte for byte."""
    pattern, state = import_(text)
    again = export(pattern, state=state)
    require(again == text, "fold-io", "FOLD export -> import -> export changed bytes")


def same_pattern(a, b):
    """A re-imported pattern keeps the grid, crease order, assignment and
    (to the 12 decimals FOLD keeps) the planar coordinates."""
    require(np.array_equal(np.asarray(a.ext_id), np.asarray(b.ext_id)), "fold-io",
            "re-imported grid ids differ")
    require([(c.u, c.v, c.mv) for c in a.creases] == [(c.u, c.v, c.mv) for c in b.creases],
            "fold-io", "re-imported creases or assignment differ")
    err = float(np.max(np.abs(np.asarray(a.vertices) - np.asarray(b.vertices))))
    require(err <= 1e-12, "fold-io", f"re-imported coordinates moved by {err:.3g}")


def svg_lines(svg, pattern):
    n = svg.count("<line ")
    require(n == len(pattern.creases), "svg", f"{n} SVG lines for {len(pattern.creases)} creases")


def program_checks(results):
    bad = [r.check_id for r in results if not r.ok]
    require(not bad, "verify", f"run_pattern_checks failed: {bad}")
