"""Quad-grid crease pattern container and planar embeddability check.

The grid has `rows` x `cols` inner vertices.  Boundary vertices close each
row polyline (left/right stubs), each column polyline (top/bottom stubs)
and the four paper corners.  Faces are the (rows+1) x (cols+1) panels.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CreaseIntersection, NotRigidFoldable
from .geometry import _PAIR_BLOCK, _rowdot, hausdorff
from .kinematics import VertexAngles
from .tolerances import CROSSING_REL, LAYOUT_DEV_TOL

ROLE_ROW = "row-crease"
ROLE_COL = "column-crease"
ROLE_BOUNDARY = "boundary"


@dataclass
class CreasePattern:
    """Planar grid plus its grid index, as `assemble_grid` numbers it.
    Face (r, c) is face r * (cols + 1) + c."""

    rows: int
    cols: int
    vertices: np.ndarray          # (V, 2) planar coordinates
    ext_id: np.ndarray            # (rows+2, cols+2) -> vertex id, boundary ring included
    creases: np.recarray          # (C,) u, v, role, mv: +1 valley, -1 mountain, 0 unassigned
    faces: np.ndarray             # (rows+1, cols+1, 4) vertex ids, CCW in the plane
    sectors: np.ndarray           # (rows, cols, 4) sector angles, (R, U, L, D) order
    row_creases: np.ndarray       # (rows+2, cols+1) crease from ext_id[r, c] to its right
    col_creases: np.ndarray       # (rows+1, cols+2) crease from ext_id[r, c] downwards
    crease_faces: np.ndarray      # (C, 2) faces left and right of crease u->v, -1 outside
    design: dict = field(default_factory=dict)

    def line_ids(self, axis, index, include_boundary=False):
        """Vertex ids along grid row or column `index` (1-based): the inner
        vertices, plus the two boundary ends when asked."""
        line = self.ext_id[index] if axis == "row" else self.ext_id[:, index]
        return line if include_boundary else line[1:-1]

    def crease_ends(self):
        """(C, 2) vertex ids (u, v) of every crease."""
        return np.array([self.creases["u"], self.creases["v"]]).T

    @property
    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    @property
    def vertex_creases(self):
        """(rows, cols, 4): the creases at each inner vertex, (R, U, L, D)."""
        H, V = self.row_creases, self.col_creases
        return np.stack([H[1:-1, 1:], V[:-1, 1:-1], H[1:-1, :-1], V[1:, 1:-1]], axis=-1)

    def kept(self, *builds):
        """build(self), kept in the pattern's one store until an array the
        fold layers read (vertices, sectors, grid index, crease ends from
        the plain array view) changes shape or bytes; the store is then
        rebuilt whole.  M/V, roles and the design are not in the key: every
        caller reads them fresh, so writing M/V (`bootstrap_mv`) rebuilds
        nothing.  Several builds share one key, are built in order and come back as a tuple."""
        key = [(a.shape, a.tobytes()) for a in (
            self.vertices, self.sectors, self.row_creases, self.col_creases, self.faces,
            self.crease_faces, *(self.creases.view(np.ndarray)[e] for e in "uv"))]
        store = self.__dict__.get("_kept")
        if store is None or store[0] != key:
            store = self._kept = key, {}
        for build in builds:
            if build not in store[1]:
                store[1][build] = build(self)
        got = tuple(store[1][build] for build in builds)
        return got if len(got) > 1 else got[0]

    def developability_residual(self):
        return float(np.max(np.abs(self.sectors.sum(axis=2) - 2.0 * np.pi)))


def _vertex_table(pattern: CreasePattern):
    """VertexAngles of every inner vertex, row-major, as a list; a vertex
    that is not a valid degree-4 vertex raises NotRigidFoldable."""
    table = []
    for k, row in enumerate(pattern.sectors.tolist()):
        for i, sec in enumerate(row):
            try:
                table.append(VertexAngles(tuple(sec)))
            except ValueError as e:
                raise NotRigidFoldable(f"vertex ({k + 1},{i + 1}): {e}")
    return table


def panel_distances(pattern: CreasePattern, coords):
    """Planar and placed length of every vertex-to-vertex chord of every
    panel, as two arrays in the same order."""
    a, b = np.triu_indices(4, 1)
    quads = pattern.faces.reshape(-1, 4)
    chords = [(P[quads[:, a]] - P[quads[:, b]]).reshape(-1, P.shape[1])
              for P in (pattern.vertices, np.asarray(coords))]
    return tuple(np.sqrt(_rowdot(d, d)) for d in chords)


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _straddles(d1, d2, eps):
    """d1 and d2 lie on opposite sides of zero, each by more than eps."""
    return ((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))


def sweep_pairs(x0, x1, slack, block, runs=1):
    """Candidate pairs of a sort-and-sweep over the intervals [x0, x1]
    (Baraff 1992): every unordered pair (i, j) whose intervals overlap,
    widened by slack, once, with i's interval starting no later than j's.
    The intervals form `runs` runs of equal length, one after another, and
    pair only within their run.  Yields (i, j) index arrays in sweep order,
    run by run, in blocks of about `block` pairs."""
    n = len(x0) // runs
    order = np.argsort(x0.reshape(runs, n), axis=1, kind="stable") + n * np.arange(runs)[:, None]
    # sweep position p pairs with the count[p] positions after it in its
    # run: the intervals that start before interval order[p] ends
    count = np.concatenate([np.searchsorted(x0[o], x1[o] + slack, side="right")
                            - np.arange(1, n + 1) for o in order])
    order = order.ravel()
    total = np.cumsum(count)
    p = 0
    while p < len(order):
        done = total[p - 1] if p else 0
        q = max(p + 1, int(np.searchsorted(total, done + block, side="right")))
        # positions p + r + 1 to p + r + k[r] pair with position p + r
        k = count[p:q]
        second = np.arange(k.sum()) + np.repeat(np.arange(p + 1, q + 1) - (np.cumsum(k) - k), k)
        yield np.repeat(order[p:q], k), order[second]
        p = q


def check_embeddable(pattern: CreasePattern):
    """Raise CreaseIntersection if any two creases cross away from shared
    vertices.  An x-interval sweep lists the candidate pairs; blocks of
    them are tested as arrays, and the first crossing pair in sweep order
    is reported."""
    pts = pattern.vertices
    uv = pattern.crease_ends()
    xs = pts[uv, 0]
    eps = CROSSING_REL * pattern.diameter ** 2
    for i, j in sweep_pairs(xs.min(axis=1), xs.max(axis=1), 0.0, _PAIR_BLOCK):
        (u1, v1), (u2, v2) = uv[i].T, uv[j].T
        p1, p2, p3, p4 = pts[u1].T, pts[v1].T, pts[u2].T, pts[v2].T
        hit = (_straddles(_orient(p3, p4, p1), _orient(p3, p4, p2), eps)
               & _straddles(_orient(p1, p2, p3), _orient(p1, p2, p4), eps)
               & (u1 != v1) & (u2 != v2) & (u1 != u2) & (u1 != v2)
               & (v1 != u2) & (v1 != v2))
        if hit.any():
            a, b = int(i[hit][0]), int(j[hit][0])
            scale = _suggest_rescale(pts, tuple(uv[a]), tuple(uv[b]))
            raise CreaseIntersection(
                f"creases {a} and {b} intersect away from vertices",
                pair=(a, b),
                suggestion=f"try scaling the target curve by ~{scale:.2f} "
                           "or refining the partitions")
    return True


def _suggest_rescale(pts, s1, s2):
    """Crude shrink factor that would separate the two offending creases."""
    c1 = 0.5 * (pts[s1[0]] + pts[s1[1]])
    c2 = 0.5 * (pts[s2[0]] + pts[s2[1]])
    l1 = np.linalg.norm(pts[s1[0]] - pts[s1[1]])
    l2 = np.linalg.norm(pts[s2[0]] - pts[s2[1]])
    gap = np.linalg.norm(c1 - c2)
    need = 0.5 * (l1 + l2)
    return max(0.1, min(0.9, gap / need if need > 0 else 0.5))


def set_corners(nodes):
    """Fill the four paper corners of a node grid in place: each corner
    closes the parallelogram spanned by its row stub and its column stub."""
    for r, rn in ((0, 1), (-1, -2)):
        for c, cn in ((0, 1), (-1, -2)):
            nodes[r, c] = nodes[rn, c] + (nodes[r, cn] - nodes[rn, cn])
    return nodes


def sweep_columns(row1, up, down, m, seg_len):
    """(m+2, n+2, dim) node grid with its n columns filled, in the plane or
    in space: row 1 is `row1`, each next row steps along its column by
    seg_len(k, column), down the zigzag `down`, -`up`, `down`, ... to the
    bottom stubs, and the top stubs step from row 1 along `up`.  `up` and
    `down` hold one direction per column."""
    n, dim = row1.shape
    up, down = np.asarray(up), np.asarray(down)
    lens = np.array([[seg_len(k, i) for i in range(1, n + 1)] for k in range(m + 1)])[..., None]
    nodes = np.zeros((m + 2, n + 2, dim))
    nodes[1, 1:-1] = row1
    for k in range(1, m + 1):
        nodes[k + 1, 1:-1] = nodes[k, 1:-1] + lens[k] * (down if k % 2 == 1 else -up)
    nodes[0, 1:-1] = row1 + lens[0] * up
    return nodes


def assemble_grid(nodes, design):
    """Build a CreasePattern from its planar node grid.

    nodes: (rows+2, cols+2, 2), the inner vertices inside the ring of
    boundary vertices: row stubs in the first and last column, column stubs
    in the first and last row, paper corners at the four corners.  Vertex
    ids are row-major over the nodes.  Row creases come first, row-major,
    then column creases, column-major; every crease runs from a node to
    its right or lower neighbour.  Sector angles are measured from the
    drawing in (R, U, L, D) order."""
    nodes = np.array(nodes, dtype=float)
    R, C = nodes.shape[:2]
    verts = nodes.reshape(-1, 2)
    ext = np.arange(len(verts)).reshape(R, C)
    H = np.arange(R * (C - 1)).reshape(R, C - 1)
    V = H.size + np.arange(C * (R - 1)).reshape(C, R - 1).T
    ends = np.empty((H.size + V.size, 2), dtype=int)
    ends[H] = np.stack([ext[:, :-1], ext[:, 1:]], axis=-1)
    ends[V] = np.stack([ext[:-1], ext[1:]], axis=-1)
    kind = np.zeros(len(ends), dtype=int)
    kind[H[1:-1]], kind[V[:, 1:-1]] = 1, 2
    creases = np.rec.fromarrays([*ends.T, np.array([ROLE_BOUNDARY, ROLE_ROW, ROLE_COL])[kind],
                                 np.zeros(len(ends), dtype=int)], names="u,v,role,mv")

    # each quad runs top-left, top-right, bottom-right, bottom-left, and
    # is reversed where that order winds clockwise in the plane
    quads = np.stack([ext[:-1, :-1], ext[:-1, 1:], ext[1:, 1:], ext[1:, :-1]], axis=-1)
    P = np.moveaxis(nodes, -1, 0)
    flip = _orient(P[:, :-1, :-1], P[:, :-1, 1:], P[:, 1:, 1:]) < 0
    faces = np.where(flip[..., None], quads[..., ::-1], quads)
    # a face runs u->v along its top and right creases, so it lies on their
    # left (side 0), and v->u along the other two; a reversed face swaps the
    # sides.  Of two faces that claim one side, the later face keeps it.
    f = np.arange(flip.size).reshape(flip.shape)
    side = flip.astype(int)
    crease_faces = np.full((len(ends), 2), -1)
    crease_faces[H[1:], 1 - side] = f            # bottom
    crease_faces[V[:, 1:], side] = f             # right
    crease_faces[H[:-1], side] = f               # top
    crease_faces[V[:, :-1], 1 - side] = f        # left

    d = (np.stack([nodes[1:-1, 2:], nodes[:-2, 1:-1], nodes[1:-1, :-2], nodes[2:, 1:-1]],
                  axis=2) - nodes[1:-1, 1:-1, None])             # R, U, L, D
    angs = np.arctan2(d[..., 1], d[..., 0])
    sectors = (np.roll(angs, -1, axis=2) - angs) % (2.0 * np.pi)

    pat = CreasePattern(rows=R - 2, cols=C - 2, vertices=verts, ext_id=ext,
                        creases=creases, faces=faces, sectors=sectors,
                        row_creases=H, col_creases=V, crease_faces=crease_faces,
                        design=design)
    if pat.developability_residual() > LAYOUT_DEV_TOL:
        # a winding inversion means the drawn layout folds back on itself
        raise CreaseIntersection(
            f"drawn layout is not developable "
            f"(residual {pat.developability_residual():.3g}); "
            "scaling the datum or target curve may help")
    return pat


def signed_fold_angles(pattern: CreasePattern, coords):
    """Signed fold angle per crease of a folded vertex placement (valley
    positive); boundary edges get 0."""
    quads = pattern.faces.reshape(-1, 4)
    normals = np.cross(coords[quads[:, 2]] - coords[quads[:, 0]],
                       coords[quads[:, 3]] - coords[quads[:, 1]])
    normals /= np.sqrt(_rowdot(normals, normals))[:, None]
    fl, fr = pattern.crease_faces.T
    inner = np.nonzero((fl >= 0) & (fr >= 0))[0]
    ends = pattern.crease_ends()[inner]
    e = coords[ends[:, 1]] - coords[ends[:, 0]]
    e /= np.sqrt(_rowdot(e, e))[:, None]
    nr, nl = normals[fr[inner]], normals[fl[inner]]
    out = np.zeros(len(pattern.creases))
    out[inner] = np.arctan2(_rowdot(np.cross(nr, nl), e), _rowdot(nr, nl))
    return out


def finish_design(pattern: CreasePattern, spec, part, stair, xs, notes, branch_log=()):
    """The tail of both design families: the embedding check, the
    report with the Hausdorff distances of the datum's partition and the
    target's staircase to their curves refined 4x, and the xis written to
    the design and the notes.  Returns (pattern, report)."""
    check_embeddable(pattern)
    xi = pattern.design["xi"] = [float(x) for x in xs]
    report = DesignReport(
        design_type=pattern.design["type"],
        eps_target=spec.eps,
        eps_datum=hausdorff(part.points, spec.datum.refined(4)),
        eps_curve=hausdorff(stair.points, spec.target.refined(4)),
        branch_log=list(branch_log),
        stair=stair.points,
        notes={"theta": spec.theta, "xi": list(xi), **notes},
    )
    return pattern, report


@dataclass
class DesignReport:
    design_type: str
    eps_target: float
    eps_datum: float
    eps_curve: float
    branch_log: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    #: the target's staircase as drawn; `as_dict` leaves it out
    stair: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def within_budget(self):
        return self.eps_datum < self.eps_target and self.eps_curve < self.eps_target

    def as_dict(self):
        return {
            "design_type": self.design_type,
            "eps_target": self.eps_target,
            "eps_datum": self.eps_datum,
            "eps_curve": self.eps_curve,
            "within_budget": self.within_budget,
            "halting_col": 1,
            "branch_log": [list(b) for b in self.branch_log],
            "checks": [],
            "notes": self.notes,
        }
