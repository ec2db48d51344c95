"""Quad-grid crease pattern container and planar embeddability check.

The grid has `rows` x `cols` inner vertices.  Boundary vertices close each
row polyline (left/right stubs), each column polyline (top/bottom stubs)
and the four paper corners.  Faces are the (rows+1) x (cols+1) panels.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CreaseIntersection, NotRigidFoldable
from .kinematics import VertexAngles

ROLE_ROW = "row-crease"
ROLE_COL = "column-crease"
ROLE_BOUNDARY = "boundary"


@dataclass
class Crease:
    u: int
    v: int
    role: str
    mv: int = 0           # +1 valley, -1 mountain, 0 boundary/unassigned
    length: float = 0.0


@dataclass
class CreasePattern:
    """Planar grid plus the grid index that `finalize` derives from it.

    Faces are numbered row-major, face (r, c) as r * (cols + 1) + c.  The
    index attributes are `vertex_creases` (rows, cols, 4), the crease at
    each inner vertex in (R, U, L, D) order; `row_creases` (rows+2, cols+1)
    and `col_creases` (rows+1, cols+2), the crease from ext_id[r, c] to
    its right and lower neighbour; `crease_faces` (C, 2), the faces left
    and right of each directed crease u->v, -1 on the outside; and
    `placement`, rows (face, parent face, crease, fold sign) in the BFS
    order that places every panel from face 0."""

    rows: int
    cols: int
    vertices: np.ndarray          # (V, 2) planar coordinates
    ext_id: np.ndarray            # (rows+2, cols+2) -> vertex id, boundary ring included
    creases: list
    faces: np.ndarray             # (rows+1, cols+1, 4) vertex ids, CCW in the plane
    sectors: np.ndarray           # (rows, cols, 4) sector angles, (R, U, L, D) order
    halting_col: int = 1
    design: dict = field(default_factory=dict)

    def line_ids(self, axis, index, include_boundary=False):
        """Vertex ids along grid row or column `index` (1-based): the inner
        vertices, plus the two boundary ends when asked."""
        line = self.ext_id[index] if axis == "row" else self.ext_id[:, index]
        return line if include_boundary else line[1:-1]

    @property
    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def crease_between(self, vid_a, vid_b):
        key = (min(vid_a, vid_b), max(vid_a, vid_b))
        return self._edge_lookup[key]

    def finalize(self):
        self._edge_lookup = {}
        for idx, c in enumerate(self.creases):
            c.length = float(np.linalg.norm(self.vertices[c.u] - self.vertices[c.v]))
            self._edge_lookup[(min(c.u, c.v), max(c.u, c.v))] = idx
        R, C = self.ext_id.shape
        ext = self.ext_id.tolist()
        H = self.row_creases = np.array(
            [[self.crease_between(ext[r][c], ext[r][c + 1]) for c in range(C - 1)]
             for r in range(R)])
        V = self.col_creases = np.array(
            [[self.crease_between(ext[r][c], ext[r + 1][c]) for c in range(C)]
             for r in range(R - 1)])
        self.vertex_creases = np.stack(
            [H[1:-1, 1:], V[:-1, 1:-1], H[1:-1, :-1], V[1:, 1:-1]], axis=-1)
        # face on each side of every oriented crease, from the CCW winding:
        # a face listing the directed edge u->v lies on its left
        self.crease_faces = np.full((len(self.creases), 2), -1)
        for f, quad in enumerate(self.faces.reshape(-1, 4).tolist()):
            for j in range(4):
                a, b = quad[j], quad[(j + 1) % 4]
                idx = self.crease_between(a, b)
                cr = self.creases[idx]
                self.crease_faces[idx, 0 if (a, b) == (cr.u, cr.v) else 1] = f
        # seen from its left face a crease folds the other way
        adjacency = [[] for _ in range(self.faces.shape[0] * self.faces.shape[1])]
        for idx, (fl, fr) in enumerate(self.crease_faces.tolist()):
            if fl >= 0 and fr >= 0:
                adjacency[fl].append((fr, idx, -1))
                adjacency[fr].append((fl, idx, 1))
        queue, placed, placement = [0], {0}, []
        for parent in queue:
            for face, idx, sign in adjacency[parent]:
                if face not in placed:
                    placed.add(face)
                    queue.append(face)
                    placement.append((face, parent, idx, sign))
        self.placement = np.array(placement, dtype=int).reshape(-1, 4)
        return self

    def vertex_angles(self):
        """VertexAngles of every inner vertex, row-major, as a list.

        Built once per content of `sectors`; a vertex that is not a valid
        degree-4 vertex raises NotRigidFoldable."""
        key = self.sectors.tobytes()
        cached = getattr(self, "_vertex_angles", None)
        if cached is None or cached[0] != key:
            table = []
            for k, row in enumerate(self.sectors.tolist()):
                for i, sec in enumerate(row):
                    try:
                        table.append(VertexAngles(tuple(sec)))
                    except ValueError as e:
                        raise NotRigidFoldable(f"vertex ({k + 1},{i + 1}): {e}")
            cached = self._vertex_angles = (key, table)
        return cached[1]

    def face_grid_iter(self):
        for r in range(self.rows + 1):
            for c in range(self.cols + 1):
                yield r, c, self.faces[r, c]

    def developability_residual(self):
        return float(np.max(np.abs(self.sectors.sum(axis=2) - 2.0 * np.pi)))


def panel_distances(pattern: CreasePattern, coords):
    """Planar and placed length of every vertex-to-vertex chord of every
    panel, as two arrays in the same order."""
    P = pattern.vertices
    planar, placed = [], []
    for _, _, quad in pattern.face_grid_iter():
        for a in range(4):
            for b in range(a + 1, 4):
                planar.append(np.linalg.norm(P[quad[a]] - P[quad[b]]))
                placed.append(np.linalg.norm(coords[quad[a]] - coords[quad[b]]))
    return np.array(planar), np.array(placed)


#: candidate crease pairs tested per array pass of check_embeddable
_PAIR_BLOCK = 1 << 14


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _straddles(d1, d2, eps):
    """d1 and d2 lie on opposite sides of zero, each by more than eps."""
    return ((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))


def check_embeddable(pattern: CreasePattern):
    """Raise CreaseIntersection if any two creases cross away from shared
    vertices.  An x-interval sweep lists the candidate pairs; blocks of
    them are tested as arrays, and the first crossing pair in sweep order
    is reported."""
    pts = pattern.vertices
    uv = np.array([(c.u, c.v) for c in pattern.creases], dtype=int).reshape(-1, 2)
    xs = pts[uv, 0]
    x0, x1 = xs.min(axis=1), xs.max(axis=1)
    order = np.argsort(x0, kind="stable")
    x0s = x0[order]
    # sweep position p pairs with the count[p] positions after it: the
    # creases that start before crease order[p] ends
    count = np.searchsorted(x0s, x1[order], side="right") - np.arange(1, len(order) + 1)
    total = np.cumsum(count)
    eps = 1e-12 * max(pattern.diameter, 1.0) ** 2
    p = 0
    while p < len(order):
        done = total[p - 1] if p else 0
        q = max(p + 1, int(np.searchsorted(total, done + _PAIR_BLOCK, side="right")))
        k = count[p:q]
        first = np.repeat(np.arange(p, q), k)
        second = first + 1 + np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
        i, j = order[first], order[second]
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
        p = q
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


def assemble_grid(nodes, halting_col, design):
    """Build a CreasePattern from its planar node grid.

    nodes: (rows+2, cols+2, 2), the inner vertices inside the ring of
    boundary vertices: row stubs in the first and last column, column stubs
    in the first and last row, paper corners at the four corners.  Vertex
    ids are row-major over the nodes.  Sector angles are measured from the
    drawing in (R, U, L, D) order."""
    nodes = np.array(nodes, dtype=float)
    m, n = nodes.shape[0] - 2, nodes.shape[1] - 2
    verts = nodes.reshape(-1, 2)
    ext = np.arange(len(verts)).reshape(m + 2, n + 2)

    creases = []
    for r in range(m + 2):
        role = ROLE_ROW if 1 <= r <= m else ROLE_BOUNDARY
        for c in range(n + 1):
            creases.append(Crease(int(ext[r, c]), int(ext[r, c + 1]), role))
    for c in range(n + 2):
        role = ROLE_COL if 1 <= c <= n else ROLE_BOUNDARY
        for r in range(m + 1):
            creases.append(Crease(int(ext[r, c]), int(ext[r + 1, c]), role))

    faces = np.zeros((m + 1, n + 1, 4), dtype=int)
    for r in range(m + 1):
        for c in range(n + 1):
            quad = [ext[r, c], ext[r, c + 1], ext[r + 1, c + 1], ext[r + 1, c]]
            a, b, cc = verts[quad[0]], verts[quad[1]], verts[quad[2]]
            if (b[0] - a[0]) * (cc[1] - a[1]) - (b[1] - a[1]) * (cc[0] - a[0]) < 0:
                quad = quad[::-1]
            faces[r, c] = quad

    pat = CreasePattern(rows=m, cols=n, vertices=verts, ext_id=ext,
                        creases=creases, faces=faces,
                        sectors=np.zeros((m, n, 4)),
                        halting_col=halting_col, design=design)
    pat.finalize()
    tau = 2.0 * np.pi
    for k in range(1, m + 1):
        for i in range(1, n + 1):
            p = nodes[k, i]
            angs = [np.arctan2(d[1], d[0]) for d in (
                nodes[k, i + 1] - p, nodes[k - 1, i] - p,      # R, U
                nodes[k, i - 1] - p, nodes[k + 1, i] - p)]     # L, D
            pat.sectors[k - 1, i - 1] = [(angs[(j + 1) % 4] - angs[j]) % tau
                                         for j in range(4)]
    if pat.developability_residual() > 1e-9:
        # a winding inversion means the drawn layout folds back on itself
        raise CreaseIntersection(
            f"drawn layout is not developable "
            f"(residual {pat.developability_residual():.3g}); "
            "scaling the datum or target curve may help")
    return pat


def _rowdot(a, b):
    """a[k] @ b[k] for every row k, by the dot kernel of the scalar product
    (see the bit-equality note of geometry)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def signed_fold_angles(pattern: CreasePattern, coords):
    """Signed fold angle per crease of a folded vertex placement (valley
    positive); boundary edges get 0."""
    quads = pattern.faces.reshape(-1, 4)
    normals = np.cross(coords[quads[:, 2]] - coords[quads[:, 0]],
                       coords[quads[:, 3]] - coords[quads[:, 1]])
    normals /= np.sqrt(_rowdot(normals, normals))[:, None]
    fl, fr = pattern.crease_faces.T
    inner = np.nonzero((fl >= 0) & (fr >= 0))[0]
    ends = np.array([(c.u, c.v) for c in pattern.creases])[inner]
    e = coords[ends[:, 1]] - coords[ends[:, 0]]
    e /= np.sqrt(_rowdot(e, e))[:, None]
    nr, nl = normals[fr[inner]], normals[fl[inner]]
    out = np.zeros(len(pattern.creases))
    out[inner] = np.arctan2(_rowdot(np.cross(nr, nl), e), _rowdot(nr, nl))
    return out


@dataclass
class DesignReport:
    design_type: str
    eps_target: float
    eps_datum: float
    eps_curve: float
    halting_col: int
    branch_log: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

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
            "halting_col": self.halting_col,
            "branch_log": [list(b) for b in self.branch_log],
            "checks": [c.as_dict() if hasattr(c, "as_dict") else c for c in self.checks],
            "notes": self.notes,
        }
