"""Reference grid recovery for FOLD documents without curvefold:grid.

`_infer_grid` is the face-by-face recovery `curvefold.foldio` used before
it placed vertices on nodes: it orients every face counterclockwise, then
carries one axis offset per face across shared edges and derives each
corner's node from its two edge axes.  Its node grid can come out a
quarter turn off the drawing, so the tests only ask that the library's
grid be one of its four quarter turns.
"""
import numpy as np

from curvefold.errors import NotQuadGrid


def _infer_grid(coords, quads):
    """Combinatorial grid recovery: faces form an (m+1) x (n+1) array glued
    along opposite quad edges.

    All face cycles are first oriented counterclockwise in the plane; the
    consistent chirality then propagates grid axes face to face."""
    if not quads:
        raise NotQuadGrid("no faces to recover a grid from")
    faces = []
    for f in quads:
        area = 0.0
        for j in range(4):
            a, b = coords[f[j]], coords[f[(j + 1) % 4]]
            area += a[0] * b[1] - b[0] * a[1]
        faces.append(tuple(f if area > 0 else f[::-1]))
    edge_faces = {}
    for fi, f in enumerate(faces):
        for j in range(4):
            key = tuple(sorted((f[j], f[(j + 1) % 4])))
            edge_faces.setdefault(key, []).append((fi, j))
    adj = {fi: {} for fi in range(len(faces))}
    for lst in edge_faces.values():
        if len(lst) == 2:
            (fa, ja), (fb, jb) = lst
            adj[fa][ja] = (fb, jb)
            adj[fb][jb] = (fa, ja)
    cyc = ((0, 1), (-1, 0), (0, -1), (1, 0))
    start = min(adj)
    pos = {start: (0, 0)}
    offs = {start: 0}  # local edge j carries axis cyc[(j + off) % 4]
    stack = [start]
    while stack:
        f = stack.pop()
        r, c = pos[f]
        for j, (g, jj) in adj[f].items():
            ax = cyc[(j + offs[f]) % 4]
            nr, nc = r + ax[0], c + ax[1]
            if g in pos:
                if pos[g] != (nr, nc):
                    raise NotQuadGrid("faces do not form a consistent grid")
                continue
            back = (-ax[0], -ax[1])
            t = next(t for t in range(4) if cyc[(jj + t) % 4] == back)
            pos[g] = (nr, nc)
            offs[g] = t
            stack.append(g)
    if len(pos) != len(faces):
        raise NotQuadGrid("face adjacency is not connected")
    rs = [p[0] for p in pos.values()]
    cs = [p[1] for p in pos.values()]
    r0, c0 = min(rs), min(cs)
    R, C = max(rs) - r0 + 1, max(cs) - c0 + 1
    if R * C != len(faces):
        raise NotQuadGrid("faces do not tile a rectangle")
    ext = np.full((R + 1, C + 1), -1, dtype=int)
    for f, (r, c) in pos.items():
        rr, cc = r - r0, c - c0
        off = offs[f]
        for j in range(4):
            a_prev = cyc[(j - 1 + off) % 4]
            a_cur = cyc[(j + off) % 4]
            dr = 1 if (1, 0) in (a_prev, a_cur) else 0
            dc = 1 if (0, 1) in (a_prev, a_cur) else 0
            node = (rr + dr, cc + dc)
            vid = faces[f][j]
            if ext[node] not in (-1, vid):
                raise NotQuadGrid("grid nodes are not uniquely shared")
            ext[node] = vid
    if (ext < 0).any():
        raise NotQuadGrid("grid nodes not fully covered")
    # the grid may come out transposed or flipped relative to the canonical
    # row/column semantics; that only relabels rows and columns
    return ext
