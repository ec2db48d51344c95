"""Reference design-layer scans in their original loop form.

`curvefold.geometry`, `curvefold.parallel` and `curvefold.pattern`
evaluate these scans as array passes.  The loops here are the definitions
the array code must reproduce bit for bit: the per-segment distance, the
dense Hausdorff distance, the one-image admissibility test and the
per-theta scan over it, the scalar root scan of the next row vertices, the
staircase corners, the lengths, turns and dihedrals of a polyline one
interior point at a time, the circumcircle curvature over sample triples, the
pairwise crease-crossing test, the per-crease signed fold angles, the
grid index of `assemble_grid` found through a (u, v) -> crease lookup, the
panel placement of `curvefold.foldsim.placement_order` as a queue, the
per-chord panel distances, and the depth-first M/V search that
`curvefold.foldsim.bootstrap_mv` replaced with one forward walk.  The
scan-and-Brent root find of the first row vertex is the reference for
the closed form of `curvefold.kinematics`, which agrees with it to
rounding, not bit for bit.  `solve_next_vertex`, a Newton solve of the
row transfer equations, is the independent check of the next row
vertices that the designer continues geometrically."""
from collections import namedtuple

import numpy as np

from curvefold.errors import (ClosedCurve, CreaseIntersection, DegenerateTurn, NoSolution,
                              NotRigidFoldable, OutOfRange)
from curvefold.foldsim import UNPLACEABLE, default_driving_crease
from curvefold.geometry import (TAU, AffineParams, Partition, PolyCurve, _arc,
                                _unit, affine_map)
from curvefold.kinematics import BRANCH_ORDER, propagate_both_modes, row_transfer_residual
from curvefold.pattern import (ROLE_BOUNDARY, ROLE_COL, ROLE_ROW, CreasePattern,
                               _suggest_rescale, _vertex_table)
from curvefold.tolerances import (BRANCH_TOL, COLLINEAR_TRIPLE, MONOTONE_TOL, SECTOR_MARGIN,
                                  SIGN_FLOOR)


def densify(obj, per_segment):
    if isinstance(obj, PolyCurve):
        pts = obj.samples
    elif isinstance(obj, Partition):
        pts = obj.points
    else:
        pts = np.asarray(obj, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
    if len(pts) == 1:
        return pts
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        w = np.linspace(0.0, 1.0, per_segment + 1)[:-1]
        out.append(a[None, :] + w[:, None] * (b - a)[None, :])
    out.append(pts[-1][None, :])
    return np.vstack(out)


def vertices_of(obj):
    if isinstance(obj, PolyCurve):
        return obj.samples
    if isinstance(obj, Partition):
        return obj.points
    pts = np.asarray(obj, dtype=float)
    return pts[None, :] if pts.ndim == 1 else pts


def refined(curve, factor):
    ts = []
    for a, b in zip(curve.param[:-1], curve.param[1:]):
        ts.append(np.linspace(a, b, factor + 1)[:-1])
    ts.append([curve.param[-1]])
    t = np.concatenate(ts)
    return PolyCurve(curve.point_at(t), t, closed=curve.closed)


def measure_polyline(points):
    """`geometry.measure_polyline` one interior point at a time."""
    pts = np.asarray(points, dtype=float)
    n = len(pts) - 2
    if n < 0:
        raise ValueError("need at least 2 points")
    pts3 = pts if pts.shape[1] == 3 else np.hstack([pts, np.zeros((len(pts), 1))])
    lengths = np.linalg.norm(np.diff(pts3, axis=0), axis=1)
    beta = np.empty(n)
    for i in range(1, n + 1):
        v1 = _unit(pts3[i - 1] - pts3[i])
        v2 = _unit(pts3[i + 1] - pts3[i])
        beta[i - 1] = np.arccos(np.clip(v1 @ v2, -1.0, 1.0))
    theta = np.empty(max(n - 1, 0))
    for i in range(1, n):
        axis = _unit(pts3[i + 1] - pts3[i])
        n1 = np.cross(pts3[i] - pts3[i - 1], pts3[i + 1] - pts3[i])
        n2 = np.cross(pts3[i + 1] - pts3[i], pts3[i + 2] - pts3[i + 1])
        if np.linalg.norm(n1) < COLLINEAR_TRIPLE or np.linalg.norm(n2) < COLLINEAR_TRIPLE:
            raise DegenerateTurn(f"collinear triple around interior point {i}")
        n1, n2 = _unit(n1), _unit(n2)
        theta[i - 1] = np.arctan2(np.cross(n1, n2) @ axis, n1 @ n2) % TAU
    return lengths, beta, theta


def polyline_curvature(pts):
    p = np.asarray(pts, dtype=float)
    worst = 0.0
    for i in range(1, len(p) - 1):
        a, b, c = p[i - 1], p[i], p[i + 1]
        ab, bc, ca = b - a, c - b, a - c
        area2 = abs(ab[0] * bc[1] - ab[1] * bc[0])
        denom = np.linalg.norm(ab) * np.linalg.norm(bc) * np.linalg.norm(ca)
        if denom > 0:
            worst = max(worst, 2.0 * area2 / denom)
    return worst


def min_dist_to_polyline(points, poly):
    P = np.asarray(points, dtype=float)
    V = vertices_of(poly)
    if len(V) == 1:
        return np.linalg.norm(P - V[0], axis=1)
    best = np.full(len(P), np.inf)
    for a, b in zip(V[:-1], V[1:]):
        d = b - a
        L2 = float(d @ d)
        t = np.clip(((P - a) @ d) / L2, 0.0, 1.0) if L2 > 0 else 0.0
        proj = a + t[:, None] * d
        best = np.minimum(best, np.linalg.norm(P - proj, axis=1))
    return best


def hausdorff(a, b, per_segment=64):
    pa = densify(a, per_segment)
    pb = densify(b, per_segment)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("dimension mismatch")
    d_ab = min_dist_to_polyline(pa, vertices_of(b)).max()
    d_ba = min_dist_to_polyline(pb, vertices_of(a)).max()
    return float(max(d_ab, d_ba))


def is_admissible(f, a):
    if f.closed:
        raise ClosedCurve("closed curves admit no monotone image")
    if f.dim != 2:
        raise ValueError("admissibility applies to planar curves")
    img = affine_map(f.samples, a)
    dx = np.diff(img[:, 0])
    if dx.sum() < 0.0:
        img = img[::-1]
        dx = -dx[::-1]
    dy = np.diff(img[:, 1])
    ok = bool(np.all(dx > MONOTONE_TOL) and np.all(dy < -MONOTONE_TOL))
    return ok, img


def search_theta(f, xi, grid=720):
    if grid < 1:
        raise ValueError("grid must be >= 1")
    thetas = TAU * np.arange(grid) / grid
    passing = []
    for t in thetas:
        ok, _ = is_admissible(f, AffineParams(t, xi))
        if ok:
            passing.append(float(t))
    return passing


def solve_first_vertex(beta1, rho4, scan=2048):
    """`kinematics.solve_first_vertex` as a root find: rho2 = pi fixes
    alpha1 from alpha2, then a scan of the rho4 equation g(alpha2) with one
    scalar evaluation per point and a Brent root find on each bracket; of
    two roots, the one with smaller |alpha1 - alpha2|."""
    from scipy.optimize import brentq

    if not (0.0 < beta1 < np.pi):
        raise OutOfRange(f"beta1 = {beta1:.6g} outside (0, pi)")
    if not (0.0 < rho4 < np.pi):
        raise OutOfRange(f"rho4 = {rho4:.6g} outside (0, pi)")

    def alpha1_of(a2):
        return np.arccos(np.clip(np.cos(a2) * np.cos(beta1), -1.0, 1.0))

    def g(a2):
        a1 = alpha1_of(a2)
        x4 = (np.cos(a1) * np.cos(beta1) - np.cos(a2)) / (np.sin(a1) * np.sin(beta1))
        return 2.0 * np.arccos(np.clip(x4, -1.0, 1.0)) - rho4

    grid = np.linspace(SECTOR_MARGIN, np.pi - SECTOR_MARGIN, scan)
    vals = np.array([g(a) for a in grid])
    roots = []
    for k in range(scan - 1):
        if np.isfinite(vals[k]) and np.isfinite(vals[k + 1]) and vals[k] * vals[k + 1] <= 0.0:
            if vals[k] == 0.0:
                roots.append(grid[k])
            else:
                roots.append(brentq(g, grid[k], grid[k + 1], xtol=1e-14))
    roots = [r for r in roots if SECTOR_MARGIN < alpha1_of(r) < np.pi - SECTOR_MARGIN]
    if not roots:
        raise NoSolution(f"no alpha2 in (0, pi) reaches rho4 = {rho4:.6g} "
                         f"at beta1 = {beta1:.6g}")
    pairs = sorted(((alpha1_of(r), r) for r in roots), key=lambda p: abs(p[0] - p[1]))
    return pairs[0]


NEWTON_TOL = 1e-12
NEWTON_MAXIT = 64
SEED_GRID = 16


def _flat_foldable_quad(a, b):
    return (a, b, np.pi - a, np.pi - b)


def solve_next_vertex(prev, beta_i, beta_ip1, theta_i, prefer=None):
    """Sector angles (a, b) of the next (flat-foldable) row vertex.

    2-D Newton on the transfer residuals with the flat-foldable
    substitution, seeded on a coarse grid over (0, pi)^2; branch sign
    patterns are tried in lexicographic order and the first branch with a
    converged valid root wins.  Among that branch's roots the one closest
    to `prefer` is returned when given (the row designer passes its
    geometric continuation), else the one closest to the mirrored
    previous vertex (p2, p1) -- the repetition a piecewise-spiral datum
    produces."""
    p = tuple(prev)
    h = 1e-7

    def residual(ab, branch):
        a, b = ab
        if not (SECTOR_MARGIN < a < np.pi - SECTOR_MARGIN
                and SECTOR_MARGIN < b < np.pi - SECTOR_MARGIN):
            return None
        try:
            return np.array(row_transfer_residual(
                p, _flat_foldable_quad(a, b), beta_i, beta_ip1, theta_i, branch))
        except OutOfRange:
            return None

    target = np.array(prefer) if prefer is not None else np.array([p[1], p[0]])
    grid = np.linspace(0.1, np.pi - 0.1, SEED_GRID)
    base_seeds = [np.array([sa, sb]) for sa in grid for sb in grid]
    for branch in BRANCH_ORDER:
        scored = []
        for ab in base_seeds:
            r = residual(ab, branch)
            if r is not None:
                scored.append((float(np.abs(r).max()), tuple(ab)))
        scored.sort()
        seeds = [np.array(s[1]) for s in scored[:12]]
        if prefer is not None:
            seeds.insert(0, np.array(prefer, dtype=float))
        roots = []
        for seed in seeds:
            ab = seed.copy()
            r = residual(ab, branch)
            if r is None:
                continue
            converged = False
            for _ in range(NEWTON_MAXIT):
                if np.abs(r).max() > 20.0:
                    break
                J = np.empty((2, 2))
                bad = False
                for k in range(2):
                    dp, dm = ab.copy(), ab.copy()
                    dp[k] += h
                    dm[k] -= h
                    rp, rm = residual(dp, branch), residual(dm, branch)
                    if rp is None or rm is None:
                        bad = True
                        break
                    J[:, k] = (rp - rm) / (2 * h)
                if bad:
                    break
                try:
                    step = np.linalg.solve(J, r)
                except np.linalg.LinAlgError:
                    break
                ab = ab - step
                r = residual(ab, branch)
                if r is None:
                    break
                if np.max(np.abs(r)) < NEWTON_TOL:
                    converged = True
                    break
            if converged and np.max(np.abs(r)) < 1e-9:
                if not any(np.allclose(ab, q, atol=1e-7) for q in roots):
                    roots.append(ab.copy())
        if roots:
            roots.sort(key=lambda q: np.linalg.norm(q - target))
            a, b = roots[0]
            return float(a), float(b), branch
    raise NoSolution("all branches and seeds failed for the transfer equations")


def _in_plane_dir(axis, ref, phi):
    w = ref - (ref @ axis) * axis
    n = np.linalg.norm(w)
    if n < 1e-13:
        raise OutOfRange("reference direction collinear with axis")
    w = w / n
    return np.cos(phi) * axis + np.sin(phi) * w


def design_row_state(partition, rho4):
    """Sectors and halting-state frames (slots, U, D) of
    `parallel._design_row_state`: a 720-point scan of the transfer
    function, one scalar call per grid point, then 100 bisection steps on
    the first bracket."""
    from curvefold.kinematics import solve_first_vertex as first_vertex
    pts = partition.points
    if pts.shape[1] == 2:
        pts = np.hstack([pts, np.zeros((len(pts), 1))])
    a1, a2 = first_vertex(partition.turn_angles[0], rho4)
    slots = [(a1, a2, np.pi - a2, np.pi - a1)]
    L1 = _unit(pts[0] - pts[1])
    R1 = _unit(pts[2] - pts[1])
    nrm = _unit(np.cross(L1, R1))
    U = [np.cos(a2) * L1 + np.sin(a2) * nrm]
    D = [-np.cos(a2) * L1 + np.sin(a2) * nrm]
    for i in range(1, partition.n):
        Lp = _unit(pts[i] - pts[i + 1])
        Rp = _unit(pts[i + 2] - pts[i + 1])
        Uref, Dref = U[-1], D[-1]

        def s1_of(phi):
            return _arc(Rp, _in_plane_dir(Lp, Uref, phi))

        def g(phi):
            psi = np.pi - s1_of(phi)
            return phi + _arc(_in_plane_dir(Lp, Dref, psi), Rp) - np.pi

        grid = np.linspace(1e-4, np.pi - 1e-4, 720)
        vals = np.array([g(p) for p in grid])
        root = None
        for k in range(len(grid) - 1):
            if vals[k] == 0.0:
                root = grid[k]
                break
            if vals[k] * vals[k + 1] < 0.0:
                lo, hi = grid[k], grid[k + 1]
                flo = vals[k]
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    fm = g(mid)
                    if flo * fm <= 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                root = 0.5 * (lo + hi)
                break
        if root is None:
            raise NoSolution(f"no transfer solution at row vertex {i + 1}", index=i + 1)
        phi = float(root)
        s1p = s1_of(phi)
        psi = np.pi - s1p
        slots.append((s1p, phi, psi, np.pi - phi))
        U.append(_in_plane_dir(Lp, Uref, phi))
        D.append(_in_plane_dir(Lp, Dref, psi))
    return slots, U, D


def staircase_corners(img, n, phase):
    """Image-frame staircase points, built corner by corner."""
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(img, axis=0), axis=1))])

    def at_arc(t):
        return np.array([np.interp(t, s, img[:, 0]), np.interp(t, s, img[:, 1])])

    if n % 2 == 1:
        r = (n - 1) // 2
        nodes = [at_arc(t) for t in np.linspace(0.0, s[-1], r + 2)]
        tail = None
    else:
        r = n // 2
        nodes = [at_arc(t) for t in np.linspace(0.0, s[-1], r + 2)[:-1]]
        tail = at_arc(s[-1])
    pts = [nodes[0]]
    for nx in nodes[1:]:
        cur = pts[-1]
        if phase == "x":
            pts.append(np.array([nx[0], cur[1]]))
        else:
            pts.append(np.array([cur[0], nx[1]]))
        pts.append(nx)
    if tail is not None:
        cur = pts[-1]
        if phase == "x":
            pts.append(np.array([tail[0], cur[1]]))
        else:
            pts.append(np.array([cur[0], tail[1]]))
    return np.asarray(pts)


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_cross(p1, p2, p3, p4, eps):
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    return bool(((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and
                ((d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)))


def check_embeddable(pattern):
    """The pair-by-pair crossing test behind the x-interval sweep."""
    pts = pattern.vertices
    segs = [(c.u, c.v) for c in pattern.creases]
    boxes = []
    for u, v in segs:
        x0, x1 = sorted((pts[u][0], pts[v][0]))
        boxes.append((x0, x1))
    order = sorted(range(len(segs)), key=lambda i: boxes[i][0])
    eps = 1e-12 * pattern.diameter ** 2
    for a_pos, i in enumerate(order):
        for j in order[a_pos + 1:]:
            if boxes[j][0] > boxes[i][1]:
                break
            u1, v1 = segs[i]
            u2, v2 = segs[j]
            if len({u1, v1, u2, v2}) < 4:
                continue
            if _segments_cross(pts[u1], pts[v1], pts[u2], pts[v2], eps):
                scale = _suggest_rescale(pts, segs[i], segs[j])
                raise CreaseIntersection(
                    f"creases {i} and {j} intersect away from vertices",
                    pair=(i, j),
                    suggestion=f"try scaling the target curve by ~{scale:.2f} "
                               "or refining the partitions")
    return True


def signed_fold_angles(pattern, coords):
    """`pattern.signed_fold_angles` with one face normal and one crease at
    a time."""
    def face_normal(quad):
        n = np.cross(coords[quad[2]] - coords[quad[0]], coords[quad[3]] - coords[quad[1]])
        return n / np.linalg.norm(n)

    normals = [face_normal(quad) for quad in pattern.faces.reshape(-1, 4)]
    out = np.zeros(len(pattern.creases))
    for idx, (fl, fr) in enumerate(pattern.crease_faces.tolist()):
        if fl < 0 or fr < 0:
            continue
        cr = pattern.creases[idx]
        e = coords[cr.v] - coords[cr.u]
        e = e / np.linalg.norm(e)
        nr, nl = normals[fr], normals[fl]
        out[idx] = np.arctan2(np.cross(nr, nl) @ e, nr @ nl)
    return out


Crease = namedtuple("Crease", "u v role mv", defaults=(0,))


def assemble_grid(nodes, design):
    """`pattern.assemble_grid` one crease, face and vertex at a time, its
    index found through a (u, v) -> crease lookup."""
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
    lookup = {(min(c.u, c.v), max(c.u, c.v)): idx for idx, c in enumerate(creases)}

    def between(a, b):
        return lookup[(min(a, b), max(a, b))]

    faces = np.zeros((m + 1, n + 1, 4), dtype=int)
    for r in range(m + 1):
        for c in range(n + 1):
            quad = [ext[r, c], ext[r, c + 1], ext[r + 1, c + 1], ext[r + 1, c]]
            a, b, cc = verts[quad[0]], verts[quad[1]], verts[quad[2]]
            if (b[0] - a[0]) * (cc[1] - a[1]) - (b[1] - a[1]) * (cc[0] - a[0]) < 0:
                quad = quad[::-1]
            faces[r, c] = quad

    row_creases = np.array([[between(ext[r, c], ext[r, c + 1]) for c in range(n + 1)]
                            for r in range(m + 2)])
    col_creases = np.array([[between(ext[r, c], ext[r + 1, c]) for c in range(n + 2)]
                            for r in range(m + 1)])
    # a face listing the directed edge u->v lies on its left
    crease_faces = np.full((len(creases), 2), -1)
    for f, quad in enumerate(faces.reshape(-1, 4).tolist()):
        for j in range(4):
            a, b = quad[j], quad[(j + 1) % 4]
            idx = between(a, b)
            crease_faces[idx, 0 if (a, b) == (creases[idx].u, creases[idx].v) else 1] = f

    sectors = np.zeros((m, n, 4))
    for k in range(1, m + 1):
        for i in range(1, n + 1):
            p = nodes[k, i]
            angs = [np.arctan2(d[1], d[0]) for d in (
                nodes[k, i + 1] - p, nodes[k - 1, i] - p,      # R, U
                nodes[k, i - 1] - p, nodes[k + 1, i] - p)]     # L, D
            sectors[k - 1, i - 1] = [(angs[(j + 1) % 4] - angs[j]) % TAU
                                     for j in range(4)]
    return CreasePattern(rows=m, cols=n, vertices=verts, ext_id=ext,
                         creases=np.rec.fromrecords(creases, names="u,v,role,mv"),
                         faces=faces, sectors=sectors, row_creases=row_creases,
                         col_creases=col_creases, crease_faces=crease_faces,
                         design=design)


def placement(pattern):
    """`foldsim.placement_order` as a queue: a breadth-first search from
    face 0 over the interior creases in grid order, each crease read
    through its grid position, then each row's depth, one more than its
    parent's, and the rows grouped by depth."""
    m, n = pattern.rows, pattern.cols
    grid = ([pattern.row_creases[r, c] for r in range(m + 2) for c in range(n + 1)]
            + [pattern.col_creases[r, c] for c in range(n + 2) for r in range(m + 1)])
    adjacency = [[] for _ in range((m + 1) * (n + 1))]
    for idx in grid:
        fl, fr = pattern.crease_faces[idx]
        if fl >= 0 and fr >= 0:
            adjacency[fl].append((fr, idx, -1))
            adjacency[fr].append((fl, idx, 1))
    queue, placed, rows = [0], {0}, []
    for parent in queue:
        for face, idx, sign in adjacency[parent]:
            if face not in placed:
                placed.add(face)
                queue.append(face)
                rows.append((face, parent, idx, sign))
    if len(placed) < len(adjacency):
        raise CreaseIntersection(UNPLACEABLE)
    depth = [0] * len(adjacency)
    for face, parent, _, _ in rows:
        depth[face] = depth[parent] + 1
    by_depth = {}
    for k, (face, *_) in enumerate(rows):
        by_depth.setdefault(depth[face], []).append(k)
    return (np.array(rows, dtype=int).reshape(-1, 4),
            [np.array(by_depth[d]) for d in sorted(by_depth)])


def panel_distances(pattern, coords):
    """`pattern.panel_distances` one chord at a time."""
    P = pattern.vertices
    planar, placed = [], []
    for quad in pattern.faces.reshape(-1, 4):
        for a in range(4):
            for b in range(a + 1, 4):
                planar.append(np.linalg.norm(P[quad[a]] - P[quad[b]]))
                placed.append(np.linalg.norm(coords[quad[a]] - coords[quad[b]]))
    return np.array(planar), np.array(placed)


def bootstrap_mv(pattern: CreasePattern, d0=0.02):
    """Mountain/valley assignment from a depth-first consistent fold
    assignment at a small driving value.

    Branch choices are pruned against already-assigned creases, so the
    search settles on the pattern's folding branch without any prior
    sign information.  Returns the signed fold angles at d0."""
    verts = pattern.kept(_vertex_table)
    vertex_creases = pattern.vertex_creases.reshape(-1, 4).tolist()

    rho = [None] * len(pattern.creases)
    rho[default_driving_crease(pattern)] = d0
    # an explicit stack, so grids with more vertices than the recursion
    # limit still search
    stack = [(0, rho)]
    while stack:
        idx, rho = stack.pop()
        if idx == len(verts):
            break
        cids = vertex_creases[idx]
        known = {j: rho[c] for j, c in enumerate(cids) if rho[c] is not None}
        j_in = min(known)
        ok, plus, minus, two = propagate_both_modes(verts[idx], j_in, known[j_in])
        if not ok:
            continue
        # prefer fully folding branches over degenerate straight-line ones,
        # then the branch continuous with the flat state; the preferred
        # branch goes on the stack last so it is searched first
        cands = sorted([plus, minus] if two else [plus],
                       key=lambda r: (sum(1 for x in r if abs(x) < SIGN_FLOOR),
                                      float(np.linalg.norm(r))))
        for cand in reversed(cands):
            if all(abs(cand[j] - val) < BRANCH_TOL for j, val in known.items()):
                nxt = list(rho)
                for j, c in enumerate(cids):
                    nxt[c] = cand[j]
                stack.append((idx + 1, nxt))
    else:
        raise NotRigidFoldable("no consistent folding branch found near flat")
    rho = np.array([0.0 if x is None else x for x in rho])
    for idx, cr in enumerate(pattern.creases):
        if cr.role == ROLE_BOUNDARY:
            cr.mv = 0
        else:
            cr.mv = 1 if rho[idx] >= 0 else -1
    return rho
