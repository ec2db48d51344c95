"""References for the clash test: its candidate pairs and its
triangle-pair test.

`foldsim._clashes` finds its candidate pairs from panel boxes across a
batch of states; `candidate_pairs` is the triangle broadphase it must
match, one state at a time.  `foldsim._penetrates` runs the pair test as
array passes over all candidate pairs, with the same operations in the
same order, so it must agree with `_tri_tri_penetration` on every pair:
the tests compare the two, directly and through a brute-force clash test
over all triangle pairs.
"""
import math

import numpy as np


def candidate_pairs(ids, coords, tol):
    """The triangle pairs (a, b), a < b, of one state that the exact test
    must see, as a set: a sort-and-sweep over the triangles' x-extents
    widened by tol lists the pairs (Baraff 1992), a box test on all three
    axes, widened by tol, thins them, and the pairs that share a vertex id
    (hinge contact, the two triangles of a panel among them) drop out.
    ids: (n, 3) vertex ids of the triangles; coords: (V, 3)."""
    T = coords[ids]
    lo, hi = T.min(axis=1), T.max(axis=1)
    order = np.argsort(lo[:, 0], kind="stable")
    # sweep position p pairs with the count[p] positions after it
    count = (np.searchsorted(lo[order, 0], hi[order, 0] + tol, side="right")
             - np.arange(1, len(order) + 1))
    first = np.repeat(np.arange(len(order)), count)
    second = first + 1 + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    i, j = order[first], order[second]
    a, b = np.minimum(i, j), np.maximum(i, j)
    near = np.ones(len(a), dtype=bool)
    for x0, x1 in zip(lo.T, hi.T):
        near &= (x0[b] <= (x1 + tol)[a]) & (x1[b] >= (x0 - tol)[a])
    a, b = a[near], b[near]
    shared = (ids[a][:, :, None] == ids[b][:, None, :]).any(axis=(1, 2))
    return set(zip(a[~shared].tolist(), b[~shared].tolist()))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _unit_normal(tri):
    """Unit normal of a triangle, None when it is degenerate."""
    n = _cross(_sub(tri[1], tri[0]), _sub(tri[2], tri[0]))
    nn = math.sqrt(_dot(n, n))
    if nn < 1e-30:
        return None
    return (n[0] / nn, n[1] / nn, n[2] / nn)


def _interval_on_line(tri, dist, line_dir):
    """Parametric interval where the triangle crosses its plane-line."""
    proj = [_dot(p, line_dir) for p in tri]
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
    does not count (a vertex must land strictly inside, or an edge cross an
    edge strictly)."""
    k = max(range(3), key=lambda ax: abs(n[ax]))
    x, y = [ax for ax in range(3) if ax != k]
    a = [(p[x], p[y]) for p in t1]
    b = [(p[x], p[y]) for p in t2]

    def orient(u, v, p):
        return (v[0] - u[0]) * (p[1] - u[1]) - (v[1] - u[1]) * (p[0] - u[0])

    def strictly_inside(p, tri):
        s = 0.0
        for j in range(3):
            cr = orient(tri[j], tri[(j + 1) % 3], p)
            if s == 0.0:
                s = cr
            if cr * s <= tol * tol:
                return False
        return True

    def crossing(p, q, u, v):
        # each edge has its ends on both sides of the other's line
        return (orient(u, v, p) * orient(u, v, q) < -tol * tol
                and orient(p, q, u) * orient(p, q, v) < -tol * tol)

    return any(strictly_inside(p, b) for p in a) or \
        any(strictly_inside(p, a) for p in b) or \
        any(crossing(a[i], a[(i + 1) % 3], b[j], b[(j + 1) % 3])
            for i in range(3) for j in range(3))


def _tri_tri_penetration(t1, t2, tol):
    """Exact test of two triangles, each three 3-vectors."""
    n2 = _unit_normal(t2)
    if n2 is None:
        return False
    d1 = [_dot(_sub(p, t2[0]), n2) for p in t1]
    if all(d > tol for d in d1) or all(d < -tol for d in d1):
        return False
    n1 = _unit_normal(t1)
    if n1 is None:
        return False
    d2 = [_dot(_sub(p, t1[0]), n1) for p in t2]
    if all(d > tol for d in d2) or all(d < -tol for d in d2):
        return False
    if all(abs(d) <= tol for d in d1) or all(abs(d) <= tol for d in d2):
        # coplanar: coincident-panel overlap counts, line contact does not
        return _coplanar_overlap(t1, t2, n2, tol)
    line = _cross(n1, n2)
    ln = math.sqrt(_dot(line, line))
    if ln < 1e-12:
        return False
    line = (line[0] / ln, line[1] / ln, line[2] / ln)
    i1 = _interval_on_line(t1, d1, line)
    i2 = _interval_on_line(t2, d2, line)
    if i1 is None or i2 is None:
        return False
    overlap = min(i1[1], i2[1]) - max(i1[0], i2[0])
    return overlap > tol
