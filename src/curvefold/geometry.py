"""Planar/space curve handling: admissibility transform, staircases,
partitions and Hausdorff distance.

Curves are sampled polylines.  The admissibility map is a shear composed
with a rotation,

    A(xi, theta) = [[1, -1/tan xi], [0, 1/sin xi]] @ [[cos t, sin t], [-sin t, cos t]]

whose columns of the inverse shear are unit vectors, so axis-parallel
segments keep their physical length under the map.  A strictly monotone
decreasing image (x up, y down) admits an axis-aligned staircase whose
pull-back has every interior turn angle equal to xi.

Bit equality.  The array passes of the design layer (here, in `parallel`
and in `pattern`) return the same floats as the loop forms in
tests/design_oracle.py only while numpy's matmul rounds each batched
product as the loop's own product; which BLAS kernel numpy picks for a
shape is not specified.  This was checked with numpy 2.4.6 and its
bundled OpenBLAS 0.3.31 on x86-64 with AVX-512, where a one-row product
(the dot kernel) rounds differently from a taller one: hence no point is
evaluated alone against a polyline of two or more points.  The row solve
of `parallel` also takes numpy's elementwise functions to round an
element alike in arrays of any length, as it evaluates a bisection's
midpoints together.  Another numpy or BLAS build may move a design
output by an ulp with no defect in the code; tests/test_design_scans.py
names that cause when a rounding-bound case fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from .errors import (ClosedCurve, DegenerateTurn, LayoutError, NotAdmissible,
                     TubeSelfIntersect)
from .tolerances import (COLLINEAR_TRIPLE, MONOTONE_TOL, PRUNE_SLACK,
                         TUBE_TURN_MARGIN, XI_MARGIN)

TAU = 2.0 * np.pi

# array elements (point-segment pairs, samples x thetas, candidate pairs
# of pattern.sweep_pairs) per array pass
_PAIR_BLOCK = 1 << 14
# dense samples per exactly evaluated one in the first hausdorff pass
_HAUSDORFF_STRIDE = 16
# consecutive segments per bounding ball in min_dist_to_polyline
_RUN = 32
# bisection levels whose midpoints one array pass evaluates (parallel row solve)
_SECTION = 6


def _rowdot(a, b):
    """a[k] @ b[k] for every row k, by the dot kernel of the scalar product
    (see the bit-equality note above)."""
    return np.matmul(a[..., None, :], b[..., None])[..., 0, 0]


def _unit(v):
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("zero vector")
    return v / n


def _arc(u, v):
    """Angle between two unit vectors."""
    return float(np.arccos(np.clip(u @ v, -1.0, 1.0)))


@dataclass(frozen=True)
class PolyCurve:
    """Sampled parametric curve in R^2 or R^3.

    samples: (N, dim) array, N >= 2, consecutive points distinct.
    param:   strictly increasing parameter values, same length.
    """

    samples: np.ndarray
    param: np.ndarray
    closed: bool = False

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        t = np.asarray(self.param, dtype=float)
        if s.ndim != 2 or s.shape[1] not in (2, 3):
            raise ValueError("samples must be (N, 2) or (N, 3)")
        if len(s) < 2 or len(s) != len(t):
            raise ValueError("need >= 2 samples with matching param length")
        if not np.all(np.diff(t) > 0):
            raise ValueError("param must be strictly increasing")
        seg = np.linalg.norm(np.diff(s, axis=0), axis=1)
        if np.any(seg == 0.0):
            raise ValueError("consecutive samples must be distinct")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "param", t)

    @property
    def dim(self):
        return self.samples.shape[1]

    def point_at(self, t):
        """Linear interpolation along the polyline at parameter t."""
        t = np.asarray(t, dtype=float)
        return np.stack([np.interp(t, self.param, x) for x in self.samples.T], axis=-1)

    def refined(self, factor):
        """Same geometric polyline re-sampled `factor` times denser."""
        t = np.linspace(self.param[:-1], self.param[1:], factor + 1, axis=1)[:, :-1]
        t = np.append(t.ravel(), self.param[-1])
        return PolyCurve(self.point_at(t), t, closed=self.closed)


@dataclass(frozen=True)
class Partition:
    """Piecewise-linear approximation data: points A_0..A_{n+1},
    segment lengths l_i, interior turn angles beta_i in (0, pi) and,
    for space curves, dihedral angles theta_i in [0, 2pi)."""

    points: np.ndarray
    lengths: np.ndarray
    turn_angles: np.ndarray
    dihedrals: np.ndarray
    turn_signs: np.ndarray = field(default=None)  # 2D only: +1 left, -1 right

    @property
    def n(self):
        return len(self.points) - 2


def measure_polyline(points):
    """Lengths, turn angles and dihedrals of an ordered point sequence.

    theta_i is the right-handed rotation about A_i -> A_{i+1} carrying the
    plane of (A_{i-1}, A_i, A_{i+1}) to the plane of (A_i, A_{i+1}, A_{i+2}),
    normalized to [0, 2pi).  Coplanar configurations give 0 or pi.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts) - 2
    if n < 0:
        raise ValueError("need at least 2 points")
    pts3 = pts if pts.shape[1] == 3 else np.hstack([pts, np.zeros((len(pts), 1))])
    seg = np.diff(pts3, axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    back, fwd = pts3[:-2] - pts3[1:-1], seg[1:]
    nb, nf = np.sqrt(_rowdot(back, back)), np.sqrt(_rowdot(fwd, fwd))
    if not (nb.all() and nf.all()):
        raise ValueError("zero vector")
    v1, v2 = back / nb[:, None], fwd / nf[:, None]
    beta = np.arccos(np.clip(_rowdot(v1, v2), -1.0, 1.0))
    # normals at interior points 1..n, which only the dihedrals read
    normal = np.cross(seg[:-1], seg[1:]) if n > 1 else np.zeros((0, 3))
    size = np.sqrt(_rowdot(normal, normal))
    flat = (size[:-1] < COLLINEAR_TRIPLE) | (size[1:] < COLLINEAR_TRIPLE)
    if flat.any():
        raise DegenerateTurn(f"collinear triple around interior point {int(np.argmax(flat)) + 1}")
    n1, n2 = normal[:-1] / size[:-1, None], normal[1:] / size[1:, None]
    theta = np.arctan2(_rowdot(np.cross(n1, n2), v2[:-1]), _rowdot(n1, n2)) % TAU
    return lengths, beta, theta


def _check_turns(beta):
    if np.any(beta <= 0.0) or np.any(beta >= np.pi):
        bad = int(np.argmax((beta <= 0.0) | (beta >= np.pi)))
        raise DegenerateTurn(
            f"turn angle beta_{bad + 1} = {beta[bad]:.6g} outside (0, pi)")


@dataclass(frozen=True)
class AffineParams:
    """Rotation theta in [0, 2pi) and shear-defining angle xi in (0, pi).

    xi is kept away from 0 and pi so 1/sin(xi) stays finite."""

    theta: float
    xi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TAU)
        if not (XI_MARGIN <= self.xi <= np.pi - XI_MARGIN):
            raise ValueError(f"xi = {self.xi:.6g} too close to 0 or pi")

    def shear(self):
        x = self.xi
        return np.array([[1.0, -1.0 / np.tan(x)], [0.0, 1.0 / np.sin(x)]])

    def matrix(self):
        t = self.theta
        rot = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        return self.shear() @ rot

    def inverse_matrix(self):
        t, x = self.theta, self.xi
        unshear = np.array([[1.0, np.cos(x)], [0.0, np.sin(x)]])
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        return rot @ unshear


def affine_map(p, a: AffineParams):
    """Apply the shear-rotation map; accepts a point or an (N, 2) array."""
    return np.asarray(p, dtype=float) @ a.matrix().T


def affine_unmap(p, a: AffineParams):
    return np.asarray(p, dtype=float) @ a.inverse_matrix().T


def is_admissible(f: PolyCurve, a: AffineParams):
    """Whether the image of f is strictly monotone decreasing.

    The curve is first oriented so the image x runs increasing.  Returns
    (ok, transformed) where transformed is the image samples in that
    orientation (useful for staircase construction).
    """
    _require_open_planar(f)
    img = affine_map(f.samples, a)
    d = np.diff(img, axis=0)
    ok = bool(_monotone(d))
    if d[:, 0].sum() < 0.0:
        img = img[::-1]
    return ok, img


def _require_open_planar(f: PolyCurve):
    if f.closed:
        raise ClosedCurve("closed curves admit no monotone image")
    if f.dim != 2:
        raise ValueError("admissibility applies to planar curves")


def _monotone(d):
    """Whether image steps d (..., N - 1, 2) are strictly monotone
    decreasing in one orientation of the curve, over the leading axes:
    every x step of one sign beyond the tie tolerance, every y step of
    the other."""
    dx, dy = d[..., 0], d[..., 1]
    return ((np.all(dx > MONOTONE_TOL, axis=-1) & np.all(dy < -MONOTONE_TOL, axis=-1))
            | (np.all(dx < -MONOTONE_TOL, axis=-1) & np.all(dy > MONOTONE_TOL, axis=-1)))


def search_theta(f: PolyCurve, xi, grid=720):
    """Scan theta over [0, 2pi) at 2pi*k/grid and return the admissible ones.

    The test of `is_admissible`, for a block of thetas per array pass.
    An empty result is a legitimate outcome."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    shear = AffineParams(0.0, xi).shear()  # validates xi
    _require_open_planar(f)
    thetas = TAU * np.arange(grid) / grid
    passing = []
    step = max(1, _PAIR_BLOCK // len(f.samples))
    for k in range(0, grid, step):
        t = thetas[k:k + step]
        c, s = np.cos(t), np.sin(t)
        rot = np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)], axis=1)
        img = np.matmul(f.samples, np.matmul(shear, rot).transpose(0, 2, 1))
        passing.extend(t[_monotone(np.diff(img, axis=1))].tolist())
    return passing


def _staircase_corners(img, n, phase):
    """Image-frame staircase points along a monotone image curve.

    On-curve nodes sit at uniform image arc length, with an axis-parallel
    corner between each two.  Odd n: both curve ends are nodes; even n:
    the last node only lends its coordinate to a final corner, half a step
    off the curve end."""
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(img, axis=0), axis=1))])
    t = np.linspace(0.0, s[-1], n // 2 + 2)
    nodes = np.stack([np.interp(t, s, img[:, 0]), np.interp(t, s, img[:, 1])], axis=1)
    keep = 0 if phase == "y" else 1  # coordinate a corner keeps from the node before
    pts = np.repeat(nodes, 2, axis=0)[1:]
    pts[1::2, keep] = nodes[:-1, keep]
    return pts if n % 2 else pts[:-1]


def staircase(f: PolyCurve, a: AffineParams, n, phase="x"):
    """Axis-aligned staircase on the image of f, pulled back to the original
    frame.

    n interior corners; corners interleave on the image curve.  phase picks
    whether the first (half) segment runs along the image x axis or y axis.
    Returns a 2D Partition whose interior turn angles all equal xi.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if phase not in ("x", "y"):
        raise ValueError("phase must be 'x' or 'y'")
    ok, img = is_admissible(f, a)
    if not ok:
        raise NotAdmissible(f"target curve fails admissibility at (theta, xi) = "
                            f"({a.theta:.6g}, {a.xi:.6g}); run search_theta for candidates")
    pts = _staircase_corners(img, n, phase)
    if len(pts) != n + 2:
        raise LayoutError(f"staircase has {len(pts)} corners, not n + 2 = {n + 2}")
    back = affine_unmap(pts, a)
    lengths, beta, theta = measure_polyline(back)
    _check_turns(beta)
    return Partition(back, lengths, beta, theta)


def staircase_segments(stair: Partition, a: AffineParams):
    """Image-frame axis ('x' or 'y') and base length |dx| + |dy| of each
    staircase segment."""
    d = np.abs(np.diff(affine_map(stair.points, a), axis=0))
    return [("x" if dx > dy else "y", dx + dy) for dx, dy in d.tolist()]


def partition_uniform(c: PolyCurve, n):
    """Partition a curve by n+2 points uniform in parameter.

    Space curves get dihedral angles theta_i; a planar polyline yields all
    theta in {0, pi}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = np.linspace(c.param[0], c.param[-1], n + 2)
    pts = c.point_at(t)
    _check_distinct(pts, 1)
    lengths, beta, theta = measure_polyline(pts)
    _check_turns(beta)
    signs = _planar_turn_signs(pts) if c.dim == 2 else None
    return Partition(pts, lengths, beta, theta, turn_signs=signs)


def _check_distinct(pts, gap):
    """Raise DegenerateTurn at the first partition point that repeats the
    point `gap` places before it: a segment (gap 1) or a chord (gap 2)
    between them would have no direction."""
    d = pts[gap:] - pts[:-gap]
    same = _rowdot(d, d) == 0.0
    if same.any():
        i = int(np.argmax(same)) + gap
        raise DegenerateTurn(f"partition point {i} repeats point {i - gap} at "
                             f"{tuple(pts[i].tolist())}: the curve passes through it twice")


def _planar_turn_signs(pts):
    v = np.diff(np.asarray(pts, dtype=float), axis=0)
    cross = v[:-1, 0] * v[1:, 1] - v[:-1, 1] * v[1:, 0]
    return np.sign(cross).astype(int)


def partition_tube(c: PolyCurve, n, eps):
    """Partition with points alternating between the two offset curves at
    distance eps, keeping every turn angle away from pi.

    The first and last points stay on the curve so staircase endpoints lie
    within eps of it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if c.dim != 2:
        raise ValueError("tube partitions apply to planar curves")
    kappa = _polyline_curvature(c.samples)
    if kappa > 0 and eps >= 1.0 / kappa:
        raise TubeSelfIntersect(
            f"eps = {eps:.6g} >= minimal curvature radius {1.0 / kappa:.6g}")
    t = np.linspace(c.param[0], c.param[-1], n + 2)
    base = c.point_at(t)
    _check_distinct(base, 2)
    pts = base.copy()
    # interior points alternate between the offset curves; the endpoints
    # stay on the curve so the approximation spans it end to end
    for i in range(1, n + 1):
        tang = _unit(base[i + 1] - base[i - 1])
        nrm = np.array([-tang[1], tang[0]])
        pts[i] = base[i] + eps * ((-1) ** (i + 1)) * nrm
    lengths, beta, theta = measure_polyline(pts)
    _check_turns(beta)
    if np.any(beta >= np.pi - TUBE_TURN_MARGIN):
        raise DegenerateTurn("tube partition produced a turn too close to pi; "
                             "increase eps or n")
    return Partition(pts, lengths, beta, theta, turn_signs=_planar_turn_signs(pts))


def _polyline_curvature(pts):
    """Max discrete curvature (1/R of circumcircles of sample triples)."""
    p = np.asarray(pts, dtype=float)
    sides = np.stack([p[1:-1] - p[:-2], p[2:] - p[1:-1], p[:-2] - p[2:]])
    area2 = np.abs(sides[0, :, 0] * sides[1, :, 1] - sides[0, :, 1] * sides[1, :, 0])
    # the dot kernel np.linalg.norm runs on one vector
    lens = np.sqrt(_rowdot(sides, sides))
    denom = lens[0] * lens[1] * lens[2]
    pos = denom > 0
    return float((2.0 * area2[pos] / denom[pos]).max(initial=0.0))


def _vertices_of(obj):
    pts = (obj.samples if isinstance(obj, PolyCurve)
           else obj.points if isinstance(obj, Partition) else obj)
    return np.atleast_2d(np.asarray(pts, dtype=float))


def _segment_dist(Q, a, d, l2):
    """Distance of each point of Q (..., M, dim) to each of the segments
    from a to a + d (..., S, dim), squared lengths l2 (..., S), as
    (..., S, M): the arithmetic of a loop over single segments, in one
    array pass."""
    dots = np.matmul(Q[..., None, :, :] - a[..., None, :], d[..., None])[..., 0]
    pos = l2[..., None] > 0.0
    t = np.where(pos, np.clip(dots / np.where(pos, l2[..., None], 1.0), 0.0, 1.0), 0.0)
    proj = a[..., None, :] + t[..., None] * d[..., None, :]
    return np.linalg.norm(Q[..., None, :, :] - proj, axis=-1)


class _Polyline:
    """Distances to polyline V, exact per segment, with what they share
    built once: the segments (a lone vertex is one of length 0) and, past
    2 * _RUN of them, the bounding balls of runs of _RUN segments."""

    def __init__(self, V):
        self.A = V[:max(1, len(V) - 1)]
        self.D = np.diff(V, axis=0) if len(V) > 1 else 0.0 * V
        self.L2, self.vmax = _rowdot(self.D, self.D), np.abs(V).max()
        self.short = len(self.A) <= 2 * _RUN
        if not self.short:
            # runs of _RUN segments, the last one padded with its final segment
            self.seg = np.minimum(np.arange(0, len(self.A), _RUN)[:, None] + np.arange(_RUN),
                                  len(self.A) - 1)
            ends = np.concatenate([V[self.seg], V[self.seg + 1]], axis=1)
            lo, hi = ends.min(axis=1), ends.max(axis=1)
            self.centre, self.radius = 0.5 * (lo + hi), 0.5 * np.linalg.norm(hi - lo, axis=1)

    def nearest(self, P):
        """min_dist_to_polyline of the points P."""
        if self.short or len(P) < 2:
            # chunks of at least _PAIR_BLOCK pairs, none of them a lone row
            chunks = min(len(P), len(P) * len(self.A) // _PAIR_BLOCK)
            rows = np.array_split(np.arange(len(P)), max(1, chunks))
            return np.concatenate([_segment_dist(P[r], self.A, self.D, self.L2).min(axis=0)
                                   for r in rows])
        A, D, L2, seg, best = self.A, self.D, self.L2, self.seg, np.full(len(P), np.inf)
        slack = PRUNE_SLACK * (np.abs(P).max() + self.vmax)
        rows = max(2, _PAIR_BLOCK // max(len(seg), _RUN))
        for r in range(0, len(P), rows):
            Q = P[r:r + rows]
            gap = np.linalg.norm(Q[:, None] - self.centre, axis=-1)
            near = gap - self.radius <= (gap + self.radius).min(axis=1, keepdims=True) + slack
            runs = np.flatnonzero(near.any(axis=0))
            # each run against the points near it, padded to a common count
            # by repeating its first one
            count = near[:, runs].sum(axis=0)
            M = max(2, int(count.max()))
            idx = np.argsort(~near[:, runs], axis=0, kind="stable")[:M].T
            idx = np.where(np.arange(M) < count[:, None], idx, idx[:, :1])
            step = max(1, _PAIR_BLOCK // (_RUN * M))
            for k in range(0, len(runs), step):
                part = seg[runs[k:k + step]]
                dist = _segment_dist(Q[idx[k:k + step]], A[part], D[part], L2[part])
                np.minimum.at(best, r + idx[k:k + step], dist.min(axis=-2))
        return best


def min_dist_to_polyline(points, poly):
    """Distance from each point to a polyline, exact per segment.

    No array pass holds more than about _PAIR_BLOCK point-segment pairs.
    On a long polyline, a point skips each run of _RUN segments whose
    bounding ball lies farther from it than the far side of another run's
    ball, by a slack far above rounding.  Of two or more points none is
    evaluated alone (see the bit-equality note above)."""
    return _Polyline(_vertices_of(poly)).nearest(np.asarray(points, dtype=float))


def _directed_hausdorff(pts, per_segment, V):
    """max over the samples of polyline `pts`, per_segment to a segment,
    of their distance to polyline V, bit for bit: samples that a bound
    keeps below the max, by a slack far above rounding, are skipped.

    Against V of at most 2 * _RUN segments: the distance to one segment
    of V is convex along a segment of `pts`, so no sample of it exceeds
    the least over V's segments of the larger distance of its ends.  Else
    the distance is 1-Lipschitz along the samples, so none between samples
    i and j exceeds (f_i + f_j + arc_ij) / 2: samples are evaluated every
    _HAUSDORFF_STRIDE, then at the midpoint of each gap whose bound
    reaches the running max, until no gap is left."""
    target = _Polyline(V)
    S = len(pts) - 1
    if S == 0:
        return target.nearest(pts).max()
    w = np.linspace(0.0, 1.0, per_segment + 1)[:-1]
    D = np.vstack([np.diff(pts, axis=0), np.zeros((1, pts.shape[1]))])
    scale = np.abs(pts).max() + target.vmax

    def dist(s, r):
        # sample r of segment s, pts[s] + w[r] (pts[s+1] - pts[s]); a lone
        # one is evaluated twice, as a one-row product rounds differently
        Q = pts[s] + w[r, None] * D[s]
        return target.nearest(Q if len(Q) > 1 else np.vstack([Q, Q]))[:len(Q)]

    if target.short:
        # the vertices, in blocks of rows that overlap by one
        step, best, bound = max(1, _PAIR_BLOCK // len(V)), -np.inf, []
        for r in range(0, S, step):
            E = _segment_dist(pts[r:r + step + 1], target.A, target.D, target.L2)
            best = max(best, E.min(axis=0).max())
            bound.append(np.maximum(E[:, :-1], E[:, 1:]).min(axis=0))
        # then, in one pass, each sample of a segment whose bound reaches it
        s = np.flatnonzero(np.concatenate(bound) >= best - PRUNE_SLACK * scale)
        s, r = np.repeat(s, per_segment - 1), np.tile(np.arange(1, per_segment), len(s))
        return max(best, dist(s, r).max()) if len(s) else best
    seg_len = np.linalg.norm(D, axis=1)
    seg_arc = np.concatenate([[0.0], np.cumsum(seg_len)])

    def at(k):
        s, r = np.divmod(k, per_segment)  # the last sample is pts[S] + 0 * 0
        return dist(s, r), seg_arc[s] + w[r] * seg_len[s]

    K = np.append(np.arange(0, S * per_segment, _HAUSDORFF_STRIDE), S * per_segment)
    F, L = at(K)
    best = F.max()
    slack = PRUNE_SLACK * (seg_arc[-1] + scale)
    # gaps between evaluated samples, as rows (start, end) of sample
    # index K, distance F and arc length L
    K, F, L = (np.stack([x[:-1], x[1:]]) for x in (K, F, L))
    while True:
        keep = (K[1] - K[0] > 1) & (F[0] + F[1] + (L[1] - L[0]) >= 2.0 * (best - slack))
        if not keep.any():
            return best
        K, F, L = K[:, keep], F[:, keep], L[:, keep]
        km = (K[0] + K[1]) // 2
        fm, lm = at(km)
        best = max(best, fm.max())
        K, F, L = (np.stack([np.append(x[0], m), np.append(m, x[1])])
                   for x, m in ((K, km), (F, fm), (L, lm)))


def hausdorff(a, b, per_segment=64):
    """Symmetric Hausdorff distance: the outer max runs over a dense
    resampling of each input (per_segment subsamples per segment), the
    inner min is the exact distance to the other polyline.  Samples that
    cannot hold the max are skipped (see _directed_hausdorff)."""
    if per_segment < 1:
        raise ValueError("per_segment must be >= 1")
    va, vb = _vertices_of(a), _vertices_of(b)
    if va.shape[1] != vb.shape[1]:
        raise ValueError("dimension mismatch")
    return float(max(_directed_hausdorff(va, per_segment, vb),
                     _directed_hausdorff(vb, per_segment, va)))
