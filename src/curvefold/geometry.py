"""Planar/space curve handling: admissibility transform, staircases,
partitions and Hausdorff distance.

Curves are sampled polylines.  The admissibility map is a shear composed
with a rotation,

    A(xi, theta) = [[1, -1/tan xi], [0, 1/sin xi]] @ [[cos t, sin t], [-sin t, cos t]]

whose columns of the inverse shear are unit vectors, so axis-parallel
segments keep their physical length under the map.  A strictly monotone
decreasing image (x up, y down) admits an axis-aligned staircase whose
pull-back has every interior turn angle equal to xi.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from .errors import ClosedCurve, DegenerateTurn, NotAdmissible, TubeSelfIntersect

TAU = 2.0 * np.pi

# monotonicity tie tolerance: a tie would drive a staircase turn to 0 or pi
MONOTONE_TOL = 1e-10


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
        out = np.empty(t.shape + (self.dim,))
        for k in range(self.dim):
            out[..., k] = np.interp(t, self.param, self.samples[:, k])
        return out

    def refined(self, factor):
        """Same geometric polyline re-sampled `factor` times denser."""
        ts = []
        for a, b in zip(self.param[:-1], self.param[1:]):
            ts.append(np.linspace(a, b, factor + 1)[:-1])
        ts.append([self.param[-1]])
        t = np.concatenate(ts)
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
        if np.linalg.norm(n1) < 1e-14 or np.linalg.norm(n2) < 1e-14:
            raise DegenerateTurn(f"collinear triple around interior point {i}")
        n1, n2 = _unit(n1), _unit(n2)
        theta[i - 1] = np.arctan2(np.cross(n1, n2) @ axis, n1 @ n2) % TAU
    return lengths, beta, theta


def _check_turns(beta, margin=0.0):
    if np.any(beta <= margin) or np.any(beta >= np.pi - margin):
        bad = int(np.argmax((beta <= margin) | (beta >= np.pi - margin)))
        raise DegenerateTurn(
            f"turn angle beta_{bad + 1} = {beta[bad]:.6g} outside (0, pi)")


@dataclass(frozen=True)
class AffineParams:
    """Rotation theta in [0, 2pi) and shear-defining angle xi in (0, pi).

    xi is kept away from 0 and pi so 1/sin(xi) stays finite."""

    theta: float
    xi: float
    margin: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TAU)
        if not (self.margin <= self.xi <= np.pi - self.margin):
            raise ValueError(f"xi = {self.xi:.6g} too close to 0 or pi")

    def matrix(self):
        t, x = self.theta, self.xi
        shear = np.array([[1.0, -1.0 / np.tan(x)], [0.0, 1.0 / np.sin(x)]])
        rot = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        return shear @ rot

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


def search_theta(f: PolyCurve, xi, grid=720):
    """Scan theta over [0, 2pi) at 2pi*k/grid and return the admissible ones.

    An empty result is a legitimate outcome."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    thetas = TAU * np.arange(grid) / grid
    passing = []
    for t in thetas:
        ok, _ = is_admissible(f, AffineParams(t, xi))
        if ok:
            passing.append(float(t))
    return passing


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
        raise NotAdmissible("image curve is not strictly monotone decreasing")
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(img, axis=0), axis=1))])

    def at_arc(t):
        return np.array([np.interp(t, s, img[:, 0]), np.interp(t, s, img[:, 1])])

    # On-curve nodes at uniform image arc length.  Odd n: r interior on-curve
    # corners plus both endpoints; even n: the staircase's far endpoint sits
    # one half step off the curve end.
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
    pts = np.asarray(pts)
    assert len(pts) == n + 2
    back = affine_unmap(pts, a)
    lengths, beta, theta = measure_polyline(back)
    _check_turns(beta)
    return Partition(back, lengths, beta, theta)


def staircase_segments(stair: Partition, a: AffineParams):
    """Image-frame axis ('x' or 'y') and base length |dx| + |dy| of each
    staircase segment."""
    img = affine_map(stair.points, a)
    segs = []
    for k in range(len(img) - 1):
        d = img[k + 1] - img[k]
        axis = "x" if abs(d[0]) > abs(d[1]) else "y"
        segs.append((axis, float(abs(d[0]) + abs(d[1]))))
    return segs


def partition_uniform(c: PolyCurve, n):
    """Partition a curve by n+2 points uniform in parameter.

    Space curves get dihedral angles theta_i; a planar polyline yields all
    theta in {0, pi}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = np.linspace(c.param[0], c.param[-1], n + 2)
    pts = c.point_at(t)
    lengths, beta, theta = measure_polyline(pts)
    _check_turns(beta)
    signs = _planar_turn_signs(pts) if c.dim == 2 else None
    return Partition(pts, lengths, beta, theta, turn_signs=signs)


def _planar_turn_signs(pts):
    v = np.diff(np.asarray(pts, dtype=float), axis=0)
    cross = v[:-1, 0] * v[1:, 1] - v[:-1, 1] * v[1:, 0]
    return np.sign(cross).astype(int)


def partition_tube(c: PolyCurve, n, eps, turn_margin=0.05):
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
    pts = base.copy()
    # interior points alternate between the offset curves; the endpoints
    # stay on the curve so the approximation spans it end to end
    for i in range(1, n + 1):
        tang = _unit(base[i + 1] - base[i - 1])
        nrm = np.array([-tang[1], tang[0]])
        pts[i] = base[i] + eps * ((-1) ** (i + 1)) * nrm
    lengths, beta, theta = measure_polyline(pts)
    _check_turns(beta, margin=0.0)
    if np.any(beta >= np.pi - turn_margin):
        raise DegenerateTurn("tube partition produced a turn too close to pi; "
                             "increase eps or n")
    return Partition(pts, lengths, beta, theta, turn_signs=_planar_turn_signs(pts))


def _polyline_curvature(pts):
    """Max discrete curvature (1/R of circumcircles of sample triples)."""
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


def _densify(obj, per_segment):
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


def _vertices_of(obj):
    if isinstance(obj, PolyCurve):
        return obj.samples
    if isinstance(obj, Partition):
        return obj.points
    pts = np.asarray(obj, dtype=float)
    return pts[None, :] if pts.ndim == 1 else pts


def min_dist_to_polyline(points, poly):
    """Distance from each point to a polyline, exact per segment."""
    P = np.asarray(points, dtype=float)
    V = _vertices_of(poly)
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
    """Symmetric Hausdorff distance: the outer max runs over a dense
    resampling of each input (per_segment subsamples per segment), the
    inner min is the exact distance to the other polyline."""
    pa = _densify(a, per_segment)
    pb = _densify(b, per_segment)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("dimension mismatch")
    d_ab = min_dist_to_polyline(pa, _vertices_of(b)).max()
    d_ba = min_dist_to_polyline(pb, _vertices_of(a)).max()
    return float(max(d_ab, d_ba))
