"""Inverse design of the orthodiagonal type.

The pattern is generated among parallel straight column lines.  A planar
datum curve is approximated by the leftmost column polyline (partitioned
on an eps-tube so no turn gets close to pi); the target curve by the top
row's staircase.  Each interior vertex is mirror-symmetric about its
column line, with the tangent-separable angle grid keeping every folded
row and column of inner vertices coplanar.  The left row stubs are
designed to reach fold angle pi first, halting the motion at the datum
column.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngle, LayoutError, OutOfRange
from .foldsim import bootstrap_mv
from .geometry import (AffineParams, Partition, PolyCurve, hausdorff,
                       partition_tube, staircase, staircase_segments)
from .kinematics import guarded_arccos
from .pattern import (DesignReport, assemble_grid, check_embeddable,
                      set_corners)
from .tolerances import (COLUMN_ALIGN_REL, DEGENERATE_ANGLE, RATIO_FLOOR,
                         XI_MARGIN)


@dataclass(frozen=True)
class OrthoDesignSpec:
    """Inputs of an orthodiagonal design piece.

    n partitions the planar datum (grid rows), m partitions the target
    (grid columns including the datum column)."""

    datum: PolyCurve
    target: PolyCurve
    n: int
    m: int
    alpha11: float = None       # default: midpoint of alpha10 toward pi/2
    eps: float = 0.1
    theta: float = 0.0
    tube_eps: float = None      # offset radius; default eps / 2
    phase: str = "x"

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("partition counts must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.datum.dim != 2 or self.target.dim != 2:
            raise ValueError("orthodiagonal curves are planar")
        if self.target.closed:
            raise ValueError("target curve must be open")


@dataclass
class OrthoAngleGrid:
    """Separable sector-angle grid alpha[i][j], rows i = 1..n, columns
    j = 0..m (column 0 holds the stub-side angles)."""

    alpha: np.ndarray

    def separability_residual(self):
        """Worst relative gap between the tangent ratios of consecutive
        columns in consecutive rows; NaN where a ratio is 0 / 0."""
        t = np.tan(self.alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs, rhs = t[:-1, :-1] / t[:-1, 1:], t[1:, :-1] / t[1:, 1:]
            res = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), RATIO_FLOOR)
        return float(res.max(initial=0.0))


def alpha_left(beta_i, turn):
    """Stub-side sector angle of a datum-column vertex: (pi + beta)/2 for a
    left turn, (pi - beta)/2 for a right turn."""
    if not (0.0 < beta_i < np.pi):
        raise ValueError(f"beta = {beta_i:.6g} outside (0, pi)")
    if turn not in ("left", "right"):
        raise ValueError("turn must be 'left' or 'right'")
    return (np.pi + beta_i) / 2.0 if turn == "left" else (np.pi - beta_i) / 2.0


def validate_alpha11(alpha11, alpha10):
    """Both halting inequalities: same side of pi/2 as alpha10, strictly
    between pi/2 and alpha10 in deviation."""
    if not (0.0 < alpha11 < np.pi and 0.0 < alpha10 < np.pi):
        return False
    d1, d0 = alpha11 - np.pi / 2.0, alpha10 - np.pi / 2.0
    return d1 * d0 > 0.0 and 0.0 < abs(d1) < abs(d0)


def default_alpha11(alpha10):
    """Midpoint between alpha10 and pi/2 (pi/4 + alpha10/2), valid on
    either side of pi/2."""
    return np.pi / 4.0 + alpha10 / 2.0


def _degenerate(a):
    """Whether each angle lies within DEGENERATE_ANGLE of 0, pi/2 or pi."""
    return np.minimum(np.minimum(abs(a), abs(a - np.pi / 2)), abs(np.pi - a)) < DEGENERATE_ANGLE


def propagate_grid(col0, alpha11, m=1):
    """Fill the angle grid from the left column and the single free angle.

    tan alpha[i][1] = tan alpha[i][0] * (tan alpha11 / tan alpha10), each
    value taken on the same side of pi/2 as its generator; columns j >= 1
    repeat column 1."""
    col0 = np.asarray(col0, dtype=float)
    bad = _degenerate(col0)
    if bad.any():
        raise DegenerateAngle(f"left sector angle {col0[bad][0]:.6g} hits 0, pi/2 or pi")
    if _degenerate(alpha11):
        raise DegenerateAngle(f"alpha11 = {alpha11:.6g} hits 0, pi/2 or pi")
    ratio = np.tan(alpha11) / np.tan(col0[0])
    col1 = np.arctan(np.tan(col0) * ratio) % np.pi
    if _degenerate(col1).any():
        raise DegenerateAngle("propagated sector angle hits 0, pi/2 or pi")
    n = len(col0)
    alpha = np.zeros((n, m + 1))
    alpha[:, 0], alpha[:, 1:] = col0, col1[:, None]
    return OrthoAngleGrid(alpha)


def ortho_xi(alpha_i1, beta_i):
    """Folded angle between adjacent inner creases in one row."""
    if not (0.0 < beta_i < np.pi):
        raise OutOfRange(f"beta = {beta_i:.6g} outside (0, pi)")
    c = 4.0 * np.cos(alpha_i1) ** 2 / (1.0 - np.cos(beta_i)) - 1.0
    return guarded_arccos(c)


def effective_stub_angles(partition: Partition):
    """Stub-side sector angle per datum row.

    The folded row creases alternate sign down the pattern (transverse
    accordion), which by itself alternates the datum bends.  The +- of the
    stub formula therefore encodes the turn sense RELATIVE to that
    alternation: a strictly alternating partition uses one constant sign,
    and only a repeated turn sense flips it.  (Equivalently, sector labels
    measured on the accordion's own alternating side would show the plain
    left/right rule.)"""
    signs = partition.turn_signs
    beta = partition.turn_angles
    base_left = signs[0] > 0
    out = []
    for i in range(len(beta)):
        follows = signs[i] == signs[0] * (-1) ** (i % 2)
        left = base_left if follows else not base_left
        out.append(alpha_left(beta[i], "left" if left else "right"))
    return np.array(out)


def angle_grid(spec: OrthoDesignSpec):
    """The design up to its angle grid, which theta does not enter: the
    tube radius, the datum's partition on that tube, alpha11 (checked
    against the halting inequalities) and the grid it spans with the stub
    angles of column 0."""
    tube = spec.tube_eps if spec.tube_eps is not None else spec.eps / 2.0
    part = partition_tube(spec.datum, spec.n, tube)
    col0 = effective_stub_angles(part)
    a11 = spec.alpha11 if spec.alpha11 is not None else default_alpha11(col0[0])
    if not validate_alpha11(a11, col0[0]):
        raise DegenerateAngle(
            f"alpha11 = {a11:.6g} violates the halting inequalities against "
            f"alpha10 = {col0[0]:.6g}")
    return tube, part, a11, propagate_grid(col0, a11, m=spec.m)


def build_ortho_pattern(spec: OrthoDesignSpec, prelude=None):
    """Full orthodiagonal pattern plus design report.  prelude: the
    spec's `angle_grid`, where the caller has it already."""
    tube, part, a11, grid = prelude or angle_grid(spec)
    beta = part.turn_angles
    col0, a1col = grid.alpha[:, 0], grid.alpha[:, 1]
    xis = [ortho_xi(a1col[i], beta[i]) for i in range(spec.n)]
    for x in xis:
        if not (XI_MARGIN < x < np.pi - XI_MARGIN):
            raise OutOfRange(f"row staircase angle xi = {x:.6g} too close to 0 or pi")
    aff1 = AffineParams(spec.theta, xis[0])
    stair = staircase(spec.target, aff1, spec.m, phase=spec.phase)
    base = [b for _, b in staircase_segments(stair, aff1)]
    scales = np.sin(a1col[0]) / np.sin(a1col)

    pattern = _draw_ortho(spec, part, col0, a1col, base, scales)
    rho0 = bootstrap_mv(pattern)
    pattern.design["halt_rho_signs"] = np.sign(rho0).tolist()
    check_embeddable(pattern)

    eps_datum = hausdorff(part.points, spec.datum.refined(4))
    eps_curve = hausdorff(stair.points, spec.target.refined(4))
    report = DesignReport(
        design_type="orthodiagonal",
        eps_target=spec.eps,
        eps_datum=eps_datum,
        eps_curve=eps_curve,
        stair=stair.points,
        notes={
            "alpha11": float(a11),
            "theta": spec.theta,
            "tube_eps": tube,
            "xi": [float(x) for x in xis],
            "separability": grid.separability_residual(),
        },
    )
    pattern.design["xi"] = [float(x) for x in xis]
    pattern.design["grid_alpha"] = grid.alpha.tolist()
    pattern.design["report"] = report
    return pattern, report


def _draw_ortho(spec, part: Partition, col0, a1col, base, scales):
    """Planar layout among vertical column lines.

    Strip widths are shared by all rows; each row's crease lengths scale
    with 1/sin(alpha_i1), its stubs with the same row scale."""
    n, m = spec.n, spec.m
    widths = [base[k] * np.sin(a1col[0]) for k in range(1, m)]
    xcol = np.concatenate([[0.0], np.cumsum(widths)])

    nodes = np.zeros((n + 2, m + 2, 2))
    inner = nodes[1:-1, 1:-1]
    y = 0.0
    for i in range(n):
        if i > 0:
            y -= part.lengths[i]
        inner[i, 0] = (0.0, y)
        for j in range(1, m):
            t = a1col[i] if j % 2 == 1 else np.pi - a1col[i]
            L = scales[i] * base[j]
            step = L * np.array([np.sin(t), np.cos(t)])
            inner[i, j] = inner[i, j - 1] + step
            if abs(inner[i, j, 0] - xcol[j]) > COLUMN_ALIGN_REL * max(1.0, abs(xcol[j])):
                raise LayoutError("column line misalignment in ortho layout")
    nodes[1:-1, 0] = [inner[i, 0] + scales[i] * base[0] *
                      np.array([-np.sin(col0[i]), np.cos(col0[i])]) for i in range(n)]
    tl = a1col if m % 2 == 1 else np.pi - a1col
    nodes[1:-1, -1] = [inner[i, m - 1] + scales[i] * base[m] *
                       np.array([np.sin(tl[i]), np.cos(tl[i])]) for i in range(n)]
    nodes[0, 1:-1] = inner[0] + part.lengths[0] * np.array([0.0, 1.0])
    nodes[-1, 1:-1] = inner[-1] + part.lengths[n] * np.array([0.0, -1.0])
    return assemble_grid(set_corners(nodes),
                         design={"type": "orthodiagonal", "theta": spec.theta,
                                 "phase": spec.phase})
