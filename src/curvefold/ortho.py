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
from .geometry import Partition, PolyCurve, design_staircase, partition_tube
from .kinematics import guarded_arccos
from .pattern import assemble_grid, finish_design, set_corners, sweep_columns
from .tolerances import COLUMN_ALIGN_REL, DEGENERATE_ANGLE, RATIO_FLOOR


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
    against the halting inequalities), the grid it spans with the stub
    angles of column 0, and the row staircase angle xi of each row."""
    tube = spec.tube_eps if spec.tube_eps is not None else spec.eps / 2.0
    part = partition_tube(spec.datum, spec.n, tube)
    col0 = effective_stub_angles(part)
    a11 = spec.alpha11 if spec.alpha11 is not None else default_alpha11(col0[0])
    if not validate_alpha11(a11, col0[0]):
        raise DegenerateAngle(
            f"alpha11 = {a11:.6g} violates the halting inequalities against "
            f"alpha10 = {col0[0]:.6g}")
    grid = propagate_grid(col0, a11, m=spec.m)
    xis = [ortho_xi(grid.alpha[i, 1], part.turn_angles[i]) for i in range(spec.n)]
    return tube, part, a11, grid, xis


def build_ortho_pattern(spec: OrthoDesignSpec, prelude=None):
    """Full orthodiagonal pattern plus design report.  prelude: the
    spec's `angle_grid`, where the caller has it already."""
    tube, part, a11, grid, xis = prelude or angle_grid(spec)
    col0, a1col = grid.alpha[:, 0], grid.alpha[:, 1]
    stair, base = design_staircase(spec.target, spec.theta, xis, spec.m, spec.phase,
                                   "row staircase angle")
    scales = np.sin(a1col[0]) / np.sin(a1col)

    pattern = _draw_ortho(spec, part, col0, a1col, base, scales)
    rho0 = bootstrap_mv(pattern)
    pattern.design["halt_rho_signs"] = np.sign(rho0).tolist()
    pattern.design["grid_alpha"] = grid.alpha.tolist()
    return finish_design(pattern, spec, part, stair, xis,
                         notes={"alpha11": float(a11), "tube_eps": tube,
                                "separability": grid.separability_residual()})


def _draw_ortho(spec, part: Partition, col0, a1col, base, scales):
    """Planar layout among vertical column lines.

    The datum column runs down from the origin; each row steps right from
    it, its crease lengths and its stubs scaled with 1/sin(alpha_i1), so
    that the strip widths are shared by all rows and the columns stay on
    vertical lines."""
    n, m = spec.n, spec.m
    datum = np.zeros((n, 2))
    datum[1:, 1] = -np.cumsum(part.lengths[1:n])
    # the rows are the sweep's columns, the datum column its first row; the
    # sweep's first-row stubs, column 0 here, are replaced by the col0 stubs
    down = np.stack([np.sin(a1col), np.cos(a1col)], axis=1)
    up = -np.stack([np.sin(np.pi - a1col), np.cos(np.pi - a1col)], axis=1)
    nodes = sweep_columns(datum, up, down, m, lambda k, i: scales[i - 1] * base[k])
    nodes = nodes.transpose(1, 0, 2)
    inner = nodes[1:-1, 1:-1]
    xcol = np.concatenate([[0.0], np.cumsum(np.array(base[1:m]) * np.sin(a1col[0]))])
    if (np.abs(inner[..., 0] - xcol) > COLUMN_ALIGN_REL * np.abs(xcol)).any():
        raise LayoutError("column line misalignment in ortho layout")
    nodes[1:-1, 0] = inner[:, 0] + (scales * base[0])[:, None] * np.stack(
        [-np.sin(col0), np.cos(col0)], axis=1)
    nodes[0, 1:-1] = inner[0] + part.lengths[0] * np.array([0.0, 1.0])
    nodes[-1, 1:-1] = inner[-1] + part.lengths[n] * np.array([0.0, -1.0])
    return assemble_grid(set_corners(nodes),
                         design={"type": "orthodiagonal", "theta": spec.theta,
                                 "phase": spec.phase})
