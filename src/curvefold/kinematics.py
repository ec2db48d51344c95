"""Degree-4 vertex spherical trigonometry.

A developable degree-4 vertex is a spherical four-bar linkage: crease
directions are points on the unit sphere, sector angles are the arc
lengths between cyclically adjacent creases.  Creases are indexed
counterclockwise (R, U, L, D) = (0, 1, 2, 3) viewed from the paper's top
side, with sectors

    s1 = arc(R, U),  s2 = arc(U, L),  s3 = arc(L, D),  s4 = arc(D, R).

Folding angles are signed: valley positive (panels rise toward the top
side), magnitude pi - dihedral.  |rho| = pi means coincident panels.

The halting family (a1, a2, pi-a2, pi-a1) has collinear column creases in
the pattern; its row-crease folds obey the closed form of the paper.
The interior family (a, b, pi-a, pi-b) is flat-foldable.

Given the fold on one crease, the other three follow from closed-form
roots in the tangents of the half fold angles (the spherical four-bar's
biquadratic: Izmestiev 2017, "Classification of flexible Kokotsakis
polyhedra with quadrangular base"; Foschi, Hull & Ku 2022, "Explicit
kinematic equations for degree-4 rigid origami vertices").  One kernel
serves every vertex, a straight crease line included, and one wrapper,
`propagate_both_modes`, gives both branches: on a float, or on an array
of lanes as one (2, 4, ...) array.  Mode +1 folds the opposite crease
mountain, mode -1 valley by the same fold negated, so a solve takes one
tan and five atan2, from math in both forms: numpy's SIMD tan and arctan2
differ from math's in the last bit on some CPUs, and lanes must equal
floats bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter

import numpy as np

from .errors import NoSolution, OutOfRange
from .geometry import TAU
from .tolerances import (CLAMP_SLACK, DEV_TOL, FLAT_CUT, MODE_ATOL, MODE_RTOL,
                         RADICAND_SLACK, SECTOR_MARGIN)

#: lexicographic enumeration of the four +- slots of the transfer equations
BRANCH_ORDER = tuple(product((1, -1), repeat=4))


def guarded_arccos(x):
    """arccos with a tiny clamp; beyond CLAMP_SLACK the input is a genuine
    singularity of the transfer equations, not float noise."""
    if abs(x) > 1.0 + CLAMP_SLACK:
        raise OutOfRange(f"arccos argument {x:.9g} outside [-1, 1]")
    return float(np.arccos(np.clip(x, -1.0, 1.0)))


@dataclass(frozen=True)
class VertexAngles:
    """Four sector angles in cyclic (R, U, L, D) order."""

    sectors: tuple

    def __post_init__(self):
        s = tuple(float(x) for x in self.sectors)
        if len(s) != 4:
            raise ValueError("need four sector angles")
        for x in s:
            if not (SECTOR_MARGIN < x < np.pi - SECTOR_MARGIN):
                raise ValueError(f"sector {x:.6g} outside (0, pi)")
        if abs(sum(s) - TAU) > DEV_TOL:
            raise ValueError(f"sector sum {sum(s):.12g} != 2*pi (not developable)")
        # a cross (both crease pairs collinear) is kinematically degenerate
        if abs(s[0] + s[1] - np.pi) < SECTOR_MARGIN and abs(s[1] + s[2] - np.pi) < SECTOR_MARGIN:
            raise ValueError("sectors form a cross")
        object.__setattr__(self, "sectors", s)
        object.__setattr__(self, "_terms", [None] * 4)

    def terms(self, a):
        """The kernel's terms for input crease a, built on first use."""
        t = self._terms[a]
        if t is None:
            t = self._terms[a] = _half_angle_terms(self.sectors, a)
        return t


class VertexStack:
    """Vertices solved in one kernel call: `terms` stacks their terms, built on
    first use, as (G, 1) columns, so row g of a (G, L) input runs on vertex g."""

    def __init__(self, verts):
        self.verts, self._terms = verts, {}

    def terms(self, a):
        if a not in self._terms:
            self._terms[a] = tuple(np.array([v.terms(a) for v in self.verts]).T[:, :, None])
        return self._terms[a]


def solve_first_vertex(beta1, rho4):
    """Sector angles (alpha1, alpha2) of the halting vertex: left row crease
    fully folded (rho2 = pi) while the right row crease carries rho4.

    rho2 = pi forces cos(alpha1) = cos(alpha2) cos(beta1); the rho4
    equation then reads -cos(alpha2) sin(beta1) = cos(rho4/2) sin(alpha1),
    whose one root in (0, pi) is the closed form below."""
    if not (0.0 < beta1 < np.pi):
        raise OutOfRange(f"beta1 = {beta1:.6g} outside (0, pi)")
    if not (0.0 < rho4 < np.pi):
        raise OutOfRange(f"rho4 = {rho4:.6g} outside (0, pi)")
    sb, c = math.sin(beta1), math.cos(rho4 / 2.0)
    a1 = math.atan2(sb, -c * math.cos(beta1))
    a2 = math.atan2(sb * math.sin(rho4 / 2.0), -c)
    if not (SECTOR_MARGIN < a1 < np.pi - SECTOR_MARGIN
            and SECTOR_MARGIN < a2 < np.pi - SECTOR_MARGIN):
        raise NoSolution(f"no alpha2 in (0, pi) reaches rho4 = {rho4:.6g} "
                         f"at beta1 = {beta1:.6g}")
    return a1, a2


def row_transfer_residual(prev, nxt, beta_i, beta_ip1, theta_i, branch):
    """Residuals (r1, r2) of the two transfer equations linking consecutive
    row vertices across their shared row crease.

    prev, nxt: sector quadruples in (R, U, L, D) order; branch: the four
    +- signs, lexicographic slots (lhs lower term, rhs lower term,
    theta term at prev, theta term at next), or a (4, B) stack of such
    signs for B branches at once, whose residuals are then (B,) arrays."""
    sL, sR, sT1, sT2 = branch
    p1, p2, p3, p4 = prev
    q1, q2, q3, q4 = nxt
    sb, sb2 = np.sin(beta_i), np.sin(beta_ip1)
    A1 = guarded_arccos((np.cos(p1) * np.cos(beta_i) - np.cos(p2)) / (np.sin(p1) * sb))
    A2 = guarded_arccos((np.cos(p3) - np.cos(p4) * np.cos(beta_i)) / (np.sin(p4) * sb))
    B1 = guarded_arccos((np.cos(q2) * np.cos(beta_ip1) - np.cos(q1)) / (np.sin(q2) * sb2))
    B2 = guarded_arccos((np.cos(q4) - np.cos(q3) * np.cos(beta_ip1)) / (np.sin(q3) * sb2))
    r1 = (A1 + sL * A2) - (B1 + sR * B2)
    T1 = guarded_arccos((np.cos(p2) - np.cos(p1) * np.cos(beta_i)) / (np.sin(p1) * sb))
    T2 = guarded_arccos((np.cos(q1) - np.cos(q2) * np.cos(beta_ip1)) / (np.sin(q2) * sb2))
    r2 = sT1 * T1 + sT2 * T2 - theta_i
    r2 = (r2 + np.pi) % TAU - np.pi
    return r1, r2


def _each(fn, *xs):
    """fn of math on every element of float arrays of one shape, via their buffers."""
    x = xs[0]
    return np.fromiter(map(fn, *(a.ravel().data for a in xs)), float, x.size).reshape(x.shape)


#: per input slot a, the rows of (input, mode +1's folds on a+1, a+2, a+3, mode
#: -1's on a+1, a+3, a+2) that fill slots (R, U, L, D) of mode +1, then mode -1
_SLOTS = np.array([[[m[(s - a) % 4] for s in range(4)] for m in ((0, 1, 2, 3), (0, 4, 6, 5))]
                   for a in range(4)])
_PICKS = [[itemgetter(*m) for m in s] for s in _SLOTS.tolist()]


def _half_angle_terms(s, a):
    """Per-vertex terms of the solve driven from crease a: k, 1 - k^2,
    sqrt(P), then the biquadratic coefficients (c22, c20, c02, c11) of the
    crease pair (a, a+1) and (d22, d20, d02, d11) of the pair (a+3, a)."""
    S1, S2, S3, S4 = (s[(a + i) % 4] for i in range(4))

    # sums in pairs, so that two sectors built as x and pi - x (a straight
    # crease line, a flat-foldable vertex) cancel exactly in floats
    def pair(S1, S2, S3, S4):
        return (-2.0 * math.sin(S1) * math.sin(((S2 + S4) - (S1 + S3)) / 2.0),
                -2.0 * math.sin(S4) * math.sin(((S1 + S2) - (S3 + S4)) / 2.0),
                -2.0 * math.sin(S2) * math.sin(((S1 + S4) - (S2 + S3)) / 2.0),
                2.0 * math.sin(S2) * math.sin(S4))

    c22, c20, c02, c11 = c = pair(S1, S2, S3, S4)
    k2 = math.sin(S4) * math.sin(S1) / (math.sin(S2) * math.sin(S3))
    return (math.sqrt(k2), 1.0 - k2, math.sqrt(max(c11 * c11 - c20 * c02, 0.0))) \
        + c + pair(S4, S1, S2, S3)


def _half_angle_folds(t, z):
    """The vertex kernel, on a float or on an array of lanes.

    t: the `_half_angle_terms` of the input crease a; z = tan(rho_a / 2).
    With u = tan(rho_{a+1} / 2) / z, the pair (a, a+1) gives
    (c02 + c22 z^2) u^2 + 2 c11 u + c20 = 0, whose discriminant is
    P r^2 with r = sqrt(1 + (1 - k^2) z^2); its roots q/A and c20/q are
    free of cancellation.  The pair (a+3, a) gives the same with the d
    terms, and the opposite crease has tan(rho_{a+2} / 2) = -+k z / r.
    Returns whether the state is in range and five folds: on creases (a+1,
    a+2, a+3) of the branch whose opposite crease folds against the sign of
    z, then on (a+1, a+3) of the other, whose fold on a+2, 2 atan2(k z, r),
    is the first's negated (r >= 0, and atan2 is odd in y)."""
    k, one_k2, sqrt_p, c22, c20, c02, c11, d22, d20, d02, d11 = t
    lanes = isinstance(z, np.ndarray)
    zz = z * z
    r2 = 1.0 + one_k2 * zz
    r = np.sqrt(np.maximum(r2, 0.0)) if lanes else math.sqrt(max(r2, 0.0))
    sr = sqrt_p * r
    q, p = -(c11 + sr), -(d11 + sr)
    halves = ((q * z, c02 + c22 * zz), (-k * z, r), (p * z, d20 + d22 * zz),
              (c20 * z, q), (d02 * z, p))
    # 2 atan of num/den, carried to +-pi where den reaches 0 (lanes: one pass)
    if lanes:
        num, den = map(np.array, zip(*halves))
        folds = 2.0 * _each(math.atan2, np.where(den < 0, -num, num), abs(den))
    else:
        folds = [2.0 * math.atan2(-num if den < 0 else num, abs(den)) for num, den in halves]
    return r2 >= -RADICAND_SLACK * (1.0 + zz), folds


def propagate_both_modes(v, input_crease, input_rho):
    """The folds on all four creases of both branches, given the fold on
    one crease of the VertexAngles v: a float, or an (L,) array of lanes;
    or, for a VertexStack v of G vertices, a (G, L) array.

    Solves the spherical four-bar in tangents of the half fold angles:
    each crease follows from tan(rho_a / 2) by a closed-form root, so the
    solve is exact to rounding up to the flat state and through vertices
    with a straight crease line.  Mode +1 is the branch whose opposite
    crease folds mountain, mode -1 the one whose opposite crease folds
    valley; below FLAT_CUT the input is the flat state, all folds 0.

    Returns (ok, plus, minus, two): whether the state is within the
    vertex's folding range (|rho| <= pi and a real root), the four folds of
    mode +1 and of mode -1, and whether mode -1 is a branch of its own,
    apart from mode +1 by more than MODE_ATOL + MODE_RTOL |rho| on some
    crease (np.allclose's rule).  On lanes plus and minus are the two rows
    of one (2, 4, ...) array.  The folds are finite wherever ok, and mean
    nothing elsewhere."""
    a, x = input_crease % 4, input_rho
    # beyond pi z is nan, and so the kernel finds no root
    if isinstance(x, np.ndarray):
        ok, f = _half_angle_folds(v.terms(a), _each(math.tan, np.where(
            abs(x) <= math.pi, x, math.nan) / 2.0))
        modes = np.concatenate([x[None], f, -f[1:2]]).take(_SLOTS[a], axis=0)
        modes = np.where(x < 0, modes[::-1], modes)
        plus, minus = np.where(abs(x) < FLAT_CUT, 0.0, modes)
        return ok, plus, minus, (abs(minus - plus) > MODE_ATOL + MODE_RTOL * abs(plus)).any(axis=0)
    ok, f = _half_angle_folds(v.terms(a), math.tan(x / 2.0) if abs(x) <= math.pi else math.nan)
    if abs(x) < FLAT_CUT:
        return ok, (0.0,) * 4, (0.0,) * 4, False
    rows = [x, *f, -f[1]]
    pp, pm = _PICKS[a]
    plus, minus = (pm(rows), pp(rows)) if x < 0 else (pp(rows), pm(rows))
    for u, w in zip(plus, minus):
        if abs(w - u) > MODE_ATOL + MODE_RTOL * abs(u):
            return ok, plus, minus, True
    return ok, plus, minus, False
