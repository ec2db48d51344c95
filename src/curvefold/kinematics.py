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
of lanes with the operations of `LANES`.  A vertex folds on two branches:
mode +1 is the one whose opposite crease folds mountain, mode -1 the one
whose opposite crease folds valley.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import product

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
    """Vertices solved in one kernel call: `terms` stacks their terms as
    (G, 1) columns, so that row g of a (G, L) input runs on vertex g."""

    def __init__(self, verts):
        self.verts = verts

    def terms(self, a):
        return tuple(np.array([v.terms(a) for v in self.verts]).T[:, :, None])


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


def _root(x):
    return math.sqrt(max(x, 0.0))


def _each(fn):
    """fn of math on every element of arrays of one shape."""
    def each(*xs):
        x = xs[0]
        return np.fromiter(map(fn, *(a.ravel().tolist() for a in xs)), float,
                           x.size).reshape(x.shape)
    return each


#: the operations one form of the solve runs on: one state in floats, or
#: arrays of lanes.  Lanes take numpy for arithmetic, which rounds as
#: floats do, and math for each tan and atan2, one element at a time,
#: because numpy's can differ from math's in the last bit
Form = namedtuple("Form", "tan root atan2 where any")
FLOATS = Form(math.tan, _root, math.atan2, lambda c, a, b: a if c else b, bool)
LANES = Form(_each(math.tan), lambda x: np.sqrt(np.maximum(x, 0.0)), _each(math.atan2),
             np.where, np.any)


def form(x):
    """The form that x, a fold angle or an array of them, runs on."""
    return LANES if isinstance(x, np.ndarray) else FLOATS


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
    return (math.sqrt(k2), 1.0 - k2, _root(c11 * c11 - c20 * c02)) \
        + c + pair(S4, S1, S2, S3)


def _half_angle_folds(t, z, root, atan2):
    """The vertex kernel, on floats or on (L,) arrays of lanes.

    t: the `_half_angle_terms` of the input crease a; z = tan(rho_a / 2).
    With u = tan(rho_{a+1} / 2) / z, the pair (a, a+1) gives
    (c02 + c22 z^2) u^2 + 2 c11 u + c20 = 0, whose discriminant is
    P r^2 with r = sqrt(1 + (1 - k^2) z^2); its roots q/A and c20/q are
    free of cancellation.  The pair (a+3, a) gives the same with the d
    terms, and the opposite crease has tan(rho_{a+2} / 2) = -+k z / r.
    Returns whether the state is in range, and the folds on creases
    (a+1, a+2, a+3) of the branch whose opposite crease folds against the
    sign of z, then of the other one."""
    k, one_k2, sqrt_p, c22, c20, c02, c11, d22, d20, d02, d11 = t
    zz = z * z
    r2 = 1.0 + one_k2 * zz
    r = root(r2)
    q = -(c11 + sqrt_p * r)
    p = -(d11 + sqrt_p * r)
    kz = k * z
    halves = ((q * z, c02 + c22 * zz), (-kz, r), (p * z, d20 + d22 * zz),
              (c20 * z, q), (kz, r), (d02 * z, p))
    # 2 atan of num/den, carried to +-pi where den reaches 0 (lanes: one pass)
    if isinstance(z, np.ndarray):
        num, den = map(np.array, zip(*halves))
        folds = 2.0 * atan2(num * (1 - 2 * (den < 0)), abs(den))
    else:
        folds = [2.0 * atan2(num * (1 - 2 * (den < 0)), abs(den)) for num, den in halves]
    return r2 >= -RADICAND_SLACK * (1.0 + zz), folds[:3], folds[3:]


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
    crease (np.allclose's rule).  The folds are finite wherever ok, and
    mean nothing elsewhere."""
    a = input_crease % 4
    x = input_rho
    tan, root, atan2, where, _ = form(x)
    # beyond pi z is nan, and so the kernel finds no root
    z = tan(where(abs(x) <= math.pi, x, math.nan) / 2.0)
    ok, p, m = _half_angle_folds(v.terms(a), z, root, atan2)
    p, m = where(x < 0, (m, p), (p, m))
    plus, minus = [x] * 4, [x] * 4
    plus[(a + 1) % 4], plus[(a + 2) % 4], plus[(a + 3) % 4] = p
    minus[(a + 1) % 4], minus[(a + 2) % 4], minus[(a + 3) % 4] = m
    flat = [abs(x) * 0.0] * 4  # zeros in the shape of x
    plus, minus = where(abs(x) < FLAT_CUT, (flat, flat), (plus, minus))
    two = False
    for u, w in zip(plus, minus):
        two = two | (abs(w - u) > MODE_ATOL + MODE_RTOL * abs(u))
    return ok, plus, minus, two
