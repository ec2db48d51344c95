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
the pattern; its row-crease folds obey the closed form `fold_from_beta`.
The interior family (a, b, pi-a, pi-b) is flat-foldable.

Given the fold on one crease, the other three follow from closed-form
roots in the tangents of the half fold angles (the spherical four-bar's
biquadratic: Izmestiev 2017, "Classification of flexible Kokotsakis
polyhedra with quadrangular base"; Foschi, Hull & Ku 2022, "Explicit
kinematic equations for degree-4 rigid origami vertices").  One kernel
serves every vertex, a straight crease line included, and runs on floats
and on arrays of lanes.  A vertex folds on two branches: mode +1 is the
one whose opposite crease folds mountain, mode -1 the one whose opposite
crease folds valley.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NoSolution, OutOfRange
from .geometry import TAU

DEV_TOL = 1e-10          # developability: sector sum vs 2*pi
CLAMP_SLACK = 1e-12      # |arccos arg| may exceed 1 by at most this
SECTOR_MARGIN = 1e-6     # sectors valid in (margin, pi - margin)
FLAT_CUT = 1e-14         # |input fold| below this is the flat state
RADICAND_SLACK = 1e-10   # r^2 may fall below 0 by this much times 1 + z^2

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

    @property
    def is_flat_foldable(self):
        s = self.sectors
        return abs(s[0] + s[2] - np.pi) < 1e-9 and abs(s[1] + s[3] - np.pi) < 1e-9


@dataclass(frozen=True)
class FoldAngles:
    """Signed folding angles per crease, (R, U, L, D) order, valley +."""

    rho: tuple
    mode: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(float(x) for x in self.rho))


def fold_from_beta(alpha1, alpha2, beta1):
    """Folding-angle magnitudes (rho2, rho4) of the halting-family vertex
    whose row creases subtend the space angle beta1.

    rho2 lives on the left row crease, rho4 on the right.  Values land in
    (0, 2*pi); the physical fold is the value itself when <= pi, otherwise
    its 2*pi complement with opposite sign."""
    for x in (alpha1, alpha2, beta1):
        if not (0.0 < x < np.pi):
            raise OutOfRange(f"angle {x:.6g} outside (0, pi)")
    x2 = (np.cos(alpha2) * np.cos(beta1) - np.cos(alpha1)) / (np.sin(alpha2) * np.sin(beta1))
    x4 = (np.cos(alpha1) * np.cos(beta1) - np.cos(alpha2)) / (np.sin(alpha1) * np.sin(beta1))
    return 2.0 * guarded_arccos(x2), 2.0 * guarded_arccos(x4)


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
    theta term at prev, theta term at next)."""
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
    return float(r1), float(r2)


def planar_transfer(prev_pair, beta_i, beta_ip1):
    """Next halting-family vertex when the whole row stays in that family.

    The single ratio equation fixes a' (= b' by the flat-foldability
    choice): -cot(a') tan(beta_ip1 / 2) equals the previous vertex's ratio
    `lhs`, whose one root in (0, pi) is the closed form below.  The
    required dihedral theta_i is 0 when consecutive vertices bend the row
    polyline the same way and pi otherwise."""
    p1, p2 = prev_pair
    for x in (p1, p2, beta_i, beta_ip1):
        if not (0.0 < x < np.pi):
            raise OutOfRange(f"angle {x:.6g} outside (0, pi)")
    lhs = (np.cos(p1) * np.cos(beta_i) - np.cos(p2)) / (np.sin(p1) * np.sin(beta_i))
    a = math.atan2(math.tan(beta_ip1 / 2.0), -lhs)
    if not (SECTOR_MARGIN < a < np.pi - SECTOR_MARGIN):
        raise NoSolution("ratio equation has no root in (0, pi)")
    theta = 0.0 if (p1 + p2 - np.pi) * (2 * a - np.pi) > 0 else np.pi
    return a, a, theta


def _allclose(a, b, atol):
    """np.allclose(a, b, atol=atol): |a - b| <= atol + 1e-5 |b| throughout."""
    return all(abs(x - y) <= atol + 1e-5 * abs(y) for x, y in zip(a, b))


def _atan2_lanes(y, x):
    """math.atan2 over arrays, one element at a time: numpy's arctan2 can
    differ from it in the last bit."""
    return np.array(list(map(math.atan2, y.tolist(), x.tolist())))


def _root(x):
    return math.sqrt(max(x, 0.0))


def _root_lanes(x):
    return np.sqrt(np.maximum(x, 0.0))


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
    # 2 atan of num/den, carried to +-pi where den reaches 0
    folds = [2.0 * atan2(num * (1 - 2 * (den < 0)), abs(den)) for num, den in halves]
    return r2 >= -RADICAND_SLACK * (1.0 + zz), folds[:3], folds[3:]


def _branches(v, a, input_rho):
    """Fold tuples of mode +1 and mode -1 given the fold on crease a.

    Raises OutOfRange beyond the folding range."""
    if abs(input_rho) > math.pi:
        raise OutOfRange(f"|rho| = {abs(input_rho):.6g} > pi")
    if abs(input_rho) < FLAT_CUT:
        flat = (0.0, 0.0, 0.0, 0.0)
        return flat, flat
    hit, plus, minus = _half_angle_folds(v.terms(a), math.tan(input_rho / 2.0),
                                         _root, math.atan2)
    if not hit:
        raise OutOfRange("configuration beyond the vertex folding range")
    if input_rho < 0:
        plus, minus = minus, plus
    out = []
    for m in (plus, minus):
        rho = [input_rho] * 4
        rho[(a + 1) % 4], rho[(a + 2) % 4], rho[(a + 3) % 4] = m
        out.append(tuple(rho))
    return tuple(out)


def degree4_propagate(v: VertexAngles, input_crease, input_rho, mode=+1):
    """All four folding angles given the fold on one crease.

    Solves the spherical four-bar in tangents of the half fold angles:
    each crease follows from tan(rho_a / 2) by a closed-form root, so the
    solve is exact to rounding up to the flat state and through vertices
    with a straight crease line.  Mode +1 is the branch whose opposite
    crease folds mountain, mode -1 the one whose opposite crease folds
    valley; at the flat state both coincide.  Raises OutOfRange beyond the
    vertex's folding range."""
    pair = _branches(v, input_crease % 4, input_rho)
    return FoldAngles(pair[0 if mode == +1 else 1], mode=mode)


def propagate_both_modes(v: VertexAngles, input_crease, input_rho):
    """The (up to two) folding branches as FoldAngles, deduplicated."""
    try:
        plus, minus = _branches(v, input_crease % 4, input_rho)
    except OutOfRange:
        raise OutOfRange("configuration beyond the vertex folding range") from None
    out = [FoldAngles(plus, mode=+1)]
    if not _allclose(minus, plus, 1e-12):
        out.append(FoldAngles(minus, mode=-1))
    return out


def propagate_both_modes_lanes(v: VertexAngles, input_crease, input_rho):
    """propagate_both_modes over an (L,) array of input folds, one lane each.

    Returns the folds of mode +1 and mode -1, (L, 2, 4), and which of them
    each lane keeps, (L, 2): mode -1 only where it differs from mode +1 as
    in propagate_both_modes, neither where the vertex has no branch or a
    fold is not finite.  The kernel of the scalar solve runs over the
    lanes, with numpy for arithmetic and math for each tan and atan2, so
    every kept fold equals the scalar one bit for bit."""
    a = input_crease % 4
    x = np.asarray(input_rho, dtype=float)
    # beyond pi a lane has no branch: its z is nan, and it is not kept
    half = np.where(np.abs(x) <= math.pi, x, math.nan) / 2.0
    z = np.array(list(map(math.tan, half.tolist())))
    hit, plus, minus = _half_angle_folds(v.terms(a), z, _root_lanes, _atan2_lanes)
    neg = x < 0
    folds = np.empty((len(x), 2, 4))
    folds[:, :, a] = x[:, None]
    for j, p, m in zip(((a + 1) % 4, (a + 2) % 4, (a + 3) % 4), plus, minus):
        folds[:, 0, j] = np.where(neg, m, p)
        folds[:, 1, j] = np.where(neg, p, m)
    folds[np.abs(x) < FLAT_CUT] = 0.0
    keep = np.empty((len(x), 2), dtype=bool)
    keep[:, 0] = hit & np.isfinite(folds).all(axis=(1, 2))
    folds[~keep[:, 0]] = math.nan
    plus, minus = folds[:, 0], folds[:, 1]
    keep[:, 1] = keep[:, 0] & ~(np.abs(minus - plus) <= 1e-12 + 1e-5 * np.abs(plus)).all(axis=1)
    return folds, keep
