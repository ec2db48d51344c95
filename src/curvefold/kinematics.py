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


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _unit3(v, sqrt=math.sqrt):
    n = sqrt(_dot(v, v))
    return (v[0] / n, v[1] / n, v[2] / n)


def _arc3(u, v):
    return math.acos(min(max(_dot(u, v), -1.0), 1.0))


def _allclose(a, b, atol):
    """np.allclose(a, b, atol=atol): |a - b| <= atol + 1e-5 |b| throughout."""
    return all(abs(x - y) <= atol + 1e-5 * abs(y) for x, y in zip(a, b))


def _atan2_lanes(y, x):
    """math.atan2 over arrays, one element at a time: numpy's arctan2 can
    differ from it in the last bit."""
    return np.array(list(map(math.atan2, y.tolist(), x.tolist())))


def _fourth(u, v, n, al, be, g):
    return (al * u[0] + be * v[0] + g * n[0],
            al * u[1] + be * v[1] + g * n[1],
            al * u[2] + be * v[2] + g * n[2])


def _place_fourth_pair(u, v, cu, cv):
    """Both unit directions w with cos arc(u, w) = cu and cos arc(v, w) = cv,
    on the + and then the - side of the (u, v) plane; None if the cones
    miss."""
    c = _dot(u, v)
    s2 = 1.0 - c * c
    if s2 < 1e-14:
        return None
    al = (cu - c * cv) / s2
    be = (cv - c * cu) / s2
    g2 = 1.0 - al * al - be * be - 2.0 * al * be * c
    if g2 < -1e-10:
        return None
    g = math.sqrt(max(g2, 0.0))
    n = _unit3(_cross(u, v))
    return _fourth(u, v, n, al, be, g), _fourth(u, v, n, al, be, -g)


def _place_fourth_lanes(u, v, cu, cv):
    """_place_fourth_pair over arrays of lanes: (hit, w+, w-), with hit
    False on the lanes where the scalar form returns None."""
    c = _dot(u, v)
    s2 = 1.0 - c * c
    al = (cu - c * cv) / s2
    be = (cv - c * cu) / s2
    g2 = 1.0 - al * al - be * be - 2.0 * al * be * c
    g = np.sqrt(np.maximum(g2, 0.0))
    n = _unit3(_cross(u, v), np.sqrt)
    hit = ~((s2 < 1e-14) | (g2 < -1e-10))
    return hit, _fourth(u, v, n, al, be, g), _fourth(u, v, n, al, be, -g)


def place_fourth(u, v, arc_u, arc_v, sign):
    """Unit direction w with arc(u, w) = arc_u, arc(v, w) = arc_v; sign
    (+1 or -1) selects which side of the (u, v) plane.  None if the cones
    miss."""
    pair = _place_fourth_pair(u, v, math.cos(arc_u), math.cos(arc_v))
    return None if pair is None else pair[0 if sign > 0 else 1]


def vertex_fold_angles(dirs, sqrt=math.sqrt, atan2=math.atan2):
    """Signed folds at the four creases of a placed vertex.

    dirs: unit crease directions in cyclic (R, U, L, D) order with panel
    P_j spanned by (dirs[j], dirs[j+1]); valley positive.  Components may
    be arrays of lanes, with sqrt and atan2 to match."""
    N = [_unit3(_cross(dirs[j], dirs[(j + 1) % 4]), sqrt) for j in range(4)]
    return [atan2(_dot(_cross(N[j - 1], N[j]), dirs[j]), _dot(N[j - 1], N[j]))
            for j in range(4)]


def _collinear_input_states(s, a, input_rho):
    """Folding states of a vertex whose creases flanking the input crease
    are collinear in the pattern (s[a-1] + s[a] = pi).

    There the two-cone construction degenerates (cone axes antipodal), but
    the vertex is mirror-symmetric about the straight crease line: the
    input fold fixes the corner angle of the diagonal triangle up to a
    branch, and the diagonal arc follows from one stable trig solve."""
    o, f1, f2 = (a + 2) % 4, (a + 1) % 4, (a - 1) % 4
    mag = abs(input_rho)
    ca, sa = math.cos(s[a]), math.sin(s[a])
    cf2, sf2 = math.cos(s[f2]), math.sin(s[f2])
    C = math.cos(s[f1])
    states = []
    for ang in (mag / 2.0, math.pi - mag / 2.0):
        cang, sang = math.cos(ang), math.sin(ang)
        B = sa * cang
        r0 = math.hypot(ca, B)
        if r0 < 1e-14 or abs(C) > r0 * (1.0 + 1e-12):
            continue
        delta = math.atan2(B, ca)
        h = math.acos(min(max(C / r0, -1.0), 1.0))
        for xi in ((delta + h) % TAU, (delta - h) % TAU):
            if not (1e-9 < xi < math.pi - 1e-9):
                continue
            e = [None] * 4
            e[a] = (1.0, 0.0, 0.0)
            e[o] = (math.cos(xi), math.sin(xi), 0.0)
            # flanking creases from their corner angles at the input crease
            # (the mirror property puts them at ang and pi - ang); stable
            # even when the diagonal approaches pi
            for sgn1 in (1, -1):
                w1 = (ca, B, sa * (sgn1 * sang))
                if abs(_arc3(e[o], w1) - s[f1]) > 1e-8:
                    continue
                for sgn2 in (1, -1):
                    w2 = (cf2, sf2 * -cang, sf2 * (sgn2 * sang))
                    if abs(_arc3(e[o], w2) - s[o]) > 1e-8:
                        continue
                    e[f1], e[f2] = w1, w2
                    rho = vertex_fold_angles(e)
                    if abs(rho[a] - input_rho) < 1e-9:
                        if not any(_allclose(rho, q, 1e-9) for q in states):
                            states.append(rho)
    # the two states mirror each other and tie on |fold| at the opposite
    # crease up to rounding, so this sort does not fix their order:
    # rounding decides which state is mode +1
    states.sort(key=lambda q: -abs(q[o]))
    return states


def _collinear(s, a):
    """Whether the creases flanking crease a are collinear in the pattern."""
    return abs(s[(a - 1) % 4] + s[a] - math.pi) < 1e-9


def _cone_frame(s, a, cos_in, sin_in):
    """Crease directions of the cone route: the input crease a along x, its
    leading panel flat in the plane, the trailing panel rotated by the
    input fold (given by its cosine and sine, floats or arrays of lanes)."""
    e = [None] * 4
    e[a] = (1.0, 0.0, 0.0)
    e[(a + 1) % 4] = (math.cos(s[a]), math.sin(s[a]), 0.0)
    sprev = s[(a - 1) % 4]
    cp, sp = math.cos(sprev), math.sin(sprev)
    e[(a - 1) % 4] = (cp, -sp * cos_in, sp * sin_in)
    return e


def _branches(v, a, input_rho):
    """Fold tuples of mode +1 and mode -1 given the fold on crease a.

    A vertex has both branches or neither: the cone route's misses do not
    depend on the side, and the collinear route's mode -1 falls back to
    its one state.  Raises OutOfRange beyond the folding range."""
    if abs(input_rho) > math.pi:
        raise OutOfRange(f"|rho| = {abs(input_rho):.6g} > pi")
    if abs(input_rho) < 1e-14:
        # exactly flat; also the degenerate moment for vertices with a
        # collinear crease pair, where the cone construction breaks down
        flat = (0.0, 0.0, 0.0, 0.0)
        return flat, flat
    s = v.sectors
    if _collinear(s, a):
        states = _collinear_input_states(s, a, input_rho)
        if not states:
            raise OutOfRange("configuration beyond the vertex folding range")
        return tuple(states[0]), tuple(states[min(1, len(states) - 1)])
    e = _cone_frame(s, a, math.cos(input_rho), math.sin(input_rho))
    pair = _place_fourth_pair(e[(a + 1) % 4], e[(a - 1) % 4],
                              math.cos(s[(a + 1) % 4]), math.cos(s[(a + 2) % 4]))
    if pair is None:
        raise OutOfRange("configuration beyond the vertex folding range")
    out = []
    for w in pair:
        e[(a + 2) % 4] = w
        out.append(tuple(vertex_fold_angles(e)))
    return tuple(out)


def degree4_propagate(v: VertexAngles, input_crease, input_rho, mode=+1):
    """All four folding angles given the fold on one crease.

    Rebuilds the spherical four-bar: the input crease along x, its leading
    panel flat in the plane, the trailing panel rotated by the input fold,
    and the opposite crease from the two-cone intersection.  mode (+1/-1)
    picks the intersection branch; at the flat state both coincide.
    Vertices with a straight crease line through them get a dedicated
    stable route when driven from a crease flanked by that line.
    Raises OutOfRange beyond the vertex's folding range."""
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
    fold is not finite.  The cone route runs over the lanes as arrays, with
    numpy for arithmetic and math for each cos, sin and atan2; collinear
    vertices and inputs at flat or beyond pi go through the scalar kernel
    one lane at a time.  Every kept fold equals the scalar kernel's bit for
    bit."""
    s = v.sectors
    a = input_crease % 4
    x = np.asarray(input_rho, dtype=float)
    folds = np.full((len(x), 2, 4), np.nan)
    hit = np.zeros(len(x), dtype=bool)
    mag = np.abs(x)
    cone = (mag >= 1e-14) & (mag <= math.pi) & (not _collinear(s, a))
    for i in np.flatnonzero(~cone).tolist():
        try:
            folds[i] = _branches(v, a, float(x[i]))
        except OutOfRange:
            continue
        hit[i] = True
    lanes = np.flatnonzero(cone)
    if len(lanes):
        xs = x[lanes].tolist()
        e = _cone_frame(s, a, np.array(list(map(math.cos, xs))),
                        np.array(list(map(math.sin, xs))))
        with np.errstate(divide="ignore", invalid="ignore"):
            cone_hit, w_plus, w_minus = _place_fourth_lanes(
                e[(a + 1) % 4], e[(a - 1) % 4],
                math.cos(s[(a + 1) % 4]), math.cos(s[(a + 2) % 4]))
            # both modes in one pass: lanes of mode +1, then of mode -1
            e[(a - 1) % 4] = tuple(np.tile(c, 2) if np.ndim(c) else c for c in e[(a - 1) % 4])
            e[(a + 2) % 4] = tuple(map(np.concatenate, zip(w_plus, w_minus)))
            both = np.stack(vertex_fold_angles(e, np.sqrt, _atan2_lanes), axis=1)
        folds[lanes] = both.reshape(2, len(lanes), 4).transpose(1, 0, 2)
        hit[lanes] = cone_hit
    plus, minus = folds[:, 0], folds[:, 1]
    keep = np.empty((len(x), 2), dtype=bool)
    keep[:, 0] = hit & np.isfinite(folds).all(axis=(1, 2))
    keep[:, 1] = keep[:, 0] & ~(np.abs(minus - plus) <= 1e-12 + 1e-5 * np.abs(plus)).all(axis=1)
    return folds, keep
