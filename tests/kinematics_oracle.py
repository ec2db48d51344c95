"""Reference degree-4 vertex kernels.

`fold_from_beta` is the paper's closed form for the halting-family vertex
(a1, a2, pi-a2, pi-a1): its row-crease folds as functions of the space
angle between its row creases.  The tests check the kernel and the first
row vertex of the designer against it.

`degree4_propagate` and `propagate_both_modes` build the spherical
four-bar in numpy 3-vector arithmetic: the input crease along x, its
leading panel flat, the trailing panel rotated by the input fold, and the
opposite crease from the intersection of two cones, mode +1 on the + side.
Vertices with a straight crease line flanking the input crease take a
mirror construction.  The cone intersection loses about half the digits
near flat, so this kernel is the reference for the order of the modes,
not for their last digits.

`reference_modes` builds the same four-bar to 40 digits in mpmath, on the
vertex closed to exactly 2*pi, and is the reference for the values."""
import mpmath as mp
import numpy as np

from curvefold.errors import OutOfRange
from curvefold.kinematics import guarded_arccos

TAU = 2.0 * np.pi


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


def _unit(v):
    return v / np.linalg.norm(v)


def _arc(u, v):
    return float(np.arccos(np.clip(u @ v, -1.0, 1.0)))


def place_fourth(u, v, arc_u, arc_v, sign):
    c = float(u @ v)
    s2 = 1.0 - c * c
    if s2 < 1e-14:
        return None
    al = (np.cos(arc_u) - c * np.cos(arc_v)) / s2
    be = (np.cos(arc_v) - c * np.cos(arc_u)) / s2
    g2 = 1.0 - al * al - be * be - 2.0 * al * be * c
    if g2 < -1e-10:
        return None
    g = np.sqrt(max(g2, 0.0))
    n = _unit(np.cross(u, v))
    return al * u + be * v + sign * g * n


def vertex_fold_angles(dirs):
    N = [_unit(np.cross(dirs[j], dirs[(j + 1) % 4])) for j in range(4)]
    rho = []
    for j in range(4):
        n0, n1 = N[j - 1], N[j]
        rho.append(float(np.arctan2(np.cross(n0, n1) @ dirs[j], n0 @ n1)))
    return rho


def collinear_input_states(s, a, input_rho):
    o, f1, f2 = (a + 2) % 4, (a + 1) % 4, (a - 1) % 4
    mag = abs(input_rho)
    ea = np.array([1.0, 0.0, 0.0])
    yhat = np.array([0.0, 1.0, 0.0])
    zhat = np.array([0.0, 0.0, 1.0])
    states = []
    for ang in (mag / 2.0, np.pi - mag / 2.0):
        A = np.cos(s[a])
        B = np.sin(s[a]) * np.cos(ang)
        C = np.cos(s[f1])
        r0 = np.hypot(A, B)
        if r0 < 1e-14 or abs(C) > r0 * (1.0 + 1e-12):
            continue
        delta = np.arctan2(B, A)
        h = np.arccos(np.clip(C / r0, -1.0, 1.0))
        for xi in ((delta + h) % TAU, (delta - h) % TAU):
            if not (1e-9 < xi < np.pi - 1e-9):
                continue
            e = [None] * 4
            e[a] = ea
            e[o] = np.array([np.cos(xi), np.sin(xi), 0.0])
            for sgn1 in (1, -1):
                d1 = np.cos(ang) * yhat + sgn1 * np.sin(ang) * zhat
                w1 = np.cos(s[a]) * ea + np.sin(s[a]) * d1
                if abs(_arc(e[o], w1) - s[f1]) > 1e-8:
                    continue
                for sgn2 in (1, -1):
                    d2 = -np.cos(ang) * yhat + sgn2 * np.sin(ang) * zhat
                    w2 = np.cos(s[f2]) * ea + np.sin(s[f2]) * d2
                    if abs(_arc(e[o], w2) - s[o]) > 1e-8:
                        continue
                    e[f1], e[f2] = w1, w2
                    rho = vertex_fold_angles(e)
                    if abs(rho[a] - input_rho) < 1e-9:
                        if not any(np.allclose(rho, q, atol=1e-9) for q in states):
                            states.append(rho)
    states.sort(key=lambda q: -abs(q[o]))
    return states


def degree4_propagate(sectors, input_crease, input_rho, mode=+1):
    """Fold angles (R, U, L, D) as a list; raises OutOfRange."""
    if abs(input_rho) > np.pi:
        raise OutOfRange("beyond pi")
    if abs(input_rho) < 1e-14:
        return [0.0, 0.0, 0.0, 0.0]
    s = tuple(float(x) for x in sectors)
    a = input_crease % 4
    if abs(s[(a - 1) % 4] + s[a] - np.pi) < 1e-9:
        states = collinear_input_states(s, a, input_rho)
        if not states:
            raise OutOfRange("beyond the folding range")
        return list(states[0 if mode == +1 else min(1, len(states) - 1)])
    e = [None] * 4
    e[a] = np.array([1.0, 0.0, 0.0])
    sa, sprev = s[a], s[(a - 1) % 4]
    e[(a + 1) % 4] = np.array([np.cos(sa), np.sin(sa), 0.0])
    cp, sp = np.cos(sprev), np.sin(sprev)
    e[(a - 1) % 4] = np.array([cp, -sp * np.cos(input_rho), sp * np.sin(input_rho)])
    w = place_fourth(e[(a + 1) % 4], e[(a - 1) % 4], s[(a + 1) % 4], s[(a + 2) % 4], mode)
    if w is None:
        raise OutOfRange("beyond the folding range")
    e[(a + 2) % 4] = w
    return vertex_fold_angles(e)


def propagate_both_modes(sectors, input_crease, input_rho):
    out = []
    for mode in (+1, -1):
        try:
            rho = degree4_propagate(sectors, input_crease, input_rho, mode)
        except OutOfRange:
            continue
        if not any(np.allclose(rho, q, atol=1e-12) for q in out):
            out.append(rho)
    if not out:
        raise OutOfRange("beyond the folding range")
    return out


def close_vertex(sectors):
    """The vertex in mpmath, closed to exactly 2*pi: a sector whose float
    sum with an earlier one is pi to 1e-9 becomes pi minus that one (the
    collinear or flat-foldable partner float rounding took it from), and a
    vertex without two such pairs closes on its last sector."""
    s = [mp.mpf(x) for x in sectors]
    snapped = set()
    for i in range(4):
        for j in range(i + 1, 4):
            if j not in snapped and abs(sectors[i] + sectors[j] - np.pi) < 1e-9:
                s[j] = mp.pi - s[i]
                snapped.add(j)
    if len(snapped) < 2:
        s[3] = 2 * mp.pi - s[0] - s[1] - s[2]
    return s


def _mp_cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _mp_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _mp_unit(v):
    n = mp.sqrt(_mp_dot(v, v))
    return [x / n for x in v]


def reference_modes(sectors, input_crease, input_rho, dps=40):
    """Fold angles (R, U, L, D) of both branches, as lists of floats, from
    the two-cone construction in mpmath at `dps` digits: mode +1 (the
    branch whose opposite crease folds mountain) first, mode -1 dropped
    where it equals mode +1 as in the library.  Raises OutOfRange where
    the cones miss."""
    a = input_crease % 4
    with mp.workdps(dps):
        s = close_vertex(sectors)
        S1, S2, S3, S4 = (s[(a + i) % 4] for i in range(4))
        x = mp.mpf(input_rho)
        u = [mp.cos(S1), mp.sin(S1), mp.mpf(0)]
        v = [mp.cos(S4), -mp.sin(S4) * mp.cos(x), mp.sin(S4) * mp.sin(x)]
        c = _mp_dot(u, v)
        al = (mp.cos(S2) - c * mp.cos(S3)) / (1 - c * c)
        be = (mp.cos(S3) - c * mp.cos(S2)) / (1 - c * c)
        g2 = 1 - al * al - be * be - 2 * al * be * c
        if g2 < 0:
            raise OutOfRange("beyond the folding range")
        n = _mp_unit(_mp_cross(u, v))
        e = [None] * 4
        e[a] = [mp.mpf(1), mp.mpf(0), mp.mpf(0)]
        e[(a + 1) % 4], e[(a + 3) % 4] = u, v
        states = []
        for g in (mp.sqrt(g2), -mp.sqrt(g2)):
            e[(a + 2) % 4] = [al * u[i] + be * v[i] + g * n[i] for i in range(3)]
            N = [_mp_unit(_mp_cross(e[j], e[(j + 1) % 4])) for j in range(4)]
            states.append([float(mp.atan2(_mp_dot(_mp_cross(N[j - 1], N[j]), e[j]),
                                          _mp_dot(N[j - 1], N[j]))) for j in range(4)])
    states.sort(key=lambda q: q[(a + 2) % 4] > 0)
    if np.allclose(states[1], states[0], atol=1e-12):
        states.pop()
    return states
