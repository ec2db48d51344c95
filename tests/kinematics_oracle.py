"""Reference degree-4 vertex kernel in numpy 3-vector arithmetic.

This is the construction `curvefold.kinematics` implements in plain float
arithmetic: the same spherical four-bar, built with `np.cross`,
`np.linalg.norm` and `np.allclose`.  Tests compare the library kernel
against it state by state, mode order included."""
import numpy as np

from curvefold.errors import OutOfRange

TAU = 2.0 * np.pi


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
