"""Builtin sampled curves used by the demos and tests."""
import numpy as np

from .geometry import PolyCurve


def parabola(n=257):
    """f(t) = [t, t^2/4], t in [-2, 2]."""
    t = np.linspace(-2.0, 2.0, n)
    return PolyCurve(np.stack([t, t * t / 4.0], axis=1), t)


def space_arc(n=257):
    """Gamma(u) = [u + cos u, -2 u^2, sin u], u in [-1, 0.5]."""
    u = np.linspace(-1.0, 0.5, n)
    return PolyCurve(np.stack([u + np.cos(u), -2.0 * u * u, np.sin(u)], axis=1), u)


def exp_curve(n=257):
    """f(t) = [t, exp t], t in [0, 1]."""
    t = np.linspace(0.0, 1.0, n)
    return PolyCurve(np.stack([t, np.exp(t)], axis=1), t)


def sine_curve(n=257):
    """Gamma(u) = [u, sin u], u in [0, pi]."""
    u = np.linspace(0.0, np.pi, n)
    return PolyCurve(np.stack([u, np.sin(u)], axis=1), u)


def t_minus_ln(n=257):
    """f(t) = [t, t - ln t], t in [0.5, 1.5]."""
    t = np.linspace(0.5, 1.5, n)
    return PolyCurve(np.stack([t, t - np.log(t)], axis=1), t)


BUILTIN = {
    "fig3-parabola": parabola,
    "fig4-spiralish": space_arc,
    "fig5-exp": exp_curve,
    "fig7-sine": sine_curve,
    "fig7-tlnt": t_minus_ln,
}


def builtin(name, n=257):
    try:
        return BUILTIN[name](n)
    except KeyError:
        raise KeyError(f"unknown builtin curve {name!r}; have {sorted(BUILTIN)}")
