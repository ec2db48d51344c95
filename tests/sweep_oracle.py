"""Reference halt search: march, bisect, then replay the motion from flat.

This is the sweep `curvefold.foldsim.sweep_to_halt` must reproduce bit for
bit: a march on driving values pi * k / coarse (each step split so no
propagation moves the driving angle by more than pi / 128), a bisection
of the folding range's end when the march fails, a bisection of the first
event (a crease at pi - HALT_TOL or a panel clash), and a trajectory
re-propagated from flat through the returned samples.  It calls
`foldsim.propagate` and `foldsim.clash_test` through the module, so a test
that patches them patches this sweep too.  `stats`, when given, counts the
midpoints the two bisections evaluate under "bisections".

The halt search (`halt_search`) does not depend on the sample count, so a
caller that replays one pattern at several counts can search once and
`replay` each."""
import numpy as np

from curvefold import foldsim
from curvefold.errors import NoHalt, NotRigidFoldable, OutOfRange
from curvefold.foldsim import Trajectory, default_driving_crease
from curvefold.tolerances import HALT_TOL


def sweep_to_halt(pattern, samples=64, coarse=64, stats=None):
    d_halt = halt_search(pattern, coarse, stats)
    return replay(pattern, d_halt, samples)


def _simulate(pattern, d, prev):
    """The state at |driving| d from prev, in steps of at most pi / 128."""
    sgn = pattern.creases[default_driving_crease(pattern)].mv or 1
    max_step = np.pi / 128
    d0 = abs(prev.driving_rho) if prev is not None else 0.0
    if prev is not None and abs(d - d0) > max_step:
        steps = int(np.ceil(abs(d - d0) / max_step))
        st = prev
        for q in range(1, steps):
            st = foldsim.propagate(pattern, sgn * (d0 + (d - d0) * q / steps), prev=st)
        return foldsim.propagate(pattern, sgn * d, prev=st)
    return foldsim.propagate(pattern, sgn * d, prev=prev)


def _crease_metric(st):
    return float(np.abs(st.rho).max() - (np.pi - HALT_TOL))


def halt_search(pattern, coarse=64, stats=None):
    """The driving value of the halt: march, then bisect."""
    stats = {} if stats is None else stats
    stats.setdefault("bisections", 0)

    def simulate(d, prev):
        return _simulate(pattern, d, prev)

    flat = simulate(0.0, None)
    last_good, last_d = flat, 0.0
    event_lo, event_hi = None, None
    limit = None
    for k in range(1, coarse + 1):
        d = np.pi * k / coarse
        try:
            st = simulate(d, last_good)
        except (OutOfRange, NotRigidFoldable):
            limit = (last_d, d)
            break
        if _crease_metric(st) >= 0.0 or foldsim.clash_test(pattern, st):
            event_lo, event_hi = last_d, d
            break
        last_good, last_d = st, d
    if event_lo is None:
        if limit is None:
            raise NoHalt("driving reached pi with no crease at pi and no clash")
        lo, hi = limit
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            stats["bisections"] += 1
            try:
                st = simulate(mid, last_good)
            except (OutOfRange, NotRigidFoldable):
                hi = mid
                continue
            if _crease_metric(st) >= 0.0 or foldsim.clash_test(pattern, st):
                event_lo, event_hi = lo, mid
                break
            lo = mid
            last_good, last_d = st, mid
        if event_lo is None:
            raise NoHalt("folding range ends with no crease at pi and no clash")

    lo, hi = event_lo, event_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        stats["bisections"] += 1
        try:
            st = simulate(mid, last_good)
        except (OutOfRange, NotRigidFoldable):
            hi = mid
            continue
        if _crease_metric(st) >= 0.0 or foldsim.clash_test(pattern, st):
            hi = mid
        else:
            lo = mid
            last_good = st
    return hi


def replay(pattern, d_halt, samples=64):
    """The trajectory of `samples` states from flat to d_halt, each
    propagated from the one before."""
    values = np.linspace(0.0, d_halt, max(samples, 2))
    states, prevst = [], None
    for d in values:
        prevst = _simulate(pattern, d, prevst)
        states.append(prevst)
    halt = states[-1]
    halt.halted = True
    if foldsim.clash_test(pattern, halt) and _crease_metric(halt) < 0:
        halt.halt_reason = "panel-interpenetration"
    else:
        halt.halt_reason = "crease-at-pi"
    halt.residuals["halting_creases"] = [
        int(i) for i in np.nonzero(np.abs(halt.rho) >= np.pi - 10 * HALT_TOL)[0]]
    return Trajectory(states, values)
