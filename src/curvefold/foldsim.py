"""1-DOF rigid folding simulation of quad-grid crease patterns.

What the grid fixes while the paper folds is built once per pattern and
kept in its one store, `CreasePattern.kept`: the panel placement
(`placement_order`), the `FoldPlan` (the crease that drives each vertex
and the vertex that wrote it), the vertex stacks, the placement's
constants and the clash test's triangles.  Folding angles follow the data
flow of a row-major sweep over the vertices, solved one group (one
dependency level, one input slot) at a time: one state solves a group's
vertices in floats, and lanes of states, (L,) arrays, in one kernel call,
with the same branch rule for both.  Panels are then placed one BFS depth
at a time, and every shared edge is checked for closure.

`sweep_to_halt` finds the smallest driving angle at which a crease reaches
pi (panel coincidence) or two panels interpenetrate, in phases over one
store of the states they make, `_Kept`: the flat state; `_march`, in
re-scored lane blocks, to a bracket of the halt; `_search`, from the halt
an inverse vertex chain predicts (`_chain_halt`), then by bisection; and
the samples, propagated as lanes.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import chain, groupby, takewhile

import numpy as np

from .errors import CreaseIntersection, NoHalt, NotRigidFoldable, OutOfRange
from .geometry import _PAIR_BLOCK
from .kinematics import VertexStack, propagate_both_modes
from .pattern import ROLE_BOUNDARY, CreasePattern, _vertex_table, sweep_pairs
from .tolerances import (BRANCH_TOL, CLASH_REL, CLOSURE_REL, COINCIDENT,
                         FOLD_CONSISTENCY, HALT_TOL, LENGTH_FLOOR, PARALLEL_SIN,
                         PREV_FLAT, SIGN_FLOOR, ZERO_AREA)

LANE_BLOCK = 64          # states propagated in one array pass per vertex
PLACE_BLOCK = 16         # of those, states placed at once: memory O(block x faces)
CHAIN_STATES = 8         # states the halt search tries at and beside the chain's halt
MARCH_STEPS = 128        # driving steps per pi: branch continuity needs modest steps
UNPLACEABLE = "faces wind against their neighbours: not every panel can be placed"


@dataclass
class FoldedState:
    driving_crease: int
    driving_rho: float
    rho: np.ndarray
    vertex_coords: np.ndarray
    halted: bool = False
    halt_reason: str = None
    residuals: dict = field(default_factory=dict)


@dataclass
class Trajectory:
    states: list
    driving_values: np.ndarray

    @property
    def halt(self):
        return self.states[-1]


def default_driving_crease(pattern: CreasePattern):
    """The crease that drives every fold: the row crease leaving inner
    vertex (1, 1), on the halting column 1, toward column 2."""
    return int(pattern.row_creases[1, 1])


def assign_fold_angles(pattern: CreasePattern, driving_rho, prev_rho=None):
    """Per-crease folding angles for one driving value.

    Branches are picked by closeness to prev_rho when given, else by the
    pattern's mountain/valley signs.  Raises OutOfRange beyond the folding
    range, and NotRigidFoldable on disagreement with already-assigned
    creases beyond FOLD_CONSISTENCY."""
    prev = np.zeros(len(pattern.creases)) if prev_rho is None else np.asarray(prev_rho, float)
    rho, worst, _, _ = _fold_levels(pattern, float(driving_rho), *_scoring(pattern, prev))
    worst = float(worst)
    if worst > FOLD_CONSISTENCY:
        raise NotRigidFoldable(
            f"fold-angle loop mismatch {worst:.3g} rad", residual=worst)
    return rho, worst


def placement_order(pattern: CreasePattern):
    """The rows (face, parent face, crease, fold sign) that place the panels
    from face 0, and the rows of each depth, of a breadth-first search over
    the interior creases in grid order, as `assemble_grid` numbers them, so
    a document's edge order changes nothing.  A crease folds the other way
    seen from its left face.  Raises CreaseIntersection if a face is missed."""
    grid = np.concatenate([pattern.row_creases.ravel(), pattern.col_creases.T.ravel()])
    adjacency = [[] for _ in range(pattern.faces[..., 0].size)]
    for idx, (fl, fr) in zip(grid.tolist(), pattern.crease_faces[grid].tolist()):
        if fl >= 0 and fr >= 0:
            adjacency[fl].append((fr, idx, -1))
            adjacency[fr].append((fl, idx, 1))
    rows, depths, level, placed = [], [], [0], {0}
    while level:
        start = len(rows)
        for parent in level:
            for face, idx, sign in adjacency[parent]:
                if face not in placed:
                    placed.add(face)
                    rows.append((face, parent, idx, sign))
        level = [face for face, *_ in rows[start:]]
        if level:
            depths.append(np.arange(start, len(rows)))
    if len(placed) < len(adjacency):
        raise CreaseIntersection(UNPLACEABLE)
    return np.array(rows, dtype=int).reshape(-1, 4), depths


class _Triangles:
    """The clash test's triangles, kept once per pattern: `ids` the vertex
    ids of the triangles (2 f, 2 f + 1) = (q0, q1, q2) and (q0, q2, q3) of
    each face f, and `apart` which pairs of them, on two faces, share no
    vertex."""

    def __init__(self, pattern):
        # face q > p can share a vertex with p only at the offsets 1, C - 1,
        # C and C + 1 after it, C faces to a row: `_slot` numbers them (4
        # past them), and `_apart[p, slot, k, l]` holds whether triangle k
        # of p and triangle l of q share no vertex id
        C = pattern.faces.shape[1]
        self.ids = pattern.faces.reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
        tri = self.ids.reshape(-1, 2, 3)
        offsets = [1, C - 1, C, C + 1]
        self._slot = np.full(C + 3, 4)
        self._slot[offsets] = np.arange(4)
        q = np.minimum(np.arange(len(tri))[:, None] + offsets, len(tri) - 1)   # (faces, 4)
        self._apart = np.ones((len(tri), 5, 2, 2), dtype=bool)
        self._apart[:, :4] = ~(tri[:, None, :, None, :, None]
                               == tri[q][:, :, None, :, None, :]).any(axis=(4, 5))

    def apart(self, p, q):
        """The triangle pairs (a, b), 2 f and 2 f + 1 of face f, of the face
        pairs p < q (index arrays, of stacked states) that share no vertex."""
        step = np.minimum(q - p, len(self._slot) - 1)
        r, kl = np.nonzero(self._apart[p % len(self._apart), self._slot[step]].reshape(-1, 4))
        return 2 * p[r] + (kl >> 1), 2 * q[r] + (kl & 1)


class FoldPlan:
    """The fold assignment's data flow from the driving crease, as the
    row-major vertex sweep has it.

    Each vertex is driven by its first crease in (R, U, L, D) order that an
    earlier vertex, or the driving value, has written: its input slot.  On
    a quad grid every vertex has one, so the sweep never meets a vertex
    with no known crease: R of (1, 1) is the driving crease, L along row 1
    the R of the vertex before it, and U below row 1 the D of the vertex
    above.  The vertices are ordered by level, the level of the vertex that
    wrote the input plus one (0 for the driving value; (k - 1) + (i - 1)
    at vertex (k, i)), then by input slot: `groups` (start, stop, slot,
    vertex ids) of that order are solved together.  Folds live in a buffer
    (4, N + 1) by (slot, position), per state, position N holding the
    driving value in slot 0 and zeros in the others; as rows of its
    (4 (N + 1),) view, `src` is each vertex's input, `pairs` each known
    slot with the row its value came from (its last writer before the
    vertex, row-major), `final` each crease's last writer and `cids`
    (4, N) the creases of each position."""

    def __init__(self, pattern):
        vcs = pattern.vertex_creases.reshape(-1, 4)
        # crease -> (vertex, slot) that wrote it last
        writer = {default_driving_crease(pattern): None}
        slot, level, sources = [], [], []
        for v, cids in enumerate(vcs.tolist()):
            known = [j for j, c in enumerate(cids) if c in writer]
            w = writer[cids[known[0]]]
            level.append(0 if w is None else level[w[0]] + 1)
            slot.append(known[0])
            sources.append([((v, j), writer[cids[j]]) for j in known])
            for j, c in enumerate(cids):
                writer[c] = (v, j)
        N = len(level)
        order = sorted(range(N), key=lambda v: (level[v], slot[v]))
        pos = {v: p for p, v in enumerate(order)}

        def row(ref):  # None: the driving value; (v, j): vertex v's slot j
            return N if ref is None else ref[1] * (N + 1) + pos[ref[0]]

        self.groups, p = [], 0
        for (_, j), vs in groupby(order, key=lambda v: (level[v], slot[v])):
            vs = list(vs)
            self.groups.append((p, p + len(vs), j, vs))
            p += len(vs)
        self.src = np.array([row(sources[v][0][1]) for v in order], dtype=int)
        self.pairs = np.array([(row(a), row(b)) for v in range(N) for a, b in sources[v]],
                              dtype=int).reshape(-1, 2).T
        self.final = np.array([row(writer[c]) if c in writer else 2 * N + 1
                               for c in range(len(pattern.creases))], dtype=int)
        self.cids = vcs[order].T


def _branch(modes, two, prev, signs):
    """The branch rule of one vertex, on one state or on lanes: mode -1
    replaces mode +1 only where it is a branch of its own and scores
    strictly better, by more folds with the sign of `signs` (the M/V signs
    where the previous state counts as flat, 0 elsewhere) by more than
    SIGN_FLOOR, then by a smaller squared distance to `prev` (0 where the
    previous state counts as flat, so the squared norm).  modes: (plus,
    minus), four floats each, or lanes' (2, 4, ...) array; prev and signs
    hold the vertex's four creases.

    Sign agreement comes first: near flat it breaks ties toward the state
    continuous with flat (other branches through the flat configuration
    carry large folds at tiny driving).  Squared distances are products
    summed left to right: a float's x ** 2 is libm's pow, which does not
    always round as x * x and numpy's x ** 2 do."""
    if isinstance(modes, np.ndarray):       # both modes scored in one pass
        mp, mm = (modes * signs > SIGN_FLOOR).sum(axis=1)
        d = modes - prev
        d *= d
        dp, dm = d[:, 0] + d[:, 1] + d[:, 2] + d[:, 3]
        return np.where(two & ((mm > mp) | ((mm == mp) & (dm < dp))), modes[1], modes[0])
    if not two:
        return modes[0]
    p0, p1, p2, p3 = prev
    s0, s1, s2, s3 = signs
    scores = []
    for x0, x1, x2, x3 in modes:
        d0, d1, d2, d3 = x0 - p0, x1 - p1, x2 - p2, x3 - p3
        scores.append((sum([x0 * s0 > SIGN_FLOOR, x1 * s1 > SIGN_FLOOR,
                            x2 * s2 > SIGN_FLOOR, x3 * s3 > SIGN_FLOOR]),
                       d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3))
    (mp, dp), (mm, dm) = scores
    return modes[1] if mm > mp or (mm == mp and dm < dp) else modes[0]


def _stacks(pattern: CreasePattern):
    """The VertexStack, which caches its terms, of each FoldPlan group."""
    plan, verts = pattern.kept(FoldPlan, _vertex_table)
    return [VertexStack([verts[v] for v in g[3]]) for g in plan.groups]


def _fold_levels(pattern: CreasePattern, driving_rho, prev, signs):
    """The fold assignment over the groups of the pattern's FoldPlan,
    level by level: each vertex is solved once, from its input slot, and
    mode -1 replaces mode +1 by `_branch`.  One state (a float driving_rho)
    solves a group's vertices one at a time in floats, lanes (an (L,)
    array) in one kernel call; prev and signs hold per crease a float or
    an (L,) array each, (E,) or (E, L).

    Returns the folds, (E,) or (L, E), the largest disagreement of a
    vertex's folds with the creases written before it (ignoring NaN, the
    folds of a lane with no branch), whether each lane had a branch at
    every vertex, and for `_rescored` the lanes' modes (2, 4, N, L), `two`
    and the folds they chose, or None on one state.  Raises OutOfRange
    once no state has a branch, and CreaseIntersection before any fold
    where the panels cannot all be placed."""
    lanes = isinstance(driving_rho, np.ndarray)
    # what each kernel call solves: a vertex, or on lanes a group's stack
    _, plan, solved = pattern.kept(placement_order, FoldPlan, _stacks if lanes else _vertex_table)
    N = len(plan.src)
    P, S = np.asarray(prev)[plan.cids], np.asarray(signs)[plan.cids]
    if lanes:
        L = len(driving_rho)
        buf = np.zeros((4, N + 1, L))
        rows = buf.reshape(-1, L)
        modes, two = np.empty((2, 4, N, L)), np.empty((N, L), dtype=bool)
    else:
        rows = [0.0] * (4 * (N + 1))
        P, S, src = P.T.tolist(), S.T.tolist(), plan.src.tolist()
    rows[N] = driving_rho
    ok = True
    for g, (a, b, j, vs) in enumerate(plan.groups):
        if lanes:
            hit, modes[0, :, a:b], modes[1, :, a:b], two[a:b] = propagate_both_modes(
                solved[g], j, rows[plan.src[a:b]])
            buf[:, a:b] = _branch(modes[:, :, a:b], two[a:b], P[:, a:b], S[:, a:b])
            ok = ok & hit.all(axis=0)
        else:
            for p, v in enumerate(vs, a):
                h, *pm, tw = propagate_both_modes(solved[v], j, rows[src[p]])
                rows[p::N + 1] = _branch(pm, tw, P[p], S[p])
                ok = ok and h
        if not (ok.any() if lanes else ok):
            raise OutOfRange("configuration beyond the vertex folding range")
    rows = np.asarray(rows)
    gap = np.abs(rows[plan.pairs[0]] - rows[plan.pairs[1]])
    return (rows[plan.final].T, np.fmax.reduce(gap, axis=0, initial=0.0), ok,
            (modes, two, buf[:, :N]) if lanes else None)


def _frames(pattern: CreasePattern):
    """The constants of `place_panels`: per hinge its point, K and K @ K of
    its unit axis; the depths' steps (face, parent, rows) by position in
    placement order, face 0 first; the flat corners in that order; per
    interior crease its two faces' positions and its ends' rows (4 position
    + corner) among their corners; and per vertex its count and corner
    rows as `np.add.at` visits them, padded."""
    placement, depths = pattern.kept(placement_order)
    face, parent, idx, sign = placement.T
    pts = np.pad(np.asarray(pattern.vertices, dtype=float), ((0, 0), (0, 1)))
    p, q = pts[pattern.crease_ends()[idx].T]
    a = (q - p) / np.linalg.norm(q - p, axis=1)[:, None]
    K = np.zeros((len(a), 3, 3))
    K.reshape(-1, 9)[:, [1, 2, 3, 5, 6, 7]] = a[:, [2, 1, 2, 0, 1, 0]] * [-1, 1, 1, -1, -1, 1]
    corners, order = pattern.faces.reshape(-1, 4), np.concatenate([[0], face])
    at, quads = np.argsort(order), corners[order]
    v = quads.ravel()
    by, counts = np.argsort(v, kind="stable"), np.bincount(v, minlength=len(pts))
    table = np.full((len(pts), counts.max()), len(v))      # row 4 F: the zero row
    table[v[by], np.arange(len(v)) - np.searchsorted(v[by], v[by])] = by
    steps = [(r + 1, at[parent[r]], r) for r in depths]
    fl, fr = pattern.crease_faces.T
    inner = np.flatnonzero((fl >= 0) & (fr >= 0))
    ends = pattern.crease_ends()[inner, :, None]
    hinges = [(at[f], 4 * at[f, None] + (corners[f, None] == ends).argmax(axis=2))
              for f in (fl[inner], fr[inner])]
    return (p, K, K @ K, sign[:, None], idx, steps, pts[quads], hinges, quads, table.T,
            counts[:, None, None], max(pattern.diameter, LENGTH_FLOOR))


def place_panels(pattern: CreasePattern, rho):
    """Rigid placement of every panel along the pattern's placement order,
    from face 0 (top left) fixed in the plane z = 0.  The hinge rotations
    are composed one BFS depth of the placement at a time.  Each corner q
    is turned once, R q, for both its place R q + t and the closure of the
    creases it ends, ((R_l q + t_l) - R_r q) - t_r.  A call computes only
    what the folds move: the pattern's constants (`_frames`) broadcast over
    the lanes, and each vertex sums its corners as `np.add.at` would.

    rho holds one state's fold angles (E,) or one state per row (L, E);
    returns (vertex_coords, residuals), and for rows of lanes the
    coordinates (L, V, 3) and one residual dict per lane.  A lane's
    arithmetic is the same as a lone state's, so its bits do not depend on
    the lanes beside it.  Temporaries go once dead: 16 lanes of 9 x 9 take 0.62 MB."""
    rho = np.asarray(rho, dtype=float)
    lanes = rho.reshape(-1, rho.shape[-1])
    L = len(lanes)
    p, K, KK, sign, idx, steps, corners, hinges, quads, table, counts, diam = pattern.kept(_frames)
    # hinge frames: rotation H about the crease line through p maps x to
    # H x + (p - H p); rows run over (hinge, lane)
    a = (sign * lanes[:, idx].T).reshape(len(idx), L, 1, 1)
    H = np.eye(3) + np.sin(a) * K[:, None] + (1.0 - np.cos(a)) * KK[:, None]
    shift = p[:, None] - np.einsum("nlij,nj->nli", H, p)
    R, t = np.empty((len(corners), L, 3, 3)), np.empty((len(corners), L, 3))
    R[0], t[0] = np.eye(3), 0.0
    for f, par, rows in steps:
        Rp = R[par]
        R[f] = Rp @ H[rows]
        t[f] = (Rp @ shift[rows, :, :, None])[..., 0] + t[par]
    del H, shift

    # every corner turned, as rows (4 position + corner, L, 3), then a zero row
    placed = np.zeros((4 * len(R) + 1, L, 3))
    turned = np.einsum("flij,fkj->fkli", R, corners, out=placed[:-1].reshape(len(R), 4, L, 3))
    del R
    # closure on every interior shared edge: both faces place its ends alike
    (fl, cl), (fr, cr) = hinges
    gap = ((placed[cl] + t[fl, None]) - placed[cr]) - t[fr, None]      # (n, 2, L, 3)
    closure = np.sqrt(_dot(gap.T, gap.T)).max(axis=(1, 2), initial=0.0) / diam
    del gap

    turned += t[:, None]                                                # R q + t
    coords = np.zeros((len(counts), L, 3))
    for rows in table:
        coords += placed[rows]
    coords /= counts
    off = turned - coords[quads]
    spread = np.sqrt(_dot(off.T, off.T)).max(axis=(1, 2)) / diam
    coords = coords.transpose(1, 0, 2)
    residuals = [{"closure": c, "vertex_spread": v}
                 for c, v in zip(closure.tolist(), spread.tolist())]
    if rho.ndim == 1:
        return coords[0], residuals[0]
    return coords, residuals


def bootstrap_mv(pattern: CreasePattern, d0=0.02):
    """Mountain/valley assignment from one walk over the groups of the
    pattern's FoldPlan at the driving value d0.  Each vertex is solved once
    from its input slot and takes the first of its modes, fully folding ones
    (the fewest folds under SIGN_FLOOR) first, then the smaller norm, that
    agrees within BRANCH_TOL with every crease written before it.  The walk
    never backs up: a vertex with no such mode, or beyond its folding range,
    raises NotRigidFoldable.  Returns the signed fold angles at d0."""
    plan, verts = pattern.kept(FoldPlan, _vertex_table)
    N, src = len(plan.src), plan.src.tolist()
    before = [[] for _ in range(N)]     # per position: (slot, row written before it)
    for a, b in plan.pairs.T.tolist():
        before[a % (N + 1)].append((a // (N + 1), b))
    rows = [0.0] * (4 * (N + 1))
    rows[N] = d0
    for a, _, j, vs in plan.groups:
        for p, v in enumerate(vs, a):
            ok, plus, minus, two = propagate_both_modes(verts[v], j, rows[src[p]])
            agree = [m for m in ([plus, minus] if two else [plus])
                     if ok and all(abs(m[k] - rows[w]) < BRANCH_TOL for k, w in before[p])]
            if not agree:
                raise NotRigidFoldable(f"vertex ({v // pattern.cols + 1},{v % pattern.cols + 1}): "
                                       "no branch near flat agrees with the creases before it")
            rows[p::N + 1] = agree[0] if len(agree) == 1 else min(
                agree, key=lambda r: (sum(1 for x in r if abs(x) < SIGN_FLOOR),
                                      float(np.linalg.norm(r))))
    rho = np.array(rows)[plan.final]
    pattern.creases.mv = (pattern.creases.role != ROLE_BOUNDARY) * np.where(rho >= 0, 1, -1)
    return rho


def propagate(pattern: CreasePattern, driving_rho, prev=None, driving_crease=None):
    """Folded state at one driving angle of `default_driving_crease`.

    prev: optional previous FoldedState for branch continuity.
    driving_crease is kept for callers that name the crease: it must be
    None or the pattern's own driving crease, and any other crease raises
    ValueError."""
    dc = default_driving_crease(pattern)
    if driving_crease not in (None, dc):
        raise ValueError(f"crease {driving_crease} does not drive the pattern: "
                         f"every fold is driven from crease {dc}")
    if abs(driving_rho) > np.pi:
        raise OutOfRange("driving angle beyond pi")
    prev_rho = prev.rho if prev is not None else None
    rho, mismatch = assign_fold_angles(pattern, driving_rho, prev_rho)
    coords, residuals = place_panels(pattern, rho)
    closure = residuals["closure"]
    if closure > CLOSURE_REL:
        raise NotRigidFoldable(f"panel loop closure {closure:.3g} x diameter",
                               residual=closure)
    residuals["fold_mismatch"] = mismatch
    return FoldedState(dc, driving_rho, rho, coords, residuals=residuals)


def propagate_lanes(pattern: CreasePattern, driving_rho, prevs):
    """Folded states at several driving angles, each from its own previous
    state: lane k equals propagate(pattern, driving_rho[k], prevs[k]) bit
    for bit, or is None where that call raises OutOfRange or
    NotRigidFoldable (or meets a fold that is not finite).

    The lanes share one array pass per vertex and are placed PLACE_BLOCK
    at a time.  One lane goes through `propagate` itself, as every state
    of the halt search does: the scalar kernel is faster there."""
    if len(driving_rho) == 1:
        try:
            return [propagate(pattern, driving_rho[0], prev=prevs[0])]
        except (OutOfRange, NotRigidFoldable):
            return [None]
    out = [None] * len(driving_rho)
    folded = _fold_lanes(pattern, driving_rho, np.array([p.rho for p in prevs]))
    if folded is not None:
        rho, mismatch, ok, _ = folded
        for k, st in chain(*_placed(pattern, driving_rho, rho, mismatch, np.flatnonzero(ok))):
            out[k] = st
    return out


def _scoring(pattern: CreasePattern, prev):
    """prev, one state (E,) or lanes (L, E), as the branch rule scores
    against it and the signs it scores by, both (E,) or (E, L)."""
    flat = np.abs(prev).max(axis=-1, keepdims=True) < PREV_FLAT
    signs = pattern.creases.mv * flat
    return np.where(flat, 0.0, prev).T, signs.T


def _chain_halt(pattern: CreasePattern, prev):
    """The driving value (with the driving crease's M/V sign, as
    `sweep_to_halt` counts it) at which a halting crease, a left row stub
    of column 1, reaches pi - HALT_TOL, walked back from that crease: the
    degree-4 relation can be solved from any crease of a vertex.  Each stub,
    folded by its M/V sign to pi - HALT_TOL, solves the vertex that wrote it
    last in the FoldPlan; `_branch`, scored against prev (E,) as the fold
    assignment scores, picks the mode, whose fold on the vertex's input
    slot solves the vertex that wrote that slot, up to the driving value.
    Returns the smallest positive value over the stubs, None if none has
    one."""
    plan, verts = pattern.kept(FoldPlan, _vertex_table)
    N, src = len(plan.src), plan.src.tolist()
    sgn = int(pattern.creases.mv[default_driving_crease(pattern)]) or 1
    P, S = (a[plan.cids].T.tolist() for a in _scoring(pattern, prev))
    vs, ins = zip(*[(v, j) for _, _, j, g in plan.groups for v in g])
    found = []
    for c in pattern.row_creases[1:pattern.rows + 1, 0].tolist():
        row, x = int(plan.final[c]), int(pattern.creases.mv[c]) * (np.pi - HALT_TOL)
        while row != N:
            j, p = divmod(row, N + 1)
            ok, plus, minus, two = propagate_both_modes(verts[vs[p]], j, x)
            if not ok:
                break
            x, row = _branch((plus, minus), two, P[p], S[p])[ins[p]], src[p]
        else:
            found.append(sgn * x)
    return min((d for d in found if d > 0), default=None)


def _fold_lanes(pattern: CreasePattern, driving_rho, prev):
    """The folds (L, E) of the lanes driving_rho (L,), each scored against
    its row of prev (L, E) as `assign_fold_angles` scores one state, their
    mismatches (L,), the lanes `propagate` would not reject before placing
    them and the modes (`_fold_levels`); None where no lane has a branch."""
    try:
        rho, mismatch, ok, modes = _fold_levels(
            pattern, np.asarray(driving_rho, dtype=float), *_scoring(pattern, prev))
    except (OutOfRange, NotRigidFoldable):
        return None
    return rho, mismatch, ok & (mismatch <= FOLD_CONSISTENCY), modes


def _rescored(pattern: CreasePattern, modes, prev):
    """Whether each lane of a `_fold_lanes` pass picks the same bits at
    every vertex when scored against prev (L, E): then it is the pass from
    prev, folds, mismatch and failure alike, since prev reaches only the
    branch rule and a vertex's modes only its input fold."""
    modes, two, chosen = modes
    cids = pattern.kept(FoldPlan).cids
    P, S = (a[cids] for a in _scoring(pattern, prev))
    again = _branch(modes, two, P, S).view(np.uint64)
    return (again == chosen.view(np.uint64)).all(axis=(0, 1))


def _placed(pattern: CreasePattern, driving_rho, rho, mismatch, lanes):
    """(k, state) for the lanes k in order, in chunks of PLACE_BLOCK placed
    as they are asked for: the FoldedState that `propagate` makes from
    rho[k], or None where the closure exceeds CLOSURE_REL."""
    dc = default_driving_crease(pattern)
    for b in range(0, len(lanes), PLACE_BLOCK):
        block = lanes[b:b + PLACE_BLOCK]
        coords, residuals = place_panels(pattern, rho[block])
        chunk = []
        for k, xyz, res in zip(block.tolist(), coords, residuals):
            st = None
            if not res["closure"] > CLOSURE_REL:
                res["fold_mismatch"] = float(mismatch[k])
                st = FoldedState(dc, driving_rho[k], rho[k].copy(), xyz.copy(),
                                 residuals=res)
            chunk.append((k, st))
        yield chunk


def _dot(u, v):
    """Dot products over the first axis of 3-vectors, summed left to right
    as a scalar dot product is."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _unit_normals(T):
    """Unit normals (3, n) of the triangles T (axis, vertex, n), from e1 x
    e2, NaN at (near) zero area.  np.cross computes each component as one
    difference of two products, as a scalar cross product does."""
    nrm = np.cross(T[:, 1] - T[:, 0], T[:, 2] - T[:, 0], axis=0)
    nn = np.sqrt(_dot(nrm, nrm))
    with np.errstate(divide="ignore", invalid="ignore"):
        N = nrm / nn
    N[:, nn < ZERO_AREA] = np.nan
    return N


def _off_plane(d, tol):
    """Signed distances d (3, P) wholly on one side of a plane."""
    return (d > tol).all(axis=0) | (d < -tol).all(axis=0)


def _coplanar_overlap(A, B, NB, tol):
    """Proper 2-D overlap of coplanar triangle pairs (A, B), rows (P, 3, 3),
    projected along the largest component of B's normals NB: a vertex of
    one lands strictly inside the other, or an edge of one crosses an edge
    of the other strictly, each by more than tol, so contact along shared
    lines does not count."""
    k = np.argmax(np.abs(NB), axis=1)
    xy = np.array([[1, 2], [0, 2], [0, 1]])[k][:, None, :]
    A = np.take_along_axis(A, xy, axis=2)                     # (P, 3, 2)
    B = np.take_along_axis(B, xy, axis=2)

    def orient(u, v, p):
        # cross product of the edge u -> v with the point p
        return ((v[..., 0] - u[..., 0]) * (p[..., 1] - u[..., 1])
                - (v[..., 1] - u[..., 1]) * (p[..., 0] - u[..., 0]))

    def inside(p, tri):
        # each point against each edge u -> v of tri, (P, 3, 3)
        cr = orient(tri[:, None, :], np.roll(tri, -1, axis=1)[:, None, :], p[:, :, None])
        return (cr * cr[..., :1] > tol * tol).all(axis=2).any(axis=1)

    a0, a1 = A[:, :, None], np.roll(A, -1, axis=1)[:, :, None]    # edges of A, (P, 3, 1, 2)
    b0, b1 = B[:, None], np.roll(B, -1, axis=1)[:, None]          # edges of B, (P, 1, 3, 2)
    crossing = ((orient(b0, b1, a0) * orient(b0, b1, a1) < -tol * tol)
                & (orient(a0, a1, b0) * orient(a0, a1, b1) < -tol * tol)).any(axis=(1, 2))
    return inside(A, B) | inside(B, A) | crossing


def _line_overlap(A, B, NA, NB, d1, d2, tol):
    """Overlap by more than tol of the intervals where the triangle pairs
    (A, B), normals (NA, NB), cross the line the two planes meet in; d1 and
    d2 (vertex, P) are the signed distances of each triangle's vertices
    from the other's plane.  Planes closer to parallel than PARALLEL_SIN do
    not meet."""
    line = np.cross(NA, NB, axis=0)
    ln = np.sqrt(_dot(line, line))
    with np.errstate(divide="ignore", invalid="ignore"):
        line = line / ln
        ends = []
        for tri, d in ((A, d1), (B, d2)):
            # each edge i -> j crossing the plane gives a point, and so
            # does each vertex i on it
            proj = _dot(tri, line[:, None])
            dj, pj = d[[1, 2, 0]], proj[[1, 2, 0]]
            cross = d * dj < 0.0
            on = cross | (d == 0.0)
            pts = np.where(cross, proj + d / (d - dj) * (pj - proj), proj)
            ends.append((np.where(on, pts, np.inf).min(axis=0),
                         np.where(on, pts, -np.inf).max(axis=0)))
    (lo1, hi1), (lo2, hi2) = ends
    return (ln >= PARALLEL_SIN) & (np.minimum(hi1, hi2) - np.maximum(lo1, lo2) > tol)


def _penetrates(T, N, ia, ib, tol):
    """Exact test of the triangle pairs (ia, ib) of T (axis, vertex, n),
    normals N (3, n), as a bool array: rejected when a triangle has zero
    area (NaN in N) or lies more than tol off the other's plane on one
    side; coplanar pairs (every vertex of one within tol of the other's
    plane) by their 2-D overlap; the others by the overlap of their
    intervals on the planes' line.  A is tested against B's plane first,
    and B against A's only where that leaves the pair."""
    def pick(k, *xs):  # np.take keeps the pairs last in memory, a fancy index does not
        return [np.take(x, k, axis=-1) for x in xs]

    out = np.zeros(len(ia), dtype=bool)
    (A,), (B0, NB) = pick(ia, T), pick(ib, T[:, 0], N)
    d1 = _dot(A - B0[:, None], NB[:, None])
    k = np.flatnonzero(~(np.isnan(NB[0]) | _off_plane(d1, tol)))
    (A, NB, d1), (B,), (NA,) = pick(k, A, NB, d1), pick(ib[k], T), pick(ia[k], N)
    d2 = _dot(B - A[:, :1], NA[:, None])
    live = ~(np.isnan(NA[0]) | _off_plane(d2, tol))
    flat = (np.abs(d1) <= tol).all(axis=0) | (np.abs(d2) <= tol).all(axis=0)
    c, s = np.flatnonzero(live & flat), np.flatnonzero(live & ~flat)
    if len(c):
        out[k[c]] = _coplanar_overlap(*(x.T for x in pick(c, A, B, NB)), tol)
    out[k[s]] = _line_overlap(*pick(s, A, B, NA, NB, d1, d2), tol)
    return out


def clash_test(pattern: CreasePattern, state: FoldedState):
    """Interpenetrating panel pairs (triangulated along a diagonal), as
    sorted pairs of face numbers: `_clashes` on the one state.

    Panels sharing a crease are reported only when that crease has folded
    to within COINCIDENT of pi (coincident panels); other vertex-sharing
    pairs are hinge contact by design.  Distinct pairs must interpenetrate
    by more than CLASH_REL x diameter; the same threshold treats
    near-coplanar overlap as the coincidence case."""
    return _clashes(pattern, [state])[0]


def _clashes(pattern: CreasePattern, states):
    """`clash_test` of each state, in one batch.  One x-interval sweep over
    the panels of every state, a run per state, lists panel pairs in
    blocks of _PAIR_BLOCK // 4 that a y/z box test thins.  A triangle's box
    lies in its panel's, so the triangle pairs that share no vertex of as
    many panel pairs, put through the triangle box test and the x-sweep's
    own test, are those a triangle x-sweep per state leaves."""
    tol = CLASH_REL * pattern.diameter
    fa, fb = np.sort(pattern.crease_faces, axis=1).T  # fa < fb, fa -1 on the boundary
    triangles = pattern.kept(_Triangles)
    n = len(triangles.ids)
    T = np.array([st.vertex_coords for st in states], dtype=float)[:, triangles.ids]
    T = np.ascontiguousarray(T.transpose(3, 2, 0, 1)).reshape(3, 3, -1)  # (axis, vertex, S n)

    def box_test(lo, hi, axes, *extra):
        # per axis lo[b] <= hi[a] + tol and -hi[b] <= -(lo[a] - tol) as the
        # columns of b's rows and a's rows, negation being exact
        cols = [(lo[k], hi[k] + tol) for k in axes] + [(-hi[k], tol - lo[k]) for k in axes]
        return [np.stack(c, axis=1) for c in zip(*cols, *extra)]

    def meets(a, b, box):
        # the w = 4 or 8 tests of a pair a < b read as one word (.all is slower)
        le = np.take(box[0], b, axis=0) <= np.take(box[1], a, axis=0)
        return le.view(f"u{le.shape[1]}")[:, 0] == int.from_bytes(b"\1" * le.shape[1], "little")

    lo, hi = T.min(axis=1), T.max(axis=1)
    # on x with the x-sweep's own test, lo[a] <= hi[b] + tol, which rounds
    # apart from the box test's; it comes twice to fill a word
    tris = box_test(lo, hi, (1, 2)), box_test(lo, hi, (0,), *[(-hi[0] - tol, -lo[0])] * 2)
    # a panel's box spans its two triangles' boxes
    lo, hi = np.minimum(lo[:, 0::2], lo[:, 1::2]), np.maximum(hi[:, 0::2], hi[:, 1::2])
    panels = box_test(lo, hi, (1, 2))
    N = _unit_normals(T)
    hits = [set(zip(fa[f].tolist(), fb[f].tolist())) for f in
            (fa >= 0) & (np.abs([st.rho for st in states]) >= np.pi - COINCIDENT)]
    block = _PAIR_BLOCK // 4
    held = []  # the panel pairs (p, q), p < q, near on y and z and not yet tested

    def flush(least):
        if sum(len(p) for p, _ in held) < least:
            return
        # the triangle pairs that share a vertex are hinge contact
        a, b = triangles.apart(*(np.concatenate(x) for x in zip(*held)))
        held.clear()
        for box in tris:
            keep = meets(a, b, box)
            a, b = a[keep], b[keep]
        if len(a):
            hit = _penetrates(T, N, a, b, tol)
            for a, b in zip(a[hit].tolist(), b[hit].tolist()):
                hits[a // n].add(((a % n) >> 1, (b % n) >> 1))

    for i, j in sweep_pairs(lo[0], hi[0], tol, block, len(states)):
        p, q = np.minimum(i, j), np.maximum(i, j)
        near = meets(p, q, panels)
        held.append((p[near], q[near]))
        flush(block)
    flush(1)
    return [sorted(h) for h in hits]


class _Kept:
    """The states a sweep has propagated, by driving value d (the driving
    crease driven with its M/V sign, `sgn`).  A state depends only on its
    driving value and branch choices (`prev` only scores branches), so each
    new one starts from the nearest kept state at or below it: this changes
    no bit while the branches agree."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.sgn = int(pattern.creases.mv[default_driving_crease(pattern)]) or 1
        self.keys, self.at = [], {}     # the values kept, sorted, and their states

    def below(self, d):
        """The state kept at the largest value at or below d, None if none."""
        i = bisect.bisect_right(self.keys, d)
        return self.at[self.keys[i - 1]] if i else None

    def add(self, d, st):
        bisect.insort(self.keys, d)
        self.at[d] = st

    def states_at(self, ds):
        """The states at ds in order, None where propagate raises: each value
        not yet kept is propagated, and kept, from the nearest state kept at
        or below it when the call starts, in lanes of `propagate_lanes`,
        LANE_BLOCK at a time, which equal `propagate` bit for bit."""
        new = [d for d in dict.fromkeys(ds) if d not in self.at]
        prevs = [self.below(d) for d in new]
        for b in range(0, len(new), LANE_BLOCK):
            block = new[b:b + LANE_BLOCK]
            got = propagate_lanes(self.pattern, [self.sgn * d for d in block],
                                  prevs[b:b + LANE_BLOCK])
            for d, st in zip(block, got):
                if st is not None:
                    self.add(d, st)
        return [self.at.get(d) for d in ds]

    def raising(self, ds):
        """states_at(ds), raising the error of the first state that fails."""
        states = self.states_at(ds)
        for d, st in zip(ds, states):
            if st is None:
                propagate(self.pattern, self.sgn * d, prev=self.below(d))
        return states

    def event(self, st):
        """Whether a state halts the sweep: a crease at pi or a clash."""
        return _at_pi(st) or bool(_clashes(self.pattern, [st])[0])


def _at_pi(st):
    return float(np.abs(st.rho).max()) >= np.pi - HALT_TOL


def _march(kept, stop):
    """(lo, hi, found): the march from flat in steps of pi / MARCH_STEPS,
    tested for the halt every second step, to its first event (found) or
    failure at hi, lo its last even step before, with no event.

    It guesses up to LANE_BLOCK steps at a time in one lane pass, scored as
    from flat, and re-scores it (`_rescored`), lane 0 against the last kept
    state and lane k against guess k - 1: the lanes before the first that
    picks otherwise, up to the first failure, a failing one included, are
    the march's states bit for bit, and from that lane on it goes one state
    at a time.  A block ends at step `stop` while it lies ahead, and the
    march goes on in full blocks if no event comes by then.  Each
    PLACE_BLOCK of exact lanes is placed at once, and its even steps before
    a failure or a crease at pi clash-tested in one batch (`_clashes`), the
    events still taken in order.  Raises NoHalt where no step halts."""
    pattern, lo, j, guessing = kept.pattern, 0.0, 1, True
    while j <= MARCH_STEPS:
        end = min(j + LANE_BLOCK - 1, stop if j <= stop else MARCH_STEPS) if guessing else j
        ds = [np.pi * i / MARCH_STEPS for i in range(j, end + 1)]
        driving = [kept.sgn * d for d in ds]
        guess = guessing and _fold_lanes(pattern, driving,
                                         np.zeros((len(ds), len(pattern.creases))))
        if guess:
            rho, mismatch, ok, modes = guess
            exact = _rescored(pattern, modes, np.vstack([kept.below(ds[0]).rho, rho[:-1]]))
            del guess, modes  # not needed past the re-score: freed before placing
            # a lane after the first failure is scored against no state
            m = len(ds) if ok.all() else int(ok.argmin()) + 1
            n = m if exact[:m].all() else int(exact.argmin())
            guessing = n == len(ds)
            # a lane out of range ends the march as a failed placement does
            chunks = chain(_placed(pattern, driving, rho, mismatch, np.flatnonzero(ok[:n])),
                           [[(n - 1, None)]] if n and not ok[n - 1] else [])
        else:  # no guess, or none left: one state, as propagate decides it
            n, guessing = 1, False
            chunks = [[(0, propagate_lanes(pattern, driving[:1], [kept.below(ds[0])])[0])]]
        for chunk in chunks:
            live = takewhile(lambda c: c[1] is not None and not _at_pi(c[1]), chunk)
            even = {k: st for k, st in live if (j + k) % 2 == 0}
            clashing = dict(zip(even, _clashes(pattern, list(even.values())))) if even else {}
            for k, st in chunk:
                if st is None:
                    return lo, ds[k], False
                kept.add(ds[k], st)
                if (j + k) % 2 == 0:
                    if bool(clashing[k]) if k in clashing else kept.event(st):
                        return lo, ds[k], True
                    lo = ds[k]
        j += n
    raise NoHalt("driving reached pi with no crease at pi and no clash")


def _search(kept, lo, hi, found):
    """The halt: hi once the march's bracket closes, lo with no event and hi
    a failure or an event (found).  It tests the chain's halt d, scored
    against the state at lo, then 1, 3, 7, ... ulps from d on the side that
    test points to, while they land in (lo, hi), up to CHAIN_STATES states;
    then it bisects, and stops when the midpoint of lo and hi is one of
    them.  Raises NoHalt where hi is no event."""
    d = _chain_halt(kept.pattern, kept.below(lo).rho)
    k = 0 if d is not None else CHAIN_STATES
    while lo < 0.5 * (lo + hi) < hi:  # else float resolution: nothing can move lo or hi
        x = 0.5 * (lo + hi)
        if k < CHAIN_STATES:
            g = d + math.copysign((2 ** k - 1) * math.ulp(d), lo - d)
            x, k = (g, k + 1) if lo < g < hi else (x, CHAIN_STATES)
        (st,) = kept.states_at([x])
        if st is None:
            hi = x
        elif kept.event(st):
            hi, found = x, True
        else:
            lo = x
    if not found:
        raise NoHalt("folding range ends with no crease at pi and no clash")
    return hi


def sweep_to_halt(pattern: CreasePattern, samples=64):
    """Trajectory of `samples` states evenly spaced from flat to d_halt, the
    smallest driving value (the designated crease driven with its
    mountain/valley sign) at which a crease reaches pi - HALT_TOL or panels
    interpenetrate.  Its phases: the flat state; `_march`, its blocks ending
    one even step past the first even step at or above the crease halt
    `_chain_halt` predicts from flat; `_search`; and the samples, each a kept
    state or propagated once from the nearest kept march or search state,
    at most one march step below it.  Where the flat state or a sample
    fails, the first to fail raises its own error."""
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    kept = _Kept(pattern)
    kept.raising([0.0])
    d = _chain_halt(pattern, np.zeros(len(pattern.creases)))
    stop = MARCH_STEPS if d is None else min(
        MARCH_STEPS, 2 * math.ceil(d * MARCH_STEPS / (2 * np.pi)) + 2)
    values = np.linspace(0.0, _search(kept, *_march(kept, stop)), samples)
    states = kept.raising(values)
    # the halt is a state the search tested as an event
    halt = states[-1]
    halt.halted = True
    halt.halt_reason = "crease-at-pi" if _at_pi(halt) else "panel-interpenetration"
    halt.residuals["halting_creases"] = [
        int(i) for i in np.nonzero(np.abs(halt.rho) >= np.pi - 10 * HALT_TOL)[0]]
    return Trajectory(states, values)
