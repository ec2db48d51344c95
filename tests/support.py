"""Shapes, checks, design views and spec strategies the tests share,
which the library itself has no use for."""
import importlib.util
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import strategies as hs

from curvefold.cli import _build_from_spec
from curvefold.errors import NotAdmissible
from curvefold.foldio import load_design_spec
from curvefold.geometry import AffineParams, PolyCurve, affine_map, is_admissible
from curvefold.kinematics import VertexAngles
from curvefold.ortho import ortho_xi
from curvefold.parallel import _design_row_state, column_dihedrals, column_scales, xi_list


def design_row(partition, rho4):
    """Sector angles alpha_1..alpha_{4n} along the datum row of a parallel
    design, as VertexAngles, plus the transfer sign branches used (one per
    consecutive vertex pair)."""
    st = _design_row_state(partition, rho4)
    return [VertexAngles(s) for s in st.slots], st.branch_log


def explore_spec_texts(seed):
    """The spec documents of one seeded batch of the benchmark's explore
    workload."""
    path = Path(__file__).resolve().parents[1] / "bench" / "specs.py"
    spec = importlib.util.spec_from_file_location("bench_specs", path)
    specs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(specs)
    return specs.explore_spec_texts(seed)


@lru_cache
def explore_designs(seed):
    """The designs of one seeded batch of the benchmark's explore workload,
    built once per seed: callers share them, and leave them as they found
    them."""
    return [_build_from_spec(*load_design_spec(t))[0] for t in explore_spec_texts(seed)]


def bare_document(text, keep=()):
    """The FOLD document `text` without its curvefold:* fields, but those in
    `keep`."""
    doc = json.loads(text)
    for key in list(doc):
        if key.startswith("curvefold:") and key not in keep:
            del doc[key]
    return doc


def scrambled(doc, rng):
    """doc with its vertex ids permuted, each face started on a random
    corner, about half the faces reversed and the face order shuffled, and
    the permutation: document vertex v is vertex perm[v] of the result."""
    perm = rng.permutation(len(doc["vertices_coords"]))
    coords = np.empty((len(perm), 2))
    coords[perm] = doc["vertices_coords"]
    faces = perm[np.asarray(doc["faces_vertices"])]
    faces = np.array([np.roll(f, k) for f, k in zip(faces, rng.integers(0, 4, len(faces)))])
    flip = rng.random(len(faces)) < 0.5
    faces[flip] = faces[flip, ::-1]
    out = dict(doc, vertices_coords=coords.tolist(),
               edges_vertices=perm[np.asarray(doc["edges_vertices"])].tolist(),
               faces_vertices=faces[rng.permutation(len(faces))].tolist())
    return out, perm


def assert_same(got, want):
    """Two trajectories are the same sweep, bit for bit."""
    assert np.array_equal(got.driving_values, want.driving_values)
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert a.driving_rho == b.driving_rho
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.vertex_coords, b.vertex_coords)
        assert a.residuals == b.residuals
    assert got.halt.halted and want.halt.halted
    assert got.halt.halt_reason == want.halt.halt_reason
    assert got.halt.residuals["halting_creases"] == want.halt.residuals["halting_creases"]


@dataclass
class ColumnProfile:
    """Per-column folded-geometry profile."""

    xi: float
    f: np.ndarray            # transformed target curve samples of this column
    phi: float = None        # dihedral between this column's plane and the next


def column_curves(f1: PolyCurve, theta, row_vertices):
    """Transformed target curves f_i and inter-plane dihedrals phi_i of a
    parallel design.

    f_{i+1} is the cumulative diagonal scaling of f_1 conjugated between the
    xi_1 and xi_{i+1} shear frames, for the x phase (the k1 products on
    the image x axis); phi_i from `column_dihedrals`."""
    slots = [v.sectors if isinstance(v, VertexAngles) else tuple(v) for v in row_vertices]
    xs = xi_list(slots)
    a1 = AffineParams(theta, xs[0])
    ok, _ = is_admissible(f1, a1)
    if not ok:
        raise NotAdmissible("target curve fails admissibility at (theta, xi_1)")
    cumx, cumy = column_scales(slots)
    img = affine_map(f1.samples, a1)
    profiles = []
    for i, s in enumerate(slots):
        ai = AffineParams(theta, xs[i])
        scaled = img * np.array([cumx[i], cumy[i]])
        fi = scaled @ ai.inverse_matrix().T
        profiles.append(ColumnProfile(xi=xs[i], f=fi))
    for p, phi in zip(profiles, column_dihedrals(slots, xs)):
        p.phi = phi
    return profiles


def ortho_row_curves(f1, theta, grid, partition):
    """Per-row transformed target curves of an orthodiagonal design.

    Row i carries f1 conjugated from the xi_1 frame into the xi_i frame and
    scaled by sin(alpha11)/sin(alpha_i1), the similarity forced by the
    shared strip widths between the parallel column lines."""
    beta = partition.turn_angles
    a1col = grid.alpha[:, 1]
    xis = [ortho_xi(a1col[i], beta[i]) for i in range(len(beta))]
    aff1 = AffineParams(theta, xis[0])
    ok, _ = is_admissible(f1, aff1)
    if not ok:
        raise NotAdmissible("target curve fails admissibility at (theta, xi_1)")
    img = affine_map(f1.samples, aff1)
    out = []
    for i, xi in enumerate(xis):
        ai = AffineParams(theta, xi)
        scale = np.sin(a1col[0]) / np.sin(a1col[i])
        out.append(scale * (img @ ai.inverse_matrix().T))
    return out, xis


def circle(n=256, radius=1.0):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return PolyCurve(radius * np.stack([np.cos(t), np.sin(t)], axis=1), t, closed=True)


def ellipse(n=256, rx=1.5, ry=0.8):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return PolyCurve(np.stack([rx * np.cos(t), ry * np.sin(t)], axis=1), t, closed=True)


def rounded_square(n=256, side=2.0, r=0.4):
    """Closed rounded-square outline sampled counterclockwise."""
    h = side / 2.0 - r
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = []
    for a in t:
        c, s = np.cos(a), np.sin(a)
        # squircle-style blend keeps sampling simple and the outline convex
        x = h * np.sign(c) * min(1.0, abs(c) * 1.6) + r * c
        y = h * np.sign(s) * min(1.0, abs(s) * 1.6) + r * s
        pts.append((x, y))
    return PolyCurve(np.asarray(pts), t, closed=True)


def rigid_align(src, dst):
    """Least-squares rigid motion taking src points onto dst (Kabsch)."""
    src = np.asarray(src, float)
    dst = np.asarray(dst, float)
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    H = (src - cs).T @ (dst - cd)
    U, _, Vt = np.linalg.svd(H)
    D = np.eye(H.shape[0])
    D[-1, -1] = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ D @ U.T
    return R, cd - R @ cs


def is_flat_foldable(v):
    """Opposite sectors of the VertexAngles v sum to pi (Kawasaki)."""
    s = v.sectors
    return abs(s[0] + s[2] - np.pi) < 1e-9 and abs(s[1] + s[3] - np.pi) < 1e-9


#: small specs of both families, drawn from the ranges of the benchmark's
#: explore batch on smaller grids
SMALL_SPECS = hs.one_of(
    hs.builds(lambda scale, n_row, n_col, rho4: {
        "type": "parallel-repeating", "datum": {"builtin": "fig4-spiralish"},
        "target": {"builtin": "fig5-exp", "scale": scale},
        "n_row": n_row, "n_col": n_col, "rho4": rho4, "theta": "auto", "eps": 10.0},
        hs.floats(0.6, 0.8), hs.integers(2, 4), hs.integers(1, 4),
        hs.floats(0.86 * math.pi, 0.875 * math.pi)),
    hs.builds(lambda scale, n, m, eps: {
        "type": "orthodiagonal", "datum": {"builtin": "fig7-sine"},
        "target": {"builtin": "fig7-tlnt", "scale": scale},
        "n": n, "m": m, "theta": "auto", "eps": eps},
        hs.floats(0.7, 1.2), hs.integers(3, 7), hs.integers(2, 4), hs.floats(0.16, 0.28)))


#: any JSON value, with integers no larger than the fixtures' grid counts
#: and sample numbers, so that no drawn count builds a large grid or curve
JSON = hs.recursive(
    hs.none() | hs.booleans() | hs.integers(-3, 3) | hs.floats() | hs.text(max_size=4)
    | hs.sampled_from(["orthodiagonal", "parallel-repeating", "fig5-exp"]),
    lambda inner: hs.lists(inner, max_size=5) | hs.dictionaries(hs.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)

FUZZ_SPECS = [
    {"type": "parallel-repeating", "datum": {"builtin": "fig4-spiralish", "samples_n": 9},
     "target": {"builtin": "fig5-exp", "samples_n": 9, "scale": 0.7}, "n_row": 3,
     "n_col": 3, "rho4": 2.6, "theta": 1.27, "eps": 0.5, "phase": "x"},
    {"type": "orthodiagonal", "datum": {"samples": [[0, 0], [1, 0.2], [2, 0], [3, 0.2]],
                                        "param": [0, 1, 2, 3], "closed": False},
     "target": {"builtin": "fig7-tlnt", "samples_n": 9}, "n": 3, "m": 3,
     "alpha11": 1.2, "tube_eps": 0.1, "theta": "auto"},
]
