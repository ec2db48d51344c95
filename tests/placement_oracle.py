"""Reference panel placement: `curvefold.foldsim.place_panels` as it was
before its per-pattern constants were cached.

Every call reads the crease ends, repeats each hinge axis and point once
per lane, builds one Rodrigues matrix per (hinge, lane), repeats the flat
corners once per lane, turns them in one einsum and a transposing copy,
and averages the vertices with `np.add.at`.  `foldsim.place_panels` must
return the same bits: the same coordinates, (V, 3) or (L, V, 3), and the
same residual dicts.  The placement rows and their depths come from
`design_oracle.placement`."""
import numpy as np

from curvefold.tolerances import LENGTH_FLOOR
from design_oracle import placement


def _rotations(axes, angles):
    """Rodrigues rotation matrices, (N, 3, 3), about unit axes (N, 3)."""
    K = np.zeros((len(axes), 3, 3))
    K[:, 0, 1], K[:, 0, 2] = -axes[:, 2], axes[:, 1]
    K[:, 1, 0], K[:, 1, 2] = axes[:, 2], -axes[:, 0]
    K[:, 2, 0], K[:, 2, 1] = -axes[:, 1], axes[:, 0]
    return (np.eye(3) + np.sin(angles)[:, None, None] * K
            + (1.0 - np.cos(angles))[:, None, None] * (K @ K))


def place_panels(pattern, rho):
    rho = np.asarray(rho, dtype=float)
    lanes = rho.reshape(-1, rho.shape[-1])
    L = len(lanes)
    pts = np.zeros((len(pattern.vertices), 3))
    pts[:, :2] = pattern.vertices
    ends = pattern.crease_ends()
    hinges, depths = placement(pattern)
    face, parent, idx, sign = hinges.T
    # hinge frames: rotation H about the crease line through p maps x to
    # H x + (p - H p); rows run over (hinge, lane)
    p = pts[ends[idx, 0]]
    d = pts[ends[idx, 1]] - p
    axes = np.repeat(d / np.linalg.norm(d, axis=1)[:, None], L, axis=0)
    H = _rotations(axes, (sign[:, None] * lanes[:, idx].T).ravel())
    p = np.repeat(p, L, axis=0)
    shift = (p - np.einsum("nij,nj->ni", H, p)).reshape(len(idx), L, 3)
    H = H.reshape(len(idx), L, 3, 3)
    R = np.empty((pattern.faces.shape[0] * pattern.faces.shape[1], L, 3, 3))
    t = np.empty((len(R), L, 3))
    R[0], t[0] = np.eye(3), 0.0
    for rows in depths:
        f, Rp = face[rows], R[parent[rows]]
        R[f] = Rp @ H[rows]
        t[f] = (Rp @ shift[rows, :, :, None])[..., 0] + t[parent[rows]]
    del H, shift

    # every corner turned, as rows (4 position + corner, L, 3), the faces in
    # placement order, face 0 first
    order = np.concatenate([[0], face])
    quads = pattern.faces.reshape(-1, 4)[order]
    turned = np.einsum("fij,fkj->fki", R[order].reshape(-1, 3, 3),
                       np.repeat(pts[quads], L, axis=0))
    del R
    turned = turned.reshape(len(quads), L, 4, 3).transpose(0, 2, 1, 3).reshape(-1, L, 3)
    # closure on every interior shared edge: both faces place its ends alike;
    # per interior crease its two faces and its ends' rows among their corners
    fl, fr = pattern.crease_faces.T
    inner = np.flatnonzero((fl >= 0) & (fr >= 0))
    at = np.argsort(order)
    (fl, cl), (fr, cr) = [(f, 4 * at[f, None] + (pattern.faces.reshape(-1, 4)[f, None]
                                                 == ends[inner, :, None]).argmax(axis=2))
                          for f in (fl[inner], fr[inner])]
    gap = ((turned[cl] + t[fl, None]) - turned[cr]) - t[fr, None]      # (n, 2, L, 3)
    worst = np.sqrt((gap * gap).sum(axis=3))
    del gap
    diam = max(pattern.diameter, LENGTH_FLOOR)
    closure = worst.max(axis=(0, 1), initial=0.0) / diam

    placed = turned.reshape(len(quads), 4, L, 3) + t[order][:, None]
    coords = np.zeros((len(pts), L, 3))
    np.add.at(coords, quads.ravel(), placed.reshape(-1, L, 3))
    coords /= np.bincount(quads.ravel(), minlength=len(pts))[:, None, None]
    off = placed - coords[quads]
    spread = np.sqrt((off * off).sum(axis=3)).max(axis=(0, 1)) / diam
    coords = coords.transpose(1, 0, 2)
    residuals = [{"closure": c, "vertex_spread": v}
                 for c, v in zip(closure.tolist(), spread.tolist())]
    if rho.ndim == 1:
        return coords[0], residuals[0]
    return coords, residuals
