"""Serialization: FOLD 1.1 documents, SVG renderings, design-spec files
and design reports.

Exports are byte-deterministic: canonical JSON key order and fixed float
formatting, so export -> import -> export round-trips identically.
"""
from __future__ import annotations

import json
import math

import numpy as np

from . import curves as curves_mod
from .errors import CreaseIntersection, NotQuadGrid, SchemaError
from .foldsim import FoldedState, placement_order
from .geometry import PolyCurve
from .pattern import ROLE_BOUNDARY, CreasePattern, _orient, assemble_grid

_ASSIGN = np.array(["M", "B", "V"])      # by mv + 1; import reads other letters as B


def _round_floats(obj, nd=12):
    if isinstance(obj, float):
        return round(obj, nd)
    if isinstance(obj, (list, tuple)):
        return [_round_floats(x, nd) for x in obj]
    if isinstance(obj, dict):
        return {k: _round_floats(v, nd) for k, v in obj.items()}
    return obj


def _dump(doc):
    return json.dumps(_round_floats(doc), sort_keys=True, separators=(",", ":")) + "\n"


def json_object(text, what):
    """The JSON object of `text`; anything else raises SchemaError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    return doc


def export_fold(pattern: CreasePattern, state=None):
    """FOLD v1.1 document string; planar coords, or 3D when a folded state
    is supplied (fold angles in degrees, valley positive)."""
    if state is None:
        coords = [[float(x), float(y)] for x, y in pattern.vertices]
        angles = [0.0] * len(pattern.creases)
        classes = ["creasePattern"]
    else:
        coords = [[float(a) for a in p] for p in state.vertex_coords]
        angles = [float(np.degrees(r)) for r in state.rho]
        classes = ["foldedForm"]
    doc = {
        "file_spec": 1.1,
        "file_creator": "curvefold",
        "file_classes": ["singleModel"],
        "frame_classes": classes,
        "vertices_coords": coords,
        **({"curvefold:vertices_flat":
            [[float(x), float(y)] for x, y in pattern.vertices]}
           if state is not None else {}),
        "edges_vertices": pattern.crease_ends().tolist(),
        "edges_assignment": _ASSIGN[pattern.creases.mv + 1].tolist(),
        "edges_foldAngle": angles,
        "faces_vertices": pattern.faces.reshape(-1, 4).tolist(),
        "curvefold:grid": {
            "rows": pattern.rows,
            "cols": pattern.cols,
            "halting_col": 1,
            "ext_id": [[int(v) for v in row] for row in pattern.ext_id],
        },
        "curvefold:roles": pattern.creases.role.tolist(),
        "curvefold:design": _design_meta(pattern.design),
    }
    return _dump(doc)


def _design_meta(design):
    out = {}
    for k, v in design.items():
        if isinstance(v, (int, float, str, bool)) or v is None:
            out[k] = v
        elif isinstance(v, (list, tuple)) and all(isinstance(x, (int, float)) for x in v):
            out[k] = list(v)
    return out


def import_fold(text):
    """Rebuild a pattern (and folded state, when 3D) from a FOLD document.

    Grid structure comes from the curvefold:grid field when present.  A
    document without it is re-gridded from its planar frame by
    `_infer_grid`: vertices_coords, or curvefold:vertices_flat for a folded
    one.  Developability is re-verified.  Malformed documents raise
    SchemaError, non-grid ones NotQuadGrid, a kind of SchemaError."""
    doc = json_object(text, "FOLD document")
    for key in ("vertices_coords", "edges_vertices", "faces_vertices"):
        if key not in doc:
            raise SchemaError(f"missing FOLD field {key}")
    coords = _coord_rows(doc["vertices_coords"], "vertices_coords", (2, 3))
    nv = len(coords)
    edges = _id_rows(doc["edges_vertices"], "edges_vertices", nv)
    if any(len(e) != 2 for e in edges):
        raise SchemaError("every edge in edges_vertices must be a vertex pair")
    faces = _id_rows(doc["faces_vertices"], "faces_vertices", nv)
    for f in faces:
        if len(f) != 4:
            raise NotQuadGrid(f"face with {len(f)} vertices; quad grid required")
    design = doc.get("curvefold:design", {})
    if not isinstance(design, dict):
        raise SchemaError("curvefold:design must be an object")
    assign = doc.get("edges_assignment", [])
    if not (isinstance(assign, list) and all(isinstance(a, str) for a in assign)):
        raise SchemaError("edges_assignment must be a list of strings")
    dim3 = coords.shape[1] == 3
    if dim3:
        if "curvefold:vertices_flat" not in doc:
            raise SchemaError("3D folded frame without planar coordinates; "
                              "re-export with the crease-pattern frame")
        flat = _coord_rows(doc["curvefold:vertices_flat"], "curvefold:vertices_flat", (2,))
        if len(flat) != nv:
            raise SchemaError(f"curvefold:vertices_flat has {len(flat)} rows "
                              f"for {nv} vertices")
        angles = doc.get("edges_foldAngle", [0.0] * len(edges))
        if not (isinstance(angles, list) and len(angles) == len(edges)
                and all(_is_number(a) for a in angles)):
            raise SchemaError("edges_foldAngle must hold one number per edge")
    else:
        flat = coords
    if "curvefold:grid" in doc:
        ext = _grid_field(doc["curvefold:grid"], nv)
    else:
        ext = _infer_grid(flat, faces)
    if min(ext.shape) < 3 or not np.array_equal(np.sort(ext, axis=None), np.arange(nv)):
        raise SchemaError("the grid must have at least 3 x 3 nodes and list "
                          "each vertex id exactly once")
    if "curvefold:grid" in doc and _mirrored(flat[ext]):
        raise SchemaError("curvefold:grid is mirrored (clockwise faces): mirror the "
                          "coordinates back, or drop curvefold:grid to re-grid the drawing")
    _check_design(design, ext.shape)
    try:
        pat = _rebuild(edges, assign, design, flat, ext)
        pat.kept(placement_order)  # refuses a grid whose panels cannot all be placed
    except CreaseIntersection as e:
        raise SchemaError(str(e))
    state = None
    if dim3:
        rho = np.radians(np.asarray(angles, dtype=float))
        state = FoldedState(-1, 0.0, rho, coords, residuals={"source": "imported"})
    return pat, state


def _is_number(x):
    """A finite JSON number; booleans are not numbers here."""
    return type(x) in (int, float) and math.isfinite(x)


def _is_table(value):
    """A non-empty list of equally long lists of finite numbers."""
    return (isinstance(value, list) and value
            and all(isinstance(p, list) and len(p) == len(value[0]) for p in value)
            and all(_is_number(x) for p in value for x in p))


def _coord_rows(value, what, dims):
    """Finite float array of a list of equally long numeric rows, their
    length one of `dims`."""
    if not (_is_table(value) and len(value[0]) in dims):
        raise SchemaError(f"{what} must be a non-empty list of numeric rows, "
                          f"all {' or '.join(map(str, dims))}-D")
    return np.array(value, dtype=float)


def _check_design(design, shape):
    """The design values the invariant suite reads: xi, numbers for at most
    the grid lines it is checked on, and grid_alpha, a table."""
    lines = shape[0 if design.get("type") == "orthodiagonal" else 1] - 2
    xi = design.get("xi", [])
    if not (isinstance(xi, list) and len(xi) <= lines and all(map(_is_number, xi))):
        raise SchemaError(f"curvefold:design xi must be a list of at most {lines} numbers")
    if "grid_alpha" in design and not _is_table(design["grid_alpha"]):
        raise SchemaError("curvefold:design grid_alpha must be a rectangular array "
                          "of numbers")


def _id_rows(value, what, nv):
    """A list of lists of vertex ids, each id in range(nv)."""
    if not (isinstance(value, list) and all(isinstance(r, list) for r in value)
            and all(type(x) is int and 0 <= x < nv for r in value for x in r)):
        raise SchemaError(f"{what} must be lists of vertex ids in 0..{nv - 1}")
    return value


def _grid_field(grid, nv):
    """ext_id of a curvefold:grid object: a rectangular (rows+2) x (cols+2)
    array of vertex ids.  rows and cols, where given, must match its shape;
    halting_col, where given, must be 1, the column every fold halts on."""
    if not (isinstance(grid, dict) and isinstance(grid.get("ext_id"), list)):
        raise SchemaError("curvefold:grid must be an object with an ext_id array")
    rows = _id_rows(grid["ext_id"], "curvefold:grid ext_id", nv)
    if not rows or len({len(r) for r in rows}) != 1:
        raise SchemaError("curvefold:grid ext_id must be a rectangular array")
    ext = np.array(rows, dtype=int)
    shape = {"rows": ext.shape[0] - 2, "cols": ext.shape[1] - 2}
    for key, size in shape.items():
        if key in grid and grid[key] != size:
            raise SchemaError(f"curvefold:grid {key} = {grid[key]!r} does not match "
                              f"the {size} of ext_id")
    halting = grid.get("halting_col", 1)
    if not (type(halting) is int and halting == 1):
        raise SchemaError(f"curvefold:grid halting_col = {halting!r}: every fold "
                          "halts on column 1")
    return ext


def _mirrored(nodes):
    """Whether every face of the grid nodes (rows, cols, 2) turns
    counterclockwise from its top-left node to its top-right and
    bottom-right ones.  `assemble_grid` measures sector angles
    counterclockwise from R to U, so only a grid that turns clockwise, rows
    running down the page, can be developable, and one that turns the other
    way at every face is the mirror image of one: the faces of a mirrored
    export wind clockwise."""
    P = np.moveaxis(nodes, -1, 0)
    return bool((_orient(P[:, :-1, :-1], P[:, :-1, 1:], P[:, 1:, 1:]) > 0).all())


def _rebuild(edges, assign, design, flat, ext):
    """The pattern of a document's grid under the document's vertex and
    edge ids: the grid index is built on grid positions and relabelled."""
    pat = assemble_grid(flat[ext], design=dict(design))
    # grid vertex g is the document's vertex to_doc_vertex[g]; an edge from
    # g to g + 1 is a row crease, one from g to g + cols + 2 a column crease
    to_doc_vertex = ext.ravel()
    right, down = np.full((2,) + ext.shape, -1)
    right[:, :-1], down[:-1] = pat.row_creases, pat.col_creases
    ends = np.sort(np.argsort(to_doc_vertex)[np.array(edges, dtype=int).reshape(-1, 2)])
    lo, gap = ends[:, 0], ends[:, 1] - ends[:, 0]
    order = np.select([gap == 1, gap == ext.shape[1]], [right.flat[lo], down.flat[lo]], -1)
    if (order < 0).any():
        u, v = edges[int(np.argmax(order < 0))]
        raise SchemaError(f"edge ({u},{v}) does not fit the quad grid")
    if not np.array_equal(np.sort(order), np.arange(len(pat.creases))):
        raise SchemaError("edges do not cover the quad grid once each")
    # the document's edge k is crease order[k] of the grid index
    to_doc = np.argsort(order)
    creases = pat.creases[order]
    creases.u, creases.v = to_doc_vertex[creases.u], to_doc_vertex[creases.v]
    given = np.array(assign[:len(order)], dtype=object)
    inner = np.flatnonzero(creases.role[:len(given)] != ROLE_BOUNDARY)
    creases.mv[inner] = (given[inner] == "V").astype(int) - (given[inner] == "M")
    pat.vertices, pat.ext_id, pat.creases = flat, ext, creases
    pat.faces = to_doc_vertex[pat.faces]
    pat.row_creases = to_doc[pat.row_creases]
    pat.col_creases = to_doc[pat.col_creases]
    pat.crease_faces = pat.crease_faces[order]
    return pat


def _infer_grid(flat, quads):
    """Grid of a document without curvefold:grid, by placing vertices on
    integer (row, col) nodes.  Turned counterclockwise in the plane, each
    face steps round its corners by quarter turns, next = cur + (-dc, dr)
    for (dr, dc) = cur - prev: face 0 goes on (1, 1), (0, 1), (0, 0),
    (1, 0), and faces across an edge that two faces share follow.  The
    node grid is turned so that its rows run furthest toward +x, as both
    design families draw them; ties go to the fewest turns."""
    if not quads:
        raise NotQuadGrid("no faces to recover a grid from")
    faces = np.array(quads)
    x, y = flat[faces, 0], flat[faces, 1]
    area = (x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y).sum(axis=1)
    faces = np.where(area[:, None] > 0, faces, faces[:, ::-1]).tolist()
    edge_faces = {}
    for fi, f in enumerate(faces):
        for j in range(4):
            edge_faces.setdefault(frozenset((f[j - 1], f[j])), []).append((fi, j))
    node = {}
    def place(f, j, prev, cur):  # f[j], f[j + 1], ... on cur and its turns
        for k in range(j, j + 4):
            if node.setdefault(f[k % 4], cur) != cur:
                raise NotQuadGrid("faces do not form a consistent grid")
            prev, cur = cur, (cur[0] + prev[1] - cur[1], cur[1] + cur[0] - prev[0])
    place(faces[0], 0, (1, 0), (1, 1))
    todo, seen = [0], {0}
    while todo:
        f = faces[todo.pop()]
        for j in range(4):
            pair = edge_faces[frozenset((f[j - 1], f[j]))]
            for g, k in pair if len(pair) == 2 else ():
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
                    place(faces[g], k, node[faces[g][k - 1]], node[faces[g][k]])
    if len(seen) != len(faces):
        raise NotQuadGrid("face adjacency is not connected")
    rc = np.array(list(node.values()))
    rc -= rc.min(axis=0)
    if np.prod(rc.max(axis=0)) != len(faces):
        raise NotQuadGrid("faces do not tile a rectangle")
    ext = np.full(rc.max(axis=0) + 1, -1)
    ext[rc[:, 0], rc[:, 1]] = list(node)
    if (ext >= 0).sum() < len(node):
        raise NotQuadGrid("grid nodes are not uniquely shared")
    if (ext < 0).any():
        raise NotQuadGrid("grid nodes not fully covered")
    turns = [np.rot90(ext, k) for k in range(4)]
    run = [np.mean(flat[g[:, -1], 0] - flat[g[:, 0], 0]) for g in turns]
    return turns[int(np.argmax(run))].copy()


SVG_SCALE = 100.0


def export_svg(pattern: CreasePattern, overlays=None):
    """Deterministic SVG: mountains red, valleys blue, boundary black.

    overlays: optional list of (points, css_class) polylines drawn on top,
    e.g. a target curve and its staircase."""
    pts = pattern.vertices * SVG_SCALE
    lo = pts.min(axis=0) - 10.0
    hi = pts.max(axis=0) + 10.0
    W, H = hi - lo

    def fx(v):
        return f"{v:.4f}"

    def map_pt(p):
        return (p[0] * SVG_SCALE - lo[0], hi[1] - p[1] * SVG_SCALE)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {fx(W)} {fx(H)}">',
        "<style>.m{stroke:#d62728;}.v{stroke:#1f77b4;}.b{stroke:#000000;}"
        ".m,.v,.b{stroke-width:1.5;fill:none;}"
        ".curve{stroke:#2ca02c;stroke-width:1.0;fill:none;}"
        ".stair{stroke:#ff7f0e;stroke-width:1.0;fill:none;}</style>",
    ]
    ends = np.stack([pts[:, 0] - lo[0], hi[1] - pts[:, 1]], axis=1)[pattern.crease_ends()]
    for mark, ((x1, y1), (x2, y2)) in zip(_ASSIGN[np.sign(pattern.creases.mv) + 1].tolist(),
                                          ends.tolist()):
        lines.append(f'<line class="{mark.lower()}" x1="{fx(x1)}" y1="{fx(y1)}" '
                     f'x2="{fx(x2)}" y2="{fx(y2)}"/>')
    for points, cls in overlays or ():
        d = " ".join(f"{fx(map_pt(p)[0])},{fx(map_pt(p)[1])}" for p in np.asarray(points))
        lines.append(f'<polyline class="{cls}" points="{d}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def report_json(report):
    return _dump(report.as_dict())


def report_text(report):
    d = report.as_dict()
    rows = [
        f"design:        {d['design_type']}",
        f"eps target:    {d['eps_target']:.6g}",
        f"eps datum:     {d['eps_datum']:.6g}",
        f"eps curve:     {d['eps_curve']:.6g}",
        f"within budget: {d['within_budget']}",
        "halting col:   1",
    ]
    for k, v in sorted(d["notes"].items()):
        if isinstance(v, float):
            rows.append(f"{k}: {v:.6g}")
        elif isinstance(v, list) and v and isinstance(v[0], float):
            rows.append(f"{k}: [" + ", ".join(f"{x:.6g}" for x in v) + "]")
        else:
            rows.append(f"{k}: {v}")
    return "\n".join(rows) + "\n"


_SPEC_KEYS_COMMON = {"type", "datum", "target", "theta", "eps", "phase"}
# input limits, by peak RSS (x86-64, numpy 2.4): fig5 from curves of 100,000
# samples takes 107 MB; a fold about 27 kB a grid vertex, 280 MB at 100 x 100,
# and each folded state 43 bytes a grid vertex, 450 MB for 1000 at 100 x 100;
# an admissible scan about 60 bytes a theta, 91 MB and 4.5 s at 1,000,000
MAX_SAMPLES, MAX_COUNT, MAX_STATES, MAX_GRID = 100_000, 100, 1000, 1_000_000
_SPEC_KEYS = {
    "parallel-repeating": _SPEC_KEYS_COMMON | {"n_row", "n_col", "rho4"},
    "orthodiagonal": _SPEC_KEYS_COMMON | {"n", "m", "alpha11", "tube_eps"},
}


def _load_curve(node, what):
    if not isinstance(node, dict):
        raise SchemaError(f"{what} curve must be an object")
    scale = node.get("scale", 1.0)
    if not _is_number(scale):
        raise SchemaError(f"{what} curve scale must be a number")
    if "builtin" in node:
        extra = set(node) - {"builtin", "samples_n", "scale"}
        if extra:
            raise SchemaError(f"unknown curve fields: {sorted(extra)}")
        if not (isinstance(node["builtin"], str) and node["builtin"] in curves_mod.BUILTIN):
            raise SchemaError(f"unknown builtin curve {node['builtin']!r}; "
                              f"have {sorted(curves_mod.BUILTIN)}")
        samples_n = node.get("samples_n", 257)
        if not (type(samples_n) is int and samples_n <= MAX_SAMPLES):
            raise SchemaError(f"{what} curve samples_n must be an integer <= {MAX_SAMPLES}")
        try:
            c = curves_mod.builtin(node["builtin"], n=samples_n)
            if scale != 1.0:
                c = PolyCurve(c.samples * scale, c.param, closed=c.closed)
        except ValueError as e:
            raise SchemaError(f"{what} curve: {e}")
        return c
    if "samples" in node:
        extra = set(node) - {"samples", "param", "closed", "scale"}
        if extra:
            raise SchemaError(f"unknown curve fields: {sorted(extra)}")
        try:
            samples = np.asarray(node["samples"], dtype=float) * scale
            if not np.isfinite(samples).all():
                raise SchemaError(f"{what} curve samples must be finite")
            param = np.asarray(node.get("param", np.arange(len(samples))), dtype=float)
            return PolyCurve(samples, param, closed=bool(node.get("closed", False)))
        except (TypeError, ValueError) as e:
            raise SchemaError(f"{what} curve: {e}")
    raise SchemaError(f"{what} curve needs 'builtin' or 'samples'")


def _spec_count(doc, key):
    x = doc.get(key, 9)
    if not (type(x) is int and 1 <= x <= MAX_COUNT):
        raise SchemaError(f"{key} must be an integer in [1, {MAX_COUNT}]")
    return x


def _spec_number(doc, key, default, high=None):
    """A number in (0, high), or positive when high is None."""
    x = doc.get(key, default)
    if not (_is_number(x) and 0.0 < x and (high is None or x < high)):
        raise SchemaError(f"{key} must be a number in (0, {high:.6g})" if high
                          else f"{key} must be a positive number")
    return x


def load_design_spec(text):
    """Parse and validate a design-spec JSON document, returning the typed
    spec object.  Unknown fields and malformed values are rejected."""
    doc = json_object(text, "design spec")
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise SchemaError(f"type must be one of {sorted(_SPEC_KEYS)}")
    extra = set(doc) - _SPEC_KEYS[kind]
    if extra:
        raise SchemaError(f"unknown fields: {sorted(extra)}")
    datum = _load_curve(doc.get("datum", {}), "datum")
    target = _load_curve(doc.get("target", {}), "target")
    if target.dim != 2 or target.closed:
        raise SchemaError("target curve must be planar and open")
    if kind == "orthodiagonal" and datum.dim != 2:
        raise SchemaError("orthodiagonal datum curve must be planar")
    theta = doc.get("theta", "auto")
    if not (theta == "auto" or _is_number(theta)):
        raise SchemaError("theta must be a number or 'auto'")
    phase = doc.get("phase", "x")
    if phase not in ("x", "y"):
        raise SchemaError("phase must be 'x' or 'y'")
    common = dict(eps=float(_spec_number(doc, "eps", 0.1)), phase=phase)
    if kind == "parallel-repeating":
        spec = dict(datum=datum, target=target,
                    n_row=_spec_count(doc, "n_row"), n_col=_spec_count(doc, "n_col"),
                    rho4=float(_spec_number(doc, "rho4", 5 * np.pi / 6, high=np.pi)),
                    **common)
        return ("parallel-repeating", spec, theta)
    alpha11, tube_eps = doc.get("alpha11"), doc.get("tube_eps")
    if alpha11 is not None and not _is_number(alpha11):
        raise SchemaError("alpha11 must be a number")
    if tube_eps is not None:
        tube_eps = _spec_number(doc, "tube_eps", None)
    spec = dict(datum=datum, target=target,
                n=_spec_count(doc, "n"), m=_spec_count(doc, "m"),
                alpha11=alpha11, tube_eps=tube_eps, **common)
    return ("orthodiagonal", spec, theta)
