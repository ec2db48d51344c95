"""Self-test of the benchmark's own checks: each passes on a clean output
and fails, with its own kind, on a deliberately corrupted copy.

    python3 bench/selftest.py

Uses a small parallel design and one folded state, so it takes seconds.
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from curvefold import cli, foldio, foldsim, verify  # noqa: E402

SPEC = {"type": "parallel-repeating", "datum": {"builtin": "fig4-spiralish"},
        "target": {"builtin": "fig5-exp", "scale": 0.6},
        "n_row": 5, "n_col": 4, "rho4": 2.7, "theta": "auto", "eps": 10.0}


def expect_fail(kind, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as e:
        if e.kind != kind:
            raise AssertionError(f"expected a {kind} failure, got {e}")
        return
    raise AssertionError(f"corrupted output passed the {kind} check")


def moved(state, vid, delta):
    st = copy.copy(state)
    st.vertex_coords = state.vertex_coords.copy()
    st.vertex_coords[vid] += delta
    return st


def main():
    kind, fields, theta = foldio.load_design_spec(json.dumps(SPEC))
    pattern, _ = cli._build_from_spec(kind, fields, theta)
    dc = foldsim.default_driving_crease(pattern)
    state = foldsim.propagate(pattern, (pattern.creases[dc].mv or 1) * 0.6, driving_crease=dc)
    ext = pattern.ext_id
    inner = int(ext[2, 2])
    diam = checks.diameter(pattern)
    cases = []

    def case(name, clean, corrupt):
        clean()
        corrupt()
        cases.append(name)

    # panel isometry: one folded vertex moved
    case("isometry",
         lambda: checks.isometry(pattern, state.vertex_coords),
         lambda: expect_fail("isometry", checks.isometry, pattern,
                             moved(state, inner, [1e-6 * diam, 0, 0]).vertex_coords))
    # coplanarity: one inner vertex pushed off its column plane
    col = state.vertex_coords[ext[1:-1, 2]]
    normal = np.linalg.svd(col - col.mean(axis=0))[2][-1]
    case("coplanarity",
         lambda: checks.coplanarity(pattern, state.vertex_coords),
         lambda: expect_fail("coplanarity", checks.coplanarity, pattern,
                             moved(state, inner, 1e-6 * diam * normal).vertex_coords))
    # fold angles: one crease's fold angle changed
    bad = copy.copy(state)
    bad.rho = state.rho.copy()
    bad.rho[dc] += 1e-4
    case("fold-angle",
         lambda: checks.fold_angles(pattern, state),
         lambda: expect_fail("fold-angle", checks.fold_angles, pattern, bad))
    # developability: one planar vertex dragged across its neighbour ray
    flat = copy.copy(pattern)
    flat.vertices = pattern.vertices.copy()
    o = pattern.vertices[inner]
    flat.vertices[int(ext[1, 2])] = o + 0.3 * (pattern.vertices[int(ext[2, 3])] - o)
    case("developability",
         lambda: checks.developability(pattern),
         lambda: expect_fail("developability", checks.developability, flat))
    # FOLD I/O: one byte of the re-exported document changed
    text = foldio.export_fold(pattern)

    def export_one_byte_off(p, state=None):
        out = foldio.export_fold(p, state=state)
        i = out.index('"file_creator":"') + 16
        return out[:i] + chr(ord(out[i]) ^ 1) + out[i + 1:]

    case("fold-io",
         lambda: checks.round_trip(text, foldio.export_fold, foldio.import_fold),
         lambda: expect_fail("fold-io", checks.round_trip, text, export_one_byte_off,
                             foldio.import_fold))
    imported, _ = foldio.import_fold(text)
    flipped = copy.deepcopy(imported)
    flipped.creases[dc].mv *= -1
    case("fold-io re-import",
         lambda: checks.same_pattern(pattern, imported),
         lambda: expect_fail("fold-io", checks.same_pattern, pattern, flipped))
    svg = foldio.export_svg(pattern)
    case("svg",
         lambda: checks.svg_lines(svg, pattern),
         lambda: expect_fail("svg", checks.svg_lines,
                             svg.replace("<line ", "<!-- -->", 1), pattern))
    # halt: the design's analytic halting state stands in for a swept one
    hs = pattern.design["halting_state"]["coords"]
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    halt = foldsim.FoldedState(dc, pattern.design["rho4"],
                               np.asarray(pattern.design["halt_rho"]),
                               hs @ rot.T + 0.5, {})
    stray = copy.copy(halt)
    stray.rho = halt.rho.copy()
    stray.rho[dc] = np.pi
    case("halting creases",
         lambda: checks.halting_creases(pattern, halt),
         lambda: expect_fail("halt", checks.halting_creases, pattern, stray))
    case("driving halt",
         lambda: checks.driving_halt(pattern.design["rho4"], pattern.design["rho4"]),
         lambda: expect_fail("halt", checks.driving_halt,
                             pattern.design["rho4"] + 1e-5, pattern.design["rho4"]))
    case("halt state",
         lambda: checks.matches_design_halt(pattern, halt),
         lambda: expect_fail("halt-state", checks.matches_design_halt, pattern,
                             moved(halt, inner, [0, 0, 1e-5 * diam])))
    # the program's own suite, run on a corrupted state
    case("verify",
         lambda: checks.program_checks(verify.run_pattern_checks(pattern, state=state)),
         lambda: expect_fail("verify", checks.program_checks, verify.run_pattern_checks(
             pattern, state=moved(state, inner, [1e-6 * diam, 0, 0]))))
    print(f"selftest: {len(cases)} checks fail on corrupted outputs: {', '.join(cases)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
