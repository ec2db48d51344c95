"""Command-line driver: design, fold, verify, admissible, export, demo.

Exit codes: 0 success, 1 usage/schema error, 2 design or verification
failure.  All outputs are byte-deterministic for identical inputs."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import curves as curves_mod
from .errors import CurvefoldError, SchemaError
from .foldio import (MAX_GRID, MAX_STATES, _load_curve, export_fold, export_svg, import_fold,
                     json_object, load_design_spec, report_json, report_text)
from .foldsim import sweep_to_halt
from .geometry import partition_uniform, search_theta
from .kinematics import solve_first_vertex
from .ortho import OrthoDesignSpec, angle_grid, build_ortho_pattern
from .parallel import ParallelDesignSpec, build_pattern, xi_list
from .verify import run_pattern_checks

DEMOS = {
    "fig4": {
        # single-row reproduction of the datum design; the narrow target
        # keeps the column stubs clear of each other
        "type": "parallel-repeating",
        "datum": {"builtin": "fig4-spiralish"},
        "target": {"builtin": "fig5-exp", "scale": 0.3},
        "n_row": 9, "n_col": 1,
        "rho4": 5 * np.pi / 6,
        "theta": float(np.deg2rad(73)),
        "eps": 1.0,
    },
    "fig5": {
        "type": "parallel-repeating",
        "datum": {"builtin": "fig4-spiralish"},
        "target": {"builtin": "fig5-exp"},
        "n_row": 9, "n_col": 9,
        "rho4": 5 * np.pi / 6,
        "theta": float(np.deg2rad(73)),
        "eps": 0.4,
    },
    "fig7": {
        "type": "orthodiagonal",
        "datum": {"builtin": "fig7-sine"},
        "target": {"builtin": "fig7-tlnt"},
        "n": 9, "m": 9,
        "theta": float(np.deg2rad(30)),
        "eps": 0.2,
    },
}


def _build_from_spec(kind, fields, theta):
    theta, prelude = _auto_theta(kind, fields) if theta == "auto" else (float(theta), None)
    if kind == "parallel-repeating":
        return build_pattern(ParallelDesignSpec(theta=theta, **fields))
    return build_ortho_pattern(OrthoDesignSpec(theta=theta, **fields), prelude)


def _auto_theta(kind, fields):
    """First admissible theta on the default scan grid for the design's
    first-column (or first-row) staircase angle, and for an orthodiagonal
    design the `angle_grid` it read that angle from (None otherwise):
    theta does not enter it, so the build takes it as it is."""
    prelude = None
    if kind == "parallel-repeating":
        part = partition_uniform(fields["datum"], fields["n_row"])
        xi1 = xi_list([solve_first_vertex(part.turn_angles[0], fields["rho4"])])[0]
    else:
        prelude = angle_grid(OrthoDesignSpec(**fields))
        _, _, _, _, xis = prelude
        xi1 = xis[0]  # the first row's xi
    hits = search_theta(fields["target"], xi1, grid=720)
    if not hits:
        raise SchemaError("no admissible theta found on the default grid")
    return hits[0], prelude


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise SchemaError(f"cannot read {path}: {e.reason}")


def _write(out, name, text):
    """Write text to out/name, making the directory out first."""
    path = Path(out) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise SchemaError(f"cannot write {path}: {e.strerror}")
    print(path)


def _check_states(states):
    if not 2 <= states <= MAX_STATES:
        raise SchemaError("--states must be at least 2" if states < 2
                          else f"--states must be at most {MAX_STATES}")


def cmd_design(args):
    kind, fields, theta = load_design_spec(_spec_text(args))
    pattern, report = _build_from_spec(kind, fields, theta)
    _write(args.out, "pattern.fold", export_fold(pattern))
    _write(args.out, "pattern.svg", export_svg(pattern))
    _write(args.out, "report.json", report_json(report))
    _write(args.out, "report.txt", report_text(report))
    return 0


def _spec_text(args):
    """The spec file with the command-line values written into it, so that
    load_design_spec checks them as it checks the file's own."""
    doc = json_object(_read(args.spec), "design spec")
    if doc.get("type") == "orthodiagonal":
        overrides = {"n": args.n, "alpha11": args.alpha11}
    else:
        overrides = {"n_row": args.n, "rho4": args.rho4}
    overrides.update(eps=args.eps, theta=args.theta)
    doc.update((k, v) for k, v in overrides.items() if v is not None)
    return json.dumps(doc)


def cmd_fold(args):
    _check_states(args.states)
    pattern, _ = import_fold(_read(args.pattern))
    traj = sweep_to_halt(pattern, samples=args.states)
    halt = traj.halt
    _write(args.out, "halt.fold", export_fold(pattern, state=halt))
    summary = {
        "driving_halt": float(traj.driving_values[-1]),
        "halt_reason": halt.halt_reason,
        "halting_creases": halt.residuals.get("halting_creases", []),
        "closure": halt.residuals.get("closure"),
        "states": len(traj.states),
    }
    text = json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n"
    _write(args.out, "halt.json", text)
    if args.format == "json":
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    _check_states(args.states)
    pattern, state = import_fold(_read(args.pattern))
    traj = None
    if state is None:
        traj = sweep_to_halt(pattern, samples=args.states)
        state = traj.halt
    checks = run_pattern_checks(pattern, state=state, trajectory=traj)
    payload = {"checks": [c.as_dict() for c in checks],
               "passed": all(c.ok for c in checks)}
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0 if payload["passed"] else 2


def cmd_admissible(args):
    if args.grid > MAX_GRID:
        raise SchemaError(f"--grid must be at most {MAX_GRID}")
    if args.curve in curves_mod.BUILTIN:
        curve = curves_mod.builtin(args.curve)
    else:
        curve = _load_curve(json_object(_read(args.curve), "curve file"), "input")
    try:
        hits = search_theta(curve, args.xi, grid=args.grid)
    except ValueError as e:
        raise SchemaError(str(e))
    if args.format == "json":
        sys.stdout.write(json.dumps({"theta": hits}, separators=(",", ":")) + "\n")
    else:
        for t in hits:
            sys.stdout.write(f"{t:.12g}\n")
    return 0


def cmd_export(args):
    pattern, state = import_fold(_read(args.pattern))
    if args.format == "svg":
        _write(args.out, "pattern.svg", export_svg(pattern))
    else:
        _write(args.out, "pattern.fold", export_fold(pattern, state=state))
    return 0


def cmd_demo(args):
    doc = DEMOS[args.name]
    spec_text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    _write(args.out, "spec.json", spec_text)
    kind, fields, theta = load_design_spec(spec_text)
    pattern, report = _build_from_spec(kind, fields, theta)
    _write(args.out, "pattern.fold", export_fold(pattern))
    overlays = [(fields["target"].samples, "curve"), (report.stair, "stair")]
    _write(args.out, "pattern.svg", export_svg(pattern, overlays=overlays))
    _write(args.out, "report.json", report_json(report))
    _write(args.out, "report.txt", report_text(report))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(prog="curvefold", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("design", help="build a crease pattern from a design spec")
    d.add_argument("spec")
    d.add_argument("--out", default="out")
    d.add_argument("--n", type=int)
    d.add_argument("--rho4", type=float)
    d.add_argument("--alpha11", type=float)
    d.add_argument("--theta", type=float)
    d.add_argument("--eps", type=float)
    d.set_defaults(func=cmd_design)

    f = sub.add_parser("fold", help="sweep a pattern to its halting state")
    f.add_argument("pattern")
    f.add_argument("--out", default="out")
    f.add_argument("--states", type=int, default=64)
    f.add_argument("--format", choices=("fold", "json"), default="fold")
    f.set_defaults(func=cmd_fold)

    v = sub.add_parser("verify", help="run the invariant check suite")
    v.add_argument("pattern")
    v.add_argument("--states", type=int, default=8)
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("admissible", help="scan rotation angles for admissibility")
    a.add_argument("curve", help="builtin name or JSON file with samples")
    a.add_argument("--xi", type=float, required=True)
    a.add_argument("--grid", type=int, default=720)
    a.add_argument("--format", choices=("text", "json"), default="text")
    a.set_defaults(func=cmd_admissible)

    e = sub.add_parser("export", help="re-export a pattern file")
    e.add_argument("pattern")
    e.add_argument("--out", default="out")
    e.add_argument("--format", choices=("fold", "svg"), default="fold")
    e.set_defaults(func=cmd_export)

    g = sub.add_parser("demo", help="run a packaged figure configuration")
    g.add_argument("name", choices=sorted(DEMOS))
    g.add_argument("--out", default="out")
    g.set_defaults(func=cmd_demo)

    try:
        args = p.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error, but here 2
        # means a design or verification failure
        return 1 if e.code else 0
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CurvefoldError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
