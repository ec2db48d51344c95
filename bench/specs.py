"""Workload inputs: design-spec documents as `curvefold design` reads them.

Only the standard library is imported here, so the set-up probe can time
`import curvefold` on its own.
"""
from __future__ import annotations

import json
import math
import random

WORKLOADS = ("fig5", "fig7", "explore")

#: driving values (rad) at which `explore` samples each motion, chained
#: from flat.  They start at 0.1 rad: below it, fault F3 (see README) makes
#: a seed-dependent share of the wider parallel designs fail closure.
EXPLORE_DRIVING = tuple(0.1 + 0.05 * k for k in range(8))

#: grid sizes of one `explore` batch, fixed so every seed does the same
#: amount of work; the seed draws the continuous parameters.
#: parallel: (n_row = grid columns, n_col = grid rows)
PARALLEL_SIZES = ((3, 4), (3, 9), (3, 12), (4, 5), (4, 10), (5, 3),
                  (5, 8), (5, 12), (6, 6), (6, 10), (7, 4), (7, 8))
#: orthodiagonal: (n = grid rows, m = grid columns)
ORTHO_SIZES = ((7, 3), (7, 8), (7, 12), (8, 5), (8, 10), (9, 4),
               (9, 9), (10, 6), (10, 12), (11, 3), (11, 8), (12, 12))

#: ranges the seed draws from, around the figure specs, inside the region
#: the designer accepts for every listed size
PARALLEL_RHO4 = (0.86 * math.pi, 0.875 * math.pi)
PARALLEL_SCALE = (0.6, 0.8)
ORTHO_SCALE = (0.7, 1.2)
ORTHO_EPS = (0.16, 0.28)

#: fault F3: a parallel design the designer accepts but whose motion the
#: simulator rejects near flat.  Its inputs do not depend on the seed and
#: it fails on every attempt, so `explore` counts it in `failed`.
F3_SPEC = {
    "type": "parallel-repeating",
    "datum": {"builtin": "fig4-spiralish"},
    "target": {"builtin": "fig5-exp", "scale": 0.7777980584603617},
    "n_row": 12, "n_col": 5,
    "rho4": 2.77072033977294,
    "theta": "auto",
    "eps": 10.0,
}
F3_DRIVING = 0.005


def _dump(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def figure_spec_text(name):
    """The `curvefold demo <name>` spec document, as the CLI writes it."""
    from curvefold.cli import DEMOS
    return _dump(DEMOS[name])


def explore_spec_texts(seed):
    """One `explore` batch: parallel then orthodiagonal specs, theta auto."""
    rng = random.Random(seed)
    out = []
    for n_row, n_col in PARALLEL_SIZES:
        out.append(_dump({
            "type": "parallel-repeating",
            "datum": {"builtin": "fig4-spiralish"},
            "target": {"builtin": "fig5-exp", "scale": rng.uniform(*PARALLEL_SCALE)},
            "n_row": n_row, "n_col": n_col,
            "rho4": rng.uniform(*PARALLEL_RHO4),
            "theta": "auto",
            "eps": 10.0,
        }))
    for n, m in ORTHO_SIZES:
        out.append(_dump({
            "type": "orthodiagonal",
            "datum": {"builtin": "fig7-sine"},
            "target": {"builtin": "fig7-tlnt", "scale": rng.uniform(*ORTHO_SCALE)},
            "n": n, "m": m,
            "theta": "auto",
            "eps": rng.uniform(*ORTHO_EPS),
        }))
    return out


def spec_texts(workload, seed):
    if workload == "explore":
        return explore_spec_texts(seed)
    return [figure_spec_text(workload)]
