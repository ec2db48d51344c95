"""The tolerance table: its values are pinned, so that loosening or adding
a tolerance fails here, and no module keeps a threshold of its own."""
import ast
import re
from pathlib import Path

from curvefold import tolerances, verify

SRC = Path(tolerances.__file__).parent

#: every name of the table with its value
PINNED = {
    "DEV_TOL": 1e-10, "CLAMP_SLACK": 1e-12, "SECTOR_MARGIN": 1e-6, "FLAT_CUT": 1e-14,
    "RADICAND_SLACK": 1e-10, "MODE_ATOL": 1e-12, "MODE_RTOL": 1e-5,
    "MONOTONE_TOL": 1e-10, "COLLINEAR_TRIPLE": 1e-14, "XI_MARGIN": 1e-3,
    "TUBE_TURN_MARGIN": 0.05, "PRUNE_SLACK": 1e-9,
    "COLLINEAR_FRAME": 1e-13, "ROOT_SCAN_MARGIN": 1e-4, "TRANSFER_TOL": 1e-8,
    "ROW_DRIFT": 1e-8, "DEGENERATE_ANGLE": 1e-9, "COLUMN_ALIGN_REL": 1e-9,
    "RATIO_FLOOR": 1e-30,
    "LAYOUT_DEV_TOL": 1e-9, "CROSSING_REL": 1e-12,
    "HALT_TOL": 1e-6, "CLASH_REL": 1e-9, "COINCIDENT": 1e-9, "ZERO_AREA": 1e-30,
    "PARALLEL_SIN": 1e-12, "CLOSURE_REL": 1e-9, "FOLD_CONSISTENCY": 1e-7,
    "PREV_FLAT": 1e-8, "SIGN_FLOOR": 1e-12, "BRANCH_TOL": 1e-8, "LENGTH_FLOOR": 1e-12,
    "FLAT_STATE": 1e-9,
}

#: the check table of the invariant suite
PINNED_CHECKS = {
    "developability": 1e-10, "kawasaki": 1e-10, "coplanarity": 1e-8, "xi": 1e-8,
    "row_fold_equal": 1e-8, "closure": 1e-9, "separability": 1e-10, "phi": 1e-8,
    "halt_fold": 3e-6, "isometry": 1e-9, "opposite_folds": 1e-9, "perpendicular": 1e-8,
    "perpendicular_tangent": 1e-5,
}


def test_table_is_pinned():
    names = {k: v for k, v in vars(tolerances).items() if k.isupper() and k != "TOLERANCES"}
    assert names == PINNED
    assert tolerances.TOLERANCES == PINNED_CHECKS
    assert verify.TOLERANCES is tolerances.TOLERANCES


def test_table_is_a_leaf():
    tree = ast.parse((SRC / "tolerances.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_no_threshold_literal_outside_the_table():
    found = [f"{p.name}:{i}: {line.strip()}"
             for p in sorted(SRC.glob("*.py")) if p.name != "tolerances.py"
             for i, line in enumerate(p.read_text().splitlines(), 1)
             if re.search(r"\d(\.\d+)?e-\d", line)]
    assert not found, found
