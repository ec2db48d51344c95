"""Every threshold the library compares against.  One name is one
decision: equal values that decide different things keep names of their
own.  Block and schedule sizes stay with their modules."""

# sector angles and the vertex kernel (kinematics)
DEV_TOL = 1e-10          # developability: sector sum vs 2*pi
CLAMP_SLACK = 1e-12      # |arccos arg| may exceed 1 by at most this
SECTOR_MARGIN = 1e-6     # sectors valid in (margin, pi - margin)
FLAT_CUT = 1e-14         # |input fold| below this is the flat state
RADICAND_SLACK = 1e-10   # r^2 may fall below 0 by this much times 1 + z^2
MODE_ATOL = 1e-12        # mode -1 within MODE_ATOL + MODE_RTOL |rho| of mode +1
MODE_RTOL = 1e-5         # on every crease is the same branch
# curves, partitions and staircases (geometry)
MONOTONE_TOL = 1e-10     # monotone image steps: a tie would drive a staircase turn to 0 or pi
COLLINEAR_TRIPLE = 1e-14  # |cross| of consecutive polyline segments below this has no dihedral
XI_MARGIN = 1e-3         # xi kept in (margin, pi - margin), so 1/sin(xi) stays finite
TUBE_TURN_MARGIN = 0.05  # a tube partition's turns stay this far below pi
PRUNE_SLACK = 1e-9       # distance-bound pruning slack, x coordinate scale: far above rounding
# row and grid design (parallel, ortho)
COLLINEAR_FRAME = 1e-13  # a crease frame whose reference is this close to its axis has no plane
ROOT_SCAN_MARGIN = 1e-4  # the next row vertex's root scan runs over (margin, pi - margin)
TRANSFER_TOL = 1e-8      # a transfer sign branch matches a solved vertex within this
ROW_DRIFT = 1e-8         # parallel layout: perpendicular drift of translated rows
DEGENERATE_ANGLE = 1e-9  # an ortho grid angle this close to 0, pi/2 or pi is degenerate
COLUMN_ALIGN_REL = 1e-9  # ortho layout: column-line misalignment, x |x| (relative at every scale)
RATIO_FLOOR = 1e-30      # separability: denominator floor of the relative tan-ratio residual
# drawn patterns (pattern)
LAYOUT_DEV_TOL = 1e-9    # assemble_grid: a drawn layout's sector-sum residual (winding)
CROSSING_REL = 1e-12     # check_embeddable: orientation slack, x diameter^2 (length^2 units)
# folding, placement and clash tests (foldsim)
HALT_TOL = 1e-6          # a crease at pi - HALT_TOL halts the motion
CLASH_REL = 1e-9         # clash_test: penetration depth that counts, x diameter
COINCIDENT = 1e-9        # clash_test: a crease this close to pi lays its panels on each other
ZERO_AREA = 1e-30        # clash_test: a triangle whose |e1 x e2| is below this has no plane
PARALLEL_SIN = 1e-12     # clash_test: unit normals whose cross is shorter meet in no line
CLOSURE_REL = 1e-9       # coordinate closure, relative to pattern diameter
FOLD_CONSISTENCY = 1e-7  # fold-angle agreement between vertex sweeps (rad)
PREV_FLAT = 1e-8         # a previous state below this everywhere counts as flat
SIGN_FLOOR = 1e-12       # a fold's mountain/valley sign counts above this (rad)
BRANCH_TOL = 1e-8        # bootstrap_mv: a mode agrees with the folds written before it
LENGTH_FLOOR = 1e-12     # floor of a length divided by: pattern diameter, panel distance
# the invariant suite (verify)
FLAT_STATE = 1e-9        # a state with every |rho| below this is flat: no xi or phi
TOLERANCES = {
    "developability": DEV_TOL,
    "kawasaki": 1e-10,
    "coplanarity": 1e-8,          # x pattern diameter
    "xi": 1e-8,
    "row_fold_equal": 1e-8,
    "closure": CLOSURE_REL,       # x pattern diameter
    "separability": 1e-10,        # relative on tan ratios
    "phi": 1e-8,
    # all halting-column creases are designed to reach pi together, but
    # the sweep stops when the first one crosses pi - HALT_TOL, leaving
    # the rest a fraction of that behind
    "halt_fold": 3e-6,
    "isometry": 1e-9,             # relative
    "opposite_folds": 1e-9,
    "perpendicular": 1e-8,
    # tangent containment degrades linearly with the pi - HALT_TOL halting
    # offset, so it cannot be checked tighter than ~1e-5 at the swept halt
    "perpendicular_tangent": 1e-5,
}
