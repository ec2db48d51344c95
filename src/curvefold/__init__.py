"""curvefold: design developable quad crease patterns whose 1-DOF rigid
folding halts on prescribed curves, and simulate that folding."""

from . import curves
from .errors import (ClosedCurve, CreaseIntersection, CurvefoldError,
                     DegenerateAngle, DegenerateTurn, NoHalt, NoSolution,
                     NotAdmissible, NotQuadGrid, NotRigidFoldable, OutOfRange,
                     SchemaError, TubeSelfIntersect)
from .geometry import (AffineParams, Partition, PolyCurve, affine_map,
                       affine_unmap, hausdorff, is_admissible,
                       measure_polyline, partition_tube, partition_uniform,
                       search_theta, staircase)
from .kinematics import VertexAngles, row_transfer_residual, solve_first_vertex
from .pattern import CreasePattern, DesignReport, check_embeddable
from .parallel import ParallelDesignSpec, build_pattern, xi_recurrence
from .ortho import (OrthoAngleGrid, OrthoDesignSpec, alpha_left,
                    build_ortho_pattern, ortho_xi, propagate_grid,
                    validate_alpha11)
from .foldsim import FoldedState, Trajectory, clash_test, propagate, sweep_to_halt

__version__ = "0.1.0"
