"""Exception taxonomy for design, simulation and I/O failures."""


class CurvefoldError(Exception):
    """Base class for all library errors."""


class ClosedCurve(CurvefoldError):
    """A closed curve was given where an open arc is required."""


class NotAdmissible(CurvefoldError):
    """Transformed curve is not strictly monotone decreasing."""


class DegenerateTurn(CurvefoldError):
    """A partition turn angle left the open interval (0, pi)."""


class TubeSelfIntersect(CurvefoldError):
    """Offset distance exceeds the minimal radius of curvature."""


class OutOfRange(CurvefoldError):
    """An inverse-trig argument or folding state left its valid domain."""


class NoSolution(CurvefoldError):
    """Sector-angle equations have no root in the valid region."""

    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


class LayoutError(CurvefoldError):
    """A drawn layout failed its own consistency check (staircase corners,
    segment axes, row translation, column alignment)."""


class DegenerateAngle(CurvefoldError):
    """A sector angle collided with 0, pi/2 or pi."""


class CreaseIntersection(CurvefoldError):
    """Two creases of the planar pattern cross away from shared vertices."""

    def __init__(self, msg, pair=None, suggestion=None):
        super().__init__(msg)
        self.pair = pair
        self.suggestion = suggestion


class NotRigidFoldable(CurvefoldError):
    """Closure residual of the folded state exceeded tolerance."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class NoHalt(CurvefoldError):
    """Driving angle reached pi without any clash or crease at pi."""


class SchemaError(CurvefoldError):
    """Malformed design-spec or FOLD document."""


class NotQuadGrid(SchemaError):
    """Imported pattern is not a quadrilateral grid."""
