"""Exception hierarchy for validation, move and torsion failures."""


class SpineError(Exception):
    """Base class for all structured errors raised by this package."""


class SpineSyntaxError(SpineError):
    """Malformed spine file; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class ValidationError(SpineError):
    """A triangulation or branching invariant is violated."""


class UnpairedFace(ValidationError):
    """The gluing map is not a fixed-point-free involution on (tet, face) pairs."""


class Disconnected(ValidationError):
    """The tetrahedra are not connected through face gluings."""


class NonOrientable(ValidationError):
    """No orientation of the tetrahedra makes every gluing orientation-reversing."""


class CyclicTriangle(ValidationError):
    """Some triangle has a cyclic orientation of its edges."""


class MoveError(SpineError):
    """A requested local move cannot be performed."""


class SelfAdjacentFace(MoveError):
    """The two sides of the face belong to the same tetrahedron."""


class NotApplicable(MoveError):
    """The configuration at the chosen site does not match the move pattern."""


class Stuck(MoveError):
    """No applicable move is available from the current spine."""


class TorsionError(SpineError):
    """Torsion computation failure."""


class NotAcyclicNoBasis(TorsionError):
    """Twisted homology is nonzero and no homology basis was supplied."""


class BasisRankMismatch(TorsionError):
    """A supplied homology basis has the wrong rank or is degenerate."""


class RelatorNotKilled(SpineError):
    """A representation does not send every face relator to 1."""


class TransportFailure(SpineError):
    """A homology basis could not be carried across a move correspondence.

    Raised by an invariance run, it names the walk ``step`` (0-based) and
    its ``move`` (``moves.describe_move``); both are None otherwise.
    """

    step = move = None
