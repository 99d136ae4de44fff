"""Exception hierarchy shared by all simulator modules."""


class QCollapseError(Exception):
    """Base class for all simulator errors."""


class ValidationError(QCollapseError):
    """A value violates one of the documented invariants."""


class ParseError(QCollapseError):
    """A configuration document is malformed or contains unknown keys."""


class GridTooCoarse(ValidationError):
    """A packet's width or momentum is not resolvable on the grid."""


class BoundaryClipping(QCollapseError):
    """Too much probability mass sits near the periodic grid boundary."""


class GridMismatch(QCollapseError):
    """Two states live on different grids."""


class UnstableStep(QCollapseError):
    """Norm drifted beyond tolerance during a propagation step."""


class NonHermitianResidue(QCollapseError):
    """Expectation value came out with a non-negligible imaginary part."""


class ObservableNotPositiveOnSupport(QCollapseError):
    """Gate observable is not strictly positive on the support interval."""


class NotWeaklyInterfering(QCollapseError):
    """Branch packets overlap too much for collapse semantics to apply."""


class IndexOutOfRange(QCollapseError, IndexError):
    """Branch index does not exist in the decomposition."""


class ApparatusNotReady(QCollapseError):
    """Apparatus state does not pass the wave-packet gate."""


class TransitionNotReached(QCollapseError):
    """Measurement attempted before the order parameter crossed critical."""
