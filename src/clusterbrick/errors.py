"""Exception types shared across the package."""


class ClusterBrickError(Exception):
    """Base class for all package errors."""


class InvalidCartanType(ClusterBrickError):
    """Requested (family, rank) is not a finite crystallographic type."""


class InvalidCartanMatrix(ClusterBrickError):
    """Matrix fails the finite-type Cartan matrix invariants."""


class NotInRootLattice(ClusterBrickError):
    """Weight-coordinate vector is not an integer combination of simple roots."""


class InexactDivision(ClusterBrickError):
    """A Laurent division that must be exact left a remainder."""


class InvariantViolation(ClusterBrickError):
    """An internal structural invariant failed; signals an implementation bug."""


class DimensionMismatch(ClusterBrickError):
    """Operands live in different ambient dimensions."""


class ResourceLimit(ClusterBrickError):
    """A computation would exceed a fixed size limit of the engine.

    Not a ValueError: the input is well formed, but too large for the
    engine as built.
    """
