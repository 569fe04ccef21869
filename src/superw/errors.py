"""Exception types shared across the package."""


class RankMismatchError(ValueError):
    """Operands live at different ranks."""


class RankTooSmallError(ValueError):
    """The requested rank cannot accommodate the given partition data."""


class InhomogeneousError(ValueError):
    """A graded quantity was requested for a non-homogeneous element."""


class NonBasisElementError(ValueError):
    """The operation needs a scalar multiple of a single basis term."""


class IsomorphismUndecidedError(ValueError):
    """No basis map of a hom space of dimension above 1 is invertible, so
    whether some combination is remains open."""
