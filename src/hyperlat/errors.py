"""Exception hierarchy shared by all hyperlat modules.

Input-validation failures derive from :class:`InputError` (CLI exit code 1),
resource-cap failures from :class:`BudgetError` (CLI exit code 2).
"""


class HyperlatError(Exception):
    """Base class for all hyperlat errors."""


class InputError(HyperlatError):
    """Malformed or inconsistent input data."""


class BudgetError(HyperlatError):
    """A configured search or size cap was exceeded."""


# -- lattice construction ---------------------------------------------------

class NotSymmetric(InputError):
    pass


class Degenerate(InputError):
    pass


class InvalidParameter(InputError):
    pass


class DimensionMismatch(InputError):
    pass


# -- quadratic-form searches ------------------------------------------------

class BudgetExceeded(BudgetError):
    pass


# -- hyperbolic models ------------------------------------------------------

class NotIsotropic(InputError):
    pass


class NotPrimitive(InputError):
    pass


class DifferentAmbient(InputError):
    pass


class NotInCone(InputError):
    pass


# -- isometries ---------------------------------------------------------------

class NotOrthogonal(InputError):
    pass


class WrongComponent(InputError):
    pass


class EllipticHasNoBoundaryFixedPoint(InputError):
    pass


class WrongNorm(InputError):
    pass


class NonIntegralResult(InputError):
    pass


class OrderCapExceeded(BudgetError):
    pass


# -- groups and domains -------------------------------------------------------

class FixedBasepoint(InputError):
    pass


class DimensionBudgetExceeded(BudgetError):
    pass


class OnWall(InputError):
    pass


# -- criteria -----------------------------------------------------------------

class WrongSignature(InputError):
    pass
