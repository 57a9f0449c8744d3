"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: domain errors exit 2,
resource-guard refusals exit 3.
"""


class CayleyQmcError(Exception):
    """Base class for all package errors."""


class DomainError(CayleyQmcError):
    """Invalid or excluded parameters / inputs."""


class SingularParameterError(DomainError):
    """Parameters on an excluded singular set (e.g. J = +-J0)."""


class SolutionNotPositiveError(DomainError):
    """A formal fixed point exists but is not positive semidefinite."""


class ModelInconsistencyError(DomainError):
    """A numeric extraction violated a structural identity of the model."""


class ThresholdOverflowError(DomainError, OverflowError):
    """The region threshold overflows a float (beta below about 1e-308), not a coupling product.

    Still an OverflowError, as math's are, so a grid records it per line as it does theirs.
    """


class SeriesOverflowError(DomainError, OverflowError):
    """A closed-form series constant overflows a float at a point whose couplings times beta do not.

    An OverflowError, as math's and float powers' are, that names the point.
    """


class ResourceLimitError(CayleyQmcError):
    """Requested volume exceeds the dense brute-force guard."""
