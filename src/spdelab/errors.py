"""Exception types shared across the package."""


class SpdelabError(Exception):
    """Base class for package errors."""


class SymbolClassError(SpdelabError):
    """A symbol violates the declared class preconditions (sign, realness)."""


class SymbolDomainError(SpdelabError):
    """Symbol evaluation produced NaN on the requested grid."""


class KernelValidityError(SpdelabError):
    """A covariance kernel failed a positivity requirement (Gram not PSD
    after the jitter ladder)."""


class AlignmentError(SpdelabError):
    """Step-function breakpoints do not sit on the sampled time grid."""


class HypothesisViolationError(SpdelabError):
    """A check was invoked outside its declared hypotheses."""


class SchemaError(SpdelabError):
    """Configuration did not validate against the expected schema."""
