"""Shared exception types."""


class RadiusCapError(ValueError):
    """Requested generation radius exceeds the configured cap."""


class CodomainTooSmallError(ValueError):
    """Map propagation left the generated portion of the target complex."""


class BudgetError(ValueError):
    """A table would need more memory than the fixed budget allows."""
