"""Exception types shared across the package."""


class KlboundsError(Exception):
    """Base class for all library errors."""


class ParseError(KlboundsError, ValueError):
    """Malformed element text, type string, or subgroup spec."""


class InvalidCartanError(KlboundsError, ValueError):
    """Family/rank combination or Cartan matrix outside the supported tables."""


class EnumerationCapError(KlboundsError, RuntimeError):
    """An enumeration would exceed the configured element cap."""

    def __init__(self, message, cap):
        super().__init__(message)
        self.cap = cap


class NonParabolicError(KlboundsError, ValueError):
    """Reflection set does not generate a parabolic subgroup.

    Carries a witness reflection that lies in the parabolic closure but not
    in the generated subgroup.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class HypothesisError(KlboundsError, ValueError):
    """A theorem's hypothesis is violated by the given arguments."""
