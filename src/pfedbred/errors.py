"""Exception types, and the one rule for integer arguments, shared across the package."""

import numbers


def is_int(value) -> bool:
    """True for an integer of any integral type except bool; 2.5, 2.0 and True are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class DimensionError(ValueError):
    """Operands have mismatched shapes."""


class DomainError(ValueError):
    """A point lies outside the domain a mirror map requires."""


class NumericalError(ArithmeticError):
    """A non-finite value appeared during computation."""


class PartitionError(ValueError):
    """A client/data assignment cannot satisfy its constraints."""


class IdxFormatError(ValueError):
    """A binary IDX file violates the expected layout."""


class DegenerateInputError(ValueError):
    """Inputs are unusable for the requested statistic (zero vectors, too few of them, ...)."""


class ConfigError(ValueError):
    """Invalid or contradictory run configuration."""


class DivergenceError(RuntimeError):
    """Training produced exploding parameters."""

    def __init__(self, message: str, round_index: int | None = None,
                 client_index: int | None = None, step_index: int | None = None):
        super().__init__(message)
        self.round_index = round_index
        self.client_index = client_index
        self.step_index = step_index
