"""Exception types shared across the package.

The CLI maps these onto stable exit codes: input/format problems exit 2,
insufficient data exits 3, numerical or model-compatibility problems exit 4.
"""


class PaceroseError(Exception):
    """Base class for all package-specific errors."""


class InputFormatError(PaceroseError):
    """Malformed input file, header, row, or scenario description."""


class InsufficientDataError(PaceroseError):
    """Not enough samples to carry out the requested computation."""


class NumericalError(PaceroseError):
    """A numerical contract was violated (rank, conditioning, spec shape)."""


class RankDeficiencyError(NumericalError):
    """Design matrix is rank deficient; carries the offending column names."""

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class SpecMismatchError(NumericalError):
    """A fitted model and a model specification disagree in shape."""
