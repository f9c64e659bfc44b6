"""Exception types shared across the package, and the one reader of input
files, which names the file in every error it raises.

The CLI maps these onto stable exit codes: input/format problems exit 2,
insufficient data exits 3, numerical or model-compatibility problems exit 4.
Only the standard library is imported here.
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
    """Design matrix is rank deficient; the message names its rank and the
    dependent columns."""


class SpecMismatchError(NumericalError):
    """A fitted model and a model specification disagree in shape."""


def read_input(path, parse, *args):
    """``parse(f, *args)`` of the UTF-8 text file ``f`` at ``path``, with or
    without a byte order mark. A byte that does not decode, and any
    PaceroseError raised meanwhile, which keeps its class, name the file."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return parse(f, *args)
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: byte 0x{exc.object[exc.start]:02x} "
                               f"is not UTF-8 ({exc.reason})") from None
    except PaceroseError as exc:
        # "<path> row 4: ...", "<path> line 2: ..." or "<path>: ..."
        sep = " " if str(exc).startswith(("row ", "line ")) else ": "
        exc.args = (f"{path}{sep}{exc}",)
        raise
