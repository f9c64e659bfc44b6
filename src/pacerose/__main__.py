"""The ``pacerose`` command line, for ``python -m pacerose`` and the
installed ``pacerose`` script."""

import sys

from .options import _parse_args


def main(argv=None) -> int:
    """Run the command ``argv`` names; returns the exit code.

    --help and usage errors exit in the parser, before the commands and
    numpy are imported.
    """
    args = _parse_args(argv)
    from .cli import _run

    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
