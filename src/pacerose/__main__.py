"""The ``pacerose`` command line, for ``python -m pacerose`` and the
installed ``pacerose`` script."""

import gc
import sys

from .options import _parse_args


def main(argv=None) -> int:
    """Run the command ``argv`` names; returns the exit code.

    --help and usage errors exit in the parser, before the commands and
    numpy are imported. For a command that runs, the cyclic garbage
    collector stays off while the commands are imported, and the objects
    the imports made, which live until exit and are never garbage, are
    then frozen, so that no collection walks them again, at exit included.
    The command's own objects are collected as usual.
    """
    args = _parse_args(argv)
    gc.disable()
    try:
        from .cli import _run

        gc.freeze()
    finally:
        gc.enable()
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
