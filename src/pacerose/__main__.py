import sys

from .options import _parse_args

# --help and usage errors exit here, before the commands import numpy
args = _parse_args(None)

from .cli import _run  # noqa: E402

sys.exit(_run(args))
