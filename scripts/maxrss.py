#!/usr/bin/env python3
"""Run ``python -m pacerose ARGS...`` and print the child's peak memory.

    python scripts/maxrss.py ARGS...

The child gets this script's environment, so ``PYTHONPATH=src`` selects the
tree it runs. After the child's own output, the last line printed is its
``ru_maxrss`` in kB, read from ``os.wait4``; the script exits with the
child's exit code. It imports neither numpy nor pacerose: Linux carries the
launcher's high-water mark across the exec, so the launcher must stay
smaller than the child for the figure to be the child's own.
"""

import os
import sys


def main(argv) -> int:
    pid = os.posix_spawn(sys.executable,
                         [sys.executable, "-m", "pacerose", *argv], os.environ)
    _, status, usage = os.wait4(pid, 0)
    print(usage.ru_maxrss)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
