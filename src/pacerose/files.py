"""Output files written whole or not at all."""

from __future__ import annotations

import os
import tempfile

__all__ = ["write_atomic"]


def write_atomic(path, text: str):
    """Write ``text`` to ``path`` through a temporary file and a rename.

    ``path`` holds either its earlier content or all of ``text``; the
    temporary file is removed when the write fails. The file gets the mode
    ``open()`` would give it under the process umask, not mkstemp's 0600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
