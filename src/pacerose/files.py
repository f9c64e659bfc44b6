"""Output files written whole or not at all, CSV text with one cell format,
and JSON values read strictly."""

from __future__ import annotations

import os
import tempfile

import numpy as np

__all__ = ["csv_text", "json_value", "write_atomic"]

_JSON_TYPES = {bool: "boolean", int: "integer"}


def json_value(payload: dict, key: str, kind: type, default=None):
    """``payload[key]``, or ``default`` when given and the key is absent.

    The value must be a JSON value of ``kind``, bool or int: ``true`` is not
    an integer and ``50.0`` is not one either. Raises KeyError for a missing
    key without a default and ValueError naming the key for a value of
    another type.
    """
    value = payload[key] if default is None else payload.get(key, default)
    if type(value) is not kind:
        raise ValueError(
            f"{key} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


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


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return repr(float(value))


def csv_text(rows, header=None) -> str:
    """CSV text of the ``header`` names, if any, and ``rows``, one line each.

    A text cell is written as it is, a bool (checked first: True is an int)
    as ``true`` or ``false``, an integer with ``str`` and any other number
    as ``repr(float(x))``, which reads back to the same bits; numpy scalars
    as the Python values they hold.
    """
    text = "".join(",".join(map(_cell, row)) + "\n" for row in rows)
    return text if header is None else ",".join(header) + "\n" + text
