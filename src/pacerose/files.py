"""Output files written whole or not at all, CSV text with one cell format,
and JSON files and values read strictly."""

from __future__ import annotations

import json
import numbers
import os
import tempfile
from typing import get_args

import numpy as np

from .errors import InputFormatError

__all__ = ["csv_text", "json_object", "json_value", "write_atomic"]

_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string",
               dict: "object", list[float]: "array of numbers",
               list[str]: "array of strings"}


def _is_kind(value, kind) -> bool:
    if get_args(kind):  # list[x]: a list of x
        return isinstance(value, list) and all(
            _is_kind(entry, get_args(kind)[0]) for entry in value)
    if kind is float:  # True is an int, so a numbers.Real, but not a number
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    return type(value) is kind


def json_object(path) -> dict:
    """The JSON object in the UTF-8 file at ``path``, with or without a byte
    order mark. ``Infinity`` reads as a float: an exact fit's model holds
    infinite t values. Raises InputFormatError naming ``path`` otherwise."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            payload = json.load(f)
        except (ValueError, RecursionError) as exc:
            raise InputFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputFormatError(f"{path}: expected a JSON object, got "
                               f"{type(payload).__name__}")
    return payload


def json_value(payload: dict, key: str, kind, default=None):
    """``payload[key]``, or ``default`` when given and the key is absent.

    ``kind`` is a key of ``_JSON_NAMES``. ``true`` is not a number and
    ``50.0`` not an integer. A number (a numpy one too) is returned as a
    float and a ``list[float]`` as a float ndarray. Raises ValueError naming
    the key when it is missing without a default or of another kind.
    """
    if key not in payload and default is None:
        raise ValueError(f"missing key {key}")
    value = payload.get(key, default)
    if not _is_kind(value, kind):
        raise ValueError(
            f"{key} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    try:
        if kind is float:
            return float(value)
        return np.array(value, dtype=float) if kind == list[float] else value
    except OverflowError:  # an integer such as 1 followed by 400 zeros
        raise ValueError(f"{key} is beyond the float range") from None


def write_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file and a rename.

    ``text`` is a string or an iterable of string chunks, each written as
    it arrives, so a generator's text is never held whole. ``path`` holds
    either its earlier content or all of ``text``; the temporary file is
    removed when the write fails, also when the iterable raises. The file
    gets the mode ``open()`` would give it under the process umask, not
    mkstemp's 0600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.writelines([text] if isinstance(text, str) else text)
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
