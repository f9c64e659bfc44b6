"""Output files written whole or not at all, CSV text with one cell format,
and JSON objects and values read strictly from files ``errors.read_input``
opens, which names the file in each error."""

from __future__ import annotations

import json
import numbers
import os
import tempfile
from typing import get_args

import numpy as np

from .errors import InputFormatError

__all__ = ["csv_text", "json_object", "json_value", "write_atomic"]

_FORMATS = {"f": repr, "b": ("false", "true").__getitem__}  # others: str
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


def json_object(f) -> dict:
    """The JSON object in the text file ``f``. ``Infinity`` reads as a
    float: an exact fit's model holds infinite t values. Raises
    InputFormatError otherwise; ``errors.read_input`` names the file."""
    text = f.read()  # a byte that does not decode is not a JSON ValueError
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputFormatError(
            f"expected a JSON object, got {type(payload).__name__}")
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


def _cells(values):
    """The text of each cell of an ndarray or list, by its dtype's rule. A
    list's text is written as given: numpy's str dtype drops trailing NULs."""
    array = np.asarray(values)
    if array.dtype.kind in _FORMATS:
        return map(_FORMATS[array.dtype.kind], array.tolist())
    return map(str, values if isinstance(values, list) else array.tolist())


def csv_text(columns, header=None) -> str:
    """CSV text of the ``header`` names, if any, and the rows of ``columns``.

    A column is a ``str``, written in every row, or a 1-D sequence such as
    an ndarray, ``range`` or one-shot iterator, all of one length (else
    ValueError). By the column's numpy dtype, a float cell is the ``repr``
    of its ``.tolist()`` value, which reads back to the same bits, a bool
    ``true`` or ``false``, and any other cell its ``str``.
    """
    columns = [c if isinstance(c, (str, np.ndarray)) else list(c)
               for c in columns]
    rows = max((len(c) for c in columns if not isinstance(c, str)), default=0)
    cells = [[c] * rows if isinstance(c, str) else _cells(c) for c in columns]
    text = "".join(",".join(row) + "\n" for row in zip(*cells, strict=True))
    return text if header is None else ",".join(header) + "\n" + text
