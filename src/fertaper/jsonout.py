"""JSON output with the bytes of ``json.dump(obj, fh, indent=1)``.

The standard library encodes every value in Python once it indents, which
is most of the time codesim spends on its frame diagonals.  This writer
emits the same text for dicts with str keys, lists, tuples, str, int,
bool, None and float, and it also takes a 1-D float64 ndarray in place of
its ``.tolist()``.  An array is formatted once per distinct bit pattern
(``np.unique`` of its int64 view, which keeps 0.0 and -0.0 apart) and
joined in C.

Non-finite floats raise ValueError: NaN and Infinity are not JSON.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np


def dump(obj, fh) -> None:
    """Write obj to a text file as json.dump(obj, fh, indent=1) would, piece by piece."""
    _encode(obj, fh.write, "\n")


def _scalar(obj) -> str | None:
    """The text of a str, None, bool, int or float; None for anything else."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{obj!r} is not a JSON number")
        return float.__repr__(obj)
    return None


def _encode(obj, write, newline: str) -> None:
    """Pass obj's text to write in pieces; newline is the line break and indent at its depth."""
    text = _scalar(obj)
    if text is not None:
        write(text)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + " "
        lead = "[" + inner
        for item in obj:
            text = _scalar(item)
            if text is None:
                write(lead)
                _encode(item, write, inner)
            else:
                write(lead + text)
            lead = "," + inner
        write(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + " "
        lead = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            text = _scalar(value)
            if text is None:
                write(lead + encode_basestring_ascii(key) + ": ")
                _encode(value, write, inner)
            else:
                write(lead + encode_basestring_ascii(key) + ": " + text)
            lead = "," + inner
        write(newline + "}")
    elif isinstance(obj, np.ndarray):
        write(_array_text(obj, newline))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _array_text(values: np.ndarray, newline: str) -> str:
    """A 1-D float64 array as the indented list of its float reprs."""
    if values.dtype != np.float64 or values.ndim != 1:
        raise TypeError(f"only 1-D float64 arrays are written, not {values.dtype} "
                        f"of shape {values.shape}")
    if not len(values):
        return "[]"
    if not np.isfinite(values).all():
        raise ValueError("array holds a value that is not a JSON number")
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([float.__repr__(v) for v in bits.view(np.float64).tolist()], dtype=object)
    inner = newline + " "
    return "[" + inner + ("," + inner).join(texts[where].tolist()) + newline + "]"
