"""JSON output with the bytes of ``json.dump(obj, fh, indent=1)``.

The standard library encodes every value in Python once it indents, which
is most of the time codesim spends on its frame diagonals.  This writer
emits the same text for dicts with str keys, lists, tuples, str, int,
bool, None and float, and it also takes three values whose text is
built in bulk:

- a 1-D float64 ndarray, written as its ``.tolist()``;
- a :class:`Table`, written as the list of dicts its rows stand for;
- a :class:`Words`, a list of str from a vocabulary encoded once.

A float column is formatted once per distinct bit pattern (``np.unique``
of its int64 view, which keeps 0.0 and -0.0 apart) and joined in C.

Non-finite floats raise ValueError: NaN and Infinity are not JSON.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np


class Table:
    """A list of dicts held as columns: ``[{key: column[r], ...} for r in rows]``.

    Each column is a 1-D float64 ndarray or a sequence of str, int, bool,
    None or float, all of one length; every dict has the columns' keys in
    their order.  The cells are formatted once, when the table is built;
    ``take`` selects rows of it (in any order, repeats allowed) and shares
    that text, so a payload that holds many row subsets of one table
    formats each column once.
    """

    __slots__ = ("_rows", "_keys", "_cells", "_texts")

    def __init__(self, columns: dict):
        lengths = {len(column) for column in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"table columns differ in length: {sorted(lengths)}")
        self._rows = np.arange(lengths.pop() if lengths else 0)
        self._keys = [encode_basestring_ascii(key) for key in columns]  # TypeError if not str
        self._cells = [_cell_texts(column) for column in columns.values()]
        self._texts: dict[str, np.ndarray] = {}  # row texts per indent, shared by take()

    def take(self, rows) -> "Table":
        """The table of the given rows of this one, in that order."""
        sub = object.__new__(Table)
        sub._keys, sub._cells, sub._texts = self._keys, self._cells, self._texts
        sub._rows = self._rows[np.asarray(rows, dtype=np.intp)]
        return sub

    def _text(self, newline: str) -> str:
        """The indented list text of the rows; newline is the line break and indent."""
        if not len(self._rows):
            return "[]"
        inner = newline + " "
        texts = self._texts.get(inner)
        if texts is None:
            texts = self._texts[inner] = self._row_texts(inner)
        return "[" + inner + ("," + inner).join(texts[self._rows].tolist()) + newline + "]"

    def _row_texts(self, newline: str) -> np.ndarray:
        """Every row's dict text at the depth newline names."""
        inner = newline + " "
        texts = "{" + inner + self._keys[0] + ": " + self._cells[0]
        for key, cells in zip(self._keys[1:], self._cells[1:]):
            texts = texts + ("," + inner + key + ": ") + cells
        return texts + (newline + "}")


class Words:
    """A list of str drawn from a fixed vocabulary, written from shared texts.

    ``Words(vocabulary)`` encodes every word of the vocabulary once and is
    the empty list; ``take(items)`` is the list of the given words, each
    of which must be in the vocabulary.  Many lists over one vocabulary
    then encode no word twice.
    """

    __slots__ = ("_texts", "_items")

    def __init__(self, vocabulary):
        self._texts = {word: encode_basestring_ascii(word) for word in vocabulary}
        self._items = ()

    def take(self, items) -> "Words":
        """The list of the given words, over this vocabulary's texts."""
        sub = object.__new__(Words)
        sub._texts, sub._items = self._texts, items
        return sub

    def _text(self, newline: str) -> str:
        """The indented list text; newline is the line break and indent."""
        if not self._items:
            return "[]"
        inner = newline + " "
        return ("[" + inner + ("," + inner).join(map(self._texts.__getitem__, self._items))
                + newline + "]")


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
        texts = [_scalar(item) for item in obj]
        if None not in texts:
            write("[" + inner + ("," + inner).join(texts) + newline + "]")
            return
        lead = "[" + inner
        for item, text in zip(obj, texts):
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
    elif isinstance(obj, (Table, Words)):
        write(obj._text(newline))
    elif isinstance(obj, np.ndarray):
        write(_array_text(obj, newline))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _array_text(values: np.ndarray, newline: str) -> str:
    """A 1-D float64 array as the indented list of its float reprs."""
    texts = _float_texts(values)
    if not len(texts):
        return "[]"
    inner = newline + " "
    return "[" + inner + ("," + inner).join(texts.tolist()) + newline + "]"


def _float_texts(values: np.ndarray) -> np.ndarray:
    """The float reprs of a 1-D float64 array, as an object array."""
    if values.dtype != np.float64 or values.ndim != 1:
        raise TypeError(f"only 1-D float64 arrays are written, not {values.dtype} "
                        f"of shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("array holds a value that is not a JSON number")
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([float.__repr__(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[where]


def _cell_texts(column) -> np.ndarray:
    """The JSON texts of a table column, as an object array."""
    if isinstance(column, np.ndarray):
        return _float_texts(column)
    texts = [_scalar(value) for value in column]
    if None in texts:
        bad = column[texts.index(None)]
        raise TypeError(f"Object of type {type(bad).__name__} is not JSON serializable")
    return np.array(texts, dtype=object)
