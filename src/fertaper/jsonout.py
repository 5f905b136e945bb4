"""JSON output with the bytes of ``json.dump(obj, fh, indent=1)``.

This writer emits the same text for dicts with str keys, lists, tuples,
str, int, bool, None and float, and it also takes two values whose text is
built in bulk:

- a :class:`Table`, written as the list of dicts its rows stand for; a
  column is a sequence of those scalars, a 1-D float64 ndarray, or a
  sequence of 1-D float64 or int64 ndarrays, each cell of which is written
  as a JSON list;
- a :class:`Words`, a list of str from a vocabulary encoded once.

A float column is formatted once per distinct bit pattern, found by one
pass over the whole column: ``np.sort`` of its int64 view (which keeps 0.0
and -0.0 apart) and a mask of where adjacent entries differ give the
distinct values, and ``np.searchsorted`` finds each entry's text among
theirs.  A column of float arrays takes that pass over their
concatenation, copied and sorted in runs of bounded size, and the list
text of each row is built from the distinct texts only when the row is
written.

Non-finite floats raise ValueError, a Table's when it is built: NaN and
Infinity are not JSON.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

_RUN_ENTRIES = 1 << 14  # floats a distinct-value pass sorts at once: 128 KiB


class Table:
    """A list of dicts held as columns: ``[{key: column[r], ...} for r in rows]``.

    Each column is a 1-D float64 ndarray, a sequence of str, int, bool,
    None or float, or a sequence of 1-D ndarrays, all float64 or all
    int64, each written as a JSON list; the columns have one length, and
    every dict has their keys in their order.  The cells are formatted
    when the table is built, except each row's lists, which are built from
    their column's distinct texts when the row is written.  ``take``
    selects rows (in any order, repeats allowed) and shares that text, so
    a payload that holds many row subsets of one table formats each column
    once.
    """

    __slots__ = ("_rows", "_keys", "_cells", "_parts")

    def __init__(self, columns: dict):
        lengths = {len(column) for column in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"table columns differ in length: {sorted(lengths)}")
        self._rows = np.arange(lengths.pop() if lengths else 0)
        self._keys = [encode_basestring_ascii(key) for key in columns]  # TypeError if not str
        self._cells = [_cell_texts(column) for column in columns.values()]
        self._parts: dict[str, list] = {}  # row texts per indent, shared by take()

    def take(self, rows) -> "Table":
        """The table of the given rows of this one, in that order."""
        sub = object.__new__(Table)
        sub._keys, sub._cells, sub._parts = self._keys, self._cells, self._parts
        sub._rows = self._rows[np.asarray(rows, dtype=np.intp)]
        return sub

    def _write(self, write, newline: str) -> None:
        """Pass the indented list text of the rows to write; newline is the line
        break and indent.  A table with list cells is written row by row."""
        if not len(self._rows):
            write("[]")
            return
        inner = newline + " "
        parts = self._parts.get(inner)
        if parts is None:
            parts = self._parts[inner] = self._row_parts(inner)
        if len(parts) == 1:
            write("[" + inner + ("," + inner).join(parts[0][self._rows].tolist())
                  + newline + "]")
            return
        lists = [cells for cells in self._cells if isinstance(cells, _Lists)]
        deeper, lead = inner + " ", "[" + inner
        for r in self._rows.tolist():
            write(lead + parts[0][r])
            for cells, part in zip(lists, parts[1:]):
                write(cells.text(r, deeper))
                write(part[r])
            lead = "," + inner
        write(newline + "]")

    def _row_parts(self, newline: str) -> list[np.ndarray]:
        """Every row's dict text at the depth newline names, cut where list cells go."""
        inner = newline + " "
        parts, text, sep = [], "{", inner
        for key, cells in zip(self._keys, self._cells):
            text = text + (sep + key + ": ")
            if isinstance(cells, _Lists):
                parts.append(text)
                text = ""
            else:
                text = text + cells
            sep = "," + inner
        parts.append(text + (newline + "}"))
        rows = len(self._cells[0])
        return [np.full(rows, part, dtype=object) if isinstance(part, str) else part
                for part in parts]


class _Lists:
    """A Table column of 1-D arrays: each row's list text, built when asked."""

    __slots__ = ("_arrays", "_keys", "_texts")

    def __init__(self, arrays):
        kinds = {(v.dtype, v.ndim) if isinstance(v, np.ndarray) else type(v) for v in arrays}
        if kinds == {(np.dtype(np.float64), 1)}:
            self._keys, self._texts = _float_texts(arrays)
        elif kinds == {(np.dtype(np.int64), 1)}:
            self._keys = self._texts = None  # ints: formatted as written
        else:
            raise TypeError("list cells must be 1-D arrays, all float64 or all int64")
        self._arrays = arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def text(self, row: int, newline: str) -> str:
        """The indented list text of one row; newline is the line break and indent."""
        values = self._arrays[row]
        if not len(values):
            return "[]"
        if self._keys is None:
            items = map(int.__repr__, values.tolist())
        else:
            items = self._texts[np.searchsorted(self._keys, values.view(np.int64))].tolist()
        inner = newline + " "
        return "[" + inner + ("," + inner).join(items) + newline + "]"


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
    elif isinstance(obj, Table):
        obj._write(write, newline)
    elif isinstance(obj, Words):
        write(obj._text(newline))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_texts(arrays) -> tuple[np.ndarray, np.ndarray]:
    """The distinct int64 bit patterns of a sequence of 1-D float64 arrays,
    sorted, and their float reprs as an object array.

    The arrays are copied and sorted in runs of about _RUN_ENTRIES entries,
    so the pass holds at most one run's copy beside them.
    """
    runs, run, size = [], [], 0
    for values in arrays:
        if values.dtype != np.float64 or values.ndim != 1:
            raise TypeError(f"only 1-D float64 arrays are written, not {values.dtype} "
                            f"of shape {values.shape}")
        run.append(values)
        size += len(values)
        if size >= _RUN_ENTRIES:
            runs.append(_distinct_bits(np.concatenate(run)))
            run, size = [], 0
    runs.append(_distinct_bits(np.concatenate(run or [np.empty(0)])))
    keys = _distinct_bits(np.concatenate(runs))
    numbers = keys.view(np.float64)
    if not np.isfinite(numbers).all():
        raise ValueError("array holds a value that is not a JSON number")
    return keys, np.array([float.__repr__(v) for v in numbers.tolist()], dtype=object)


def _distinct_bits(values: np.ndarray) -> np.ndarray:
    """The distinct int64 bit patterns of a 1-D 8-byte array, sorted; the
    array is sorted in place."""
    bits = values.view(np.int64)
    bits.sort()
    first = np.empty(len(bits), dtype=bool)  # first of its run of equal patterns
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    return bits[first]


def _cell_texts(column) -> np.ndarray | _Lists:
    """The JSON texts of a table column, as an object array, or its list cells."""
    if isinstance(column, np.ndarray):
        keys, texts = _float_texts([column])
        return texts[np.searchsorted(keys, column.view(np.int64))]
    if len(column) and isinstance(column[0], np.ndarray):
        return _Lists(column)
    texts = [_scalar(value) for value in column]
    if None in texts:
        bad = column[texts.index(None)]
        raise TypeError(f"Object of type {type(bad).__name__} is not JSON serializable")
    return np.array(texts, dtype=object)
