"""JSON output with the bytes of ``json.dump(obj, fh, indent=1)``.

This writer emits the same text for dicts with str keys, lists, tuples,
str, int, bool, None and float, and for a :class:`Table`, whose text is
built in bulk: it is written as the list of dicts its rows stand for, and
a column is a sequence of those scalars, a 1-D float64 ndarray, or a
sequence of cells each written as a JSON list: 1-D float64 or int64
ndarrays, lists of str, or Tables.

A float column is formatted once per distinct bit pattern, found by one
pass over the whole column: ``np.sort`` of its int64 view (which keeps 0.0
and -0.0 apart) and a mask of where adjacent entries differ give the
distinct values, and ``np.searchsorted`` finds each entry's text among
theirs.  A column of float arrays takes that pass over their
concatenation, copied and sorted in runs of bounded size; a column of str
lists encodes each distinct str once; and the list text of each row is
built from those texts only when the row is written.

Non-finite floats raise ValueError, a Table's when it is built: NaN and
Infinity are not JSON.
"""

from __future__ import annotations

import itertools
import math
from json.encoder import encode_basestring_ascii

import numpy as np

_RUN_ENTRIES = 1 << 14  # floats a distinct-value pass sorts at once: 128 KiB


class Table:
    """A list of dicts held as columns: ``[{key: column[r], ...} for r in rows]``.

    Each column is a 1-D float64 ndarray, a sequence of str, int, bool,
    None or float, or a sequence of list cells (see _Lists); the columns
    have one length, and every dict has their keys in their order.  The
    cells are formatted when the table is built, list cells from their
    column's distinct texts when their row is written.  ``take`` selects
    rows (in any order, repeats allowed) and shares that text, so a payload
    that holds many row subsets of one table formats each column once.
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
                cells.write(r, write, deeper)
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
    """A Table column whose cells are written as JSON lists, each when its row is.

    The cells are 1-D ndarrays, all float64 or all int64; lists or tuples
    of str, each distinct str encoded once; or Tables.  A float column keeps
    its distinct bit patterns, sorted, with their texts; a str column keeps
    each str's text.
    """

    __slots__ = ("_cells", "_keys", "_texts")

    def __init__(self, cells):
        kinds = {(v.dtype, v.ndim) if isinstance(v, np.ndarray) else type(v) for v in cells}
        self._keys = self._texts = None
        if kinds == {(np.dtype(np.float64), 1)}:
            self._keys, self._texts = _float_texts(cells)
        elif kinds <= {list, tuple}:
            words = dict.fromkeys(itertools.chain.from_iterable(cells))
            self._texts = {w: encode_basestring_ascii(w) for w in words}  # TypeError if not str
        elif kinds not in ({(np.dtype(np.int64), 1)}, {Table}):
            raise TypeError("list cells must be float64 arrays, int64 arrays, str lists or Tables")
        self._cells = cells

    def __len__(self) -> int:
        return len(self._cells)

    def write(self, row: int, write, newline: str) -> None:
        """Pass the list text of one row to write; newline is the line break and indent."""
        cell = self._cells[row]
        if isinstance(cell, Table):
            cell._write(write, newline)
            return
        if not len(cell):
            write("[]")
            return
        if self._keys is not None:
            items = self._texts[np.searchsorted(self._keys, cell.view(np.int64))].tolist()
        elif self._texts is not None:
            items = map(self._texts.__getitem__, cell)
        else:
            items = map(int.__repr__, cell.tolist())
        inner = newline + " "
        write("[" + inner + ("," + inner).join(items) + newline + "]")


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
    if len(column) and isinstance(column[0], (np.ndarray, list, tuple, Table)):
        return _Lists(column)
    texts = [_scalar(value) for value in column]
    if None in texts:
        bad = column[texts.index(None)]
        raise TypeError(f"Object of type {type(bad).__name__} is not JSON serializable")
    return np.array(texts, dtype=object)
