"""JSON output with the bytes of ``json.dump(payload, fh, indent=1)``.

:func:`dump` writes one payload shape: a dict with str keys whose values
are JSON scalars (str, int, bool, None, float) or :class:`Table`s; any
other value, or any other payload, is a TypeError.  A Table's text is
built in bulk: it is written as the list of dicts its rows stand for, and
a column is a sequence of those scalars, a 1-D float64 ndarray, or a
sequence of cells each written as a JSON list: 1-D float64 or int64
ndarrays, lists of str, or Tables.

A float column is formatted once per distinct bit pattern, found by one
pass over the whole column that cuts it into runs of equal int64 patterns
(so 0.0 and -0.0 stay apart), also at every cell's start: the run heads
alone give the distinct values, and each run keeps the index of its text
and its length.  Cells of a column of float arrays are read in chunks of
at most _RUN_ENTRIES entries, copied together, and a larger cell in place.
A float cell's list text is built from its runs, one string repetition
each, when its row is written, and a scalar float column is expanded from
them; a column of str lists encodes each distinct str once.

Non-finite floats raise ValueError, a Table's when it is built: NaN and
Infinity are not JSON.
"""

from __future__ import annotations

import bisect
import itertools
import math
from json.encoder import encode_basestring_ascii

import numpy as np

_RUN_ENTRIES = 1 << 14  # floats a run pass copies together at most: 128 KiB


class Table:
    """A list of dicts held as columns: ``[{key: column[r], ...} for r in rows]``.

    Each column is a 1-D float64 ndarray, a sequence of str, int, bool,
    None or float, or a sequence of list cells (see _Lists); the columns
    have one length, and every dict has their keys in their order.  The
    cells are formatted when the table is built, list cells from their
    column's texts and runs when their row is written.  ``take`` selects
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
    its distinct texts and its runs (see _float_texts): a cell's list is its
    runs' texts, each repeated as often as its run is long, so writing it
    costs one string repetition per run and none per entry.  A str column
    keeps each str's text.
    """

    __slots__ = ("_cells", "_runs", "_texts")

    def __init__(self, cells):
        kinds = {(v.dtype, v.ndim) if isinstance(v, np.ndarray) else type(v) for v in cells}
        self._runs = self._texts = None
        if kinds == {(np.dtype(np.float64), 1)}:
            self._texts, *self._runs = _float_texts(cells)
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
        inner = newline + " "
        if self._runs is not None:
            which, counts, firsts = self._runs
            runs = slice(firsts[row], firsts[row + 1])
            texts = self._texts[which[runs]].tolist()
            counts = counts[runs].tolist()
            counts[0] -= 1  # the first entry follows "[", not a comma
            sep = "," + inner
            write("".join(["[", inner, texts[0],
                           *[(sep + text) * count for text, count in zip(texts, counts)],
                           newline, "]"]))
            return
        if self._texts is not None:
            items = map(self._texts.__getitem__, cell)
        else:
            items = map(int.__repr__, cell.tolist())
        write("[" + inner + ("," + inner).join(items) + newline + "]")


def dump(payload: dict, fh) -> None:
    """Write payload, a dict of str keys to JSON scalars and Tables, to a text
    file as json.dump(payload, fh, indent=1) would, piece by piece."""
    if not isinstance(payload, dict):
        raise TypeError(f"payload must be a dict, not {type(payload).__name__}")
    write, lead = fh.write, "{\n "
    for key, value in payload.items():
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        head = lead + encode_basestring_ascii(key) + ": "
        text = _scalar(value)
        if text is not None:
            write(head + text)
        elif isinstance(value, Table):
            write(head)
            value._write(write, "\n ")
        else:
            raise TypeError(f"payload values are JSON scalars or Tables, not {type(value).__name__}")
        lead = ",\n "
    write("\n}" if payload else "{}")


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


def _float_texts(arrays) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The runs of equal int64 bit patterns in a sequence of 1-D float64 arrays.

    Gives the float reprs of the distinct patterns, ascending, as an object
    array; each run's index into them and its length; and each array's
    first run, with the run count appended.  A run breaks where adjacent
    patterns differ and at every array's start.  Arrays are read together
    in chunks of at most _RUN_ENTRIES entries, so the pass copies at most
    that many beside them; a larger array is read in place.  The callers
    check the arrays' type.
    """
    starts = list(itertools.accumulate(map(len, arrays), initial=0))  # then the entry count
    heads, keys = [], []  # each chunk's run heads and their bit patterns
    first = 0
    while True:
        # the chunk: arrays first to last - 1, as many as fit, and at least one
        last = max(first + 1, bisect.bisect_right(starts, starts[first] + _RUN_ENTRIES) - 1)
        _chunk_runs(arrays[first:last] or [np.empty(0)], starts[first:last], heads, keys)
        first = last
        if first >= len(arrays):
            break
    end = starts[-1]
    heads, keys = np.concatenate([*heads, [end]]), np.concatenate(keys)
    distinct = _distinct_bits(keys)
    numbers = distinct.view(np.float64)
    if not np.isfinite(numbers).all():
        raise ValueError("array holds a value that is not a JSON number")
    texts = np.array([float.__repr__(v) for v in numbers.tolist()], dtype=object)
    return (texts, np.searchsorted(distinct, keys), heads[1:] - heads[:-1],
            np.searchsorted(heads, starts).tolist())


def _chunk_runs(chunk, starts: list, heads: list, keys: list) -> None:
    """Append the run heads of the arrays in chunk to heads, as positions in
    the column, and their bit patterns to keys; starts are the arrays'
    positions in the column."""
    bits = (np.concatenate(chunk) if len(chunk) > 1 else chunk[0]).view(np.int64)
    head = np.empty(len(bits) + 1, dtype=bool)  # the last slot takes empty arrays' starts
    np.not_equal(bits[1:], bits[:-1], out=head[1:-1])
    begin = starts[0]
    head[np.subtract(starts, begin)] = True
    where = head[:-1].nonzero()[0]
    heads.append(where + begin)
    keys.append(bits[where])


def _distinct_bits(values: np.ndarray) -> np.ndarray:
    """The distinct int64 bit patterns of a 1-D 8-byte array, sorted."""
    bits = np.sort(values.view(np.int64))
    first = np.empty(len(bits), dtype=bool)  # first of its run of equal patterns
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    return bits[first]


def _cell_texts(column) -> np.ndarray | _Lists:
    """The JSON texts of a table column, as an object array, or its list cells."""
    if isinstance(column, np.ndarray):
        if column.dtype != np.float64 or column.ndim != 1:
            raise TypeError(f"only 1-D float64 arrays are written, not {column.dtype} "
                            f"of shape {column.shape}")
        texts, which, counts, _ = _float_texts([column])
        return texts[which].repeat(counts)
    if len(column) and isinstance(column[0], (np.ndarray, list, tuple, Table)):
        return _Lists(column)
    texts = [_scalar(value) for value in column]
    if None in texts:
        bad = column[texts.index(None)]
        raise TypeError(f"Object of type {type(bad).__name__} is not JSON serializable")
    return np.array(texts, dtype=object)
