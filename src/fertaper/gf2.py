"""Linear algebra over GF(2).

Elimination works on rows packed into Python ints: column c of a row of
the given width is bit width-1-c, the layout of pack_rows and of the
Pauli (x|z) masks, so a row XOR is one int XOR.  A parity-check matrix
A is held the same way, as its columns packed into qubit masks
(pack_rows(A.T)), so a syndrome is an XOR of columns.  rref, rank and
inverse eliminate the rows.  kernel_basis eliminates the columns
instead: each is one T-bit int over the T rows, cut from the rows with
unpack_ints and packed eight rows to a byte, so it takes one step per
column and pivot whatever T is.  The numpy helpers convert between that
layout and the 0/1 uint8 arrays that enter and leave the program: asbits
and pack_rows on the way in; bits_to_int and unpack_ints for bit-vector
views of masks.  uint64_words cuts ints into numpy words, popcounts
counts their bits and from_uint64_words joins them back, as a uint64
array up to 64 bits and Python ints (object) past that, the layout of
pauli.mask_array.  drop_bits deletes bit positions from ints or integer
arrays.
Row/column indices at this level are 0-based; the 1-based mode/qubit
convention of the public API lives in the callers.
"""

from __future__ import annotations

import numpy as np


def asbits(data) -> np.ndarray:
    """Coerce a bit sequence / matrix to a uint8 array, reducing mod 2."""
    return np.asarray(data, dtype=np.uint8) % 2


def bits_to_int(bits) -> int:
    """Pack a bit vector into an integer, first entry most significant."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def pack_rows(mat) -> list[int]:
    """Pack each row of a bit matrix into an int, first column most significant.

    Packing the columns (pack_rows(a.T)) gives a parity-check matrix's
    columns as qubit masks, the form the codes and decoders hold.
    """
    rows = asbits(mat)
    width = rows.shape[1]
    padded = np.zeros((rows.shape[0], -(-width // 8) * 8), dtype=np.uint8)
    padded[:, padded.shape[1] - width:] = rows
    return [int.from_bytes(row.tobytes(), "big") for row in np.packbits(padded, axis=1)]


def uint64_words(values, length: int) -> np.ndarray:
    """length-bit ints as a (count, words) array of big-endian uint64 words,
    the most significant word first: one word per 64 bits, rounded up.

    Up to 64 bits the ints go into one uint64 array; wider ones are shifted
    and masked as a numpy object array, a word at a time (the last word is
    not shifted, and the first, which holds the top bits, is not masked).
    """
    width = -(-length // 64)
    masks = np.asarray(values, dtype=np.uint64 if width == 1 else object).reshape(-1)
    words = np.empty((len(masks), width), dtype=">u8")
    for k in range(width):
        shift = 64 * (width - 1 - k)
        word = masks >> shift if shift else masks
        words[:, k] = word & 0xFFFF_FFFF_FFFF_FFFF if k else word
    return words


def from_uint64_words(words) -> np.ndarray:
    """The ints that uint64_words cut into these (count, words) words.

    One word gives a uint64 array, more give Python ints in an object
    array: the layout pauli.mask_array holds masks in.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.shape[1] == 1:
        return words[:, 0]
    values = words[:, 0].astype(object)
    for k in range(1, words.shape[1]):
        values = values << 64 | words[:, k].astype(object)
    return values


def popcounts(words) -> np.ndarray:
    """Popcount of each int cut into uint64 words along the last axis, as int64."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def unpack_ints(values, length: int) -> np.ndarray:
    """Bit matrix with one row per int, MSB first: the inverse of pack_rows."""
    words = uint64_words(values, length)
    return np.unpackbits(words.view(np.uint8), axis=1)[:, 64 * words.shape[1] - length:]


def drop_bits(value, positions):
    """Delete bit positions (counted from bit 0, in decreasing order) from an int.

    The bits above each deleted position move down one place, so the kept
    bits stay in order.  value may also be an array, each element of which
    is packed the same way: int64 (positions below 63), uint64 (numpy
    shifts a uint64 by 64 to 0, so position 63 drops too) or an object
    array of Python ints, which like a Python int may be of any width.
    """
    for p in positions:
        value = ((value >> (p + 1)) << p) | (value & ((1 << p) - 1))
    return value


def _echelon(rows) -> dict[int, int]:
    """Row echelon basis of the span, keyed by each row's leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                break
            row ^= pivot
    return basis


def rref(rows, width: int) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form over GF(2) of int rows of the given width.

    Column c is bit width-1-c, so pivots are sought left to right.

    Returns:
        (nonzero reduced rows, their pivot columns), both in ascending
        pivot column order.
    """
    basis = _echelon(rows)
    if basis and max(basis) >= width:
        raise ValueError(f"row wider than {width} bits")
    tops = sorted(basis)  # lowest pivot first: rows are cleared by reduced rows
    for k, top in enumerate(tops):
        for low in tops[:k]:
            if basis[top] >> low & 1:
                basis[top] ^= basis[low]
    tops.reverse()
    return [basis[t] for t in tops], [width - 1 - t for t in tops]


def rank(rows) -> int:
    return len(_echelon(rows))


def kernel_basis(rows, width: int) -> list[int]:
    """Basis of the right kernel {v : every popcount(row & v) is even}.

    The columns are eliminated, not the rows: column c, a T-bit int over
    the T rows, is reduced left to right by the earlier columns that are
    independent of those before them, its own bit c carried along.  A
    column that reduces to zero is free, and its basis vector is e_c plus
    the pivot columns it combined, in ascending order of the free column:
    the same vectors, in the same order, as the free columns of the
    row-reduced echelon form give.
    """
    if max(rows, default=0).bit_length() > width:
        raise ValueError(f"row wider than {width} bits")
    # column c as an int over the rows, row 0 most significant and zero padding last: the
    # bytes of np.packbits(bits, axis=0).T, eight rows summed to a byte without its strided pass
    bits = unpack_ints(rows, width)
    bits = np.concatenate([bits, np.zeros((-len(bits) % 8, width), dtype=np.uint8)])
    eights = bits.reshape(len(bits) // 8, 8, width)
    weights = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)
    columns = [int.from_bytes(column.tobytes(), "big")
               for column in np.einsum("gkc,k->cg", eights, weights)]
    pivots: dict[int, int] = {}  # (column << width) | its combination, by leading bit
    basis, combinations = [], 1 << width
    for c, column in enumerate(columns):
        v = column << width | 1 << (width - 1 - c)
        while v >= combinations:  # column bits left
            top = v.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = v
                break
            v ^= pivot
        else:
            basis.append(v)
    return basis


def inverse(rows, n: int) -> list[int]:
    """Inverse of a square invertible n x n matrix given as n int rows."""
    if len(rows) != n:
        raise ValueError("matrix is not square")
    augmented = [(r << n) | (1 << (n - 1 - i)) for i, r in enumerate(rows)]
    reduced, pivots = rref(augmented, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over GF(2)")
    low = (1 << n) - 1
    return [r & low for r in reduced]


def same_span(a, b) -> bool:
    """Whether two lists of int rows span the same GF(2) subspace."""
    a, b = list(a), list(b)
    return rank(a) == rank(b) == rank(a + b)
