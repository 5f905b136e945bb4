"""Linear algebra over GF(2).

Elimination works on rows packed into Python ints: column c of a row of
the given width is bit width-1-c, the layout of pack_rows and of the
Pauli (x|z) masks, so a row XOR is one int XOR.  A parity-check matrix
A is held the same way, as its columns packed into qubit masks
(pack_rows(A.T)), so a syndrome is an XOR of columns.  kernel_basis is
the one eliminator: it eliminates the columns, each one T-bit int over
the T rows, cut from the rows' bits and packed eight rows to a byte, so
it takes one step per column and pivot whatever T is.  rank and same_span
read the kernel's dimension, and standard_maps reads an encoding's
inverse off the kernel of [A^T | I].  Tables of many masks (Pauli sums,
mitm's keys) are uint64_words matrices at every width: (count, W) uint64
words, W = max(1, ceil(length / 64)), the most significant first, entered
by uint64_words and left by word_ints; unpack_ints and pack_words, the
one bit packer (pack_rows wraps it), convert bit matrices.
Row/column indices at this level are 0-based; the 1-based mode/qubit
convention of the public API lives in the callers.
"""

from __future__ import annotations

import numpy as np

_ALL = 0xFFFF_FFFF_FFFF_FFFF


def asbits(data) -> np.ndarray:
    """Coerce a bit sequence / matrix to a uint8 array, reducing mod 2."""
    return np.asarray(data, dtype=np.uint8) % 2


def pack_rows(mat) -> list[int]:
    """Each row of a bit matrix as an int, first column most significant;
    pack_rows(a.T) gives a parity-check matrix's columns as qubit masks."""
    return word_ints(pack_words(asbits(mat)))


def word_count(length: int) -> int:
    """Words per row of length-bit ints in the uint64_words layout."""
    return max(1, -(-length // 64))


def uint64_words(values, length: int) -> np.ndarray:
    """length-bit ints as a C-ordered (count, word_count(length)) matrix of
    uint64 words, the most significant first; a 2-D array is taken as one."""
    width = word_count(length)
    if isinstance(values, np.ndarray) and values.ndim == 2:
        if values.shape[1] != width:
            raise ValueError(f"{values.shape[1]} words per row, not the {width} of {length} bits")
        return np.ascontiguousarray(values, dtype=np.uint64)
    if width == 1:
        return np.asarray(values, dtype=np.uint64).reshape(-1, 1)
    values = values.tolist() if isinstance(values, np.ndarray) else values  # Python ints
    data = b"".join([v.to_bytes(8 * width, "big") for v in values])
    return np.frombuffer(data, dtype=">u8").reshape(-1, width).astype(np.uint64)


def word_ints(words) -> list[int]:
    """The Python int of each row of a uint64_words matrix."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    return [int.from_bytes(row.tobytes(), "big") for row in words.astype(">u8")]


def popcounts(words) -> np.ndarray:
    """Popcount of each int cut into uint64 words along the last axis, as int64."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def unpack_ints(values, length: int) -> np.ndarray:
    """The (count, length) bit matrix of length-bit ints or their uint64_words
    matrix, MSB first: the inverse of pack_rows and of pack_words."""
    data = np.ascontiguousarray(uint64_words(values, length), dtype=">u8").view(np.uint8)
    return np.unpackbits(data, axis=1)[:, 8 * data.shape[1] - length:]


def pack_words(bits) -> np.ndarray:
    """The uint64_words matrix of a (count, length) bit matrix, MSB first.

    The rows are padded to whole bytes and packed flat, several times faster
    than np.packbits along axis 1 on short rows.
    """
    count, length = bits.shape
    nbytes, width = -(-length // 8), word_count(length)
    padded = np.zeros((count, 8 * nbytes), dtype=np.uint8)
    padded[:, 8 * nbytes - length:] = bits
    packed = np.zeros((count, 8 * width), dtype=np.uint8)
    packed[:, 8 * width - nbytes:] = np.packbits(padded).reshape(count, nbytes)
    return packed.view(">u8").astype(np.uint64)


def or_shifted(out: np.ndarray, words: np.ndarray, shift: int, mask: int = -1) -> None:
    """out |= (each row of words shifted left by shift bits, right if negative)
    & mask, a word column at a time: numpy's operations along an axis of two
    or three words are slow, and words the mask clears are skipped."""
    have, width = words.shape[1], out.shape[1]
    for j in range(width):  # from the least significant word
        word = np.uint64(mask >> 64 * j & _ALL)
        low, r = divmod(64 * j - shift, 64)  # word j's bits start at bit r of word low
        if word and 0 <= low < have:
            out[:, width - 1 - j] |= words[:, have - 1 - low] >> np.uint64(r) & word
        if word and r and 0 <= low + 1 < have:
            out[:, width - 1 - j] |= words[:, have - 2 - low] << np.uint64(64 - r) & word


def drop_word_bits(words, length: int, positions) -> np.ndarray:
    """Delete bit positions (counted from bit 0, distinct, in any order) from
    every row of a matrix of length-bit ints, the bits above each moving down:
    each run of kept bits shifted down into place and masked (unpacking the
    bits, deleting columns and packing them took 3 to 30 times as long)."""
    out = np.zeros((len(words), word_count(length - len(positions))), dtype=np.uint64)
    start = placed = 0  # the next bit to read, and where it goes
    for p in [*sorted(positions), length]:  # each run of kept bits, shifted into place
        if p > start:
            or_shifted(out, words, placed - start, ((1 << (p - start)) - 1) << placed)
            placed += p - start
        start = p + 1
    return out


def kernel_basis(rows, width: int) -> list[int]:
    """Basis of the right kernel {v : every popcount(row & v) is even} of
    width-bit ints or their uint64_words matrix.

    Column c, a T-bit int over the T rows, is reduced left to right by the
    earlier independent columns, its own bit c carried along.  A column
    that reduces to zero is free, and its basis vector is e_c plus the pivot
    columns it combined: the vectors, in order, that the free columns of
    the row-reduced echelon form give.
    """
    words = uint64_words(rows, width)
    if len(words) and (words[:, 0] >> np.uint64(width - 64 * (words.shape[1] - 1))).any():
        raise ValueError(f"row wider than {width} bits")
    # column c as an int over the rows, row 0 most significant and zero padding last: the
    # bytes of np.packbits(bits, axis=0).T, eight rows summed to a byte without its strided pass
    bits = unpack_ints(words, width)
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


def rank(rows) -> int:
    """Rank of int rows: their width less the dimension of their kernel."""
    width = max((row.bit_length() for row in rows), default=0)
    return width - len(kernel_basis(rows, width))


def same_span(a, b) -> bool:
    """Whether two lists of int rows span the same GF(2) subspace."""
    a, b = list(a), list(b)
    return rank(a) == rank(b) == rank(a + b)
