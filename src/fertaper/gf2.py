"""Linear algebra over GF(2).

Vectors and matrices are numpy arrays with 0/1 entries (dtype uint8).
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


def int_to_bits(value: int, length: int) -> np.ndarray:
    """Unpack an integer into a bit vector of the given length, MSB first."""
    return np.array([(value >> (length - 1 - i)) & 1 for i in range(length)], dtype=np.uint8)


def pack_rows(mat) -> list[int]:
    """Pack each row of a bit matrix into an int, first column most significant."""
    return [int.from_bytes(row.tobytes(), "big") for row in pack_words(mat)]


def pack_words(mat) -> np.ndarray:
    """Pack each row of a bit matrix into big-endian uint64 words.

    Rows are padded on the left to whole words, so the words of a row,
    first to last, read as the integer pack_rows gives.
    """
    rows = asbits(mat)
    width = rows.shape[1]
    bits = 64 * max(1, -(-width // 64))
    padded = np.zeros((rows.shape[0], bits), dtype=np.uint8)
    padded[:, bits - width:] = rows
    return np.packbits(padded, axis=1).view(">u8")


def unpack_ints(values, length: int) -> np.ndarray:
    """Bit matrix with one row per int, MSB first: the inverse of pack_rows."""
    nbytes = (length + 7) // 8
    if nbytes == 0:
        return np.zeros((len(values), 0), dtype=np.uint8)
    buf = b"".join(v.to_bytes(nbytes, "big") for v in values)
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(-1, nbytes)
    return np.unpackbits(rows, axis=1)[:, 8 * nbytes - length:]


def drop_bits(value, positions):
    """Delete bit positions (counted from bit 0, in decreasing order) from an int.

    The bits above each deleted position move down one place, so the kept
    bits stay in order.  value may also be an int64 array, each element of
    which is packed the same way (positions then below 63); a Python int
    may be of any width.
    """
    for p in positions:
        value = ((value >> (p + 1)) << p) | (value & ((1 << p) - 1))
    return value


def matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Matrix-vector product modulo two."""
    mat = asbits(mat)
    vec = asbits(vec)
    if mat.shape[1] != vec.shape[0]:
        raise ValueError(f"dimension mismatch: {mat.shape} @ {vec.shape}")
    return (mat @ vec.astype(np.int64)) % 2


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix-matrix product modulo two."""
    a = asbits(a)
    b = asbits(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return np.asarray((a.astype(np.int64) @ b.astype(np.int64)) % 2, dtype=np.uint8)


def rref(mat: np.ndarray, column_order=None) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Args:
        mat: binary matrix.
        column_order: sequence of column indices giving the order in which
            pivots are sought.  Defaults to left-to-right.

    Returns:
        (reduced matrix, list of pivot columns in elimination order).
    """
    r = asbits(mat).copy()
    rows, cols = r.shape
    if column_order is None:
        column_order = range(cols)
    pivots: list[int] = []
    row = 0
    for col in column_order:
        if row >= rows:
            break
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        k = row + hits[0]
        if k != row:
            r[[row, k]] = r[[k, row]]
        # clear the pivot column everywhere else
        others = np.nonzero(r[:, col])[0]
        for i in others:
            if i != row:
                r[i] ^= r[row]
        pivots.append(col)
        row += 1
    return r, pivots


def rank(mat: np.ndarray) -> int:
    _, pivots = rref(mat)
    return len(pivots)


def kernel_basis(mat: np.ndarray) -> np.ndarray:
    """Basis of the right kernel, one vector per row.

    Pivots are taken left to right, and basis vectors are emitted in
    ascending order of their free column, which makes the output
    deterministic.
    """
    mat = asbits(mat)
    rows, cols = mat.shape
    if rows == 0:
        return np.eye(cols, dtype=np.uint8)
    r, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for prow, pcol in enumerate(pivots):
            if r[prow, fc]:
                basis[i, pcol] = 1
    return basis


def solve(mat: np.ndarray, rhs: np.ndarray):
    """One solution of mat @ x = rhs over GF(2), or None if inconsistent."""
    mat = asbits(mat)
    rhs = asbits(rhs)
    rows, cols = mat.shape
    aug = np.concatenate([mat, rhs.reshape(rows, 1)], axis=1)
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for prow, pcol in enumerate(pivots):
        x[pcol] = r[prow, cols]
    return x


def inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of a square invertible matrix over GF(2)."""
    mat = asbits(mat)
    n, m = mat.shape
    if n != m:
        raise ValueError("matrix is not square")
    aug = np.concatenate([mat, np.eye(n, dtype=np.uint8)], axis=1)
    r, pivots = rref(aug, column_order=range(n))
    if len(pivots) != n:
        raise ValueError("matrix is singular over GF(2)")
    return r[:, n:]


def in_span(vectors: np.ndarray, target: np.ndarray) -> bool:
    """Whether target lies in the GF(2) row span of the given vectors."""
    vectors = np.atleast_2d(asbits(vectors))
    if vectors.shape[0] == 0:
        return not np.any(asbits(target))
    return rank(vectors) == rank(np.vstack([vectors, asbits(target)]))


def same_span(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two sets of row vectors span the same GF(2) subspace."""
    a = np.atleast_2d(asbits(a))
    b = np.atleast_2d(asbits(b))
    if a.shape[1] != b.shape[1]:
        return False
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(np.vstack([a, b]))
