"""Syndrome tables and meet-in-the-middle decoding for N-injective binary matrices.

A table for weight k holds the syndrome Ax of every weight-k vector x as a
sorted key, next to x's column indices: a code's codeword list (k = N,
codeword_table, which refuses equal syndromes) and the two halves here.
Keys are syndromes in the gf2.uint64_words layout, viewed as big-endian
byte strings, so they sort and binary-search as numbers at any Q;
syndrome_key spells a searched syndrome alike.  Decoding splits N into
halves ((N+1)//2, N//2) and searches every first-half key XOR the
syndrome in the second half at once, as the run of keys equal to it, so
only a syndrome with two weight-N preimages is refused.  A brute-force
enumerator is kept alongside as the reference oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from fertaper import gf2, limits


class InjectivityViolation(ValueError):
    """Two distinct equal-weight vectors share a syndrome."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def combinations(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m) as a row of ascending indices, in lexicographic order."""
    dtype = np.min_scalar_type(max(m - 1, 0))
    rows = np.zeros((1, 0), dtype=dtype)
    for t in range(k):
        # entry t runs from one past entry t-1 up to m-k+t, leaving room for the rest
        start = rows[:, -1].astype(np.intp) + 1 if t else np.zeros(1, dtype=np.intp)
        counts = np.maximum(m - k + t + 1 - start, 0)
        parent = np.repeat(np.arange(len(rows)), counts)
        offset = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([rows[parent], (start[parent] + offset).astype(dtype)])
    return rows


def occupations(combos: np.ndarray, m: int) -> np.ndarray:
    """0/1 occupation rows over M modes, one per row of column indices."""
    occ = np.zeros((len(combos), m), dtype=np.uint8)
    occ[np.arange(len(combos))[:, None], combos] = 1
    return occ


def _mode_set(row) -> tuple[int, ...]:
    """1-based modes of a row of 0-based column indices."""
    return tuple(int(c) + 1 for c in row)


def _as_keys(words: np.ndarray) -> np.ndarray:
    """One byte-string key per row of uint64 words, ordered as the words' integers."""
    words = np.ascontiguousarray(words, dtype=">u8")
    return words.view(f"S{8 * words.shape[1]}").ravel()


def syndrome_key(s, q: int) -> np.ndarray:
    """A Q-bit syndrome's key, as syndrome_table spells them, in an array of
    one; ValueError unless s has Q bits."""
    s = gf2.asbits(s)
    if s.shape != (q,):
        raise ValueError(f"syndrome length {s.size} != {q}")
    return _as_keys(gf2.uint64_words([gf2.bits_to_int(s)], q))


def syndrome_table(columns, q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every weight-k row of indices into columns, and its syndrome's key
    (never empty bytes), stably sorted by key from lexicographic order;
    columns are the Q x M matrix's columns as qubit masks, row 1 first."""
    words = gf2.uint64_words(columns, q)
    rows = combinations(len(columns), k)
    acc = np.zeros((len(rows), words.shape[1]), dtype=np.uint64)
    for j in range(k):
        acc ^= words[rows[:, j]]
    keys = _as_keys(acc)
    del acc  # the keys are a big-endian copy
    order = np.argsort(keys, kind="stable")
    return rows[order], keys[order]


def codeword_table(columns, q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """syndrome_table; two rows with one syndrome contradict injectivity and
    raise InjectivityViolation with their mode sets as the witness."""
    rows, keys = syndrome_table(columns, q, k)
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if dup.size:
        i = int(dup[0])
        bits = np.unpackbits(keys[i:i + 1].view(np.uint8))[8 * keys.itemsize - q:]
        raise InjectivityViolation(
            f"two weight-{k} vectors share syndrome {''.join(map(str, bits))}",
            witness=(_mode_set(rows[i]), _mode_set(rows[i + 1])),
        )
    return rows, keys


@dataclass(frozen=True)
class SyndromeTables:
    """Sorted keys of each half-weight's syndromes, and combos[i] their column indices."""

    modes: int
    qubits: int
    particles: int
    keys: tuple[np.ndarray, np.ndarray]
    combos: tuple[np.ndarray, np.ndarray]

    @property
    def sizes(self) -> tuple[int, int]:
        return len(self.keys[0]), len(self.keys[1])


def build_tables(columns, q: int, n: int) -> SyndromeTables:
    """syndrome_table of the weight-(N+1)//2 and of the weight-N//2 vectors."""
    n1, n2 = (n + 1) // 2, n // 2
    total = comb(len(columns), n1) + comb(len(columns), n2)
    if total > limits.TABLE_ENTRY_BUDGET:
        raise MemoryError(f"syndrome tables need {total} entries, "
                          f"over the budget of {limits.TABLE_ENTRY_BUDGET}")
    (combos1, keys1), (combos2, keys2) = (syndrome_table(columns, q, k) for k in (n1, n2))
    return SyndromeTables(len(columns), q, n, (keys1, keys2), (combos1, combos2))


def mitm_decode(tables: SyndromeTables, s) -> np.ndarray | None:
    """Unique weight-N preimage of a syndrome, or None.

    Each first-half row pairs with every second-half row in the run of keys
    equal to its key XOR the syndrome, in slices of about as many pairs as
    the larger table has rows.  Pairs whose halves overlap have weight
    below N and are dropped.  A preimage is found once per way of splitting
    it; two distinct ones raise InjectivityViolation.
    """
    key = syndrome_key(s, tables.qubits)
    first, second = tables.keys
    want = _as_keys(first.view(">u8").reshape(len(first), first.itemsize // 8) ^ key.view(">u8"))
    lo = np.searchsorted(second, want, "left")
    runs = np.searchsorted(second, want, "right") - lo
    hit = np.flatnonzero(runs)
    slices = (np.cumsum(runs[hit]) - 1) // max(len(first), len(second))
    found = None
    for rows in np.split(hit, np.flatnonzero(np.diff(slices)) + 1):
        n = runs[rows]
        pairs = np.repeat(lo[rows] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        x = (occupations(tables.combos[0][np.repeat(rows, n)], tables.modes)
             ^ occupations(tables.combos[1][pairs], tables.modes))
        x = x[x.sum(axis=1) == tables.particles]
        if len(x):
            found = x[0] if found is None else found
            other = np.flatnonzero((x != found).any(axis=1))
            if other.size:
                raise InjectivityViolation(
                    "syndrome has more than one weight-N preimage",
                    witness=(_mode_set(np.flatnonzero(found)),
                             _mode_set(np.flatnonzero(x[other[0]]))),
                )
    return found


def brute_force_decode(a: np.ndarray, n: int, s) -> np.ndarray | None:
    """Exhaustive reference decoder over all weight-N vectors.

    Raises InjectivityViolation with the two colliding mode sets if more
    than one preimage exists.
    """
    a = gf2.asbits(a)
    q, m = a.shape
    if m > limits.BRUTE_FORCE_COLUMN_CAP:
        raise ValueError(f"brute-force decode capped at {limits.BRUTE_FORCE_COLUMN_CAP} modes")
    s = gf2.asbits(s)
    if s.shape[0] != q:
        raise ValueError(f"syndrome length {s.shape[0]} != {q}")
    target = gf2.bits_to_int(s)
    cols = gf2.pack_rows(a.T)
    found = None
    for combo in itertools.combinations(range(m), n):
        syn = 0
        for c in combo:
            syn ^= cols[c]
        if syn == target:
            if found is not None:
                raise InjectivityViolation(
                    "matrix is not injective at this weight",
                    witness=(_mode_set(found), _mode_set(combo)),
                )
            found = combo
    return None if found is None else occupations(np.array([found], dtype=np.intp), m)[0]
