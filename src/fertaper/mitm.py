"""Meet-in-the-middle syndrome decoding for N-injective binary matrices.

Preimages A^{-1}s of weight N are found by splitting N into two halves,
tabulating the syndromes of all half-weight vectors offline, and scanning
one table while binary-searching the other.  A brute-force enumerator is
kept alongside as the reference oracle.
"""

from __future__ import annotations

import itertools
import logging
from bisect import bisect_left
from dataclasses import dataclass
from math import comb

import numpy as np

from fertaper import gf2

log = logging.getLogger(__name__)

TABLE_ENTRY_BUDGET = 1 << 26
BRUTE_FORCE_MODE_CAP = 24


class InjectivityViolation(ValueError):
    """Two distinct equal-weight vectors share a syndrome."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _weight_masks(m: int):
    """Mode-set masks (mode 1 = most significant bit of an M-bit mask)."""
    return [1 << (m - 1 - i) for i in range(m)]


@dataclass(frozen=True)
class SyndromeTables:
    """Sorted offline tables of half-weight syndromes and their preimages."""

    modes: int
    rows: int
    particles: int
    split: tuple[int, int]
    syndromes: tuple[tuple[int, ...], tuple[int, ...]]
    preimages: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def sizes(self) -> tuple[int, int]:
        return len(self.syndromes[0]), len(self.syndromes[1])


def build_tables(a: np.ndarray, n: int, entry_budget: int = TABLE_ENTRY_BUDGET) -> SyndromeTables:
    """Tabulate syndromes of all weight-N1 and weight-N2 vectors.

    Duplicate syndromes inside a table contradict injectivity of the
    matrix and abort the build with a witness pair.
    """
    a = gf2.asbits(a)
    q, m = a.shape
    n1 = (n + 1) // 2
    n2 = n - n1
    total = comb(m, n1) + comb(m, n2)
    if total > entry_budget:
        raise MemoryError(
            f"syndrome tables need {total} entries, over the budget of {entry_budget}"
        )
    cols = gf2.pack_rows(a.T)
    mode_masks = _weight_masks(m)
    tables = []
    lookups = []
    for ni in (n1, n2):
        pairs = []
        for combo in itertools.combinations(range(m), ni):
            syn = 0
            vec = 0
            for c in combo:
                syn ^= cols[c]
                vec ^= mode_masks[c]
            pairs.append((syn, vec))
        pairs.sort()
        for (s1, v1), (s2, v2) in zip(pairs, pairs[1:]):
            if s1 == s2:
                raise InjectivityViolation(
                    f"two weight-{ni} vectors share syndrome {s1:0{q}b}",
                    witness=(v1, v2),
                )
        tables.append(tuple(s for s, _ in pairs))
        lookups.append(tuple(v for _, v in pairs))
    return SyndromeTables(m, q, n, (n1, n2), (tables[0], tables[1]), (lookups[0], lookups[1]))


def mitm_decode(tables: SyndromeTables, s) -> np.ndarray | None:
    """Unique weight-N preimage of a syndrome, or None.

    Scans the first table; for each entry the complementary syndrome is
    binary-searched in the second.  A hit whose combined weight is not N
    (overlapping halves) is skipped and logged; injectivity implies such a
    hit never hides a real solution.
    """
    s = gf2.asbits(s)
    if s.shape[0] != tables.rows:
        raise ValueError(f"syndrome length {s.shape[0]} != {tables.rows}")
    s_mask = gf2.bits_to_int(s)
    t1, t2 = tables.syndromes
    u1s, u2s = tables.preimages
    n = tables.particles
    for syn1, vec1 in zip(t1, u1s):
        want = syn1 ^ s_mask
        pos = bisect_left(t2, want)
        if pos == len(t2) or t2[pos] != want:
            continue
        x = vec1 ^ u2s[pos]
        if bin(x).count("1") != n:
            log.debug(
                "half-weight preimages overlap at syndrome %s; continuing scan", s_mask
            )
            continue
        return gf2.int_to_bits(x, tables.modes)
    return None


def brute_force_decode(a: np.ndarray, n: int, s) -> np.ndarray | None:
    """Exhaustive reference decoder over all weight-N vectors.

    Raises InjectivityViolation with the two colliding vectors if more
    than one preimage exists.
    """
    a = gf2.asbits(a)
    q, m = a.shape
    if m > BRUTE_FORCE_MODE_CAP:
        raise ValueError(f"brute-force decode capped at {BRUTE_FORCE_MODE_CAP} modes")
    s = gf2.asbits(s)
    if s.shape[0] != q:
        raise ValueError(f"syndrome length {s.shape[0]} != {q}")
    target = gf2.bits_to_int(s)
    cols = gf2.pack_rows(a.T)
    mode_masks = _weight_masks(m)
    found = None
    for combo in itertools.combinations(range(m), n):
        syn = 0
        vec = 0
        for c in combo:
            syn ^= cols[c]
            vec ^= mode_masks[c]
        if syn == target:
            if found is not None:
                raise InjectivityViolation(
                    "matrix is not injective at this weight", witness=(found, vec)
                )
            found = vec
    return None if found is None else gf2.int_to_bits(found, m)


def full_decode_table(a: np.ndarray, n: int) -> dict[int, int]:
    """Map every achievable syndrome (as int) to its weight-N preimage mask."""
    a = gf2.asbits(a)
    q, m = a.shape
    cols = gf2.pack_rows(a.T)
    mode_masks = _weight_masks(m)
    table: dict[int, int] = {}
    for combo in itertools.combinations(range(m), n):
        syn = 0
        vec = 0
        for c in combo:
            syn ^= cols[c]
            vec ^= mode_masks[c]
        if syn in table:
            raise InjectivityViolation(
                "matrix is not injective at this weight", witness=(table[syn], vec)
            )
        table[syn] = vec
    return table
