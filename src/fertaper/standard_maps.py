"""Invertible-matrix encodings of the full Fock space onto M qubits.

Each encoding relabels basis states |x> -> |Ax> with an invertible binary
matrix A: the identity (Jordan-Wigner), the lower-triangular all-ones
matrix (parity), or the recursively built binary-tree matrix.  A is kept
only as qubit masks, the Pauli mask layout (row or column 1 most
significant): its columns are the X masks of the ladder operators and the
rows of its inverse the Z masks that read occupations, so a single
construction covers all three encodings.  A^-1 is read off
gf2.kernel_basis of [A^T | I]: its free columns are the last M, and
column M+j gives row j of A^-1.

A Hamiltonian is encoded a product length at a time: ladder_products
takes every hop (two ladder operators) as one row of a mode array, then
every pair hop (four), looks up their ladder masks as uint64 words, and
builds all 2^L terms of every row with array XORs and parities.  Each
row's signs are summed as exact integers before they meet its
coefficient, and the terms of both lengths are merged once, so the sum is
bit for bit the one the factor-by-factor products give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fertaper import gf2
from fertaper.fermion import FermionHamiltonian
from fertaper.pauli import QubitHamiltonian, _new_sum

ENCODING_KINDS = ("jordan_wigner", "parity", "binary_tree")


@dataclass(frozen=True)
class StandardEncoding:
    """One of the three named invertible encodings, as qubit masks.

    column_masks[j - 1] is column j of A (the qubits mode j's ladder
    operators flip); inverse_rows[j - 1] is row j of A^-1 (the qubits whose
    parity is mode j's occupation).
    """

    kind: str
    modes: int
    column_masks: tuple[int, ...]
    inverse_rows: tuple[int, ...]

    @cached_property
    def ladder_masks(self) -> dict[int, tuple[int, int, int]]:
        """Mode j -> (column j of A, parity Z mask of modes 1..j-1, occupation
        Z mask of mode j), the parity mask being the XOR of rows 1..j-1 of A^-1."""
        masks, parity = {}, 0
        for j, (col, row) in enumerate(zip(self.column_masks, self.inverse_rows), 1):
            masks[j] = (col, parity, row)
            parity ^= row
        return masks


def _matrix_rows(kind: str, m: int) -> list[int]:
    """Rows of A, column 1 most significant."""
    if kind == "jordan_wigner":
        return [1 << (m - j) for j in range(1, m + 1)]
    if kind == "parity":
        return [((1 << j) - 1) << (m - j) for j in range(1, m + 1)]
    if kind == "binary_tree":
        # doubling recursion: [[B, 0], [L, B]] where L's last row is all ones;
        # the leading m x m block stays invertible, being unit lower-triangular
        rows, size = [1], 1
        while size < m:
            rows = ([r << size for r in rows] + rows[:-1]
                    + [rows[-1] | ((1 << size) - 1) << size])
            size *= 2
        return [r >> (size - m) for r in rows[:m]]
    raise ValueError(f"unknown encoding kind {kind!r}; choose from {ENCODING_KINDS}")


def build_encoding(kind: str, m_modes: int) -> StandardEncoding:
    if m_modes < 1:
        raise ValueError("need at least one mode")
    m = m_modes
    columns = gf2.pack_rows(gf2.unpack_ints(_matrix_rows(kind, m), m).T)
    basis = gf2.kernel_basis([col << m | 1 << (m - 1 - j) for j, col in enumerate(columns)], 2 * m)
    if [v & ((1 << m) - 1) for v in basis] != [1 << (m - 1 - j) for j in range(m)]:
        raise AssertionError(f"{kind} matrix on {m} modes is singular")
    return StandardEncoding(kind, m, tuple(columns), tuple(v >> m for v in basis))


def ladder_products(enc: StandardEncoding, kinds: str, modes, factors) -> QubitHamiltonian:
    """factors[r] times the product of encoded ladder operators on row r of modes.

    modes is a (K, L) array of 1-based modes, one product per row, and
    kinds[i] is "c" where factor i is a creator (any other letter is an
    annihilator).  Ladder operator j is X(col) Z(zpar) (1 +/- Z(row)) / 2,
    + for a creator, so a product has the one x mask XOR(col) and a term
    for each of the 2^L choices of the row factors: z = XOR(zpar) plus the
    chosen rows.  Moving the X(col) of factor i left past the Z's before it
    gives (-1)^popcount(z & col_i), which is linear in the choices: a fixed
    sign from the zpar masks, and one more for each chosen row j per later
    col it meets, and for an annihilator's row.  So every branch is a few
    XORs and parities of arrays held one plane per mask word.  Each row's
    z masks are then sorted and their signs summed as exact integers, zero
    sums dropped, and only then does a sum meet 2^-L, the letter phase
    i^-popcount(x & z) and the row's factor, as factor * (0.0 +
    complex(sum * 2^-L) * phase) does: the canonical factor-by-factor
    product times its factor, bit for bit, in row order, unmerged.
    """
    m, size = enc.modes, len(kinds)
    modes = np.asarray(modes, dtype=np.int64).reshape(-1, size)
    bad = modes[(modes < 1) | (modes > m)]
    if bad.size:
        raise IndexError(f"mode {bad[0]} out of range 1..{m}")
    ladders = gf2.uint64_words([0, 0, 0, *itertools.chain(*enc.ladder_masks.values())], m)
    ladders = ladders.reshape(m + 1, 3, -1).transpose(1, 2, 0).copy()  # (kind, word, mode)
    cols, zpars, rows = (np.take(words, modes, axis=1) for words in ladders)  # (word, row, factor)
    before, after = np.triu_indices(size, 1)  # factor pairs, one before the other
    meets = gf2.popcounts(np.concatenate([zpars[..., before] & cols[..., after],
                                          rows[..., before] & cols[..., after]], axis=2).T).T & 1
    chosen = np.tile(np.array([kind != "c" for kind in kinds], dtype=np.int64), (len(modes), 1))
    for pair, j in enumerate(before.tolist()):
        chosen[:, j] ^= meets[:, len(before) + pair]
    z = np.bitwise_xor.reduce(zpars, axis=2)[..., None]
    odd = np.bitwise_xor.reduce(meets[:, :len(before)], axis=1)[:, None]
    for j in range(size):
        z = np.concatenate([z, z ^ rows[..., j, None]], axis=2)
        odd = np.concatenate([odd, odd ^ chosen[:, j, None]], axis=1)
    order = np.lexsort(z[::-1])  # each row by its z masks
    z = np.take_along_axis(z, order[None], axis=2)
    first = np.ones(z.shape[1:], dtype=bool)  # the first of its z mask in its row
    first[:, 1:] = (z[..., 1:] != z[..., :-1]).any(axis=0)
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(1 - 2 * np.take_along_axis(odd, order, axis=1).reshape(-1), starts)
    kept = sums != 0
    at = starts[kept]
    row = at // z.shape[2]
    x = np.take(np.bitwise_xor.reduce(cols, axis=2), row, axis=1)
    z = np.take(z.reshape(len(z), -1), at, axis=1)
    scaled = sums[kept] * 0.5 ** size
    phase = -gf2.popcounts((x & z).T) & 3
    value = np.where(phase & 2, -scaled, scaled)
    # 0.0 + complex(value) * phase: the other part is 0.0, never -0.0
    re, im = np.where(phase & 1, 0.0, value), np.where(phase & 1, value, 0.0)
    factor = np.asarray(factors, dtype=complex)[row]
    coeffs = np.empty(len(row), dtype=complex)  # factor * (re + i im), as Python multiplies
    coeffs.real = factor.real * re - factor.imag * im
    coeffs.imag = factor.real * im + factor.imag * re
    return _new_sum(m, np.stack(x, axis=1), np.stack(z, axis=1), coeffs, False)


def encode_hamiltonian(h: FermionHamiltonian, enc: StandardEncoding) -> QubitHamiltonian:
    """Qubit image of the full Hamiltonian under the encoding.

    Every hop (``h.hopping``) is built at once, then every pair hop
    (``h.interactions``, in u's sorted order), by ladder_products; their
    terms go into one sum, which is merged once.
    """
    if h.modes != enc.modes:
        raise ValueError("mode count mismatch between Hamiltonian and encoding")
    hops = ladder_products(enc, "ca", *h.hopping)
    pair_hops = ladder_products(enc, "ccaa", *h.interactions)
    return (hops + pair_hops).canonicalize()
