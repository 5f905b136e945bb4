"""Invertible-matrix encodings of the full Fock space onto M qubits.

Each encoding relabels basis states |x> -> |Ax> with an invertible binary
matrix A: the identity (Jordan-Wigner), the lower-triangular all-ones
matrix (parity), or the recursively built binary-tree matrix.  Ladder
operators map to two-term Pauli sums derived directly from A, so a single
construction covers all three encodings and is checked against the dense
permutation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fertaper import gf2
from fertaper.fermion import FermionHamiltonian
from fertaper.pauli import PauliOperator, QubitHamiltonian, _check_dense_size

ENCODING_KINDS = ("jordan_wigner", "parity", "binary_tree")


def binary_tree_matrix(m_modes: int) -> np.ndarray:
    """Binary-tree encoding matrix, truncated to the leading m_modes block.

    The power-of-two matrices follow the doubling recursion: the lower-left
    block repeats only its last row (all ones).  Truncation keeps the matrix
    invertible because it is unit lower-triangular.
    """
    size = 1
    mat = np.ones((1, 1), dtype=np.uint8)
    while size < m_modes:
        top = np.concatenate([mat, np.zeros((size, size), dtype=np.uint8)], axis=1)
        lower_left = np.zeros((size, size), dtype=np.uint8)
        lower_left[-1, :] = 1
        bottom = np.concatenate([lower_left, mat], axis=1)
        mat = np.concatenate([top, bottom], axis=0)
        size *= 2
    return mat[:m_modes, :m_modes].copy()


def parity_matrix(m_modes: int) -> np.ndarray:
    return np.tril(np.ones((m_modes, m_modes), dtype=np.uint8))


@dataclass(frozen=True)
class StandardEncoding:
    """One of the three named invertible encodings plus derived data."""

    kind: str
    modes: int
    matrix: np.ndarray
    inverse: np.ndarray

    @property
    def qubits(self) -> int:
        return self.modes

    @cached_property
    def column_masks(self) -> list[int]:
        """Each column of the matrix packed as a qubit mask, row 1 most significant."""
        return gf2.pack_rows(self.matrix.T)

    @cached_property
    def inverse_rows(self) -> list[int]:
        """Each row of the inverse packed as a qubit mask, column 1 most significant."""
        return gf2.pack_rows(self.inverse)

    def encode_bits(self, occ) -> np.ndarray:
        """Qubit basis label Ax of an occupation vector x."""
        return gf2.matvec(self.matrix, np.asarray(occ, dtype=np.uint8))

    def decode_bits(self, s) -> np.ndarray:
        return gf2.matvec(self.inverse, np.asarray(s, dtype=np.uint8))

    def permutation_matrix(self) -> np.ndarray:
        """Dense basis permutation |x> -> |Ax| (oracle use only)."""
        m = self.modes
        _check_dense_size(m)
        dim = 1 << m
        perm = np.zeros((dim, dim))
        for col in range(dim):
            bits = gf2.int_to_bits(col, m)
            row = gf2.bits_to_int(gf2.matvec(self.matrix, bits))
            perm[row, col] = 1.0
        return perm


def build_encoding(kind: str, m_modes: int) -> StandardEncoding:
    if m_modes < 1:
        raise ValueError("need at least one mode")
    if kind == "jordan_wigner":
        mat = np.eye(m_modes, dtype=np.uint8)
    elif kind == "parity":
        mat = parity_matrix(m_modes)
    elif kind == "binary_tree":
        mat = binary_tree_matrix(m_modes)
    else:
        raise ValueError(f"unknown encoding kind {kind!r}; choose from {ENCODING_KINDS}")
    inverse = gf2.unpack_ints(gf2.inverse(gf2.pack_rows(mat), m_modes), m_modes)
    return StandardEncoding(kind, m_modes, mat, inverse)


def update_parity_flip_sets(m_modes: int, j: int, kind: str = "binary_tree"):
    """(update, parity, flip, remainder) qubit sets for mode j.

    update: qubits below j in the encoding matrix column (their stored
    partial sums include mode j, so they flip together with it).
    parity: qubits whose values add up to the occupation parity of modes
    1..j-1.  flip: qubits other than j that determine the occupation of
    mode j.  remainder = parity minus flip.
    """
    enc = build_encoding(kind, m_modes)
    return _sets_from_matrix(enc, j)


def _sets_from_matrix(enc: StandardEncoding, j: int):
    m = enc.modes
    if not 1 <= j <= m:
        raise IndexError(f"mode {j} out of range 1..{m}")
    col = enc.matrix[:, j - 1]
    update = frozenset(i + 1 for i in range(m) if col[i] and i + 1 != j)
    parity_vec = enc.inverse[: j - 1].sum(axis=0) % 2
    parity = frozenset(i + 1 for i in range(m) if parity_vec[i])
    row = enc.inverse[j - 1]
    flip = frozenset(i + 1 for i in range(m) if row[i] and i + 1 != j)
    remainder = parity - flip
    return update, parity, flip, remainder


def mode_op_to_pauli(enc: StandardEncoding, j: int, dagger: bool) -> QubitHamiltonian:
    """Encoded ladder operator as a two-term Pauli sum.

    The encoded annihilator acts as: flip the qubits in column j of the
    encoding matrix, read the sign of the preceding-mode parity, and
    project onto mode j being occupied; the projector turns into the
    difference of two Pauli strings.  The creator flips the projector sign.
    """
    m = enc.modes
    if not 1 <= j <= m:
        raise IndexError(f"mode {j} out of range 1..{m}")
    col = enc.column_masks[j - 1]
    z_parity = 0
    for row in enc.inverse_rows[: j - 1]:
        z_parity ^= row
    z_both = z_parity ^ enc.inverse_rows[j - 1]
    first = PauliOperator.from_masks(m, col, z_parity)
    second = PauliOperator.from_masks(m, col, z_both)
    sign = 1.0 if dagger else -1.0
    return QubitHamiltonian(m, ((0.5, first), (0.5 * sign, second)))


def encoded_observable(enc: StandardEncoding, ops, ladders: dict | None = None) -> QubitHamiltonian:
    """Product of encoded ladder operators, merged after each factor.

    ``ladders`` caches the ladder operators per (mode, dagger) across calls.
    """
    ladders = {} if ladders is None else ladders
    out = None
    for kind, mode in ops:
        key = (mode, kind == "c")
        factor = ladders.get(key)
        if factor is None:
            factor = ladders[key] = mode_op_to_pauli(enc, mode, dagger=key[1])
        out = factor if out is None else out.product(factor)
    return out if out is not None else QubitHamiltonian.zero(enc.modes)


def encode_hamiltonian(h: FermionHamiltonian, enc: StandardEncoding) -> QubitHamiltonian:
    """Qubit image of the full Hamiltonian under the encoding.

    Every scaled part goes into one term list, which is merged once.
    """
    if h.modes != enc.modes:
        raise ValueError("mode count mismatch between Hamiltonian and encoding")
    ladders: dict = {}
    xs: list[int] = []
    zs: list[int] = []
    cs: list[complex] = []

    def add(ops, factor) -> None:
        part = encoded_observable(enc, ops, ladders)
        xs.extend(part.x_masks)
        zs.extend(part.z_masks)
        cs.extend(complex(factor * c) for c in part.coeffs)

    rows, cols = np.nonzero(h.t)
    for a, b in zip(rows.tolist(), cols.tolist()):
        add((("c", a + 1), ("a", b + 1)), h.t[a, b])
    for (a, b, g, d), coeff in h.interactions.items():
        add((("c", a), ("c", b), ("a", g), ("a", d)), coeff)
    return QubitHamiltonian.from_masks(enc.modes, xs, zs, cs).canonicalize()
