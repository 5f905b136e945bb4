"""Invertible-matrix encodings of the full Fock space onto M qubits.

Each encoding relabels basis states |x> -> |Ax> with an invertible binary
matrix A: the identity (Jordan-Wigner), the lower-triangular all-ones
matrix (parity), or the recursively built binary-tree matrix.  A is kept
only as qubit masks, the Pauli mask layout (row or column 1 most
significant): its columns are the X masks of the ladder operators and the
rows of its inverse the Z masks that read occupations, so a single
construction covers all three encodings and is checked against the dense
permutation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fertaper import gf2, limits
from fertaper.fermion import FermionHamiltonian
from fertaper.pauli import DEFAULT_PRUNE_TOL, _PHASE, PauliOperator, QubitHamiltonian

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

    @property
    def matrix(self) -> np.ndarray:
        """A as a 0/1 uint8 array, derived from the column masks."""
        return gf2.unpack_ints(self.column_masks, self.modes).T

    def permutation_matrix(self) -> np.ndarray:
        """Dense basis permutation |x> -> |Ax> (oracle use only)."""
        dim = 1 << self.modes
        limits.check_dense(dim)
        cols = np.arange(dim, dtype=np.int64)
        images = 0  # A x packed, the XOR of the columns of x's occupied modes
        for c, col in enumerate(self.column_masks):
            images ^= (cols >> (self.modes - 1 - c) & 1) * col
        perm = np.zeros((dim, dim))
        perm[images, cols] = 1.0
        return perm


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
    rows = _matrix_rows(kind, m)
    columns = tuple(sum((r >> (m - c) & 1) << (m - 1 - i) for i, r in enumerate(rows))
                    for c in range(1, m + 1))
    return StandardEncoding(kind, m, columns, tuple(gf2.inverse(rows, m)))


def _ladder_masks(enc: StandardEncoding, j: int) -> tuple[int, int, int]:
    """enc.ladder_masks[j], or IndexError naming a mode outside 1..M."""
    masks = enc.ladder_masks.get(j)
    if masks is None:
        raise IndexError(f"mode {j} out of range 1..{enc.modes}")
    return masks


def mode_op_to_pauli(enc: StandardEncoding, j: int, dagger: bool) -> QubitHamiltonian:
    """Encoded ladder operator as a two-term Pauli sum.

    The encoded annihilator acts as: flip the qubits in column j of the
    encoding matrix, read the sign of the preceding-mode parity, and
    project onto mode j being occupied; the projector turns into the
    difference of two Pauli strings.  The creator flips the projector sign.
    """
    m = enc.modes
    col, z_parity, row = _ladder_masks(enc, j)
    first = PauliOperator.from_masks(m, col, z_parity)
    second = PauliOperator.from_masks(m, col, z_parity ^ row)
    sign = 1.0 if dagger else -1.0
    return QubitHamiltonian(m, ((0.5, first), (0.5 * sign, second)))


def encoded_observable(enc: StandardEncoding, ops) -> QubitHamiltonian:
    """Canonical product of encoded ladder operators, in closed form.

    Ladder operator j is X(col) Z(zpar) (1 +/- Z(row)) / 2, + for a creator,
    so a product of k of them has the one x mask XOR(col) and a term for
    each of the 2^k choices of the row factors.  Moving X(col) of each
    factor left past the Z's before it gives (-1)^popcount(z_so_far & col);
    the letter phase i^-popcount(x & z) comes last.  Equal z masks are
    merged, sorted and pruned as ``canonicalize`` does: the coefficients
    are sums of +/-2^-k times 1 or i, exact in any order, so this equals
    the factor-by-factor product bit for bit.
    """
    if not ops:
        return QubitHamiltonian.zero(enc.modes)
    ladders = enc.ladder_masks
    x = 0
    branches = [(0, 1)]  # (z mask so far, sign) of each term
    for kind, mode in ops:
        masks = ladders.get(mode)  # one dict lookup per operator, not a call
        col, zpar, row = masks if masks is not None else _ladder_masks(enc, mode)
        flip = 1 if kind == "c" else -1
        grown = []
        for z, sign in branches:
            if (z & col).bit_count() & 1:
                sign = -sign
            grown.append((z ^ zpar, sign))
            grown.append((z ^ zpar ^ row, sign * flip))
        branches = grown
        x ^= col
    total: dict[int, int] = {}
    for z, sign in branches:
        total[z] = total.get(z, 0) + sign
    scale = 0.5 ** len(ops)
    zs, cs = [], []
    for z in sorted(total):
        c = total[z] * scale
        if abs(c) >= DEFAULT_PRUNE_TOL:
            zs.append(z)
            # 0.0 + turns a -0.0 part into 0.0, as canonicalize's merge does
            cs.append(0.0 + complex(c) * _PHASE[-(x & z).bit_count() % 4])
    return QubitHamiltonian.from_masks(enc.modes, [x] * len(zs), zs, cs, canonical=True)


def encode_hamiltonian(h: FermionHamiltonian, enc: StandardEncoding) -> QubitHamiltonian:
    """Qubit image of the full Hamiltonian under the encoding.

    Every scaled part goes into one term list, which is merged once.
    """
    if h.modes != enc.modes:
        raise ValueError("mode count mismatch between Hamiltonian and encoding")
    xs: list[int] = []
    zs: list[int] = []
    cs: list[complex] = []

    def add(ops, factor) -> None:
        part = encoded_observable(enc, ops)
        xs.extend(part.x_masks)
        zs.extend(part.z_masks)
        cs.extend(complex(factor * c) for c in part.coeffs)

    rows, cols = np.nonzero(h.t)
    for a, b in zip(rows.tolist(), cols.tolist()):
        add((("c", a + 1), ("a", b + 1)), h.t[a, b])
    for (a, b, g, d), coeff in h.interactions.items():
        add((("c", a), ("c", b), ("a", g), ("a", d)), coeff)
    return QubitHamiltonian.from_masks(enc.modes, xs, zs, cs).canonicalize()
