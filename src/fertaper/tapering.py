"""Pauli symmetry detection and qubit tapering.

Workflow: collect the (x|z) rows of a Hamiltonian's Pauli terms into a
check matrix, compute its GF(2) kernel (every commuting Pauli lives
there), extract a maximal pairwise-commuting independent subset with a
symplectic Gram-Schmidt pass, normalize the generators to Z-type with
single-qubit basis exchanges, and conjugate the Hamiltonian by the
product of (X_q + generator)/sqrt(2) reflections.  Afterwards each chosen
qubit carries only I or X and can be replaced by a sector sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from fertaper import gf2
from fertaper.pauli import PauliOperator, QubitHamiltonian, commutes, pauli_multiply
from fertaper.standard_maps import StandardEncoding


class NotZReducible(ValueError):
    """Symmetry group cannot be turned into Z-strings by per-qubit exchanges."""


@dataclass(frozen=True)
class CheckMatrix:
    """Commutation constraints of a term list, rows = [x-block | z-block]."""

    matrix: np.ndarray
    generator_matrix: np.ndarray  # provenance: columns are the (x|z) of terms

    @property
    def qubit_count(self) -> int:
        return self.matrix.shape[1] // 2


def check_matrix(h: QubitHamiltonian) -> CheckMatrix:
    """Build the constraint matrix whose kernel is the commutant.

    A row per term: the x-block of the constraints is the term's z-vector
    and vice versa, so that (row . candidate) mod 2 is exactly the
    symplectic product deciding commutation.
    """
    n = h.qubit_count
    terms = h.canonicalize().terms
    g = np.zeros((2 * n, len(terms)), dtype=np.uint8)
    e = np.zeros((len(terms), 2 * n), dtype=np.uint8)
    for j, (_, op) in enumerate(terms):
        g[:n, j] = op.x
        g[n:, j] = op.z
        e[j, :n] = op.z
        e[j, n:] = op.x
    return CheckMatrix(e, g)


def symplectic_product(a: np.ndarray, b: np.ndarray) -> int:
    n = a.shape[0] // 2
    return int((a[:n] @ b[n:] + a[n:] @ b[:n]) % 2)


def symplectic_gram_schmidt(vectors: np.ndarray) -> tuple[list[np.ndarray], list[tuple]]:
    """Split a basis into commuting vectors and anticommuting pairs.

    Processes vectors in the given order; whenever a vector anticommutes
    with a later one the two are paired off and removed from the rest,
    keeping the output deterministic.
    """
    pool = [v.copy() for v in np.atleast_2d(vectors)]
    commuting: list[np.ndarray] = []
    pairs: list[tuple] = []
    while pool:
        v = pool.pop(0)
        partner_idx = next(
            (i for i, w in enumerate(pool) if symplectic_product(v, w) == 1), None
        )
        if partner_idx is None:
            commuting.append(v)
            continue
        w = pool.pop(partner_idx)
        for u in pool:
            if symplectic_product(u, w):
                u ^= v
            if symplectic_product(u, v):
                u ^= w
        pairs.append((v, w))
    return commuting, pairs


@dataclass(frozen=True)
class SymmetryGroup:
    """Independent, pairwise-commuting Pauli generators of the commutant."""

    qubit_count: int
    generators: tuple[PauliOperator, ...]

    @property
    def size(self) -> int:
        return len(self.generators)

    def vectors(self) -> np.ndarray:
        out = np.zeros((len(self.generators), 2 * self.qubit_count), dtype=np.uint8)
        for i, g in enumerate(self.generators):
            out[i, : self.qubit_count] = g.x
            out[i, self.qubit_count :] = g.z
        return out

    def same_group(self, others) -> bool:
        """Group equality against another generator collection."""
        mat = np.zeros((len(others), 2 * self.qubit_count), dtype=np.uint8)
        for i, g in enumerate(others):
            mat[i, : self.qubit_count] = g.x
            mat[i, self.qubit_count :] = g.z
        return gf2.same_span(self.vectors(), mat)


def _vector_to_pauli(vec: np.ndarray, n: int) -> PauliOperator:
    x = tuple(int(b) for b in vec[:n])
    z = tuple(int(b) for b in vec[n:])
    n_y = sum(a & b for a, b in zip(x, z))
    return PauliOperator(x, z, n_y)  # Hermitian, +1 prefix


def find_symmetries(h: QubitHamiltonian) -> SymmetryGroup:
    """Maximal abelian symmetry group of the term set.

    The kernel of the check matrix holds every Pauli commuting with all
    terms; a symplectic Gram-Schmidt pass keeps the commuting part and one
    member of each anticommuting pair.  Independence of the generators
    guarantees the group never contains -identity.
    """
    n = h.qubit_count
    e = check_matrix(h)
    basis = gf2.kernel_basis(e.matrix)
    if basis.shape[0] == 0:
        return SymmetryGroup(n, ())
    commuting, pairs = symplectic_gram_schmidt(basis)
    chosen = commuting + [v for v, _ in pairs]
    chosen.sort(key=lambda v: tuple(v))
    return SymmetryGroup(n, tuple(_vector_to_pauli(v, n) for v in chosen))


# -- Z-type normalization ---------------------------------------------------

# Single-qubit letter exchanges used to normalize generators.  Each maps
# (x, z) bits of one qubit and adds a phase power; both are involutions
# realized by Clifford rotations, so spectra are unchanged.
_ROT_XZ = {(0, 0): (0, 0, 0), (1, 0): (0, 1, 0), (0, 1): (1, 0, 0), (1, 1): (1, 1, 2)}
_ROT_YZ = {(0, 0): (0, 0, 0), (1, 0): (1, 0, 0), (0, 1): (1, 1, 3), (1, 1): (0, 1, 3)}


def _apply_rotations(op: PauliOperator, rotations: dict[int, str]) -> PauliOperator:
    x = list(op.x)
    z = list(op.z)
    phase = op.phase_power
    for qubit, which in rotations.items():
        table = _ROT_XZ if which == "X" else _ROT_YZ
        nx, nz, dp = table[(x[qubit - 1], z[qubit - 1])]
        x[qubit - 1] = nx
        z[qubit - 1] = nz
        phase += dp
    return PauliOperator(tuple(x), tuple(z), phase % 4)


@dataclass(frozen=True)
class TaperingPlan:
    """Everything needed to rewrite a Hamiltonian with its symmetries fixed.

    rotations: per-qubit letter exchanged with Z before anything else.
    generators: Z-type Pauli generators after rotation, recombined so that
    generator i is the only one acting on qubit paired_qubits[i].
    """

    qubit_count: int
    rotations: dict[int, str]
    generators: tuple[PauliOperator, ...]
    paired_qubits: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.generators)


def build_plan(group: SymmetryGroup, h: QubitHamiltonian | None = None) -> TaperingPlan:
    """Choose paired qubits and Z-type generators for tapering.

    Per-qubit exchanges normalize X- or Y-type columns to Z; a qubit where
    different generators use different letters admits no such exchange and
    raises NotZReducible.  Pivots for the paired qubits are taken from the
    highest qubit index downward, which reproduces the published generator
    choices for the worked molecular examples.
    """
    n = group.qubit_count
    if group.size == 0:
        return TaperingPlan(n, {}, (), ())
    rotations: dict[int, str] = {}
    for qubit in range(1, n + 1):
        letters = {g.letter_at(qubit) for g in group.generators} - {"I"}
        if len(letters) > 1:
            raise NotZReducible(
                f"generators act on qubit {qubit} with distinct letters {sorted(letters)}"
            )
        if letters and letters != {"Z"}:
            rotations[qubit] = letters.pop()
    rotated = [_apply_rotations(g, rotations) for g in group.generators]
    zblock = np.array([g.z for g in rotated], dtype=np.uint8)
    reduced, pivots = gf2.rref(zblock, column_order=range(n - 1, -1, -1))
    if len(pivots) != len(rotated):
        raise ValueError("symmetry generators are not independent")
    order = np.argsort(pivots)
    gens = tuple(
        PauliOperator((0,) * n, tuple(int(b) for b in reduced[i]), 0) for i in order
    )
    paired = tuple(int(pivots[i]) + 1 for i in order)
    return TaperingPlan(n, dict(rotations), gens, paired)


def _conjugate_by_reflection(coeff: complex, op: PauliOperator,
                             x_op: PauliOperator, tau: PauliOperator):
    """Image of coeff*op under the reflection (x_op + tau)/sqrt(2).

    The reflection is Hermitian and squares to one, so conjugation sends a
    Pauli that commutes with both fixed points to itself, one that
    anticommutes with both to minus itself, and otherwise multiplies by
    the product tau*x_op (or x_op*tau) of the fixed points.
    """
    cx = commutes(op, x_op)
    ct = commutes(op, tau)
    if cx and ct:
        return coeff, op
    if not cx and not ct:
        return -coeff, op
    if cx:  # commutes with x_op, anticommutes with tau
        new = pauli_multiply(pauli_multiply(tau, x_op), op)
    else:  # anticommutes with x_op, commutes with tau
        new = pauli_multiply(pauli_multiply(x_op, tau), op)
    return coeff, new


def clifford_transform(h: QubitHamiltonian, plan: TaperingPlan) -> QubitHamiltonian:
    """Rotate the Hamiltonian so each symmetry becomes a single-qubit X.

    Applies the per-qubit exchanges, then each reflection in turn.  The
    result has the same spectrum and the same number of Pauli terms, and
    acts on every paired qubit by I or X only.
    """
    if plan.size == 0 and not plan.rotations:
        return h.canonicalize()
    n = h.qubit_count
    reflections = [
        (PauliOperator.single(n, q, "X"), tau)
        for q, tau in zip(plan.paired_qubits, plan.generators)
    ]
    terms = []
    for coeff, op in h.canonicalize().terms:
        op = _apply_rotations(op, plan.rotations)
        for x_op, tau in reflections:
            coeff, op = _conjugate_by_reflection(coeff, op, x_op, tau)
        terms.append((coeff, op))
    return QubitHamiltonian(n, tuple(terms)).canonicalize()


def taper(h_transformed: QubitHamiltonian, plan: TaperingPlan, sector) -> QubitHamiltonian:
    """Drop the paired qubits, substituting the sector signs for their X's.

    Requires the transformed Hamiltonian (each term acts on paired qubits
    by I or X).  sector is a +/-1 sequence, one entry per generator.
    """
    sector = tuple(int(s) for s in sector)
    if len(sector) != plan.size:
        raise ValueError(f"sector needs {plan.size} entries")
    if any(s not in (1, -1) for s in sector):
        raise ValueError("sector entries must be +1 or -1")
    terms = []
    for coeff, op in h_transformed.canonicalize().terms:
        factor = 1
        for q, s in zip(plan.paired_qubits, sector):
            letter = op.letter_at(q)
            if letter == "X":
                factor *= s
            elif letter != "I":
                raise ValueError(
                    f"term {op.label} acts on paired qubit {q} by {letter}; "
                    "run clifford_transform first"
                )
        terms.append((coeff * factor, op.delete_qubits(plan.paired_qubits)))
    return QubitHamiltonian(h_transformed.qubit_count - plan.size, tuple(terms)).canonicalize()


def all_sectors(k: int):
    return list(itertools.product((1, -1), repeat=k))


def sector_spectra(h: QubitHamiltonian, plan: TaperingPlan,
                   transformed: QubitHamiltonian | None = None) -> dict[tuple, np.ndarray]:
    """Dense spectrum of every sector's tapered Hamiltonian."""
    if transformed is None:
        transformed = clifford_transform(h, plan)
    out = {}
    for sector in all_sectors(plan.size):
        reduced = taper(transformed, plan, sector)
        out[sector] = np.linalg.eigvalsh(reduced.dense()) if reduced.qubit_count else \
            np.array([sum(c.real for c, _ in reduced.terms)])
    return out


def spin_sector_signs(n_up: int, n_down: int, enc: StandardEncoding) -> tuple[int, int]:
    """Sector eigenvalues of the two spin-parity Z symmetries.

    For the parity and binary-tree encodings with an even number of modes
    (power of two for binary-tree), rows M/2 and M of the encoding matrix
    sum the spin-up and all occupations, so qubits M/2 and M carry the
    spin-up parity and the total parity.
    """
    m = enc.modes
    if enc.kind == "parity":
        if m % 2:
            raise ValueError("parity spin symmetries need an even mode count")
    elif enc.kind == "binary_tree":
        if m & (m - 1) or m < 2:
            raise ValueError("binary-tree spin symmetries need a power-of-two mode count")
    else:
        raise ValueError(f"spin sector signs unsupported for {enc.kind!r}")
    up = -1 if n_up % 2 else 1
    total = -1 if (n_up + n_down) % 2 else 1
    return up, total
