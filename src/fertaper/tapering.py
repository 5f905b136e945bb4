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
from fertaper.pauli import _PHASE, PauliOperator, QubitHamiltonian
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
    h = h.canonicalize()
    x = gf2.unpack_ints(h.x_masks, h.qubit_count)
    z = gf2.unpack_ints(h.z_masks, h.qubit_count)
    return CheckMatrix(np.concatenate([z, x], axis=1),
                       np.ascontiguousarray(np.concatenate([x, z], axis=1).T))


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
        return _xz_rows(self.generators, self.qubit_count)

    def same_group(self, others) -> bool:
        """Group equality against another generator collection."""
        return gf2.same_span(self.vectors(), _xz_rows(others, self.qubit_count))


def _xz_rows(ops, n: int) -> np.ndarray:
    """One (x|z) bit row per Pauli operator."""
    return np.concatenate([gf2.unpack_ints([op.x_mask for op in ops], n),
                           gf2.unpack_ints([op.z_mask for op in ops], n)], axis=1)


def _vector_to_pauli(vec: np.ndarray, n: int) -> PauliOperator:
    x, z = gf2.pack_rows(np.reshape(vec, (2, n)))
    return PauliOperator.from_masks(n, x, z, (x & z).bit_count())  # Hermitian, +1 prefix


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

# Single-qubit letter exchanges used to normalize generators: X <-> Z (with
# Y -> -Y) on the qubits of one mask, Y <-> Z on those of the other.  Both
# are involutions realized by Clifford rotations, so spectra are unchanged.


def _rotation_masks(rotations: dict[int, str], n: int) -> tuple[int, int]:
    """(X-exchange mask, Y-exchange mask) of a plan's rotations."""
    rx = ry = 0
    for qubit, which in rotations.items():
        if which == "X":
            rx |= 1 << (n - qubit)
        else:
            ry |= 1 << (n - qubit)
    return rx, ry


def _rotate(x: int, z: int, rx: int, ry: int) -> tuple[int, int, int]:
    """Exchanged masks and the phase power the exchange adds."""
    swap = (x ^ z) & rx
    x, z, phase = x ^ swap, z ^ swap, 2 * (x & z & rx).bit_count()
    return x ^ (z & ry), z, phase + 3 * (z & ry).bit_count()


def _apply_rotations(op: PauliOperator, rotations: dict[int, str]) -> PauliOperator:
    x, z, phase = _rotate(op.x_mask, op.z_mask, *_rotation_masks(rotations, op.n))
    return PauliOperator.from_masks(op.n, x, z, op.phase_power + phase)


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
    z_masks = gf2.pack_rows(reduced)
    gens = tuple(PauliOperator.from_masks(n, 0, z_masks[i]) for i in order)
    paired = tuple(int(pivots[i]) + 1 for i in order)
    return TaperingPlan(n, dict(rotations), gens, paired)


def clifford_transform(h: QubitHamiltonian, plan: TaperingPlan) -> QubitHamiltonian:
    """Rotate the Hamiltonian so each symmetry becomes a single-qubit X.

    Applies the per-qubit exchanges, then each reflection
    (X_q + tau)/sqrt(2) in turn.  The reflection is Hermitian and squares
    to one, so conjugation keeps a Pauli that commutes with both X_q and
    tau, negates one that anticommutes with both, and otherwise multiplies
    it by tau*X_q (anticommutes with tau) or X_q*tau (with X_q): an XOR of
    the masks with (X_q | tau) and a phase update.  The result has the
    same spectrum and the same number of Pauli terms, and acts on every
    paired qubit by I or X only.
    """
    h = h.canonicalize()
    if plan.size == 0 and not plan.rotations:
        return h
    n = h.qubit_count
    rx, ry = _rotation_masks(plan.rotations, n)
    # (X_q mask, tau's z mask, phase power of tau*X_q); X_q*tau has power 0
    reflections = [(1 << (n - q), tau.z_mask, 2 * (tau.z_mask >> (n - q) & 1))
                   for q, tau in zip(plan.paired_qubits, plan.generators)]
    xs, zs, cs = [], [], []
    for x, z, c in zip(h.x_masks, h.z_masks, h.coeffs):
        phase = (x & z).bit_count()  # letter form: i per Y
        if rx or ry:
            x, z, turn = _rotate(x, z, rx, ry)
            phase += turn
        for xq, tz, tau_xq in reflections:
            anti_x = bool(z & xq)
            anti_tau = (x & tz).bit_count() & 1
            if anti_x == anti_tau:
                if anti_x:
                    c = -c
                continue
            if anti_tau:  # tau*X_q times the term; the odd swap sign adds 2
                phase += tau_xq + 2
            x ^= xq
            z ^= tz
        shift = (phase - (x & z).bit_count()) % 4
        xs.append(x)
        zs.append(z)
        cs.append(c * _PHASE[shift])
    return QubitHamiltonian.from_masks(n, xs, zs, cs).canonicalize()


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
    h = h_transformed.canonicalize()
    n = h.qubit_count
    paired = negative = 0
    for q, s in zip(plan.paired_qubits, sector):
        paired |= 1 << (n - q)
        if s < 0:
            negative |= 1 << (n - q)
    drop = sorted((n - q for q in plan.paired_qubits), reverse=True)
    xs, zs, cs = [], [], []
    for x, z, c in zip(h.x_masks, h.z_masks, h.coeffs):
        if z & paired:
            op = PauliOperator.from_masks(n, x, z, (x & z).bit_count())
            q = next(q for q in plan.paired_qubits if op.letter_at(q) not in "IX")
            raise ValueError(
                f"term {op.label} acts on paired qubit {q} by {op.letter_at(q)}; "
                "run clifford_transform first"
            )
        xs.append(gf2.drop_bits(x, drop))
        zs.append(gf2.drop_bits(z, drop))
        cs.append(-c if (x & negative).bit_count() & 1 else c)
    return QubitHamiltonian.from_masks(n - plan.size, xs, zs, cs).canonicalize()


def all_sectors(k: int):
    return list(itertools.product((1, -1), repeat=k))


def sector_spectra(h: QubitHamiltonian, plan: TaperingPlan,
                   transformed: QubitHamiltonian | None = None,
                   sectors=None) -> dict[tuple, np.ndarray]:
    """Ascending dense spectrum of each sector's tapered Hamiltonian.

    sectors defaults to all 2^k sign choices; the result keeps their order.
    A sector with no qubits left is a 1x1 matrix, its one coefficient.
    """
    if transformed is None:
        transformed = clifford_transform(h, plan)
    if sectors is None:
        sectors = all_sectors(plan.size)
    return {tuple(sector): np.linalg.eigvalsh(taper(transformed, plan, sector).dense())
            for sector in sectors}


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
