"""Pauli symmetry detection and qubit tapering.

Workflow: shift every Pauli term's mask words into a check-matrix row
(z << n) | x, compute its GF(2) kernel with the column eliminator (every
commuting Pauli (x << n) | z lives there), extract a maximal
pairwise-commuting independent subset with a symplectic Gram-Schmidt
pass, pair each generator tau_i with a qubit and a single-qubit Pauli
sigma_i that anticommutes with tau_i alone (symplectic elimination), and
conjugate the Hamiltonian by the product of (sigma_i + tau_i)/sqrt(2)
reflections, plus a Hadamard where sigma_i is Z, each on every term's
mask words at once.  Afterwards each paired qubit carries only I or X
and can be replaced by a sector sign, the eigenvalue of tau_i on the
input Hamiltonian: a sector's tapered Hamiltonian is the signed
transformed terms with the paired bits dropped from their words, merged
by QubitHamiltonian.merged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from fertaper import gf2, limits
from fertaper.pauli import (
    DEFAULT_PRUNE_TOL,
    _PHASE,
    PauliOperator,
    QubitHamiltonian,
    commutes,
    qubit_mask,
)


def check_matrix(h: QubitHamiltonian) -> np.ndarray:
    """Words of the rows (z << n) | x of the canonical terms, whose GF(2) kernel is the commutant.

    A candidate Pauli is the vector v = (x' << n) | z', so popcount(row & v)
    is x.z' + z.x', the symplectic product deciding commutation.
    """
    h = h.canonicalize()
    n = h.qubit_count
    rows = np.zeros((len(h), gf2.word_count(2 * n)), dtype=np.uint64)
    gf2.or_shifted(rows, h.z_masks, n)
    gf2.or_shifted(rows, h.x_masks, 0)
    return rows


def _anticommute(u: int, v: int, n: int) -> int:
    """Symplectic product of two (x << n) | z vectors: 1 if they anticommute.

    A shifted-down x block meets only the z block of the other vector.
    """
    return (((u >> n) & v) ^ (u & (v >> n))).bit_count() & 1


def symplectic_gram_schmidt(vectors, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Split a basis of (x << n) | z vectors into commuting ones and anticommuting pairs.

    Processes vectors in the given order; whenever a vector anticommutes
    with a later one the two are paired off and removed from the rest,
    keeping the output deterministic.
    """
    pool = list(vectors)
    commuting: list[int] = []
    pairs: list[tuple[int, int]] = []
    while pool:
        v = pool.pop(0)
        partner_idx = next((i for i, w in enumerate(pool) if _anticommute(v, w, n)), None)
        if partner_idx is None:
            commuting.append(v)
            continue
        w = pool.pop(partner_idx)
        for i, u in enumerate(pool):
            if _anticommute(u, w, n):
                u ^= v
            if _anticommute(u, v, n):
                u ^= w
            pool[i] = u
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

    def vectors(self) -> list[int]:
        """One (x << n) | z row per generator."""
        return [(g.x_mask << self.qubit_count) | g.z_mask for g in self.generators]

    def same_group(self, others) -> bool:
        """Group equality against another generator collection on as many qubits."""
        others = SymmetryGroup(self.qubit_count, tuple(others))
        if any(op.n != self.qubit_count for op in others.generators):
            raise ValueError("qubit count mismatch in group comparison")
        return gf2.same_span(self.vectors(), others.vectors())


def find_symmetries(h: QubitHamiltonian) -> SymmetryGroup:
    """Maximal abelian symmetry group of the term set.

    The kernel of the check matrix holds every Pauli commuting with all
    terms; a symplectic Gram-Schmidt pass keeps the commuting part and one
    member of each anticommuting pair.  Independence of the generators
    guarantees the group never contains -identity.
    """
    n = h.qubit_count
    basis = gf2.kernel_basis(check_matrix(h), 2 * n)
    commuting, pairs = symplectic_gram_schmidt(basis, n)
    low = (1 << n) - 1
    generators = []
    for v in sorted(commuting + [v for v, _ in pairs]):
        x, z = v >> n, v & low
        generators.append(PauliOperator.from_masks(n, x, z, (x & z).bit_count()))  # Hermitian
    return SymmetryGroup(n, tuple(generators))


# -- pairing and reflections ------------------------------------------------


@dataclass(frozen=True)
class TaperingPlan:
    """Everything needed to rewrite a Hamiltonian with its symmetries fixed.

    generators: symmetries of the input Hamiltonian, recombined so that
    generator i is the only one anticommuting with sigma_i, a single-qubit
    X or Z on qubit paired_qubits[i].  Sector sign i is the eigenvalue of
    generators[i].
    """

    qubit_count: int
    generators: tuple[PauliOperator, ...]
    paired_qubits: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.generators)

    def reflections(self) -> list[tuple[PauliOperator, PauliOperator]]:
        """(a, b) of each reflection (a + b)/sqrt(2), in the order applied.

        (sigma_i, generator i) maps the generator to sigma_i; a Hadamard
        (X_q, Z_q) then turns each sigma_i = Z_q into X_q.  sigma_i is X_q
        when generator i is the only one with a Z or Y on q, else Z_q: one
        of the two anticommutes with generator i alone (build_plan), but
        generator i's own letter does not say which, since a later
        elimination step can turn its X on q into Y.
        """
        n = self.qubit_count
        pairs, hadamards = [], []
        for i, (q, tau) in enumerate(zip(self.paired_qubits, self.generators)):
            bit = 1 << (n - q)
            alone = not any(g.z_mask & bit for j, g in enumerate(self.generators) if j != i)
            sigma = PauliOperator.single(n, q, "X" if tau.z_mask & bit and alone else "Z")
            pairs.append((sigma, tau))
            if sigma.z_mask:
                hadamards.append((PauliOperator.single(n, q, "X"), sigma))
        return pairs + hadamards


def build_plan(group: SymmetryGroup, h: QubitHamiltonian | None = None) -> TaperingPlan:
    """Pair every generator with a qubit and a single-qubit Pauli sigma there.

    Qubits are visited from n down to 1.  The first unpaired generator
    acting on qubit q is paired with it, sigma = X_q (Z_q where its letter
    is X), and every other generator anticommuting with sigma is multiplied
    by it, so that sigma anticommutes with its own generator only: the
    destabilizer elimination of Aaronson and Gottesman (PRA 70, 052328).
    Later steps multiply by generators that commute with sigma, so this
    holds at the end, though they can turn the generator's X on q into Y.
    On Z-type generators this is the reduced row echelon form of the
    z-block with qubit n first, which reproduces the published generator
    choices for the worked molecular examples.  h is not used.
    """
    n = group.qubit_count
    if not all(commutes(a, b) for a, b in itertools.combinations(group.generators, 2)):
        raise ValueError("symmetry generators do not commute")
    gens = [[g.x_mask, g.z_mask] for g in group.generators]
    paired: dict[int, int] = {}  # generator index -> qubit
    for q in range(n, 0, -1):
        bit = 1 << (n - q)
        i = next((i for i, (x, z) in enumerate(gens)
                  if i not in paired and (x | z) & bit), None)
        if i is None:
            continue
        paired[i] = q
        anti = 1 if gens[i][1] & bit else 0  # sigma = X_q meets z bits, Z_q x bits
        for j, g in enumerate(gens):
            if j != i and g[anti] & bit:
                g[0] ^= gens[i][0]
                g[1] ^= gens[i][1]
    if len(paired) != len(gens):
        raise ValueError("symmetry generators are not independent")
    order = sorted(paired, key=paired.get)
    return TaperingPlan(
        n, tuple(PauliOperator.from_masks(n, x, z, (x & z).bit_count())
                 for x, z in (gens[i] for i in order)),
        tuple(paired[i] for i in order))


def clifford_transform(h: QubitHamiltonian, plan: TaperingPlan) -> QubitHamiltonian:
    """Rotate the Hamiltonian so each symmetry becomes a single-qubit X.

    Applies the plan's reflections (a + b)/sqrt(2) in turn, each to every
    term at once, on the transposed mask words (one row of terms per word,
    so numpy's inner loops run over the terms).  A reflection is Hermitian
    and squares to one, so conjugation keeps a Pauli that commutes with
    both a and b, negates one that anticommutes with both, and otherwise
    multiplies it by a*b (anticommutes with a) or b*a = -a*b (with b): an
    XOR of the masks with those of a*b and a phase update.  The result has
    the same spectrum and number of terms, and acts on every paired qubit
    by I or X only.
    """
    h = h.canonicalize()
    if plan.size == 0:
        return h
    n = h.qubit_count
    x, z = (masks.T.copy() for masks in (h.x_masks, h.z_masks))
    cs = h.coeffs
    phase = gf2.popcounts((x & z).T)  # letter form: i per Y
    for a, b in plan.reflections():
        ax, az, bx, bz = gf2.uint64_words([a.x_mask, a.z_mask, b.x_mask, b.z_mask], n)[..., None]
        anti_a = gf2.popcounts(((x & az) ^ (z & ax)).T) & 1
        anti_b = gf2.popcounts(((x & bz) ^ (z & bx)).T) & 1
        cs = np.where(anti_a & anti_b, -cs, cs)
        moved = anti_a != anti_b
        # the phase power of a*b in X^x Z^z form, and the swap past x's Z's
        ab_phase = a.phase_power + b.phase_power + 2 * (a.z_mask & b.x_mask).bit_count()
        swap = gf2.popcounts((x & (az ^ bz)).T) + anti_b
        phase = np.where(moved, phase + ab_phase + 2 * swap, phase)
        every = -moved.astype(np.uint64)  # all ones on the moved terms
        x ^= (ax ^ bx) & every
        z ^= (az ^ bz) & every
    shift = (phase - gf2.popcounts((x & z).T)) % 4
    return QubitHamiltonian.merged(n, np.stack(x, axis=1), np.stack(z, axis=1),
                                   cs * np.array(_PHASE)[shift])


def taper(h_transformed: QubitHamiltonian, plan: TaperingPlan, sector) -> QubitHamiltonian:
    """Drop the paired qubits, substituting the sector signs for their X's.

    Requires the transformed Hamiltonian (each term acts on paired qubits
    by I or X).  sector is a +/-1 sequence, one entry per generator.
    """
    sector = tuple(int(s) for s in sector)
    return taper_sectors(h_transformed, plan, [sector])[sector]


def taper_sectors(h_transformed: QubitHamiltonian, plan: TaperingPlan,
                  sectors) -> dict[tuple, QubitHamiltonian]:
    """The tapered Hamiltonian of each sector, one QubitHamiltonian.merged each.

    The paired bits of every canonical term are dropped from its mask words
    once, for all sectors.  A sector negates the terms whose X's on paired
    qubits meet its -1 entries an odd number of times, and merged sums the
    signed terms of each tapered Pauli in term order.
    """
    sectors = [tuple(int(s) for s in sector) for sector in sectors]
    for sector in sectors:
        if len(sector) != plan.size:
            raise ValueError(f"sector needs {plan.size} entries")
        if any(s not in (1, -1) for s in sector):
            raise ValueError("sector entries must be +1 or -1")
    h = h_transformed.canonicalize()
    n = h.qubit_count
    x, z = h.x_masks, h.z_masks
    # each term's X's and Z's on the paired qubits, a word column at a time
    paired = gf2.uint64_words([qubit_mask(n, plan.paired_qubits)], n)[0]
    flips = [x[:, k] & word for k, word in enumerate(paired)]
    bad = np.flatnonzero(np.bitwise_or.reduce([z[:, k] & word for k, word in enumerate(paired)]))
    if len(bad):  # the first such term: its own PauliOperator, not a view of every term
        (x_k,), (z_k,) = gf2.word_ints(x[bad[:1]]), gf2.word_ints(z[bad[:1]])
        op = PauliOperator.from_masks(n, x_k, z_k, (x_k & z_k).bit_count())
        q = next(q for q in plan.paired_qubits if op.letter_at(q) not in "IX")
        raise ValueError(
            f"term {op.label} acts on paired qubit {q} by {op.letter_at(q)}; "
            "run clifford_transform first"
        )
    drop = [n - q for q in plan.paired_qubits]
    xs, zs = (gf2.drop_word_bits(masks, n, drop) for masks in (x, z))
    negatives = gf2.uint64_words([qubit_mask(n, (q for q, s in zip(plan.paired_qubits, sector)
                                                 if s < 0)) for sector in sectors], n)
    cs = h.coeffs
    out = {}
    for sector, negative in zip(sectors, negatives):
        odd = sum(np.bitwise_count(flip & word) for flip, word in zip(flips, negative)) & 1
        try:
            out[sector] = QubitHamiltonian.merged(n - plan.size, xs, zs, np.where(odd, -cs, cs))
        except ValueError as err:
            raise ValueError(f"in sector {sector_label(sector)} {err}") from None
    return out


def sector_label(sector) -> str:
    """A sector's signs spelled as a string over +/-."""
    return "".join("+" if s == 1 else "-" for s in sector)


def all_sectors(k: int):
    """Every sign choice of k generators, +1 first; refused past limits.SECTOR_COUNT_CAP."""
    if 1 << k > limits.SECTOR_COUNT_CAP:
        raise ValueError(f"{k} symmetries give 2^{k} sectors, over the cap of "
                         f"{limits.SECTOR_COUNT_CAP} enumerated at once; name the sectors "
                         "instead (taper --sector)")
    return list(itertools.product((1, -1), repeat=k))


class BasisBlocks:
    """Sums on one register over their 2^n basis states, split into connected blocks.

    Sum i's states are offset by i * 2^n, so one labelling covers every
    sum and no block crosses from one sum to another; the dense cap holds
    for all of them together.  The canonical terms of a sum sharing an x
    mask sum to one value per state s, the matrix element <s^x|H|s>, built
    one x mask at a time.  Every nonzero value is an edge s - s^x.  It
    must be the summed value: on a pair of modes whose occupation number
    would change, XX and YY cancel, so the x masks alone would join
    particle numbers.  Only edges with s^x >= s are kept, the lower
    triangle that eigvalsh reads, and min-label propagation runs along
    them both ways, labelling each state by the least state of its
    component.  On tapered molecular sectors these are their
    particle-number and spin blocks, found from the matrices alone.
    """

    def __init__(self, sums):
        sums = [h.canonicalize() for h in sums]
        n = self.qubit_count = sums[0].qubit_count if sums else 0
        if any(h.qubit_count != n for h in sums):
            raise ValueError("qubit count mismatch between sums")
        limits.check_dense(max(1, len(sums)) << n)
        size = 1 << n
        states = np.arange(size, dtype=np.int64)
        rows = max(1, (1 << 16) >> n)  # sign rows built at once

        def signs_of(zs):
            return np.where(np.bitwise_count(states & zs[:, None]) & 1, -1 + 0j, 1 + 0j)

        groups: dict[int, list] = {}  # x mask -> (sum, its z masks, coefficients)
        for i, h in enumerate(sums):
            # the dense cap keeps n under 64 qubits: one word per mask
            xs, zs = h.x_masks[:, 0].astype(np.int64), h.z_masks[:, 0].astype(np.int64)
            cs = h.coeffs * np.array(_PHASE)[np.bitwise_count(xs & zs) % 4]
            starts = np.flatnonzero(np.diff(xs, prepend=-1)).tolist()  # sorted by x
            for lo, hi in zip(starts, [*starts[1:], len(xs)]):
                groups.setdefault(int(xs[lo]), []).append((i, zs[lo:hi], cs[lo:hi]))
        sources, targets, values = [states[:0]], [states[:0]], [np.zeros(0, dtype=complex)]
        for x, parts in groups.items():
            # the sign rows of every sum's z masks, built once if they fit
            every_z = np.array(sorted(set().union(*(zs.tolist() for _, zs, _ in parts))),
                               dtype=np.int64)
            shared = signs_of(every_z) if len(every_z) <= rows else None
            summed = np.zeros((len(sums), size), dtype=complex)
            for i, zs, cs in parts:
                for a in range(0, len(zs), rows):
                    chunk = zs[a:a + rows]
                    if shared is None:
                        own = signs_of(chunk)
                    elif len(zs) == len(every_z):
                        own = shared
                    else:
                        own = shared[np.searchsorted(every_z, chunk)]
                    summed[i] += cs[a:a + rows] @ own
            del shared, own
            which, s = np.nonzero((np.abs(summed) > DEFAULT_PRUNE_TOL) & (states ^ x >= states))
            sources.append(which * size + s)
            targets.append(which * size + (s ^ x))
            values.append(summed[which, s])
        # every nonzero <t|H|s> with t = s ^ x >= s
        self.sources, self.targets, self.values = map(np.concatenate, (sources, targets, values))
        del sources, targets, values, groups  # before the propagation's temporaries
        labels = np.arange(len(sums) * size, dtype=np.int64)
        while True:
            before = labels.copy()
            np.minimum.at(labels, self.sources, labels[self.targets])
            np.minimum.at(labels, self.targets, labels[self.sources])
            labels = labels[labels]  # a label's own label is in the same component
            if np.array_equal(labels, before):
                break
        self.labels = labels

    def blocks(self) -> list[np.ndarray]:
        """Ascending states of each block, ordered by least state."""
        states = np.argsort(self.labels, kind="stable")
        return np.split(states, np.flatnonzero(np.diff(self.labels[states])) + 1)

    def lowest(self) -> list[float]:
        """Each sum's lowest energy: the least first eigvalsh value over its blocks.

        Blocks are built one at a time, largest first, ties by least diagonal
        entry (an upper bound on the lowest eigenvalue).  A sum's first block
        runs eigvalsh.  A later block B is skipped when B - (E + delta) I, E
        the sum's lowest so far, has a Cholesky factor: delta = 2 (n+1)^2 eps
        (|B|_F + |E|), |B|_F at most sqrt 2 times the stored lower triangle's
        norm, covers the backward errors of both factorizations (Higham,
        Accuracy and Stability, ch. 10), so eigvalsh of B would exceed E.
        """
        blocks = self.blocks()
        owner = np.empty(len(self.labels), dtype=np.int64)
        local = np.empty(len(self.labels), dtype=np.int64)
        for b, states in enumerate(blocks):
            owner[states] = b
            local[states] = np.arange(len(states))
        edge_owner = owner[self.sources]
        order = np.argsort(edge_owner, kind="stable")
        bounds = [0, *np.cumsum(np.bincount(edge_owner, minlength=len(blocks))).tolist()]
        sizes = np.array([len(states) for states in blocks])
        on_diagonal = self.sources == self.targets
        diagonal = np.zeros(len(self.labels))  # 0 where a state has no diagonal edge
        diagonal[self.sources[on_diagonal]] = self.values[on_diagonal].real
        least = np.minimum.reduceat(diagonal[np.concatenate(blocks)], np.cumsum(sizes) - sizes)
        scale = 2 * (sizes + 1.0) ** 2 * np.finfo(float).eps  # delta / (|B|_F + |E|)
        del edge_owner, on_diagonal  # before the eigvalsh workspaces
        energies = [np.inf] * (len(self.labels) >> self.qubit_count)
        for b in np.lexsort((least, -sizes)).tolist():
            size, i = sizes[b], blocks[b][0] >> self.qubit_count
            part = order[bounds[b]:bounds[b + 1]]
            at, values = (local[self.targets[part]], local[self.sources[part]]), self.values[part]
            mat = np.zeros((size, size), dtype=complex)
            mat[at] = values
            if energies[i] < np.inf:
                frobenius = np.sqrt(2 * np.vdot(values, values).real)  # at least |B|_F
                shift = energies[i] + scale[b] * (frobenius + abs(energies[i]))
                mat.reshape(-1)[::size + 1] -= shift
                try:
                    np.linalg.cholesky(mat)
                    continue
                except np.linalg.LinAlgError:
                    mat[:] = 0
                    mat[at] = values
            energies[i] = min(energies[i], np.linalg.eigvalsh(mat)[0])
        return energies


def sector_energies(transformed: QubitHamiltonian, plan: TaperingPlan,
                    sectors=None) -> dict[tuple, float]:
    """Lowest energy of each sector's tapered Hamiltonian, from the plan's
    clifford_transform of the Hamiltonian.

    sectors defaults to all 2^k sign choices; the result keeps their order.
    Each energy is the least over the tapered sector's blocks: the
    reflections send the basis states of a Z-string sector to tapered basis
    states, so a molecular sector keeps its particle-number blocks.  One
    taper_sectors call and one BasisBlocks serve as many sectors as the
    dense cap holds together.  A sector with no qubits left is a 1x1
    matrix, its one coefficient.
    """
    sectors = all_sectors(plan.size) if sectors is None else list(sectors)
    batch = max(1, (1 << limits.dense_cap()) >> (transformed.qubit_count - plan.size))
    energies = {}
    for lo in range(0, len(sectors), batch):
        tapered = taper_sectors(transformed, plan, sectors[lo:lo + batch])
        energies.update(zip(tapered, BasisBlocks(tapered.values()).lowest()))
    return energies
