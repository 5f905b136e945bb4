"""Sparse qubit simulators from parity-check-matrix encodings.

A Q x M binary matrix A that is injective on weight-N vectors encodes the
N-particle sector as basis relabeling |x> -> |Ax>.  A fermionic transition
that flips a fixed set of modes then acts on the qubit side as one X-flip
pattern times a syndrome-dependent sign, and a Walsh-Hadamard transform of
that sign function splits the simulator into few terms, each diagonal in a
single tensor-product basis (an X/Y "frame" on the flipped qubits times a
computational-basis diagonal elsewhere).

Diagonals are numpy arrays.  Each encoding decodes its 2^Q syndromes once
into a cached preimage array (codeword number, or -1 off the codespace);
an observable's transition signs are then one sign per codeword spread
over that array, transposed to a (rest bits, frame bits) matrix, and
Walsh-Hadamard transformed along the frame axis.  Above
MATERIALIZE_QUBIT_CAP no 2^Q array is built: frames carry their flips,
Z-patterns and weights, and their diagonal is None.

When the rows split into two classes that every column meets an odd number
of times, the codespace is stabilized by the two all-Z row-class products,
and multiplying frames by those stabilizers zeroes the frame's Z-pattern
on one chosen qubit per class, merging the frames four to one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fertaper import gf2
from fertaper.fermion import (
    FermionHamiltonian,
    FermionObservable,
    FockState,
    observable_action,
    weight_n_states,
)
from fertaper.graphs import BipartiteGraph, GraphDecoder, injectivity_from_girth
from fertaper.mitm import SyndromeTables, build_tables, mitm_decode, occupations
from fertaper.pauli import PauliOperator, _check_dense_size, qubit_mask

INJECTIVITY_BRUTE_CAP = 24
MATERIALIZE_QUBIT_CAP = 24


def is_n_injective(a: np.ndarray, n: int) -> bool:
    """Whether distinct weight-n vectors always get distinct syndromes.

    Two weight-n vectors differ in an even number of places, at most
    2*min(n, m-n), so this holds exactly when the kernel has no vector of
    even weight from 2 to that bound, which is what gets enumerated here.
    """
    a = gf2.asbits(a)
    q, m = a.shape
    if m > INJECTIVITY_BRUTE_CAP:
        raise ValueError(
            f"brute-force injectivity check capped at {INJECTIVITY_BRUTE_CAP} columns; "
            "certify structurally (girth) instead"
        )
    cols = gf2.pack_rows(a.T)
    for w in range(2, 2 * min(n, m - n) + 1, 2):
        for combo in itertools.combinations(range(m), w):
            acc = 0
            for c in combo:
                acc ^= cols[c]
            if acc == 0:
                return False
    return True


@dataclass(frozen=True)
class CodeEncoding:
    """Parity-check matrix A with injectivity metadata and decoder hooks."""

    matrix: np.ndarray
    particles: int
    bipartition: tuple[frozenset, frozenset] | None = None
    graph: BipartiteGraph | None = None

    def __post_init__(self):
        a = gf2.asbits(self.matrix)
        object.__setattr__(self, "matrix", a)
        q, m = a.shape
        if not 0 <= self.particles <= m:
            raise ValueError("particle count out of range")
        if self.bipartition is not None:
            left, right = self.bipartition
            if set(left) & set(right) or (set(left) | set(right)) != set(range(1, q + 1)):
                raise ValueError("bipartition must partition rows 1..Q")
            for c in range(m):
                col = set(np.nonzero(a[:, c])[0] + 1)
                if len(col & set(left)) % 2 == 0 or len(col & set(right)) % 2 == 0:
                    raise ValueError(
                        f"column {c + 1} meets a row class an even number of times"
                    )
            object.__setattr__(
                self, "bipartition", (frozenset(left), frozenset(right))
            )
        if self.graph is not None:
            if not np.array_equal(a, self.graph.incidence_matrix()):
                raise ValueError("matrix is not the graph's incidence matrix")
            if not injectivity_from_girth(self.graph, self.particles):
                raise ValueError("graph girth too small for this particle count")
        elif m <= INJECTIVITY_BRUTE_CAP:
            self._table  # its build rejects two weight-N vectors with one syndrome
        else:
            raise ValueError(
                "matrices this wide need a girth certificate (pass the graph)"
            )

    @classmethod
    def from_graph(cls, g: BipartiteGraph, n: int) -> "CodeEncoding":
        return cls(g.incidence_matrix(), n, (g.left, g.right), g)

    @property
    def qubits(self) -> int:
        return self.matrix.shape[0]

    @property
    def modes(self) -> int:
        return self.matrix.shape[1]

    def column(self, alpha: int) -> np.ndarray:
        return self.matrix[:, alpha - 1]

    def column_weights(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    @property
    def max_column_weight(self) -> int:
        return int(self.column_weights().max())

    def encode_state(self, x: FockState) -> np.ndarray:
        """Syndrome label of a weight-N occupation vector."""
        if x.weight != self.particles:
            raise ValueError(f"state weight {x.weight} != {self.particles}")
        return gf2.matvec(self.matrix, np.array(x.occ, dtype=np.uint8))

    # -- decoding -----------------------------------------------------------

    @cached_property
    def _table(self) -> SyndromeTables:
        """The full decode table, split (0, N), built once per encoding."""
        return build_tables(self.matrix, self.particles, split=(0, self.particles))

    @cached_property
    def _graph_decoder(self) -> GraphDecoder:
        return GraphDecoder(self.graph, self.particles)

    def decode(self, s: np.ndarray) -> FockState | None:
        """Unique weight-N preimage of a syndrome, or None.

        A graph code decodes by matching on the graph; any other code by a
        search of the full decode table.  Both check the syndrome length.
        """
        if self.graph is not None:
            hit = self._graph_decoder.decode(s)
        else:
            hit = mitm_decode(self._table, s)
        return None if hit is None else FockState(tuple(hit))

    @cached_property
    def _codespace(self) -> tuple[np.ndarray, np.ndarray]:
        if self.qubits > MATERIALIZE_QUBIT_CAP:
            raise ValueError(f"syndrome arrays capped at {MATERIALIZE_QUBIT_CAP} qubits")
        # one key word holds every syndrome up to 64 qubits
        syndromes = self._table.keys[1].view(">u8").astype(np.int64)
        preimage = np.full(1 << self.qubits, -1, dtype=np.int64)
        preimage[syndromes] = np.arange(len(syndromes))
        return preimage, occupations(self._table.combos[1], self.modes)

    def preimage(self) -> np.ndarray:
        """Codeword number of every syndrome index, -1 off the codespace.

        Built once per encoding from the full decode table, whose key order
        numbers the codewords.  Syndrome arrays exist only up to
        MATERIALIZE_QUBIT_CAP qubits, where an injective code has at most
        2^24 codewords, inside TABLE_ENTRY_BUDGET.
        """
        return self._codespace[0]

    def codewords(self) -> np.ndarray:
        """C(M,N) x M occupation rows, numbered as preimage() numbers them."""
        return self._codespace[1]

    def isometry(self) -> np.ndarray:
        """Dense 2^Q x C(M,N) isometry with columns |Ax> (oracle use)."""
        _check_dense_size(self.qubits)
        states = weight_n_states(self.modes, self.particles)
        iso = np.zeros((1 << self.qubits, len(states)))
        for k, st in enumerate(states):
            iso[gf2.bits_to_int(self.encode_state(st)), k] = 1.0
        return iso


def transition_sign(enc: CodeEncoding, obs: FermionObservable, s) -> int:
    """Sign of the observable's transition out of the decoded preimage of s.

    Zero when the syndrome has no weight-N preimage or the occupation
    pattern blocks the transition.  For the i*(minus) variants the i is
    stripped, so the result is always -1, 0, or +1.
    """
    x = enc.decode(gf2.asbits(s))
    return 0 if x is None else _stripped_sign(obs, x)


def _stripped_sign(obs: FermionObservable, x: FockState) -> int:
    """Transition sign out of one occupation state, with the i stripped."""
    hits = observable_action(obs, x)
    if not hits:
        return 0
    if len(hits) != 1:
        raise ValueError("observable is not a pure transition on this state")
    amp, _ = hits[0]
    value = amp / (1j if obs.epsilon else 1.0)
    if value.imag != 0 or value.real not in (-1.0, 1.0, -2.0, 2.0):
        raise AssertionError(f"unexpected transition amplitude {amp}")
    return int(value.real)


@dataclass(eq=False)
class FramedDiagonal:
    """One simulator term: i^phase * X(flips)Z(pattern) times a diagonal.

    flips / z_pattern are 1-based qubit tuples (z_pattern a subset of
    flips); the diagonal is a read-only vector over the remaining qubits,
    indexed by their bits packed most-significant-first, or None when the
    encoding is past MATERIALIZE_QUBIT_CAP.  weight scales the whole term.
    """

    qubits: int
    flips: tuple[int, ...]
    z_pattern: tuple[int, ...]
    phase: int
    diagonal: np.ndarray | None
    weight: float = 1.0

    def __post_init__(self):
        if not set(self.z_pattern) <= set(self.flips):
            raise ValueError("z pattern must live on the flipped qubits")
        if self.phase not in (0, 1):
            raise ValueError("phase power must be 0 or 1")
        if (len(self.z_pattern) % 2) != self.phase:
            raise ValueError("phase must match the z-pattern parity for Hermiticity")
        if self.diagonal is not None:
            diag = np.asarray(self.diagonal, dtype=float)
            if diag.shape != (1 << (self.qubits - len(self.flips)),):
                raise ValueError("diagonal length must be 2^(qubits - flipped qubits)")
            if diag.flags.writeable:
                # a read-only private copy: the caller's array stays writeable
                diag = diag.copy()
                diag.flags.writeable = False
            self.diagonal = diag

    def rest_qubits(self) -> tuple[int, ...]:
        support = set(self.flips)
        return tuple(q for q in range(1, self.qubits + 1) if q not in support)

    def frame_pauli(self) -> PauliOperator:
        """The X/Y flip part as a Hermitian Pauli operator."""
        return PauliOperator.from_masks(self.qubits, qubit_mask(self.qubits, self.flips),
                                        qubit_mask(self.qubits, self.z_pattern), self.phase)

    def rest_bits(self, state: int) -> int:
        """Pack the non-flipped qubits of a basis index, preserving order."""
        q = self.qubits
        support = set(self.flips)
        out = 0
        for i in range(1, q + 1):
            if i in support:
                continue
            out = (out << 1) | ((state >> (q - i)) & 1)
        return out

    def apply_to_index(self, state: int) -> tuple[int, complex]:
        """Image basis index and amplitude of |state> under this term.

        The one-index oracle for apply_to_indices.
        """
        frame = self.frame_pauli()
        sign = -1.0 if (state & frame.z_mask).bit_count() % 2 else 1.0
        value = self.weight * (1j if self.phase else 1.0) * sign
        value *= float(self.materialize()[self.rest_bits(state)])
        return state ^ frame.x_mask, value

    def apply_to_indices(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """apply_to_index over an int64 array of basis indices at once."""
        frame = self.frame_pauli()
        rest = np.zeros_like(states)
        for q in self.rest_qubits():
            rest = (rest << 1) | ((states >> (self.qubits - q)) & 1)
        signs = 1.0 - 2.0 * (np.bitwise_count(states & frame.z_mask) & 1)
        values = self.weight * (1j if self.phase else 1.0) * signs
        return states ^ frame.x_mask, values * self.materialize()[rest]

    def materialize(self) -> np.ndarray:
        """Dense diagonal over the non-flipped qubits."""
        if self.diagonal is None:
            raise ValueError(f"materialization capped at {MATERIALIZE_QUBIT_CAP} qubits")
        return self.diagonal

    def to_dense(self) -> np.ndarray:
        """Full 2^Q matrix (oracle use)."""
        _check_dense_size(self.qubits)
        cols = np.arange(1 << self.qubits, dtype=np.int64)
        rows, values = self.apply_to_indices(cols)
        mat = np.zeros((len(cols), len(cols)), dtype=complex)
        mat[rows, cols] += values
        return mat

    def scaled(self, factor: float) -> "FramedDiagonal":
        return FramedDiagonal(
            self.qubits, self.flips, self.z_pattern, self.phase,
            self.diagonal, self.weight * factor,
        )


@dataclass
class SimulatorOp:
    """Framed-term decomposition of one encoded observable."""

    observable: FermionObservable
    frames: list[FramedDiagonal]

    @property
    def sparsity(self) -> int:
        return len(self.frames)

    def apply_to_index(self, state: int) -> tuple[int, complex]:
        """All frames share one flip pattern, so the image is one basis state."""
        if not self.frames:
            return state, 0.0
        target = None
        total = 0.0 + 0.0j
        for frame in self.frames:
            row, val = frame.apply_to_index(state)
            target = row if target is None else target
            total += val
        return target, total

    def to_dense(self) -> np.ndarray:
        if self.frames:
            _check_dense_size(self.frames[0].qubits)
        return sum(frame.to_dense() for frame in self.frames)


def _flip_support(enc: CodeEncoding, obs: FermionObservable) -> tuple[int, ...]:
    acc = np.zeros(enc.qubits, dtype=np.uint8)
    mode_flips = obs.flip_mask(enc.modes)
    for alpha, bit in enumerate(mode_flips, start=1):
        if bit:
            acc ^= enc.column(alpha)
    return tuple(int(i + 1) for i in np.nonzero(acc)[0])


def _materialized(enc: CodeEncoding) -> bool:
    return enc.qubits <= MATERIALIZE_QUBIT_CAP


def _over_syndromes(enc: CodeEncoding, per_codeword) -> np.ndarray:
    """Per-codeword values spread over all 2^Q syndromes, 0.0 off the codespace."""
    return np.append(np.asarray(per_codeword, dtype=float), 0.0)[enc.preimage()]


def _sign_matrix(enc: CodeEncoding, obs: FermionObservable,
                 support: tuple[int, ...]) -> np.ndarray:
    """Transition signs as a (rest, frame) matrix.

    Entry [r, u] is the sign at the syndrome whose non-flipped bits pack to
    r and whose flipped bits pack to u, both most-significant-first.
    """
    q = enc.qubits
    signs = _over_syndromes(
        enc, [_stripped_sign(obs, FockState(tuple(row))) for row in enc.codewords().tolist()]
    )
    rest = [i for i in range(1, q + 1) if i not in set(support)]
    axes = [i - 1 for i in rest + list(support)]
    return signs.reshape((2,) * q).transpose(axes).reshape(1 << len(rest), 1 << len(support))


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Fast transform along the last axis; output[t] = 2^-k sum_u (-1)^{t.u} input[u]."""
    vec = np.array(values, dtype=float)
    size = vec.shape[-1]
    h = 1
    while h < size:
        blocks = vec.reshape(-1, size // (2 * h), 2, h)
        a, b = blocks[:, :, 0], blocks[:, :, 1]
        vec = np.stack((a + b, a - b), axis=2).reshape(vec.shape)
        h *= 2
    return vec / size


def observable_simulator(enc: CodeEncoding, obs: FermionObservable,
                         improve: bool = True) -> SimulatorOp:
    """Framed decomposition of the encoded observable.

    One frame per Z-pattern of the right parity on the flip support (even
    patterns for the plus variant, odd for the i*(minus) variant); the
    frame's diagonal is the Walsh-Hadamard transform of the transition
    signs over the flipped bits.  With a bipartition available and both
    row classes represented on the support, the stabilizer trick merges
    frames four to one.
    """
    support = _flip_support(enc, obs)
    k = len(support)
    q = enc.qubits
    want_parity = obs.epsilon
    spectra = None
    if _materialized(enc):
        spectra = _walsh_hadamard(_sign_matrix(enc, obs, support))

    def column(t_mask: int) -> np.ndarray | None:
        return None if spectra is None else spectra[:, t_mask]

    if k == 0:
        # diagonal observable: single identity frame with the raw signs
        return SimulatorOp(obs, [FramedDiagonal(q, (), (), 0, column(0))])

    frames = []
    for t_mask in range(1 << k):
        if bin(t_mask).count("1") % 2 != want_parity:
            continue
        pattern = tuple(
            support[pos] for pos in range(k) if (t_mask >> (k - 1 - pos)) & 1
        )
        frames.append(FramedDiagonal(q, support, pattern, want_parity, column(t_mask)))
    sim = SimulatorOp(obs, frames)
    if improve and enc.bipartition is not None:
        left, right = enc.bipartition
        in_left = sorted(set(support) & left)
        in_right = sorted(set(support) & right)
        if in_left and in_right:
            sim = bipartite_improve(sim, enc, in_left[0], in_right[0])
    return sim


def two_body_simulator(enc: CodeEncoding, alpha: int, beta: int,
                       variant: str = "plus", improve: bool = True) -> SimulatorOp:
    """Simulator of the Hermitian hop between two distinct modes."""
    if alpha == beta:
        raise ValueError("two-body simulator needs distinct modes")
    if np.array_equal(enc.column(alpha), enc.column(beta)):
        raise ValueError("equal columns contradict injectivity")
    sim = observable_simulator(enc, FermionObservable.hop(alpha, beta, variant), improve)
    cap = 1 << (2 * enc.max_column_weight - 1)
    if sim.sparsity > cap:
        raise AssertionError(f"two-body sparsity {sim.sparsity} over the bound {cap}")
    return sim


def four_body_simulator(enc: CodeEncoding, alpha: int, beta: int, gamma: int,
                        delta: int, variant: str = "plus",
                        improve: bool = True) -> SimulatorOp:
    """Simulator of the Hermitian two-pair transition.

    Coincident creator/annihilator indices cancel out of the flip pattern,
    so such inputs reduce to smaller flip sets (hops gated on occupations,
    or pure diagonals) before frames are built.
    """
    if alpha == beta or gamma == delta:
        raise ValueError("pair indices must be distinct within each pair")
    obs = FermionObservable.pair_hop(alpha, beta, gamma, delta, variant)
    sim = observable_simulator(enc, obs, improve)
    cap = 1 << (4 * enc.max_column_weight - 1)
    if sim.sparsity > cap:
        raise AssertionError(f"four-body sparsity {sim.sparsity} over the bound {cap}")
    return sim


def bipartite_improve(sim: SimulatorOp, enc: CodeEncoding, i: int, j: int) -> SimulatorOp:
    """Merge frames by multiplying with codespace stabilizers.

    Frames with a Z at qubit i (row class one) or j (row class two) are
    multiplied by (-1)^N Z(class); the Z-patterns then cancel at i and j,
    the classes' Z action moves into the diagonals, and frames that land
    on the same pattern merge.  The codespace action is unchanged because
    the stabilizers act there as identity.
    """
    if enc.bipartition is None:
        raise ValueError("encoding carries no bipartition")
    left, right = enc.bipartition
    if not sim.frames:
        return sim
    support = sim.frames[0].flips
    if i not in support or i not in left:
        raise ValueError(f"qubit {i} is not a left-class support qubit")
    if j not in support or j not in right:
        raise ValueError(f"qubit {j} is not a right-class support qubit")
    q = enc.qubits
    n_sign = -1.0 if enc.particles % 2 else 1.0
    rest = [v for v in range(1, q + 1) if v not in set(support)]

    def rest_mask(rows: frozenset) -> int:
        mask = 0
        for pos, qubit in enumerate(rest):
            if qubit in rows:
                mask |= 1 << (len(rest) - 1 - pos)
        return mask

    merged: dict[tuple[int, ...], list] = {}
    for frame in sim.frames:
        pattern = set(frame.z_pattern)
        hit_i, hit_j = i in pattern, j in pattern
        prefactor = 1.0
        row_sets: list[frozenset] = []
        if hit_i and not hit_j:
            row_sets, prefactor = [left], n_sign
        elif hit_j and not hit_i:
            row_sets, prefactor = [right], n_sign
        elif hit_i and hit_j:
            row_sets, prefactor = [left, right], 1.0
        for rows in row_sets:
            pattern ^= set(support) & rows
        new_pattern = tuple(sorted(pattern))
        sign_mask = 0
        for rows in row_sets:
            sign_mask ^= rest_mask(rows)
        merged.setdefault(new_pattern, []).append(
            (frame, prefactor * frame.weight, sign_mask)
        )

    out = []
    for pattern, parts in sorted(merged.items()):
        diag = None
        if parts[0][0].diagonal is not None:
            rest_index = np.arange(1 << len(rest), dtype=np.int64)
            diag = np.zeros(len(rest_index))
            for frame, factor, mask in parts:
                sign = 1.0 - 2.0 * (np.bitwise_count(rest_index & mask) & 1)
                diag += factor * sign * frame.diagonal
        phase = len(pattern) % 2
        out.append(FramedDiagonal(sim.frames[0].qubits, support, pattern, phase, diag))
    improved = SimulatorOp(sim.observable, out)
    for frame in improved.frames:
        if i in frame.z_pattern or j in frame.z_pattern:
            raise AssertionError("improvement left a Z on the chosen qubits")
    return improved


def _identity_frame(enc: CodeEncoding, per_codeword) -> FramedDiagonal:
    """Identity-frame diagonal from a function of the codeword occupation rows."""
    diag = None
    if _materialized(enc):
        diag = _over_syndromes(enc, per_codeword(enc.codewords()))
    return FramedDiagonal(enc.qubits, (), (), 0, diag)


def codespace_projector_diag(enc: CodeEncoding) -> FramedDiagonal:
    """Identity-frame diagonal that is 1 exactly on encoded basis states."""
    return _identity_frame(enc, lambda occ: np.ones(len(occ)))


def mode_occupation_diag(enc: CodeEncoding, alpha: int) -> FramedDiagonal:
    """Identity-frame diagonal reading occupation of one mode off the preimage array."""
    return _identity_frame(enc, lambda occ: occ[:, alpha - 1])


def pair_occupation_diag(enc: CodeEncoding, alpha: int, beta: int) -> FramedDiagonal:
    return _identity_frame(enc, lambda occ: occ[:, alpha - 1] & occ[:, beta - 1])


def default_penalty(h: FermionHamiltonian) -> float:
    """Computable stand-in for the operator-norm bound on the penalty scale."""
    total = float(np.abs(h.t).sum()) + sum(abs(v) for v in h.u.values())
    return 4.0 * total / max(1, h.particles)


def build_simulator_hamiltonian(h: FermionHamiltonian, enc: CodeEncoding,
                                penalty: float | None = None,
                                improve: bool = True) -> list[FramedDiagonal]:
    """Framed-term simulator of the full Hamiltonian plus codespace penalty.

    Every Hermitian-paired coefficient block becomes a plus/minus pair of
    observable simulators weighted by its real and imaginary parts;
    diagonal blocks become decoder-backed occupation diagonals.  The
    penalty term is g*(identity - codespace projector), which vanishes on
    the codespace and raises everything orthogonal to it by g.
    """
    if h.modes != enc.modes:
        raise ValueError("mode count mismatch")
    if penalty is None:
        penalty = default_penalty(h)
    frames: list[FramedDiagonal] = []

    for alpha in range(1, h.modes + 1):
        coeff = h.t[alpha - 1, alpha - 1]
        if coeff != 0:
            frames.append(mode_occupation_diag(enc, alpha).scaled(coeff.real))
    for alpha in range(1, h.modes + 1):
        for beta in range(alpha + 1, h.modes + 1):
            coeff = h.t[alpha - 1, beta - 1]
            if coeff == 0:
                continue
            if coeff.real:
                sim = two_body_simulator(enc, alpha, beta, "plus", improve)
                frames.extend(f.scaled(coeff.real) for f in sim.frames)
            if coeff.imag:
                sim = two_body_simulator(enc, alpha, beta, "minus", improve)
                frames.extend(f.scaled(coeff.imag) for f in sim.frames)

    done = set()
    for key, coeff in sorted(h.u.items()):
        if key in done:
            continue
        partner = (key[3], key[2], key[1], key[0])
        done.add(key)
        done.add(partner)
        a, b, g_, d = key
        if partner == key:
            # self-adjoint block: a'_a a'_b a_b a_a = occupation product
            frames.append(pair_occupation_diag(enc, a, b).scaled(coeff.real))
            continue
        if coeff.real:
            sim = four_body_simulator(enc, a, b, g_, d, "plus", improve)
            frames.extend(f.scaled(coeff.real) for f in sim.frames)
        if coeff.imag:
            sim = four_body_simulator(enc, a, b, g_, d, "minus", improve)
            frames.extend(f.scaled(coeff.imag) for f in sim.frames)

    if penalty:
        proj = codespace_projector_diag(enc).diagonal
        anti = None if proj is None else 1.0 - proj
        frames.append(FramedDiagonal(enc.qubits, (), (), 0, anti, weight=penalty))
    return frames


def save_pcm(a: np.ndarray, path: str) -> None:
    """Write "Q M" then Q rows of 0/1 digits."""
    a = gf2.asbits(a)
    q, m = a.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{q} {m}\n")
        for r in range(q):
            fh.write("".join(str(int(b)) for b in a[r]) + "\n")


def load_pcm(path: str) -> np.ndarray:
    """Read the parity-check format; rows may be contiguous or spaced digits.

    Every entry must be 0 or 1 and the row and column counts must match
    the header; anything else is a ValueError naming the position.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"parity-check file {path} is empty")
    header = lines[0].split()
    if len(header) != 2 or not all(t.isdigit() for t in header):
        raise ValueError(f"parity-check file {path}: header {lines[0]!r} is not \"Q M\"")
    q, m = (int(t) for t in header)
    if len(lines) == 1:
        raise ValueError(f"parity-check file {path} has a header but no rows")
    if len(lines) - 1 > q:
        raise ValueError(f"parity-check file {path} has {len(lines) - 1} rows; "
                         f"its header says {q}")
    rows = []
    for r, ln in enumerate(lines[1:], 1):
        digits = ln.split() if " " in ln else list(ln)
        bad = next((c for c, d in enumerate(digits, 1) if d not in ("0", "1")), None)
        if bad is not None:
            raise ValueError(f"parity-check file {path}: row {r}, column {bad} is "
                             f"{digits[bad - 1]!r}; entries must be 0 or 1")
        if len(digits) != m:
            raise ValueError(f"parity-check file {path}: row {r} has {len(digits)} "
                             f"entries; its header says {m}")
        rows.append([int(d) for d in digits])
    a = np.array(rows, dtype=np.uint8)
    if a.shape != (q, m):
        raise ValueError(f"parity-check body {a.shape} does not match header ({q}, {m})")
    return a


def apply_frames_to_isometry(frames, enc: CodeEncoding) -> np.ndarray:
    """Columns of (sum of framed terms) applied to each encoded basis state."""
    codes = np.array([gf2.bits_to_int(enc.encode_state(st))
                      for st in weight_n_states(enc.modes, enc.particles)], dtype=np.int64)
    cols = np.arange(len(codes))
    out = np.zeros((1 << enc.qubits, len(codes)), dtype=complex)
    for frame in frames:
        rows, values = frame.apply_to_indices(codes)
        out[rows, cols] += values
    return out
