"""Sparse qubit simulators from parity-check-matrix encodings.

A Q x M binary matrix A that is injective on weight-N vectors encodes the
N-particle sector as basis relabeling |x> -> |Ax>.  A fermionic transition
that flips a fixed set of modes then acts on the qubit side as one X-flip
pattern times a syndrome-dependent sign, and a Walsh-Hadamard transform of
that sign function splits the simulator into few terms, each diagonal in a
single tensor-product basis (an X/Y "frame" on the flipped qubits times a
computational-basis diagonal elsewhere).

A frame is a packed PauliOperator, as everywhere else in the package: its
x mask is the flip mask, the XOR of the flipped modes' packed columns, and
its z mask, a submask of it, is the Z-pattern.  All bit work here is mask
arithmetic; a diagonal is indexed by the bits outside the flip mask, packed
by gf2.drop_bits.

Diagonals are numpy arrays.  Each encoding decodes its 2^Q syndromes once
into a cached preimage array (codeword number, or -1 off the codespace);
an observable's transition signs are then one sign per codeword spread
over that array, transposed to a (rest bits, frame bits) matrix, and
Walsh-Hadamard transformed along the frame axis.  Above
limits.MATERIALIZE_QUBIT_CAP no 2^Q array is built: frames carry their Pauli and
weight, and their diagonal is None.

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

from fertaper import gf2, limits
from fertaper.fermion import (
    FermionHamiltonian,
    FermionObservable,
    FockState,
    apply_op_string_rows,
    default_penalty_scale,
    observable_action,
    weight_n_states,
)
from fertaper.graphs import BipartiteGraph, GraphDecoder
from fertaper.mitm import SyndromeTables, build_tables, mitm_decode, occupations
from fertaper.pauli import PauliOperator, qubit_mask


def is_n_injective(a: np.ndarray, n: int) -> bool:
    """Whether distinct weight-n vectors always get distinct syndromes.

    Two weight-n vectors differ in an even number of places, at most
    2*min(n, m-n), so this holds exactly when the kernel has no vector of
    even weight from 2 to that bound, which is what gets enumerated here.
    """
    a = gf2.asbits(a)
    q, m = a.shape
    if m > limits.BRUTE_FORCE_COLUMN_CAP:
        raise ValueError(
            f"brute-force injectivity check capped at {limits.BRUTE_FORCE_COLUMN_CAP} columns; "
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
    """Parity-check matrix A with injectivity metadata and decoder hooks.

    columns[j - 1] is column j of A as a mask on the qubits, row 1 most
    significant (the qubits mode j's occupation flips), the layout of the
    Pauli masks.
    """

    columns: tuple[int, ...]
    qubits: int
    particles: int
    bipartition: tuple[frozenset, frozenset] | None = None
    graph: BipartiteGraph | None = None

    def __post_init__(self):
        q, m = self.qubits, len(self.columns)
        object.__setattr__(self, "columns", tuple(map(int, self.columns)))
        if q < 0 or any(c < 0 or c >> q for c in self.columns):
            raise ValueError(f"columns must be masks on {q} qubits")
        if not 0 <= self.particles <= m:
            raise ValueError("particle count out of range")
        if self.bipartition is not None:
            left, right = (frozenset(rows) for rows in self.bipartition)
            if left & right or left | right != set(range(1, q + 1)):
                raise ValueError("bipartition must partition rows 1..Q")
            object.__setattr__(self, "bipartition", (left, right))
            for c, col in enumerate(self.columns, 1):
                if not all((col & rows).bit_count() % 2 for rows in self.class_masks):
                    raise ValueError(f"column {c} meets a row class an even number of times")
        if self.graph is not None:
            if (self.graph.vertex_count, self.graph.edge_masks()) != (q, self.columns):
                raise ValueError("matrix is not the graph's incidence matrix")
            decoder = GraphDecoder.certified(self.graph, self.particles)
            if decoder is None:
                raise ValueError("graph girth too small for this particle count")
            object.__setattr__(self, "_graph_decoder", decoder)
        elif m <= limits.BRUTE_FORCE_COLUMN_CAP:
            self._table  # its build rejects two weight-N vectors with one syndrome
        else:
            raise ValueError(
                "matrices this wide need a girth certificate (pass the graph)"
            )

    @classmethod
    def from_matrix(cls, a, n: int) -> "CodeEncoding":
        """Encoding of a Q x M 0/1 matrix, packed column by column."""
        a = gf2.asbits(a)
        return cls(tuple(gf2.pack_rows(a.T)), a.shape[0], n)

    @classmethod
    def from_graph(cls, g: BipartiteGraph, n: int) -> "CodeEncoding":
        return cls(g.edge_masks(), g.vertex_count, n, (g.left, g.right), g)

    @property
    def modes(self) -> int:
        return len(self.columns)

    @property
    def matrix(self) -> np.ndarray:
        """A as a 0/1 uint8 array, derived from the column masks (oracle use)."""
        return gf2.unpack_ints(self.columns, self.qubits).T

    @cached_property
    def class_masks(self) -> tuple[int, int]:
        """The two row classes of the bipartition as qubit masks."""
        return tuple(qubit_mask(self.qubits, rows) for rows in self.bipartition)

    @property
    def max_column_weight(self) -> int:
        return max((col.bit_count() for col in self.columns), default=0)

    def encode_state(self, x: FockState) -> int:
        """Syndrome mask of a weight-N occupation vector: the XOR of its modes' columns."""
        if x.weight != self.particles:
            raise ValueError(f"state weight {x.weight} != {self.particles}")
        syndrome = 0
        for col, occupied in zip(self.columns, x.occ):
            if occupied:
                syndrome ^= col
        return syndrome

    # -- decoding -----------------------------------------------------------

    @cached_property
    def _table(self) -> SyndromeTables:
        """The full decode table, split (0, N), built once per encoding."""
        return build_tables(self.columns, self.qubits, self.particles, split=(0, self.particles))

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
        if self.qubits > limits.MATERIALIZE_QUBIT_CAP:
            raise ValueError(f"syndrome arrays capped at {limits.MATERIALIZE_QUBIT_CAP} qubits")
        # one key word holds every syndrome up to 64 qubits
        syndromes = self._table.keys[1].view(">u8").astype(np.int64)
        preimage = np.full(1 << self.qubits, -1, dtype=np.int64)
        preimage[syndromes] = np.arange(len(syndromes))
        return preimage, occupations(self._table.combos[1], self.modes)

    def preimage(self) -> np.ndarray:
        """Codeword number of every syndrome index, -1 off the codespace.

        Built once per encoding from the full decode table, whose key order
        numbers the codewords.  Syndrome arrays exist only up to
        limits.MATERIALIZE_QUBIT_CAP qubits, where an injective code has at
        most 2^24 codewords, inside limits.TABLE_ENTRY_BUDGET.
        """
        return self._codespace[0]

    def codewords(self) -> np.ndarray:
        """C(M,N) x M occupation rows, numbered as preimage() numbers them."""
        return self._codespace[1]

    def isometry(self) -> np.ndarray:
        """Dense 2^Q x C(M,N) isometry with columns |Ax> (oracle use)."""
        limits.check_dense(1 << self.qubits)
        states = weight_n_states(self.modes, self.particles)
        iso = np.zeros((1 << self.qubits, len(states)))
        for k, st in enumerate(states):
            iso[self.encode_state(st), k] = 1.0
        return iso


def transition_sign(enc: CodeEncoding, obs: FermionObservable, s) -> int:
    """Sign of the observable's transition out of the decoded preimage of s.

    Zero when the syndrome has no weight-N preimage or the occupation
    pattern blocks the transition.  For the i*(minus) variants the i is
    stripped, so the result is always -1, 0, or +1.
    """
    x = enc.decode(s)
    return 0 if x is None else _stripped_sign(obs, x)


def _stripped_sign(obs: FermionObservable, x: FockState) -> int:
    """Transition sign out of one occupation state, with the i stripped.

    The one-state oracle of _codeword_signs, which simulators use.
    """
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


def _codeword_signs(words: np.ndarray, obs: FermionObservable) -> np.ndarray:
    """_stripped_sign of every occupation row at once.

    The forward and reversed products act on all rows together; where both
    reach the same state their amplitudes add (to +/-2 or 0), as in
    observable_action, and the i of the minus variant is never applied.
    """
    forward, fwd_image = apply_op_string_rows(words, obs.forward_ops())
    reverse, rev_image = apply_op_string_rows(words, obs.reversed_ops())
    both = (forward != 0) & (reverse != 0)
    if (fwd_image[both] != rev_image[both]).any():
        raise ValueError("observable is not a pure transition on this state")
    return forward + obs.sign_choice * reverse


@dataclass(eq=False)
class FramedDiagonal:
    """One simulator term: weight * pauli * diag(diagonal).

    pauli is the frame, the Hermitian Pauli i^|z| X(x) Z(z) with z a
    submask of x: x marks the flipped qubits and z the frame's Z-pattern.
    The diagonal is a read-only vector over the other qubits, indexed by
    their bits packed most-significant-first (gf2.drop_bits of a basis
    index at the flipped positions), or None when the encoding is past
    limits.MATERIALIZE_QUBIT_CAP.  weight scales the whole term.
    """

    pauli: PauliOperator
    diagonal: np.ndarray | None
    weight: float = 1.0

    def __post_init__(self):
        x, z = self.pauli.x_mask, self.pauli.z_mask
        if z & ~x:
            raise ValueError("z pattern must live on the flipped qubits")
        if self.pauli.phase_power != z.bit_count() % 2:
            raise ValueError("phase must match the z-pattern parity for Hermiticity")
        if self.diagonal is not None:
            diag = np.asarray(self.diagonal, dtype=float)
            if diag.shape != (1 << (self.pauli.n - x.bit_count()),):
                raise ValueError("diagonal length must be 2^(qubits - flipped qubits)")
            if diag.flags.writeable:
                # a read-only private copy: the caller's array stays writeable
                diag = diag.copy()
                diag.flags.writeable = False
            self.diagonal = diag

    def apply_to_index(self, state: int) -> tuple[int, complex]:
        """Image basis index and amplitude of |state> under this term.

        The one-index oracle for apply_to_indices, packing the rest index
        bit by bit.
        """
        frame = self.pauli
        rest = 0
        for shift in range(frame.n - 1, -1, -1):
            if not frame.x_mask >> shift & 1:
                rest = (rest << 1) | (state >> shift & 1)
        sign = -1.0 if (state & frame.z_mask).bit_count() % 2 else 1.0
        value = self.weight * (1j if frame.phase_power else 1.0) * sign
        value *= float(self.materialize()[rest])
        return state ^ frame.x_mask, value

    def apply_to_indices(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """apply_to_index over an int64 array of basis indices at once."""
        frame = self.pauli
        rest = gf2.drop_bits(states, _positions(frame.x_mask))
        signs = 1.0 - 2.0 * (np.bitwise_count(states & frame.z_mask) & 1)
        values = self.weight * (1j if frame.phase_power else 1.0) * signs
        return states ^ frame.x_mask, values * self.materialize()[rest]

    def materialize(self) -> np.ndarray:
        """Dense diagonal over the non-flipped qubits."""
        if self.diagonal is None:
            raise ValueError(f"materialization capped at {limits.MATERIALIZE_QUBIT_CAP} qubits")
        return self.diagonal

    def to_dense(self) -> np.ndarray:
        """Full 2^Q matrix (oracle use)."""
        limits.check_dense(1 << self.pauli.n)
        cols = np.arange(1 << self.pauli.n, dtype=np.int64)
        rows, values = self.apply_to_indices(cols)
        mat = np.zeros((len(cols), len(cols)), dtype=complex)
        mat[rows, cols] += values
        return mat

    def scaled(self, factor: float) -> "FramedDiagonal":
        return FramedDiagonal(self.pauli, self.diagonal, self.weight * factor)


@dataclass
class SimulatorOp:
    """Framed-term decomposition of one encoded observable."""

    observable: FermionObservable
    frames: list[FramedDiagonal]

    @property
    def sparsity(self) -> int:
        return len(self.frames)

    def to_dense(self) -> np.ndarray:
        return sum(frame.to_dense() for frame in self.frames)


def _positions(mask: int) -> list[int]:
    """Set bit positions of a mask, highest first, as gf2.drop_bits takes them."""
    return [p for p in range(mask.bit_length() - 1, -1, -1) if mask >> p & 1]


def _qubit_order(mask: int) -> list[int]:
    """Sort key ordering masks as the ascending tuples of their 1-based qubits."""
    return [-p for p in _positions(mask)]


def _materialized(enc: CodeEncoding) -> bool:
    return enc.qubits <= limits.MATERIALIZE_QUBIT_CAP


def _over_syndromes(enc: CodeEncoding, per_codeword) -> np.ndarray:
    """Per-codeword values spread over all 2^Q syndromes, 0.0 off the codespace."""
    return np.append(np.asarray(per_codeword, dtype=float), 0.0)[enc.preimage()]


def _sign_matrix(enc: CodeEncoding, obs: FermionObservable, flips: int) -> np.ndarray:
    """Transition signs as a (rest, frame) matrix.

    Entry [r, u] is the sign at the syndrome whose bits outside the flip
    mask pack to r and whose bits inside it pack to u, both
    most-significant-first.
    """
    q, k = enc.qubits, flips.bit_count()
    signs = _over_syndromes(enc, _codeword_signs(enc.codewords(), obs))
    # a stable sort of the qubit axes by flip bit: rest axes first, each part in order
    axes = np.argsort(flips >> np.arange(q - 1, -1, -1) & 1, kind="stable")
    return signs.reshape((2,) * q).transpose(axes).reshape(1 << (q - k), 1 << k)


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


def observable_simulator(enc: CodeEncoding, obs: FermionObservable) -> SimulatorOp:
    """Framed decomposition of the encoded observable.

    The flip mask is the XOR of the observable's packed columns, so a mode
    named twice cancels.  One frame per Z-pattern of the right parity
    inside it (even patterns for the plus variant, odd for the i*(minus)
    variant); the frame's diagonal is the Walsh-Hadamard transform of the
    transition signs over the flipped bits.  When the encoding has a
    bipartition, bipartite_improve merges the frames.  A product of k
    ladder operators on columns of weight at most w flips at most k*w
    qubits, so it never takes more than 2^(k*w - 1) frames, or its one
    identity frame when k*w = 0; more raises AssertionError.
    """
    q = enc.qubits
    flips = 0
    for alpha in obs.indices:
        flips ^= enc.columns[alpha - 1]
    spectra = None
    if _materialized(enc):
        spectra = _walsh_hadamard(_sign_matrix(enc, obs, flips))
    frames = []
    z = 0
    for t in range(1 << flips.bit_count()):
        # z walks the submasks of flips upwards, so it is spectrum column t's
        # Z-pattern; a diagonal observable keeps its one identity frame
        parity = z.bit_count() % 2
        if not flips or parity == obs.epsilon:
            frames.append(FramedDiagonal(PauliOperator.from_masks(q, flips, z, parity),
                                         None if spectra is None else spectra[:, t]))
        z = (z - flips) & flips
    sim = SimulatorOp(obs, frames)
    if enc.bipartition is not None:
        sim = bipartite_improve(sim, enc)
    flipped = len(obs.indices) * enc.max_column_weight
    cap = 1 << (flipped - 1) if flipped else 1
    if sim.sparsity > cap:
        raise AssertionError(f"{obs.kind} sparsity {sim.sparsity} over the bound {cap}")
    return sim


def two_body_simulator(enc: CodeEncoding, alpha: int, beta: int,
                       variant: str = "plus") -> SimulatorOp:
    """Simulator of the Hermitian hop between two distinct modes."""
    if alpha == beta:
        raise ValueError("two-body simulator needs distinct modes")
    if enc.columns[alpha - 1] == enc.columns[beta - 1]:
        raise ValueError("equal columns contradict injectivity")
    return observable_simulator(enc, FermionObservable.hop(alpha, beta, variant))


def four_body_simulator(enc: CodeEncoding, alpha: int, beta: int, gamma: int,
                        delta: int, variant: str = "plus") -> SimulatorOp:
    """Simulator of the Hermitian two-pair transition.

    Coincident creator/annihilator indices cancel out of the flip pattern,
    so such inputs reduce to smaller flip sets (hops gated on occupations,
    or pure diagonals) before frames are built.
    """
    if alpha == beta or gamma == delta:
        raise ValueError("pair indices must be distinct within each pair")
    return observable_simulator(enc, FermionObservable.pair_hop(alpha, beta, gamma, delta,
                                                                variant))


def bipartite_improve(sim: SimulatorOp, enc: CodeEncoding) -> SimulatorOp:
    """Merge frames by multiplying with codespace stabilizers.

    The chosen qubits are the first flipped qubit of each row class.
    Frames with a Z at either are multiplied by (-1)^N Z(class): the
    class's rows on the flip mask XOR into the frame's Z mask, which
    clears the chosen qubit, and its rows on the rest index become a sign
    mask on the diagonal.  Frames that land on the same Z mask merge.  The
    codespace action is unchanged because the stabilizers act there as
    identity.  A flip mask that misses a row class is returned unmerged.
    """
    if enc.bipartition is None:
        raise ValueError("encoding carries no bipartition")
    if not sim.frames:
        return sim
    q = enc.qubits
    flips = sim.frames[0].pauli.x_mask
    on_frames = [rows & flips for rows in enc.class_masks]
    if not all(on_frames):
        return sim
    n_sign = -1.0 if enc.particles % 2 else 1.0
    drop = _positions(flips)
    # per class: the chosen qubit's bit (its highest on the frame), its rows on
    # the frame, its rows on the rest index
    classes = [(1 << (on_frame.bit_length() - 1), on_frame, gf2.drop_bits(rows, drop))
               for on_frame, rows in zip(on_frames, enc.class_masks)]

    merged: dict[int, list] = {}
    for frame in sim.frames:
        z, factor, sign_mask = frame.pauli.z_mask, frame.weight, 0
        for pick, on_frame, on_rest in classes:
            if frame.pauli.z_mask & pick:
                z ^= on_frame
                sign_mask ^= on_rest
                factor *= n_sign
        merged.setdefault(z, []).append((frame, factor, sign_mask))

    out = []
    for z in sorted(merged, key=_qubit_order):
        parts = merged[z]
        diag = None
        if parts[0][0].diagonal is not None:
            rest_index = np.arange(1 << (q - len(drop)), dtype=np.int64)
            diag = np.zeros(len(rest_index))
            for frame, factor, mask in parts:
                sign = 1.0 - 2.0 * (np.bitwise_count(rest_index & mask) & 1)
                diag += factor * sign * frame.diagonal
        out.append(FramedDiagonal(PauliOperator.from_masks(q, flips, z, z.bit_count() % 2),
                                  diag))
    picked = classes[0][0] | classes[1][0]
    if any(frame.pauli.z_mask & picked for frame in out):
        raise AssertionError("improvement left a Z on the chosen qubits")
    return SimulatorOp(sim.observable, out)


def occupation_diag(enc: CodeEncoding, modes) -> FramedDiagonal:
    """Identity frame whose diagonal is the product of the listed modes' occupations.

    The product is read off each codeword and is 0 off the codespace, so
    modes=() gives the codespace projector.
    """
    diag = None
    if _materialized(enc):
        occ = enc.codewords()[:, [alpha - 1 for alpha in modes]]
        diag = _over_syndromes(enc, occ.prod(axis=1))
    return FramedDiagonal(PauliOperator.identity(enc.qubits), diag)


def _block_frames(enc: CodeEncoding, modes: tuple[int, ...],
                  coeff: complex) -> list[FramedDiagonal]:
    """Frames of one Hermitian-paired block: the real part weights the plus
    observable, the imaginary part the i*(minus) one."""
    simulate = two_body_simulator if len(modes) == 2 else four_body_simulator
    frames = []
    for part, variant in ((coeff.real, "plus"), (coeff.imag, "minus")):
        if part:
            frames += [f.scaled(part) for f in simulate(enc, *modes, variant).frames]
    return frames


def build_simulator_hamiltonian(h: FermionHamiltonian, enc: CodeEncoding,
                                penalty: float | None = None) -> list[FramedDiagonal]:
    """Framed-term simulator of the full Hamiltonian plus codespace penalty.

    Every Hermitian-paired coefficient block becomes a plus/minus pair of
    observable simulators weighted by its real and imaginary parts;
    diagonal blocks become decoder-backed occupation diagonals, and
    interaction entries with a repeated creator or annihilator index,
    which are the zero operator, are skipped.  The penalty term is
    g*(identity - codespace projector), which vanishes on the codespace
    and raises everything orthogonal to it by g.
    """
    if h.modes != enc.modes:
        raise ValueError("mode count mismatch")
    if penalty is None:
        penalty = default_penalty_scale(h)
    frames: list[FramedDiagonal] = []

    for alpha in range(1, h.modes + 1):
        coeff = h.t[alpha - 1, alpha - 1]
        if coeff != 0:
            frames.append(occupation_diag(enc, (alpha,)).scaled(coeff.real))
    for alpha in range(1, h.modes + 1):
        for beta in range(alpha + 1, h.modes + 1):
            frames += _block_frames(enc, (alpha, beta), h.t[alpha - 1, beta - 1])

    done = set()
    for key, coeff in sorted(h.interactions.items()):
        if key in done:
            continue
        partner = (key[3], key[2], key[1], key[0])
        done.add(key)
        done.add(partner)
        a, b = key[:2]
        if partner == key:
            # self-adjoint block: a'_a a'_b a_b a_a = occupation product
            frames.append(occupation_diag(enc, (a, b)).scaled(coeff.real))
        else:
            frames += _block_frames(enc, key, coeff)

    if penalty:
        proj = occupation_diag(enc, ()).diagonal
        anti = None if proj is None else 1.0 - proj
        frames.append(FramedDiagonal(PauliOperator.identity(enc.qubits), anti, weight=penalty))
    return frames


def load_pcm(path: str) -> np.ndarray:
    """Read "Q M", then Q rows of 0/1 digits, contiguous or spaced.

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
    limits.check_dense(1 << enc.qubits)
    codes = np.array([enc.encode_state(st) for st in weight_n_states(enc.modes, enc.particles)],
                     dtype=np.int64)
    cols = np.arange(len(codes))
    out = np.zeros((1 << enc.qubits, len(codes)), dtype=complex)
    for frame in frames:
        rows, values = frame.apply_to_indices(codes)
        out[rows, cols] += values
    return out
