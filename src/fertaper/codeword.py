"""Sparse qubit simulators from parity-check-matrix encodings.

A Q x M binary matrix A that is injective on weight-N vectors encodes the
N-particle sector as basis relabeling |x> -> |Ax>.  A fermionic transition
that flips a fixed set of modes then acts on the qubit side as one X-flip
pattern times a syndrome-dependent sign, and a Walsh-Hadamard transform of
that sign function splits the simulator into few terms, each diagonal in a
single tensor-product basis (an X/Y "frame" on the flipped qubits times a
computational-basis diagonal elsewhere).

A frame is a pair of packed Pauli masks: its x mask is the flip mask,
the XOR of the flipped modes' packed columns, and its z mask, a submask of
it, is the Z-pattern.  A diagonal is indexed by the bits outside the flip
mask, packed by gf2.drop_bits.

Diagonals are numpy arrays.  Each encoding lists its codewords once, by
ascending syndrome, which certifies and decodes a code without a graph,
and builds no 2^Q array of its own.  A whole Hamiltonian is framed in one
pass into a Frames table.  The pass knows one kind of term: a coefficient
block's indices, creators then annihilators, and a sign choice, +1 or -1
for the plus or i*(minus) observable and 0 for a self-adjoint product
such as an occupation.  It takes the values of all terms at once from the
rows' prefix parities; plans the frames on masks, as x mask, z mask and
weight columns; and adds every diagonal, the Walsh-Hadamard transform of
one term's values over its flipped bits, by np.add.at into one read-only
buffer at the frame's offset.  It works in chunks, so no intermediate
array outgrows a fixed multiple of 2^Q entries.  The buffer's size,
2^(Q - flipped qubits) entries per frame, is summed from the frame plans
before anything is allocated: past limits.TABLE_ENTRY_BUDGET entries, or
past 63 qubits, the table has its columns but no buffer.

For a graph's code every column meets each of the graph's two sides once,
so the codespace is stabilized by the two all-Z products over a side, and
multiplying frames by those stabilizers zeroes the frame's Z-pattern on
one chosen qubit per side, merging the frames four to one.  Each
stabilizer is (-1)^N on every codeword, so a merged frame's diagonal is
its part count times its own transform, and the merge is mask arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from fertaper import gf2, limits
from fertaper.fermion import (
    FermionHamiltonian,
    FockState,
    check_term,
    default_penalty_scale,
    observable_action,
    weight_n_states,
)
from fertaper.graphs import BipartiteGraph, GraphDecoder
from fertaper.mitm import codeword_table, occupations, syndrome_key
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
    graph: BipartiteGraph | None = None

    def __post_init__(self):
        q, m = self.qubits, len(self.columns)
        object.__setattr__(self, "columns", tuple(map(int, self.columns)))
        if q < 0 or any(c < 0 or c >> q for c in self.columns):
            raise ValueError(f"columns must be masks on {q} qubits")
        if not 0 <= self.particles <= m:
            raise ValueError("particle count out of range")
        if self.graph is not None:
            if (self.graph.vertex_count, self.graph.edge_masks()) != (q, self.columns):
                raise ValueError("matrix is not the graph's incidence matrix")
            decoder = GraphDecoder.certified(self.graph, self.particles)
            if decoder is None:
                raise ValueError("graph girth too small for this particle count")
            object.__setattr__(self, "_graph_decoder", decoder)
        else:
            self._codespace  # listing the codewords certifies the code

    @classmethod
    def from_matrix(cls, a, n: int) -> "CodeEncoding":
        """Encoding of a Q x M 0/1 matrix, packed column by column."""
        a = gf2.asbits(a)
        return cls(tuple(gf2.pack_rows(a.T)), a.shape[0], n)

    @classmethod
    def from_graph(cls, g: BipartiteGraph, n: int) -> "CodeEncoding":
        return cls(g.edge_masks(), g.vertex_count, n, g)

    @property
    def modes(self) -> int:
        return len(self.columns)

    @property
    def matrix(self) -> np.ndarray:
        """A as a 0/1 uint8 array, derived from the column masks (oracle use)."""
        return gf2.unpack_ints(self.columns, self.qubits).T

    @cached_property
    def class_masks(self) -> tuple[int, ...]:
        """The graph's two sides as qubit masks: the row classes every column
        meets once.  Empty without a graph."""
        if self.graph is None:
            return ()
        return tuple(qubit_mask(self.qubits, side) for side in (self.graph.left, self.graph.right))

    @cached_property
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

    def decode(self, s: np.ndarray) -> FockState | None:
        """Unique weight-N preimage of a syndrome, or None.

        A graph code decodes by matching on the graph; any other code by a binary
        search of its codeword list for mitm.syndrome_key(s).  Both check the length.
        """
        if self.graph is not None:
            hit = self._graph_decoder.decode(s)
            return None if hit is None else FockState(tuple(hit.tolist()))
        rows, keys = self._codespace
        key = syndrome_key(s, self.qubits)
        i = int(np.searchsorted(keys, key)[0])
        if i == len(keys) or keys[i] != key[0]:
            return None
        return FockState(tuple(occupations(rows[i:i + 1], self.modes)[0].tolist()))

    @cached_property
    def _codespace(self) -> tuple[np.ndarray, np.ndarray]:
        """mitm.codeword_table at weight N: the codewords as rows of their
        modes' column indices, and their syndromes' keys, in key order."""
        count = comb(self.modes, self.particles)
        if count > limits.TABLE_ENTRY_BUDGET:
            raise MemoryError(f"the codeword list needs {count} entries, "
                              f"over the budget of {limits.TABLE_ENTRY_BUDGET}")
        return codeword_table(self.columns, self.qubits, self.particles)

    def codewords(self) -> np.ndarray:
        """C(M,N) x M occupation rows in ascending syndrome order, built on
        each call.  MemoryError past limits.TABLE_ENTRY_BUDGET codewords."""
        return occupations(self._codespace[0], self.modes)

    def syndromes(self) -> np.ndarray:
        """Every codeword's syndrome as a big-endian uint64, numbered as
        codewords(): a view of the keys, so ValueError past 64 qubits."""
        return self._codespace[1].view(">u8").reshape(len(self._codespace[1]))

    def preimage(self) -> np.ndarray:
        """Codeword number of every syndrome index, -1 off the codespace.

        A 2^Q array, built on each call (oracle use): the simulators index
        codewords by number and never need it.
        """
        limits.check_dense(1 << self.qubits)
        syndromes = self.syndromes()
        preimage = np.full(1 << self.qubits, -1, dtype=np.int64)
        preimage[syndromes] = np.arange(len(syndromes))
        return preimage

    def isometry(self) -> np.ndarray:
        """Dense 2^Q x C(M,N) isometry with columns |Ax> (oracle use)."""
        limits.check_dense(1 << self.qubits)
        states = weight_n_states(self.modes, self.particles)
        iso = np.zeros((1 << self.qubits, len(states)))
        for k, st in enumerate(states):
            iso[self.encode_state(st), k] = 1.0
        return iso


def transition_sign(enc: CodeEncoding, term, s) -> int:
    """Sign of the (indices, choice) term's transition out of the decoded preimage of s.

    Zero when the syndrome has no weight-N preimage or the occupation
    pattern blocks the transition.  For choice -1 the i is stripped, so the
    result is -1, 0 or +1, or +/-2 where the forward and reversed products
    reach the same state (the hop (a, a)).
    """
    x = enc.decode(s)
    return 0 if x is None else _stripped_sign(term, x)


def _stripped_sign(term, x: FockState) -> int:
    """Transition sign out of one occupation state, with the i stripped.

    The one-state oracle of _codeword_signs, which simulators use.  A term
    reaches at most one state: its product and the reversed one flip the same modes.
    """
    hits = observable_action(term, x)
    if not hits:
        return 0
    amp, _ = hits[0]
    value = amp / (1j if term[1] == -1 else 1.0)
    if value.imag != 0 or value.real not in (-1.0, 1.0, -2.0, 2.0):
        raise AssertionError(f"unexpected transition amplitude {amp}")
    return int(value.real)


def _codeword_signs(words: np.ndarray, terms) -> np.ndarray:
    """Values of (indices, choice) terms on every occupation row.

    A term's value is the sign of its product, creators on the first half
    of indices and annihilators on the second, plus choice times the sign
    of the reversed indices, its conjugate transpose, which flips the same
    modes.  Where both reach a state their signs add (to +/-2 or 0), as in
    observable_action, and the i of the i*(minus) observable (choice -1)
    is never applied; choice 0 takes the product alone.  Returns a
    (terms, rows) int8 array.
    """
    words = np.asarray(words, dtype=np.int8)
    m = words.shape[1]
    # row j of either array is mode j + 1: its occupations, and the parity of
    # the occupied modes before it
    cols = np.ascontiguousarray(words.T)
    prefix = np.ascontiguousarray((np.cumsum(words, axis=1) - words).T & 1, dtype=np.int8)
    values = np.empty((len(terms), len(words)), dtype=np.int8)
    by_length: dict[int, list[int]] = {}
    for i, (indices, _) in enumerate(terms):
        by_length.setdefault(len(indices), []).append(i)
    for rows in by_length.values():
        modes = np.array([terms[i][0] for i in rows], dtype=np.intp) - 1
        bad = (modes < 0) | (modes >= m)
        if bad.any():
            raise IndexError(f"mode {modes[bad][0] + 1} out of range 1..{m}")
        choice = np.array([terms[i][1] for i in rows], dtype=np.int8)
        values[rows] = (_ladder_signs(cols, prefix, modes)
                        + choice[:, None] * _ladder_signs(cols, prefix, modes[:, ::-1]))
    return values


def _ladder_signs(cols: np.ndarray, prefix: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """apply_op_string_rows's signs of ladder products, on all rows at once.

    Each row of modes (0-based) is one product, creators on its first half
    and annihilators on its second.  cols and prefix hold, per mode, its
    occupation and the parity of the occupied modes before it, one entry
    per row.  Applied right to left, an operator on mode j needs j full
    (annihilator) or empty (creator), the need toggled by each earlier
    operator on j, and multiplies in (-1)**(prefix at j + earlier operators
    on modes below j).  Returns a (products, rows) int8 array.
    """
    length = modes.shape[1]
    full = np.zeros(modes.shape, dtype=np.int8)
    full[:, length // 2:] = 1
    below = np.zeros(len(modes), dtype=np.int8)
    for i in range(length):
        earlier, mode = modes[:, i + 1:], modes[:, i:i + 1]
        full[:, i] ^= (earlier == mode).sum(axis=1, dtype=np.int8) & 1
        below += (earlier < mode).sum(axis=1, dtype=np.int8)
    ok = (cols[modes] == full[:, :, None]).all(axis=1)
    odd = (prefix[modes].sum(axis=1, dtype=np.int8) + below[:, None]) & 1
    return ok * (1 - 2 * odd)


@dataclass(eq=False)
class FramedDiagonal:
    """One simulator term: weight * pauli * diag(diagonal).

    pauli is the frame, the Hermitian Pauli i^|z| X(x) Z(z) with z a
    submask of x: x marks the flipped qubits and z the frame's Z-pattern.
    The diagonal is a read-only vector over the other qubits, indexed by
    their bits packed most-significant-first (gf2.drop_bits of a basis
    index at the flipped positions), or None when the table it came from
    has no buffer (see Frames).  weight scales the whole term.
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
            raise ValueError("no diagonal buffer past the entry budget of "
                             f"{limits.TABLE_ENTRY_BUDGET} or 63 qubits")
        return self.diagonal

    def to_dense(self) -> np.ndarray:
        """Full 2^Q matrix (oracle use)."""
        limits.check_dense(1 << self.pauli.n)
        cols = np.arange(1 << self.pauli.n, dtype=np.int64)
        rows, values = self.apply_to_indices(cols)
        mat = np.zeros((len(cols), len(cols)), dtype=complex)
        mat[rows, cols] += values
        return mat


@dataclass(frozen=True, eq=False)
class Frames:
    """Framed terms as columns: term i is weights[i] * P_i * diag(d_i).

    P_i is the frame of row i of x_masks and z_masks, read-only word
    matrices as a Pauli sum's.  d_i is buffer[offsets[i]:offsets[i + 1]];
    both are None past limits.TABLE_ENTRY_BUDGET entries or 63 qubits.
    Indexing gives term i as a FramedDiagonal (oracle use).
    """

    qubits: int
    x_masks: np.ndarray
    z_masks: np.ndarray
    weights: np.ndarray
    buffer: np.ndarray | None
    offsets: np.ndarray | None

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> FramedDiagonal:
        i = range(len(self))[i]
        (x,), (z,) = gf2.word_ints(self.x_masks[i:i + 1]), gf2.word_ints(self.z_masks[i:i + 1])
        diag = None if self.buffer is None else self.buffer[self.offsets[i]:self.offsets[i + 1]]
        return FramedDiagonal(PauliOperator.from_masks(self.qubits, x, z, z.bit_count() % 2),
                              diag, float(self.weights[i]))


def _positions(mask: int) -> list[int]:
    """Set bit positions of a mask, highest first, as gf2.drop_bits takes them."""
    return [p for p in range(mask.bit_length() - 1, -1, -1) if mask >> p & 1]


def _qubit_order(mask: int) -> list[int]:
    """Sort key ordering masks as the ascending tuples of their 1-based qubits."""
    return [-p for p in _positions(mask)]


# A pass takes terms in chunks of at most this many times 2^Q term-codeword
# values, and a chunk's frames in pieces of at most as many pairs plus
# entries, so apart from per-frame columns none of its arrays takes more than
# _PASS_ENTRIES * 2^Q * 8 bytes.  Measured on the Fig-3 code (1,281 frames),
# the peak above the table it returns is 0.21 MB, within twice that bound.
_PASS_ENTRIES = 4


def _frame_plan(enc: CodeEncoding, indices: tuple[int, ...],
                choice: int) -> tuple[int, list[int], list[int]]:
    """Flip mask of one term, its frames' Z masks, and each frame's part count.

    The flip mask is the XOR of the term's packed columns, so a mode named
    twice cancels.  One frame per Z-pattern of the right parity inside it
    (odd for the i*(minus) observable, choice -1, else even), in ascending
    mask order; a diagonal term keeps its one identity frame.  When the
    code is a graph's and the flip mask meets both of its row classes, the
    frames merge as bipartite_improve merges them: the patterns clear on
    the chosen qubits remain, in qubit order, each counting the frames
    that land on it.  A product of k ladder operators on columns of weight
    at most w never takes more than 2^(k*w - 1) frames, or its one
    identity frame when k*w = 0; more raises AssertionError.
    """
    flips = 0
    for alpha in indices:
        flips ^= enc.columns[alpha - 1]
    on_frames = [rows & flips for rows in enc.class_masks]  # none without a graph
    if not all(on_frames):
        on_frames = []  # a flip mask that misses a row class stays unmerged
    # the chosen qubits are the first flipped qubit of each row class
    picked = sum(1 << (rows.bit_length() - 1) for rows in on_frames)
    stabilizers = [0]
    for rows in on_frames:
        stabilizers += [s ^ rows for s in stabilizers]
    # the frames landing on z are its products z ^ s of the term's parity
    by_parity = [sum(s.bit_count() % 2 == p for s in stabilizers) for p in (0, 1)]
    free = flips & ~picked
    counts: dict[int, int] = {}
    epsilon = choice == -1
    z = 0
    while True:
        # z walks the submasks of free upwards
        count = by_parity[(z.bit_count() + epsilon) % 2]
        if count or not flips:
            counts[z] = count or 1
        if z == free:
            break
        z = (z - free) & free
    zs = sorted(counts, key=_qubit_order) if on_frames else list(counts)
    if any(z & picked for z in zs):
        raise AssertionError("improvement left a Z on the chosen qubits")
    flipped = len(indices) * enc.max_column_weight
    cap = 1 << (flipped - 1) if flipped else 1
    if len(zs) > cap:
        raise AssertionError(f"{len(indices)}-index sparsity {len(zs)} over the bound {cap}")
    return flips, zs, [counts[z] for z in zs]


def _rest_index(states: np.ndarray, flips: np.ndarray, q: int) -> np.ndarray:
    """gf2.drop_bits of each state at the set bits of its own flip mask."""
    rest = np.zeros_like(states)
    for p in range(q - 1, -1, -1):
        keep = ~flips >> p & 1
        rest <<= keep  # in place: the pass keeps few arrays of the states' size
        rest |= states >> p & keep
    return rest


def _simulate(enc: CodeEncoding, terms, weights, penalty: float = 0.0) -> Frames:
    """Frames of weighted terms, in term order, from one pass over the codewords.

    A term is (indices, choice), framed as _frame_plan says, with the
    values _codeword_signs gives it: a hop or pair hop with choice +1 or
    -1, or with choice 0 a self-adjoint product such as (a, a) or
    (a, b, b, a), an occupation product on one identity frame.  A nonzero
    penalty g adds a last identity frame, g*(identity - codespace
    projector), the projector being the empty product ((), 0).
    Frame z of a flip mask with k bits has the diagonal

        count * 2^-k * sum_c v_c (-1)^{|z & s_c|}   at the rest index of s_c,

    over the codewords c, with v_c the term's value there and s_c the
    syndrome: the Walsh-Hadamard transform of the values over the flipped
    bits, times the part count (each merged part equals that transform on
    the codespace, where a class stabilizer is (-1)^N).  The entries are
    dyadic rationals with small numerators, so no summation order changes
    a bit.
    """
    q = enc.qubits
    if penalty:
        terms, weights = [*terms, ((), 0)], [*weights, penalty]
    plans = [_frame_plan(enc, *term) for term in terms]
    per_term = np.array([len(zs) for _, zs, _ in plans], dtype=np.intp)
    entries = sum(len(zs) << (q - flips.bit_count()) for flips, zs, _ in plans)
    term_x = gf2.uint64_words([flips for flips, _, _ in plans], q)
    z_masks = gf2.uint64_words([z for _, zs, _ in plans for z in zs], q)
    parts = np.array([count for _, _, counts in plans for count in counts], dtype=float)
    del plans  # the pass holds columns only
    # the pass indexes the basis with int64 arrays, which hold 63 qubits
    diagonals = (_diagonals(enc, terms, term_x, per_term, z_masks, parts, bool(penalty))
                 if q <= 63 and entries <= limits.TABLE_ENTRY_BUDGET else (None, None))
    x_masks = np.repeat(term_x, per_term, axis=0)
    x_masks.flags.writeable = z_masks.flags.writeable = False
    weights = np.repeat(np.array(weights, dtype=float), per_term)
    return Frames(q, x_masks, z_masks, weights, *diagonals)


def _diagonals(enc: CodeEncoding, terms, term_x, per_term, z_masks, parts,
               complement: bool) -> tuple[np.ndarray, np.ndarray]:
    """_simulate's diagonals: one read-only buffer, and the frames' offsets in
    it followed by its length.  complement turns the last diagonal d into 1 - d."""
    q = enc.qubits
    flips = term_x[:, 0].astype(np.int64)  # one word: the pass runs below 64 qubits
    flipped = np.bitwise_count(flips).astype(np.intp)
    start = np.concatenate(([0], np.cumsum(np.repeat(1 << (q - flipped), per_term))))
    first_frame = np.concatenate(([0], np.cumsum(per_term)))
    flat = np.zeros(start[-1])
    words, syndromes = enc.codewords(), enc.syndromes().astype(np.int64)
    budget = _PASS_ENTRIES << q

    def add_chunk(lo: int, hi: int) -> None:
        """Add the frames of terms lo..hi-1 to flat; the chunk's arrays go on return."""
        values = _codeword_signs(words, terms[lo:hi])
        hit = values != 0
        nonzero = hit.sum(axis=1)
        # each term's nonzero values and their syndromes, grouped by term
        value, state = values[hit], np.broadcast_to(syndromes, hit.shape)[hit]
        del values, hit
        rest = _rest_index(state, np.repeat(flips[lo:hi], nonzero), q)
        first = np.cumsum(nonzero) - nonzero
        # the chunk's frames, cut into pieces of at most budget pairs plus
        # entries; one frame has at most C(M, N) pairs and 2^Q entries
        frames = slice(first_frame[lo], first_frame[hi])
        term = np.repeat(np.arange(hi - lo), per_term[lo:hi])
        z, scale = z_masks[frames, 0].astype(np.int64), parts[frames] / (1 << flipped[lo + term])
        count = nonzero[term]
        pairs = np.concatenate(([0], np.cumsum(count)))
        ends = start[first_frame[lo]:first_frame[hi] + 1]
        load = pairs + ends
        a = 0
        while a < len(term):
            b = max(a + 1, np.searchsorted(load, load[a] + budget, "right") - 1)
            n = count[a:b]
            pick = (np.repeat(first[term[a:b]] - pairs[a:b] + pairs[a], n)
                    + np.arange(pairs[b] - pairs[a]))
            odd = np.bitwise_count(state[pick] & np.repeat(z[a:b], n)) & 1
            weight = np.where(odd, -value[pick], value[pick]) * np.repeat(scale[a:b], n)
            np.add.at(flat, np.repeat(ends[a:b], n) + rest[pick], weight)
            a = b

    per_chunk = budget // len(words)  # at least _PASS_ENTRIES: C(M, N) <= 2^Q
    for lo in range(0, len(terms), per_chunk):
        add_chunk(lo, min(lo + per_chunk, len(terms)))
    if complement:
        last = flat[start[-2]:]
        np.subtract(1.0, last, out=last)
    flat.flags.writeable = False
    return flat, start


def observable_simulator(enc: CodeEncoding, term) -> list[FramedDiagonal]:
    """Framed decomposition of one encoded term (indices, choice): the one-term pass.

    _frame_plan lists its frames and bounds their number; _simulate
    computes their diagonals.
    """
    check_term(term)
    return list(_simulate(enc, [term], [1.0]))


def two_body_simulator(enc: CodeEncoding, alpha: int, beta: int,
                       choice: int = 1) -> list[FramedDiagonal]:
    """Simulator of the Hermitian hop between two distinct modes."""
    if alpha == beta:
        raise ValueError("two-body simulator needs distinct modes")
    return observable_simulator(enc, ((alpha, beta), choice))


def four_body_simulator(enc: CodeEncoding, alpha: int, beta: int, gamma: int,
                        delta: int, choice: int = 1) -> list[FramedDiagonal]:
    """Simulator of the Hermitian two-pair transition.

    Coincident creator/annihilator indices cancel out of the flip pattern,
    so such inputs reduce to smaller flip sets (hops gated on occupations,
    or pure diagonals) before frames are built.
    """
    if alpha == beta or gamma == delta:
        raise ValueError("pair indices must be distinct within each pair")
    return observable_simulator(enc, ((alpha, beta, gamma, delta), choice))


def bipartite_improve(frames: list[FramedDiagonal], enc: CodeEncoding) -> list[FramedDiagonal]:
    """Merge frames by multiplying with codespace stabilizers (oracle use).

    The reference for the merge that _frame_plan does by counting parts.

    The chosen qubits are the first flipped qubit of each row class.
    Frames with a Z at either are multiplied by (-1)^N Z(class): the
    class's rows on the flip mask XOR into the frame's Z mask, which
    clears the chosen qubit, and its rows on the rest index become a sign
    mask on the diagonal.  Frames that land on the same Z mask merge.  The
    codespace action is unchanged because the stabilizers act there as
    identity.  One term's frames whose flip mask misses a row class are returned unmerged.
    """
    if enc.graph is None:
        raise ValueError("encoding has no graph, so no bipartition")
    if not frames:
        return frames
    q = enc.qubits
    flips = frames[0].pauli.x_mask
    on_frames = [rows & flips for rows in enc.class_masks]
    if not all(on_frames):
        return frames
    n_sign = -1.0 if enc.particles % 2 else 1.0
    drop = _positions(flips)
    # per class: the chosen qubit's bit (its highest on the frame), its rows on
    # the frame, its rows on the rest index
    classes = [(1 << (on_frame.bit_length() - 1), on_frame, gf2.drop_bits(rows, drop))
               for on_frame, rows in zip(on_frames, enc.class_masks)]

    merged: dict[int, list] = {}
    for frame in frames:
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
    return out


def build_simulator_hamiltonian(h: FermionHamiltonian, enc: CodeEncoding,
                                penalty: float | None = None) -> Frames:
    """Framed-term simulator of the full Hamiltonian plus codespace penalty.

    Every term is a coefficient block's key and a sign choice: (a, b) of
    the one-body tensor or (a, b, g, d) of ``h.interactions``, in u's order,
    one key of each Hermitian pair.  A self-adjoint block, (a, a) or
    (a, b, b, a), is an occupation product, choice 0, weighted by its real
    part; any other gives the plus and i*(minus) terms, choice +1 and -1,
    weighted by its real and imaginary parts.  Interaction entries with a repeated creator
    or annihilator index, which are the zero operator, are skipped.  All
    terms are framed in one pass (_simulate).  The penalty term is
    g*(identity - codespace projector), which vanishes on the codespace
    and raises everything orthogonal to it by g.
    """
    if h.modes != enc.modes:
        raise ValueError("mode count mismatch")
    if penalty is None:
        penalty = default_penalty_scale(h)
    t = h.t
    blocks = [((int(a) + 1,) * 2, t[a, a]) for a in np.flatnonzero(np.diag(t))]
    blocks += [((int(a) + 1, int(b) + 1), t[a, b]) for a, b in zip(*np.nonzero(np.triu(t, 1)))]
    # a block and its partner key[::-1] are one Hermitian pair: take the lesser,
    # (d, g, b, a) >= (a, b, g, d) in u's lexicographic order
    keys, values = h.interactions
    a, b, g, d = keys.T
    lesser = (d > a) | (d == a) & (g >= b)
    blocks += zip(map(tuple, keys[lesser].tolist()), values[lesser].tolist())
    terms, weights = [], []
    for indices, coeff in blocks:
        if indices == indices[::-1]:  # self-adjoint: an occupation product
            parts = [(0, coeff.real)]
        else:
            parts = [(choice, part) for choice, part in ((1, coeff.real), (-1, coeff.imag)) if part]
        for choice, part in parts:
            terms.append((indices, choice))
            weights.append(part)
    return _simulate(enc, terms, weights, penalty)


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
    if len(header) != 2 or not all(t.isdecimal() for t in header):
        raise ValueError(f"parity-check file {path}: header {lines[0]!r} is not \"Q M\"")
    q, m = (int(t) for t in header)
    if len(lines) == 1:
        raise ValueError(f"parity-check file {path} has a header but no rows")
    if len(lines) - 1 > q:
        raise ValueError(f"parity-check file {path} has {len(lines) - 1} rows; "
                         f"its header says {q}")
    # every row at once: a row, spaced or not, reads when it has m entries of one
    # character each, and strip() leaves nothing when every character is 0 or 1;
    # _refuse_row words the first error when a row is wrong
    rows = [ln.split() if " " in ln else ln for ln in lines[1:]]
    digits = [row if type(row) is str else "".join(row) for row in rows]
    text = "".join(digits)
    if set(map(len, rows)) | set(map(len, digits)) != {m} or text.strip("01"):
        _refuse_row(path, rows, m)
    a = (np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")).reshape(-1, m)
    if a.shape != (q, m):
        raise ValueError(f"parity-check body {a.shape} does not match header ({q}, {m})")
    return a


def _refuse_row(path: str, rows: list, m: int) -> None:
    """Raise the ValueError of the first wrong row of a parity-check file with m
    columns; each row is a string of one-character entries or a list of spaced ones."""
    for r, entries in enumerate(rows, 1):
        if not {"0", "1"}.issuperset(entries):
            bad = next(c for c, d in enumerate(entries, 1) if d not in ("0", "1"))
            raise ValueError(f"parity-check file {path}: row {r}, column {bad} is "
                             f"{entries[bad - 1]!r}; entries must be 0 or 1")
        if len(entries) != m:
            raise ValueError(f"parity-check file {path}: row {r} has {len(entries)} "
                             f"entries; its header says {m}")
    raise AssertionError(f"parity-check file {path} was flagged, but its rows read")


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
