"""Dense and brute-force judges of the program, one function each.

Each is a reference implementation that some test compares the program
against, kept here because no program path needs it: the per-state ladder
kernel that judges ``fermion.apply_op_string_rows`` and the row-kernel
builders, dense Fock, isometry and permutation matrices, the paper's
per-observable simulators and their stabilizer merge, exhaustive
injectivity checks and decoders, and the first-quantized register states.
Methods the program once carried are functions of their object here
(``isometry(enc)`` for ``enc.isometry()``).  No module under src/ imports
this one.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import factorial, prod

import numpy as np

from fertaper import gf2, limits
from fertaper.codeword import CodeEncoding, FramedDiagonal, _rest_index, _simulate
from fertaper.fermion import FermionHamiltonian, FockState, dense_fock_matrix, weight_n_states
from fertaper.firstq import OrthogonalArray, RegisterEncoding, letter_words
from fertaper.graphs import BipartiteGraph, _far, _link, _unlinked
from fertaper.mitm import InjectivityViolation, _mode_set, occupations
from fertaper.pauli import _PHASE, PauliOperator, QubitHamiltonian, _split_label
from fertaper.standard_maps import StandardEncoding
from tests.conftest import syndrome
from tests.gf2_oracle import bits_int

# -- fermion: one basis state at a time ---------------------------------------


def fock_state(m: int, index: int) -> FockState:
    """The basis state of m modes whose occupations are the bits of index, mode 1 first."""
    return FockState(tuple((index >> (m - 1 - i)) & 1 for i in range(m)))


def apply_annihilate(x: FockState, alpha: int):
    """(sign, new state) of the annihilator of a mode, sign (-1)**(occupied
    modes before alpha), or None when the mode is empty."""
    return _ladder(x, alpha, 1)


def apply_create(x: FockState, alpha: int):
    """The creator of a mode, as apply_annihilate; None when already occupied."""
    return _ladder(x, alpha, 0)


def _ladder(x: FockState, alpha: int, full: int):
    if not 1 <= alpha <= x.modes:
        raise IndexError(f"mode {alpha} out of range 1..{x.modes}")
    if x.occ[alpha - 1] != full:
        return None
    bits = list(x.occ)
    bits[alpha - 1] ^= 1
    return -1 if sum(x.occ[: alpha - 1]) % 2 else 1, FockState(tuple(bits))


def apply_op_string(x: FockState, ops) -> tuple[int, FockState] | None:
    """A product of ("c", mode) / ("a", mode) ladder operators, in operator
    order, applied rightmost first; None when it annihilates x."""
    sign = 1
    for kind, mode in reversed(list(ops)):
        step = apply_create(x, mode) if kind == "c" else apply_annihilate(x, mode)
        if step is None:
            return None
        s, x = step
        sign *= s
    return sign, x


def fock_action(h: FermionHamiltonian, x: FockState) -> dict[tuple[int, ...], complex]:
    """Image of a basis state as occupation -> amplitude, each t entry, then
    each u entry, added in turn."""
    out: dict[tuple[int, ...], complex] = {}
    for kinds, (keys, values) in (("ca", h.hopping), ("ccaa", h.u)):
        for key, coeff in zip(keys.tolist(), values.tolist()):
            hit = apply_op_string(x, tuple(zip(kinds, key)))
            if hit is not None:
                out[hit[1].occ] = out.get(hit[1].occ, 0.0) + coeff * hit[0]
    return out


def per_state_matrix(h: FermionHamiltonian, states) -> np.ndarray:
    """Matrix of h on a list of basis states closed under it, a column per state."""
    index = {s.occ: i for i, s in enumerate(states)}
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for col, x in enumerate(states):
        for occ, amp in fock_action(h, x).items():
            mat[index[occ], col] += amp
    return mat


def check_term(term) -> None:
    """ValueError unless term = (indices, choice) is the Hermitian observable
    i**eps (T + choice T_reversed), T the product of creators on the first
    half of indices and annihilators on the second, eps 1 exactly for choice
    -1; choice 0 takes a self-adjoint T alone, its indices a palindrome."""
    indices, choice = term
    if len(indices) % 2:
        raise ValueError(f"a term needs an even number of indices, not {len(indices)}")
    if choice not in (1, -1, 0):
        raise ValueError(f"a term's choice must be 1, -1 or 0, not {choice!r}")
    if choice == 0 and tuple(indices) != tuple(indices[::-1]):
        raise ValueError(f"choice 0 needs a self-adjoint product, not {tuple(indices)}")


def observable_action(term, x: FockState) -> list[tuple[complex, FockState]]:
    """Exact sparse action of a check_term term: (amplitude, state) pairs with
    distinct states.  T_reversed is the product of indices[::-1]."""
    check_term(term)
    indices, choice = term
    phase = 1j if choice == -1 else 1.0
    acc: dict[tuple[int, ...], complex] = {}
    for string, pref in [(indices, 1), (indices[::-1], choice)] if choice else [(indices, 1)]:
        half = len(string) // 2
        hit = apply_op_string(x, [("c" if i < half else "a", mode)
                                  for i, mode in enumerate(string)])
        if hit is not None:
            acc[hit[1].occ] = acc.get(hit[1].occ, 0.0) + phase * pref * hit[0]
    return [(amp, FockState(occ)) for occ, amp in acc.items() if amp != 0]


def observable_matrix(term, m: int) -> np.ndarray:
    """Dense Fock-space matrix of a single check_term term."""
    dim = 1 << m
    limits.check_dense(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        for amp, state in observable_action(term, fock_state(m, col)):
            mat[state.index, col] += amp
    return mat


def restrict_to_sector(matrix: np.ndarray, n: int) -> np.ndarray:
    """Block of a Fock-space matrix on the weight-n subspace, in weight_n_states order."""
    m = matrix.shape[0].bit_length() - 1
    if 1 << m != matrix.shape[0]:
        raise ValueError("matrix dimension is not a power of two")
    idx = [s.index for s in weight_n_states(m, n)]
    return matrix[np.ix_(idx, idx)]


def number_operator_matrix(m: int) -> np.ndarray:
    return np.diag(np.array([sum(fock_state(m, i).occ) for i in range(1 << m)], dtype=complex))


def sector_matrix(h: FermionHamiltonian, n: int | None = None) -> np.ndarray:
    """The Hamiltonian's dense Fock matrix restricted to a particle sector."""
    return restrict_to_sector(dense_fock_matrix(h), h.particles if n is None else n)


# -- pauli and standard_maps ---------------------------------------------------

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix_naive(label: str) -> np.ndarray:
    """Literal Kronecker product of a label's letters, times its phase prefix."""
    prefix, letters = _split_label(label)
    return _PHASE[prefix] * reduce(np.kron, [_SINGLE[c] for c in letters])


def product(a: QubitHamiltonian, b: QubitHamiltonian) -> QubitHamiltonian:
    """Term-by-term operator product a·b, merged."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("qubit count mismatch")
    xs, zs, cs = [], [], []
    right = [(xb, zb, (xb & zb).bit_count(), cb) for xb, zb, cb in zip(*b._lists())]
    for xa, za, ca in zip(*a._lists()):
        ya = (xa & za).bit_count()
        for xb, zb, yb, cb in right:
            x, z = xa ^ xb, za ^ zb
            # letter phases i^ya, i^yb, the swap sign, minus the product's own Y count
            shift = (ya + yb + 2 * (za & xb).bit_count() - (x & z).bit_count()) % 4
            xs.append(x)
            zs.append(z)
            cs.append(ca * cb * _PHASE[shift])
    return QubitHamiltonian.merged(a.qubit_count, xs, zs, cs)


def matrix(enc) -> np.ndarray:
    """A of a CodeEncoding or StandardEncoding as a 0/1 uint8 array, from its column masks."""
    if isinstance(enc, StandardEncoding):
        return gf2.unpack_ints(enc.column_masks, enc.modes).T
    return gf2.unpack_ints(enc.columns, enc.qubits).T


def permutation_matrix(enc: StandardEncoding) -> np.ndarray:
    """Dense basis permutation |x> -> |Ax>."""
    dim = 1 << enc.modes
    limits.check_dense(dim)
    cols = np.arange(dim, dtype=np.int64)
    images = 0  # A x packed, the XOR of the columns of x's occupied modes
    for c, col in enumerate(enc.column_masks):
        images ^= (cols >> (enc.modes - 1 - c) & 1) * col
    perm = np.zeros((dim, dim))
    perm[images, cols] = 1.0
    return perm


def ladder_masks(enc: StandardEncoding, j: int) -> tuple[int, int, int]:
    """enc.ladder_masks[j], or IndexError naming a mode outside 1..M."""
    masks = enc.ladder_masks.get(j)
    if masks is None:
        raise IndexError(f"mode {j} out of range 1..{enc.modes}")
    return masks


def mode_op_to_pauli(enc: StandardEncoding, j: int, dagger: bool) -> QubitHamiltonian:
    """Encoded ladder operator as a two-term Pauli sum.

    The encoded annihilator flips the qubits in column j of the encoding
    matrix, reads the sign of the preceding-mode parity, and projects onto
    mode j being occupied; the projector is the difference of two Pauli
    strings.  The creator flips the projector's sign.
    """
    col, z_parity, row = ladder_masks(enc, j)
    first = PauliOperator.from_masks(enc.modes, col, z_parity)
    second = PauliOperator.from_masks(enc.modes, col, z_parity ^ row)
    return QubitHamiltonian(enc.modes, ((0.5, first), (0.5 if dagger else -0.5, second)))


# -- codes: injectivity, decoding, encoded states ------------------------------


def is_n_injective(a: np.ndarray, n: int) -> bool:
    """Whether distinct weight-n vectors always get distinct syndromes.

    Two weight-n vectors differ in an even number of places, at most
    2*min(n, m-n), so this holds exactly when the kernel has no vector of
    even weight from 2 to that bound, which is what gets enumerated here.
    """
    a = gf2.asbits(a)
    m = a.shape[1]
    if m > limits.BRUTE_FORCE_COLUMN_CAP:
        raise ValueError(
            f"brute-force injectivity check capped at {limits.BRUTE_FORCE_COLUMN_CAP} columns; "
            "certify structurally (girth) instead"
        )
    cols = gf2.pack_rows(a.T)
    return not any(reduce(int.__xor__, (cols[c] for c in combo)) == 0
                   for w in range(2, 2 * min(n, m - n) + 1, 2)
                   for combo in itertools.combinations(range(m), w))


def brute_force_decode(a: np.ndarray, n: int, s) -> np.ndarray | None:
    """Exhaustive decoder over all weight-N vectors; InjectivityViolation with
    the two colliding mode sets if more than one preimage exists."""
    a = gf2.asbits(a)
    q, m = a.shape
    if m > limits.BRUTE_FORCE_COLUMN_CAP:
        raise ValueError(f"brute-force decode capped at {limits.BRUTE_FORCE_COLUMN_CAP} modes")
    s = gf2.asbits(s)
    if s.shape[0] != q:
        raise ValueError(f"syndrome length {s.shape[0]} != {q}")
    (target,) = gf2.pack_rows(s[None])
    cols = gf2.pack_rows(a.T)
    found = None
    for combo in itertools.combinations(range(m), n):
        if reduce(int.__xor__, (cols[c] for c in combo), 0) == target:
            if found is not None:
                raise InjectivityViolation("matrix is not injective at this weight",
                                           witness=(_mode_set(found), _mode_set(combo)))
            found = combo
    return None if found is None else occupations(np.array([found], dtype=np.intp), m)[0]


def no_edge_addable(g: BipartiteGraph, n: int) -> bool:
    """Maximality witness: every absent cross edge would close a short cycle,
    read off distances capped at the greedy search's own rule (_far), which
    are built as the search builds them: _unlinked, then one _link per edge."""
    q = g.vertex_count
    limits.check_graph_vertices(q)
    far = _far(n, q)
    dist = _unlinked(q, far)
    for u, v in g.edges:
        _link(dist, u - 1, v - 1)
    left, right = (np.array(sorted(side), dtype=np.intp) - 1 for side in (g.left, g.right))
    return not (dist[np.ix_(left, right)] >= far).any()


def encoded(enc: CodeEncoding, x: FockState) -> int:
    """The syndrome of an occupation vector as a qubit mask."""
    return bits_int(syndrome(matrix(enc), x.occ))


def preimage(enc: CodeEncoding) -> np.ndarray:
    """Codeword number of every syndrome index, -1 off the codespace: a 2^Q array."""
    limits.check_dense(1 << enc.qubits)
    syndromes = enc.syndromes()
    out = np.full(1 << enc.qubits, -1, dtype=np.int64)
    out[syndromes] = np.arange(len(syndromes))
    return out


def isometry(enc: CodeEncoding) -> np.ndarray:
    """Dense 2^Q x C(M,N) isometry with columns |Ax>, in weight_n_states order."""
    limits.check_dense(1 << enc.qubits)
    states = weight_n_states(enc.modes, enc.particles)
    iso = np.zeros((1 << enc.qubits, len(states)))
    iso[[encoded(enc, st) for st in states], np.arange(len(states))] = 1.0
    return iso


# -- per-observable simulators and frames --------------------------------------


def observable_simulator(enc: CodeEncoding, term) -> list[FramedDiagonal]:
    """Frames of one encoded check_term term: the program's pass on that term alone."""
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
    """Simulator of the Hermitian two-pair transition; coincident creator and
    annihilator indices cancel out of the flip pattern."""
    if alpha == beta or gamma == delta:
        raise ValueError("pair indices must be distinct within each pair")
    return observable_simulator(enc, ((alpha, beta, gamma, delta), choice))


def stripped_sign(term, x: FockState) -> int:
    """Transition sign out of one occupation state, with the i of choice -1
    stripped.  A term reaches at most one state: its product and the
    reversed one flip the same modes."""
    hits = observable_action(term, x)
    if not hits:
        return 0
    value = hits[0][0] / (1j if term[1] == -1 else 1.0)
    if value.imag != 0 or value.real not in (-1.0, 1.0, -2.0, 2.0):
        raise AssertionError(f"unexpected transition amplitude {hits[0][0]}")
    return int(value.real)


def transition_sign(enc: CodeEncoding, term, s) -> int:
    """stripped_sign out of the decoded preimage of s; 0 off the codespace."""
    x = enc.decode(s)
    return 0 if x is None else stripped_sign(term, x)


def apply_to_index(frame: FramedDiagonal, state: int) -> tuple[int, complex]:
    """Image basis index and amplitude of |state> under a frame, its rest
    index packed bit by bit."""
    pauli = frame.pauli
    rest = 0
    for shift in range(pauli.n - 1, -1, -1):
        if not pauli.x_mask >> shift & 1:
            rest = (rest << 1) | (state >> shift & 1)
    sign = -1.0 if (state & pauli.z_mask).bit_count() % 2 else 1.0
    value = frame.weight * (1j if pauli.phase_power else 1.0) * sign
    return state ^ pauli.x_mask, value * float(frame.materialize()[rest])


def apply_to_indices(frame: FramedDiagonal, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """apply_to_index over an int64 array of basis indices at once."""
    pauli = frame.pauli
    rest = _rest_index(states, pauli.x_mask, pauli.n)
    signs = 1.0 - 2.0 * (np.bitwise_count(states & pauli.z_mask) & 1)
    values = frame.weight * (1j if pauli.phase_power else 1.0) * signs
    return states ^ pauli.x_mask, values * frame.materialize()[rest]


def to_dense(frame: FramedDiagonal) -> np.ndarray:
    """A frame's full 2^Q matrix."""
    limits.check_dense(1 << frame.pauli.n)
    cols = np.arange(1 << frame.pauli.n, dtype=np.int64)
    rows, values = apply_to_indices(frame, cols)
    mat = np.zeros((len(cols), len(cols)), dtype=complex)
    mat[rows, cols] += values
    return mat


def apply_frames_to_isometry(frames, enc: CodeEncoding) -> np.ndarray:
    """Columns of (sum of framed terms) applied to each encoded basis state."""
    limits.check_dense(1 << enc.qubits)
    codes = np.array([encoded(enc, st) for st in weight_n_states(enc.modes, enc.particles)],
                     dtype=np.int64)
    cols = np.arange(len(codes))
    out = np.zeros((1 << enc.qubits, len(codes)), dtype=complex)
    for frame in frames:
        rows, values = apply_to_indices(frame, codes)
        out[rows, cols] += values
    return out


def simulation_condition_exact(frames, term, enc: CodeEncoding) -> bool:
    """Column-by-column identity: a term's frames applied to encoded states
    equal the encoding applied to the term's action."""
    got = apply_frames_to_isometry(frames, enc)
    want = np.zeros_like(got)
    for col, st in enumerate(weight_n_states(enc.modes, enc.particles)):
        for amp, out_state in observable_action(term, st):
            want[encoded(enc, out_state), col] += amp
    return np.array_equal(got, want)


def bipartite_improve(frames: list[FramedDiagonal], enc: CodeEncoding) -> list[FramedDiagonal]:
    """Merge one term's frames by multiplying with codespace stabilizers, the
    reference for the merge that codeword._frame_plan does by counting parts.

    The chosen qubits are the first flipped qubit of each row class.
    Frames with a Z at either are multiplied by (-1)^N Z(class): the
    class's rows on the flip mask XOR into the frame's Z mask, which
    clears the chosen qubit, and its rows on the rest index become a sign
    mask on the diagonal.  Frames that land on the same Z mask merge, in
    the order of their ascending tuples of 1-based qubits.  The codespace
    action is unchanged because the stabilizers act there as identity.
    Frames whose flip mask misses a row class are returned unmerged.
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
    drop = [p for p in range(q) if flips >> p & 1]
    # per class: the chosen qubit's bit (its highest on the frame), its rows on
    # the frame, its rows on the rest index
    on_rests = gf2.word_ints(gf2.drop_word_bits(gf2.uint64_words(enc.class_masks, q), q, drop))
    classes = [(1 << (on_frame.bit_length() - 1), on_frame, on_rest)
               for on_frame, on_rest in zip(on_frames, on_rests)]
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
    for z in sorted(merged, key=lambda z: [-p for p in reversed(range(q)) if z >> p & 1]):
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


# -- firstq: register states ---------------------------------------------------


def _perm_sign(perm) -> int:
    """(-1)**(inversions of a permutation)."""
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


def label_index(enc: RegisterEncoding, labels) -> int:
    """Basis index of |labels...> with register 1 most significant."""
    return reduce(lambda idx, a: idx * enc.padded_modes + (a - 1), labels, 0)


def encode_first_quantized(x: FockState, enc: RegisterEncoding) -> np.ndarray:
    """Antisymmetrized register state of a weight-N occupation vector."""
    if sum(x.occ) != enc.particles:
        raise ValueError(f"state weight {sum(x.occ)} != {enc.particles}")
    if x.modes != enc.modes:
        raise ValueError("mode count mismatch")
    n = enc.particles
    if factorial(n) > limits.PERMUTATION_CAP:
        raise ValueError(f"antisymmetrizing {n} particles sums {n}! = {factorial(n)} orderings, "
                         f"over the cap of {limits.PERMUTATION_CAP}")
    dim = enc.padded_modes ** n
    limits.check_dense(dim)
    occupied = [i + 1 for i, b in enumerate(x.occ) if b]
    vec = np.zeros(dim)
    norm = 1.0 / np.sqrt(factorial(n))
    for perm in itertools.permutations(range(n)):
        vec[label_index(enc, [occupied[i] for i in perm])] += _perm_sign(perm) * norm
    return vec


def codespace_isometry(enc: RegisterEncoding) -> np.ndarray:
    """Columns are encoded weight-N states in lexicographic occupation order."""
    return np.stack([encode_first_quantized(s, enc)
                     for s in weight_n_states(enc.modes, enc.particles)], axis=1)


def required_words(op: PauliOperator, enc: RegisterEncoding) -> dict[int, str]:
    """Per-register letter words of a term, identity qubits resolved to Z."""
    words: dict[int, str] = {}
    m = enc.register_bits
    for reg in range(1, enc.particles + 1):
        letters = [op.letter_at(qb) for qb in range((reg - 1) * m + 1, reg * m + 1)]
        if any(c != "I" for c in letters):
            words[reg] = "".join("Z" if c == "I" else c for c in letters)
    return words


def array_rows(oa: OrthogonalArray) -> tuple[tuple[str, ...], ...]:
    """The array's rows with each value spelled as its letter word."""
    words = letter_words(oa.register_bits)
    return tuple(tuple(words[v] for v in row) for row in oa.values.tolist())


def partition_eigenvector(partition, modes: int) -> np.ndarray:
    """Integer eigenvector of the exchange penalty: a tensor product of
    antisymmetric column states.

    A column of length u contributes the signed sum over orderings of the
    labels 1..u; entries are -1/0/+1 and the vector is unnormalized.
    """
    parts = tuple(partition)
    n = sum(parts)
    if parts and parts[0] > modes:
        raise ValueError("longest column exceeds the mode count")
    dim = modes ** n
    limits.check_dense(dim)
    vec = np.zeros(dim, dtype=np.int64)
    pieces = [[(_perm_sign(perm), perm) for perm in itertools.permutations(range(1, u + 1))]
              for u in parts]
    for combo in itertools.product(*pieces):
        sign = prod(s for s, _ in combo)
        labels = [a for _, perm in combo for a in perm]
        vec[reduce(lambda idx, a: idx * modes + (a - 1), labels, 0)] += sign
    return vec
