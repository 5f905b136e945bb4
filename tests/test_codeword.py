import itertools
import tracemalloc

import numpy as np
import pytest

from fertaper import gf2, limits
from fertaper.codeword import (
    CodeEncoding,
    FramedDiagonal,
    _codeword_signs,
    build_simulator_hamiltonian,
    load_pcm,
)
from fertaper.fermion import (
    FermionHamiltonian,
    FockState,
    apply_op_string_rows,
    default_penalty_scale,
    random_hamiltonian,
    sector_matrix_direct,
    weight_n_states,
)
from fertaper.graphs import (
    BipartiteGraph,
    cycle_chord_graph,
    graph_decode,
    greedy_high_girth,
    load_graph,
    save_graph,
)
from fertaper.mitm import InjectivityViolation, build_tables, mitm_decode
from fertaper.pauli import PauliOperator, qubit_mask
from tests.conftest import (
    grown_weight3_code,
    packed,
    syndrome,
    syndrome_map,
    u_dict,
    weight3_column,
)
from tests.gf2_oracle import bits_int
from tests.oracles import (
    apply_frames_to_isometry,
    apply_to_index,
    apply_to_indices,
    bipartite_improve,
    brute_force_decode,
    encoded,
    four_body_simulator,
    is_n_injective,
    isometry,
    matrix,
    observable_action,
    observable_simulator,
    preimage,
    sector_matrix,
    simulation_condition_exact,
    stripped_sign,
    to_dense,
    transition_sign,
    two_body_simulator,
)


@pytest.fixture
def fig3_encoding(fig3_graph):
    return CodeEncoding.from_graph(fig3_graph, 2)


@pytest.fixture
def raw_fig3(fig3_encoding):
    """The Fig-3 code without its graph, so its frames stay unmerged."""
    enc = fig3_encoding
    return CodeEncoding(enc.columns, enc.qubits, enc.particles)


def fig3_subcode(fig3_graph):
    """The code of the Fig-3 graph's first six edges, on all 12 of its vertices."""
    return CodeEncoding.from_graph(
        BipartiteGraph(fig3_graph.left, fig3_graph.right, fig3_graph.edges[:6]), 2)


def reference_signs(words, term):
    """Transition signs row by row: apply_op_string_rows on the forward and
    reversed products, added where both reach the same state; choice 0
    takes the forward product alone."""
    indices, choice = term
    half = len(indices) // 2
    (forward, fwd_image), (reverse, rev_image) = (
        apply_op_string_rows(words, [("c" if i < half else "a", mode)
                                     for i, mode in enumerate(product)])
        for product in (indices, indices[::-1]))
    both = (forward != 0) & (reverse != 0)
    assert np.array_equal(fwd_image[both], rev_image[both])
    return forward + choice * reverse


def sign_matrix(enc, term, flips):
    """Transition signs over every syndrome as a (rest, frame) matrix.

    Entry [r, u] is the sign at the syndrome whose bits outside the flip
    mask pack to r and whose bits inside it pack to u, both
    most-significant-first.
    """
    q, k = enc.qubits, flips.bit_count()
    signs = np.append(reference_signs(enc.codewords(), term).astype(float), 0.0)[preimage(enc)]
    # a stable sort of the qubit axes by flip bit: rest axes first, each part in order
    axes = np.argsort(flips >> np.arange(q - 1, -1, -1) & 1, kind="stable")
    return signs.reshape((2,) * q).transpose(axes).reshape(1 << (q - k), 1 << k)


def walsh_hadamard(values):
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


def reference_simulator(enc, term):
    """One term's frames the per-observable way: its signs spread over the
    syndromes, transposed to (rest, frame) bits and transformed along the
    frame bits, one frame per Z-pattern of the term's parity (odd exactly
    for choice -1), then merged by bipartite_improve when the code is a
    graph's."""
    q = enc.qubits
    indices, choice = term
    flips = 0
    for alpha in indices:
        flips ^= enc.columns[alpha - 1]
    spectra = walsh_hadamard(sign_matrix(enc, term, flips))
    frames, z = [], 0
    for t in range(1 << flips.bit_count()):
        # z walks the submasks of flips upwards, so it is column t's Z-pattern
        parity = z.bit_count() % 2
        if not flips or parity == (choice == -1):
            frames.append(FramedDiagonal(PauliOperator.from_masks(q, flips, z, parity),
                                         spectra[:, t]))
        z = (z - flips) & flips
    return frames if enc.graph is None else bipartite_improve(frames, enc)


def reference_hamiltonian(h, enc, penalty):
    """The frames of build_simulator_hamiltonian, one observable at a time."""
    frames = []

    def scaled(frame, factor):
        return FramedDiagonal(frame.pauli, frame.diagonal, frame.weight * factor)

    def block(modes, coeff):
        for part, choice in ((coeff.real, 1), (coeff.imag, -1)):
            if part:
                frames.extend(scaled(f, part) for f in reference_simulator(enc, (modes, choice)))

    def occupation(modes, coeff):
        # a self-adjoint product, choice 0: one identity frame
        frame, = reference_simulator(enc, (modes, 0))
        frames.append(scaled(frame, coeff))

    for alpha in range(1, h.modes + 1):
        if h.t[alpha - 1, alpha - 1] != 0:
            occupation((alpha, alpha), h.t[alpha - 1, alpha - 1].real)
    for alpha, beta in itertools.combinations(range(1, h.modes + 1), 2):
        block((alpha, beta), h.t[alpha - 1, beta - 1])
    done = set()
    for key, coeff in sorted(u_dict(h.interactions).items()):
        partner = (key[3], key[2], key[1], key[0])
        if key in done:
            continue
        done |= {key, partner}
        if partner == key:
            occupation(key, coeff.real)
        else:
            block(key, coeff)
    if penalty:
        # identity - the codespace projector, the empty product ((), 0)
        projector, = reference_simulator(enc, ((), 0))
        frames.append(FramedDiagonal(projector.pauli, 1.0 - projector.diagonal, penalty))
    return frames


class TestInjectivity:
    def test_identity_matrix(self):
        assert is_n_injective(np.eye(5, dtype=np.uint8), 3)

    def test_figure_graph(self, fig3_graph):
        assert is_n_injective(fig3_graph.incidence_matrix(), 2)

    def test_equal_columns_break_injectivity(self):
        a = np.eye(4, dtype=np.uint8)
        a[:, 2] = a[:, 1]
        assert not is_n_injective(a, 1)

    def test_two_zero_columns_break_injectivity(self):
        a = np.eye(4, dtype=np.uint8)
        a[:, 1] = 0
        a[:, 2] = 0
        assert not is_n_injective(a, 1)

    def test_single_zero_column_only_adds_odd_kernel_weight(self):
        # the injectivity criterion only forbids even kernel weights up to
        # 2N, so one zero column among independent ones stays injective
        a = np.eye(4, dtype=np.uint8)
        a[:, 2] = 0
        assert is_n_injective(a, 1)

    def test_width_guard(self):
        with pytest.raises(ValueError):
            is_n_injective(np.eye(30, dtype=np.uint8), 2)

    def test_kernel_weight_bound_is_twice_min_n_m_minus_n(self):
        # the kernel vector 1111 has weight 4 <= 2N, but two weight-3 vectors
        # on 4 modes differ in only 2 places: all 4 syndromes are distinct
        a = np.array([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], dtype=np.uint8)
        assert is_n_injective(a, 3)
        assert preimage(CodeEncoding.from_matrix(a, 3)).tolist().count(-1) == 4

    def test_agrees_with_brute_force_on_every_syndrome(self):
        rng = np.random.default_rng(2024)
        verdicts = set()
        for _ in range(300):
            q, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            n = int(rng.integers(0, m + 1))
            a = rng.integers(0, 2, size=(q, m)).astype(np.uint8)
            try:
                for s in range(1 << q):
                    brute_force_decode(a, n, gf2.unpack_ints([s], q)[0])
                want = True
            except InjectivityViolation:
                want = False
            assert is_n_injective(a, n) == want, (a.tolist(), n)
            try:
                CodeEncoding.from_matrix(a, n)
                built = True
            except InjectivityViolation:
                built = False
            assert built == want, (a.tolist(), n)
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_the_list_agrees_with_brute_force_up_to_its_cap(self):
        # from 7 columns, where the test above stops, to the brute-force cap
        rng = np.random.default_rng(2026)
        wide = set()
        for m in range(7, limits.BRUTE_FORCE_COLUMN_CAP + 1):
            for n in (1, 2, 3):
                q = int(rng.integers(2 * n + 4, 5 * n + 10))
                a = rng.integers(0, 2, size=(q, m)).astype(np.uint8)
                want = is_n_injective(a, n)
                try:
                    CodeEncoding.from_matrix(a, n)
                    built = True
                except InjectivityViolation:
                    built = False
                assert built == want, (a.tolist(), n)
                if m > 20 and n > 1:
                    wide.add(want)
        assert wide == {True, False}

    def test_wide_codes_without_a_graph_are_certified_by_their_list(self):
        # 25 to 40 weight-3 columns: a code builds exactly when a test-side
        # enumeration finds no shared syndrome, and a refusal's two mode sets
        # share one
        rng = np.random.default_rng(2027)
        built = refused = 0
        for m in range(25, 41):
            for n in (2, 3):
                q = int(rng.integers(18, 27))
                cols = []
                while len(cols) < m:
                    col = weight3_column(q, rng)
                    if col not in cols:
                        cols.append(col)

                def shared(modes):
                    acc = 0
                    for mode in modes:
                        acc ^= cols[mode - 1]
                    return acc

                syndromes = [shared(c) for c in itertools.combinations(range(1, m + 1), n)]
                injective = len(set(syndromes)) == len(syndromes)
                try:
                    enc = CodeEncoding(tuple(cols), q, n)
                except InjectivityViolation as err:
                    first, second = err.witness
                    assert not injective
                    assert first != second and len(first) == len(second) == n
                    assert shared(first) == shared(second)
                    refused += 1
                else:
                    assert injective
                    assert sorted(enc.syndromes().tolist()) == sorted(syndromes)
                    built += 1
        assert built >= 5 and refused >= 5
        # the seeded Q=14 code the CLI tests use grows past 24 columns too
        assert grown_weight3_code(14, 2, 30, 1).modes == 30


class TestCodeEncoding:
    def test_fields_are_columns_qubits_particles_graph(self):
        from dataclasses import fields

        assert [f.name for f in fields(CodeEncoding)] == ["columns", "qubits", "particles",
                                                          "graph"]

    def test_class_masks_are_the_graphs_sides(self, fig3_graph):
        sides = (qubit_mask(12, fig3_graph.left), qubit_mask(12, fig3_graph.right))
        assert CodeEncoding.from_graph(fig3_graph, 2).class_masks == sides
        assert CodeEncoding.from_matrix(fig3_graph.incidence_matrix(), 2).class_masks == ()

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_matrix_code_lists_its_codewords_once(self, fig3_graph, n, monkeypatch):
        # either kind of code lists its codewords once, in syndrome order
        from fertaper import mitm

        listed = []
        combinations = mitm.combinations

        def counted(m, k):
            listed.append(k)
            return combinations(m, k)

        monkeypatch.setattr(mitm, "combinations", counted)
        codes = []
        for build, source in ((CodeEncoding.from_matrix, fig3_graph.incidence_matrix()),
                              (CodeEncoding.from_graph, fig3_graph)):
            listed.clear()
            enc = build(source, n)
            words, syndromes = enc.codewords(), enc.syndromes()
            assert listed.count(n) == 1
            assert np.all(np.diff(syndromes) > 0)
            assert np.array_equal(syndromes, [encoded(enc, FockState(tuple(w))) for w in words])
            codes.append(words)
        assert np.array_equal(*codes)

    def test_rejects_noninjective(self):
        a = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        with pytest.raises(ValueError):
            CodeEncoding.from_matrix(a, 1)

    def test_encode_state_identity_matrix(self):
        enc = CodeEncoding.from_matrix(np.eye(4, dtype=np.uint8), 2)
        x = FockState((1, 0, 1, 0))
        assert encoded(enc, x) == 0b1010

    def test_encode_shared_vertex_cancels(self, fig3_encoding, fig3_graph):
        adjacent = [None, None]
        for e1, (u1, v1) in enumerate(fig3_graph.edges):
            for e2, (u2, v2) in enumerate(fig3_graph.edges):
                if e1 < e2 and {u1, v1} & {u2, v2}:
                    adjacent = [e1, e2]
        x = np.zeros(16, dtype=np.uint8)
        x[adjacent] = 1
        s = syndrome(matrix(fig3_encoding), x)
        assert s.sum() == 2  # shared endpoint cancels

    def test_distinct_states_distinct_syndromes(self, fig3_encoding):
        seen = set()
        for st in weight_n_states(16, 2):
            key = encoded(fig3_encoding, st)
            assert key not in seen
            seen.add(key)

    def test_encodings_compare_and_hash_by_value(self, fig3_graph):
        a = fig3_graph.incidence_matrix()
        for build in (lambda: CodeEncoding.from_graph(fig3_graph, 2),
                      lambda: CodeEncoding.from_matrix(a, 2),
                      lambda: CodeEncoding(*packed(a), 2, fig3_graph)):
            one, two = build(), build()
            assert one == two and hash(one) == hash(two)
            assert len({one, two}) == 1
            assert np.array_equal(matrix(one), a)
        assert CodeEncoding.from_graph(fig3_graph, 2) != CodeEncoding.from_matrix(a, 2)
        assert CodeEncoding.from_matrix(a, 2) != CodeEncoding.from_matrix(a, 1)
        assert CodeEncoding.from_matrix(a, 2).columns == fig3_graph.edge_masks()

    def test_columns_must_fit_the_qubits(self):
        with pytest.raises(ValueError, match="masks on 2 qubits"):
            CodeEncoding((0b01, 0b100), 2, 1)


class TestTransitionSign:
    def test_unreachable_syndrome(self, fig3_encoding):
        s = np.zeros(12, dtype=np.uint8)
        s[0] = 1
        assert transition_sign(fig3_encoding, ((1, 2), 1), s) == 0

    def test_adjacent_modes_positive(self):
        enc = CodeEncoding.from_matrix(np.eye(4, dtype=np.uint8), 2)
        s = np.array([0, 1, 1, 0], dtype=np.uint8)  # modes 2, 3 occupied
        assert transition_sign(enc, ((1, 2), 1), s) == 1

    def test_matches_brute_force_table(self, fig3_encoding):
        rng = np.random.default_rng(71)
        term = ((4, 11), 1)
        for _ in range(200):
            s = rng.integers(0, 2, size=12).astype(np.uint8)
            x = fig3_encoding.decode(s)
            want = 0
            if x is not None:
                hits = observable_action(term, x)
                want = int(hits[0][0].real) if hits else 0
            assert transition_sign(fig3_encoding, term, s) == want


class TestCodewordSigns:
    """The array signs of _codeword_signs against transition_sign, codeword by codeword."""

    @pytest.fixture(params=["fig3", "greedy-8", "greedy-10"])
    def encoding(self, request, fig3_graph):
        graph = {"fig3": lambda: fig3_graph,
                 "greedy-8": lambda: greedy_high_girth(8, 2, trials=50, seed=3),
                 "greedy-10": lambda: greedy_high_girth(10, 2, trials=50, seed=4)}
        return CodeEncoding.from_graph(graph[request.param](), 2)

    @staticmethod
    def terms(m: int, rng):
        """Every hop, a == b included, and pair hops: every a < b, g < d pair
        up to 9 modes, else 150 of them drawn, plus the coincident forms
        (a, b, b, a), (a, b, a, b) and (a, b, b, d); each with choice +1 and
        -1.  Then the self-adjoint products with choice 0: every (a, a) and
        (a, b, b, a), a == b included, and the empty product ()."""
        quads = [p + r for p, r in itertools.product(itertools.combinations(range(1, m + 1), 2),
                                                     repeat=2)]
        if m > 9:
            quads = [quads[k] for k in rng.choice(len(quads), 150, replace=False)]
        for a, b, d in rng.integers(1, m + 1, size=(12, 3)).tolist():
            if a != b:
                quads += [(a, b, b, a), (a, b, a, b)] + [(a, b, b, d)] * (b != d)
        for choice in (1, -1):
            for a, b in itertools.product(range(1, m + 1), repeat=2):
                yield (a, b), choice
            for quad in quads:
                yield quad, choice
        for a in range(1, m + 1):
            yield (a, a), 0
        for a, b in itertools.product(range(1, m + 1), repeat=2):
            yield (a, b, b, a), 0
        yield (), 0

    def test_every_hop_and_pair_hop(self, encoding):
        enc = encoding
        words = enc.codewords()
        # transition_sign decodes its syndrome, then takes stripped_sign of
        # the preimage: decode each codeword's syndrome once, here
        states = []
        for row in words.tolist():
            s = np.array(gf2.unpack_ints([encoded(enc, FockState(tuple(row)))], enc.qubits)[0],
                         dtype=np.uint8)
            states.append(enc.decode(s))
            assert states[-1].occ == tuple(row)
        terms = list(self.terms(enc.modes, np.random.default_rng(enc.qubits)))
        signs = _codeword_signs(words, terms)
        assert signs.shape == (len(terms), len(words))
        for term, got in zip(terms, signs.tolist()):
            assert got == [stripped_sign(term, x) for x in states], term
        assert set(np.unique(signs)) == {-2, -1, 0, 1, 2}

    def test_transition_sign_itself_on_a_hop_and_a_pair_hop(self, fig3_encoding):
        enc = fig3_encoding
        pre = preimage(enc)
        for term in (((3, 9), -1), ((2, 5, 5, 14), 1)):
            signs = np.append(_codeword_signs(enc.codewords(), [term])[0], 0)[pre]
            for index in range(0, 1 << enc.qubits, 7):
                s = np.array(gf2.unpack_ints([index], enc.qubits)[0], dtype=np.uint8)
                assert transition_sign(enc, term, s) == signs[index]

    def test_self_adjoint_products_are_occupations(self, encoding):
        """Choice 0 takes the product alone: (a, a) is n_a, (a, b, b, a) is
        n_a n_b, and the empty product () is 1 on every codeword."""
        words = encoding.codewords()
        pairs = [(a, b) for a in range(1, encoding.modes + 1)
                 for b in range(1, encoding.modes + 1) if a != b]
        terms = ([((a, a), 0) for a in range(1, encoding.modes + 1)]
                 + [((a, b, b, a), 0) for a, b in pairs] + [((), 0)])
        signs = _codeword_signs(words, terms)
        want = ([words[:, a - 1] for a in range(1, encoding.modes + 1)]
                + [words[:, a - 1] * words[:, b - 1] for a, b in pairs] + [np.ones(len(words))])
        assert np.array_equal(signs, np.array(want))


class TestTwoBodySimulator:
    def test_graph_code_sparsity(self, fig3_encoding):
        for alpha, beta in ((1, 2), (1, 3), (5, 12), (2, 16)):
            assert len(two_body_simulator(fig3_encoding, alpha, beta)) <= 2

    def test_equal_columns_guard(self):
        # equal columns never reach a simulator: with 0 < N < M they give two
        # weight-N vectors one syndrome, which the encoding's certificate
        # refuses (and a graph refuses parallel edges)
        for n in (1, 2, 3):
            with pytest.raises(InjectivityViolation, match=f"two weight-{n} vectors"):
                CodeEncoding((0b1000, 0b1000, 0b0100, 0b0010), 4, n)

    def test_equal_columns_allowed_at_full_filling(self):
        # N = M leaves one codeword, so two equal columns collide with nothing
        enc = CodeEncoding((0, 0), 1, 2)
        for choice in (1, -1):
            frames = two_body_simulator(enc, 1, 2, choice)
            assert simulation_condition_exact(frames, ((1, 2), choice), enc)

    @pytest.mark.parametrize("pair", [(1, 2), (3, 9), (7, 14)])
    @pytest.mark.parametrize("choice", [1, -1], ids=["plus", "minus"])
    def test_simulation_condition_exact(self, fig3_encoding, pair, choice):
        frames = two_body_simulator(fig3_encoding, *pair, choice)
        assert simulation_condition_exact(frames, (pair, choice), fig3_encoding)

    def test_walsh_hadamard_inverts_exactly(self, fig3_encoding, raw_fig3):
        term = ((1, 6), 1)
        flips = observable_simulator(raw_fig3, term)[0].pauli.x_mask
        k = flips.bit_count()
        matrix = sign_matrix(fig3_encoding, term, flips)
        for rest_bits in (0, 5, 77):
            signs = matrix[rest_bits]
            spectrum = walsh_hadamard(signs)
            back = np.array(
                [
                    sum(
                        spectrum[t] * (-1) ** bin(t & u).count("1")
                        for t in range(1 << k)
                    )
                    for u in range(1 << k)
                ]
            )
            assert np.array_equal(back, signs)

    def test_odd_patterns_vanish_for_plus_variant(self, fig3_encoding, raw_fig3):
        # choice +1 frames all have even Z-patterns by construction; check
        # that the odd-pattern coefficients really are zero
        term = ((2, 10), 1)
        flips = observable_simulator(raw_fig3, term)[0].pauli.x_mask
        k = flips.bit_count()
        matrix = sign_matrix(fig3_encoding, term, flips)
        for rest_bits in range(0, 1 << (12 - k), 17):
            spectrum = walsh_hadamard(matrix[rest_bits])
            for t in range(1 << k):
                if bin(t).count("1") % 2 == 1:
                    assert spectrum[t] == 0.0

    def test_diagonal_entries_in_range(self, fig3_encoding):
        for choice in (1, -1):
            for frame in two_body_simulator(fig3_encoding, 4, 13, choice):
                diag = frame.materialize()
                assert np.all(np.abs(diag) <= 1.0)

    def test_raw_signs_are_ternary(self, fig3_encoding, raw_fig3):
        term = ((1, 2), 1)
        flips = observable_simulator(raw_fig3, term)[0].pauli.x_mask
        signs = sign_matrix(fig3_encoding, term, flips)[13]
        assert set(np.unique(signs)) <= {-1.0, 0.0, 1.0}

    def test_frames_hermitian(self, fig3_encoding):
        # a frame maps column c to row rows[c] with value vals[c]; it is
        # Hermitian when rows is an involution and vals[rows[c]] = conj(vals[c])
        cols = np.arange(1 << fig3_encoding.qubits, dtype=np.int64)
        for choice in (1, -1):
            for frame in two_body_simulator(fig3_encoding, 1, 9, choice):
                rows, vals = apply_to_indices(frame, cols)
                assert np.array_equal(rows[rows], cols)
                assert np.allclose(vals[rows], vals.conj())

    def test_dense_frames_match_the_per_index_oracle(self, fig3_encoding):
        # every frame of hop (1, 9), both choices: the vectorized to_dense
        # equals the matrix built one basis index at a time
        dim = 1 << fig3_encoding.qubits
        for choice in (1, -1):
            for frame in two_body_simulator(fig3_encoding, 1, 9, choice):
                want = np.zeros((dim, dim), dtype=complex)
                for col in range(dim):
                    row, val = apply_to_index(frame, col)
                    want[row, col] += val
                assert np.array_equal(to_dense(frame), want)

    def test_all_pairs_exact_on_subcode(self, fig3_graph):
        # exhaustive simulation-condition sweep on a 12-qubit instance
        enc = fig3_subcode(fig3_graph)
        for alpha in range(1, 7):
            for beta in range(alpha + 1, 7):
                frames = two_body_simulator(enc, alpha, beta)
                assert simulation_condition_exact(frames, ((alpha, beta), 1), enc), (alpha, beta)


class TestFourBodySimulator:
    def test_sparsity_bound(self, fig3_encoding):
        rng = np.random.default_rng(73)
        for _ in range(5):
            picks = rng.choice(16, size=4, replace=False) + 1
            assert len(four_body_simulator(fig3_encoding, *(int(v) for v in picks))) <= 32

    def test_simulation_condition_exact(self, fig3_encoding):
        frames = four_body_simulator(fig3_encoding, 1, 5, 9, 13)
        assert simulation_condition_exact(frames, ((1, 5, 9, 13), 1), fig3_encoding)
        frames = four_body_simulator(fig3_encoding, 2, 6, 10, 14, -1)
        assert simulation_condition_exact(frames, ((2, 6, 10, 14), -1), fig3_encoding)

    def test_repeated_index_reduces_flip_set(self, fig3_encoding):
        # a'_1 a'_2 a_2 a_5 flips only modes 1 and 5
        frames = four_body_simulator(fig3_encoding, 1, 2, 2, 5)
        want = set()
        for mode in (1, 5):
            want ^= set(np.nonzero(matrix(fig3_encoding)[:, mode - 1])[0] + 1)
        assert frames[0].pauli.x_mask == qubit_mask(12, want)
        assert simulation_condition_exact(frames, ((1, 2, 2, 5), 1), fig3_encoding)

    def test_within_pair_repeat_rejected(self, fig3_encoding):
        with pytest.raises(ValueError):
            four_body_simulator(fig3_encoding, 1, 1, 2, 3)

    def test_terms_are_checked(self, fig3_encoding):
        # the one-term pass refuses what fermion.check_term refuses
        for bad in (lambda: four_body_simulator(fig3_encoding, 1, 2, 3, 4, 0),
                    lambda: two_body_simulator(fig3_encoding, 1, 2, 2),
                    lambda: observable_simulator(fig3_encoding, ((1, 2, 3), 1))):
            with pytest.raises(ValueError):
                bad()

    def test_improvement_counts_and_codespace_equality(self, fig3_encoding, raw_fig3,
                                                       fig3_graph):
        # four vertex-disjoint edges: support 8, 128 raw frames merge to 32
        chosen = []
        used = set()
        for idx, edge in enumerate(fig3_graph.edges):
            if not (set(edge) & used):
                chosen.append(idx + 1)
                used |= set(edge)
            if len(chosen) == 4:
                break
        raw = four_body_simulator(raw_fig3, *chosen)
        improved = four_body_simulator(fig3_encoding, *chosen)
        assert len(raw) == 128
        assert len(improved) == 32
        a = apply_frames_to_isometry(raw, fig3_encoding)
        b = apply_frames_to_isometry(improved, fig3_encoding)
        assert np.array_equal(a, b)

    def test_descending_index_order(self, fig3_encoding):
        # the observable menu allows either index order
        frames = two_body_simulator(fig3_encoding, 9, 2, -1)
        assert simulation_condition_exact(frames, ((9, 2), -1), fig3_encoding)
        frames4 = four_body_simulator(fig3_encoding, 14, 3, 16, 1)
        assert simulation_condition_exact(frames4, ((14, 3, 16, 1), 1), fig3_encoding)


class TestGenericCodes:
    """Random non-graph parity checks: wider columns, no bipartition."""

    @staticmethod
    def random_code(seed, q=9, m=12, n=2):
        rng = np.random.default_rng(seed)
        while True:
            a = rng.integers(0, 2, size=(q, m)).astype(np.uint8)
            if is_n_injective(a, n):
                return CodeEncoding.from_matrix(a, n), rng

    def test_two_body_exact_and_bounded(self):
        enc, rng = self.random_code(314)
        cap = 1 << (2 * enc.max_column_weight - 1)
        for _ in range(6):
            a, b = (int(v) + 1 for v in rng.choice(enc.modes, size=2, replace=False))
            choice = 1 if rng.integers(2) else -1
            frames = two_body_simulator(enc, a, b, choice)
            assert len(frames) <= cap
            assert simulation_condition_exact(frames, ((a, b), choice), enc)
            for frame in frames:
                assert np.all(np.abs(frame.materialize()) <= 1.0)

    def test_zero_columns_keep_the_one_identity_frame(self):
        # both columns are zero (w = 0): the pair hop flips no qubit, so its
        # simulator is one identity frame, within the bound
        enc = CodeEncoding((0, 0), 1, 2)
        frames = four_body_simulator(enc, 1, 2, 1, 2)
        assert [frame.pauli.label for frame in frames] == ["I"]
        assert simulation_condition_exact(frames, ((1, 2, 1, 2), 1), enc)

    def test_four_body_exact_and_bounded(self):
        enc, rng = self.random_code(2718)
        cap = 1 << (4 * enc.max_column_weight - 1)
        for _ in range(3):
            picks = [int(v) + 1 for v in rng.choice(enc.modes, size=4, replace=False)]
            choice = 1 if rng.integers(2) else -1
            frames = four_body_simulator(enc, *picks, choice)
            assert len(frames) <= cap
            assert simulation_condition_exact(frames, (tuple(picks), choice), enc)


class TestBipartiteImprove:
    def test_eight_to_two(self, fig3_encoding, raw_fig3, fig3_graph):
        # vertex-disjoint edges: support of size 4, eight frames merge to two
        edges = fig3_graph.edges
        alpha = 1
        beta = next(
            i + 1
            for i, e in enumerate(edges)
            if not (set(edges[0]) & set(e))
        )
        raw = two_body_simulator(raw_fig3, alpha, beta)
        assert len(raw) == 8
        improved = two_body_simulator(fig3_encoding, alpha, beta)
        assert len(improved) == 2
        a = apply_frames_to_isometry(raw, fig3_encoding)
        b = apply_frames_to_isometry(improved, fig3_encoding)
        assert np.array_equal(a, b)
        assert simulation_condition_exact(improved, ((alpha, beta), 1), fig3_encoding)

    def test_entries_still_bounded(self, fig3_encoding):
        for frame in two_body_simulator(fig3_encoding, 1, 3):
            assert np.all(np.abs(frame.materialize()) <= 1.0)

    def test_already_clear_patterns_unchanged(self, fig3_encoding, raw_fig3, fig3_graph):
        frames = two_body_simulator(raw_fig3, 1, 3)
        left, right = fig3_graph.left, fig3_graph.right
        flips = frames[0].pauli.x_mask  # frames act on their flipped qubits only
        support = {q for q in range(1, 13) if flips >> (12 - q) & 1}
        # the merge clears the first flipped qubit of each row class
        i = min(support & left)
        j = min(support & right)
        improved = bipartite_improve(frames, fig3_encoding)
        assert not any(f.pauli.z_mask & qubit_mask(12, (i, j)) for f in improved)
        kept = [f for f in frames if not f.pauli.z_mask & qubit_mask(12, (i, j))]
        assert {f.pauli.z_mask for f in kept} <= {f.pauli.z_mask for f in improved}

    def test_flip_mask_missing_a_row_class_stays_unmerged(self, fig3_encoding, raw_fig3,
                                                          fig3_graph):
        # two edges sharing a vertex flip two qubits of one side only
        edges = fig3_graph.edges
        beta = next(i + 1 for i, e in enumerate(edges) if i and e[0] == edges[0][0])
        raw = two_body_simulator(raw_fig3, 1, beta)
        on_graph = two_body_simulator(fig3_encoding, 1, beta)
        assert [f.pauli for f in on_graph] == [f.pauli for f in raw]
        assert bipartite_improve(raw, fig3_encoding) is raw
        with pytest.raises(ValueError, match="no bipartition"):
            bipartite_improve(raw, raw_fig3)


class TestCodespaceProjector:
    def test_trace_counts_codewords(self, fig3_encoding):
        from math import comb

        diag = observable_simulator(fig3_encoding, ((), 0))[0].materialize()
        assert diag.sum() == comb(16, 2)
        assert set(np.unique(diag)) <= {0.0, 1.0}

    def test_encoded_states_pass(self, fig3_encoding):
        proj, = observable_simulator(fig3_encoding, ((), 0))
        for st in weight_n_states(16, 2)[:20]:
            bits = encoded(fig3_encoding, st)
            assert proj.diagonal[bits] == 1.0

    def test_zero_syndrome_blocked_for_odd_weight(self):
        # odd particle number: the all-zero syndrome has even class parity
        # and cannot be a codeword
        g = cycle_chord_graph(10, 3)
        enc = CodeEncoding.from_graph(g, 3)
        proj, = observable_simulator(enc, ((), 0))
        assert proj.diagonal[0] == 0.0


class TestBuildSimulator:
    def test_zero_hamiltonian_penalty_only(self, fig3_graph):
        enc = fig3_subcode(fig3_graph)
        from fertaper.fermion import FermionHamiltonian

        h = FermionHamiltonian(6, 2, np.zeros((6, 6)))
        frames = build_simulator_hamiltonian(h, enc, penalty=1.0)
        assert len(frames) == 1
        diag = frames[0].materialize()
        iso = isometry(enc)
        dense = np.diag(diag)
        # ground space of the penalty is exactly the codespace
        assert np.allclose(dense @ iso, 0.0)
        assert diag.sum() == (1 << 12) - 15  # everything else is raised

    def test_codespace_block_matches_sector(self, fig3_graph):
        enc = fig3_subcode(fig3_graph)
        rng = np.random.default_rng(79)
        h = random_hamiltonian(6, 2, rng)
        frames = build_simulator_hamiltonian(h, enc, penalty=0.0)
        iso = isometry(enc)
        applied = apply_frames_to_isometry(frames, enc)
        block = iso.T @ applied
        assert np.allclose(block, sector_matrix(h), atol=1e-12)
        # codespace is preserved: no leakage off the image
        assert np.allclose(applied - iso @ block, 0.0, atol=1e-12)

    def test_default_penalty_keeps_ground_state_encoded(self, fig3_graph):
        import scipy.sparse.linalg as spla

        enc = fig3_subcode(fig3_graph)
        rng = np.random.default_rng(83)
        h = random_hamiltonian(6, 2, rng)
        frames = build_simulator_hamiltonian(h, enc)
        assert default_penalty_scale(h) > 0
        dim = 1 << enc.qubits
        images = {}
        for base in range(dim):
            entries = {}
            for frame in frames:
                row, val = apply_to_index(frame, base)
                if val != 0:
                    entries[row] = entries.get(row, 0.0) + val
            images[base] = entries

        def matvec(vec):
            out = np.zeros(dim, dtype=complex)
            for base in range(dim):
                amp = vec[base]
                if amp == 0:
                    continue
                for row, val in images[base].items():
                    out[row] += val * amp
            return out

        op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=complex)
        vals, vecs = spla.eigsh(op, k=1, which="SA")
        ground = vecs[:, 0]
        iso = isometry(enc)
        perp = np.linalg.norm(ground - iso @ (iso.T @ ground))
        assert perp < 1e-8
        assert vals[0] == pytest.approx(np.linalg.eigvalsh(sector_matrix(h))[0], abs=1e-8)

    def test_zero_operator_interaction_entries_add_no_frames(self):
        # a repeated creator or annihilator index makes u's product zero
        enc = CodeEncoding.from_matrix(np.eye(4, dtype=np.uint8), 2)
        for u in ({(1, 1, 1, 1): 0.5}, {(1, 1, 2, 3): 0.25, (3, 2, 1, 1): 0.25}):
            h = FermionHamiltonian(4, 2, np.zeros((4, 4)), u)
            assert list(build_simulator_hamiltonian(h, enc, penalty=0.0)) == []
            assert not sector_matrix_direct(h).any()

    def test_hermitian_pairs_validated(self, fig3_graph):
        enc = fig3_subcode(fig3_graph)
        from fertaper.fermion import FermionHamiltonian

        h = FermionHamiltonian(
            6, 2, np.zeros((6, 6)),
            {(1, 2, 3, 4): 0.25 + 0.1j, (4, 3, 2, 1): 0.25 - 0.1j},
        )
        frames = build_simulator_hamiltonian(h, enc, penalty=0.0)
        iso = isometry(enc)
        applied = apply_frames_to_isometry(frames, enc)
        assert np.allclose(iso.T @ applied, sector_matrix(h), atol=1e-12)


def _bit_count(v: int) -> int:
    return bin(v).count("1")


def oracle_frames(enc, term):
    """(z_pattern, diagonal) pairs rebuilt index by index from transition_sign.

    Per-syndrome signs, an explicit +/-1 sum for the transform, and, when
    the encoding is a graph's, the stabilizer merge written out one
    rest index at a time.  A mode named twice flips nothing.
    """
    q = enc.qubits
    flips = set()
    indices, choice = term
    for alpha in indices:
        flips ^= set(np.nonzero(matrix(enc)[:, alpha - 1])[0] + 1)
    support = sorted(int(v) for v in flips)
    rest = [v for v in range(1, q + 1) if v not in flips]
    k = len(support)

    def syndrome(r: int, u: int) -> np.ndarray:
        s = np.zeros(q, dtype=np.uint8)
        for pos, qubit in enumerate(rest):
            s[qubit - 1] = (r >> (len(rest) - 1 - pos)) & 1
        for pos, qubit in enumerate(support):
            s[qubit - 1] = (u >> (k - 1 - pos)) & 1
        return s

    def z_of(t: int) -> tuple[int, ...]:
        return tuple(support[pos] for pos in range(k) if (t >> (k - 1 - pos)) & 1)

    signs = [[transition_sign(enc, term, syndrome(r, u)) for u in range(1 << k)]
             for r in range(1 << len(rest))]
    raw = {}
    for t in range(1 << k):
        if k and _bit_count(t) % 2 != (choice == -1):
            continue
        raw[z_of(t)] = [
            sum((-1) ** _bit_count(t & u) * row[u] for u in range(1 << k)) / (1 << k)
            for row in signs
        ]
    left, right = (enc.graph.left, enc.graph.right) if enc.graph else (set(), set())
    if not (set(support) & left and set(support) & right):
        return list(raw.items())
    i, j = min(set(support) & left), min(set(support) & right)
    merged = {}
    for pattern, diag in raw.items():
        new, factor, classes = set(pattern), 1, []
        for pick, rows in ((i, left), (j, right)):
            if pick in pattern:
                classes.append(rows)
                new ^= set(support) & rows
                factor *= (-1) ** enc.particles
        out = merged.setdefault(tuple(sorted(new)), [0.0] * len(diag))
        for r, value in enumerate(diag):
            z_rest = sum(
                (r >> (len(rest) - 1 - pos)) & 1
                for rows in classes for pos, qubit in enumerate(rest) if qubit in rows
            )
            out[r] += factor * (-1) ** z_rest * value
    return sorted(merged.items())


class TestFramedDiagonal:
    @pytest.mark.parametrize("x,z,phase,length,message", [
        (0b100, 0b010, 1, 4, "flipped qubits"),
        (0b110, 0b110, 1, 2, "parity"),
        (0b110, 0b100, 0, 2, "parity"),
        (0b100, 0, 2, 4, "parity"),
        (0b100, 0, 0, 8, "diagonal length"),
    ], ids=["z-off-flips", "odd-phase-even-z", "even-phase-odd-z", "phase-minus-one",
            "long-diagonal"])
    def test_invalid_frames_rejected(self, x, z, phase, length, message):
        with pytest.raises(ValueError, match=message):
            FramedDiagonal(PauliOperator.from_masks(3, x, z, phase), np.zeros(length))

    def test_fields_are_pauli_diagonal_weight(self):
        from dataclasses import fields

        assert [f.name for f in fields(FramedDiagonal)] == ["pauli", "diagonal", "weight"]


class TestArrayDiagonals:
    """Frame diagonals built as arrays against per-syndrome oracles."""

    def hamiltonian(self):
        from fertaper.fermion import FermionHamiltonian

        t = np.zeros((16, 16), dtype=complex)
        t[0, 8], t[8, 0] = 0.5 + 0.25j, 0.5 - 0.25j
        t[3, 3] = 0.7
        u = {(1, 5, 9, 13): 0.375 - 0.125j, (13, 9, 5, 1): 0.375 + 0.125j,
             (2, 6, 6, 2): 0.625}
        return FermionHamiltonian(16, 2, t, u)

    @pytest.mark.parametrize("merged", [False, True])
    def test_frames_are_transforms_of_transition_signs(self, fig3_encoding, raw_fig3, merged):
        enc = fig3_encoding if merged else raw_fig3
        frames = build_simulator_hamiltonian(self.hamiltonian(), enc, penalty=1.5)
        blocks = [
            (0.5, ((1, 9), 1)),
            (0.25, ((1, 9), -1)),
            (0.375, ((1, 5, 9, 13), 1)),
            (-0.125, ((1, 5, 9, 13), -1)),
        ]
        # diagonal blocks first: occupation of mode 4, then the hop and
        # pair-hop frames, then the occupation product and the penalty
        occ, *rest_frames = frames
        syndromes = gf2.unpack_ints(range(1 << 12), 12)
        decoded = [enc.decode(s) for s in syndromes]
        assert occ.weight == 0.7
        assert occ.diagonal.tolist() == [0.0 if x is None else float(x.occ[3])
                                         for x in decoded]
        for weight, term in blocks:
            want = oracle_frames(enc, term)
            got, rest_frames = rest_frames[:len(want)], rest_frames[len(want):]
            for frame, (pattern, diag) in zip(got, want):
                assert frame.weight == weight
                assert frame.pauli.z_mask == qubit_mask(enc.qubits, pattern)
                assert frame.diagonal.tolist() == diag
        pair, penalty = rest_frames
        assert pair.weight == 0.625
        assert pair.diagonal.tolist() == [0.0 if x is None else float(x.occ[1] * x.occ[5])
                                          for x in decoded]
        assert penalty.weight == 1.5
        assert penalty.diagonal.tolist() == [float(x is None) for x in decoded]

    def test_preimage_marks_exactly_the_codespace(self, fig3_encoding):
        pre = preimage(fig3_encoding)
        occ = fig3_encoding.codewords()
        assert pre.dtype == np.int64 and pre.shape == (1 << 12,)
        for s in range(1 << 12):
            x = fig3_encoding.decode(gf2.unpack_ints([s], 12)[0])
            if x is None:
                assert pre[s] == -1
            else:
                assert tuple(occ[pre[s]]) == x.occ

    def test_diagonals_are_read_only(self, fig3_encoding):
        frame = two_body_simulator(fig3_encoding, 1, 9)[0]
        with pytest.raises(ValueError):
            frame.diagonal[0] = 1.0

    def test_caller_array_stays_writeable(self):
        mine = np.zeros(4)
        frame = FramedDiagonal(PauliOperator.from_masks(3, 0b100, 0), mine)
        mine[0] = 1.0
        assert frame.diagonal[0] == 0.0

    def test_dense_builders_guarded(self, fig3_encoding, monkeypatch):
        monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", "11")
        frames = two_body_simulator(fig3_encoding, 1, 9)
        for build in (lambda: to_dense(frames[0]),
                      lambda: apply_frames_to_isometry(frames, fig3_encoding),
                      lambda: isometry(fig3_encoding)):
            with pytest.raises(ValueError, match="exceeds the cap"):
                build()


class TestDecoderSelection:
    def test_mitm_path_when_table_too_large(self, fig3_encoding):
        # the meet-in-the-middle decoder, which decode --check uses, agrees
        # with a matrix code's search of its codeword list on every syndrome
        enc = CodeEncoding.from_matrix(matrix(fig3_encoding), 2)
        tables = build_tables(enc.columns, enc.qubits, 2)
        assert tables.sizes == (16, 16)
        pre, occ = preimage(enc), enc.codewords()
        hits = 0
        for s in range(1 << 12):
            bits = gf2.unpack_ints([s], 12)[0]
            want = mitm_decode(tables, bits)
            if want is None:
                assert enc.decode(bits) is None and pre[s] == -1
            else:
                hits += 1
                assert enc.decode(bits).occ == tuple(occ[pre[s]]) == tuple(int(b) for b in want)
        assert hits == 120

    def test_graph_codes_decode_by_matching(self, monkeypatch):
        import fertaper.codeword as cw

        def no_list(*args):
            raise AssertionError("a graph code listed its codewords to decode")

        g = greedy_high_girth(48, 4, trials=3, seed=6)
        enc = CodeEncoding.from_graph(g, 4)
        tables = build_tables(enc.columns, enc.qubits, 4)  # the oracle
        monkeypatch.setattr(cw.CodeEncoding, "_codespace", property(no_list))
        rng = np.random.default_rng(6)
        for k in range(120):
            if k % 2:
                s = rng.integers(0, 2, size=48).astype(np.uint8)
            else:
                x = np.zeros(enc.modes, dtype=np.uint8)
                x[rng.choice(enc.modes, size=4, replace=False)] = 1
                s = syndrome(matrix(enc), x)
            got = enc.decode(s)
            want = mitm_decode(tables, s)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.occ == tuple(int(b) for b in want)
            if not k % 2:
                assert got.occ == tuple(int(b) for b in x)

    def test_graph_must_match_the_matrix(self, fig3_graph):
        columns = fig3_graph.edge_masks()[::-1]
        with pytest.raises(ValueError, match="incidence matrix"):
            CodeEncoding(columns, 12, 2, fig3_graph)


class TestPcmFile:
    def test_round_trip(self, tmp_path, fig3_graph):
        a = fig3_graph.incidence_matrix()
        path = tmp_path / "code.pcm"
        path.write_text("%d %d\n" % a.shape + "".join("".join(map(str, row)) + "\n" for row in a))
        assert np.array_equal(load_pcm(str(path)), a)

    def test_spaced_digits(self, tmp_path):
        path = tmp_path / "code.pcm"
        path.write_text("2 3\n1 0 1\n0 1 1\n")
        assert load_pcm(str(path)).tolist() == [[1, 0, 1], [0, 1, 1]]

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.pcm"
        path.write_text("2 3\n101\n")
        with pytest.raises((ValueError, IndexError)):
            load_pcm(str(path))

    @pytest.mark.parametrize("text,where", [
        ("2 3\n101\n012\n", "row 2, column 3 is '2'"),
        ("2 3\n1 0 1\n0 x 1\n", "row 2, column 2 is 'x'"),
        ("2 3\n101\n011\n110\n", "has 3 rows; its header says 2"),
        ("2 3\n101\n0110\n", "row 2 has 4 entries; its header says 3"),
        ("2\n101\n011\n", "header '2' is not \"Q M\""),
        ("2 x\n101\n011\n", "header '2 x' is not \"Q M\""),
        ("2 3\n1\t0\t1\n011\n", r"row 1, column 2 is '\\t'; entries must be 0 or 1"),
        ("2 2\n00 1\n01\n", "row 1, column 1 is '00'; entries must be 0 or 1"),
        ("3 3\n101\n011\n10\n", "row 3 has 2 entries; its header says 3"),
    ], ids=["digit-2", "letter", "extra-row", "long-row", "short-header", "bad-header",
            "tab-separated", "spaced-two-digits", "short-row-after-good-rows"])
    def test_bad_body_names_the_position(self, tmp_path, text, where):
        path = tmp_path / "bad.pcm"
        path.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_pcm(str(path))

    @pytest.mark.parametrize("text", ["", "# comment only\n", "2 3\n"],
                             ids=["empty", "comment-only", "header-only"])
    def test_empty_or_header_only(self, tmp_path, text):
        path = tmp_path / "bad.pcm"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_pcm(str(path))


def sampled_sparsity_checks(h, enc, graph=None, penalty=None, seed=0):
    """Seeded r2/r4 sparsity, decoder cross-check and dense codespace checks.

    Four random hops and four random pair hops give the largest sparsity
    seen; each must meet the column-weight bound (two lower on a graph's
    code).  With a graph, 64 random syndromes decode the same by
    graph_decode and brute force.  The frames of the whole Hamiltonian keep
    the codespace and equal the direct N-particle sector matrix on it.
    Returns (r2, r4).
    """
    rng = np.random.default_rng(seed)
    r2 = max(len(two_body_simulator(enc, *(int(v) for v in rng.choice(
        enc.modes, size=2, replace=False) + 1))) for _ in range(4))
    r4 = max(len(four_body_simulator(enc, *(int(v) for v in rng.choice(
        enc.modes, size=4, replace=False) + 1))) for _ in range(4))
    weight = enc.max_column_weight
    drop = 3 if enc.graph else 1
    assert r2 <= 1 << max(2 * weight - drop, 0)
    assert r4 <= 1 << max(4 * weight - drop, 0)
    if graph is not None:
        for _ in range(64):
            syndrome = rng.integers(0, 2, size=enc.qubits).astype(np.uint8)
            via_graph = graph_decode(graph, syndrome, enc.particles)
            via_brute = brute_force_decode(matrix(enc), enc.particles, syndrome)
            assert (via_graph is None) == (via_brute is None)
            assert via_graph is None or np.array_equal(via_graph, via_brute)
    frames = build_simulator_hamiltonian(h, enc, penalty)
    iso = isometry(enc)
    app = apply_frames_to_isometry(frames, enc)
    assert np.abs(app - iso @ (iso.T @ app)).max() < 1e-9
    assert np.allclose(iso.T @ app, sector_matrix_direct(h), atol=1e-9)
    return r2, r4


class TestSampledSparsity:
    def test_graph_code(self, tmp_path):
        import warnings

        path = tmp_path / "g.graph"
        save_graph(cycle_chord_graph(8, 2), str(path))
        graph = load_graph(str(path))
        t = np.zeros((16, 16), dtype=complex)
        for a, b, v in ((1, 1, -0.4), (2, 2, 0.3), (1, 5, 0.2), (3, 9, -0.15)):
            t[a - 1, b - 1] = v
            t[b - 1, a - 1] = np.conj(v)
        u = {(1, 2, 2, 1): 0.3 + 0j, (2, 1, 6, 11): 0.1 + 0.05j,
             (11, 6, 1, 2): 0.1 - 0.05j}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h = FermionHamiltonian(16, 2, t, u)
        enc = CodeEncoding.from_graph(graph, h.particles)
        r2, r4 = sampled_sparsity_checks(h, enc, graph, penalty=3.0)
        assert r2 <= 2
        assert r4 <= 32

    def test_pcm_code_without_bipartition(self, tmp_path):
        path = tmp_path / "a.pcm"
        sub = cycle_chord_graph(8, 2).incidence_matrix()[:, :6]
        np.savetxt(path, sub, fmt="%d", header="%d %d" % sub.shape, comments="")
        h = random_hamiltonian(6, 2, np.random.default_rng(5))
        enc = CodeEncoding.from_matrix(load_pcm(str(path)), h.particles)
        r2, r4 = sampled_sparsity_checks(h, enc)
        # no row classes in the file, so only the generic bounds apply
        assert r2 <= 8
        assert r4 <= 128


def varied_hamiltonian(m: int, n: int, seed: int) -> FermionHamiltonian:
    """A dense random Hamiltonian plus self-adjoint (a, b, b, a) entries and
    the coincident pair hops (a, b, a, b) and (a, b, b, d), each with its
    conjugate partner."""
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(m, n, rng, interaction_pairs=6)
    u = u_dict(h.u)
    for _ in range(4):
        a, b, *d = (int(v) + 1 for v in rng.choice(m, size=min(m, 3), replace=False))  # no d if m = 2
        value = complex(rng.normal(), rng.normal()) / 4
        u[(a, b, b, a)] = complex(value.real, 0.0)
        for key in [(a, b, a, b)] + [(a, b, b, x) for x in d]:
            u[key] = value
            u[(key[3], key[2], key[1], key[0])] = value.conjugate()
    return FermionHamiltonian(m, n, h.t, u)


class TestOnePassFrames:
    """build_simulator_hamiltonian against reference_hamiltonian, frame by
    frame and bit for bit, on graph codes, a code without its bipartition
    and codes with zero columns."""

    @pytest.fixture(params=["fig3", "greedy-8", "greedy-10", "check-10", "zero-column",
                            "zero-columns"])
    def encoding(self, request, fig3_graph):
        greedy = {8: greedy_high_girth(8, 2, trials=50, seed=3),
                  10: greedy_high_girth(10, 2, trials=50, seed=4)}
        build = {
            "fig3": lambda: CodeEncoding.from_graph(fig3_graph, 2),
            "greedy-8": lambda: CodeEncoding.from_graph(greedy[8], 2),
            "greedy-10": lambda: CodeEncoding.from_graph(greedy[10], 2),
            "check-10": lambda: CodeEncoding.from_matrix(greedy[10].incidence_matrix(), 2),
            "zero-column": lambda: CodeEncoding.from_matrix(
                np.hstack([np.zeros((6, 1), dtype=np.uint8), np.eye(6, dtype=np.uint8)]), 2),
            "zero-columns": lambda: CodeEncoding((0, 0), 1, 2),
        }
        return build[request.param]()

    @pytest.mark.parametrize("seed", [11, 12])
    def test_frames_equal_the_per_observable_reference(self, encoding, seed):
        enc = encoding
        for h, penalty in ((random_hamiltonian(enc.modes, 2, np.random.default_rng(seed),
                                               interaction_pairs=8), None),
                           (varied_hamiltonian(enc.modes, 2, seed), 1.5)):
            table = build_simulator_hamiltonian(h, enc, penalty)
            got = list(table)
            want = reference_hamiltonian(h, enc, default_penalty_scale(h)
                                         if penalty is None else penalty)
            assert len(table) == len(got) == len(want)
            for mine, theirs in zip(got, want):
                assert (mine.pauli.x_mask, mine.pauli.z_mask, mine.pauli.phase_power) == \
                    (theirs.pauli.x_mask, theirs.pauli.z_mask, theirs.pauli.phase_power)
                assert np.float64(mine.weight).tobytes() == np.float64(theirs.weight).tobytes()
                assert mine.diagonal.tobytes() == theirs.diagonal.tobytes()
            # every diagonal, the penalty's too, is a read-only view of one buffer
            assert all(frame.diagonal.base is table.buffer is not None for frame in got)
            assert not any(frame.diagonal.flags.writeable for frame in got)
            assert not table.buffer.flags.writeable

    def test_each_observable_alone_equals_the_reference(self, fig3_encoding, raw_fig3):
        for enc in (fig3_encoding, raw_fig3):
            for term in (((1, 9), -1), ((1, 5, 9, 13), 1), ((2, 6, 6, 11), -1),
                         ((3, 7, 3, 7), 1), ((4, 4), 0), ((2, 6, 6, 2), 0), ((), 0)):
                got = observable_simulator(enc, term)
                want = reference_simulator(enc, term)
                assert [f.pauli.z_mask for f in got] == [f.pauli.z_mask for f in want]
                assert [f.diagonal.tobytes() for f in got] == [f.diagonal.tobytes() for f in want]

    def test_self_adjoint_terms_meet_the_simulation_condition(self, fig3_graph):
        # choice 0 against the Fock-space action of the product alone
        enc = fig3_subcode(fig3_graph)
        for term in (((2, 2), 0), ((1, 4, 4, 1), 0), ((3, 3, 3, 3), 0), ((), 0)):
            assert simulation_condition_exact(observable_simulator(enc, term), term, enc), term


class TestOddParticleNumber:
    """On a graph code each row-class stabilizer is (-1)^N on the codespace;
    with N odd the merged frames must still give the sector matrix."""

    @pytest.mark.parametrize("q, n, seed", [(8, 1, 5), (10, 1, 6), (12, 3, 7)])
    def test_codespace_block_is_the_sector_matrix(self, q, n, seed):
        g = greedy_high_girth(q, n, trials=30, seed=seed)
        enc = CodeEncoding.from_graph(g, n)
        h = random_hamiltonian(enc.modes, n, np.random.default_rng(seed), interaction_pairs=4)
        frames = build_simulator_hamiltonian(h, enc, penalty=0.0)
        assert any(f.pauli.x_mask & enc.class_masks[0] and f.pauli.x_mask & enc.class_masks[1]
                   for f in frames)  # some frames merged
        iso = isometry(enc)
        applied = apply_frames_to_isometry(frames, enc)
        assert np.abs(applied - iso @ (iso.T @ applied)).max() < 1e-9
        assert np.allclose(iso.T @ applied, sector_matrix_direct(h), atol=1e-9)


def _arrays(value, seen):
    """Every numpy array reachable from value through containers and instance
    attributes."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item, seen)
    elif hasattr(value, "__dict__") and not isinstance(value, type):
        yield from _arrays(vars(value), seen)


def test_a_graph_code_keeps_no_array_of_2_to_the_q_entries(fig3_encoding):
    enc = fig3_encoding
    frames = build_simulator_hamiltonian(random_hamiltonian(16, 2, np.random.default_rng(4)), enc)
    assert frames.buffer is not None  # the diagonals were built
    arrays = list(_arrays(enc, set()))
    assert any(a is enc._codespace[1] for a in arrays)  # the walk reaches the cached arrays
    assert max(a.size for a in arrays) < 1 << enc.qubits


def test_a_graph_code_builds_no_decode_table(fig3_encoding):
    enc = fig3_encoding
    for s in range(0, 1 << 12, 7):
        enc.decode(gf2.unpack_ints([s], 12)[0])
    assert "_codespace" not in vars(enc)  # it decodes by matching on the graph


def test_codewords_are_in_decode_table_order(fig3_graph):
    # a code without its graph lists its codewords by ascending syndrome,
    # the order in which it searches them to decode
    enc = CodeEncoding.from_matrix(fig3_graph.incidence_matrix(), 2)
    want = syndrome_map(matrix(enc), 2)
    assert enc.syndromes().tolist() == sorted(want)
    assert [bits_int(w) for w in enc.codewords()] == [want[s] for s in sorted(want)]


def test_the_codeword_list_is_bounded_by_the_entry_budget(fig3_graph, monkeypatch):
    monkeypatch.setattr(limits, "TABLE_ENTRY_BUDGET", 119)  # C(16, 2) = 120 codewords
    enc = CodeEncoding.from_graph(fig3_graph, 2)  # certified by its girth, no list yet
    with pytest.raises(MemoryError, match="needs 120 entries"):
        enc.codewords()
    with pytest.raises(MemoryError):
        CodeEncoding.from_matrix(fig3_graph.incidence_matrix(), 2)


def test_pass_memory_stays_within_its_chunk_bound(fig3_encoding):
    # about 1,300 frames over 120 codewords, some 38 times 2^Q frame-codeword
    # pairs, yet the build's peak above what it returns (the frames and their
    # diagonals) stays within 8 * 2^Q * 8 bytes, twice the pass's per-array
    # bound (codeword._PASS_ENTRIES = 4); one unchunked pass takes about 96
    enc = fig3_encoding
    h = random_hamiltonian(16, 2, np.random.default_rng(3), interaction_pairs=40)
    build_simulator_hamiltonian(h, enc)  # the decode table and codewords are cached
    tracemalloc.start()
    try:
        frames = build_simulator_hamiltonian(h, enc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(frames) * len(enc.codewords()) > 32 << enc.qubits
    assert peak - kept < 8 * (8 << enc.qubits)



def _greedy_code(q: int, graph: bool) -> CodeEncoding:
    """A greedy N=2 code on q qubits, with its graph or as a bare --check matrix."""
    g = greedy_high_girth(q, 2, 50, 1)
    return CodeEncoding.from_graph(g, 2) if graph else CodeEncoding.from_matrix(g.incidence_matrix(), 2)


@pytest.mark.parametrize("graph", [True, False], ids=["graph", "check"])
@pytest.mark.parametrize("q", [8, 10])
def test_chunking_changes_no_bit(q, graph, monkeypatch):
    # a budget of 2^Q entries cuts the pass into many chunks of a few terms,
    # and their frames into many pieces: the table is the one-chunk pass's
    import fertaper.codeword as cw
    enc = _greedy_code(q, graph)
    h = random_hamiltonian(enc.modes, 2, np.random.default_rng(q), interaction_pairs=4)
    want = build_simulator_hamiltonian(h, enc)
    chunks = []
    signs = cw._codeword_signs
    monkeypatch.setattr(cw, "_codeword_signs", lambda words, terms: chunks.append(terms) or signs(words, terms))
    monkeypatch.setattr(cw, "_PASS_ENTRIES", 1)
    monkeypatch.setattr(cw, "_PASS_FLOOR", 0)
    got = build_simulator_hamiltonian(h, enc)
    assert len(chunks) > 4 and want.offsets[-1] > 4 << q
    for column in ("x_masks", "z_masks", "weights", "offsets"):
        assert np.array_equal(getattr(got, column), getattr(want, column))
    assert got.buffer.tobytes() == want.buffer.tobytes()


def test_a_small_code_is_framed_in_one_chunk(monkeypatch):
    # at Q=8 the budget's floor holds every term's values at once
    import fertaper.codeword as cw
    enc = _greedy_code(8, True)
    h = random_hamiltonian(enc.modes, 2, np.random.default_rng(8), interaction_pairs=4)
    chunks = []
    signs = cw._codeword_signs
    monkeypatch.setattr(cw, "_codeword_signs", lambda words, terms: chunks.append(terms) or signs(words, terms))
    frames = build_simulator_hamiltonian(h, enc)
    assert len(chunks) == 1 and len(frames) > 20


def test_pass_memory_stays_within_its_floor():
    # a Q=8 build's peak above what it returns stays within twice the
    # pass's per-array bound at the floor, 2 * 2^14 * 8 bytes
    enc = _greedy_code(8, True)
    h = random_hamiltonian(enc.modes, 2, np.random.default_rng(3), interaction_pairs=4)
    build_simulator_hamiltonian(h, enc)  # the codewords and the rest-index table are cached
    tracemalloc.start()
    try:
        frames = build_simulator_hamiltonian(h, enc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(frames) > 20
    assert peak - kept < 2 * (1 << 14) * 8

def test_a_table_past_the_entry_budget_has_no_buffer(fig3_encoding):
    # greedy Q=20, N=3: its diagonals would hold 130,023,424 entries, about
    # 1 GiB of float64, counted from the frames before anything is allocated
    enc = CodeEncoding.from_graph(greedy_high_girth(20, 3, 50, 1), 3)
    h = random_hamiltonian(enc.modes, 3, np.random.default_rng(2), interaction_pairs=6)
    tracemalloc.start()
    try:
        frames = build_simulator_hamiltonian(h, enc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frames.buffer is None and frames.offsets is None
    entries = sum(1 << (enc.qubits - x.bit_count()) for x in gf2.word_ints(frames.x_masks))
    assert entries == 130_023_424 > limits.TABLE_ENTRY_BUDGET
    assert peak < 64 << 20
    with pytest.raises(ValueError, match=f"entry budget of {limits.TABLE_ENTRY_BUDGET}"):
        frames[0].materialize()
    # Fig-3's 280,576 entries fit: its table keeps its buffer
    fig3 = build_simulator_hamiltonian(random_hamiltonian(16, 2, np.random.default_rng(5)),
                                       fig3_encoding)
    assert fig3.buffer is not None and fig3.buffer.size == fig3.offsets[-1]


@pytest.mark.parametrize("q", [63, 64])
def test_no_buffer_past_63_qubits(q):
    # no terms and no penalty hold no entries, but past 63 qubits basis
    # indices do not fit the pass's int64 arrays
    enc = CodeEncoding.from_matrix(np.eye(q, dtype=np.uint8), 1)
    frames = build_simulator_hamiltonian(FermionHamiltonian(q, 1, np.zeros((q, q))), enc, 0.0)
    assert len(frames) == 0
    if q == 63:
        assert frames.buffer.size == 0 and frames.offsets.tolist() == [0]
    else:
        assert frames.buffer is None and frames.offsets is None
