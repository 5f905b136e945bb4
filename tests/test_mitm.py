import itertools
from functools import reduce
from math import comb
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper import gf2, limits
from fertaper.codeword import CodeEncoding
from fertaper.mitm import (
    InjectivityViolation,
    brute_force_decode,
    build_tables,
    combinations,
    mitm_decode,
)
from tests.conftest import packed, syndrome, syndrome_map


def random_injective_matrix(rng, q, m, n):
    """Rejection-sample a weight-n injective matrix."""
    from fertaper.codeword import is_n_injective

    while True:
        a = rng.integers(0, 2, size=(q, m)).astype(np.uint8)
        if is_n_injective(a, n):
            return a


class TestBuildTables:
    def test_zero_qubits_keep_one_key_word(self):
        tables = build_tables((0,), 0, 1)
        assert tables.keys[0].itemsize == tables.keys[1].itemsize == 8
        assert mitm_decode(tables, []).tolist() == [1]

    def test_odd_split(self):
        a = np.eye(5, dtype=np.uint8)
        tables = build_tables(*packed(a), 3)
        assert tables.sizes == (10, 5)  # weights 2 and 1

    def test_single_particle_tables_are_columns(self):
        a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        tables = build_tables(*packed(a), 1)
        assert tables.sizes == (3, 1)  # weights 1 and 0
        # keys are sorted big-endian words; combos give each key's columns
        keys = tables.keys[0].view(">u8").tolist()
        assert keys == sorted(gf2.bits_to_int(a[:, c]) for c in range(3))
        assert [gf2.bits_to_int(a[:, c]) for c in tables.combos[0][:, 0]] == keys
        # the empty half: one zero syndrome with an empty preimage
        assert tables.keys[1].view(">u8").tolist() == [0]
        assert tables.combos[1].shape == (1, 0)

    def test_identity_sizes(self):
        tables = build_tables(*packed(np.eye(4)), 2)
        assert tables.sizes == (4, 4)

    def test_figure_graph_sizes(self, fig3_graph):
        tables = build_tables(*packed(fig3_graph.incidence_matrix()), 2)
        assert tables.sizes == (16, 16)

    def test_duplicate_syndrome_rejected(self):
        # equal columns 1, 2: the tables keep both, and only their shared
        # syndrome is refused, when it is decoded
        a = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        tables = build_tables(*packed(a), 1)
        assert tables.sizes == (3, 1)
        with pytest.raises(InjectivityViolation) as err:
            mitm_decode(tables, [1, 0])
        assert err.value.witness is not None
        assert mitm_decode(tables, [0, 1]).tolist() == [0, 0, 1]

    def test_duplicate_witness_names_both_mode_sets(self):
        a = np.array([[1, 0, 1, 0], [0, 1, 0, 0]], dtype=np.uint8)  # columns 1, 3 equal
        # a matrix code's sorted codeword list refuses the matrix; the tables
        # refuse the syndrome the two columns share, with the same witness
        with pytest.raises(InjectivityViolation, match="share syndrome 10") as err:
            CodeEncoding.from_matrix(a, 1)
        assert err.value.witness == ((1,), (3,))
        with pytest.raises(InjectivityViolation, match="more than one weight-N") as err:
            mitm_decode(build_tables(*packed(a), 1), [1, 0])
        assert err.value.witness == ((1,), (3,))

    def test_full_table_has_every_weight_n_vector(self, fig3_graph):
        # the full table is a matrix code's codeword list
        a = fig3_graph.incidence_matrix()
        enc = CodeEncoding.from_matrix(a, 2)
        want = syndrome_map(a, 2)
        keys = enc.syndromes().tolist()
        assert keys == sorted(want)
        for key, word in zip(keys, enc.codewords()):
            assert want[key] == gf2.bits_to_int(word)

    def test_entry_budget(self, monkeypatch):
        monkeypatch.setattr(limits, "TABLE_ENTRY_BUDGET", 100)
        with pytest.raises(MemoryError):
            build_tables(*packed(np.eye(24)), 12)


class TestDecode:
    def test_round_trip(self, fig3_graph):
        a = fig3_graph.incidence_matrix()
        tables = build_tables(*packed(a), 2)
        x = np.zeros(16, dtype=np.uint8)
        x[[2, 9]] = 1
        s = syndrome(a, x)
        assert np.array_equal(mitm_decode(tables, s), x)

    def test_no_preimage(self):
        tables = build_tables(*packed(np.eye(4)), 2)
        assert mitm_decode(tables, [1, 0, 0, 0]) is None

    def test_syndrome_length_guard(self):
        tables = build_tables(*packed(np.eye(4)), 2)
        with pytest.raises(ValueError):
            mitm_decode(tables, [1, 0, 0])
        with pytest.raises(ValueError):
            brute_force_decode(np.eye(4, dtype=np.uint8), 2, [1, 0, 0])

    def test_brute_force_weight_zero(self):
        a = np.eye(3, dtype=np.uint8)
        assert brute_force_decode(a, 0, [0, 0, 0]).tolist() == [0, 0, 0]
        assert brute_force_decode(a, 0, [1, 0, 0]) is None

    def test_brute_force_reports_collision(self):
        a = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        with pytest.raises(InjectivityViolation):
            brute_force_decode(a, 1, [1, 0])

    def test_brute_force_mode_cap(self):
        with pytest.raises(ValueError):
            brute_force_decode(np.eye(25, dtype=np.uint8), 2, np.zeros(25))

    def test_all_syndromes_match_brute_force(self, fig3_graph):
        a = fig3_graph.incidence_matrix()
        tables = build_tables(*packed(a), 2)
        reference = syndrome_map(a, 2)
        for syn in range(1 << 12):
            bits = gf2.unpack_ints([syn], 12)[0]
            got = mitm_decode(tables, bits)
            want = reference.get(syn)
            if want is None:
                assert got is None
            else:
                assert got is not None and gf2.bits_to_int(got) == want

    @pytest.mark.parametrize("m,n", [(10, 2), (14, 3), (20, 2)])
    def test_random_codes_sampled_syndromes(self, m, n):
        rng = np.random.default_rng(100 + m)
        q = m - 3
        a = random_injective_matrix(rng, q, m, n)
        tables = build_tables(*packed(a), n)
        for _ in range(300):
            s = rng.integers(0, 2, size=q).astype(np.uint8)
            got = mitm_decode(tables, s)
            want = brute_force_decode(a, n, s)
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)
        # achievable syndromes always round-trip
        for _ in range(50):
            cols = rng.choice(m, size=n, replace=False)
            x = np.zeros(m, dtype=np.uint8)
            x[cols] = 1
            assert np.array_equal(mitm_decode(tables, syndrome(a, x)), x)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_syndrome_matches_brute_force_with_repeated_and_zero_columns(self, data):
        # half tables with equal keys: each syndrome is answered as the brute
        # force answers it, a refusal only where it has two weight-N preimages
        q, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
        column = st.integers(0, (1 << q) - 1)
        pool = data.draw(st.lists(column, min_size=1, max_size=3)) + [0]
        columns = data.draw(st.lists(st.sampled_from(pool) | column, min_size=m, max_size=m))
        n = data.draw(st.integers(0, m))
        a = gf2.unpack_ints(columns, q).T
        tables = build_tables(columns, q, n)
        for s in gf2.unpack_ints(range(1 << q), q):
            answers = []
            for decode in (lambda: brute_force_decode(a, n, s), lambda: mitm_decode(tables, s)):
                try:
                    hit = decode()
                    answers.append(None if hit is None else hit.tolist())
                except InjectivityViolation as err:
                    assert err.witness[0] != err.witness[1]
                    for modes in err.witness:
                        assert len(modes) == n
                        syndrome = reduce(xor, (columns[j - 1] for j in modes), 0)
                        assert syndrome == gf2.bits_to_int(s)
                    answers.append("refused")
            assert answers[0] == answers[1]

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_more_particles_than_modes_has_no_preimage(self, n):
        # halves (2, 1) both hold keys; (3, 2) has no first-half key and
        # (3, 3) no second-half key
        tables = build_tables(*packed(np.eye(2)), n)
        assert mitm_decode(tables, [1, 1]) is None

    def test_zero_particles(self):
        tables = build_tables(*packed(np.eye(2)), 0)
        assert mitm_decode(tables, [0, 0]).tolist() == [0, 0]
        assert mitm_decode(tables, [1, 0]) is None

    def test_two_preimages_raise(self):
        # columns 1+2 and 3+4 share a syndrome; each weight-1 half is distinct
        a = np.array([[1, 0, 0, 1, 0], [0, 1, 0, 1, 0], [0, 0, 1, 1, 0],
                      [0, 0, 0, 0, 1]], dtype=np.uint8)
        s = syndrome(a, np.array([1, 1, 0, 0, 0]))
        with pytest.raises(InjectivityViolation):
            brute_force_decode(a, 2, s)
        with pytest.raises(InjectivityViolation) as err:
            mitm_decode(build_tables(*packed(a), 2), s)
        assert set(err.value.witness) == {(1, 2), (3, 4)}


class TestCombinations:
    @pytest.mark.parametrize("m", range(7))
    def test_lexicographic_like_itertools(self, m):
        for k in range(m + 2):
            want = [list(c) for c in itertools.combinations(range(m), k)]
            assert combinations(m, k).tolist() == want

    def test_index_dtype_fits_the_modes(self):
        assert combinations(255, 1).dtype == np.uint8
        assert combinations(300, 1).max() == 299


class TestWideSyndromes:
    """Non-graph codes whose syndromes span one, two or three key words."""

    @pytest.mark.parametrize("q,m,n", [(63, 20, 3), (64, 18, 4), (65, 20, 3), (130, 16, 4),
                                       (30, 24, 3)])
    def test_default_and_full_split_match_brute_force(self, q, m, n):
        # the full list is CodeEncoding's: every codeword, by ascending syndrome
        rng = np.random.default_rng(q)
        a = rng.integers(0, 2, size=(q, m)).astype(np.uint8)
        tables = build_tables(*packed(a), n)
        enc = CodeEncoding.from_matrix(a, n)
        assert tables.keys[0].dtype.itemsize == 8 * ((q + 63) // 64)

        def numbers(keys):
            # read row by row: a numpy bytes scalar drops a key's trailing NUL bytes
            return [int.from_bytes(row.tobytes(), "big")
                    for row in keys.view(np.uint8).reshape(len(keys), -1)]

        # keys read as big-endian numbers are the sorted syndromes of their combos
        cols, half = packed(a)[0], numbers(tables.keys[0])
        assert half == sorted(half)
        assert half == [reduce(xor, (cols[c] for c in combo), 0) for combo in tables.combos[0]]
        # the codeword list is the weight-N table, held in fixed-width arrays at any Q
        assert not any(array.dtype == object for array in enc._codespace)
        words, listed = enc.codewords(), numbers(enc._codespace[1])
        if q <= 64:
            assert enc.syndromes().tolist() == listed
        else:  # a syndrome past one word is not a uint64
            with pytest.raises(ValueError):
                enc.syndromes()
        assert words.shape == (comb(m, n), m) and (words.sum(axis=1) == n).all()
        assert listed == sorted(listed)
        assert listed == [reduce(xor, (cols[c] for c in np.flatnonzero(w)), 0) for w in words]
        for k in range(40):
            if k % 2:
                s = rng.integers(0, 2, size=q).astype(np.uint8)
                # a syndrome one bit away from a codeword, in the top or bottom word
                x = np.zeros(m, dtype=np.uint8)
                x[rng.choice(m, size=n, replace=False)] = 1
                near = syndrome(a, x)
                near[0 if k % 4 == 1 else q - 1] ^= 1
                syndromes = (s, near)
            else:
                x = np.zeros(m, dtype=np.uint8)
                x[rng.choice(m, size=n, replace=False)] = 1
                syndromes = (syndrome(a, x),)
            for s in syndromes:
                want = brute_force_decode(a, n, s)
                got = mitm_decode(tables, s)
                assert (got is None) == (want is None)
                assert want is None or np.array_equal(got, want)
                hit = enc.decode(s)
                assert (hit is None) == (want is None)
                assert want is None or hit.occ == tuple(want)
            if not k % 2:
                assert np.array_equal(want, x)
