import functools
import itertools
import operator
from unittest import mock

import numpy as np
import pytest

from fertaper import gf2
from fertaper.fermion import (
    FermionHamiltonian,
    FockState,
    apply_annihilate,
    apply_create,
    dense_fock_matrix,
    random_hamiltonian,
    weight_n_states,
)
from fertaper.pauli import PauliOperator, QubitHamiltonian, qubit_mask
from fertaper.pauli import pauli_multiply as pauli_mul
from fertaper.standard_maps import (
    ENCODING_KINDS,
    _ladder_masks,
    build_encoding,
    encode_hamiltonian,
    ladder_products,
    mode_op_to_pauli,
)

BINARY_TREE_4 = [
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [0, 0, 1, 0],
    [1, 1, 1, 1],
]

PARITY_4 = [
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [1, 1, 1, 0],
    [1, 1, 1, 1],
]


def fock_ladder_matrix(m: int, j: int, dagger: bool) -> np.ndarray:
    dim = 1 << m
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        x = FockState.from_index(m, col)
        hit = apply_create(x, j) if dagger else apply_annihilate(x, j)
        if hit is not None:
            sign, y = hit
            mat[y.index, col] = sign
    return mat


class TestMatrices:
    def test_binary_tree_4(self):
        assert build_encoding("binary_tree", 4).matrix.tolist() == BINARY_TREE_4

    def test_parity_4(self):
        assert build_encoding("parity", 4).matrix.tolist() == PARITY_4

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_jordan_wigner_identity(self, m):
        assert np.array_equal(build_encoding("jordan_wigner", m).matrix, np.eye(m))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 8])
    def test_truncated_tree_invertible(self, m):
        enc = build_encoding("binary_tree", m)
        # entry (i, c) of A^-1 A is the parity of inverse row i on column c
        product = [[(row & col).bit_count() & 1 for col in enc.column_masks]
                   for row in enc.inverse_rows]
        assert product == np.eye(m, dtype=int).tolist()

    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    def test_encodings_compare_and_hash_by_value(self, kind):
        enc = build_encoding(kind, 4)
        assert enc == build_encoding(kind, 4)
        assert hash(enc) == hash(build_encoding(kind, 4))
        assert enc != build_encoding(kind, 5)
        assert all(isinstance(v, int) for v in enc.column_masks + enc.inverse_rows)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_encoding("fenwick", 4)

    def test_matvec_reads_tree_column(self):
        enc = build_encoding("binary_tree", 4)
        assert enc.column_masks[1] == 0b0101
        assert (enc.matrix @ [0, 1, 0, 0]).tolist() == [0, 1, 0, 1]

    def test_permutation_matrix_guarded(self, monkeypatch):
        enc = build_encoding("parity", 4)
        monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", "3")
        with pytest.raises(ValueError, match="exceeds the cap"):
            enc.permutation_matrix()
        monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", "4")
        assert enc.permutation_matrix().shape == (16, 16)


def recursive_tree_sets(m: int):
    """Independent route: the doubling recursions for the tree sets.

    Sets for the half-size system are computed 0-based and shifted into
    place: the first half additionally updates the root M and the second
    half's parity gains the left root M/2.  Base case: a single mode has
    empty sets.
    """

    def build(size: int):
        if size == 1:
            return {0: (set(), set(), set())}
        half = build(size // 2)
        out = {}
        for j in range(size // 2):
            u, p, f = half[j]
            out[j] = (u | {size - 1}, set(p), set(f))
        for j in range(size // 2, size):
            u, p, f = half[j - size // 2]
            shift = size // 2
            out[j] = (
                {v + shift for v in u},
                {v + shift for v in p} | {size // 2 - 1},
                {v + shift for v in f} | ({size // 2 - 1} if j == size - 1 else set()),
            )
        return out

    zero_based = build(m)
    return {
        j + 1: (
            frozenset(v + 1 for v in zero_based[j][0]),
            frozenset(v + 1 for v in zero_based[j][1]),
            frozenset(v + 1 for v in zero_based[j][2]),
        )
        for j in range(m)
    }


class TestUpdateParityFlip:
    """The update, parity and flip sets of a mode, read off its ladder masks.

    _ladder_masks(enc, j) is (column j of A, the parity Z mask of modes
    1..j-1, row j of A^-1): the column is the update set plus qubit j, and
    the row the flip set plus qubit j.
    """

    def test_two_modes(self):
        enc = build_encoding("binary_tree", 2)
        assert _ladder_masks(enc, 1) == (qubit_mask(2, {1, 2}), 0, qubit_mask(2, {1}))
        assert _ladder_masks(enc, 2) == (qubit_mask(2, {2}), qubit_mask(2, {1}),
                                         qubit_mask(2, {1, 2}))

    def test_four_modes_classic_table(self):
        # the well-known update/parity/flip table for four modes
        want = {
            1: ({2, 4}, set(), set()),
            2: ({4}, {1}, {1}),
            3: ({4}, {2}, set()),
            4: (set(), {2, 3}, {2, 3}),
        }
        enc = build_encoding("binary_tree", 4)
        for j, (u, p, f) in want.items():
            assert _ladder_masks(enc, j) == (qubit_mask(4, u | {j}), qubit_mask(4, p),
                                             qubit_mask(4, f | {j})), j

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_recursion_route_agrees_with_matrix_route(self, m):
        recursive = recursive_tree_sets(m)
        enc = build_encoding("binary_tree", m)
        for j in range(1, m + 1):
            u, p, f = recursive[j]
            assert _ladder_masks(enc, j) == (qubit_mask(m, u | {j}), qubit_mask(m, p),
                                             qubit_mask(m, f | {j})), (m, j)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_remainder_is_set_difference(self, m):
        enc = build_encoding("binary_tree", m)
        for j in range(1, m + 1):
            _, parity, row = _ladder_masks(enc, j)
            flip = row & ~qubit_mask(m, {j})
            # flip sets sit inside parity sets, so the remainder parity - flip
            # is also their symmetric difference
            assert flip & ~parity == 0
            assert parity & ~flip == parity ^ flip

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_parity_encoding_sets(self, m):
        enc = build_encoding("parity", m)
        for j in range(2, m + 1):
            column, parity, row = _ladder_masks(enc, j)
            assert parity == qubit_mask(m, {j - 1})
            assert row == qubit_mask(m, {j - 1, j})
            assert column == qubit_mask(m, range(j, m + 1))


class TestModeOperators:
    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_dense_equality(self, kind, m):
        enc = build_encoding(kind, m)
        perm = enc.permutation_matrix()
        for j in range(1, m + 1):
            for dagger in (False, True):
                got = mode_op_to_pauli(enc, j, dagger).dense()
                want = perm @ fock_ladder_matrix(m, j, dagger) @ perm.T
                assert np.array_equal(got, want), (kind, m, j, dagger)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_published_set_formula_matches(self, m):
        # independent construction from the recursively built update/parity/flip
        # sets: annihilator = X(update) [X_j Z(parity) + i Y_j Z(remainder)] / 2
        enc = build_encoding("binary_tree", m)
        for j, (update, parity, flip) in recursive_tree_sets(m).items():
            x_part = PauliOperator.from_masks(m, qubit_mask(m, update | {j}), 0)
            first = pauli_mul(x_part, PauliOperator.from_masks(m, 0, qubit_mask(m, parity)))
            second = pauli_mul(
                pauli_mul(PauliOperator.from_masks(m, qubit_mask(m, update), 0),
                          PauliOperator.single(m, j, "Y")),
                PauliOperator.from_masks(m, 0, qubit_mask(m, parity - flip)),
            )
            built = QubitHamiltonian(m, ((0.5, first), (0.5j, second)))
            assert built.canonicalize() == mode_op_to_pauli(enc, j, dagger=False).canonicalize()

    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    def test_two_terms_half_coefficients(self, kind):
        enc = build_encoding(kind, 4)
        for j in range(1, 5):
            h = mode_op_to_pauli(enc, j, dagger=False)
            assert len(h.terms) == 2
            assert all(abs(c) == 0.5 for c, _ in h.terms)

    def test_parity_boundary_mode_has_no_z(self):
        # first mode: the z factor on mode 0 is an empty product
        enc = build_encoding("parity", 2)
        ops = {op.label for _, op in mode_op_to_pauli(enc, 1, False).canonicalize().terms}
        assert ops == {"XX", "YX"}

    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_number_operator_reads_occupation(self, kind, m):
        enc = build_encoding(kind, m)
        for j in range(1, m + 1):
            number = ladder_products(enc, "ca", [[j, j]], [1])
            dense = number.dense()
            for x in weight_n_states(m, m // 2) + weight_n_states(m, 1):
                s = gf2.bits_to_int(enc.matrix @ x.occ % 2)
                col = dense[:, s]
                expected = np.zeros(1 << m)
                expected[s] = x.occ[j - 1]
                assert np.allclose(col, expected)


def factor_by_factor(enc, ops) -> QubitHamiltonian:
    """The oracle: encoded ladder operators multiplied one factor at a time."""
    out = None
    for kind, mode in ops:
        factor = mode_op_to_pauli(enc, mode, dagger=kind == "c")
        out = factor if out is None else out.product(factor)
    return out


def products_one_by_one(enc, kinds, rows, factors) -> QubitHamiltonian:
    """Each row's factor-by-factor product times its factor, as Python multiplies
    them term by term, the rows' terms one after another."""
    xs, zs, cs = [], [], []
    for row, factor in zip(rows, factors):
        part = factor_by_factor(enc, tuple(zip(kinds, row)))
        xs += gf2.word_ints(part.x_masks)
        zs += gf2.word_ints(part.z_masks)
        cs += [complex(factor * c) for c in part.coeffs.tolist()]
    return QubitHamiltonian.from_masks(enc.modes, xs, zs, cs)


def assert_same_terms(got: QubitHamiltonian, want: QubitHamiltonian) -> None:
    assert got == want
    # repr tells 0.0 from -0.0, which == does not
    assert [repr(c) for c in got.coeffs.tolist()] == [repr(c) for c in want.coeffs.tolist()]


def assert_products_match(enc, kinds, rows, rng) -> QubitHamiltonian:
    """ladder_products on every row at once against the one-by-one oracle, with unit
    factors and with random complex ones; returns the unit-factor products."""
    got = ladder_products(enc, kinds, rows, [1] * len(rows))
    assert_same_terms(got, products_one_by_one(enc, kinds, rows, [1] * len(rows)))
    factors = [complex(*rng.normal(size=2)) for _ in rows]
    assert_same_terms(ladder_products(enc, kinds, rows, factors),
                      products_one_by_one(enc, kinds, rows, factors))
    return got


class TestClosedFormProducts:
    def test_ladder_masks_are_derived_once_per_encoding(self):
        import inspect

        assert list(inspect.signature(ladder_products).parameters) == \
            ["enc", "kinds", "modes", "factors"]
        enc = build_encoding("binary_tree", 5)
        assert enc.ladder_masks is enc.ladder_masks
        assert list(enc.ladder_masks) == [1, 2, 3, 4, 5]
        for j, (col, parity, row) in enc.ladder_masks.items():
            assert (col, row) == (enc.column_masks[j - 1], enc.inverse_rows[j - 1])
            assert parity == functools.reduce(operator.xor, enc.inverse_rows[:j - 1], 0)
        for mode in (0, 6):
            with pytest.raises(IndexError, match=f"mode {mode} out of range"):
                ladder_products(enc, "ca", [[1, 2], [mode, 1]], [1, 1])

    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    @pytest.mark.parametrize("m", range(1, 10))
    def test_hops_and_pair_hops_match_the_factor_chain(self, kind, m):
        # every index pattern up to 4 modes; on more, every (a, b, g, d) over
        # five modes, so coincident indices (zero and number operators) and
        # the truncated binary trees of m = 3, 5, 6, 7, 9 are all covered;
        # each length is one batch of every row
        enc = build_encoding(kind, m)
        rng = np.random.default_rng(m)
        modes = sorted({1, 2, (m + 1) // 2, m - 1, m} & set(range(1, m + 1)))
        assert_products_match(enc, "ca", list(itertools.product(range(1, m + 1), repeat=2)),
                              rng)
        assert_products_match(enc, "ccaa", list(itertools.product(modes, repeat=4)), rng)

    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    def test_masks_wider_than_64_bits(self, kind):
        # 70 modes: two mask words; the batches hold coincident indices too
        enc = build_encoding(kind, 70)
        rng = np.random.default_rng(70)
        modes = (1, 2, 3, 35, 64, 65, 69, 70)
        hops = assert_products_match(enc, "ca", list(itertools.product(modes, repeat=2)), rng)
        pairs = [(3, 70, 65, 1), (69, 2, 2, 69), (70, 70, 1, 2), (64, 65, 65, 64)]
        pairs += [tuple(int(v) for v in rng.choice(modes, 4)) for _ in range(40)]
        pair_hops = assert_products_match(enc, "ccaa", pairs, rng)
        for got in (hops, pair_hops):
            assert got.x_masks.dtype == got.z_masks.dtype == np.uint64
            assert got.x_masks.shape == got.z_masks.shape == (len(got), 2)
            assert max(gf2.word_ints(got.x_masks) + gf2.word_ints(got.z_masks)).bit_length() > 64

    def test_empty_product_is_zero(self):
        # a batch of no products
        enc = build_encoding("parity", 3)
        assert ladder_products(enc, "ccaa", np.empty((0, 4), dtype=int), []) == \
            QubitHamiltonian.zero(3)

    def test_encode_hamiltonian_multiplies_no_sums(self, h2_fermionic):
        # one merge of every part, and no factor-by-factor product
        calls = []
        canonicalize = QubitHamiltonian.canonicalize
        with mock.patch.object(QubitHamiltonian, "product", side_effect=AssertionError), \
                mock.patch.object(QubitHamiltonian, "canonicalize",
                                  lambda h, *a: calls.append(len(h)) or canonicalize(h, *a)):
            out = encode_hamiltonian(h2_fermionic, build_encoding("binary_tree", 4))
        assert len(calls) == 1 and len(out) == 15


class TestEncodeHamiltonian:
    def test_zero_hamiltonian(self):
        h = FermionHamiltonian(3, 1, np.zeros((3, 3)))
        out = encode_hamiltonian(h, build_encoding("jordan_wigner", 3))
        assert len(out) == 0

    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    def test_dense_conjugation(self, kind):
        rng = np.random.default_rng(41)
        h = random_hamiltonian(4, 2, rng)
        enc = build_encoding(kind, 4)
        perm = enc.permutation_matrix()
        got = encode_hamiltonian(h, enc).dense()
        want = perm @ dense_fock_matrix(h) @ perm.T
        assert np.allclose(got, want, atol=1e-12)

    def test_spectra_agree_across_encodings(self):
        rng = np.random.default_rng(43)
        for m in (3, 5, 6):
            h = random_hamiltonian(m, 2, rng)
            ref = np.sort(np.linalg.eigvalsh(dense_fock_matrix(h)))
            for kind in ENCODING_KINDS:
                vals = np.sort(
                    np.linalg.eigvalsh(encode_hamiltonian(h, build_encoding(kind, m)).dense())
                )
                assert np.abs(vals - ref).max() < 1e-9

    def test_hydrogen_term_set(self, h2_fermionic):
        from fertaper.cli import H2_TABLE

        out = encode_hamiltonian(h2_fermionic, build_encoding("jordan_wigner", 4))
        assert out.operator_set() == set(H2_TABLE)
        # identity carries the scalar part
        assert out.operator_set(include_identity=True) == set(H2_TABLE) | {"IIII"}

    def test_hydrogen_ground_energy(self, h2_fermionic):
        from fertaper.fermion import sector_matrix

        out = encode_hamiltonian(h2_fermionic, build_encoding("jordan_wigner", 4))
        qubit_ground = np.linalg.eigvalsh(out.dense())[0]
        sector_ground = np.linalg.eigvalsh(sector_matrix(h2_fermionic, 2))[0]
        assert qubit_ground == pytest.approx(sector_ground, abs=1e-10)

    def test_mode_count_mismatch(self):
        h = FermionHamiltonian(3, 1, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            encode_hamiltonian(h, build_encoding("jordan_wigner", 4))


class TestEncodedStates:
    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_occupation_readout(self, kind, m):
        # number operator applied to an encoded state returns the occupation
        enc = build_encoding(kind, m)
        for n in range(m + 1):
            for x in weight_n_states(m, n):
                s_bits = enc.matrix @ x.occ % 2
                inverse = gf2.unpack_ints(enc.inverse_rows, m)
                assert np.array_equal(inverse @ s_bits % 2, np.array(x.occ))
