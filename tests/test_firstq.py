import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper.fermion import FermionHamiltonian, FockState, random_hamiltonian
from fertaper.firstq import (
    LETTERS,
    OrthogonalArray,
    RegisterEncoding,
    TernaryField,
    UnassignableTerm,
    apply_exchange_penalty_doubled,
    bin_terms,
    column_partitions,
    default_penalty_scale,
    exchange_penalty_dense,
    first_quantized_parts,
    partition_eigenvalue,
    rao_hamming_oa,
    spectrum_matches_partitions,
)
from tests.conftest import u_dict
from tests.oracles import (
    array_rows,
    codespace_isometry,
    encode_first_quantized,
    label_index,
    partition_eigenvector,
    pauli_matrix_naive,
    required_words,
    sector_matrix,
)


class TestEncoding:
    def test_single_particle_is_plain_label(self):
        enc = RegisterEncoding(4, 1)
        vec = encode_first_quantized(FockState((0, 0, 1, 0)), enc)
        want = np.zeros(4)
        want[2] = 1.0
        assert np.array_equal(vec, want)

    def test_two_particle_singlet_structure(self):
        enc = RegisterEncoding(4, 2)
        vec = encode_first_quantized(FockState((1, 1, 0, 0)), enc)
        want = np.zeros(16)
        want[label_index(enc, (1, 2))] = 1 / np.sqrt(2)
        want[label_index(enc, (2, 1))] = -1 / np.sqrt(2)
        assert np.allclose(vec, want)

    def test_swap_negates(self):
        enc = RegisterEncoding(4, 2)
        vec = encode_first_quantized(FockState((0, 1, 0, 1)), enc)
        swapped = vec.reshape(4, 4).T.reshape(-1)
        assert np.allclose(swapped, -vec)

    def test_unit_norm(self):
        enc = RegisterEncoding(8, 3)
        vec = encode_first_quantized(FockState((1, 0, 1, 0, 0, 1, 0, 0)), enc)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_wrong_weight(self):
        enc = RegisterEncoding(4, 2)
        with pytest.raises(ValueError):
            encode_first_quantized(FockState((1, 0, 0, 0)), enc)

    def test_padding(self):
        enc = RegisterEncoding(3, 2)
        assert enc.padded_modes == 4
        assert enc.qubits == 4


class TestSimulatorParts:
    def test_diagonal_t_gives_diagonal_one_body(self):
        h = FermionHamiltonian(4, 2, np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
        parts = first_quantized_parts(h, RegisterEncoding(4, 2))
        dense = parts.one_body.dense()
        assert np.allclose(dense, np.diag(np.diag(dense)))

    @pytest.mark.parametrize("modes, particles", [(16, 16), (32, 13)])
    def test_registers_reach_the_top_mask_bits(self, modes, particles):
        # 64 and 65 qubits: the one-body part is one register's sum placed
        # on each register in turn, register 1 on the top bits of the masks
        t = np.zeros((modes, modes), dtype=complex)
        half = modes // 2
        t[0, half], t[half, 0], t[5, 5] = 0.3 + 0.1j, 0.3 - 0.1j, 0.2
        enc = RegisterEncoding(modes, particles)
        m, n = enc.register_bits, particles
        single = first_quantized_parts(FermionHamiltonian(modes, 1, t), RegisterEncoding(modes, 1))
        parts = first_quantized_parts(FermionHamiltonian(modes, n, t), enc)
        want: dict[str, complex] = {}
        for i in range(n):
            for c, op in single.one_body.terms:
                label = "I" * m * i + op.label + "I" * m * (n - 1 - i)
                want[label] = want.get(label, 0) + c
        got = {op.label: c for c, op in parts.one_body.terms}
        assert got.keys() == want.keys()
        assert all(got[k] == pytest.approx(want[k]) for k in want)
        # identity once, then 4^m - 1 matched words per register pair
        assert len(parts.exchange_penalty) == 1 + n * (n - 1) // 2 * (4 ** m - 1)
        word = "X" + "I" * (m - 1)
        assert word + "I" * m * (n - 2) + word in parts.exchange_penalty.operator_set()

    def test_exchange_penalty_two_registers(self):
        h = FermionHamiltonian(4, 2, np.zeros((4, 4)))
        parts = first_quantized_parts(h, RegisterEncoding(4, 2))
        vals = np.linalg.eigvalsh(parts.exchange_penalty.dense())
        assert np.allclose(np.unique(np.round(vals, 9)), [0.0, 1.0])

    def test_penalty_annihilates_encoded_states(self):
        h = FermionHamiltonian(4, 2, np.zeros((4, 4)))
        enc = RegisterEncoding(4, 2)
        parts = first_quantized_parts(h, enc)
        iso = codespace_isometry(enc)
        assert np.abs(parts.exchange_penalty.dense() @ iso).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_antisymmetric_block_matches_sector(self, seed):
        rng = np.random.default_rng(200 + seed)
        h = random_hamiltonian(4, 2, rng)
        enc = RegisterEncoding(4, 2)
        parts = first_quantized_parts(h, enc)
        dense = (parts.one_body + parts.two_body).dense()
        iso = codespace_isometry(enc)
        block = iso.T @ dense @ iso
        assert np.allclose(block, sector_matrix(h), atol=1e-12)
        # codespace preserved, so spectra agree on the antisymmetric subspace
        assert np.allclose(dense @ iso, iso @ block, atol=1e-12)

    def test_padded_mode_count_spectral_equivalence(self):
        # three modes round up to four labels; the padding labels carry no
        # coefficients and the encoded sector is untouched
        rng = np.random.default_rng(250)
        h = random_hamiltonian(3, 2, rng)
        enc = RegisterEncoding(3, 2)
        parts = first_quantized_parts(h, enc)
        iso = codespace_isometry(enc)
        block = iso.T @ (parts.one_body + parts.two_body).dense() @ iso
        assert np.allclose(block, sector_matrix(h), atol=1e-12)

    def test_repeated_index_entries_are_the_zero_operator(self):
        # c'_a c'_a and c_g c_g vanish: entries with either repeat change nothing
        t = np.zeros((4, 4))
        t[0, 1] = t[1, 0] = 0.3
        plain = FermionHamiltonian(4, 2, t, {(1, 2, 3, 4): 0.2, (4, 3, 2, 1): 0.2})
        padded = FermionHamiltonian(4, 2, t, {**u_dict(plain.u), (1, 1, 1, 1): 0.5,
                                              (1, 1, 2, 3): 0.1j, (3, 2, 1, 1): -0.1j})
        enc = RegisterEncoding(4, 2)
        want, got = first_quantized_parts(plain, enc), first_quantized_parts(padded, enc)
        for part in ("one_body", "two_body", "exchange_penalty"):
            assert getattr(got, part).canonicalize() == getattr(want, part).canonicalize()
        assert default_penalty_scale(padded) == default_penalty_scale(plain)

    def test_ground_state_in_codespace_with_default_penalty(self):
        rng = np.random.default_rng(300)
        h = random_hamiltonian(4, 2, rng)
        enc = RegisterEncoding(4, 2)
        parts = first_quantized_parts(h, enc)
        total = parts.total(default_penalty_scale(h))
        vals, vecs = np.linalg.eigh(total.dense())
        iso = codespace_isometry(enc)
        ground = vecs[:, 0]
        perp = np.linalg.norm(ground - iso @ (iso.T @ ground))
        assert perp < 1e-10
        assert vals[0] == pytest.approx(np.linalg.eigvalsh(sector_matrix(h))[0])


class TestSwapExpansion:
    @pytest.mark.parametrize("m_bits", [1, 2])
    def test_matched_pauli_sum_equals_register_swap(self, m_bits):
        # sum of matched letter words over two registers, divided by the
        # register dimension, is exactly the register swap
        import itertools

        dim = 1 << m_bits
        total = np.zeros((dim * dim, dim * dim), dtype=complex)
        for word in itertools.product("IXYZ", repeat=m_bits):
            label = "".join(word)
            total += np.kron(pauli_matrix_naive(label), pauli_matrix_naive(label))
        total /= dim
        swap = np.zeros_like(total)
        for a in range(dim):
            for b in range(dim):
                swap[b * dim + a, a * dim + b] = 1.0
        assert np.allclose(total, swap)


def digits(value: int, m: int) -> tuple:
    """Base-3 digits, constant digit first."""
    return tuple(value // 3 ** i % 3 for i in range(m))


def from_digits(ds) -> int:
    return sum(d * 3 ** i for i, d in enumerate(ds))


def oracle_add(field: TernaryField, a: int, b: int) -> int:
    return from_digits((x + y) % 3 for x, y in zip(digits(a, field.m), digits(b, field.m)))


def poly_mul(a: tuple, b: tuple) -> tuple:
    """Product of two GF(3) coefficient tuples, constant first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % 3
    return tuple(out)


def poly_mod(a: tuple, mod: tuple) -> tuple:
    """Remainder of a GF(3) coefficient tuple by a monic polynomial, both
    constant first, padded to the polynomial's degree."""
    a, deg = list(a), len(mod) - 1
    while len(a) > deg:
        lead, shift = a.pop(), len(a) - deg
        for i, c in enumerate(mod[:-1]):
            a[shift + i] = (a[shift + i] - lead * c) % 3
    return tuple(a + [0] * (deg - len(a)))


def oracle_mul(field: TernaryField, a: int, b: int) -> int:
    prod = poly_mul(digits(a, field.m), digits(b, field.m))
    return from_digits(poly_mod(prod, field.poly))


class TestTernaryField:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_field_axioms_spot_checks(self, m):
        field = TernaryField(m)
        add, mul = field.add_table, field.mul_table
        rng = np.random.default_rng(m)
        for _ in range(30):
            a, b, c = (int(v) for v in rng.integers(0, field.size, size=3))
            assert add[a, b] == add[b, a]
            assert mul[a, b] == mul[b, a]
            assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
            assert mul[a, 1] == a

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_no_zero_divisors(self, m):
        field = TernaryField(m)
        for a in range(1, min(field.size, 30)):
            for b in range(1, min(field.size, 30)):
                assert field.mul_table[a, b] != 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_negation_and_inverse_tables(self, m):
        field = TernaryField(m)
        e = np.arange(field.size)
        assert (field.add_table[e, field.neg_table] == 0).all()
        assert (field.mul_table[e[1:], field.inv_table[1:]] == 1).all()

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            TernaryField(6)

    def test_a_reducible_polynomial_is_refused(self):
        class Reducible(TernaryField):
            POLYS = {**TernaryField.POLYS, 2: (2, 0, 1)}  # x^2 + 2 = (x + 1)(x + 2)

        with pytest.raises(AssertionError, match="degree 2 is reducible"):
            Reducible(2)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_the_field_check_agrees_with_a_factor_search(self, m):
        # every monic polynomial of degree m: the table check refuses it
        # exactly when a monic polynomial of degree 1..m/2 divides it
        factors = [(*f, 1) for d in range(1, m // 2 + 1)
                   for f in itertools.product(range(3), repeat=d)]
        refused = 0
        for low in itertools.product(range(3), repeat=m):
            poly = (*low, 1)

            class Field(TernaryField):
                POLYS = {m: poly}

            if any(not any(poly_mod(poly, f)) for f in factors):
                refused += 1
                with pytest.raises(AssertionError, match="reducible"):
                    Field(m)
            else:
                field, e = Field(m), np.arange(1, 3 ** m)
                assert (field.mul_table[e, field.inv_table[e]] == 1).all()
        assert refused == {2: 6, 3: 19, 4: 63}[m]  # 3^m minus the irreducible count

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_tables_match_polynomial_arithmetic(self, m):
        field = TernaryField(m)
        if m <= 3:
            pairs = [(a, b) for a in range(field.size) for b in range(field.size)]
        else:
            pairs = np.random.default_rng(40).integers(0, field.size, size=(2000, 2)).tolist()
        for a, b in pairs:
            assert field.add_table[a, b] == oracle_add(field, a, b)
            assert field.mul_table[a, b] == oracle_mul(field, a, b)


class TestOrthogonalArray:
    def test_m1_shape_and_strength(self):
        oa = rao_hamming_oa(1)
        assert (oa.row_count, oa.column_count) == (9, 4)
        assert oa.verify_strength_two()
        assert all(all(len(w) == 1 and w in LETTERS for w in row) for row in array_rows(oa))

    def test_m2_shape_and_strength(self):
        oa = rao_hamming_oa(2)
        assert (oa.row_count, oa.column_count) == (81, 10)
        assert oa.verify_strength_two()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_entries_are_affine_evaluations(self, m):
        field = TernaryField(m)
        values = rao_hamming_oa(m).values
        for a in range(field.size):
            for b in range(field.size):
                row = values[a * field.size + b].tolist()
                assert row[-1] == a
                assert row[:-1] == [oracle_add(field, oracle_mul(field, a, c), b)
                                    for c in range(field.size)]

    def test_values_are_read_only(self):
        with pytest.raises(ValueError):
            rao_hamming_oa(1).values[0, 0] = 1

    def test_strength_checker_catches_a_repeated_pair_in_a_full_size_array(self):
        values = rao_hamming_oa(1).values.copy()
        values[0, 0] = values[1, 0]  # rows 0 and 1 now agree in columns 0 and 3
        assert not OrthogonalArray(1, values).verify_strength_two()

    def test_columns_never_equal(self):
        oa = rao_hamming_oa(1)
        for c1 in range(oa.column_count):
            for c2 in range(c1 + 1, oa.column_count):
                assert any(row[c1] != row[c2] for row in array_rows(oa))

    def test_strength_checker_catches_violation(self):
        # word values X, Y, Z = 0, 1, 2: the pair (X, X) appears twice
        bad = OrthogonalArray(1, [[0, 0], [0, 0], [1, 1], [2, 2]])
        assert not bad.verify_strength_two()


@functools.cache
def sorted_rows(m):
    return sorted(array_rows(rao_hamming_oa(m)))


def linear_scan_bins(h, m, enc):
    """Oracle binning: each term in the smallest sorted row holding every required word."""
    rows = sorted_rows(m)
    groups: dict[tuple, list] = {}
    for coeff, op in h.canonicalize().terms:
        words = required_words(op, enc)
        row = next(r for r in rows if all(r[reg - 1] == w for reg, w in words.items()))
        groups.setdefault(row, []).append((coeff, op))
    return sorted(groups.items())


def resolved(h, groups):
    """bin_terms groups with each term index replaced by its (coeff, op) term."""
    listed = h.canonicalize().terms
    return [(row, [listed[k] for k in rows.tolist()]) for row, rows in groups]


class TestBinning:
    def test_matched_z_pair(self):
        # single-qubit registers: a Z(x)Z on registers 1, 2 must land in a
        # row whose first two letters are Z
        enc = RegisterEncoding(2, 2)
        from fertaper.pauli import PauliOperator, QubitHamiltonian

        term = QubitHamiltonian(2, ((1.0, PauliOperator.from_label("ZZ")),))
        groups = bin_terms(term, enc)
        assert len(groups) == 1
        row = groups[0][0]
        assert row[0] == "Z" and row[1] == "Z"

    def test_identity_qubit_inside_register_resolves_to_z(self):
        # a register word "XI" is pinned to "XZ" before row lookup
        enc = RegisterEncoding(4, 2)
        from fertaper.pauli import PauliOperator, QubitHamiltonian

        term = QubitHamiltonian(4, ((1.0, PauliOperator.from_label("XIZY")),))
        groups = bin_terms(term, enc)
        row = groups[0][0]
        assert row[0] == "XZ" and row[1] == "ZY"

    def test_whole_identity_register_takes_smallest_row(self):
        # registers with no support stay unconstrained; the smallest
        # matching row decides their basis deterministically
        enc = RegisterEncoding(2, 2)
        from fertaper.pauli import PauliOperator, QubitHamiltonian

        term = QubitHamiltonian(2, ((1.0, PauliOperator.from_label("XI")),))
        groups = bin_terms(term, enc)
        assert groups[0][0] == ("X", "X", "X", "X")

    def test_full_simulator_m1(self):
        rng = np.random.default_rng(400)
        h = random_hamiltonian(2, 2, rng)
        enc = RegisterEncoding(2, 2)
        parts = first_quantized_parts(h, enc)
        total = parts.total(default_penalty_scale(h))
        groups = bin_terms(total, enc)
        assert len(groups) <= 9
        assert sum(len(terms) for _, terms in groups) == len(total)

    def test_full_simulator_m2(self):
        rng = np.random.default_rng(401)
        h = random_hamiltonian(4, 2, rng)
        enc = RegisterEncoding(4, 2)
        parts = first_quantized_parts(h, enc)
        total = parts.total(default_penalty_scale(h))
        groups = bin_terms(total, enc)
        assert len(groups) <= 81
        assert sum(len(terms) for _, terms in groups) == len(total)

    def test_groups_are_qubitwise_compatible(self):
        rng = np.random.default_rng(402)
        h = random_hamiltonian(4, 2, rng)
        enc = RegisterEncoding(4, 2)
        total = first_quantized_parts(h, enc).total(1.0)
        for row, terms in resolved(total, bin_terms(total, enc)):
            letters = "".join(row)
            for _, op in terms:
                for qubit in range(1, enc.qubits + 1):
                    letter = op.letter_at(qubit)
                    assert letter in ("I", letters[qubit - 1])

    def test_group_indices_ascend_and_cover_every_term_once(self):
        # each group lists its terms in canonical order, and the groups
        # partition the canonical sum
        rng = np.random.default_rng(403)
        h = random_hamiltonian(8, 3, rng)
        enc = RegisterEncoding(8, 3)
        total = first_quantized_parts(h, enc).total(default_penalty_scale(h))
        groups = bin_terms(total, enc)
        assert len(groups) > 1
        for _, rows in groups:
            assert len(rows) and (np.diff(rows) > 0).all()
        assert sorted(np.concatenate([rows for _, rows in groups]).tolist()) == \
            list(range(len(total)))

    def test_three_register_term_rejected(self):
        enc = RegisterEncoding(2, 3)
        from fertaper.pauli import PauliOperator, QubitHamiltonian

        term = QubitHamiltonian(3, ((1.0, PauliOperator.from_label("XYZ")),))
        with pytest.raises(UnassignableTerm):
            bin_terms(term, enc)

    def test_three_register_term_rejected_with_its_label(self, monkeypatch):
        # the one label is spelled from its masks, not from a PauliOperator per term
        enc = RegisterEncoding(4, 3)
        from fertaper.pauli import PauliOperator, QubitHamiltonian

        terms = ((1.0, PauliOperator.from_label("ZIIIII")),
                 (1.0, PauliOperator.from_label("XIIYZI")))
        monkeypatch.setattr(QubitHamiltonian, "terms", property(lambda h: pytest.fail(".terms")))
        with pytest.raises(UnassignableTerm, match="^term XIIYZI touches 3 registers$"):
            bin_terms(QubitHamiltonian(6, terms), enc)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_a_linear_scan_of_the_sorted_rows(self, data):
        # the oracle: the smallest sorted row holding every required word
        from fertaper.pauli import PauliOperator, QubitHamiltonian

        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 4))
        enc = RegisterEncoding(1 << m, n)
        word = st.text("IXYZ", min_size=m, max_size=m).filter(lambda w: w.strip("I"))
        terms = []
        for k in range(data.draw(st.integers(1, 8))):
            touched = data.draw(st.sets(st.integers(0, n - 1), max_size=min(2, n)))
            label = "".join(data.draw(word) if r in touched else "I" * m for r in range(n))
            terms.append((complex(k + 1), PauliOperator.from_label(label)))
        h = QubitHamiltonian(enc.qubits, terms)
        assert resolved(h, bin_terms(h, enc)) == linear_scan_bins(h, m, enc)

    def test_terms_on_the_top_mask_bits_at_64_qubits(self):
        # M=16, N=16: register 1 holds bits 63..60 of each mask
        from fertaper.pauli import PauliOperator, QubitHamiltonian

        enc = RegisterEncoding(16, 16)
        labels = ["YIII" + "I" * 56 + "IIIZ", "XYZI" + "I" * 60, "I" * 60 + "ZZXY", "I" * 64]
        h = QubitHamiltonian(64, [(1.0, PauliOperator.from_label(x)) for x in labels])
        groups = bin_terms(h, enc)
        assert resolved(h, groups) == linear_scan_bins(h, 4, enc)
        assert sum(len(terms) for _, terms in groups) == 4

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_formula_rows_match_a_linear_scan(self, m):
        # up to 3^m + 1 registers at m <= 2, so the last column (a itself) is used
        from fertaper.pauli import PauliOperator, QubitHamiltonian

        n = 3 ** m + 1 if m <= 2 else 5
        enc = RegisterEncoding(1 << m, n)
        rng = np.random.default_rng(70 + m)
        terms = []
        for k in range(60):
            touched = rng.choice(n, size=rng.integers(0, 3), replace=False)
            letters = ["I" * m] * n
            for r in touched:
                word = "I" * m
                while not word.strip("I"):
                    word = "".join(rng.choice(list("IXYZ"), size=m))
                letters[r] = word
            terms.append((complex(k + 1), PauliOperator.from_label("".join(letters))))
        h = QubitHamiltonian(enc.qubits, terms)
        assert resolved(h, bin_terms(h, enc)) == linear_scan_bins(h, m, enc)

    def test_register_past_the_last_column_rejected(self, monkeypatch):
        # m = 1 has 3 + 1 columns, so a fifth register has none
        from fertaper.pauli import PauliOperator, QubitHamiltonian

        enc = RegisterEncoding(2, 5)
        term = QubitHamiltonian(5, ((1.0, PauliOperator.from_label("XIIIZ")),))
        monkeypatch.setattr(QubitHamiltonian, "terms", property(lambda h: pytest.fail(".terms")))
        with pytest.raises(UnassignableTerm, match="^no array row diagonalizes XIIIZ$"):
            bin_terms(term, enc)

    def test_m32_groups_are_diagonal_on_masks(self):
        # 15 qubits: no 59,049-row array is built; each group's basis is
        # checked against its terms' masks, qubit by qubit
        rng = np.random.default_rng(32)
        h = random_hamiltonian(32, 3, rng)
        enc = RegisterEncoding(32, 3)
        total = first_quantized_parts(h, enc).total(default_penalty_scale(h))
        groups = bin_terms(total, enc)
        assert 1 < len(groups) <= 9 ** 5
        xs, zs = np.array(total.x_masks), np.array(total.z_masks)
        for row, rows in groups:
            assert len(row) == 3 ** 5 + 1
            basis = "".join(row[:3])
            on = {letter: sum(1 << (14 - q) for q, b in enumerate(basis) if b == letter)
                  for letter in "XYZ"}
            x, z = xs[rows], zs[rows]
            assert not (z & on["X"]).any() and not (x & on["Z"]).any()
            assert not ((x ^ z) & on["Y"]).any()
        assert np.array_equal(np.sort(np.concatenate([rows for _, rows in groups])),
                              np.arange(len(total)))

    def test_required_words(self):
        enc = RegisterEncoding(4, 2)
        from fertaper.pauli import PauliOperator

        op = PauliOperator.from_label("XIIY")
        assert required_words(op, enc) == {1: "XZ", 2: "ZY"}


class TestPartitions:
    def test_enumeration(self):
        assert list(column_partitions(3)) == [(3,), (2, 1), (1, 1, 1)]
        assert list(column_partitions(3, 2)) == [(2, 1), (1, 1, 1)]

    def test_single_column_eigenvalue_zero(self):
        assert partition_eigenvalue((5,)) == 0

    def test_near_column_eigenvalue(self):
        assert partition_eigenvalue((4, 1)) == Fraction(5, 2)

    def test_worked_example(self):
        assert partition_eigenvalue((4, 2, 1)) == 9

    def test_all_ones_gives_pair_count(self):
        assert partition_eigenvalue((1, 1, 1, 1)) == 6

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            partition_eigenvalue((1, 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_eigenvector_relation_exact(self, n):
        # integer arithmetic: doubled penalty action equals doubled eigenvalue
        for partition in column_partitions(n):
            vec = partition_eigenvector(partition, n)
            assert vec.any()
            doubled = partition_eigenvalue(partition) * 2
            assert doubled.denominator == 1
            got = apply_exchange_penalty_doubled(vec, n, n)
            assert np.array_equal(got, int(doubled) * vec)

    def test_eigenvector_small_case(self):
        # two columns (2,1): eigenvalue 3/2 on three labels
        vec = partition_eigenvector((2, 1), 2)
        got = apply_exchange_penalty_doubled(vec, 3, 2)
        assert np.array_equal(got, 3 * vec)


class TestSpectrum:
    def test_two_particles_two_modes(self):
        ok, got, want = spectrum_matches_partitions(2, 2)
        assert ok and got == [0, 1]

    def test_three_particles_four_modes(self):
        ok, got, want = spectrum_matches_partitions(3, 4)
        assert ok and got == [0, Fraction(3, 2), 3]

    def test_four_particles_four_modes_gap(self):
        ok, got, _ = spectrum_matches_partitions(4, 4)
        assert ok
        assert min(v for v in got if v > 0) == 2

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_grid(self, n, m):
        ok, got, want = spectrum_matches_partitions(n, m)
        assert ok, (n, m, got, want)

    def test_qubit_penalty_matches_label_space(self):
        # the Pauli-level penalty on 2^m-mode registers has the same
        # nonnegative spectrum as the label-space construction
        h = FermionHamiltonian(4, 3, np.zeros((4, 4)))
        parts = first_quantized_parts(h, RegisterEncoding(4, 3))
        qubit_vals = np.round(np.linalg.eigvalsh(parts.exchange_penalty.dense()), 9)
        label_vals = np.round(np.linalg.eigvalsh(exchange_penalty_dense(3, 4)), 9)
        assert np.array_equal(np.unique(qubit_vals), np.unique(label_vals))
