import itertools
import json
import tracemalloc

import numpy as np
import pytest

from fertaper.fermion import (
    FermionHamiltonian,
    FockState,
    apply_op_string_rows,
    default_penalty_scale,
    dense_fock_matrix,
    random_hamiltonian,
    sector_matrix_direct,
    weight_n_states,
)
from tests.conftest import u_dict
from tests.oracles import (
    apply_annihilate,
    apply_create,
    apply_op_string,
    check_term,
    fock_state,
    number_operator_matrix,
    observable_action,
    observable_matrix,
    per_state_matrix,
    restrict_to_sector,
    sector_matrix,
)


class TestFockState:
    @pytest.mark.parametrize("occ", [
        (True, False, True),
        (np.int64(1), np.uint8(0), np.int64(1)),
        (3, 2, 1),
        (1, False, 1),
        [1, 0, 1],
        np.array([1, 0, 1], dtype=np.uint8),
    ], ids=["bools", "numpy-ints", "past-one", "int-and-bool", "list", "array"])
    def test_entries_normalize_to_a_tuple_of_python_zero_one_ints(self, occ):
        state = FockState(occ)
        assert type(state.occ) is tuple and state.occ == (1, 0, 1)
        assert all(type(b) is int for b in state.occ)

    def test_a_tuple_of_zero_one_ints_is_kept_as_it_is(self):
        occ = (0, 1, 1, 0)
        assert FockState(occ).occ is occ


class TestLadderOps:
    def test_annihilate_first_mode(self):
        assert apply_annihilate(FockState((1, 0, 0, 0)), 1) == (1, FockState((0, 0, 0, 0)))

    def test_annihilate_sign_from_preceding_mode(self):
        assert apply_annihilate(FockState((1, 1, 0, 0)), 2) == (-1, FockState((1, 0, 0, 0)))

    def test_annihilate_empty_mode(self):
        assert apply_annihilate(FockState((0, 1, 1, 0)), 4) is None

    def test_create_occupied_mode(self):
        assert apply_create(FockState((1, 0)), 1) is None

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_annihilate(FockState((1, 0)), 3)

    def test_anticommutation(self):
        # a_a a_b + a_b a_a annihilates every basis state
        m = 6
        for a, b in itertools.product(range(1, m + 1), repeat=2):
            for idx in range(1 << m):
                x = fock_state(m, idx)
                acc = 0
                for first, second in ((b, a), (a, b)):
                    r1 = apply_annihilate(x, first)
                    if r1 is None:
                        continue
                    s1, y = r1
                    r2 = apply_annihilate(y, second)
                    if r2 is None:
                        continue
                    s2, _ = r2
                    acc += s1 * s2
                assert acc == 0


class TestOpStringRows:
    """apply_op_string_rows against the one-state apply_op_string."""

    @staticmethod
    def assert_matches(ops, m=4):
        states = [fock_state(m, i) for i in range(1 << m)]
        signs, images = apply_op_string_rows(np.array([x.occ for x in states]), ops)
        for x, sign, image in zip(states, signs.tolist(), images.tolist()):
            hit = apply_op_string(x, ops)
            if hit is None:
                assert sign == 0
            else:
                assert (sign, tuple(image)) == (hit[0], hit[1].occ)

    def test_every_string_up_to_three_operators(self):
        letters = [(kind, mode) for kind in "ca" for mode in range(1, 5)]
        for length in range(4):
            for ops in itertools.product(letters, repeat=length):
                self.assert_matches(ops)

    def test_sampled_four_operator_strings(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            ops = [("ca"[k], int(mode)) for k, mode in zip(rng.integers(0, 2, 4),
                                                            rng.integers(1, 7, 4))]
            self.assert_matches(ops, m=6)

    def test_input_rows_are_not_modified(self):
        occ = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        apply_op_string_rows(occ, (("c", 2), ("a", 1)))
        assert occ.tolist() == [[1, 0, 1], [0, 1, 1]]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_op_string_rows(np.zeros((1, 2), dtype=np.uint8), (("c", 3),))


class TestObservableAction:
    def test_hop_fires(self):
        assert observable_action(((1, 2), 1), FockState((0, 1))) == [(1.0, FockState((1, 0)))]

    def test_hop_blocked_on_double_occupation(self):
        assert observable_action(((1, 2), 1), FockState((1, 1))) == []

    def test_hop_blocked_on_empty(self):
        # both modes empty: no transition (frozen from the dense oracle)
        assert observable_action(((1, 4), 1), FockState((0, 1, 1, 0))) == []

    def test_minus_variant_is_hermitian_and_imaginary(self):
        term = ((2, 3), -1)
        mat = observable_matrix(term, 4)
        assert np.allclose(mat, mat.conj().T)
        hits = observable_action(term, FockState((0, 0, 1, 0)))
        assert len(hits) == 1 and hits[0][0] in (1j, -1j)

    @pytest.mark.parametrize("term, message", [
        (((1, 2, 3), 1), "even number of indices"),
        (((1, 2), 2), "1, -1 or 0"),
        (((1, 2), 0), "self-adjoint"),
    ], ids=["odd-count", "choice-two", "choice-zero-hop"])
    def test_check_term_refuses(self, term, message):
        with pytest.raises(ValueError, match=message):
            check_term(term)
        with pytest.raises(ValueError, match=message):
            observable_action(term, FockState((0, 1, 1, 0)))

    def test_self_adjoint_products_are_occupations(self):
        # choice 0 applies the product alone: (a, a) is n_a, (a, b, b, a)
        # is n_a n_b, and () the identity
        m = 4
        occupation = [np.diag([float(fock_state(m, i).occ[a]) for i in range(1 << m)])
                      for a in range(m)]
        for a in range(1, m + 1):
            assert np.array_equal(observable_matrix(((a, a), 0), m), occupation[a - 1])
            for b in range(1, m + 1):
                want = occupation[a - 1] @ occupation[b - 1] if a != b else 0 * occupation[0]
                assert np.array_equal(observable_matrix(((a, b, b, a), 0), m), want)
        assert np.array_equal(observable_matrix(((), 0), m), np.eye(1 << m))

    @pytest.mark.parametrize("choice", [1, -1], ids=["plus", "minus"])
    def test_matches_dense_observable(self, choice):
        m = 6
        rng = np.random.default_rng(17)
        for _ in range(6):
            idx = rng.choice(m, size=4, replace=False) + 1
            term = (tuple(int(i) for i in idx), choice)
            mat = observable_matrix(term, m)
            assert np.allclose(mat, mat.conj().T)
            for state_idx in range(1 << m):
                x = fock_state(m, state_idx)
                col = np.zeros(1 << m, dtype=complex)
                for amp, y in observable_action(term, x):
                    col[y.index] += amp
                assert np.array_equal(col, mat[:, state_idx])


class TestDenseFock:
    def test_identity_t_counts_particles(self):
        h = FermionHamiltonian(3, 1, np.eye(3))
        mat = dense_fock_matrix(h)
        weights = [sum(fock_state(3, i).occ) for i in range(8)]
        assert np.array_equal(mat, np.diag(np.array(weights, dtype=complex)))

    def test_commutes_with_particle_number(self):
        rng = np.random.default_rng(23)
        h = random_hamiltonian(5, 2, rng)
        mat = dense_fock_matrix(h)
        nhat = number_operator_matrix(5)
        assert np.allclose(mat @ nhat, nhat @ mat)

    def test_free_fermion_spectrum(self):
        # eigenvalues are sums of single-particle energies over fillings
        rng = np.random.default_rng(29)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        t = (raw + raw.conj().T) / 8
        h = FermionHamiltonian(4, 2, t)
        single = np.linalg.eigvalsh(h.t)
        fillings = sorted(
            sum(combo)
            for r in range(5)
            for combo in itertools.combinations(single, r)
        )
        full = np.sort(np.linalg.eigvalsh(dense_fock_matrix(h)))
        assert np.allclose(full, fillings, atol=1e-9)

    def test_block_diagonal_over_sectors(self):
        rng = np.random.default_rng(31)
        h = random_hamiltonian(4, 2, rng)
        mat = dense_fock_matrix(h)
        for i in range(16):
            for j in range(16):
                wi = sum(fock_state(4, i).occ)
                wj = sum(fock_state(4, j).occ)
                if wi != wj:
                    assert mat[i, j] == 0

    def test_mode_cap(self, monkeypatch):
        monkeypatch.delenv("FERTAPER_MAX_DENSE_QUBITS", raising=False)
        h = FermionHamiltonian(15, 1, np.eye(15) * 0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the cap of 14"):
                dense_fock_matrix(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10  # refused before the 2^15 occupation rows (480 KiB) exist
        monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", "12")
        with pytest.raises(ValueError, match="exceeds the cap of 12"):
            dense_fock_matrix(FermionHamiltonian(13, 1, np.eye(13) * 0.1))


class TestSectors:
    def test_zero_particle_block(self):
        h = FermionHamiltonian(3, 0, np.eye(3) * 0.5)
        assert restrict_to_sector(dense_fock_matrix(h), 0).shape == (1, 1)

    def test_block_size(self):
        h = FermionHamiltonian(4, 2, np.eye(4) * 0.5)
        assert sector_matrix(h).shape == (6, 6)

    def test_number_operator_block(self):
        block = restrict_to_sector(number_operator_matrix(5), 2)
        assert np.array_equal(block, 2 * np.eye(10))

    def test_weight_states_lexicographic(self):
        occs = [s.occ for s in weight_n_states(4, 2)]
        assert occs == sorted(occs)

    def test_direct_sector_matrix_matches_restriction(self):
        rng = np.random.default_rng(53)
        for m, n in ((4, 2), (5, 3), (6, 1)):
            h = random_hamiltonian(m, n, rng)
            assert np.allclose(sector_matrix_direct(h), sector_matrix(h), atol=1e-12)


class TestRowKernelBuilders:
    """The builders against the per-state build, byte for byte: every entry
    sums its t terms, then its u terms, in their order."""

    def test_every_sector_of_random_hamiltonians(self):
        rng = np.random.default_rng(59)
        for m in range(1, 9):
            h = random_hamiltonian(m, 0, rng, interaction_pairs=3)
            states = [fock_state(m, i) for i in range(1 << m)]
            assert dense_fock_matrix(h).tobytes() == per_state_matrix(h, states).tobytes()
            for n in range(m + 1):
                want = per_state_matrix(h, weight_n_states(m, n))
                assert sector_matrix_direct(h, n).tobytes() == want.tobytes(), (m, n)

    def test_past_63_modes(self):
        # rows of two key words; hops and a pair hop cross the 64-mode boundary
        m = 70
        t = np.zeros((m, m), dtype=complex)
        for a, b, v in ((1, 1, 0.4), (64, 64, -0.3), (1, 70, 0.3), (63, 66, 0.2j), (64, 65, -0.1)):
            t[a - 1, b - 1], t[b - 1, a - 1] = v, np.conj(v)
        u = {(1, 64, 65, 70): 0.25 + 0.1j, (70, 65, 64, 1): 0.25 - 0.1j, (63, 2, 2, 63): 0.5}
        h = FermionHamiltonian(m, 2, t, u)
        got = sector_matrix_direct(h)
        assert got.shape == (2415, 2415) and got.any()
        assert got.tobytes() == per_state_matrix(h, weight_n_states(m, 2)).tobytes()


class TestValidation:
    def test_hamiltonians_compare_and_hash_by_identity(self):
        # their tensors are arrays, so two equal-valued instances are not ==
        a, b = (random_hamiltonian(4, 2, np.random.default_rng(1)) for _ in range(2))
        assert not a == b and a != b
        assert a == a
        assert len({a, b}) == 2 and hash(a) == hash(a)

    def test_non_hermitian_t(self):
        t = np.zeros((2, 2), dtype=complex)
        t[0, 1] = 1.0
        with pytest.raises(ValueError):
            FermionHamiltonian(2, 1, t)

    def test_missing_conjugate_partner(self):
        with pytest.raises(ValueError):
            FermionHamiltonian(4, 2, np.zeros((4, 4)), {(1, 2, 3, 4): 0.5})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_one_body_entry_is_named(self, value):
        t = np.eye(3, dtype=complex) * 0.5
        t[1, 1] = value
        with pytest.raises(ValueError, match=r"one-body entry \(2, 2\) .* not finite"):
            FermionHamiltonian(3, 1, t)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       complex(0.1, float("nan"))])
    def test_non_finite_interaction_entry_is_named(self, value):
        u = {(1, 2, 3, 4): value, (4, 3, 2, 1): value}
        with pytest.raises(ValueError, match=r"interaction entry \(1, 2, 3, 4\) .* not finite"):
            FermionHamiltonian(4, 2, np.zeros((4, 4)), u)

    def test_default_penalty_scale_that_overflows_raises(self):
        with pytest.warns(UserWarning):
            h = FermionHamiltonian(2, 1, np.diag([1e308, 1e308]))
        with pytest.raises(ValueError, match="default penalty scale is not finite"):
            default_penalty_scale(h)

    def test_magnitude_warning(self):
        with pytest.warns(UserWarning):
            FermionHamiltonian(2, 1, 2.0 * np.eye(2))

    def test_magnitude_warning_names_the_value(self):
        # the largest magnitude is 1.0017296...; rounded to 3 digits it read "1"
        with pytest.warns(UserWarning, match=r"magnitude 1\.00172\d* exceeds 1"):
            random_hamiltonian(16, 2, np.random.default_rng(3), interaction_pairs=40)

    def test_json_round_trip(self):
        rng = np.random.default_rng(37)
        h = random_hamiltonian(4, 2, rng)
        again = FermionHamiltonian.from_json(h.to_json())
        assert np.allclose(again.t, h.t)
        assert u_dict(again.u) == pytest.approx(u_dict(h.u))
        assert (again.modes, again.particles) == (4, 2)

    @pytest.mark.parametrize("key", ["modes", "particles"])
    def test_json_missing_key_names_it(self, key):
        data = json.loads(FermionHamiltonian(2, 1, np.eye(2) * 0.5).to_json())
        del data[key]
        with pytest.raises(ValueError, match=repr(key)):
            FermionHamiltonian.from_json(json.dumps(data))

    @pytest.mark.parametrize("key, row", [("t", [1, 2, 0.1, 0.0]),
                                          ("u", [1, 2, 2, 1, 0.25, 0.0])])
    def test_json_repeated_row_is_rejected(self, key, row):
        h = FermionHamiltonian(2, 1, [[0.5, 0.1], [0.1, 0.5]], {(1, 2, 2, 1): 0.25})
        data = json.loads(h.to_json())
        assert row in data[key]
        index = row[:-2]
        data[key].append(index + [0.3, 0.0])
        with pytest.raises(ValueError) as err:
            FermionHamiltonian.from_json(json.dumps(data))
        assert f"repeats the {key} row {index}" in str(err.value)

    def test_json_must_be_an_object(self):
        with pytest.raises(ValueError):
            FermionHamiltonian.from_json("[2, 1]")

    @pytest.mark.parametrize("fields, message", [
        ({"t": [[0, 1, 0.5, 0], [1, 0, 0.5, 0]]},
         r"t row \[0, 1, 0.5, 0\] has a mode index that is not an integer in 1..2"),
        ({"t": [[5, 1, 0.5, 0]]}, r"t row \[5, 1, 0.5, 0\] has a mode index"),
        ({"t": [[1, 2, "a", 0]]}, r't row \[1, 2, "a", 0\] has an re or im'),
        ({"u": [[1, 2, 2, 1, "a", 0]]}, r'u row \[1, 2, 2, 1, "a", 0\] has an re or im'),
        ({"t": [[1, 1, 10**400, 0]]}, r"t row .* not a real number in the float range"),
        ({"t": 5}, r"'t' is not a list of \[a, b, re, im\] rows"),
        ({"u": [[1, 2, 0.5, 0]]}, r"u row \[1, 2, 0.5, 0\] is not \[a, b, g, d, re, im\]"),
        ({"t": [[1.9, 1, 0.5, 0]]}, r"t row \[1.9, 1, 0.5, 0\] has a mode index"),
        ({"t": [[True, 1, 0.5, 0]]}, r"t row \[true, 1, 0.5, 0\] has a mode index"),
        ({"modes": 2.7}, r"'modes' is 2.7, not a non-negative integer"),
        ({"modes": -1}, r"'modes' is -1, not a non-negative integer"),
        ({"particles": True}, r"'particles' is true, not a non-negative integer"),
    ], ids=["index-zero", "index-past-modes", "t-string-coefficient",
            "u-string-coefficient", "coefficient-past-float", "t-not-a-list", "short-u-row",
            "float-index", "bool-index", "float-modes", "negative-modes", "bool-particles"])
    def test_json_malformed_field_is_named(self, fields, message):
        data = {"modes": 2, "particles": 1, **fields}
        with pytest.raises(ValueError, match=message):
            FermionHamiltonian.from_json(json.dumps(data))

    def test_json_matches_documented_shape(self):
        h = FermionHamiltonian(2, 1, np.eye(2) * 0.5, {(1, 2, 2, 1): 0.25})
        data = json.loads(h.to_json())
        assert set(data) == {"modes", "particles", "t", "u"}
        assert data["u"] == [[1, 2, 2, 1, 0.25, 0.0]]
