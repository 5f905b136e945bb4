import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fertaper import gf2, limits, tapering
from fertaper.cli import H2_TABLE, H2_TRANSFORMED, main
from fertaper.fermion import FermionHamiltonian, dense_fock_matrix, random_hamiltonian
from fertaper.pauli import (
    PauliOperator,
    QubitHamiltonian,
    commutes,
    hamiltonian_from_text,
    pauli_multiply,
)
from fertaper.standard_maps import build_encoding, encode_hamiltonian
from fertaper.tapering import (
    BasisBlocks,
    SymmetryGroup,
    TaperingPlan,
    all_sectors,
    build_plan,
    check_matrix,
    clifford_transform,
    find_symmetries,
    sector_energies,
    symplectic_gram_schmidt,
    taper,
    taper_sectors,
)
from tests.conftest import u_dict


def pauli_group(labels):
    return [PauliOperator.from_label(l) for l in labels]


def single_term(n, label):
    return QubitHamiltonian(n, ((1.0, PauliOperator.from_label(label)),))


def _xz(op: PauliOperator) -> int:
    """The (x << n) | z vector of a Pauli."""
    return (op.x_mask << op.n) | op.z_mask


def _anticommute(u: int, v: int, n: int) -> int:
    return 0 if commutes(*(PauliOperator.from_masks(n, w >> n, w & ((1 << n) - 1))
                           for w in (u, v))) else 1


class TestCheckMatrix:
    def test_blocks_are_swapped(self, h2_table):
        rows = gf2.word_ints(check_matrix(h2_table))
        # the row of each term: its z-vector in the high bits, its x-vector below
        terms = h2_table.canonicalize().terms
        assert len(rows) == len(terms)
        for row, (_, op) in zip(rows, terms):
            assert row >> 4 == op.z_mask and row & 0b1111 == op.x_mask
            assert [int(b) for b in format(row, "08b")] == list(op.z + op.x)

    def test_h2_kernel_is_the_three_z_pairs(self, h2_table):
        kernel = gf2.kernel_basis(check_matrix(h2_table), 8)
        want = [0b0000_1100, 0b0000_1010, 0b0000_1001]
        assert gf2.same_span(kernel, want)
        assert len(kernel) == 3

    def test_zero_qubits(self):
        h = QubitHamiltonian(0, ((2.0, PauliOperator.from_masks(0, 0, 0)),))
        assert gf2.word_ints(check_matrix(h)) == [0]
        assert find_symmetries(h).size == 0


class TestSymplecticGramSchmidt:
    def test_anticommuting_pair_collapses(self):
        # X and Z on one qubit: one survives
        commuting, pairs = symplectic_gram_schmidt([0b10, 0b01], 1)
        assert len(commuting) == 0 and pairs == [(0b10, 0b01)]

    def test_maximality(self):
        rng = np.random.default_rng(51)
        n = 4
        for _ in range(20):
            vecs = [int(v) for v in rng.integers(1, 1 << 2 * n, size=5)]
            commuting, pairs = symplectic_gram_schmidt(vecs, n)
            chosen = commuting + [v for v, _ in pairs]
            # pairwise commuting
            for i, a in enumerate(chosen):
                for b in chosen[i + 1 :]:
                    assert _anticommute(a, b, n) == 0
            # no original vector commutes with all chosen yet sits outside the span
            for v in vecs:
                if all(_anticommute(v, c, n) == 0 for c in chosen):
                    assert gf2.same_span(chosen, chosen + [v])


class TestFindSymmetries:
    def test_h2_group(self, h2_table):
        group = find_symmetries(h2_table)
        assert group.size == 3
        assert group.same_group(pauli_group(["ZZII", "ZIZI", "ZIIZ"]))
        for g in group.generators:
            assert all(commutes(g, op) for _, op in h2_table.terms)
            assert g.is_hermitian()

    def test_same_group_rejects_another_qubit_count(self):
        group = SymmetryGroup(4, tuple(pauli_group(["IZZI"])))
        assert group.same_group(pauli_group(["IZZI"]))
        assert not group.same_group(pauli_group(["ZIIZ"]))
        for labels in (["ZZI"], ["IIZZI"]):
            with pytest.raises(ValueError, match="qubit count"):
                group.same_group(pauli_group(labels))

    def test_single_x_is_its_own_symmetry(self):
        group = find_symmetries(single_term(1, "X"))
        assert [g.label for g in group.generators] == ["X"]

    def test_no_symmetries(self):
        h = QubitHamiltonian(
            1,
            (
                (1.0, PauliOperator.from_label("X")),
                (1.0, PauliOperator.from_label("Z")),
            ),
        )
        assert find_symmetries(h).size == 0

    def test_parity_encoded_molecule_has_spin_z_symmetries(self, h2_fermionic):
        q = encode_hamiltonian(h2_fermionic, build_encoding("parity", 4))
        group = find_symmetries(q)
        vectors = group.vectors()
        for qubit in (2, 4):  # M/2 and M
            assert gf2.same_span(vectors, vectors + [_xz(PauliOperator.single(4, qubit, "Z"))])

    def test_deterministic(self, h2_table):
        a = find_symmetries(h2_table)
        b = find_symmetries(h2_table)
        assert [g.label for g in a.generators] == [g.label for g in b.generators]


class TestBuildPlan:
    def test_h2_paired_qubits(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        assert plan.paired_qubits == (2, 3, 4)
        assert [g.label for g in plan.generators] == ["ZZII", "ZIZI", "ZIIZ"]

    def test_single_z_on_two_qubits(self):
        group = SymmetryGroup(2, (PauliOperator.from_label("ZI"),))
        plan = build_plan(group)
        assert plan.paired_qubits == (1,)

    def test_highest_index_pivot(self):
        group = SymmetryGroup(2, (PauliOperator.from_label("ZZ"),))
        plan = build_plan(group)
        assert plan.paired_qubits == (2,)

    def test_x_generator_pairs_with_z(self):
        plan = build_plan(find_symmetries(single_term(1, "X")))
        assert [g.label for g in plan.generators] == ["X"]
        assert [(a.label, b.label) for a, b in plan.reflections()] == [("Z", "X"), ("X", "Z")]

    def test_xx_plus_zz_tapers(self, tmp_path):
        # XX and ZZ use two letters on each qubit; both are symmetries
        pauli = tmp_path / "xxzz.txt"
        pauli.write_text("# qubits 2\n1 0 XX\n1 0 ZZ\n")
        out, report = tmp_path / "t.txt", tmp_path / "r.json"
        assert main(["taper", "--input", str(pauli), "--output", str(out),
                     "--report", str(report)]) == 0
        assert hamiltonian_from_text(out.read_text()).qubit_count == 0
        energies = json.loads(report.read_text())["sector_energies"]
        assert sorted(energies.values()) == pytest.approx([-2, 0, 0, 2])

    def test_generators_that_do_not_commute_are_rejected(self):
        for labels in (("XI", "ZZ"), ("XXII", "IYYI", "IIZX")):
            with pytest.raises(ValueError, match="do not commute"):
                build_plan(SymmetryGroup(len(labels[0]), tuple(pauli_group(labels))))

    def test_dependent_generators_are_rejected(self):
        group = SymmetryGroup(2, tuple(pauli_group(("XX", "ZZ", "YY"))))
        with pytest.raises(ValueError, match="not independent"):
            build_plan(group)

    def test_plan_generators_anticommute_only_with_their_x(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        for i, q in enumerate(plan.paired_qubits):
            x_op = PauliOperator.single(4, q, "X")
            for j, tau in enumerate(plan.generators):
                assert commutes(x_op, tau) == (i != j)


def per_term_clifford_transform(h: QubitHamiltonian, plan: TaperingPlan) -> QubitHamiltonian:
    """The oracle: each term taken through the plan's reflections on Python ints.

    A term keeps its masks where it commutes with both a and b, is negated
    where it anticommutes with both, and is multiplied by a*b (b*a) where it
    anticommutes with a (b) alone; the terms are merged once at the end.
    """
    h = h.canonicalize()
    n = h.qubit_count
    xs, zs, cs = [], [], []
    for x, z, c in zip(*map(gf2.word_ints, (h.x_masks, h.z_masks)), h.coeffs.tolist()):
        op = PauliOperator.from_masks(n, x, z, (x & z).bit_count())
        for a, b in plan.reflections():
            anti_a, anti_b = not commutes(op, a), not commutes(op, b)
            if anti_a and anti_b:
                c = -c
            elif anti_a:
                op = pauli_multiply(pauli_multiply(a, b), op)
            elif anti_b:
                op = pauli_multiply(pauli_multiply(b, a), op)
        xs.append(op.x_mask)
        zs.append(op.z_mask)
        cs.append(c * 1j ** ((op.phase_power - op.y_count) % 4))
    return QubitHamiltonian.from_masks(n, xs, zs, cs).canonicalize()


class TestCliffordTransform:
    def test_h2_transformed_table(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        transformed = clifford_transform(h2_table, plan)
        assert transformed.operator_set() == set(H2_TRANSFORMED)
        assert len(transformed) == len(h2_table.canonicalize())

    def test_h2_isospectral(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        transformed = clifford_transform(h2_table, plan)
        a = np.sort(np.linalg.eigvalsh(h2_table.dense()))
        b = np.sort(np.linalg.eigvalsh(transformed.dense()))
        assert np.abs(a - b).max() < 1e-12

    def test_generator_maps_to_single_x(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        for tau, q in zip(plan.generators, plan.paired_qubits):
            h = QubitHamiltonian(4, ((1.0, tau),))
            image = clifford_transform(h, plan)
            assert [op.label for _, op in image.terms] == [
                PauliOperator.single(4, q, "X").label
            ]

    def test_trivial_plan_is_identity(self, h2_table):
        plan = TaperingPlan(4, (), ())
        out = clifford_transform(h2_table, plan)
        canon = h2_table.canonicalize()
        assert (gf2.word_ints(out.x_masks), gf2.word_ints(out.z_masks)) == \
            (gf2.word_ints(canon.x_masks), gf2.word_ints(canon.z_masks))
        assert out.x_masks.dtype == out.z_masks.dtype == np.uint64
        assert out.x_masks.shape == out.z_masks.shape == (len(out), 1)
        assert out.coeffs.tolist() == pytest.approx(canon.coeffs.tolist())

    @pytest.mark.parametrize("n", [8, 64, 66, 70, 130])
    def test_matches_the_reflections_term_by_term(self, n):
        # one mask word up to 64 qubits, two or three past that; complex
        # coefficients, so every phase the reflections give shows.  The plan
        # is q's, applied to q and to random Paulis that need not commute
        # with its generators: those can anticommute with both a and b
        q = wide_sum(n, n)
        plan = build_plan(find_symmetries(q))
        assert plan.size >= 3 and any(not sigma.z_mask for sigma, _ in plan.reflections())
        rng = np.random.default_rng(n)
        extra = [[int.from_bytes(rng.bytes(17), "big") >> (136 - n) for _ in range(100)]
                 for _ in range(2)]
        xs, zs = (gf2.word_ints(masks) + more
                  for masks, more in zip((q.x_masks, q.z_masks), extra))
        for h in (q, QubitHamiltonian.from_masks(
                n, xs, zs, [complex(*rng.normal(size=2)) for _ in xs])):
            got, want = clifford_transform(h, plan), per_term_clifford_transform(h, plan)
            assert got == want
            assert list(map(repr, got.coeffs.tolist())) == list(map(repr, want.coeffs.tolist()))

    def test_reflections_square_to_identity_and_commute(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        mats = []
        for tau, q in zip(plan.generators, plan.paired_qubits):
            u = (PauliOperator.single(4, q, "X").dense() + tau.dense()) / np.sqrt(2)
            mats.append(u)
            assert np.allclose(u @ u, np.eye(16), atol=1e-12)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.allclose(mats[i] @ mats[j], mats[j] @ mats[i], atol=1e-12)


class TestTaper:
    def test_h2_any_sector_single_qubit(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        transformed = clifford_transform(h2_table, plan)
        for sector in all_sectors(3):
            reduced = taper(transformed, plan, sector)
            assert reduced.qubit_count == 1

    def test_identity_action_keeps_coefficients(self):
        h = QubitHamiltonian(
            2,
            (
                (0.5, PauliOperator.from_label("ZI")),
                (0.25, PauliOperator.from_label("II")),
            ),
        )
        group = SymmetryGroup(2, (PauliOperator.from_label("IZ"),))
        plan = build_plan(group)
        transformed = clifford_transform(h, plan)
        reduced = taper(transformed, plan, (1,))
        # 0.25 I + 0.5 Z on the one qubit left
        assert gf2.word_ints(reduced.x_masks) == [0, 0]
        assert gf2.word_ints(reduced.z_masks) == [0, 1]
        assert reduced.x_masks.dtype == reduced.z_masks.dtype == np.uint64
        assert reduced.x_masks.shape == reduced.z_masks.shape == (2, 1)
        assert reduced.coeffs.tolist() == pytest.approx([0.25, 0.5])

    def test_sector_union_matches_spectrum(self):
        rng = np.random.default_rng(61)
        for m in (3, 4, 5, 6):
            h = random_hamiltonian(m, 2, rng)
            q = encode_hamiltonian(h, build_encoding("jordan_wigner", m))
            group = find_symmetries(q)
            plan = build_plan(group, q)
            transformed = clifford_transform(q, plan)
            union = np.sort(
                np.concatenate(list(all_block_sector_spectra(q, plan, transformed).values()))
            )
            ref = np.sort(np.linalg.eigvalsh(dense_fock_matrix(h)))
            assert np.abs(union - ref).max() < 1e-9

    def test_rotated_generators_taper_exactly(self):
        # conjugate qubit 1 by (X+Z)/sqrt2 and qubit 2 by (Y+Z)/sqrt2: the
        # Z-type symmetries turn X- and Y-type there
        hadamard = {"I": (1, "I"), "X": (1, "Z"), "Y": (-1, "Y"), "Z": (1, "X")}
        y_z = {"I": (1, "I"), "X": (-1, "X"), "Y": (1, "Z"), "Z": (1, "Y")}
        rng = np.random.default_rng(67)
        for m in (4, 5):
            h = random_hamiltonian(m, 2, rng)
            terms = []
            for c, op in encode_hamiltonian(h, build_encoding("jordan_wigner", m)).terms:
                letters = list(op.label)
                sign = 1
                for q, table in ((1, hadamard), (2, y_z)):
                    flip, letters[q - 1] = table[letters[q - 1]]
                    sign *= flip
                terms.append((sign * c, PauliOperator.from_label("".join(letters))))
            q = QubitHamiltonian(m, terms)
            plan = build_plan(find_symmetries(q), q)
            transformed = clifford_transform(q, plan)
            assert all(op.letter_at(p) in "IX" for _, op in transformed.terms
                       for p in plan.paired_qubits)
            union = np.sort(
                np.concatenate(list(all_block_sector_spectra(q, plan, transformed).values()))
            )
            ref = np.sort(np.linalg.eigvalsh(dense_fock_matrix(h)))
            assert np.abs(union - ref).max() < 1e-9

    def test_transform_is_conjugation_by_the_plan_unitary(self):
        # every Pauli, symmetric or not, against the dense U = ... U_2 U_1
        # with U_k = (a_k + b_k)/sqrt2 over the plan's reflections in order
        # in IZZ,YXX,ZZI the qubit-1 step turns YXX (paired with Z_2) into XYX
        for labels in (("XYZI", "IIZZ"), ("XX", "ZZ"), ("XXII", "ZZYY", "IIZX"),
                       ("IZZ", "YXX", "ZZI")):
            n = len(labels[0])
            plan = build_plan(SymmetryGroup(n, tuple(pauli_group(labels))))
            u = np.eye(1 << n)
            for a, b in plan.reflections():
                u = (a.dense() + b.dense()) / np.sqrt(2) @ u
            for q, tau in zip(plan.paired_qubits, plan.generators):
                x_q = PauliOperator.single(n, q, "X").dense()
                assert np.allclose(u @ tau.dense() @ u.conj().T, x_q, atol=1e-12)
            for letters in itertools.product("IXYZ", repeat=n):
                p = QubitHamiltonian(n, ((0.5, PauliOperator.from_label("".join(letters))),))
                image = clifford_transform(p, plan)
                assert len(image) == 1
                assert np.allclose(image.dense(), u @ p.dense() @ u.conj().T, atol=1e-12)

    def test_every_three_qubit_group_maps_to_single_x(self):
        # every independent commuting triple of 3-qubit Paulis: generator i
        # (coefficient i + 1) must come out as +X on its paired qubit
        paulis = [PauliOperator.from_label("".join(l))
                  for l in itertools.product("IXYZ", repeat=3)][1:]
        count = 0
        for group in itertools.combinations(paulis, 3):
            if not all(commutes(a, b) for a, b in itertools.combinations(group, 2)):
                continue
            if gf2.rank(SymmetryGroup(3, group).vectors()) < 3:
                continue
            plan = build_plan(SymmetryGroup(3, group))
            h = QubitHamiltonian(3, [(i + 1.0, g) for i, g in enumerate(plan.generators)])
            want = {PauliOperator.single(3, q, "X").label: i + 1.0
                    for i, q in enumerate(plan.paired_qubits)}
            got = {op.label: c for c, op in clifford_transform(h, plan).terms}
            assert got == pytest.approx(want), [g.label for g in group]
            count += 1
        assert count > 1000

    def test_bad_sector_length(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        with pytest.raises(ValueError):
            taper(clifford_transform(h2_table, plan), plan, (1,))

    def test_untransformed_input_rejected(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        with pytest.raises(ValueError):
            taper(h2_table, plan, (1, 1, 1))

    def test_taper_to_zero_qubits(self):
        h = single_term(1, "X")
        plan = build_plan(find_symmetries(h))
        transformed = clifford_transform(h, plan)
        for sector in ((1,), (-1,)):
            reduced = taper(transformed, plan, sector)
            assert reduced.qubit_count == 0
            value = sum(c.real for c, _ in reduced.terms)
            assert value == pytest.approx(sector[0])

    def test_zero_qubit_sector_spectra(self):
        # 0.5 I + 0.3 Z: Z is the symmetry, each sector leaves one number
        h = QubitHamiltonian(1, ((0.5, PauliOperator.from_label("I")),
                                 (0.3, PauliOperator.from_label("Z"))))
        plan = build_plan(find_symmetries(h), h)
        spectra = all_block_sector_spectra(h, plan)
        assert {s: v.tolist() for s, v in spectra.items()} == \
            {(1,): [pytest.approx(0.8)], (-1,): [pytest.approx(0.2)]}
        empty = QubitHamiltonian.zero(1)
        plan = build_plan(find_symmetries(empty), empty)
        assert all(v.tolist() == [0.0] for v in all_block_sector_spectra(empty, plan).values())

    def test_chosen_sectors_keep_their_order(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        every = all_block_sector_spectra(h2_table, plan)
        picked = [(-1, 1, -1), (1, 1, 1)]
        some = all_block_sector_spectra(h2_table, plan, sectors=picked)
        assert list(some) == picked
        for sector in picked:
            assert np.array_equal(some[sector], every[sector])
        assert all(np.all(np.diff(v) >= 0) for v in every.values())


def whole_sector_spectra(q: QubitHamiltonian, plan: TaperingPlan) -> dict:
    """The oracle: eigvalsh of every whole tapered sector matrix."""
    transformed = clifford_transform(q, plan)
    return {s: np.linalg.eigvalsh(taper(transformed, plan, s).dense())
            for s in all_sectors(plan.size)}


def all_block_spectra(blocks: BasisBlocks) -> list[np.ndarray]:
    """The all-blocks oracle: each sum's ascending spectrum, one eigvalsh per block."""
    n = blocks.qubit_count
    parts = [[] for _ in range(len(blocks.labels) >> n)]
    for states in blocks.blocks():
        inside = blocks.labels[blocks.sources] == states[0]
        mat = np.zeros((len(states), len(states)), dtype=complex)
        mat[np.searchsorted(states, blocks.targets[inside]),
            np.searchsorted(states, blocks.sources[inside])] = blocks.values[inside]
        parts[states[0] >> n].append(np.linalg.eigvalsh(mat))
    return [np.sort(np.concatenate(spectra)) for spectra in parts]


def all_block_sector_spectra(q: QubitHamiltonian, plan: TaperingPlan,
                             transformed: QubitHamiltonian | None = None, sectors=None) -> dict:
    """Each sector's spectrum from the all-blocks oracle, whose least entries
    sector_energies must equal bit for bit."""
    if transformed is None:
        transformed = clifford_transform(q, plan)
    sectors = all_sectors(plan.size) if sectors is None else list(sectors)
    tapered = taper_sectors(transformed, plan, sectors)
    spectra = dict(zip(tapered, all_block_spectra(BasisBlocks(tapered.values()))))
    energies = sector_energies(q, plan, transformed, sectors)
    assert list(energies) == list(spectra)
    assert all(energies[s] == spectrum[0] for s, spectrum in spectra.items())
    return spectra


def assert_matches_the_oracle(q: QubitHamiltonian, plan: TaperingPlan) -> int:
    """sector_energies(q, plan) and the all-blocks spectra against the oracle;
    returns the largest matrix sector_energies diagonalized."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    with mock.patch("numpy.linalg.eigvalsh", lambda mat: sizes.append(len(mat)) or eigvalsh(mat)):
        energies = sector_energies(q, plan)
    spectra = all_block_sector_spectra(q, plan)
    oracle = whole_sector_spectra(q, plan)
    assert list(energies) == list(spectra) == list(oracle)
    for sector, spectrum in oracle.items():
        assert spectra[sector].shape == spectrum.shape
        assert np.abs(spectra[sector] - spectrum).max() <= 1e-10
        assert abs(energies[sector] - spectrum[0]) <= 1e-10
    return max(sizes)


class TestBasisBlocks:
    @pytest.mark.parametrize("kind", ["jordan_wigner", "parity", "binary_tree"])
    @pytest.mark.parametrize("m", [4, 8])
    def test_spin_conserving_inputs_match_the_oracle(self, kind, m):
        # the largest matrix is the half-filled spin block, C(m/2, m/4)^2
        # states: at m = 8 that is 36 of a sector's 64, so no whole tapered
        # sector matrix is diagonalized
        q = encode_hamiltonian(spin_conserving_hamiltonian(m, m), build_encoding(kind, m))
        plan = build_plan(find_symmetries(q), q)
        assert plan.size == 2 and not any(g.x_mask for g in plan.generators)
        assert assert_matches_the_oracle(q, plan) == math.comb(m // 2, m // 4) ** 2

    def test_h2_matches_the_oracle(self, h2_table, h2_fermionic):
        for q in (h2_table, encode_hamiltonian(h2_fermionic, build_encoding("parity", 4))):
            assert_matches_the_oracle(q, build_plan(find_symmetries(q), q))

    def test_zero_qubit_sectors_match_the_oracle(self):
        # plans that taper every qubit: Z-type ones, the empty sum's (it has
        # X letters), no generators on zero qubits, and a single X's
        cases = [QubitHamiltonian(1, ((0.5, PauliOperator.from_label("I")),
                                      (0.3, PauliOperator.from_label("Z")))),
                 QubitHamiltonian.zero(2),
                 QubitHamiltonian(0, ((2.0, PauliOperator.from_masks(0, 0, 0)),)),
                 single_term(1, "X")]
        for q in cases:
            plan = build_plan(find_symmetries(q), q)
            assert plan.size == q.qubit_count
            assert assert_matches_the_oracle(q, plan) == 1

    def test_blocks_join_states_by_summed_values(self):
        # XX + YY hops |01> <-> |10> but cancels on |00> <-> |11>, which XX alone joins
        hop = QubitHamiltonian(2, ((0.5, PauliOperator.from_label("XX")),
                                   (0.5, PauliOperator.from_label("YY"))))
        blocks = BasisBlocks([hop])
        assert [b.tolist() for b in blocks.blocks()] == [[0], [1, 2], [3]]
        assert all_block_spectra(blocks)[0].tolist() == pytest.approx([-1, 0, 0, 1])
        assert blocks.lowest() == [pytest.approx(-1)]
        xx = QubitHamiltonian(2, ((1.0, PauliOperator.from_label("XX")),))
        assert [b.tolist() for b in BasisBlocks([xx]).blocks()] == [[0, 3], [1, 2]]

    def test_sector_blocks_are_particle_number_blocks(self):
        # the reflections send each sector's input basis states to tapered
        # basis states, so the blocks keep C(3, a) * C(3, b) states
        q = encode_hamiltonian(spin_conserving_hamiltonian(6, 3), build_encoding("parity", 6))
        plan = build_plan(find_symmetries(q), q)
        transformed = clifford_transform(q, plan)
        sizes = sorted(len(b) for s in all_sectors(plan.size)
                       for b in BasisBlocks([taper(transformed, plan, s)]).blocks())
        want = sorted(len(list(itertools.combinations(range(3), a)))
                      * len(list(itertools.combinations(range(3), b)))
                      for a in range(4) for b in range(4))
        assert sizes == want

    def test_several_sums_keep_their_own_blocks(self):
        # the four tapered sectors on one offset register: no block crosses
        # from one sum to the next, and each sum's spectrum is its own
        q = encode_hamiltonian(spin_conserving_hamiltonian(6, 3), build_encoding("parity", 6))
        plan = build_plan(find_symmetries(q), q)
        sums = list(taper_sectors(clifford_transform(q, plan), plan, all_sectors(2)).values())
        n = sums[0].qubit_count
        together = BasisBlocks(sums)
        assert len(together.labels) == len(sums) << n
        assert all(len(set((b >> n).tolist())) == 1 for b in together.blocks())
        spectra = all_block_spectra(together)
        assert together.lowest() == [spectrum[0] for spectrum in spectra]
        for h, spectrum in zip(sums, spectra):
            assert np.array_equal(spectrum, all_block_spectra(BasisBlocks([h]))[0])
        with pytest.raises(ValueError, match="qubit count mismatch"):
            BasisBlocks([sums[0], QubitHamiltonian.zero(n + 1)])

    def test_wide_x_groups_build_their_signs_in_chunks(self):
        # 9 qubits: at most 2^16 / 2^9 = 128 sign rows at once.  An x mask
        # with 300 z masks in each of two sums is built in chunks of each
        # sum; one with 50 in each is built once for both sums
        n, x_narrow, x_wide = 9, 0b011000000, 0b100100001

        def random_sum(seed):
            rng = np.random.default_rng(seed)
            narrow = rng.choice(1 << n, 50, replace=False).tolist()
            wide = rng.choice(1 << n, 300, replace=False).tolist()
            xs = [x_narrow] * len(narrow) + [x_wide] * len(wide)
            return QubitHamiltonian.from_masks(n, xs, narrow + wide,
                                               rng.normal(size=len(xs)).tolist()).canonicalize()

        sums = [random_sum(1), random_sum(2)]
        narrow = {z for h in sums
                  for x, z in zip(gf2.word_ints(h.x_masks), gf2.word_ints(h.z_masks))
                  if x == x_narrow}
        shapes = []
        bitwise_count = np.bitwise_count

        def count_2d(a, *args, **kwargs):
            if np.ndim(a) == 2:
                shapes.append(a.shape)
            return bitwise_count(a, *args, **kwargs)

        with mock.patch("numpy.bitwise_count", count_2d):
            blocks = BasisBlocks(sums)
        assert sorted(shapes) == sorted([(len(narrow), 512)] + [(128, 512), (128, 512), (44, 512)] * 2)
        together = all_block_spectra(blocks)
        assert blocks.lowest() == [spectrum[0] for spectrum in together]
        for h, spectrum in zip(sums, together):
            assert np.array_equal(spectrum, all_block_spectra(BasisBlocks([h]))[0])
            assert np.abs(spectrum - np.linalg.eigvalsh(h.dense())).max() <= 1e-10

    def test_sectors_are_checked(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        with pytest.raises(ValueError, match="sector needs 3 entries"):
            sector_energies(h2_table, plan, sectors=[(1,)])
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            sector_energies(h2_table, plan, sectors=[(1, 0, 1)])

    @pytest.mark.parametrize("kind", ["jordan_wigner", "parity", "binary_tree"])
    @pytest.mark.parametrize("m", [4, 6, 8, 10])
    def test_spin_symmetric_inputs_match_every_block(self, kind, m):
        # swapping the spins maps the (a, b) block onto the (b, a) one, so a
        # sector's lowest energy can sit in two blocks: the certificate must
        # not skip the second
        q = encode_hamiltonian(spin_symmetric_hamiltonian(m, m), build_encoding(kind, m))
        plan = build_plan(find_symmetries(q), q)
        assert plan.size == 2
        assert_matches_the_oracle(q, plan)

    def test_blocks_above_the_lowest_skip_eigvalsh(self):
        # spin-conserving M=10: each sum's first block runs eigvalsh, every
        # later one a Cholesky test, and most of those pass
        q = encode_hamiltonian(spin_conserving_hamiltonian(10, 10),
                               build_encoding("jordan_wigner", 10))
        plan = build_plan(find_symmetries(q), q)
        tapered = taper_sectors(clifford_transform(q, plan), plan, all_sectors(plan.size))
        blocks = BasisBlocks(tapered.values())
        calls = {"eigvalsh": [], "cholesky": []}
        real = {name: getattr(np.linalg, name) for name in calls}

        def counted(name):
            return lambda mat: calls[name].append(len(mat)) or real[name](mat)

        with mock.patch("numpy.linalg.eigvalsh", counted("eigvalsh")), \
                mock.patch("numpy.linalg.cholesky", counted("cholesky")):
            lowest = blocks.lowest()
        sizes = [len(states) for states in blocks.blocks()]
        assert lowest == [spectrum[0] for spectrum in all_block_spectra(blocks)]
        assert len(calls["cholesky"]) == len(sizes) - len(tapered)
        assert len(tapered) <= len(calls["eigvalsh"]) < len(sizes)
        assert sum(n ** 3 for n in calls["eigvalsh"]) < sum(n ** 3 for n in sizes)


def planted_blocks(sums: list[list[np.ndarray]]) -> BasisBlocks:
    """A BasisBlocks whose sum i holds the given Hermitian blocks on its
    first states, one after another, and 1x1 zero blocks on the rest: the
    edge arrays and labels the constructor leaves, set directly."""
    n = max(sum(len(mat) for mat in mats) - 1 for mats in sums).bit_length()
    labels = np.arange(len(sums) << n)
    sources, targets, values = [labels[:0]], [labels[:0]], [np.zeros(0, dtype=complex)]
    for i, mats in enumerate(sums):
        start = i << n
        for mat in mats:
            t, s = np.nonzero(np.tril(mat))
            sources.append(start + s)
            targets.append(start + t)
            values.append(mat[t, s])
            labels[start:start + len(mat)] = start
            start += len(mat)
    blocks = object.__new__(BasisBlocks)
    blocks.qubit_count, blocks.labels = n, labels
    blocks.sources, blocks.targets, blocks.values = map(np.concatenate, (sources, targets, values))
    return blocks


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_lowest_is_the_least_block_eigenvalue(seed, sum_count, ulps):
    # ties planted in every sum: an exact copy of its largest block, and a
    # copy shifted by ulps units in the last place of that block's minimum
    rng = np.random.default_rng(seed)

    def hermitian(size):
        raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        mat = (raw + raw.conj().T) / 2
        mat[np.tril(rng.random((size, size)) < 0.3, -1)] = 0  # sparse lower triangle
        return mat

    sums = []
    for _ in range(sum_count):
        mats = [hermitian(int(size)) for size in rng.integers(1, 10, size=rng.integers(1, 5))]
        largest = max(mats, key=len)
        shift = ulps * np.spacing(abs(np.linalg.eigvalsh(largest)[0]))
        mats += [largest.copy(), largest + shift * np.eye(len(largest))]
        sums.append([mats[k] for k in rng.permutation(len(mats))])
    blocks = planted_blocks(sums)
    assert len(blocks.blocks()) >= sum(len(mats) for mats in sums)
    assert blocks.lowest() == [spectrum[0] for spectrum in all_block_spectra(blocks)]


def per_term_taper(h_transformed: QubitHamiltonian, plan: TaperingPlan, sector) -> QubitHamiltonian:
    """The oracle: one sector's walk over every term, then one merge."""
    sector = tuple(int(s) for s in sector)
    if len(sector) != plan.size:
        raise ValueError(f"sector needs {plan.size} entries")
    if any(s not in (1, -1) for s in sector):
        raise ValueError("sector entries must be +1 or -1")
    h = h_transformed.canonicalize()
    n = h.qubit_count
    paired = negative = 0
    for q, s in zip(plan.paired_qubits, sector):
        paired |= 1 << (n - q)
        if s < 0:
            negative |= 1 << (n - q)
    drop = sorted((n - q for q in plan.paired_qubits), reverse=True)
    xs, zs, cs = [], [], []
    for x, z, c in zip(*map(gf2.word_ints, (h.x_masks, h.z_masks)), h.coeffs.tolist()):
        if z & paired:
            op = PauliOperator.from_masks(n, x, z, (x & z).bit_count())
            q = next(q for q in plan.paired_qubits if op.letter_at(q) not in "IX")
            raise ValueError(
                f"term {op.label} acts on paired qubit {q} by {op.letter_at(q)}; "
                "run clifford_transform first"
            )
        xs.append(gf2.drop_bits(x, drop))
        zs.append(gf2.drop_bits(z, drop))
        cs.append(-c if (x & negative).bit_count() & 1 else c)
    return QubitHamiltonian.from_masks(n - plan.size, xs, zs, cs).canonicalize()


def assert_sectors_match_the_walk(transformed: QubitHamiltonian, plan: TaperingPlan) -> None:
    """taper_sectors over every sector against the per-term walk, bit for bit."""
    sectors = all_sectors(plan.size)
    tapered = taper_sectors(transformed, plan, sectors)
    assert list(tapered) == sectors
    for sector, got in tapered.items():
        want = per_term_taper(transformed, plan, sector)
        assert got == want and got.canonical
        assert list(map(repr, got.coeffs.tolist())) == list(map(repr, want.coeffs.tolist()))
        assert taper(transformed, plan, sector) == want


def wide_sum(n: int, seed: int, base: int = 150) -> QubitHamiltonian:
    """Random weight-6 Paulis on n qubits that keep Z_1, Z_2 Z_n and X_3 X_4, and
    each of them also times some of those three, so tapered terms merge."""
    rng = np.random.default_rng(seed)

    def bit(q):
        return 1 << (n - q)

    symmetries = [(0, bit(1)), (0, bit(2) | bit(n)), (bit(3) | bit(4), 0)]
    xs, zs, cs = [], [], []
    for _ in range(base):
        x = z = 0
        for q in rng.choice(np.arange(1, n + 1), 6, replace=False).tolist():
            letter = int(rng.integers(4))
            x |= (letter & 1) * bit(q)
            z |= (letter >> 1) * bit(q)
        x &= ~bit(1)  # I or Z on qubit 1
        if (x >> (n - 2) ^ x) & 1:  # an even number of X's or Y's on qubits 2 and n
            x ^= bit(n)
        if (z >> (n - 4) ^ z >> (n - 3)) & 1:  # and of Z's or Y's on qubits 3 and 4
            z ^= bit(4)
        for sx, sz in [(0, 0)] + [s for s in symmetries if rng.random() < 0.5]:
            xs.append(x ^ sx)
            zs.append(z ^ sz)
            cs.append(complex(rng.normal(), 0.0))
    return QubitHamiltonian.from_masks(n, xs, zs, cs).canonicalize()


class TestTaperSectors:
    def test_h2_matches_the_walk(self, h2_table, h2_fermionic):
        cases = [h2_table] + [encode_hamiltonian(h2_fermionic, build_encoding(kind, 4))
                              for kind in ("jordan_wigner", "parity", "binary_tree")]
        for q in cases:
            plan = build_plan(find_symmetries(q), q)
            assert plan.size == 3
            assert_sectors_match_the_walk(clifford_transform(q, plan), plan)

    def test_spin_conserving_sums_match_the_walk(self):
        for kind in ("jordan_wigner", "parity", "binary_tree"):
            q = encode_hamiltonian(spin_conserving_hamiltonian(8, 5), build_encoding(kind, 8))
            plan = build_plan(find_symmetries(q), q)
            assert_sectors_match_the_walk(clifford_transform(q, plan), plan)

    def test_zero_generator_plans_match_the_walk(self):
        # no symmetry at all, and an empty plan on a sum that has some
        xz = QubitHamiltonian(1, ((0.5, PauliOperator.from_label("X")),
                                  (0.25, PauliOperator.from_label("Z"))))
        assert find_symmetries(xz).size == 0
        for q in (xz, QubitHamiltonian.zero(2), encode_hamiltonian(
                spin_conserving_hamiltonian(4, 3), build_encoding("parity", 4))):
            plan = build_plan(SymmetryGroup(q.qubit_count, ()))
            tapered = taper_sectors(clifford_transform(q, plan), plan, [()])
            assert list(tapered) == [()] and tapered[()] == q.canonicalize()
            assert_sectors_match_the_walk(clifford_transform(q, plan), plan)

    @pytest.mark.parametrize("n", [64, 66, 70])
    def test_wide_sums_match_the_walk(self, n):
        # past 64 qubits the masks are Python ints in object arrays; at 64 the
        # plan pairs qubit 1, so the paired bits are dropped at bit 63 of uint64
        q = wide_sum(n, n)
        plan = build_plan(find_symmetries(q), q)
        assert plan.size == 3 and plan.paired_qubits[0] == 1
        transformed = clifford_transform(q, plan)
        assert_sectors_match_the_walk(transformed, plan)
        tapered = taper_sectors(transformed, plan, all_sectors(3))
        assert sum(map(len, tapered.values())) < len(all_sectors(3)) * len(transformed)

    def test_each_sector_is_one_merge(self):
        q = encode_hamiltonian(spin_conserving_hamiltonian(8, 5), build_encoding("parity", 8))
        plan = build_plan(find_symmetries(q), q)
        transformed = clifford_transform(q, plan)
        assert transformed.canonical
        sectors = all_sectors(plan.size)
        merged, calls = QubitHamiltonian.merged, []

        def counted(*args):
            calls.append(args[0])
            return merged(*args)

        with mock.patch.object(QubitHamiltonian, "merged", counted):
            tapered = taper_sectors(transformed, plan, sectors)
        assert calls == [q.qubit_count - plan.size] * len(sectors)
        assert list(tapered) == sectors
        assert not hasattr(tapering, "_ranks")

    def test_sector_count_cap(self):
        assert len(all_sectors(10)) == limits.SECTOR_COUNT_CAP == 1 << 10
        with pytest.raises(ValueError, match=r"^11 symmetries give 2\^11 sectors, over the cap "
                                             r"of 1024 enumerated at once"):
            all_sectors(11)

    def test_errors_match_the_walk(self, h2_table):
        plan = build_plan(find_symmetries(h2_table), h2_table)
        transformed = clifford_transform(h2_table, plan)
        cases = [(h2_table, (1, 1, 1)), (transformed, (1,)), (transformed, (1, 0, 1)),
                 (transformed, (1, 1, 1, 1))]
        messages = []
        for h, sector in cases:
            with pytest.raises(ValueError) as want:
                per_term_taper(h, plan, sector)
            with pytest.raises(ValueError) as got:
                taper_sectors(h, plan, [(1, 1, 1), sector])
            assert str(got.value) == str(want.value)
            messages.append(str(got.value))
        assert messages[0].endswith("run clifford_transform first")
        assert messages[1:] == ["sector needs 3 entries", "sector entries must be +1 or -1",
                                "sector needs 3 entries"]

    def test_sector_spectra_walk_the_terms_once(self):
        # one drop of the paired bits per distinct tapered key, for all four
        # sectors, and one sign matrix per x mask of the tapered sums
        q = encode_hamiltonian(spin_conserving_hamiltonian(6, 2), build_encoding("parity", 6))
        plan = build_plan(find_symmetries(q), q)
        transformed = clifford_transform(q, plan)
        x_masks = {x for h in taper_sectors(transformed, plan, all_sectors(2)).values()
                   for x in gf2.word_ints(h.x_masks)}
        drops, sign_matrices = [], []
        drop_bits, bitwise_count = gf2.drop_word_bits, np.bitwise_count

        def count_2d(a, *args, **kwargs):
            if np.ndim(a) == 2:
                sign_matrices.append(a.shape)
            return bitwise_count(a, *args, **kwargs)

        with mock.patch.object(gf2, "drop_word_bits",
                               lambda *a: drops.append(1) or drop_bits(*a)), \
                mock.patch("numpy.bitwise_count", count_2d):
            sector_energies(q, plan, transformed)
        assert 0 < len(drops) <= len(transformed)
        assert len(sign_matrices) == len(x_masks)


def spin_parities_on_qubits(enc, n_up: int, n_down: int) -> bool:
    """Whether qubits M/2 and M of every encoded state with n_up electrons in
    modes 1..M/2 and n_down in M/2+1..M read (-1)^n_up and (-1)^(n_up+n_down)."""
    m = enc.modes
    want = ((-1) ** n_up, (-1) ** (n_up + n_down))
    for up in itertools.combinations(range(m // 2), n_up):
        for down in itertools.combinations(range(m // 2, m), n_down):
            occ = np.zeros(m, dtype=np.int64)
            occ[list(up + down)] = 1
            s = enc.matrix @ occ % 2  # the encoded basis label
            if ((-1) ** s[m // 2 - 1], (-1) ** s[m - 1]) != want:
                return False
    return True


class TestSpinSectorSigns:
    def test_singlet(self):
        assert spin_parities_on_qubits(build_encoding("parity", 4), 1, 1)

    def test_empty(self):
        assert spin_parities_on_qubits(build_encoding("binary_tree", 4), 0, 0)

    def test_mixed(self):
        assert spin_parities_on_qubits(build_encoding("parity", 8), 2, 1)

    def test_unsupported(self):
        # Jordan-Wigner, and a binary tree on a mode count that is not a power
        # of two, keep no spin parity on those two qubits
        assert not spin_parities_on_qubits(build_encoding("jordan_wigner", 4), 1, 1)
        assert not spin_parities_on_qubits(build_encoding("binary_tree", 6), 1, 1)

    @pytest.mark.parametrize("kind", ["parity", "binary_tree"])
    def test_spin_parity_conjugation_identity(self, kind):
        # encoded spin-up parity operator is the single Z on qubit M/2 and
        # the encoded total parity is the single Z on qubit M
        m = 4
        enc = build_encoding(kind, m)
        perm = enc.permutation_matrix()
        from fertaper.fermion import FockState

        up = np.diag([
            (-1.0) ** sum(FockState.from_index(m, i).occ[: m // 2])
            for i in range(1 << m)
        ])
        total = np.diag([
            (-1.0) ** FockState.from_index(m, i).weight for i in range(1 << m)
        ])
        z_half = PauliOperator.single(m, m // 2, "Z").dense()
        z_last = PauliOperator.single(m, m, "Z").dense()
        assert np.allclose(perm @ up @ perm.T, z_half)
        assert np.allclose(perm @ total @ perm.T, z_last)

    def test_signs_match_encoded_symmetry_eigenvalues(self):
        # qubits M/2 and M of the parity encoding carry the two spin parities.
        # Modes are blocked: 1..M/2 spin up, M/2+1..M spin down.
        enc = build_encoding("parity", 4)
        x = (1, 0, 1, 0)  # one spin-up electron, one spin-down
        up, total = (-1) ** sum(x[:2]), (-1) ** sum(x)
        s = enc.matrix @ x % 2
        assert (-1) ** int(s[1]) == up
        assert (-1) ** int(s[3]) == total


def blocked_spin_hydrogen(h2_fermionic):
    """Reorder the interleaved fixture to spin-up block then spin-down block."""
    import numpy as np

    from fertaper.fermion import FermionHamiltonian

    perm = [1, 3, 2, 4]
    t = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            t[i, j] = h2_fermionic.t[perm[i] - 1, perm[j] - 1]
    inverse = {old: new + 1 for new, old in enumerate(perm)}
    u = {
        (inverse[a], inverse[b], inverse[g], inverse[d]): v
        for (a, b, g, d), v in u_dict(h2_fermionic.u).items()
    }
    return FermionHamiltonian(4, 2, t, u)


class TestSpinSectorIntegration:
    def test_parity_encoded_molecule_singlet_sector(self, h2_fermionic):
        """Fixing the two spin-parity qubits by their physical eigenvalues
        recovers the one-up-one-down ground energy."""
        from fertaper.fermion import sector_matrix

        blocked = blocked_spin_hydrogen(h2_fermionic)
        enc = build_encoding("parity", 4)
        q = encode_hamiltonian(blocked, enc)
        plan = build_plan(find_symmetries(q), q)
        transformed = clifford_transform(q, plan)
        # qubits M/2 and M carry the spin-up and total parities
        z_half = PauliOperator.single(4, 2, "Z")
        z_last = PauliOperator.single(4, 4, "Z")
        assert z_half in plan.generators and z_last in plan.generators
        idx_half = plan.generators.index(z_half)
        idx_last = plan.generators.index(z_last)
        n_up, n_down = 1, 1
        up, total = (-1) ** n_up, (-1) ** (n_up + n_down)
        energies = []
        for sector in all_sectors(plan.size):
            if sector[idx_half] != up or sector[idx_last] != total:
                continue
            reduced = taper(transformed, plan, sector)
            energies.append(np.linalg.eigvalsh(reduced.dense())[0])
        reference = np.linalg.eigvalsh(sector_matrix(blocked, 2))[0]
        assert min(energies) == pytest.approx(reference, abs=1e-10)


class TestEndToEndHydrogen:
    def test_fermionic_pipeline_tapers_to_one_qubit(self, h2_fermionic):
        q = encode_hamiltonian(h2_fermionic, build_encoding("jordan_wigner", 4))
        group = find_symmetries(q)
        assert group.same_group(pauli_group(["ZZII", "ZIZI", "ZIIZ"]))
        plan = build_plan(group, q)
        transformed = clifford_transform(q, plan)
        ground = min(sector_energies(q, plan, transformed).values())
        ref = np.linalg.eigvalsh(q.dense())[0]
        assert ground == pytest.approx(ref, abs=1e-10)


# -- Clifford-scrambled oracle --------------------------------------------


def spin_conserving_hamiltonian(m: int, seed: int) -> FermionHamiltonian:
    """Random Hamiltonian keeping both spin numbers (odd modes spin up)."""
    rng = np.random.default_rng(seed)
    spin = np.arange(m + 1) % 2
    raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    t = (raw + raw.conj().T) / 4
    t[spin[1:, None] != spin[None, 1:]] = 0
    u: dict[tuple[int, int, int, int], complex] = {}
    while len(u) < 4:
        a, b, g, d = (int(v) for v in rng.integers(1, m + 1, size=4))
        if a == b or g == d or sorted((spin[a], spin[b])) != sorted((spin[g], spin[d])):
            continue
        val = complex(rng.normal(), rng.normal()) / 4
        u[(a, b, g, d)] = val.real if (a, b) == (d, g) else val
        u[(d, g, b, a)] = np.conj(u[(a, b, g, d)])
    return FermionHamiltonian(m, m // 2, t / max(1.0, np.abs(t).max()), u)


def spin_symmetric_hamiltonian(m: int, seed: int) -> FermionHamiltonian:
    """Random Hamiltonian unchanged when the spins swap (odd modes up).

    Both spins hop alike between spatial orbitals, each interaction comes
    with every assignment of spins to its outer and inner pair, and each
    orbital has a Hubbard term.
    """
    rng = np.random.default_rng(seed)
    k = m // 2
    raw = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    t = np.zeros((m, m), dtype=complex)
    t[0::2, 0::2] = t[1::2, 1::2] = (raw + raw.conj().T) / 4
    u = {(2 * p + 1, 2 * p + 2, 2 * p + 2, 2 * p + 1): 0.9 for p in range(k)}
    for _ in range(3):
        p, q, r, s = (int(v) for v in rng.integers(0, k, size=4))
        val = complex(rng.normal(), rng.normal()) / 4
        for outer, inner in itertools.product((1, 2), repeat=2):
            a, b, g, d = 2 * p + outer, 2 * q + inner, 2 * r + inner, 2 * s + outer
            if a != b and g != d:
                u[(a, b, g, d)] = val.real if (a, b) == (d, g) else val
                u[(d, g, b, a)] = np.conj(u[(a, b, g, d)])
    return FermionHamiltonian(m, k, t, u)


def clifford_image(op: PauliOperator, xs, zs) -> PauliOperator:
    """Image of i^p X^x Z^z given the images xs, zs of every X_q and Z_q."""
    out = PauliOperator.from_masks(op.n, 0, 0, op.phase_power)
    for masks, images in ((op.x_mask, xs), (op.z_mask, zs)):
        for q in range(1, op.n + 1):
            if masks >> (op.n - q) & 1:
                out = pauli_multiply(out, images[q - 1])
    return out


def circuit_images(n: int, gates):
    """Images of X_q and Z_q under a circuit of H, S and CNOT gates."""
    def single(q, letter):
        return PauliOperator.single(n, q, letter)

    xs = [single(q, "X") for q in range(1, n + 1)]
    zs = [single(q, "Z") for q in range(1, n + 1)]
    for name, a, b in gates:
        a, b = a % n + 1, b % n + 1
        gate_xs = [single(q, "X") for q in range(1, n + 1)]
        gate_zs = [single(q, "Z") for q in range(1, n + 1)]
        if name == "H":
            gate_xs[a - 1], gate_zs[a - 1] = single(a, "Z"), single(a, "X")
        elif name == "S":
            gate_xs[a - 1] = single(a, "Y")
        elif a != b:  # CNOT, control a, target b
            gate_xs[a - 1] = pauli_multiply(single(a, "X"), single(b, "X"))
            gate_zs[b - 1] = pauli_multiply(single(a, "Z"), single(b, "Z"))
        xs = [clifford_image(p, gate_xs, gate_zs) for p in xs]
        zs = [clifford_image(p, gate_xs, gate_zs) for p in zs]
    return xs, zs


GATES = st.lists(st.tuples(st.sampled_from("HSC"), st.integers(0, 5), st.integers(0, 5)),
                 max_size=24)


def scramble(h: QubitHamiltonian, gates) -> QubitHamiltonian:
    xs, zs = circuit_images(h.qubit_count, gates)
    return QubitHamiltonian(h.qubit_count, [(c, clifford_image(op, xs, zs)) for c, op in h.terms])


def assert_tapers_exactly(q: QubitHamiltonian, spectrum: np.ndarray) -> TaperingPlan:
    """Sector spectra of q against its full spectrum and its symmetry projectors."""
    plan = build_plan(find_symmetries(q), q)
    assert all(commutes(g, op) for g in plan.generators for _, op in q.terms)
    transformed = clifford_transform(q, plan)
    assert all(op.letter_at(p) in "IX" for _, op in transformed.terms
               for p in plan.paired_qubits)
    spectra = all_block_sector_spectra(q, plan, transformed)
    union = np.sort(np.concatenate(list(spectra.values())))
    assert np.allclose(union, spectrum, atol=1e-9)
    assert_matches_the_oracle(q, plan)
    assert_sectors_match_the_walk(transformed, plan)
    # sector s is H on the joint eigenspace where generator i has eigenvalue s_i
    dense, eye = q.dense(), np.eye(1 << q.qubit_count)
    for sector, sector_spectrum in spectra.items():
        projector = eye
        for s, g in zip(sector, plan.generators):
            projector = projector @ (eye + s * g.dense()) / 2
        weights, vectors = np.linalg.eigh(projector)
        basis = vectors[:, weights > 0.5]
        want = np.linalg.eigvalsh(basis.conj().T @ dense @ basis)
        assert np.allclose(sector_spectrum, want, atol=1e-9)
    return plan


@given(st.sampled_from([4, 6]), st.integers(0, 2**16), GATES)
@settings(max_examples=30, deadline=None)
def test_clifford_scrambled_spin_hamiltonians_taper_exactly(m, seed, gates):
    # a random Clifford mixes the two spin-parity Z strings into generators
    # with several letters per qubit; tapering must stay exact regardless
    h = spin_conserving_hamiltonian(m, seed)
    q = scramble(encode_hamiltonian(h, build_encoding("jordan_wigner", m)), gates)
    plan = assert_tapers_exactly(q, np.linalg.eigvalsh(dense_fock_matrix(h)))
    assert plan.size >= 2


@given(st.integers(0, 2**16), GATES)
@example(seed=0, gates=[("H", 0, 0), ("C", 0, 2)])
@settings(max_examples=30, deadline=None)
def test_clifford_scrambled_h2_table_tapers_exactly(seed, gates):
    # three generators: a later elimination step can turn the X a generator
    # has on its paired qubit into Y, as H on qubit 1 then CNOT 1->3 does
    coeffs = np.random.default_rng(seed).normal(size=len(H2_TABLE))
    h = QubitHamiltonian(4, [(c, PauliOperator.from_label(l)) for c, l in zip(coeffs, H2_TABLE)])
    plan = assert_tapers_exactly(scramble(h, gates), np.linalg.eigvalsh(h.dense()))
    assert plan.size == 3
