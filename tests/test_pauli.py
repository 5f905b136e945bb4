import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper import gf2, limits
from fertaper.pauli import (
    PauliOperator,
    QubitHamiltonian,
    commutes,
    hamiltonian_from_text,
    hamiltonian_to_text,
    pauli_multiply,
)
from tests.oracles import pauli_matrix_naive, product


def in_word_layout(h) -> bool:
    """Whether a sum's masks are C-ordered (terms, W) uint64 words, W = max(1, ceil(n / 64))."""
    shape = (len(h), max(1, -(-h.qubit_count // 64)))
    return all(masks.dtype == np.uint64 and masks.shape == shape and masks.flags.c_contiguous
               for masks in (h.x_masks, h.z_masks))


def labels(n, max_size=None):
    return st.text(alphabet="IXYZ", min_size=n, max_size=max_size or n)


PREFIXES = ["", "+", "+1", "+i", "i", "-1", "-", "-i"]


def phased_labels(n):
    return st.tuples(st.sampled_from(PREFIXES), labels(n)).map("".join)


def phased_pairs():
    return st.integers(1, 4).flatmap(lambda n: st.tuples(phased_labels(n), phased_labels(n)))


def weighted_sums():
    coeff = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
    return st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(coeff, phased_labels(n)), max_size=8)))


class TestMultiply:
    def test_x_times_z_is_minus_i_y(self):
        p = pauli_multiply(PauliOperator.from_label("X"), PauliOperator.from_label("Z"))
        assert p.label == "-iY"

    def test_z_strings_commute_and_cancel(self):
        a = PauliOperator.from_label("ZZI")
        b = PauliOperator.from_label("ZIZ")
        assert pauli_multiply(a, b).label == "IZZ"

    def test_yyxx_times_zzii(self):
        # frozen from the dense 16x16 product: YYXX . ZZII = -XXXX
        p = pauli_multiply(
            PauliOperator.from_label("YYXX"), PauliOperator.from_label("ZZII")
        )
        assert p.label == "-1XXXX"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_multiply(PauliOperator.from_label("X"), PauliOperator.from_label("XX"))

    @given(labels(1, 4), labels(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_product(self, la, lb):
        n = min(len(la), len(lb))
        la, lb = la[:n], lb[:n]
        a, b = PauliOperator.from_label(la), PauliOperator.from_label(lb)
        got = pauli_multiply(a, b).dense()
        want = pauli_matrix_naive(la) @ pauli_matrix_naive(lb)
        assert np.array_equal(got, want)

    def test_matches_dense_product_wide(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            la = "".join(rng.choice(list("IXYZ"), size=8))
            lb = "".join(rng.choice(list("IXYZ"), size=8))
            a, b = PauliOperator.from_label(la), PauliOperator.from_label(lb)
            got = pauli_multiply(a, b).dense()
            assert np.array_equal(got, a.dense() @ b.dense())


class TestCommutes:
    def test_xx_zz(self):
        assert commutes(PauliOperator.from_label("XX"), PauliOperator.from_label("ZZ"))

    def test_xi_zz(self):
        assert not commutes(PauliOperator.from_label("XI"), PauliOperator.from_label("ZZ"))

    @given(labels(1, 4), labels(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_commutator(self, la, lb):
        n = min(len(la), len(lb))
        la, lb = la[:n], lb[:n]
        a, b = PauliOperator.from_label(la), PauliOperator.from_label(lb)
        da, db = a.dense(), b.dense()
        assert commutes(a, b) == np.allclose(da @ db, db @ da)

    def test_h2_generator_commutes_with_table(self, h2_table):
        tau = PauliOperator.from_label("ZZII")
        assert all(commutes(tau, op) for _, op in h2_table.terms)


class TestDense:
    def test_single_z(self):
        h = QubitHamiltonian(1, ((1.0, PauliOperator.from_label("Z")),))
        assert np.array_equal(h.dense(), np.diag([1.0, -1.0]))

    def test_term_merging_before_dense(self):
        h = QubitHamiltonian(
            1,
            ((0.5, PauliOperator.from_label("X")), (0.5, PauliOperator.from_label("X"))),
        )
        assert np.array_equal(h.canonicalize().dense(), pauli_matrix_naive("X"))

    def test_swap_projector_eigenvalues(self):
        # (identity + two-qubit swap)/2 written in the Pauli basis
        terms = tuple(
            (0.75 if l == "II" else 0.25, PauliOperator.from_label(l))
            for l in ("II", "XX", "YY", "ZZ")
        )
        h = QubitHamiltonian(2, terms)
        vals = np.sort(np.linalg.eigvalsh(h.dense()))
        assert np.allclose(vals, [0.0, 1.0, 1.0, 1.0])

    def test_size_guard(self, monkeypatch):
        monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", "3")
        with pytest.raises(ValueError):
            PauliOperator.from_masks(4, 0, 0).dense()
        monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", "4")
        PauliOperator.from_masks(4, 0, 0).dense()

    @given(labels(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_kron(self, label):
        assert np.array_equal(
            PauliOperator.from_label(label).dense(), pauli_matrix_naive(label)
        )


class TestCanonicalize:
    def test_pruning_takes_no_tolerance(self):
        import inspect

        for method in (QubitHamiltonian.canonicalize, QubitHamiltonian.merged,
                       QubitHamiltonian.is_hermitian):
            assert "tol" not in inspect.signature(method).parameters

    def test_cancellation(self):
        h = QubitHamiltonian(
            1, ((1.0, PauliOperator.from_label("X")), (-1.0, PauliOperator.from_label("X")))
        )
        assert len(h.canonicalize()) == 0

    def test_merge(self):
        h = QubitHamiltonian(
            1, ((0.3, PauliOperator.from_label("Z")), (0.4, PauliOperator.from_label("Z")))
        )
        merged = h.canonicalize()
        assert len(merged) == 1
        assert merged.terms[0][0] == pytest.approx(0.7)

    def test_idempotent_and_dense_preserving(self):
        rng = np.random.default_rng(4)
        ops = ["XY", "YZ", "ZI", "XY", "II", "ZZ"]
        h = QubitHamiltonian(
            2,
            tuple(
                (complex(rng.normal(), rng.normal()), PauliOperator.from_label(l))
                for l in ops
            ),
        )
        c1 = h.canonicalize()
        c2 = c1.canonicalize()
        assert c1.terms == c2.terms
        assert np.allclose(h.dense(), c1.dense(), atol=1e-12)

    def test_phase_folded_into_coefficient(self):
        h = QubitHamiltonian(1, ((1.0, PauliOperator.from_label("-iY")),))
        coeff, op = h.canonicalize().terms[0]
        assert op.label == "Y"
        assert coeff == pytest.approx(-1j)

    def test_deterministic_order(self):
        ops = ["ZZ", "XI", "IY", "YX"]
        h = QubitHamiltonian(
            2, tuple((1.0, PauliOperator.from_label(l)) for l in ops)
        )
        order = [op.label for _, op in h.canonicalize().terms]
        assert order == sorted(order, key=lambda l: PauliOperator.from_label(l).x + PauliOperator.from_label(l).z)


def dict_merge(n, xs, zs, cs, tol=1e-12):
    """Oracle: a running sum per (x, z) key in an ordered dict, from 0j, sorted and pruned."""
    acc = {}
    for x, z, c in zip(xs, zs, cs):
        key = (x << n) | z  # integer order of the key is (x, z) order
        acc[key] = acc.get(key, 0j) + c
    kept = [key for key in sorted(acc) if abs(acc[key]) >= tol]
    low = (1 << n) - 1
    return [key >> n for key in kept], [key & low for key in kept], [acc[key] for key in kept]


def bits(coeffs):
    """Coefficients by the reprs of their parts, so -0.0 and 0.0 differ."""
    return [(repr(c.real), repr(c.imag)) for c in coeffs]


PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 1e-13, -4e-13]) | st.floats(-4, 4)


@st.composite
def repeated_terms(draw):
    """(n, xs, zs, cs): a few distinct keys, each repeated, in shuffled order."""
    n = draw(st.sampled_from([0, 1, 31, 32, 33, 64, 65, 128, 1024]))
    mask = st.sampled_from([0, (1 << n) - 1, (1 << n) >> 1]) | st.integers(0, (1 << n) - 1)
    keys = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=6, unique=True))
    terms = [(x, z, complex(draw(PARTS), draw(PARTS)))
             for x, z in keys for _ in range(draw(st.integers(1, 4)))]
    # a key whose terms cancel to below the tolerance
    x, z = keys[0]
    terms += [(x, z, 0.5 + 0j), (x, z, -0.5 + 2e-13j)]
    terms = draw(st.permutations(terms))
    return n, *(list(column) for column in zip(*terms))


class TestArrayMerge:
    @given(repeated_terms())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_dict_merge_bit_for_bit(self, case):
        n, xs, zs, cs = case
        want_x, want_z, want_c = dict_merge(n, xs, zs, cs)
        for got in (QubitHamiltonian.from_masks(n, xs, zs, cs).canonicalize(),
                    QubitHamiltonian.merged(n, gf2.uint64_words(xs, n), gf2.uint64_words(zs, n),
                                            np.array(cs))):
            assert (gf2.word_ints(got.x_masks), gf2.word_ints(got.z_masks)) == (want_x, want_z)
            assert in_word_layout(got)
            assert bits(got.coeffs.tolist()) == bits(want_c)
            assert got.canonical and got.canonicalize() is got

    @pytest.mark.parametrize("n", [2, 40, 70])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sum_names_its_pauli(self, n, bad):
        label = "Y" + "I" * (n - 2) + "X"
        x, z = (1 << (n - 1)) | 1, 1 << (n - 1)
        with pytest.raises(ValueError, match=f"coefficient of '{label}' sums to .*not finite"):
            QubitHamiltonian.merged(n, [0, x, 0], [1, z, 1], [1.0, bad, 2.0])

    def test_overflowing_sum_names_its_pauli(self):
        h = hamiltonian_from_text("1e308 0 XZ\n1 0 ZZ\n")
        with pytest.raises(ValueError, match=r"coefficient of 'XZ' sums to \(inf\+0j\)"):
            (h + h).canonicalize()

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="differ in length"):
            QubitHamiltonian.merged(2, [0, 1], [0, 1], [1.0])


class TestLabels:
    @pytest.mark.parametrize("label", ["X", "-iY", "+iZZ", "-1XYZI", "IIII"])
    def test_round_trip(self, label):
        op = PauliOperator.from_label(label)
        assert PauliOperator.from_label(op.label) == op

    def test_bad_label(self):
        with pytest.raises(ValueError):
            PauliOperator.from_label("XQ")

    def test_hermitian_check(self):
        assert PauliOperator.from_label("Y").is_hermitian()
        assert not PauliOperator.from_label("+iY").is_hermitian()

    @given(labels(1, 4), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_hermitian_agrees_with_dense(self, label, phase):
        op = PauliOperator.from_label(label)
        op = PauliOperator(op.x, op.z, phase)
        dense = op.dense()
        assert op.is_hermitian() == np.allclose(dense, dense.conj().T)


class TestTextFormat:
    def test_round_trip(self):
        h = QubitHamiltonian(
            3,
            (
                (0.25, PauliOperator.from_label("ZZI")),
                (-1.5 + 0.0j, PauliOperator.from_label("XIY")),
            ),
        )
        again = hamiltonian_from_text(hamiltonian_to_text(h))
        assert again == h.canonicalize()

    def test_comments_ignored(self):
        text = "# heading\n1.0 0.0 ZZ\n# trailing\n"
        h = hamiltonian_from_text(text)
        assert len(h) == 1

    def test_phase_prefixed_labels_accepted(self):
        h = hamiltonian_from_text("2.0 0.0 +iXY\n")
        coeff, op = h.terms[0]
        assert op.label == "XY"
        assert coeff == pytest.approx(2j)

    def test_malformed(self):
        with pytest.raises(ValueError):
            hamiltonian_from_text("1.0 ZZ\n")

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_zero_sum_round_trip(self, n):
        text = hamiltonian_to_text(QubitHamiltonian.zero(n))
        assert text == f"# qubits {n}\n"
        again = hamiltonian_from_text(text)
        assert again.qubit_count == n and len(again) == 0

    def test_zero_qubit_identity_round_trip(self):
        h = QubitHamiltonian(0, ((-0.75, PauliOperator.from_masks(0, 0, 0)),))
        again = hamiltonian_from_text(hamiltonian_to_text(h))
        assert again.qubit_count == 0
        assert again.coeffs.tolist() == [-0.75 + 0j]
        assert again.dense().tolist() == [[-0.75 + 0j]]

    def test_zero_qubit_line_has_no_trailing_space(self):
        h = QubitHamiltonian(0, ((1.5, PauliOperator.from_masks(0, 0, 0)),))
        assert hamiltonian_to_text(h) == "# qubits 0\n1.5 0\n"
        x = QubitHamiltonian(1, ((1.5, PauliOperator.from_label("X")),))
        assert hamiltonian_to_text(x) == "# qubits 1\n1.5 0 X\n"
        # the older form with a trailing separator still reads back
        assert hamiltonian_from_text("# qubits 0\n1.5 0 \n") == h

    def test_header_must_match_the_labels(self):
        with pytest.raises(ValueError, match="inconsistent"):
            hamiltonian_from_text("# qubits 3\n1.0 0.0 ZZ\n")
        with pytest.raises(ValueError, match="malformed"):
            hamiltonian_from_text("1.0 0.0\n")  # an empty label needs "# qubits 0"

    def test_qubit_count_is_capped_at_the_widest_encoded_sum(self):
        # encode writes at most limits.MODE_CAP qubits, so that many read back
        cap = limits.MODE_CAP
        assert hamiltonian_from_text(f"# qubits {cap}\n").qubit_count == cap
        refused = f"Pauli file has {cap + 1} qubits, over the cap of {cap}"
        with pytest.raises(ValueError, match=refused):
            hamiltonian_from_text(f"# qubits {cap + 1}\n")
        with pytest.raises(ValueError, match=refused):  # refused before the next line
            hamiltonian_from_text(f"# qubits {cap + 1}\nnot a term\n")
        with pytest.raises(ValueError, match=refused):  # a label with no header
            hamiltonian_from_text(f"1 0 {'Z' * (cap + 1)}\n")


class TestPackedAgainstNaive:
    """Mask arithmetic against literal Kronecker products, phase prefixes included."""

    @given(phased_pairs())
    @settings(max_examples=150, deadline=None)
    def test_multiply_commutes(self, pair):
        la, lb = pair
        a, b = PauliOperator.from_label(la), PauliOperator.from_label(lb)
        da, db = pauli_matrix_naive(la), pauli_matrix_naive(lb)
        assert np.array_equal(pauli_matrix_naive(pauli_multiply(a, b).label), da @ db)
        assert commutes(a, b) == np.array_equal(da @ db, db @ da)

    @given(weighted_sums())
    @settings(max_examples=100, deadline=None)
    def test_canonicalize(self, case):
        n, terms = case
        h = QubitHamiltonian(n, [(c, PauliOperator.from_label(l)) for c, l in terms])
        want = sum((c * pauli_matrix_naive(l) for c, l in terms), np.zeros((2**n, 2**n)))
        canon = h.canonicalize()
        got = sum((c * pauli_matrix_naive(op.label) for c, op in canon.terms),
                  np.zeros((2**n, 2**n)))
        assert np.allclose(got, want, atol=1e-9)
        keys = [(op.x_mask, op.z_mask) for _, op in canon.terms]
        assert keys == sorted(set(keys))
        assert all(op.label[0] in "IXYZ" and abs(c) >= 1e-12 for c, op in canon.terms)
        assert canon.canonical and canon.canonicalize() is canon


class TestMaskLayout:
    def test_qubit_one_is_the_most_significant_bit(self):
        op = PauliOperator.from_label("XIZY")
        assert (op.n, op.x_mask, op.z_mask) == (4, 0b1001, 0b0011)
        assert op.x == (1, 0, 0, 1) and op.z == (0, 0, 1, 1)
        assert PauliOperator(op.x, op.z, op.phase_power) == op

    def test_views_of_a_packed_sum(self):
        h = QubitHamiltonian.from_masks(2, [0b10, 0b01], [0b10, 0], [0.5, 2.0])
        assert [(c, op.label) for c, op in h.terms] == [(0.5, "YI"), (2.0, "IX")]
        assert not h.canonical
        canon = h.canonicalize()
        assert [op.label for _, op in canon.terms] == ["IX", "YI"]

    def test_operators_are_immutable(self):
        op = PauliOperator.from_label("XZ")
        with pytest.raises(AttributeError):
            op.x_mask = 0
        with pytest.raises(AttributeError):
            QubitHamiltonian.zero(1).coeffs = ()


def random_terms(n, count, seed):
    """count random (x, z, coefficient) lists of n-qubit Python-int masks, repeats included."""
    rng = np.random.default_rng(seed)
    masks = [int.from_bytes(rng.bytes(17), "big") >> (136 - n) for _ in range(2 * count)]
    xs, zs = masks[:count], masks[count:]
    xs[1], zs[1] = xs[0], zs[0]  # one Pauli twice
    cs = [complex(*rng.normal(size=2)) for _ in range(count)]
    return xs, zs, cs


def pair_product_merge(n, a, b):
    """product(a, b) with Python-int masks: PauliOperator products, summed by key."""
    sums = {}
    for ca, pa in a.terms:
        for cb, pb in b.terms:
            p = pauli_multiply(pa, pb)
            shift = (p.phase_power - p.y_count) % 4
            key = (p.x_mask, p.z_mask)
            sums[key] = sums.get(key, 0j) + ca * cb * 1j ** shift
    keys = sorted(k for k, c in sums.items() if abs(c) >= 1e-12)
    return keys, [sums[k] for k in keys]


class TestArraySums:
    """Sums hold read-only mask and coefficient arrays, which no caller can write to."""

    @pytest.mark.parametrize("n", [8, 64, 66, 130])
    def test_arrays_are_read_only_in_their_layout(self, n):
        xs, zs, cs = random_terms(n, 6, n)
        h = QubitHamiltonian.from_masks(n, xs, zs, cs)
        made = [h, h.canonicalize(), h + h, h.scaled(2.0), QubitHamiltonian.zero(n),
                QubitHamiltonian.merged(n, xs, zs, cs), product(h.canonicalize(), h),
                QubitHamiltonian(n, [(c, op) for c, op in h.terms])]
        if n <= 8:
            made.append(hamiltonian_from_text(hamiltonian_to_text(h)))
        for s in made:
            assert in_word_layout(s)
            assert s.coeffs.dtype == complex
            for array in (s.x_masks, s.z_masks, s.coeffs):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 0

    @pytest.mark.parametrize("n", [8, 64, 66])
    def test_a_sum_keeps_its_terms_when_the_callers_arrays_change(self, n):
        xs, zs, cs = random_terms(n, 6, n)
        x, z, c = gf2.uint64_words(xs, n), gf2.uint64_words(zs, n), np.array(cs)
        sums = [QubitHamiltonian.from_masks(n, x, z, c),
                QubitHamiltonian.from_masks(n, x, z, c, canonical=True),
                QubitHamiltonian.merged(n, x, z, c)]
        before = [(gf2.word_ints(s.x_masks), gf2.word_ints(s.z_masks), s.coeffs.tolist())
                  for s in sums]
        x[:] = z[:] = 0
        c[:] = 7
        assert [(gf2.word_ints(s.x_masks), gf2.word_ints(s.z_masks), s.coeffs.tolist())
                for s in sums] == before
        assert before[0] == (xs, zs, cs)

    @pytest.mark.parametrize("n", [8, 64, 66, 130])
    def test_equal_sums_hash_equal(self, n):
        xs, zs, cs = random_terms(n, 5, n)
        cs[2] = complex(0.0, 1.5)
        a = QubitHamiltonian.from_masks(n, xs, zs, cs)
        b = QubitHamiltonian.from_masks(n, gf2.uint64_words(xs, n), gf2.uint64_words(zs, n),
                                        [complex(-0.0, 1.5) if k == 2 else c
                                         for k, c in enumerate(cs)])
        assert a == b and hash(a) == hash(b)  # 0.0 == -0.0, as for the parts' floats
        assert a.canonicalize() == b.canonicalize()
        assert hash(a.canonicalize()) == hash(b.canonicalize())
        assert a != a.scaled(2.0)
        assert a != QubitHamiltonian.from_masks(n, xs, zs[:-1] + [zs[-1] ^ 1], cs)
        assert a != QubitHamiltonian.from_masks(n, xs[:-1], zs[:-1], cs[:-1])
        assert a != QubitHamiltonian.from_masks(n + 1, xs, zs, cs)
        assert len({a, b, a.scaled(2.0)}) == 2

    def test_terms_sum_scale_and_product_at_66_qubits(self):
        n = 66
        xs, zs, cs = random_terms(n, 6, 1)
        h = QubitHamiltonian.from_masks(n, xs, zs, cs)
        assert [(c, op.n, op.x_mask, op.z_mask, op.phase_power) for c, op in h.terms] == \
            [(c, n, x, z, (x & z).bit_count() % 4) for x, z, c in zip(xs, zs, cs)]
        assert max(xs + zs).bit_length() > 64
        other = QubitHamiltonian.from_masks(n, *random_terms(n, 4, 2))
        total = h + other
        assert not total.canonical
        assert gf2.word_ints(total.x_masks) == xs + gf2.word_ints(other.x_masks)
        assert total.coeffs.tolist() == cs + other.coeffs.tolist()
        assert total.canonicalize() == QubitHamiltonian.merged(
            n, xs + gf2.word_ints(other.x_masks), zs + gf2.word_ints(other.z_masks),
            cs + other.coeffs.tolist())
        scaled = h.scaled(0.5 - 2j)
        assert gf2.word_ints(scaled.x_masks) == xs and gf2.word_ints(scaled.z_masks) == zs
        assert scaled.coeffs.tolist() == [c * (0.5 - 2j) for c in cs]
        got = product(h, other)
        keys, coeffs = pair_product_merge(n, h, other)
        assert list(zip(gf2.word_ints(got.x_masks), gf2.word_ints(got.z_masks))) == keys
        assert got.coeffs.tolist() == pytest.approx(coeffs, abs=1e-12)
        assert got.canonical
