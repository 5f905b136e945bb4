import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper import gf2
from fertaper.codeword import _rest_index
from tests.conftest import syndrome
from tests.gf2_oracle import bits_int, drop_bits, rref


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 130), st.randoms(use_true_random=False))
def test_pack_rows_reads_each_row_most_significant_first(rows, width, rnd):
    mat = np.array([[rnd.getrandbits(1) for _ in range(width)] for _ in range(rows)],
                   dtype=np.uint8).reshape(rows, width)
    packed = gf2.pack_rows(mat)
    assert packed == [bits_int(row) for row in mat]
    assert np.array_equal(gf2.unpack_ints(packed, width), mat)


def _unpack_by_to_bytes(values, length: int) -> np.ndarray:
    """unpack_ints one mask at a time, through int.to_bytes."""
    nbytes = (length + 7) // 8
    if nbytes == 0:
        return np.zeros((len(values), 0), dtype=np.uint8)
    buf = b"".join(v.to_bytes(nbytes, "big") for v in values)
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(-1, nbytes)
    return np.unpackbits(rows, axis=1)[:, 8 * nbytes - length:]


@pytest.mark.parametrize("length", [0, 1, 8, 63, 64, 65, 128])
def test_unpack_ints_matches_one_to_bytes_per_mask(length):
    rng = np.random.default_rng(length)
    top = (1 << length) - 1
    values = [0, top, top >> 1, 1 << max(length - 1, 0) & top]
    values += [int.from_bytes(rng.bytes(17), "big") & top for _ in range(40)]
    for masks in ([], values[:1], values):
        got = gf2.unpack_ints(masks, length)
        want = _unpack_by_to_bytes(masks, length)
        assert got.dtype == np.uint8 and got.shape == (len(masks), length)
        assert np.array_equal(got, want)
    if length <= 64:  # uint64 arrays, as mask_array holds narrow masks
        assert np.array_equal(gf2.unpack_ints(np.array(values, dtype=np.uint64), length),
                              _unpack_by_to_bytes(values, length))


@pytest.mark.parametrize("length", [1, 64, 65, 130])
def test_uint64_words_cut_most_significant_first(length):
    value = (1 << length) - 1 ^ 1 << (length - 1) // 2
    words = gf2.uint64_words([value, 0], length)
    assert words.shape == (2, -(-length // 64)) and not words[1].any()
    assert sum(int(w) << 64 * k for k, w in enumerate(words[0][::-1])) == value


def _rows(mat) -> list[int]:
    return gf2.pack_rows(np.atleast_2d(np.asarray(mat, dtype=np.uint8)))


def _random_rows(rng, rows: int, width: int) -> list[int]:
    return [int(v) for v in rng.integers(0, 1 << width, size=rows)]


def test_kernel_identity_is_empty():
    assert gf2.kernel_basis(_rows(np.eye(3)), 3) == []


def test_kernel_single_row():
    assert gf2.kernel_basis([0b11], 2) == [0b11]


def test_kernel_of_no_rows_is_every_unit_vector():
    assert gf2.kernel_basis([], 3) == [0b100, 0b010, 0b001]
    assert gf2.kernel_basis([0, 0], 2) == [0b10, 0b01]
    assert gf2.kernel_basis([], 0) == []


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(5)
    for _ in range(50):
        width = int(rng.integers(1, 10))
        rows = _random_rows(rng, int(rng.integers(1, 8)), width)
        for vec in gf2.kernel_basis(rows, width):
            assert all((row & vec).bit_count() % 2 == 0 for row in rows)


def test_rank_plus_kernel_dimension():
    # 200 random matrices up to 32 x 64
    rng = np.random.default_rng(11)
    for _ in range(200):
        width = int(rng.integers(1, 65))
        rows = [int.from_bytes(rng.bytes(8), "big") >> (64 - width)
                for _ in range(int(rng.integers(1, 33)))]
        assert gf2.rank(rows) + len(gf2.kernel_basis(rows, width)) == width


def test_kernel_basis_independent():
    rng = np.random.default_rng(3)
    basis = gf2.kernel_basis(_random_rows(rng, 4, 9), 9)
    assert gf2.rank(basis) == len(basis)


def test_kernel_matches_the_uint8_layout():
    # column c is bit width-1-c: the kernel of the packed rows, unpacked,
    # annihilates the uint8 matrix
    rng = np.random.default_rng(17)
    mat = rng.integers(0, 2, size=(6, 11)).astype(np.uint8)
    kernel = gf2.unpack_ints(gf2.kernel_basis(gf2.pack_rows(mat), 11), 11)
    assert kernel.shape == (11 - gf2.rank(gf2.pack_rows(mat)), 11)
    for vec in kernel:
        assert not syndrome(mat, vec).any()


def test_rref_is_reduced():
    # the oracle row reduction that kernel_basis is judged against
    rows = [0b1100, 0b1010, 0b1001]
    reduced, pivots = rref(rows, 4)
    assert pivots == [0, 1, 2]
    assert reduced == [0b1001, 0b0101, 0b0011]
    assert rref([0, 0], 3) == ([], [])


def test_rref_rejects_a_row_wider_than_width():
    with pytest.raises(ValueError):
        rref([0b100], 2)


def test_span_helpers():
    a = [0b110, 0b011]
    b = [0b101, 0b011]
    assert gf2.same_span(a, b)
    assert not gf2.same_span(a, [0b110])


# -- brute-force oracles for the packed eliminator ---------------------------


def _span(rows) -> set[int]:
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    return span


_matrices = st.integers(0, 10).flatmap(
    lambda width: st.tuples(st.just(width),
                            st.lists(st.integers(0, (1 << width) - 1), max_size=12)))


@given(_matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_spans_exactly_the_annihilated_vectors(matrix):
    width, rows = matrix
    want = {v for v in range(1 << width)
            if all((row & v).bit_count() % 2 == 0 for row in rows)}
    kernel = gf2.kernel_basis(rows, width)
    assert _span(kernel) == want
    assert len(_span(kernel)) == 1 << len(kernel)  # independent
    assert gf2.rank(rows) + len(kernel) == width
    assert gf2.rank(rows) == len(_span(rows)).bit_length() - 1


def _row_rref_kernel(rows, width: int) -> list[int]:
    """The kernel read off the row-reduced echelon form: for each free column
    fc, in ascending order, e_fc plus the pivot columns whose rows have bit fc."""
    reduced, pivots = rref(rows, width)
    basis = []
    for fc in sorted(set(range(width)) - set(pivots)):
        vec = 1 << (width - 1 - fc)
        for row, pc in zip(reduced, pivots):
            if row >> (width - 1 - fc) & 1:
                vec |= 1 << (width - 1 - pc)
        basis.append(vec)
    return basis


@given(st.integers(0, 140).flatmap(
    lambda width: st.tuples(st.just(width), st.lists(
        st.integers(0, (1 << width) - 1) | st.sampled_from([0, (1 << width) - 1]),
        max_size=40))))
@settings(max_examples=300, deadline=None)
def test_kernel_basis_is_the_row_rref_kernel_in_order(matrix):
    # the column elimination against the row form, list for list, at widths
    # past 64 bits too (several uint64 words per row)
    width, rows = matrix
    assert gf2.kernel_basis(rows, width) == _row_rref_kernel(rows, width)
    doubled = rows + [a ^ b for a, b in zip(rows, rows[1:])]  # dependent rows
    assert gf2.kernel_basis(doubled, width) == _row_rref_kernel(rows, width)


def test_kernel_basis_rejects_a_row_wider_than_width():
    with pytest.raises(ValueError, match="row wider than 2 bits"):
        gf2.kernel_basis([0b01, 0b100], 2)
    with pytest.raises(ValueError, match="row wider than 65 bits"):
        gf2.kernel_basis([1 << 65], 65)
    # a row on the first of 65 columns is not too wide: every other column is free
    assert gf2.kernel_basis([1 << 64], 65) == [1 << (64 - c) for c in range(1, 65)]


@given(_matrices)
@settings(max_examples=100, deadline=None)
def test_rref_keeps_the_row_span(matrix):
    width, rows = matrix
    reduced, pivots = rref(rows, width)
    assert _span(reduced) == _span(rows)
    assert pivots == sorted(pivots) and len(pivots) == len(reduced)
    for row, pc in zip(reduced, pivots):
        assert row.bit_length() == width - pc  # the pivot is the leading bit
        for other in reduced:  # and no other row has it
            assert (other >> (width - 1 - pc) & 1) == (other == row)


@given(st.integers(2, 16), st.integers(0, 2**20), st.integers(0, 2**20))
@settings(max_examples=60, deadline=None)
def test_bits_int_round_trip(length, a, b):
    a %= 1 << length
    assert bits_int(gf2.unpack_ints([a], length)[0]) == a


def test_drop_bits_on_int64_arrays_matches_python_ints():
    # the two droppers on int64 states: _rest_index, by one mask for all or a
    # mask per state, and drop_word_bits on their uint64 words
    rng = np.random.default_rng(9)
    values = rng.integers(0, 1 << 62, size=200, dtype=np.int64)
    for positions in ([], [0], [61, 40, 3, 2, 0], list(range(61, -1, -3))):
        want = [drop_bits(int(v), positions) for v in values]
        mask = sum(1 << p for p in positions)
        got = _rest_index(values, mask, 62)
        assert got.dtype == np.int64 and got.tolist() == want
        assert _rest_index(values, np.full(len(values), mask), 62).tolist() == want
        words = gf2.drop_word_bits(gf2.uint64_words(values, 62), 62, positions)
        assert gf2.word_ints(words) == want


def test_drop_bits_on_a_wide_python_int():
    # drop_word_bits on a 101-bit int, two words in and out
    value = (1 << 100) | (1 << 70) | (1 << 64) | 0b1011
    got = gf2.word_ints(gf2.drop_word_bits(gf2.uint64_words([value], 101), 101, [70, 1]))
    assert got == [(1 << 98) | (1 << 63) | 0b101] == [drop_bits(value, [70, 1])]
