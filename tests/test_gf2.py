import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper import gf2


def test_matvec_parity_matrix_first_column():
    parity = np.tril(np.ones((4, 4), dtype=np.uint8))
    assert gf2.matvec(parity, [1, 0, 0, 0]).tolist() == [1, 1, 1, 1]


def test_matvec_zero_vector():
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 2, size=(5, 7))
    assert gf2.matvec(mat, np.zeros(7)).tolist() == [0] * 5


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.matvec(np.eye(3), [1, 0])


def test_kernel_identity_is_empty():
    assert gf2.kernel_basis(np.eye(3)).shape[0] == 0


def test_kernel_single_row():
    basis = gf2.kernel_basis(np.array([[1, 1]]))
    assert basis.tolist() == [[1, 1]]


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows = rng.integers(1, 8)
        cols = rng.integers(1, 10)
        mat = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        for vec in gf2.kernel_basis(mat):
            assert not gf2.matvec(mat, vec).any()


def test_rank_plus_kernel_dimension():
    # 200 random matrices up to 32 x 64
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 65))
        mat = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        assert gf2.rank(mat) + gf2.kernel_basis(mat).shape[0] == cols


def test_kernel_basis_independent():
    rng = np.random.default_rng(3)
    mat = rng.integers(0, 2, size=(4, 9)).astype(np.uint8)
    basis = gf2.kernel_basis(mat)
    assert gf2.rank(basis) == basis.shape[0]


def test_solve_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(25):
        mat = rng.integers(0, 2, size=(6, 8)).astype(np.uint8)
        x = rng.integers(0, 2, size=8).astype(np.uint8)
        rhs = gf2.matvec(mat, x)
        got = gf2.solve(mat, rhs)
        assert got is not None
        assert np.array_equal(gf2.matvec(mat, got), rhs)


def test_solve_inconsistent():
    assert gf2.solve(np.zeros((2, 3)), [1, 0]) is None


def test_inverse_round_trip():
    mat = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=np.uint8)
    inv = gf2.inverse(mat)
    assert np.array_equal(gf2.matmul(mat, inv), np.eye(3, dtype=np.uint8))


def test_inverse_singular():
    with pytest.raises(ValueError):
        gf2.inverse(np.array([[1, 1], [1, 1]]))


def test_rref_rightmost_pivots():
    mat = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=np.uint8)
    reduced, pivots = gf2.rref(mat, column_order=range(3, -1, -1))
    assert sorted(pivots) == [1, 2, 3]
    # rows keep the paper's generator structure: each touches column 0 and a pivot
    assert sorted(tuple(r) for r in reduced) == [
        (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]


def test_span_helpers():
    a = np.array([[1, 1, 0], [0, 1, 1]])
    b = np.array([[1, 0, 1], [0, 1, 1]])
    assert gf2.same_span(a, b)
    assert gf2.in_span(a, [1, 0, 1])
    assert not gf2.in_span(a, [1, 0, 0])


@given(st.integers(2, 16), st.integers(0, 2**20), st.integers(0, 2**20))
@settings(max_examples=60, deadline=None)
def test_bits_int_round_trip(length, a, b):
    a %= 1 << length
    assert gf2.bits_to_int(gf2.int_to_bits(a, length)) == a


def _drop_oracle(value: int, positions) -> int:
    """drop_bits spelled out on the binary string, least significant bit first."""
    low_first = bin(value)[2:][::-1]
    kept = [bit for pos, bit in enumerate(low_first) if pos not in set(positions)]
    return int("".join(reversed(kept)) or "0", 2)


def test_drop_bits_on_int64_arrays_matches_python_ints():
    rng = np.random.default_rng(9)
    values = rng.integers(0, 1 << 62, size=200, dtype=np.int64)
    for positions in ([], [0], [61, 40, 3, 2, 0], list(range(61, -1, -3))):
        got = gf2.drop_bits(values, positions)
        assert got.dtype == np.int64
        want = [gf2.drop_bits(int(v), positions) for v in values]
        assert got.tolist() == want == [_drop_oracle(int(v), positions) for v in values]


def test_drop_bits_on_a_wide_python_int():
    value = (1 << 100) | (1 << 70) | (1 << 64) | 0b1011
    got = gf2.drop_bits(value, [70, 1])
    assert got == (1 << 98) | (1 << 63) | 0b101 == _drop_oracle(value, [70, 1])
