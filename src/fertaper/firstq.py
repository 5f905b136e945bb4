"""Register-per-particle encoding with orthogonal-array term grouping.

N particles over M = 2^m modes are stored in N registers of m qubits
holding antisymmetrized mode labels.  The simulator is the sum of a
one-body part, a two-body part, and a penalty proportional to the sum of
(identity + register swap)/2 over register pairs, which vanishes exactly
on antisymmetric states.  Pauli terms, each supported on at most two
registers, are grouped into measurement bases by a strength-two
orthogonal array over the 3^m per-register letter words, so the number of
groups never exceeds 9^m.

The pipeline runs on arrays.  The three parts are built as mask and
coefficient arrays and merged once.  GF(3^m) addition and multiplication
are 3^m x 3^m lookup tables, and the Rao-Hamming array (Hedayat, Sloane &
Stufken, Orthogonal Arrays, 1999, ch. 3) is one broadcast over them into
an array of word values, X, Y, Z = 0, 1, 2 as base-3 digits.  Binning
reads each register's word value off a term's masks and finds its row by
table lookup: the first row holding the word for a term on one register,
the unique row holding the word pair, by strength two, for a term on two.

The penalty spectrum is fully determined by integer partitions: the
eigenvalue attached to column lengths (l_1 >= ... >= l_d) is
(C(N,2) - sum_a C(l_a,2) + sum_{a<b} l_b) / 2, with eigenvectors built as
tensor products of fully antisymmetric column states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from fertaper import gf2, limits
from fertaper.fermion import FermionHamiltonian, FockState
from fertaper.fermion import default_penalty_scale  # noqa: F401  (re-exported)
from fertaper.pauli import _PHASE, PauliOperator, QubitHamiltonian


@dataclass(frozen=True)
class RegisterEncoding:
    """Layout constants: N registers of m qubits, mode labels 0..2^m - 1."""

    modes: int
    particles: int

    def __post_init__(self):
        if self.modes < 1 or self.particles < 1:
            raise ValueError("need at least one mode and one particle")

    @property
    def padded_modes(self) -> int:
        return 1 << self.register_bits

    @property
    def register_bits(self) -> int:
        return max(1, (self.modes - 1).bit_length())

    @property
    def qubits(self) -> int:
        return self.register_bits * self.particles

    def register_qubits(self, i: int) -> tuple[int, ...]:
        """1-based qubit indices of register i (1-based)."""
        m = self.register_bits
        return tuple(range((i - 1) * m + 1, i * m + 1))

    def label_index(self, labels) -> int:
        """Basis index of |labels...> with register 1 most significant."""
        idx = 0
        for a in labels:
            idx = idx * self.padded_modes + (a - 1)
        return idx


def encode_first_quantized(x: FockState, enc: RegisterEncoding) -> np.ndarray:
    """Antisymmetrized register state of a weight-N occupation vector."""
    if x.weight != enc.particles:
        raise ValueError(f"state weight {x.weight} != {enc.particles}")
    if x.modes != enc.modes:
        raise ValueError("mode count mismatch")
    n = enc.particles
    if factorial(n) > limits.PERMUTATION_CAP:
        raise ValueError(f"antisymmetrizing {n} particles sums {n}! = {factorial(n)} orderings, "
                         f"over the cap of {limits.PERMUTATION_CAP}")
    dim = enc.padded_modes ** n
    limits.check_dense(dim)
    occupied = x.occupied_modes()
    vec = np.zeros(dim)
    norm = 1.0 / np.sqrt(factorial(n))
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        labels = [occupied[perm[i]] for i in range(n)]
        vec[enc.label_index(labels)] += sign * norm
    return vec


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def codespace_isometry(enc: RegisterEncoding) -> np.ndarray:
    """Columns are encoded weight-N states in lexicographic occupation order."""
    from fertaper.fermion import weight_n_states

    states = weight_n_states(enc.modes, enc.particles)
    cols = [encode_first_quantized(s, enc) for s in states]
    return np.stack(cols, axis=1)


# -- Pauli assembly ----------------------------------------------------------


def _unit_coeffs(m_bits: int, b: int) -> list[complex]:
    """Coefficients of the m-qubit |a><b| by z mask, first qubit most significant.

    Per qubit: |0><0| and |1><1| are (identity +/- Z)/2, while |0><1| and
    |1><0| are (X +/- iY)/2 = X(1)(identity -/+ Z)/2.  So |a><b| is X(a^b)
    times the sum over z masks k of (-1)^popcount(b & k) Z(k) / 2^m.
    """
    coeffs = [1.0 + 0.0j]
    for i in range(m_bits):
        sign = -1.0 if b >> (m_bits - 1 - i) & 1 else 1.0
        coeffs = [c for coeff in coeffs for c in (coeff * 0.5, coeff * 0.5 * sign)]
    return coeffs


def _hermitian_coeff(coeff, x_mask: int, z_mask: int) -> complex:
    """Coefficient on the Hermitian letter Pauli of coeff * X(x) Z(z).

    The same multiply ``QubitHamiltonian`` folds a phase with, so signed
    zeros come out as they do there.
    """
    return complex(coeff) * _PHASE[-(x_mask & z_mask).bit_count() % 4]


@dataclass(frozen=True)
class FirstQuantizedParts:
    one_body: QubitHamiltonian
    two_body: QubitHamiltonian
    exchange_penalty: QubitHamiltonian

    def total(self, penalty_scale: float) -> QubitHamiltonian:
        return (self.one_body + self.two_body +
                self.exchange_penalty.scaled(penalty_scale)).canonicalize()


def first_quantized_parts(h: FermionHamiltonian, enc: RegisterEncoding) -> FirstQuantizedParts:
    """One-body, two-body, and exchange-penalty Pauli sums.

    The one-body part places each coefficient as a mode-label matrix unit
    on every register; the two-body part carries an overall minus sign
    because the annihilator pair in the target ordering is reversed
    relative to the two-register matrix unit.  The penalty is the sum over
    register pairs of (identity + register swap)/2, whose expansion is
    the uniform sum of matched Pauli letters on the two registers.

    Each part is built as parallel mask and coefficient arrays, register
    words shifted into place by broadcasting, and merged once by
    ``canonicalize``.  Terms come in (matrix unit, register, z mask)
    order, so repeated Paulis sum in a fixed order.  Interaction entries
    that are the zero operator are skipped (``h.interactions``).
    """
    if h.modes != enc.modes:
        raise ValueError("mode count mismatch")
    n, m, q = enc.particles, enc.register_bits, enc.qubits
    dtype = np.uint64 if q <= 64 else object  # object arrays hold wider Python ints
    shift = (q - m * np.arange(1, n + 1)).astype(dtype)  # register i sits at shift[i - 1]
    local = np.arange(1 << m).astype(dtype)  # register z masks, in term order
    unit = [_unit_coeffs(m, b) for b in range(1 << m)]  # of |a><b|, by column label b

    def merged(x_masks, z_masks, coeffs) -> QubitHamiltonian:
        shape = np.broadcast_shapes(x_masks.shape, z_masks.shape, coeffs.shape)
        return QubitHamiltonian.from_masks(
            q, *(np.broadcast_to(a, shape).ravel().tolist() for a in (x_masks, z_masks, coeffs))
        ).canonicalize()

    # One-body: (a, b) entry x register x z mask.  Register factors go into
    # a running product that starts at 1+0j; that multiply can flip the
    # sign of a zero imaginary part, and the written bytes keep the sign.
    rows, cols = np.nonzero(h.t)
    x_local = (rows ^ cols).astype(dtype)
    coeffs = np.array([[_hermitian_coeff(h.t[a, b] * ((1.0 + 0.0j) * c), a ^ b, k)
                        for k, c in enumerate(unit[b])]
                       for a, b in zip(rows.tolist(), cols.tolist())],
                      dtype=complex).reshape(-1, 1, 1 << m)
    one_body = merged((x_local[:, None] << shift)[:, :, None],
                      local[None, None, :] << shift[None, :, None], coeffs)

    # Two-body: (a, b, g, d) entry x register pair i != j x z mask on i x z mask on j
    u = h.interactions
    ordered = np.array([(i, j) for i in range(n) for j in range(n) if i != j],
                       dtype=np.intp).reshape(-1, 2)
    s_i, s_j = shift[ordered[:, 0], None, None], shift[ordered[:, 1], None, None]
    x_ag, x_bd = (np.array([(k[r] - 1) ^ (k[r + 2] - 1) for k in u], dtype=np.int64)
                  .astype(dtype).reshape(-1, 1, 1, 1) for r in (0, 1))
    coeffs = np.array([
        [[_hermitian_coeff(-coeff * (((1.0 + 0.0j) * c1) * c2),
                           (a - 1) ^ (g - 1) | ((b - 1) ^ (d - 1)) << m, k1 | k2 << m)
          for k2, c2 in enumerate(unit[d - 1])]
         for k1, c1 in enumerate(unit[g - 1])]
        for (a, b, g, d), coeff in u.items()], dtype=complex).reshape(-1, 1, 1 << m, 1 << m)
    two_body = merged((x_ag << s_i) | (x_bd << s_j),
                      (local[:, None] << s_i) | (local[None, :] << s_j), coeffs)

    # Exchange: register pair i < j x (identity, then each matched letter word).
    upper = np.array([(i, j) for i in range(n) for j in range(i + 1, n)],
                     dtype=np.intp).reshape(-1, 2)
    letters = np.arange(4 ** m)[:, None] >> 2 * np.arange(m - 1, -1, -1) & 3  # I, X, Y, Z
    bit = 1 << np.arange(m - 1, -1, -1)  # first qubit most significant
    x_word = np.concatenate([[0], ((letters ^ letters >> 1) & 1) @ bit]).astype(dtype)
    z_word = np.concatenate([[0], (letters >> 1) @ bit]).astype(dtype)
    s_i, s_j = shift[upper[:, 0], None], shift[upper[:, 1], None]
    # (identity + swap)/2 with swap = 2^-m sum over matched letter words
    coeffs = np.array([_hermitian_coeff(0.5, 0, 0)]
                      + [_hermitian_coeff(0.5 / enc.padded_modes, 0, 0)] * 4 ** m)
    exchange = merged((x_word << s_i) | (x_word << s_j), (z_word << s_i) | (z_word << s_j),
                      coeffs)
    return FirstQuantizedParts(one_body, two_body, exchange)


# -- orthogonal array --------------------------------------------------------


class TernaryField:
    """GF(3^m) arithmetic over a fixed irreducible polynomial, by table lookup.

    Elements are integers whose base-3 digits are polynomial coefficients
    (constant digit first).  The tabulated polynomials are re-verified
    irreducible at construction time by an exhaustive factor check.
    Construction also fills 3^m x 3^m ``add_table`` and ``mul_table``
    arrays from digit arithmetic on every pair at once, the product
    reduced by the polynomial.
    """

    # x^2+1, x^3+2x+1, x^4+x+2 as coefficient tuples (constant first, monic)
    POLYS = {1: (0, 1), 2: (1, 0, 1), 3: (1, 2, 0, 1), 4: (2, 1, 0, 0, 1)}

    def __init__(self, m: int):
        if m not in self.POLYS:
            raise ValueError(f"unsupported extension degree {m}; have {sorted(self.POLYS)}")
        self.m = m
        self.size = 3 ** m
        self.poly = self.POLYS[m]
        if m > 1 and not self._is_irreducible(self.poly):
            raise AssertionError(f"tabulated polynomial for degree {m} is reducible")
        power = 3 ** np.arange(m)
        digits = np.arange(self.size)[:, None] // power % 3  # constant digit first
        da, db = digits[:, None, :], digits[None, :, :]
        self.add_table = (da + db) % 3 @ power
        prod = np.zeros((self.size, self.size, 2 * m - 1), dtype=np.int64)
        for i in range(m):
            prod[..., i : i + m] += da[..., i : i + 1] * db
        for top in range(2 * m - 2, m - 1, -1):  # cancel x^top with the monic polynomial
            prod[..., top - m : top + 1] -= prod[..., top : top + 1] % 3 * self.poly
        self.mul_table = prod[..., :m] % 3 @ power

    @staticmethod
    def _poly_mul(a: tuple, b: tuple) -> tuple:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % 3
        return tuple(out)

    @classmethod
    def _poly_mod(cls, a: tuple, mod: tuple) -> tuple:
        a = list(a)
        deg_mod = len(mod) - 1
        while len(a) > deg_mod:
            lead = a[-1] % 3
            if lead:
                shift = len(a) - 1 - deg_mod
                for i, c in enumerate(mod):
                    a[shift + i] = (a[shift + i] - lead * c) % 3
            a.pop()
        while len(a) < deg_mod:
            a.append(0)
        return tuple(c % 3 for c in a)

    @classmethod
    def _is_irreducible(cls, poly: tuple) -> bool:
        deg = len(poly) - 1
        # no factor of degree 1..deg//2; enumerate monic candidates
        for d in range(1, deg // 2 + 1):
            for coeffs in itertools.product(range(3), repeat=d):
                candidate = tuple(coeffs) + (1,)
                if cls._poly_divides(candidate, poly):
                    return False
        return True

    @classmethod
    def _poly_divides(cls, small: tuple, big: tuple) -> bool:
        return all(c == 0 for c in cls._poly_mod(big, small))


LETTERS = "XYZ"  # digit 0 -> X basis, 1 -> Y, 2 -> Z (fixed labeling)


def _letter_words(m: int) -> list[str]:
    """The 3^m m-letter words by value, first letter the most significant digit."""
    return ["".join(w) for w in itertools.product(LETTERS, repeat=m)]


@dataclass(frozen=True, eq=False)
class OrthogonalArray:
    """Strength-two index-one array over m-letter X/Y/Z words.

    ``values`` is a read-only int array with one row per array row and one
    entry per column: the value of that column's word, read as base-3
    digits with X, Y, Z = 0, 1, 2 and the first letter most significant.
    Value order is therefore word order.  ``rows`` spells the words out.
    """

    register_bits: int
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.int64)
        if values.ndim != 2:
            raise ValueError("array values must be a 2-D table")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        words = _letter_words(self.register_bits)
        return tuple(tuple(words[v] for v in row) for row in self.values.tolist())

    @property
    def row_count(self) -> int:
        return self.values.shape[0]

    @property
    def column_count(self) -> int:
        return self.values.shape[1]

    def verify_strength_two(self) -> bool:
        """Exhaustive check: every column pair sees every word pair exactly once.

        There must be 9^m rows of word values in 0..3^m - 1, and for each
        column pair the codes v1 * 3^m + v2 must all differ; one sort per
        first column checks that column against every later one.
        """
        size = 3 ** self.register_bits
        values = self.values
        if (self.row_count != size * size or values.min(initial=0) < 0
                or values.max(initial=0) >= size):
            return False
        for c1 in range(self.column_count - 1):
            codes = np.sort(values[:, c1] * size + values[:, c1 + 1 :].T, axis=1)
            if (codes[:, 1:] == codes[:, :-1]).any():
                return False
        return True


def rao_hamming_oa(m: int) -> OrthogonalArray:
    """9^m x (3^m + 1) array from affine evaluations over GF(3^m).

    Row (a, b), at index a * 3^m + b, holds the word of a*c + b at the
    column labeled by the field element c, plus a final column holding a
    itself; any two evaluation points determine (a, b), so each word pair
    appears exactly once per column pair.  One broadcast over the field
    tables fills every entry.
    """
    field = TernaryField(m)
    e = np.arange(field.size)
    evaluations = field.add_table[field.mul_table[e[:, None, None], e[None, None, :]],
                                  e[None, :, None]]  # [a, b, c]
    return OrthogonalArray(m, np.column_stack([
        evaluations.reshape(field.size ** 2, field.size), np.repeat(e, field.size),
    ]))


class UnassignableTerm(RuntimeError):
    """A Pauli term fits no row of the orthogonal array (cannot happen for
    terms supported on at most two registers)."""


def required_words(op: PauliOperator, enc: RegisterEncoding) -> dict[int, str]:
    """Per-register letter words of a term, identity qubits resolved to Z."""
    words: dict[int, str] = {}
    for reg in range(1, enc.particles + 1):
        qubits = enc.register_qubits(reg)
        letters = [op.letter_at(qb) for qb in qubits]
        if all(c == "I" for c in letters):
            continue
        words[reg] = "".join("Z" if c == "I" else c for c in letters)
    return words


def _register_words(h: QubitHamiltonian, enc: RegisterEncoding):
    """(word values, touched) per term and register, both terms x registers.

    A qubit's digit is X, Y, Z = 0, 1, 2 with identity read as Z, the
    register's first qubit the most significant digit: the values of the
    words ``required_words`` spells.
    """
    shape = (len(h), enc.particles, enc.register_bits)
    x = gf2.unpack_ints(h.x_masks, enc.qubits).reshape(shape)
    z = gf2.unpack_ints(h.z_masks, enc.qubits).reshape(shape)
    digits = np.where(x, z, 2)
    return digits @ 3 ** np.arange(enc.register_bits - 1, -1, -1), (x | z).any(axis=2)


def _first_holding(codes: np.ndarray, span: int) -> np.ndarray:
    """Index ``code -> smallest row holding it`` over 0..span-1, -1 where none does."""
    index = np.full(span, -1, dtype=np.int64)
    held, first = np.unique(codes, return_index=True)
    index[held] = first
    return index


def bin_terms(h: QubitHamiltonian, oa: OrthogonalArray, enc: RegisterEncoding):
    """Group terms into rows of the array that diagonalize them.

    Every term must touch at most two registers; by the strength-two
    property at least one row matches its register words, and the
    lexicographically smallest matching row is chosen.  Returns a list of
    (row letters, term indices) groups, at most 9^m of them, in row order:
    the indices are an ascending int array into ``h.canonicalize()``, so a
    caller reads each group's masks and coefficients off that one sum.

    Each register word is read off the term's masks as a value.  Rows are
    sorted by value, which is word order; a term on no register takes the
    first row, a term on one register the first row holding its word in
    that column, and a term on two registers the row an index of the
    column pair's codes v1 * 3^m + v2 names.
    """
    if oa.register_bits != enc.register_bits:
        raise ValueError(f"array words have {oa.register_bits} letters, "
                         f"registers {enc.register_bits} qubits")
    h = h.canonicalize()
    size = 3 ** enc.register_bits
    values = oa.values[np.lexsort(oa.values.T[::-1])]  # the order of sorted(oa.rows)
    words, touched = _register_words(h, enc)
    count = touched.sum(axis=1)
    wide = np.flatnonzero(count > 2)
    if wide.size:
        raise UnassignableTerm(
            f"term {h.terms[wide[0]][1].label} touches {count[wide[0]]} registers"
        )
    n = enc.particles
    terms = np.arange(len(h))
    first = np.argmax(touched, axis=1)  # first and last touched register
    last = n - 1 - np.argmax(touched[:, ::-1], axis=1)
    codes = words[terms, first] * size + words[terms, last]
    pair = np.where(count > 0, first * n + last, -1)
    position = np.where(count == 0, 0, -1)
    for c1, c2 in (divmod(p, n) for p in np.unique(pair[pair >= 0]).tolist()):
        if c2 >= oa.column_count:
            continue  # left at -1: no row has the column
        pick = pair == c1 * n + c2
        if c1 == c2:
            position[pick] = _first_holding(values[:, c1], size)[words[pick, c1]]
        else:
            position[pick] = _first_holding(values[:, c1] * size + values[:, c2],
                                            size * size)[codes[pick]]
    lost = np.flatnonzero(position < 0)
    if lost.size:
        raise UnassignableTerm(f"no array row diagonalizes {h.terms[lost[0]][1].label}")
    order = np.argsort(position, kind="stable")
    used, starts = np.unique(position[order], return_index=True)
    words = np.array(_letter_words(enc.register_bits), dtype=object)[values[used]]
    return [(tuple(row), chunk) for row, chunk in zip(words.tolist(), np.split(order, starts[1:]))]


# -- penalty spectrum via partitions ----------------------------------------


def column_partitions(n: int, max_column: int | None = None):
    """Weakly decreasing positive integer partitions of n."""
    cap = n if max_column is None else min(n, max_column)

    def gen(remaining: int, bound: int, prefix: tuple):
        if remaining == 0:
            yield prefix
            return
        for first in range(min(bound, remaining), 0, -1):
            yield from gen(remaining - first, first, prefix + (first,))

    yield from gen(n, cap, ())


def partition_eigenvalue(partition) -> Fraction:
    """Penalty eigenvalue of a column partition, as an exact rational."""
    parts = tuple(partition)
    if any(p < 1 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("partition must be weakly decreasing and positive")
    n = sum(parts)
    cross = sum(parts[b] for a in range(len(parts)) for b in range(a + 1, len(parts)))
    return Fraction(comb(n, 2) - sum(comb(p, 2) for p in parts) + cross, 2)


def partition_eigenvector(partition, modes: int) -> np.ndarray:
    """Integer eigenvector: tensor product of antisymmetric column states.

    Column of length u contributes the signed sum over orderings of the
    labels 1..u; entries are -1/0/+1 and the vector is unnormalized.
    """
    parts = tuple(partition)
    n = sum(parts)
    if parts and parts[0] > modes:
        raise ValueError("longest column exceeds the mode count")
    dim = modes ** n
    limits.check_dense(dim)
    vec = np.zeros(dim, dtype=np.int64)
    pieces = []
    for u in parts:
        block = []
        for perm in itertools.permutations(range(1, u + 1)):
            block.append((_perm_sign(tuple(p - 1 for p in perm)), perm))
        pieces.append(block)
    for combo in itertools.product(*pieces):
        sign = 1
        labels: list[int] = []
        for s, perm in combo:
            sign *= s
            labels.extend(perm)
        idx = 0
        for a in labels:
            idx = idx * modes + (a - 1)
        vec[idx] += sign
    return vec


def apply_exchange_penalty_doubled(vec: np.ndarray, n: int, modes: int) -> np.ndarray:
    """Exact integer action of twice the penalty: sum over pairs of (v + swap v)."""
    tensor = vec.reshape((modes,) * n)
    out = np.zeros_like(tensor)
    for i in range(n):
        for j in range(i + 1, n):
            axes = list(range(n))
            axes[i], axes[j] = axes[j], axes[i]
            out = out + tensor + np.transpose(tensor, axes)
    return out.reshape(-1)


def exchange_penalty_dense(n: int, modes: int) -> np.ndarray:
    """Dense penalty matrix on the label space (modes^n dimensions)."""
    dim = modes ** n
    limits.check_dense(dim)
    eye = np.eye(dim)
    total = np.zeros((dim, dim))
    for col in range(dim):
        total[:, col] = apply_exchange_penalty_doubled(eye[:, col], n, modes) / 2.0
    return total


def spectrum_matches_partitions(n: int, modes: int, tol: float = 1e-9):
    """Compare the dense penalty spectrum with the partition eigenvalue set.

    Returns (bool, sorted eigenvalue set, expected Fractions).  The
    smallest nonzero value equals n/2 whenever the (n-1, 1) shape fits,
    i.e. n - 1 <= modes.  It needs n >= 0 and modes >= 1.
    """
    if n < 0 or modes < 1:
        raise ValueError(f"the penalty spectrum needs N >= 0 particles and M >= 1 modes, "
                         f"got N={n}, M={modes}")
    dense = exchange_penalty_dense(n, modes)
    values = np.linalg.eigvalsh(dense)
    expected = sorted({partition_eigenvalue(p) for p in column_partitions(n, modes)})
    rounded = sorted({Fraction(round(v * 2), 2) for v in values})
    close = all(
        min(abs(v - float(e)) for e in expected) < tol for v in values
    )
    return (rounded == expected and close), rounded, expected
