"""Register-per-particle encoding with orthogonal-array term grouping.

N particles over M = 2^m modes are stored in N registers of m qubits
holding antisymmetrized mode labels.  The simulator is the sum of a
one-body part, a two-body part, and a penalty proportional to the sum of
(identity + register swap)/2 over register pairs, which vanishes exactly
on antisymmetric states.  Pauli terms, each supported on at most two
registers, are grouped into measurement bases by a strength-two
orthogonal array over the 3^m per-register letter words, so the number of
groups never exceeds 9^m.

The pipeline runs on arrays from the parts to the bins.  Each part is
built as mask-word and coefficient arrays, its phases and register
factors multiplied by numpy, and handed to the one array merge,
``QubitHamiltonian.merged``.  GF(3^m) addition, multiplication,
negation and inversion are lookup tables.  The Rao-Hamming array
(Hedayat, Sloane & Stufken, Orthogonal Arrays, 1999, ch. 3) is never
built to bin terms: binning reads each register's word value off a
term's masks (X, Y, Z = 0, 1, 2 as base-3 digits) and computes its row
(a, b) in the field, the first row holding the word for a term on one
register, the unique row holding the word pair, by strength two, for a
term on two.  ``rao_hamming_oa`` builds the whole array for ``fertaper
oa`` and as the binning oracle.  The field tables go up to m = 5, so
M <= 32 modes (MAX_MODES).

The penalty spectrum is fully determined by integer partitions: the
eigenvalue attached to column lengths (l_1 >= ... >= l_d) is
(C(N,2) - sum_a C(l_a,2) + sum_{a<b} l_b) / 2, with eigenvectors built as
tensor products of fully antisymmetric column states.
"""

from __future__ import annotations

import functools
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


def _unit_coeffs(m_bits: int) -> np.ndarray:
    """Coefficients of the m-qubit |a><b|, indexed [b, z mask], first qubit most significant.

    Per qubit: |0><0| and |1><1| are (identity +/- Z)/2, while |0><1| and
    |1><0| are (X +/- iY)/2 = X(1)(identity -/+ Z)/2.  So |a><b| is X(a^b)
    times the sum over z masks k of (-1)^popcount(b & k) Z(k) / 2^m.  Each
    qubit halves every coefficient and then negates the ones whose z bit
    meets a set bit of b, complex multiplies that fix the signed zeros.
    """
    labels = np.arange(1 << m_bits)
    coeffs = np.ones((1 << m_bits, 1), dtype=complex)
    for i in range(m_bits):
        half = coeffs * 0.5
        sign = np.where(labels >> (m_bits - 1 - i) & 1, -1.0, 1.0)[:, None]
        coeffs = np.stack([half, half * sign], axis=2).reshape(len(labels), -1)
    return coeffs


_PHASES = np.array(_PHASE, dtype=complex)


def _hermitian_coeff(coeffs, x_masks, z_masks) -> np.ndarray:
    """Coefficients on the Hermitian letter Paulis of coeffs * X(x) Z(z), broadcast.

    The same complex multiply ``QubitHamiltonian`` folds a phase with, so
    signed zeros come out as they do there.
    """
    count = np.bitwise_count(np.bitwise_and(x_masks, z_masks)).astype(np.intp)
    return coeffs * _PHASES[-count % 4]


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

    Each part is built as mask word and coefficient arrays by broadcasting,
    and handed to ``QubitHamiltonian.merged``.  Terms come in (matrix unit,
    register, z mask) order, t row by row and u in its order, so repeated
    Paulis sum in a fixed order.  Zero interaction entries are skipped
    (the arrays of ``h.interactions``).
    """
    if h.modes != enc.modes:
        raise ValueError("mode count mismatch")
    n, m, q = enc.particles, enc.register_bits, enc.qubits
    # fields[i, v]: the mask words of the m-bit value v on register i + 1
    fields = gf2.uint64_words([v << (q - m * i) for i in range(1, n + 1) for v in range(1 << m)],
                              q).reshape(n, 1 << m, -1)
    width = fields.shape[2]
    local = np.arange(1 << m)  # register z masks, in term order
    unit = _unit_coeffs(m)  # of |a><b|, [b, z mask]
    # register factors go into a running product that starts at 1+0j; that
    # multiply can flip the sign of a zero imaginary part, and the written
    # bytes keep the sign
    first = (1.0 + 0.0j) * unit

    def merged(x_masks, z_masks, coeffs) -> QubitHamiltonian:
        shape = np.broadcast_shapes(x_masks.shape[:-1], z_masks.shape[:-1], coeffs.shape)
        x, z = (np.broadcast_to(a, (*shape, width)).reshape(-1, width) for a in (x_masks, z_masks))
        return QubitHamiltonian.merged(q, x, z, np.broadcast_to(coeffs, shape).ravel())

    # One-body: (a, b) entry x register x z mask
    rows, cols = np.nonzero(h.t)
    x_local = rows ^ cols
    coeffs = _hermitian_coeff(h.t[rows, cols][:, None] * first[cols],
                              x_local[:, None], local[None, :])[:, None, :]
    one_body = merged(fields[np.arange(n), x_local[:, None]][:, :, None], fields[None], coeffs)

    # Two-body: (a, b, g, d) entry x register pair i != j x z mask on i x z mask on j
    keys, values = h.interactions
    keys = keys - 1
    ordered = np.array([(i, j) for i in range(n) for j in range(n) if i != j],
                       dtype=np.intp).reshape(-1, 2)
    f_i, f_j = fields[ordered[:, 0]], fields[ordered[:, 1]]
    x_ag, x_bd = keys[:, 0] ^ keys[:, 2], keys[:, 1] ^ keys[:, 3]
    pair = first[keys[:, 2], :, None] * unit[keys[:, 3], None, :]  # [entry, z on i, z on j]
    coeffs = _hermitian_coeff(
        -values[:, None, None] * pair,
        (x_ag | x_bd << m)[:, None, None], local[None, :, None] | local[None, None, :] << m,
    )[:, None]
    two_body = merged((f_i[:, x_ag] | f_j[:, x_bd]).transpose(1, 0, 2)[:, :, None, None],
                      f_i[:, :, None] | f_j[:, None, :], coeffs)

    # Exchange: register pair i < j x (identity, then each matched letter word).
    upper = np.array([(i, j) for i in range(n) for j in range(i + 1, n)],
                     dtype=np.intp).reshape(-1, 2)
    letters = np.arange(4 ** m)[:, None] >> 2 * np.arange(m - 1, -1, -1) & 3  # I, X, Y, Z
    bit = 1 << np.arange(m - 1, -1, -1)  # first qubit most significant
    x_word = np.concatenate([[0], ((letters ^ letters >> 1) & 1) @ bit])
    z_word = np.concatenate([[0], (letters >> 1) @ bit])
    f_i, f_j = fields[upper[:, 0]], fields[upper[:, 1]]
    # (identity + swap)/2 with swap = 2^-m sum over matched letter words
    coeffs = np.array([0.5] + [0.5 / enc.padded_modes] * 4 ** m, dtype=complex)
    exchange = merged(f_i[:, x_word] | f_j[:, x_word], f_i[:, z_word] | f_j[:, z_word], coeffs)
    return FirstQuantizedParts(one_body, two_body, exchange)


# -- orthogonal array --------------------------------------------------------


class TernaryField:
    """GF(3^m) arithmetic over a fixed irreducible polynomial, by table lookup.

    Elements are integers whose base-3 digits are polynomial coefficients
    (constant digit first).  Construction fills 3^m x 3^m ``add_table``
    and ``mul_table`` arrays from digit arithmetic on every pair at once,
    the product reduced by the polynomial, and the 3^m-entry ``neg_table``
    and ``inv_table`` (the inverse of 0 reads 0).  It checks the field
    axiom on the product table, every nonzero element having an inverse,
    which holds exactly when the polynomial is irreducible.  The tables are
    read-only, so one field can be shared.
    """

    # x, x^2+1, x^3+2x+1, x^4+x+2, x^5+2x+1 as coefficient tuples (constant first, monic)
    POLYS = {1: (0, 1), 2: (1, 0, 1), 3: (1, 2, 0, 1), 4: (2, 1, 0, 0, 1), 5: (1, 2, 0, 0, 0, 1)}

    def __init__(self, m: int):
        if m not in self.POLYS:
            raise ValueError(f"unsupported extension degree {m}; have {sorted(self.POLYS)}")
        self.m = m
        self.size = 3 ** m
        self.poly = self.POLYS[m]
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
        self.neg_table = (-digits) % 3 @ power
        ones = self.mul_table == 1
        if not ones[1:].any(axis=1).all():
            raise AssertionError(f"tabulated polynomial for degree {m} is reducible")
        self.inv_table = np.argmax(ones, axis=1)  # 0 has none; reads 0
        for table in (self.add_table, self.mul_table, self.neg_table, self.inv_table):
            table.flags.writeable = False


MAX_MODES = 2 ** max(TernaryField.POLYS)  # modes the array grouping covers


def register_field(enc: RegisterEncoding) -> TernaryField:
    """GF(3^m) for m-qubit registers, whose elements label the array columns.

    Built once per m.  Past MAX_MODES modes there is no tabulated
    polynomial, and the ValueError names that limit.
    """
    if enc.register_bits not in TernaryField.POLYS:
        raise ValueError(f"firstq groups terms for at most {MAX_MODES} modes, "
                         f"got {enc.modes}")
    return _field(enc.register_bits)


_field = functools.cache(TernaryField)


LETTERS = "XYZ"  # digit 0 -> X basis, 1 -> Y, 2 -> Z (fixed labeling)


def letter_words(m: int) -> list[str]:
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
        words = letter_words(self.register_bits)
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

    ``bin_terms`` computes the rows it needs in the field; the whole array
    serves ``fertaper oa`` and the binning oracle of the tests.
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
    words ``required_words`` spells.  Each register's x and z fields are
    read off the masks' bits and looked up in a 2^m x 2^m table.
    """
    m, q = enc.register_bits, enc.qubits
    bits = np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1) & 1  # [mask, qubit]
    value = np.where(bits[:, None, :], bits[None, :, :], 2) @ 3 ** np.arange(m - 1, -1, -1)
    place = 1 << np.arange(m - 1, -1, -1)
    x, z = (gf2.unpack_ints(v, q).reshape(len(h), enc.particles, m) @ place
            for v in (h.x_masks, h.z_masks))
    return value[x, z], (x | z) != 0


def bin_terms(h: QubitHamiltonian, enc: RegisterEncoding):
    """Group terms into rows of the Rao-Hamming array that diagonalize them.

    Every term must touch at most two registers; by the strength-two
    property at least one row matches its register words, and the
    lexicographically smallest matching row is chosen.  Returns a list of
    (row letters, term indices) groups, at most 9^m of them, in row order:
    the indices are an ascending int array into ``h.canonicalize()``, so a
    caller reads each group's masks and coefficients off that one sum.

    No array is built: each term's row comes from GF(3^m) arithmetic on
    its register words (``rao_hamming_oa`` is the oracle).  Row (a, b)
    holds a*c + b in the column of field element c, register c + 1, and a
    in the last column, and its rank in row order is that of the key
    b * 3^m + (a + b), its first two columns.  The smallest row holding
    - no word is (0, 0);
    - word v on register c + 1 is (-v, v) for c = 0, (v/c, 0) for another
      element and (v, 0) in the last column;
    - words v1, v2 on registers c1 + 1 < c2 + 1 is the one row with
      a = (v1 - v2)/(c1 - c2), or a = v2 in the last column, and
      b = v1 - a*c1.
    """
    h = h.canonicalize()
    field = register_field(enc)
    size, add, mul = field.size, field.add_table, field.mul_table
    neg, inv = field.neg_table, field.inv_table
    words, touched = _register_words(h, enc)
    count = touched.sum(axis=1)
    wide = np.flatnonzero(count > 2)
    if wide.size:
        raise UnassignableTerm(
            f"term {h.terms[wide[0]][1].label} touches {count[wide[0]]} registers"
        )
    n = enc.particles
    terms = np.arange(len(h))
    c1 = np.argmax(touched, axis=1)  # first and last touched register, 0-based
    c2 = n - 1 - np.argmax(touched[:, ::-1], axis=1)
    lost = np.flatnonzero((count > 0) & (c2 > size))
    if lost.size:  # a register past the last column
        raise UnassignableTerm(f"no array row diagonalizes {h.terms[lost[0]][1].label}")
    v1, v2 = words[terms, c1], words[terms, c2]
    a, b = np.zeros((2, len(h)), dtype=np.intp)
    one = np.flatnonzero(count == 1)
    c, v = c1[one], v1[one]
    a[one] = np.where(c == 0, neg[v], np.where(c == size, v, mul[v, inv[c % size]]))
    b[one] = np.where(c == 0, v, 0)
    two = np.flatnonzero(count == 2)
    c, d, v, w = c1[two], c2[two], v1[two], v2[two]
    a[two] = np.where(d == size, w, mul[add[v, neg[w]], inv[add[c, neg[d % size]]]])
    b[two] = add[v, neg[mul[a[two], c]]]
    key = b * size + add[a, b]
    order = np.argsort(key, kind="stable")
    used, starts = np.unique(key[order], return_index=True)
    b, a_plus_b = divmod(used, size)
    a = add[a_plus_b, neg[b]]
    values = np.column_stack([add[mul[a[:, None], np.arange(size)], b[:, None]], a])
    words = np.array(letter_words(enc.register_bits), dtype=object)[values]
    ends = [*starts[1:].tolist(), len(order)]
    return [(tuple(row), order[start:end])
            for row, start, end in zip(words.tolist(), starts.tolist(), ends)]


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
