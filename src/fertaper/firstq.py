"""Register-per-particle encoding with orthogonal-array term grouping.

N particles over M = 2^m modes are stored in N registers of m qubits
holding antisymmetrized mode labels.  The simulator is the sum of a
one-body part, a two-body part, and a penalty proportional to the sum of
(identity + register swap)/2 over register pairs, which vanishes exactly
on antisymmetric states.  Pauli terms, each supported on at most two
registers, are grouped into measurement bases by a strength-two
orthogonal array over the 3^m per-register letter words, so the number of
groups never exceeds 9^m.

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

from fertaper.fermion import FermionHamiltonian, FockState
from fertaper.pauli import PauliOperator, QubitHamiltonian

STATE_DIM_CAP = 1 << 14


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
    dim = enc.padded_modes ** n
    if dim > STATE_DIM_CAP or factorial(n) > 10_000:
        raise ValueError("first-quantized state too large to materialize")
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


def _matrix_unit_terms(m_bits: int, a: int, b: int):
    """m-qubit |a-1><b-1| as a list of (coeff, x bits, z bits) triples.

    Per qubit: |0><0| and |1><1| are (identity +/- Z)/2, while |0><1| and
    |1><0| are (X +/- iY)/2 = X(1)(identity -/+ Z)/2.
    """
    abits = [(a - 1) >> (m_bits - 1 - i) & 1 for i in range(m_bits)]
    bbits = [(b - 1) >> (m_bits - 1 - i) & 1 for i in range(m_bits)]
    terms = [(1.0 + 0.0j, [], [])]
    for i in range(m_bits):
        x_bit = abits[i] ^ bbits[i]
        new_terms = []
        for coeff, xs, zs in terms:
            # (I + (-1)^{b_i} Z)/2 after an X applied when bits differ
            new_terms.append((coeff * 0.5, xs + [x_bit], zs + [0]))
            sign = -1.0 if bbits[i] else 1.0
            new_terms.append((coeff * 0.5 * sign, xs + [x_bit], zs + [1]))
        terms = new_terms
    return terms


def _embed(enc: RegisterEncoding, placements) -> list[tuple[complex, PauliOperator]]:
    """Tensor together per-register (coeff, x, z) term lists into full Paulis."""
    q = enc.qubits
    m = enc.register_bits
    out = [(1.0 + 0.0j, [0] * q, [0] * q)]
    for register, terms in placements:
        offset = (register - 1) * m
        new_out = []
        for coeff0, x0, z0 in out:
            for coeff, xs, zs in terms:
                x1 = list(x0)
                z1 = list(z0)
                x1[offset : offset + m] = xs
                z1[offset : offset + m] = zs
                new_out.append((coeff0 * coeff, x1, z1))
        out = new_out
    return [(c, PauliOperator(tuple(x), tuple(z), 0)) for c, x, z in out]


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
    """
    if h.modes != enc.modes:
        raise ValueError("mode count mismatch")
    n, m, q = enc.particles, enc.register_bits, enc.qubits
    one_terms: list[tuple[complex, PauliOperator]] = []
    rows, cols = np.nonzero(h.t)
    for a, b in zip(rows, cols):
        units = _matrix_unit_terms(m, a + 1, b + 1)
        for i in range(1, n + 1):
            one_terms.extend(
                (h.t[a, b] * c, op) for c, op in _embed(enc, [(i, units)])
            )
    one_body = QubitHamiltonian(q, tuple(one_terms)).canonicalize()

    two_terms: list[tuple[complex, PauliOperator]] = []
    for (a, b, g, d), coeff in h.u.items():
        unit_ag = _matrix_unit_terms(m, a, g)
        unit_bd = _matrix_unit_terms(m, b, d)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                placed = _embed(enc, [(i, unit_ag), (j, unit_bd)])
                two_terms.extend((-coeff * c, op) for c, op in placed)
    two_body = QubitHamiltonian(q, tuple(two_terms)).canonicalize()

    swap_terms: list[tuple[complex, PauliOperator]] = []
    single = [("I", (0, 0)), ("X", (1, 0)), ("Y", (1, 1)), ("Z", (0, 1))]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # (identity + swap)/2 with swap = 2^-m sum over matched letter words
            swap_terms.append((0.5, PauliOperator.identity(q)))
            for word in itertools.product(single, repeat=m):
                x = [0] * q
                z = [0] * q
                phase = 0
                for reg in (i, j):
                    offset = (reg - 1) * m
                    for pos, (_, (xb, zb)) in enumerate(word):
                        x[offset + pos] = xb
                        z[offset + pos] = zb
                        phase += xb & zb
                swap_terms.append(
                    (0.5 / enc.padded_modes, PauliOperator(tuple(x), tuple(z), phase % 4))
                )
    exchange = QubitHamiltonian(q, tuple(swap_terms)).canonicalize()
    return FirstQuantizedParts(one_body, two_body, exchange)


def default_penalty_scale(h: FermionHamiltonian) -> float:
    total = float(np.abs(h.t).sum()) + sum(abs(v) for v in h.u.values())
    return 4.0 * total / max(1, h.particles)


# -- orthogonal array --------------------------------------------------------


class TernaryField:
    """GF(3^m) arithmetic over a fixed irreducible polynomial.

    Elements are integers whose base-3 digits are polynomial coefficients
    (constant digit first).  The tabulated polynomials are re-verified
    irreducible at construction time by an exhaustive factor check.
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

    def _digits(self, value: int) -> tuple:
        out = []
        for _ in range(self.m):
            out.append(value % 3)
            value //= 3
        return tuple(out)

    def _value(self, digits) -> int:
        out = 0
        for d in reversed(list(digits)):
            out = out * 3 + d
        return out

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._value((x + y) % 3 for x, y in zip(da, db))

    def mul(self, a: int, b: int) -> int:
        prod = self._poly_mul(self._digits(a), self._digits(b))
        return self._value(self._poly_mod(prod, self.poly))


LETTERS = "XYZ"  # digit 0 -> X basis, 1 -> Y, 2 -> Z (fixed labeling)


@dataclass(frozen=True)
class OrthogonalArray:
    """Strength-two index-one array over m-letter X/Y/Z words."""

    register_bits: int
    rows: tuple[tuple[str, ...], ...]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def column_count(self) -> int:
        return len(self.rows[0])

    def verify_strength_two(self) -> bool:
        """Exhaustive check: every column pair sees every word pair once."""
        k = self.column_count
        for c1 in range(k):
            for c2 in range(c1 + 1, k):
                seen = {(row[c1], row[c2]) for row in self.rows}
                if len(seen) != len(self.rows):
                    return False
        return True


def rao_hamming_oa(m: int) -> OrthogonalArray:
    """9^m x (3^m + 1) array from affine evaluations over GF(3^m).

    Row (a, b) holds the word of a*c + b at the column labeled by the
    field element c, plus a final column holding a itself; any two
    evaluation points determine (a, b), so each word pair appears exactly
    once per column pair.
    """
    field = TernaryField(m)
    size = field.size

    def word(value: int) -> str:
        digits = []
        for _ in range(m):
            digits.append(value % 3)
            value //= 3
        return "".join(LETTERS[d] for d in reversed(digits))

    rows = []
    for a in range(size):
        for b in range(size):
            row = [word(field.add(field.mul(a, c), b)) for c in range(size)]
            row.append(word(a))
            rows.append(tuple(row))
    return OrthogonalArray(m, tuple(rows))


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


def bin_terms(h: QubitHamiltonian, oa: OrthogonalArray, enc: RegisterEncoding):
    """Group terms into rows of the array that diagonalize them.

    Every term must touch at most two registers; by the strength-two
    property at least one row matches its register words, and the
    lexicographically smallest matching row is chosen.  Returns a list of
    (row letters, [(coeff, op), ...]) groups, at most 9^m of them.
    """
    rows = sorted(oa.rows)
    # (column, word) -> positions in sorted order of the rows holding it
    holding: dict[tuple[int, str], set[int]] = {}
    for pos, row in enumerate(rows):
        for col, word in enumerate(row):
            holding.setdefault((col, word), set()).add(pos)
    groups: dict[tuple[str, ...], list] = {}
    for coeff, op in h.canonicalize().terms:
        words = required_words(op, enc)
        if len(words) > 2:
            raise UnassignableTerm(
                f"term {op.label} touches {len(words)} registers"
            )
        held = [holding.get((reg - 1, w), set()) for reg, w in words.items()]
        matches = set.intersection(*held) if held else {0}  # no word: every row fits
        if not matches:
            raise UnassignableTerm(f"no array row diagonalizes {op.label}")
        groups.setdefault(rows[min(matches)], []).append((coeff, op))
    return sorted(groups.items())


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
    if dim > STATE_DIM_CAP:
        raise ValueError("eigenvector too large to materialize")
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
    if dim > STATE_DIM_CAP:
        raise ValueError("penalty matrix too large")
    eye = np.eye(dim)
    total = np.zeros((dim, dim))
    for col in range(dim):
        total[:, col] = apply_exchange_penalty_doubled(eye[:, col], n, modes) / 2.0
    return total


def spectrum_matches_partitions(n: int, modes: int, tol: float = 1e-9):
    """Compare the dense penalty spectrum with the partition eigenvalue set.

    Returns (bool, sorted eigenvalue set, expected Fractions).  The
    smallest nonzero value equals n/2 whenever the (n-1, 1) shape fits,
    i.e. n - 1 <= modes.
    """
    dense = exchange_penalty_dense(n, modes)
    values = np.linalg.eigvalsh(dense)
    expected = sorted({partition_eigenvalue(p) for p in column_partitions(n, modes)})
    rounded = sorted({Fraction(round(v * 2), 2) for v in values})
    close = all(
        min(abs(v - float(e)) for e in expected) < tol for v in values
    )
    return (rounded == expected and close), rounded, expected
