"""Exact symplectic Pauli algebra on packed (x|z) bit masks.

A Pauli operator on n qubits is ``i**phase_power * X(x) * Z(z)`` where x
and z are n-bit vectors and X(x), Z(z) are products of single-qubit X / Z
over their supports.  The phase power is tracked modulo 4, which is
closed under multiplication, so products are exact including sign.

Qubits are numbered 1..n with qubit 1 the leftmost letter of a label such
as "ZZII" and the most significant tensor factor of the dense matrix.

Mask layout.  ``PauliOperator`` stores ``(n, x_mask, z_mask, phase_power)``
as Python ints, with qubit 1 as the most significant bit (bit n-1) and
qubit n as bit 0.  A mask therefore reads like the label, and X(x) sends
the dense basis index s to ``s ^ x_mask``.  Products are an XOR of masks
plus a popcount for the sign, and commutation is a popcount parity: the
symplectic representation of Aaronson & Gottesman (PRA 70, 052328, 2004),
bit-packed as in Stim (Gidney, Quantum 5, 497, 2021).  ``.x`` and ``.z``
are bit-tuple views of the masks.

A ``QubitHamiltonian`` stores parallel tuples ``x_masks``, ``z_masks`` and
``coeffs``.  Each term is its coefficient times the Hermitian letter Pauli
of its masks (phase power = number of Y letters): the phase of any
operator a sum is built from is folded into the coefficient on entry.  A
sum is canonical when its masks are distinct, ordered by (x, z), and no
coefficient is below the pruning tolerance.  ``QubitHamiltonian.merged``
reaches that form from mask and coefficient arrays: one stable sort of
the (x, z) keys ranks the distinct Paulis, and ``np.add.at`` adds each
one's coefficients from 0 in the order given.  ``canonicalize`` is that
merge on a sum's own terms; it sets the ``canonical`` flag on the result,
so canonicalizing it again returns the same object.  ``.terms`` is a
``(coeff, PauliOperator)`` view built on first use.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from fertaper import gf2, limits

DEFAULT_PRUNE_TOL = 1e-12

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_PHASE = (1, 1j, -1, -1j)

_PREFIXES = {"": 0, "+": 0, "+1": 0, "+i": 1, "i": 1, "-1": 2, "-": 2, "-i": 3}

# letter codes x + 2z, and the label characters that carry an x or z bit
_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


def _split_label(label: str) -> tuple[int, str]:
    """(phase power of the prefix, letter string) of a label like "-iXY"."""
    text = label.strip()
    letters = text.lstrip("+-1i")
    prefix = text[: len(text) - len(letters)]
    if prefix not in _PREFIXES:
        raise ValueError(f"unknown phase prefix {prefix!r} in {label!r}")
    if not letters or letters.strip("IXYZ"):
        raise ValueError(f"invalid Pauli label {label!r}")
    return _PREFIXES[prefix], letters


def _letter_masks(letters: str) -> tuple[int, int]:
    # the leading 0 lets the empty (zero-qubit) string parse too
    return int("0" + letters.translate(_X_BITS), 2), int("0" + letters.translate(_Z_BITS), 2)


def _letter(x_mask: int, z_mask: int, shift: int) -> str:
    """Letter of the qubit stored at bit position shift."""
    return "IXZY"[(x_mask >> shift & 1) | (z_mask >> shift & 1) << 1]


def _labels(n: int, x_masks, z_masks) -> list[str]:
    """Letter strings (no phase prefix) of many mask pairs at once."""
    codes = gf2.unpack_ints(x_masks, n) + 2 * gf2.unpack_ints(z_masks, n)
    text = _LETTERS[codes].tobytes().decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)] if n else [""] * len(x_masks)


def mask_array(masks, n: int) -> np.ndarray:
    """n-bit masks as an array: uint64 up to 64 qubits, Python ints (object) past that."""
    return np.asarray(masks, dtype=np.uint64 if n <= 64 else object).reshape(-1)


def _words(masks: np.ndarray, n: int) -> list[np.ndarray]:
    """A ``mask_array`` array as uint64 words, the least significant first."""
    if masks.dtype != object:
        return [masks]
    return list(gf2.uint64_words(masks, n).T[::-1])


class PauliOperator:
    """n-qubit Pauli ``i**phase_power * X(x) * Z(z)`` with exact phase.

    ``PauliOperator(x_bits, z_bits, phase_power)`` packs bit sequences;
    ``from_masks`` takes the packed ints directly.
    """

    __slots__ = ("n", "x_mask", "z_mask", "phase_power")

    def __init__(self, x, z, phase_power: int = 0):
        if len(x) != len(z):
            raise ValueError("x and z bit vectors differ in length")
        _fill_slots(self, len(x), gf2.bits_to_int(int(b) & 1 for b in x),
                    gf2.bits_to_int(int(b) & 1 for b in z), int(phase_power) % 4)

    def __setattr__(self, name, value):
        raise AttributeError("PauliOperator is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_masks(cls, n: int, x_mask: int, z_mask: int, phase_power: int = 0) -> "PauliOperator":
        op = object.__new__(cls)
        _fill_slots(op, n, x_mask, z_mask, phase_power % 4)
        return op

    @classmethod
    def from_label(cls, label: str) -> "PauliOperator":
        """Parse e.g. "ZZII", "-i" + "XY", "+1YZ".  Qubit 1 is leftmost."""
        prefix, letters = _split_label(label)
        x, z = _letter_masks(letters)
        return cls.from_masks(len(letters), x, z, prefix + letters.count("Y"))

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliOperator":
        """Single-letter Pauli at a 1-based qubit index."""
        letters = ["I"] * n
        letters[_check_index(qubit, n) - 1] = letter
        return cls.from_label("".join(letters))

    # -- structure ---------------------------------------------------

    @property
    def x(self) -> tuple[int, ...]:
        return _bit_tuple(self.x_mask, self.n)

    @property
    def z(self) -> tuple[int, ...]:
        return _bit_tuple(self.z_mask, self.n)

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    def letter_at(self, qubit: int) -> str:
        return _letter(self.x_mask, self.z_mask, self.n - _check_index(qubit, self.n))

    @property
    def label(self) -> str:
        """Letter string with a phase prefix, inverse of from_label."""
        head = ("", "+i", "-1", "-i")[(self.phase_power - self.y_count) % 4]
        return head + "".join(_letter(self.x_mask, self.z_mask, shift)
                              for shift in range(self.n - 1, -1, -1))

    def is_hermitian(self) -> bool:
        return (self.phase_power - self.y_count) % 2 == 0

    # -- dense oracle ------------------------------------------------

    def dense(self) -> np.ndarray:
        """Exact 2^n x 2^n matrix; qubit 1 is the most significant factor."""
        return QubitHamiltonian(self.n, ((1, self),)).dense()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (self.n, self.x_mask, self.z_mask, self.phase_power) == \
            (other.n, other.x_mask, other.z_mask, other.phase_power)

    def __hash__(self) -> int:
        return hash((self.n, self.x_mask, self.z_mask, self.phase_power))

    def __repr__(self) -> str:
        return f"PauliOperator({self.label!r})"


def _fill_slots(obj, *values) -> None:
    """Set the slots of an immutable object, whose own __setattr__ refuses."""
    for name, value in zip(type(obj).__slots__, values):
        object.__setattr__(obj, name, value)


def _check_index(q: int, n: int) -> int:
    if not 1 <= q <= n:
        raise IndexError(f"qubit index {q} out of range 1..{n}")
    return q


def qubit_mask(n: int, qubits) -> int:
    """Mask with the bits of the given 1-based qubits set (qubit 1 most significant)."""
    mask = 0
    for q in qubits:
        mask |= 1 << (n - _check_index(q, n))
    return mask


def _bit_tuple(mask: int, n: int) -> tuple[int, ...]:
    return tuple(mask >> shift & 1 for shift in range(n - 1, -1, -1))


def pauli_multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Exact product a·b including phase."""
    if a.n != b.n:
        raise ValueError("length mismatch in Pauli product")
    # Z(z_a) X(x_b) = (-1)^(z_a . x_b) X(x_b) Z(z_a)
    swap = (a.z_mask & b.x_mask).bit_count()
    return PauliOperator.from_masks(a.n, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask,
                                    a.phase_power + b.phase_power + 2 * swap)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """Symplectic commutation test: a_x.b_z + a_z.b_x = 0 mod 2."""
    if a.n != b.n:
        raise ValueError("length mismatch in commutation test")
    return not ((a.x_mask & b.z_mask) ^ (a.z_mask & b.x_mask)).bit_count() & 1


class QubitHamiltonian:
    """Weighted sum of Pauli operators on a fixed number of qubits.

    ``QubitHamiltonian(n, terms)`` takes ``(coeff, PauliOperator)`` pairs
    and folds each operator's phase into its coefficient; ``from_masks``
    takes the packed sequences directly.
    """

    __slots__ = ("qubit_count", "x_masks", "z_masks", "coeffs", "canonical", "_terms")

    def __init__(self, qubit_count: int, terms):
        xs, zs, cs = [], [], []
        for coeff, op in terms:
            if op.n != qubit_count:
                raise ValueError("term length does not match qubit count")
            xs.append(op.x_mask)
            zs.append(op.z_mask)
            shift = (op.phase_power - op.y_count) % 4
            cs.append(complex(coeff) * _PHASE[shift])
        _fill_slots(self, qubit_count, tuple(xs), tuple(zs), tuple(cs), False, None)

    def __setattr__(self, name, value):
        raise AttributeError("QubitHamiltonian is immutable")

    @classmethod
    def from_masks(cls, n: int, x_masks, z_masks, coeffs,
                   canonical: bool = False) -> "QubitHamiltonian":
        """Sum of coeffs[k] times the Hermitian letter Pauli of (x_masks[k], z_masks[k]).

        ``canonical`` asserts the caller already holds the canonical form.
        """
        h = object.__new__(cls)
        _fill_slots(h, n, tuple(x_masks), tuple(z_masks), tuple(coeffs), canonical, None)
        return h

    @classmethod
    def zero(cls, n: int) -> "QubitHamiltonian":
        return cls.from_masks(n, (), (), (), canonical=True)

    @property
    def terms(self) -> tuple[tuple[complex, PauliOperator], ...]:
        """(coeff, Hermitian letter Pauli) pairs, built once per sum."""
        if self._terms is None:
            n = self.qubit_count
            object.__setattr__(self, "_terms", tuple(
                (c, PauliOperator.from_masks(n, x, z, (x & z).bit_count()))
                for x, z, c in zip(self.x_masks, self.z_masks, self.coeffs)
            ))
        return self._terms

    @classmethod
    def merged(cls, n: int, x_masks, z_masks, coeffs) -> "QubitHamiltonian":
        """The canonical sum of coeffs[k] times the letter Pauli of (x_masks[k], z_masks[k]).

        Masks are sequences of ints or ``mask_array`` arrays; coefficients
        any complex sequence or array.  A stable sort of the (x, z) keys
        ranks the distinct Paulis, and ``np.add.at`` adds each one's
        coefficients to 0+0j in the order given, as a running sum would:
        a lone term's -0.0 parts come out 0.0.  A sum that is not finite
        raises ValueError naming its Pauli; sums below DEFAULT_PRUNE_TOL are
        pruned.
        """
        x, z = mask_array(x_masks, n), mask_array(z_masks, n)
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if not len(x) == len(z) == len(coeffs):
            raise ValueError("masks and coefficients differ in length")
        if not len(coeffs):
            return cls.zero(n)
        order = np.lexsort([*_words(z, n), *_words(x, n)])  # by (x, z), stable
        xs, zs = x[order], z[order]
        new = np.ones(len(order), dtype=bool)  # first of its key in sorted order
        new[1:] = (xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1])
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.cumsum(new) - 1
        sums = np.zeros(int(rank[order[-1]]) + 1, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            np.add.at(sums, rank, coeffs)
        first = order[new]  # a term of each distinct Pauli, in key order
        bad = np.flatnonzero(~np.isfinite(sums))
        if bad.size:
            k = first[bad[:1]]
            label = _labels(n, x[k].tolist(), z[k].tolist())[0]
            raise ValueError(f"the coefficient of {label!r} sums to {complex(sums[bad[0]])}, "
                             "which is not finite")
        kept = np.abs(sums) >= DEFAULT_PRUNE_TOL
        return cls.from_masks(n, x[first[kept]].tolist(), z[first[kept]].tolist(),
                              sums[kept].tolist(), canonical=True)

    def canonicalize(self) -> "QubitHamiltonian":
        """Merge equal Pauli strings, prune tiny coefficients, sort terms.

        Every surviving Pauli is the plain Hermitian letter form; term
        order is lexicographic on (x|z).  This is ``merged`` on the sum's
        own terms, and a sum already marked canonical is returned as it is.
        """
        if self.canonical:
            return self
        return QubitHamiltonian.merged(self.qubit_count, self.x_masks, self.z_masks, self.coeffs)

    def dense(self) -> np.ndarray:
        """Exact dense matrix of the sum (guarded by the qubit cap)."""
        dim = 1 << self.qubit_count
        limits.check_dense(dim)
        mat = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim, dtype=np.int64)
        for x, z, c in zip(self.x_masks, self.z_masks, self.coeffs):
            signs = 1 - 2 * (np.bitwise_count(cols & z).astype(np.int64) & 1)
            mat[cols ^ x, cols] += c * _PHASE[(x & z).bit_count() % 4] * signs
        return mat

    def is_hermitian(self) -> bool:
        # canonical Paulis are Hermitian, so only the coefficients can fail
        return all(abs(c.imag) <= 1e-10 for c in self.canonicalize().coeffs)

    def operator_set(self, include_identity: bool = False) -> set[str]:
        """Labels of the distinct canonical Paulis (identity optional)."""
        h = self.canonicalize()
        pairs = [(x, z) for x, z in zip(h.x_masks, h.z_masks) if include_identity or x | z]
        return set(_labels(h.qubit_count, [x for x, _ in pairs], [z for _, z in pairs]))

    def __add__(self, other: "QubitHamiltonian") -> "QubitHamiltonian":
        if other.qubit_count != self.qubit_count:
            raise ValueError("qubit count mismatch")
        return QubitHamiltonian.from_masks(self.qubit_count, self.x_masks + other.x_masks,
                                           self.z_masks + other.z_masks,
                                           self.coeffs + other.coeffs)

    def scaled(self, factor: complex) -> "QubitHamiltonian":
        return QubitHamiltonian.from_masks(self.qubit_count, self.x_masks, self.z_masks,
                                           (np.asarray(self.coeffs, dtype=complex) * factor)
                                           .tolist())

    def product(self, other: "QubitHamiltonian") -> "QubitHamiltonian":
        """Term-by-term operator product, merged eagerly."""
        if other.qubit_count != self.qubit_count:
            raise ValueError("qubit count mismatch")
        xs, zs, cs = [], [], []
        right = [(xb, zb, (xb & zb).bit_count(), cb)
                 for xb, zb, cb in zip(other.x_masks, other.z_masks, other.coeffs)]
        for xa, za, ca in zip(self.x_masks, self.z_masks, self.coeffs):
            ya = (xa & za).bit_count()
            for xb, zb, yb, cb in right:
                x, z = xa ^ xb, za ^ zb
                # letter phases i^ya, i^yb, the swap sign, minus the product's own Y count
                shift = (ya + yb + 2 * (za & xb).bit_count() - (x & z).bit_count()) % 4
                xs.append(x)
                zs.append(z)
                cs.append(ca * cb * _PHASE[shift])
        return QubitHamiltonian.from_masks(self.qubit_count, xs, zs, cs).canonicalize()

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitHamiltonian):
            return NotImplemented
        return (self.qubit_count, self.x_masks, self.z_masks, self.coeffs) == \
            (other.qubit_count, other.x_masks, other.z_masks, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.qubit_count, self.x_masks, self.z_masks, self.coeffs))

    def __repr__(self) -> str:
        return f"QubitHamiltonian({self.qubit_count}, {len(self)} terms)"


def hamiltonian_to_text(h: QubitHamiltonian) -> str:
    """Serialize as lines "re im PAULISTRING" (canonical order)."""
    h = h.canonicalize()
    lines = [f"# qubits {h.qubit_count}"]
    sep = " " if h.qubit_count else ""  # on zero qubits the label is empty
    for coeff, label in zip(h.coeffs, _labels(h.qubit_count, h.x_masks, h.z_masks)):
        lines.append(f"{coeff.real:.17g} {coeff.imag:.17g}{sep}{label}")
    return "\n".join(lines) + "\n"


def hamiltonian_from_text(text: str) -> QubitHamiltonian:
    """Parse the line format produced by :func:`hamiltonian_to_text`.

    The qubit count comes from the ``# qubits N`` header, so a sum with no
    terms reads back; without a header it is the first label's length.  On
    zero qubits the label is empty and a term line is just ``re im``.  A
    NaN or infinite ``re`` or ``im`` is a ValueError naming the line.
    """
    xs, zs, cs = [], [], []
    n = None
    for raw in text.splitlines():
        line, _, comment = raw.partition("#")
        parts = line.split()
        if not parts:
            words = comment.split()
            if len(words) == 2 and words[0] == "qubits" and words[1].isdigit():
                n = _same_length(n, int(words[1]))
            continue
        if len(parts) == 2 and n == 0:
            parts.append("")
        if len(parts) != 3:
            raise ValueError(f"malformed Hamiltonian line: {raw!r}")
        re_c, im_c, label = parts
        prefix, letters = _split_label(label) if label else (0, "")
        n = _same_length(n, len(letters))
        x, z = _letter_masks(letters)
        re_v, im_v = float(re_c), float(im_c)
        if not (math.isfinite(re_v) and math.isfinite(im_v)):
            raise ValueError(f"Hamiltonian line {raw!r} has a coefficient that is not finite")
        coeff = complex(re_v, im_v)
        xs.append(x)
        zs.append(z)
        cs.append(coeff * _PHASE[prefix])
    if n is None:
        raise ValueError("no Pauli terms found")
    return QubitHamiltonian.from_masks(n, xs, zs, cs).canonicalize()


def _same_length(n: int | None, length: int) -> int:
    if n is not None and length != n:
        raise ValueError("inconsistent Pauli lengths in file")
    return length


def pauli_matrix_naive(label: str) -> np.ndarray:
    """Independent dense oracle: literal Kronecker product of letters."""
    prefix, letters = _split_label(label)
    return _PHASE[prefix] * reduce(np.kron, [_SINGLE[c] for c in letters])
