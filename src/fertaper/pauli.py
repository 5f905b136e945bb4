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

A ``QubitHamiltonian`` stores its terms as three parallel read-only
arrays: ``x_masks`` and ``z_masks`` as ``gf2.uint64_words`` matrices at
every width (``(terms, W)`` uint64 words, W = max(1, ceil(n / 64)), the
most significant first) and ``coeffs`` as complex128, the packed-table
layout of Stim.  Sums hand these arrays from stage to stage; a sum never
shares an array a caller can still write to.  Each term is its
coefficient times the Hermitian letter Pauli of its masks (phase power =
number of Y letters): the phase of any operator a sum is built from is
folded into the coefficient on entry.  A sum is canonical when its masks
are distinct, ordered by (x, z), and no coefficient is below the pruning
tolerance.  ``QubitHamiltonian.merged`` reaches that form from mask and
coefficient arrays: one stable sort of the (x, z) keys, a radix sort of
16-bit digits cut from the words, ranks the distinct Paulis, and
``np.add.at`` adds each one's coefficients from 0 in the order given.
``canonicalize`` is that merge on a sum's own terms; it sets the
``canonical`` flag on the result, so canonicalizing it again returns the
same object.  A row becomes an int only in the ``.terms`` view of
``(coeff, PauliOperator)`` pairs, built on first use, and the int lists
``dense`` walks; an error message spells its one row with ``_labels``.

Text I/O (``hamiltonian_from_text``, ``hamiltonian_to_text``) works on
whole columns, with the messages and bytes of a line-by-line read.
"""

from __future__ import annotations

import math

import numpy as np

from fertaper import gf2, limits

DEFAULT_PRUNE_TOL = 1e-12

_PHASE = (1, 1j, -1, -1j)

_PREFIXES = {"": 0, "+": 0, "+1": 0, "+i": 1, "i": 1, "-1": 2, "-": 2, "-i": 3}

# bytes.translate tables between letter codes x + 2z and letters; a label
# byte that is no letter reads as code 4
_LETTERS = bytes.maketrans(bytes(range(4)), b"IXZY")
_CODES = bytes(b"IXZY".index(b) if b in b"IXZY" else 4 for b in range(256))
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
    """Letter strings (no phase prefix) of the rows of two mask word matrices."""
    codes = gf2.unpack_ints(x_masks, n) + 2 * gf2.unpack_ints(z_masks, n)
    text = codes.tobytes().translate(_LETTERS).decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)] if n else [""] * len(x_masks)


def _digits(words: np.ndarray, n: int) -> list[np.ndarray]:
    """The rows of an n-bit mask word matrix as uint16 digits, the least significant
    first: views of the words' little-endian bytes, and ``np.lexsort`` keys that numpy
    sorts by one radix pass each, where a uint64 key takes a merge sort (ten times as
    long on a few thousand terms)."""
    width = words.shape[1]
    digits = np.ascontiguousarray(words, dtype="<u8").view(np.uint16)
    return [digits[:, 4 * (width - 1 - k) + j]
            for k in range(width) for j in range(4) if 64 * k + 16 * j < n]


class PauliOperator:
    """n-qubit Pauli ``i**phase_power * X(x) * Z(z)`` with exact phase.

    ``PauliOperator(x_bits, z_bits, phase_power)`` packs bit sequences;
    ``from_masks`` takes the packed ints directly.
    """

    __slots__ = ("n", "x_mask", "z_mask", "phase_power")

    def __init__(self, x, z, phase_power: int = 0):
        if len(x) != len(z):
            raise ValueError("x and z bit vectors differ in length")
        x_mask, z_mask = gf2.pack_rows([[int(b) & 1 for b in bits] for bits in (x, z)])
        _fill_slots(self, len(x), x_mask, z_mask, int(phase_power) % 4)

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

    # -- dense matrix ------------------------------------------------

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
    takes the packed masks directly.  The arrays are read-only and laid out
    as the module docstring says.
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
        _fill_sum(self, qubit_count, gf2.uint64_words(xs, qubit_count),
                  gf2.uint64_words(zs, qubit_count), np.array(cs, dtype=complex), False)

    def __setattr__(self, name, value):
        raise AttributeError("QubitHamiltonian is immutable")

    @classmethod
    def from_masks(cls, n: int, x_masks, z_masks, coeffs,
                   canonical: bool = False) -> "QubitHamiltonian":
        """Sum of coeffs[k] times the Hermitian letter Pauli of (x_masks[k], z_masks[k]).

        Masks are sequences of ints or word matrices (``gf2.uint64_words``),
        coefficients any complex sequence or array; each is copied.
        ``canonical`` asserts the caller already holds the canonical form.
        """
        return _new_sum(n, np.array(gf2.uint64_words(x_masks, n)),
                        np.array(gf2.uint64_words(z_masks, n)),
                        np.array(coeffs, dtype=complex).reshape(-1), canonical)

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
                for x, z, c in zip(*self._lists())
            ))
        return self._terms

    def _lists(self) -> tuple[list, list, list]:
        """The masks as lists of ints and the coefficients as a list of complex."""
        return gf2.word_ints(self.x_masks), gf2.word_ints(self.z_masks), self.coeffs.tolist()

    @classmethod
    def merged(cls, n: int, x_masks, z_masks, coeffs) -> "QubitHamiltonian":
        """The canonical sum of coeffs[k] times the letter Pauli of (x_masks[k], z_masks[k]).

        Masks as in ``from_masks``.  A stable sort of the (x, z) keys ranks
        the distinct Paulis, and ``np.add.at`` adds each one's coefficients
        to 0+0j in the order given, as a running sum would: a lone term's
        -0.0 parts come out 0.0.  A sum that is not finite raises ValueError
        naming its Pauli; sums below DEFAULT_PRUNE_TOL are pruned.
        """
        x, z = gf2.uint64_words(x_masks, n), gf2.uint64_words(z_masks, n)
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if not len(x) == len(z) == len(coeffs):
            raise ValueError("masks and coefficients differ in length")
        if not len(coeffs):
            return cls.zero(n)
        keys = [*_digits(z, n), *_digits(x, n)] or [np.zeros(len(x), dtype=np.uint16)]
        order = np.lexsort(keys)  # by (x, z), stable
        new = np.zeros(len(order), dtype=bool)  # first of its key in sorted order
        new[0] = True
        for word in (*x.T, *z.T):  # a word column at a time: faster than rows of two words
            word = word[order]
            new[1:] |= word[1:] != word[:-1]
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.cumsum(new) - 1
        sums = np.zeros(int(rank[order[-1]]) + 1, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            np.add.at(sums, rank, coeffs)
        first = order[new]  # a term of each distinct Pauli, in key order
        bad = np.flatnonzero(~np.isfinite(sums))
        if bad.size:
            k = first[bad[:1]]
            label = _labels(n, x[k], z[k])[0]
            raise ValueError(f"the coefficient of {label!r} sums to {complex(sums[bad[0]])}, "
                             "which is not finite")
        kept = np.abs(sums) >= DEFAULT_PRUNE_TOL
        first = first[kept]
        return _new_sum(n, np.take(x, first, axis=0), np.take(z, first, axis=0), sums[kept], True)

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
        for x, z, c in zip(*self._lists()):
            signs = 1 - 2 * (np.bitwise_count(cols & z).astype(np.int64) & 1)
            mat[cols ^ x, cols] += c * _PHASE[(x & z).bit_count() % 4] * signs
        return mat

    def is_hermitian(self) -> bool:
        # canonical Paulis are Hermitian, so only the coefficients can fail
        return bool((np.abs(self.canonicalize().coeffs.imag) <= 1e-10).all())

    def operator_set(self, include_identity: bool = False) -> set[str]:
        """Labels of the distinct canonical Paulis (identity optional)."""
        h = self.canonicalize()
        x, z = h.x_masks, h.z_masks
        if not include_identity:
            kept = gf2.popcounts(x | z) > 0
            x, z = x[kept], z[kept]
        return set(_labels(h.qubit_count, x, z))

    def __add__(self, other: "QubitHamiltonian") -> "QubitHamiltonian":
        if other.qubit_count != self.qubit_count:
            raise ValueError("qubit count mismatch")
        return _new_sum(self.qubit_count, *(np.concatenate([a, b]) for a, b in zip(
            (self.x_masks, self.z_masks, self.coeffs),
            (other.x_masks, other.z_masks, other.coeffs))), False)

    def scaled(self, factor: complex) -> "QubitHamiltonian":
        return _new_sum(self.qubit_count, self.x_masks, self.z_masks, self.coeffs * factor,
                        False)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitHamiltonian):
            return NotImplemented
        return self.qubit_count == other.qubit_count and all(
            np.array_equal(a, b) for a, b in zip((self.x_masks, self.z_masks, self.coeffs),
                                                 (other.x_masks, other.z_masks, other.coeffs)))

    def __hash__(self) -> int:
        return hash((self.qubit_count, *map(tuple, self._lists())))

    def __repr__(self) -> str:
        return f"QubitHamiltonian({self.qubit_count}, {len(self)} terms)"


def _new_sum(n: int, x_masks: np.ndarray, z_masks: np.ndarray, coeffs: np.ndarray,
             canonical: bool) -> QubitHamiltonian:
    """A sum that takes the given arrays as they are, and makes them read-only.

    Only for arrays no caller holds a writable reference to: new ones, or
    the read-only arrays of another sum.
    """
    h = object.__new__(QubitHamiltonian)
    _fill_sum(h, n, x_masks, z_masks, coeffs, canonical)
    return h


def _fill_sum(h: QubitHamiltonian, n: int, x_masks: np.ndarray, z_masks: np.ndarray,
              coeffs: np.ndarray, canonical: bool) -> None:
    if not len(x_masks) == len(z_masks) == len(coeffs):
        raise ValueError("masks and coefficients differ in length")
    for array in (x_masks, z_masks, coeffs):
        array.flags.writeable = False
    _fill_slots(h, n, x_masks, z_masks, coeffs, canonical, None)


def hamiltonian_to_text(h: QubitHamiltonian) -> str:
    """Serialize as a "# qubits N" header and lines "re im PAULISTRING" (canonical order).

    Each distinct float64 bit pattern of a coefficient column is formatted
    once with ``.17g`` (so -0.0 keeps its sign), one ``_labels`` call spells
    every label, and the columns are joined row by row.  On zero qubits the
    label is empty and a term line is just "re im".
    """
    h = h.canonicalize()
    columns = [_float_texts(h.coeffs.real), _float_texts(h.coeffs.imag)]
    if h.qubit_count:
        columns.append(_labels(h.qubit_count, h.x_masks, h.z_masks))
    lines = [f"# qubits {h.qubit_count}", *map(" ".join, zip(*columns)), ""]
    del columns  # the words go before the text is joined
    return "\n".join(lines)


def _float_texts(values: np.ndarray) -> list[str]:
    """``.17g`` texts of float64 values, each distinct bit pattern formatted once."""
    patterns, which = np.unique(values.view(np.uint64), return_inverse=True)
    texts = [f"{v:.17g}" for v in patterns.view(np.float64).tolist()]
    return list(map(texts.__getitem__, which.tolist()))


def hamiltonian_from_text(text: str) -> QubitHamiltonian:
    """Parse the line format produced by :func:`hamiltonian_to_text`.

    The qubit count comes from the ``# qubits N`` header, so a sum with no
    terms reads back; without a header it is the first label's length.  On
    zero qubits the label is empty and a term line is just ``re im``.  A
    NaN or infinite ``re`` or ``im`` is a ValueError naming the line; a header
    or label over ``limits.MODE_CAP`` qubits is refused before any later line.

    The text is cut into rows once and read a column at a time: ``float``
    of each distinct ``re`` and ``im`` word; every label checked at once,
    only those that are not plain letters going through ``_split_label``;
    one byte lookup for the letters, packed into mask words; and one
    ``merged`` of the whole sum.  Each check flags its rows, and the first
    flagged line raises the error a line-by-line read would, unless a
    header before it is refused first.
    """
    lines = text.splitlines()
    # at most 3 splits: a fourth part already makes a line malformed, and a split
    # without a limit gives each row a list of 12 slots
    rows = [raw.partition("#")[0].split(None, 3) for raw in lines]
    widths = np.fromiter(map(len, rows), np.intp, len(rows))
    heads = _headers(lines, np.flatnonzero(widths == 0))
    del lines
    if not heads and not widths.any():
        raise ValueError("no Pauli terms found")
    # a header before every term gives the qubit count (refused at once over the cap)
    n = _same_length(None, int(heads[0][1])) if heads and heads[0][0] == 0 else None
    want = 2 if n == 0 else 3  # on zero qubits a term line is just "re im"
    at = np.flatnonzero(widths)  # the line of each term row
    bad = widths[at] != want
    terms = filter(None, rows)
    if bad.any():  # stand-ins for the flagged rows keep the columns whole
        terms = [parts if len(parts) == want else ["0"] * want for parts in terms]
    columns = list(zip(*terms)) or [()] * want
    del rows, terms  # from here on one copy of each word is held, in its column
    real, imag = _floats(columns[0]), _floats(columns[1])
    bad |= ~(np.isfinite(real) & np.isfinite(imag))  # NaN also stands for a word float() refused
    if want == 3:
        codes, phases, n = _label_codes(columns[2], n, bad)
    else:
        codes, phases = np.zeros((len(at), 0), dtype=np.uint8), {}
    del columns
    first_bad = int(np.argmax(bad)) if bad.any() else len(at)
    for index, (before, word) in enumerate(heads):
        if before > first_bad:
            break
        _same_length(n if index or before else None, int(word))
    if first_bad < len(at):
        _refuse_term(text.splitlines()[at[first_bad]], n)
    coeffs = np.empty(len(at), dtype=complex)
    coeffs.real, coeffs.imag = real, imag
    for k, phase in phases.items():
        coeffs[k] *= _PHASE[phase]
    x, z = gf2.pack_words(codes & 1), gf2.pack_words(codes >> 1)
    del codes
    return QubitHamiltonian.merged(n, x, z, coeffs)


def _headers(lines: list[str], blank: np.ndarray) -> list[tuple[int, str]]:
    """(term lines before it, count word) of each "# qubits N" line among the blank ones."""
    heads = []
    for index, k in enumerate(blank.tolist()):
        words = lines[k].partition("#")[2].split()
        if len(words) == 2 and words[0] == "qubits" and words[1].isdecimal():
            heads.append((k - index, words[1]))
    return heads


def _floats(words) -> np.ndarray:
    """float() of each word, called once per distinct word; NaN where float() refuses one."""
    distinct = set(words)
    try:
        values = dict(zip(distinct, map(float, distinct)))
    except ValueError:
        values = dict(zip(distinct, map(_float_or_nan, distinct)))
    return np.fromiter(map(values.__getitem__, words), np.float64, len(words))


def _float_or_nan(word: str) -> float:
    try:
        return float(word)
    except ValueError:
        return math.nan


def _label_codes(labels, n: int | None, bad: np.ndarray) -> tuple[np.ndarray, dict, int]:
    """Letter codes, a (T, n) array, of labels of n letters after an optional phase prefix.

    n is None when the first label sets it.  Only the labels that are not
    n plain letters go through ``_split_label``; each that does not give n
    letters either is flagged in bad, its row left 0.  Returns the codes,
    the phase power of each prefixed label by row, and n.
    """
    if n is None:
        try:
            n = len(_split_label(labels[0])[1])
        except ValueError:
            n = len(labels[0])  # the label is refused below
        bad[0] |= n > limits.MODE_CAP
    try:
        data = "".join(labels).encode("ascii")
    except UnicodeEncodeError:
        labels = [label if label.isascii() else "?" for label in labels]  # "?" is refused below
        data = "".join(labels).encode("ascii")
    data = np.frombuffer(data.translate(_CODES), dtype=np.uint8)
    lengths = np.fromiter(map(len, labels), np.intp, len(labels))
    odd = lengths != n
    odd[np.searchsorted(np.cumsum(lengths), np.flatnonzero(data > 3), side="right")] = True
    if not odd.any():
        return data.reshape(-1, n), {}, n
    codes = np.zeros((len(labels), n), dtype=np.uint8)
    codes[~odd] = data[np.repeat(~odd, lengths)].reshape(-1, n)
    phases = {}
    for k in np.flatnonzero(odd).tolist():
        try:
            phase, letters = _split_label(labels[k])
        except ValueError:
            phase, letters = 0, ""
        if len(letters) == n:
            phases[k] = phase
            codes[k] = np.frombuffer(letters.encode("ascii").translate(_CODES), np.uint8)
        else:
            bad[k] = True
    return codes, phases, n


def _refuse_term(raw: str, n: int) -> None:
    """Raise the ValueError of a flagged term line of an n-qubit file.

    When the line is the first term and no header came before it, n is its
    own label's length (or its stand-in's), so the length check can fail
    there only on the cap, as it would with no length known yet.
    """
    parts = raw.partition("#")[0].split()
    if len(parts) == 2 and n == 0:
        parts.append("")
    if len(parts) != 3:
        raise ValueError(f"malformed Hamiltonian line: {raw!r}")
    re_c, im_c, label = parts
    _same_length(n, len(_split_label(label)[1]) if label else 0)
    if not all(map(math.isfinite, [float(re_c), float(im_c)])):
        raise ValueError(f"Hamiltonian line {raw!r} has a coefficient that is not finite")
    raise AssertionError(f"line {raw!r} was flagged, but it reads")


def _same_length(n: int | None, length: int) -> int:
    if length > limits.MODE_CAP:
        raise ValueError(f"Pauli file has {length} qubits, over the cap of {limits.MODE_CAP}")
    if n is not None and length != n:
        raise ValueError("inconsistent Pauli lengths in file")
    return length
