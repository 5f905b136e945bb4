"""Second-quantized target systems and their exact matrices.

A Hamiltonian is a pair of coefficient tensors: a Hermitian one-body matrix
t[a, b] multiplying a'_a a_b, and a sparse four-index u[(a, b, g, d)]
multiplying a'_a a'_b a_g a_d, held as sorted (K, 4) keys and K values,
with modes numbered 1..M.  Occupation convention: |1> = occupied, mode 1
is the leftmost bit of a basis label and the most significant bit of a
basis index.  One ladder-action kernel, apply_op_string_rows, applies a
t or u entry to every basis row at once; the dense Fock matrix and the
sector matrices are built on it.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from fertaper import gf2, limits
from fertaper.mitm import _as_keys


@dataclass(frozen=True)
class FockState:
    """Occupation-number basis state of M modes."""

    occ: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "occ", tuple(int(b) & 1 for b in self.occ))

    @classmethod
    def from_modes(cls, m: int, occupied) -> "FockState":
        bits = [0] * m
        for a in occupied:
            bits[a - 1] = 1
        return cls(tuple(bits))

    @property
    def modes(self) -> int:
        return len(self.occ)

    @property
    def index(self) -> int:
        value = 0
        for b in self.occ:
            value = (value << 1) | b
        return value

    def __repr__(self) -> str:
        return "FockState(" + "".join(str(b) for b in self.occ) + ")"


def weight_n_states(m: int, n: int) -> list[FockState]:
    """All weight-n states of m modes in lexicographic order of the bit string."""
    out = [FockState.from_modes(m, combo) for combo in itertools.combinations(range(1, m + 1), n)]
    out.sort(key=lambda s: s.occ)
    return out


def apply_op_string_rows(occ: np.ndarray, ops) -> tuple[np.ndarray, np.ndarray]:
    """Apply a product of ladder operators, rightmost first, to every row of a
    (states, M) 0/1 occupation array.

    ops is a sequence of ("c", mode) / ("a", mode) pairs in left-to-right
    operator order, as a product is written on paper.  Returns the signs, 0
    where the product annihilates the row, and the image rows, which are
    meaningful only where the sign is nonzero.  Each ladder operator checks
    its mode's column, multiplies in (-1)**(occupied modes before it) and
    flips the column.
    """
    occ = np.array(occ, dtype=np.int8)
    signs = np.ones(len(occ), dtype=np.int8)
    for kind, mode in reversed(list(ops)):
        if not 1 <= mode <= occ.shape[1]:
            raise IndexError(f"mode {mode} out of range 1..{occ.shape[1]}")
        col = occ[:, mode - 1]
        signs[col == (kind == "c")] = 0  # a creator needs the mode empty, an annihilator full
        signs *= 1 - 2 * (occ[:, : mode - 1].sum(axis=1, dtype=np.int8) & 1)
        col ^= 1
    return signs, occ


@dataclass(frozen=True, eq=False)
class FermionHamiltonian:
    """Coefficient tensors of the target Hamiltonian plus the particle count,
    compared and hashed by identity, as their arrays give no truth value."""

    modes: int
    particles: int
    t: np.ndarray
    u: dict | tuple = field(default_factory=dict)

    def __post_init__(self):
        """Check t and u as arrays; the first flagged entry raises, in the order of
        t's entries (row by row), then u's as given, as an entry-by-entry check would.

        t must be finite and Hermitian.  u, a dict from mode-index tuples to
        values or a ``(keys, values)`` pair as u is kept, needs keys of four
        indices in 1..modes, each given once and with its conjugate partner
        (d, g, b, a) at the conjugate value, and finite values.  Only then is
        u kept as read-only arrays of its own, (K, 4) int64 keys and K
        complex128 values, sorted by packed key: lexicographic (a, b, g, d).
        """
        t = np.asarray(self.t, dtype=complex)
        if t.shape != (self.modes, self.modes):
            raise ValueError(f"t must be {self.modes}x{self.modes}")
        bad = np.argwhere(~np.isfinite(t))
        if len(bad):
            a, b = bad[0] + 1
            raise ValueError(f"one-body entry ({a}, {b}) is {t[a - 1, b - 1]}, not finite")
        # np.allclose(t, t^H, atol=1e-12) on finite entries, without its set-up per call
        if not (np.abs(t - t.conj().T) <= 1e-12 + 1e-5 * np.abs(t.conj().T)).all():
            raise ValueError("one-body tensor is not Hermitian")
        object.__setattr__(self, "t", t)
        given, keys, values = _interaction_arrays(self.u, self.modes)
        order, repeated, lacking = _ranks(keys, values, self.modes)
        bad, finite = (keys == 0).any(axis=1), np.isfinite(values)
        flagged = bad | ~finite | repeated | lacking
        if flagged.any():
            k = int(np.argmax(flagged))
            key = tuple(map(int, next(itertools.islice(given, k, None))))  # as given
            if bad[k]:
                raise ValueError(f"bad interaction index tuple {key}")
            if not finite[k]:
                raise ValueError(f"interaction entry {key} is {complex(values[k])}, not finite")
            if repeated[k]:
                raise ValueError(f"interaction entry {key} is given twice")
            raise ValueError(f"interaction entry {key} lacks a conjugate partner {key[::-1]}")
        keys, values = keys[order], values[order]
        keys.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "u", (keys, values))
        if not 0 <= self.particles <= self.modes:
            raise ValueError("particle count outside 0..modes")
        top = _magnitudes(np.concatenate([t.ravel(), values])).max(initial=0.0)
        if top > 1 + 1e-9:
            warnings.warn(
                f"coefficient magnitude {float(top)!r} exceeds 1; the usual energy-scale "
                "convention keeps all coefficients within [-1, 1]",
                stacklevel=2,
            )

    @property
    def interactions(self) -> tuple[np.ndarray, np.ndarray]:
        """The u keys and values that are not the zero operator, in u's order.

        An entry with a repeated creator (a == b) or annihilator (g == d)
        index is zero, because the ladder operator squares to zero; its
        conjugate partner repeats the other pair, so both go together.
        """
        keys, values = self.u
        kept = (keys[:, 0] != keys[:, 1]) & (keys[:, 2] != keys[:, 3])
        return keys[kept], values[kept]

    @property
    def hopping(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero t entries row by row, as u is held: (K, 2) mode indices and values."""
        a, b = np.nonzero(self.t)
        return np.stack([a + 1, b + 1], axis=1), self.t[a, b]

    # -- JSON interchange ---------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "FermionHamiltonian":
        """Read the format of :meth:`to_json`.

        A ``t`` row is ``[a, b, re, im]`` and a ``u`` row ``[a, b, g, d, re,
        im]``, with integer counts and mode indices in 1..modes.  Any other
        row is a ValueError naming it, as is one whose indices repeat an
        earlier row's: summing the two, or keeping the last, would silently
        change what the file means.  The rows are checked as one table
        (``_json_rows``) and the first flagged row raises the error a
        row-by-row check would; ``t`` is filled by one scatter and ``u``'s
        index and coefficient arrays go to the constructor as they are.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("Hamiltonian JSON must be an object")
        for key in ("modes", "particles"):
            if key not in data:
                raise ValueError(f"Hamiltonian JSON lacks the required key {key!r}")
            if type(data[key]) is not int or data[key] < 0:
                raise ValueError(f"Hamiltonian JSON {key!r} is {json.dumps(data[key])}, "
                                 "not a non-negative integer")
        m = data["modes"]
        if m > limits.MODE_CAP:
            raise ValueError(f"Hamiltonian JSON 'modes' is {m}, over the cap of "
                             f"{limits.MODE_CAP} modes")
        t = np.zeros((m, m), dtype=complex)
        keys, values = _json_rows(data, "t", "[a, b, re, im]", m)
        t[keys[:, 0] - 1, keys[:, 1] - 1] = values
        return cls(m, data["particles"], t, _json_rows(data, "u", "[a, b, g, d, re, im]", m))

    def to_json(self) -> str:
        """The hopping entries, then u's in the order u keeps."""
        t_rows, u_rows = ([[*key, value.real, value.imag]
                           for key, value in zip(keys.tolist(), values.tolist())]
                          for keys, values in (self.hopping, self.u))
        return json.dumps(
            {"modes": self.modes, "particles": self.particles, "t": t_rows, "u": u_rows},
            indent=1,
        )


def _json_rows(data: dict, name: str, shape: str, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The t or u rows as an int64 array of mode indices, one row each, and their coefficients.

    JSON integers load as type int.  The rows are checked as one table: the
    row shapes, the types of the index and of the re and im entries (one
    set each), one float64 conversion, the index range, and repeats, found
    by one sort of the packed indices.  Only where that finds a fault is
    each entry checked; flagged rows then read 0, so the table stays whole,
    and the first flagged row raises the error ``_refuse_row`` words for it.
    """
    rows = data.get(name, [])
    if not isinstance(rows, list):
        raise ValueError(f"Hamiltonian JSON {name!r} is not a list of {shape} rows")
    width = shape.count(",") + 1
    flagged = np.zeros(len(rows), dtype=bool)
    if not set(map(type, rows)) <= {list} or set(map(len, rows)) - {width}:
        flagged = np.fromiter((type(row) is not list or len(row) != width for row in rows),
                              bool, len(rows))
        rows = [[0] * width if bad else row for row, bad in zip(rows, flagged.tolist())]
    flat = list(itertools.chain.from_iterable(rows))
    is_index = [True] * (width - 2) + [False, False]
    table = None
    if (set(map(type, itertools.compress(flat, itertools.cycle(is_index)))) <= {int} and
            set(map(type, itertools.compress(flat, itertools.cycle(not i for i in is_index))))
            <= {int, float}):
        try:
            table = np.array(flat, dtype=np.float64).reshape(len(rows), width)
        except OverflowError:  # an int past the float range
            pass
    # an int just past the float range rounds to the largest float, so those are checked again
    if (table is None or not ((table[:, :-2] >= 1) & (table[:, :-2] <= modes)).all()
            or (np.abs(table[:, -2:]) == sys.float_info.max).any()):
        good = np.fromiter((type(v) is int and 1 <= v <= modes if index else
                            type(v) is float or type(v) is int and abs(v) <= sys.float_info.max
                            for v, index in zip(flat, itertools.cycle(is_index))),
                           bool, len(flat))
        flagged |= ~good.reshape(-1, width).all(axis=1)
        flat = [v if ok else 0 for v, ok in zip(flat, good.tolist())]
        table = np.array(flat, dtype=np.float64).reshape(len(rows), width)
    keys = table[:, :-2].astype(np.int64)
    values = np.ascontiguousarray(table[:, -2:]).view(complex).reshape(-1)
    packed = _packed(keys, modes)
    ranked = np.sort(packed)
    if (ranked[1:] == ranked[:-1]).any():  # flag each repeat of an earlier row
        order = np.argsort(packed, kind="stable")
        ranked = packed[order]
        flagged[order[1:][ranked[1:] == ranked[:-1]]] = True
    if flagged.any():
        _refuse_row(data[name][np.argmax(flagged)], name, shape, modes)
    return keys, values


def _packed(keys: np.ndarray, modes: int) -> np.ndarray:
    """Each row of 0..modes indices as one int64, the first index most significant.

    Four indices fit while modes + 1 < 2**15, which a modes x modes t of
    complex entries (16 GiB there) keeps to in practice.
    """
    return keys @ (modes + 1) ** np.arange(keys.shape[1] - 1, -1, -1, dtype=np.int64)


def _refuse_row(row, name: str, shape: str, modes: int) -> None:
    """Raise the ValueError of a flagged t or u row: the first problem it has, or else
    that its indices repeat an earlier row's."""
    problem = None
    if not isinstance(row, list) or len(row) != shape.count(",") + 1:
        problem = f"is not {shape}"
    elif not all(type(i) is int and 1 <= i <= modes for i in row[:-2]):
        problem = f"has a mode index that is not an integer in 1..{modes}"
    elif not all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max
                 for v in row[-2:]):
        problem = "has an re or im that is not a real number in the float range"
    if problem:
        raise ValueError(f"Hamiltonian JSON {name} row {json.dumps(row)} {problem}")
    raise ValueError(f"Hamiltonian JSON repeats the {name} row {row[:-2]}")


def _interaction_arrays(u, modes: int) -> tuple:
    """u's keys as given, its keys as a (K, 4) int64 array and its values as a
    complex array, in u's order.

    A dict goes through ``int()`` and ``complex()`` entry by entry, which
    raise on what they refuse, and its keys are given as tuples of ints; a
    ``(keys, values)`` pair's keys are given as its key rows.  A key that is
    not four indices in 1..modes reads as (0, 0, 0, 0) in the array.
    """
    if isinstance(u, dict):
        u = {tuple(int(i) for i in k): complex(v) for k, v in u.items()}
        keys = [k if len(k) == 4 and all(1 <= i <= modes for i in k) else (0,) * 4 for k in u]
        return u, np.array(keys, dtype=np.int64).reshape(-1, 4), np.fromiter(u.values(), complex)
    given, values = np.asarray(u[0], dtype=np.int64), np.asarray(u[1], dtype=complex)
    if given.ndim != 2 or given.shape[1] != 4 or values.shape != given.shape[:1]:
        raise ValueError("interactions must be a dict or a (K, 4) key array and K values")
    inside = ((given >= 1) & (given <= modes)).all(axis=1, keepdims=True)
    return given, np.where(inside, given, 0), values


def _ranks(keys: np.ndarray, values: np.ndarray, modes: int) -> tuple:
    """The order that sorts the keys by packed key; whether each key repeats another;
    and whether its conjugate partner (d, g, b, a) is missing, or holds a value
    more than 1e-12 from its conjugate.

    The packed keys are sorted once, and ``searchsorted`` finds each key's
    place among them, which inverts the sort while no key repeats, and each
    partner's.  Only ``np.sort`` and ``searchsorted`` of int64 run, the two
    that writing JSON output runs too: an argsort's kernels add about 0.3 MiB
    to the peak RSS of a process that reads one file.  Bad keys read
    (0, 0, 0, 0), whose partner is never a good key's.
    """
    packed, wanted = _packed(keys, modes), _packed(keys[:, ::-1], modes)
    ranked = np.sort(packed)
    place = np.searchsorted(ranked, packed)
    repeated = np.searchsorted(ranked, packed, side="right") - place > 1
    order = np.zeros(len(keys), dtype=np.intp)  # key k is ranked[i] for i where order[i] = k
    order[place] = np.arange(len(keys))
    at = np.minimum(np.searchsorted(ranked, wanted), max(len(keys) - 1, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        far = _magnitudes(values[order[at]] - values.conj()) > 1e-12
    return order, repeated, (ranked[at] != wanted) | far


def _magnitudes(values: np.ndarray) -> np.ndarray:
    """abs() of complex entries as Python and numpy scalars take it, by ``np.hypot``
    (``np.abs`` of a complex array can differ in the last bit); inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.hypot(values.real, values.imag)


def _basis_matrix(h: FermionHamiltonian, occ: np.ndarray) -> np.ndarray:
    """Matrix of the Hamiltonian on the basis of 0/1 occupation rows, given in
    lexicographic order.

    Each t entry, then each u entry, acts on every row at once by
    apply_op_string_rows and is added where its sign is nonzero, so every
    matrix entry sums its terms in that order.  An image row's position is
    a binary search of its key among the rows' keys: the packed row as a
    byte string, as mitm spells its syndrome keys, which the order keeps
    sorted at any mode count.
    """
    keys = _as_keys(gf2.pack_words(occ))
    mat = np.zeros((len(occ), len(occ)), dtype=complex)
    for kinds, (modes, values) in (("ca", h.hopping), ("ccaa", h.u)):
        for key, coeff in zip(modes.tolist(), values.tolist()):
            signs, images = apply_op_string_rows(occ, tuple(zip(kinds, key)))
            cols = np.flatnonzero(signs)
            rows = np.searchsorted(keys, _as_keys(gf2.pack_words(images[cols])))
            mat[rows, cols] += coeff * signs[cols]
    return mat


def dense_fock_matrix(h: FermionHamiltonian) -> np.ndarray:
    """Exact 2^M x 2^M matrix of the Hamiltonian on Fock space, refused over the dense cap."""
    limits.check_dense(1 << h.modes)
    return _basis_matrix(h, gf2.unpack_ints(np.arange(1 << h.modes), h.modes))


def sector_matrix_direct(h: FermionHamiltonian, n: int | None = None) -> np.ndarray:
    """Matrix of the Hamiltonian on the n-particle sector (h.particles by default),
    rows and columns in weight_n_states order.

    It never builds the 2^M Fock space, so it serves mode counts past the
    dense cap as long as the sector itself is enumerable.
    """
    states = weight_n_states(h.modes, h.particles if n is None else n)
    return _basis_matrix(h, np.array([s.occ for s in states], dtype=np.uint8).reshape(-1, h.modes))


def default_penalty_scale(h: FermionHamiltonian) -> float:
    """Computable stand-in for the operator-norm bound on a codespace penalty.

    Finite coefficients near the float limit can sum past it; that is a
    ValueError rather than an infinite penalty.
    """
    with np.errstate(over="ignore"):
        total = float(np.abs(h.t).sum()) + sum(abs(v) for v in h.interactions[1].tolist())
    scale = 4.0 * total / max(1, h.particles)
    if not math.isfinite(scale):
        raise ValueError("coefficients too large: the default penalty scale is not finite")
    return scale


def random_hamiltonian(m: int, n: int, rng: np.random.Generator,
                       interaction_pairs: int = 2) -> FermionHamiltonian:
    """Random Hermitian instance with a generic dense t and a few u entries."""
    raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    t = (raw + raw.conj().T) / 4
    t = t / max(1.0, np.abs(t).max())
    u: dict[tuple[int, int, int, int], complex] = {}
    tries = 0
    while len(u) < 2 * interaction_pairs and tries < 50 * interaction_pairs:
        tries += 1
        key = tuple(int(v) for v in rng.integers(1, m + 1, size=4))
        partner = (key[3], key[2], key[1], key[0])
        if key in u or key[0] == key[1] or key[2] == key[3]:
            continue
        val = complex(rng.normal(), rng.normal()) / 4
        if key == partner:
            val = complex(val.real, 0.0)
        u[key] = val
        u[partner] = val.conjugate()
    return FermionHamiltonian(m, n, t, u)
