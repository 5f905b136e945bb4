"""Second-quantized target systems and their dense Fock-space oracle.

A Hamiltonian is a pair of coefficient tensors: a Hermitian one-body matrix
t[a, b] multiplying a'_a a_b, and a sparse four-index map u[(a, b, g, d)]
multiplying a'_a a'_b a_g a_d, with modes numbered 1..M.  Occupation
convention: |1> = occupied, mode 1 is the leftmost bit of a basis label and
the most significant bit of a basis index.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from fertaper import limits


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

    @classmethod
    def from_index(cls, m: int, index: int) -> "FockState":
        return cls(tuple((index >> (m - 1 - i)) & 1 for i in range(m)))

    @property
    def modes(self) -> int:
        return len(self.occ)

    @property
    def weight(self) -> int:
        return sum(self.occ)

    @property
    def index(self) -> int:
        value = 0
        for b in self.occ:
            value = (value << 1) | b
        return value

    def occupied_modes(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, b in enumerate(self.occ) if b)

    def __repr__(self) -> str:
        return "FockState(" + "".join(str(b) for b in self.occ) + ")"


def weight_n_states(m: int, n: int) -> list[FockState]:
    """All weight-n states of m modes in lexicographic order of the bit string."""
    out = [FockState.from_modes(m, combo) for combo in itertools.combinations(range(1, m + 1), n)]
    out.sort(key=lambda s: s.occ)
    return out


def apply_annihilate(x: FockState, alpha: int):
    """Act with the annihilator of the given mode.

    Returns (sign, new state) with sign (-1)**(occupied modes before alpha),
    or None when the mode is empty.
    """
    if not 1 <= alpha <= x.modes:
        raise IndexError(f"mode {alpha} out of range 1..{x.modes}")
    if x.occ[alpha - 1] == 0:
        return None
    sign = -1 if sum(x.occ[: alpha - 1]) % 2 else 1
    bits = list(x.occ)
    bits[alpha - 1] = 0
    return sign, FockState(tuple(bits))


def apply_create(x: FockState, alpha: int):
    """Act with the creator of the given mode; None when already occupied."""
    if not 1 <= alpha <= x.modes:
        raise IndexError(f"mode {alpha} out of range 1..{x.modes}")
    if x.occ[alpha - 1] == 1:
        return None
    sign = -1 if sum(x.occ[: alpha - 1]) % 2 else 1
    bits = list(x.occ)
    bits[alpha - 1] = 1
    return sign, FockState(tuple(bits))


def apply_op_string(x: FockState, ops) -> tuple[int, FockState] | None:
    """Apply a product of ladder operators, rightmost first.

    ops is a sequence of ("c", mode) / ("a", mode) pairs in left-to-right
    operator order, matching how a product is written on paper.
    """
    sign = 1
    state = x
    for kind, mode in reversed(list(ops)):
        step = apply_create(state, mode) if kind == "c" else apply_annihilate(state, mode)
        if step is None:
            return None
        s, state = step
        sign *= s
    return sign, state


def apply_op_string_rows(occ: np.ndarray, ops) -> tuple[np.ndarray, np.ndarray]:
    """apply_op_string on every row of a (states, M) 0/1 occupation array.

    Returns the signs, 0 where the product annihilates the row, and the
    image rows, which are meaningful only where the sign is nonzero.
    Each ladder operator checks its mode's column, multiplies in
    (-1)**(occupied modes before it) and flips the column.
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


def check_term(term) -> None:
    """ValueError unless term = (indices, choice) is the Hermitian observable
    i**eps (T + choice T_reversed), T the product of creators on the first
    half of indices and annihilators on the second, eps 1 exactly for choice
    -1; choice 0 takes a self-adjoint T alone, its indices a palindrome."""
    indices, choice = term
    if len(indices) % 2:
        raise ValueError(f"a term needs an even number of indices, not {len(indices)}")
    if choice not in (1, -1, 0):
        raise ValueError(f"a term's choice must be 1, -1 or 0, not {choice!r}")
    if choice == 0 and tuple(indices) != tuple(indices[::-1]):
        raise ValueError(f"choice 0 needs a self-adjoint product, not {tuple(indices)}")


def product_ops(indices) -> tuple:
    """The ladder operators of a product, creators on the first half of indices."""
    half = len(indices) // 2
    return tuple(("c" if i < half else "a", mode) for i, mode in enumerate(indices))


def observable_action(term, x: FockState) -> list[tuple[complex, FockState]]:
    """Exact sparse action of a check_term term: (amplitude, state) pairs with
    distinct states.  T_reversed is the product of indices[::-1]."""
    check_term(term)
    indices, choice = term
    phase = 1j if choice == -1 else 1.0
    products = [(indices, 1), (indices[::-1], choice)] if choice else [(indices, 1)]
    acc: dict[tuple[int, ...], complex] = {}
    for product, pref in products:
        hit = apply_op_string(x, product_ops(product))
        if hit is None:
            continue
        sign, state = hit
        acc[state.occ] = acc.get(state.occ, 0.0) + phase * pref * sign
    return [(amp, FockState(occ)) for occ, amp in acc.items() if amp != 0]


@dataclass(frozen=True)
class FermionHamiltonian:
    """Coefficient tensors of the target Hamiltonian plus the particle count."""

    modes: int
    particles: int
    t: np.ndarray
    u: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        if t.shape != (self.modes, self.modes):
            raise ValueError(f"t must be {self.modes}x{self.modes}")
        bad = np.argwhere(~np.isfinite(t))
        if len(bad):
            a, b = bad[0] + 1
            raise ValueError(f"one-body entry ({a}, {b}) is {t[a - 1, b - 1]}, not finite")
        if not np.allclose(t, t.conj().T, atol=1e-12):
            raise ValueError("one-body tensor is not Hermitian")
        object.__setattr__(self, "t", t)
        u = {tuple(int(i) for i in k): complex(v) for k, v in self.u.items()}
        for key, value in u.items():
            if len(key) != 4 or not all(1 <= i <= self.modes for i in key):
                raise ValueError(f"bad interaction index tuple {key}")
            if not cmath.isfinite(value):
                raise ValueError(f"interaction entry {key} is {value}, not finite")
            partner = (key[3], key[2], key[1], key[0])
            if partner not in u or abs(u[partner] - value.conjugate()) > 1e-12:
                raise ValueError(
                    f"interaction entry {key} lacks a conjugate partner {partner}"
                )
        object.__setattr__(self, "u", u)
        if not 0 <= self.particles <= self.modes:
            raise ValueError("particle count outside 0..modes")
        top = max(
            [abs(x) for x in np.ravel(t)] + [abs(v) for v in u.values()], default=0.0
        )
        if top > 1 + 1e-9:
            warnings.warn(
                f"coefficient magnitude {float(top)!r} exceeds 1; the usual energy-scale "
                "convention keeps all coefficients within [-1, 1]",
                stacklevel=2,
            )

    @property
    def interactions(self) -> dict:
        """The u entries that are not the zero operator.

        An entry with a repeated creator (a == b) or annihilator (g == d)
        index is zero, because the ladder operator squares to zero; its
        conjugate partner repeats the other pair, so both go together.
        """
        return {k: v for k, v in self.u.items() if k[0] != k[1] and k[2] != k[3]}

    # -- JSON interchange ---------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "FermionHamiltonian":
        """Read the format of :meth:`to_json`.

        A ``t`` row is ``[a, b, re, im]`` and a ``u`` row ``[a, b, g, d, re,
        im]``, with integer counts and mode indices in 1..modes.  Any other
        row is a ValueError naming it, as is one whose indices repeat an
        earlier row's: summing the two, or keeping the last, would silently
        change what the file means.
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
        for (a, b), value in _json_rows(data, "t", "[a, b, re, im]", m).items():
            t[a - 1, b - 1] = value
        u = _json_rows(data, "u", "[a, b, g, d, re, im]", m)
        return cls(m, data["particles"], t, u)

    def to_json(self) -> str:
        t_rows = [
            [a + 1, b + 1, self.t[a, b].real, self.t[a, b].imag]
            for a in range(self.modes)
            for b in range(self.modes)
            if self.t[a, b] != 0
        ]
        u_rows = [[*key, val.real, val.imag] for key, val in sorted(self.u.items())]
        return json.dumps(
            {"modes": self.modes, "particles": self.particles, "t": t_rows, "u": u_rows},
            indent=1,
        )

    # -- exact action ---------------------------------------------------

    def apply_to_state(self, x: FockState) -> dict[tuple[int, ...], complex]:
        """Image of a basis state as a map occupation -> amplitude."""
        out: dict[tuple[int, ...], complex] = {}
        rows, cols = np.nonzero(self.t)
        for a, b in zip(rows, cols):
            hit = apply_op_string(x, (("c", a + 1), ("a", b + 1)))
            if hit is None:
                continue
            sign, state = hit
            out[state.occ] = out.get(state.occ, 0.0) + self.t[a, b] * sign
        for (a, b, g, d), coeff in self.u.items():
            hit = apply_op_string(x, (("c", a), ("c", b), ("a", g), ("a", d)))
            if hit is None:
                continue
            sign, state = hit
            out[state.occ] = out.get(state.occ, 0.0) + coeff * sign
        return out


def _json_rows(data: dict, name: str, shape: str, modes: int) -> dict[tuple, complex]:
    """The t or u rows as mode indices -> coefficient; JSON integers load as type int."""
    rows = data.get(name, [])
    if not isinstance(rows, list):
        raise ValueError(f"Hamiltonian JSON {name!r} is not a list of {shape} rows")
    out: dict[tuple, complex] = {}
    for row in rows:
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
        key = tuple(row[:-2])
        if key in out:
            raise ValueError(f"Hamiltonian JSON repeats the {name} row {list(key)}")
        out[key] = complex(*row[-2:])
    return out


def dense_fock_matrix(h: FermionHamiltonian) -> np.ndarray:
    """Exact 2^M x 2^M matrix of the Hamiltonian on Fock space."""
    m = h.modes
    dim = 1 << m
    limits.check_dense(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        x = FockState.from_index(m, col)
        for occ, amp in h.apply_to_state(x).items():
            mat[FockState(occ).index, col] += amp
    return mat


def observable_matrix(term, m: int) -> np.ndarray:
    """Dense Fock-space matrix of a single term (see check_term)."""
    dim = 1 << m
    limits.check_dense(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        for amp, state in observable_action(term, FockState.from_index(m, col)):
            mat[state.index, col] += amp
    return mat


def restrict_to_sector(matrix: np.ndarray, n: int) -> np.ndarray:
    """Block of a Fock-space matrix on the weight-n subspace.

    Rows and columns follow the lexicographic order of the occupation
    strings, matching :func:`weight_n_states`.
    """
    dim = matrix.shape[0]
    m = dim.bit_length() - 1
    if 1 << m != dim:
        raise ValueError("matrix dimension is not a power of two")
    idx = [s.index for s in weight_n_states(m, n)]
    return matrix[np.ix_(idx, idx)]


def number_operator_matrix(m: int) -> np.ndarray:
    diag = [FockState.from_index(m, i).weight for i in range(1 << m)]
    return np.diag(np.array(diag, dtype=complex))


def sector_matrix(h: FermionHamiltonian, n: int | None = None) -> np.ndarray:
    """Dense matrix of the Hamiltonian restricted to a particle sector."""
    if n is None:
        n = h.particles
    return restrict_to_sector(dense_fock_matrix(h), n)


def sector_matrix_direct(h: FermionHamiltonian, n: int | None = None) -> np.ndarray:
    """Sector matrix built from sparse actions, bypassing the 2^M oracle.

    Same basis order as :func:`sector_matrix`; usable for mode counts past
    the dense Fock cap as long as the sector itself is enumerable.
    """
    if n is None:
        n = h.particles
    states = weight_n_states(h.modes, n)
    index = {s.occ: i for i, s in enumerate(states)}
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for col, st in enumerate(states):
        for occ, amp in h.apply_to_state(st).items():
            mat[index[occ], col] += amp
    return mat


def default_penalty_scale(h: FermionHamiltonian) -> float:
    """Computable stand-in for the operator-norm bound on a codespace penalty.

    Finite coefficients near the float limit can sum past it; that is a
    ValueError rather than an infinite penalty.
    """
    with np.errstate(over="ignore"):
        total = float(np.abs(h.t).sum()) + sum(abs(v) for v in h.interactions.values())
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
