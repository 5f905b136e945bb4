import itertools

import numpy as np
import pytest

from fertaper import gf2
from fertaper.cli import H2_TABLE
from fertaper.codeword import CodeEncoding
from fertaper.fermion import FermionHamiltonian
from fertaper.graphs import cycle_chord_graph
from fertaper.mitm import InjectivityViolation
from fertaper.pauli import PauliOperator, QubitHamiltonian


@pytest.fixture
def h2_table() -> QubitHamiltonian:
    """The hydrogen operator table with generic distinct coefficients."""
    coeffs = [0.31 + 0.07 * i for i in range(len(H2_TABLE))]
    return QubitHamiltonian(
        4,
        tuple((c, PauliOperator.from_label(l)) for c, l in zip(coeffs, H2_TABLE)),
    )


def u_dict(pair) -> dict:
    """A (keys, values) pair of interaction arrays, as FermionHamiltonian.u and
    .interactions hold them, as a dict from tuples of ints to complex values in
    the arrays' order."""
    keys, values = pair
    return dict(zip(map(tuple, keys.tolist()), values.tolist()))


def packed(a) -> tuple[list[int], int]:
    """A 0/1 matrix's columns as qubit masks, and its row count."""
    a = np.asarray(a)
    return gf2.pack_rows(a.T), a.shape[0]


def syndrome(a, x) -> np.ndarray:
    """Ax mod 2 as a 0/1 uint8 vector, by integer matrix product."""
    return (np.asarray(a, dtype=np.int64) @ np.asarray(x, dtype=np.int64) % 2).astype(np.uint8)


def syndrome_map(a, n) -> dict[int, int]:
    """Every achievable syndrome of a weight-n vector -> its preimage, both as ints.

    Plain enumeration with Python ints, the reference for table decoders;
    a syndrome reached twice fails the calling test.
    """
    cols = gf2.pack_rows(np.asarray(a).T)
    m = len(cols)
    table: dict[int, int] = {}
    for combo in itertools.combinations(range(m), n):
        syn = 0
        for c in combo:
            syn ^= cols[c]
        assert syn not in table, "matrix is not injective at this weight"
        table[syn] = sum(1 << (m - 1 - c) for c in combo)
    return table


def weight3_column(q: int, rng: np.random.Generator) -> int:
    """A qubit mask of three distinct qubits drawn by rng.choice(q, 3)."""
    return sum(1 << int(r) for r in rng.choice(q, 3, replace=False))


def grown_weight3_code(q: int, n: int, m: int, seed: int) -> CodeEncoding:
    """An N-injective code of m weight-3 columns without a graph.

    Columns are drawn from np.random.default_rng(seed) by weight3_column;
    a repeat is skipped, and a column is kept only while the codeword list
    still certifies the code.
    """
    rng = np.random.default_rng(seed)
    cols: list[int] = []
    while len(cols) < m:
        col = weight3_column(q, rng)
        if col in cols:
            continue
        try:
            if len(cols) >= n:
                CodeEncoding((*cols, col), q, n)
        except InjectivityViolation:
            continue
        cols.append(col)
    return CodeEncoding(tuple(cols), q, n)


def minimal_basis_hydrogen() -> FermionHamiltonian:
    """Four-spin-orbital hydrogen molecule, interleaved spin ordering.

    Spatial integrals in hartree for the standard minimal basis at the
    equilibrium bond length; two-body entries are assembled from the
    (bra-bra|ket-ket) table with spin selection rules.
    """
    e_low, e_high = -1.252477, -0.475934
    j_ll, j_hh, j_lh, k_lh = 0.674493, 0.697397, 0.663472, 0.181287
    orbital = {1: 0, 2: 0, 3: 1, 4: 1}
    spin = {1: 0, 2: 1, 3: 0, 4: 1}
    pair_values = {
        (0, 0, 0, 0): j_ll, (1, 1, 1, 1): j_hh,
        (0, 0, 1, 1): j_lh, (1, 1, 0, 0): j_lh,
        (0, 1, 0, 1): k_lh, (1, 0, 1, 0): k_lh,
        (0, 1, 1, 0): k_lh, (1, 0, 0, 1): k_lh,
    }
    t = np.diag([e_low, e_low, e_high, e_high]).astype(complex)
    u: dict[tuple[int, int, int, int], complex] = {}
    for p in range(1, 5):
        for q in range(1, 5):
            for r in range(1, 5):
                for s in range(1, 5):
                    if spin[p] != spin[r] or spin[q] != spin[s]:
                        continue
                    val = pair_values.get(
                        (orbital[p], orbital[r], orbital[q], orbital[s]), 0.0
                    )
                    if val == 0.0 or p == q or r == s:
                        continue
                    key = (p, q, s, r)
                    u[key] = u.get(key, 0.0) + 0.5 * val
    with np.errstate(all="ignore"):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return FermionHamiltonian(4, 2, t, u)


@pytest.fixture
def h2_fermionic() -> FermionHamiltonian:
    return minimal_basis_hydrogen()


@pytest.fixture
def fig3_graph():
    """Girth-6 bipartite graph on 12 vertices with 16 edges."""
    return cycle_chord_graph(8, 2)
