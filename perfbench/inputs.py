"""Seeded input generators owned by the benchmark.

Every generator takes a ``numpy.random.Generator`` built from the run's
seed, so one seed always yields the same Hamiltonians, graphs and
syndromes.  The program under test only ever sees the files written from
these objects.
"""

from __future__ import annotations

import numpy as np

from fertaper.fermion import FermionHamiltonian


def _random_t(m: int, rng: np.random.Generator, keep=None) -> np.ndarray:
    """Hermitian one-body matrix as in ``random_hamiltonian``; ``keep`` masks entries."""
    raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    t = (raw + raw.conj().T) / 4
    if keep is not None:
        t[~keep] = 0
    return t / max(1.0, np.abs(t).max())


def _random_u(m: int, rng: np.random.Generator, pairs: int, accept) -> dict:
    """``pairs`` entries a'_a a'_b a_g a_d with accept(a, b, g, d), plus conjugate partners."""
    u: dict[tuple[int, int, int, int], complex] = {}
    while len(u) < 2 * pairs:
        key = tuple(int(v) for v in rng.integers(1, m + 1, size=4))
        partner = key[::-1]
        if key in u or partner in u or not accept(*key):
            continue
        val = complex(rng.normal(), rng.normal()) / 4
        val /= max(1.0, abs(val))
        if partner == key:
            val = complex(val.real, 0.0)
        u[key] = val
        u[partner] = val.conjugate()
    return u


def spin_conserving_hamiltonian(m: int, n: int, rng: np.random.Generator,
                                interaction_pairs: int) -> FermionHamiltonian:
    """Random Hamiltonian that conserves both spin species separately.

    Spins are interleaved: odd modes are spin up, even modes spin down.
    ``t`` only couples modes of one spin and every ``u`` entry keeps the
    multiset of spins, so the up and down number parities are two
    independent Z-type symmetries of the encoded Hamiltonian.
    """
    if m % 2:
        raise ValueError("spin-interleaved Hamiltonians need an even mode count")
    spin = np.arange(m + 1) % 2  # index by 1-based mode; mode 1 is up

    def keeps_spin(a, b, g, d):
        return a != b and g != d and sorted((spin[a], spin[b])) == sorted((spin[g], spin[d]))

    t = _random_t(m, rng, spin[1:, None] == spin[None, 1:])
    return FermionHamiltonian(m, n, t, _random_u(m, rng, interaction_pairs, keeps_spin))


def _distinct(a, b, g, d) -> bool:
    return len({a, b, g, d}) == 4


# ``random_hamiltonian`` also draws interaction entries with repeated modes;
# those give far fewer Pauli terms and frames, so its instances of one size
# vary in cost by about 25%.  The two generators below draw four distinct
# modes, which keeps that structure, and so the cost, the same for every seed.


def banded_hamiltonian(m: int, n: int, rng: np.random.Generator) -> FermionHamiltonian:
    """Chain-like hops (|a-b| <= 1) and two interaction pairs on distinct modes."""
    idx = np.arange(m)
    t = _random_t(m, rng, np.abs(idx[:, None] - idx[None, :]) <= 1)
    return FermionHamiltonian(m, n, t, _random_u(m, rng, 2, _distinct))


def register_hamiltonian(m: int, n: int, rng: np.random.Generator) -> FermionHamiltonian:
    """Dense hops and two interaction pairs on distinct modes, for ``firstq``.

    Past four modes a pair with (a-1) xor (g-1) == (b-1) xor (d-1) is
    redrawn as well: its two-register Pauli terms coincide pairwise, which
    drops a quarter of the first-quantized terms.  At four modes every
    distinct-mode pair has that property.
    """
    def accept(a, b, g, d):
        return _distinct(a, b, g, d) and (m <= 4 or (a - 1) ^ (g - 1) != (b - 1) ^ (d - 1))

    return FermionHamiltonian(m, n, _random_t(m, rng), _random_u(m, rng, 2, accept))


def syndrome_plan(rng: np.random.Generator, q: int, count: int) -> dict:
    """Keys for ``count`` planted syndromes and ``count`` uniform random ones.

    A planted syndrome is the image of a random weight-n vector, so it
    needs the code; its vector is drawn later by :func:`planted_vector`
    from keys fixed here, which keeps the inputs a function of the seed
    alone.  Random syndromes mostly have no weight-n preimage.
    """
    return {
        "planted_keys": rng.random((count, 2 * q)).tolist(),
        "random": rng.integers(0, 2, size=(count, q)).tolist(),
    }


def planted_vector(keys, m: int, n: int) -> np.ndarray:
    """Weight-n vector on the n modes with the lowest keys among the first m."""
    if m > len(keys):
        raise ValueError(f"{m} modes but only {len(keys)} planted keys")
    x = np.zeros(m, dtype=np.uint8)
    x[np.argsort(keys[:m], kind="stable")[:n]] = 1
    return x
