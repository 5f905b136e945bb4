"""Every size cap of the package, read as ``limits.NAME`` at call time.

Dense builders share one ceiling: check_dense refuses an array over more
than 2^DENSE_QUBIT_CAP basis states, or 2^FERTAPER_MAX_DENSE_QUBITS when
that environment variable is set, so label spaces of modes ** n states
obey it too.
"""

import os

DENSE_QUBIT_CAP = 14
BRUTE_FORCE_COLUMN_CAP = 24  # columns the brute-force judges of the tests enumerate
TABLE_ENTRY_BUDGET = 1 << 26  # entries of a diagonal buffer, a codeword list or a pair of mitm halves
# qubits left after tapering for which `taper` finds sector energies: it labels each sector's
# 2^k basis states by connected block, then diagonalizes the blocks that can hold its minimum
SECTOR_QUBIT_CAP = 12
# sectors of k symmetries enumerated at once, 2^k of them: each is a tapered sum and an energy
SECTOR_COUNT_CAP = 1 << 10
PERMUTATION_CAP = 10_000  # orderings the tests sum into one antisymmetrized register state
# modes a Hamiltonian file may declare: reading one allocates its M x M complex
# hop matrix (16 MiB at this cap), and Jordan-Wigner would need M qubits, far
# past anything the encoders here can simulate.  It is also the widest Pauli sum
# a file may declare or spell, the widest that `encode` writes, since `taper`'s
# symmetry search is quadratic or worse in the qubit count
MODE_CAP = 1024
# vertices of a graph that is generated, loaded or read off a parity-check matrix: the
# greedy search holds one Q x Q distance matrix per trial (8 MiB of int16 at this cap)
# and each of its steps one temporary per trial; girth, the certificate and the decoder
# walk radius-N balls of the neighbour lists and hold no Q x Q array
GRAPH_VERTEX_CAP = 2048
# vertices in the radius-N balls a graph decoder keeps for its next syndromes, some 100 B
# each (about 25 MiB at this cap); a new ball that would pass it empties the cache first.
# A graph at the vertex cap and N near Q/2 would otherwise keep every vertex's ball, Q^2
# vertices, about 430 MiB
BALL_CACHE_VERTICES = 1 << 18
# entries in the (trials, Q, Q) distance stack the greedy search's trials share; more
# trials run in consecutive stacks, and one trial runs alone past it
GREEDY_STACK_BUDGET = 1 << 17


def dense_cap() -> int:
    """The dense cap in qubits: FERTAPER_MAX_DENSE_QUBITS if set, else DENSE_QUBIT_CAP."""
    env = os.environ.get("FERTAPER_MAX_DENSE_QUBITS", "")
    if env and not env.strip().isdecimal():
        raise ValueError(f"FERTAPER_MAX_DENSE_QUBITS must be a non-negative integer, got {env!r}")
    return int(env) if env else DENSE_QUBIT_CAP


def check_dense(dim: int) -> None:
    """Refuse a dense vector or matrix over more than 2^cap basis states."""
    cap = dense_cap()
    if dim > 1 << cap:
        raise ValueError(f"dense array on {(dim - 1).bit_length()} qubits exceeds the cap of "
                         f"{cap}; set FERTAPER_MAX_DENSE_QUBITS to override")


def check_graph_vertices(q: int) -> None:
    """Refuse a graph over more than GRAPH_VERTEX_CAP vertices."""
    if q > GRAPH_VERTEX_CAP:
        raise ValueError(f"graph on {q} vertices exceeds the cap of {GRAPH_VERTEX_CAP}; "
                         "its greedy search holds Q x Q distance matrices")
