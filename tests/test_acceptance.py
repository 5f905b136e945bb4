"""Acceptance criteria A1-A11.

Each test prints one pass/fail line (run with -s to stream them) and
enforces the stated tolerance and time budget.  Random inputs are seeded,
so the whole module is reproducible.
"""

import time
from fractions import Fraction

import numpy as np

from fertaper import gf2
from fertaper.cli import H2_TABLE, H2_TRANSFORMED
from fertaper.codeword import (
    CodeEncoding,
    apply_frames_to_isometry,
    four_body_simulator,
    two_body_simulator,
)
from fertaper.fermion import (
    dense_fock_matrix,
    observable_action,
    random_hamiltonian,
    sector_matrix,
    weight_n_states,
)
from fertaper.firstq import (
    RegisterEncoding,
    bin_terms,
    codespace_isometry,
    column_partitions,
    default_penalty_scale,
    exchange_penalty_dense,
    first_quantized_parts,
    partition_eigenvalue,
    rao_hamming_oa,
)
from fertaper.graphs import (
    GraphDecoder,
    cycle_chord_graph,
    girth,
    graph_decode,
    greedy_high_girth,
)
from fertaper.mitm import brute_force_decode, build_tables, mitm_decode
from fertaper.pauli import PauliOperator, QubitHamiltonian
from fertaper.standard_maps import ENCODING_KINDS, build_encoding, encode_hamiltonian
from fertaper.tapering import (
    all_sectors,
    build_plan,
    clifford_transform,
    find_symmetries,
    taper,
)
from tests.conftest import packed, syndrome_map


class Stopwatch:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def done(self, name: str, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.start
        extra = f" - {detail}" if detail else ""
        print(f"{name}: PASS ({elapsed:.2f}s){extra}")
        assert elapsed < self.budget, f"{name} exceeded {self.budget}s budget"


def h2_table_hamiltonian() -> QubitHamiltonian:
    coeffs = [0.31 + 0.07 * i for i in range(len(H2_TABLE))]
    return QubitHamiltonian(
        4, tuple((c, PauliOperator.from_label(l)) for c, l in zip(coeffs, H2_TABLE))
    )


def instance_grid(count: int = 20):
    rng = np.random.default_rng(90210)
    grid = []
    for i in range(count):
        m = 3 + (i % 4)
        n = int(rng.integers(1, m))
        grid.append(random_hamiltonian(m, n, rng))
    return grid


GRID = instance_grid()


def test_a1_hydrogen_symmetry_detection():
    watch = Stopwatch(1.0)
    group = find_symmetries(h2_table_hamiltonian())
    target = [PauliOperator.from_label(l) for l in ("ZZII", "ZIZI", "ZIIZ")]
    assert group.size == 3
    assert group.same_group(target)
    watch.done("A1", "group equals <Z1Z2, Z1Z3, Z1Z4>")


def test_a2_hydrogen_transform_and_taper():
    watch = Stopwatch(1.0)
    h = h2_table_hamiltonian()
    plan = build_plan(find_symmetries(h), h)
    transformed = clifford_transform(h, plan)
    assert transformed.operator_set() == set(H2_TRANSFORMED)
    # exact term-by-term signed coefficients, tracked through the reflections
    assert all(c.imag == 0 for c in transformed.canonicalize().coeffs)
    for sector in all_sectors(plan.size):
        assert taper(transformed, plan, sector).qubit_count == 1
    watch.done("A2", "transformed table exact; every sector tapers to 1 qubit")


def test_a3_standard_encoding_matrices():
    watch = Stopwatch(1.0)
    tree = build_encoding("binary_tree", 4).matrix
    parity = build_encoding("parity", 4).matrix
    assert tree.tolist() == [
        [1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]]
    assert parity.tolist() == [
        [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
    watch.done("A3", "printed 4x4 matrices reproduced bit-exactly")


def test_a4_spectral_equivalence_of_standard_encodings():
    watch = Stopwatch(30.0)
    worst = 0.0
    for h in GRID:
        ref = np.sort(np.linalg.eigvalsh(dense_fock_matrix(h)))
        for kind in ENCODING_KINDS:
            enc = build_encoding(kind, h.modes)
            vals = np.sort(np.linalg.eigvalsh(encode_hamiltonian(h, enc).dense()))
            worst = max(worst, float(np.abs(vals - ref).max()))
    assert worst < 1e-9
    watch.done("A4", f"20 instances x 3 encodings, worst residual {worst:.2e}")


def test_a5_taper_spectral_completeness():
    watch = Stopwatch(60.0)
    worst = 0.0
    for h in GRID:
        ref = np.sort(np.linalg.eigvalsh(dense_fock_matrix(h)))
        for kind in ENCODING_KINDS:
            q = encode_hamiltonian(h, build_encoding(kind, h.modes))
            plan = build_plan(find_symmetries(q), q)
            transformed = clifford_transform(q, plan)
            union = []
            for sector in all_sectors(plan.size):
                red = taper(transformed, plan, sector)
                union.extend(
                    np.linalg.eigvalsh(red.dense()) if red.qubit_count
                    else [sum(c.real for c, _ in red.terms)]
                )
            union = np.sort(np.asarray(union, dtype=float))
            worst = max(worst, float(np.abs(union - ref).max()))
    assert worst < 1e-9
    watch.done("A5", f"sector unions match, worst residual {worst:.2e}")


def test_a6_graph_code_data_points():
    watch = Stopwatch(300.0)
    g12 = greedy_high_girth(12, 2, trials=1000, seed=0)
    assert g12.edge_count >= 16 and girth(g12) >= 6
    g20 = greedy_high_girth(20, 3, trials=1000, seed=0)
    assert g20.edge_count >= 25 and girth(g20) >= 8
    chord = cycle_chord_graph(10, 3)
    assert (chord.edge_count, chord.vertex_count, girth(chord)) == (25, 20, 8)
    watch.done(
        "A6",
        f"greedy: M={g12.edge_count} at (12,2), M={g20.edge_count} at (20,3); "
        "chord family (25,20,8)",
    )


def _random_certified_encodings(rng):
    encodings = []
    for q in (10, 12, 14):
        seed = int(rng.integers(0, 10_000))
        g = greedy_high_girth(q, 2, trials=30, seed=seed)
        assert GraphDecoder.certified(g, 2) is not None
        encodings.append(CodeEncoding.from_graph(g, 2))
    return encodings


def _simulation_condition_exact(frames, term, enc) -> bool:
    got = apply_frames_to_isometry(frames, enc)
    want = np.zeros_like(got)
    states = weight_n_states(enc.modes, enc.particles)
    for col, st in enumerate(states):
        for amp, out in observable_action(term, st):
            want[enc.encode_state(out), col] += amp
    return np.array_equal(got, want)


def test_a7_codeword_simulation_condition():
    watch = Stopwatch(300.0)
    rng = np.random.default_rng(777)
    encodings = [CodeEncoding.from_graph(cycle_chord_graph(8, 2), 2)]
    encodings += _random_certified_encodings(rng)
    r2_seen = r4_seen = 0
    for enc in encodings:
        m = enc.modes
        for _ in range(10):
            a, b = (int(v) + 1 for v in rng.choice(m, size=2, replace=False))
            choice = 1 if rng.integers(2) else -1
            frames = two_body_simulator(enc, a, b, choice)
            r2_seen = max(r2_seen, len(frames))
            assert _simulation_condition_exact(frames, ((a, b), choice), enc)
            for frame in frames:
                diag = frame.materialize()
                assert np.all(np.abs(diag) <= 1.0)
        for _ in range(5):
            picks = [int(v) + 1 for v in rng.choice(m, size=4, replace=False)]
            choice = 1 if rng.integers(2) else -1
            frames = four_body_simulator(enc, *picks, choice)
            r4_seen = max(r4_seen, len(frames))
            assert _simulation_condition_exact(frames, (tuple(picks), choice), enc)
            for frame in frames:
                diag = frame.materialize()
                assert np.all(np.abs(diag) <= 1.0)
    assert r2_seen <= 2
    assert r4_seen <= 32
    watch.done(
        "A7",
        f"exact on {len(encodings)} codes; r2={r2_seen} <= 2, r4={r4_seen} <= 32",
    )


def test_a8_decoder_equivalence():
    watch = Stopwatch(120.0)
    fig3 = cycle_chord_graph(8, 2)
    a = fig3.incidence_matrix()
    tables = build_tables(*packed(a), 2)
    reference = syndrome_map(a, 2)
    for syndrome_int in range(1 << 12):
        bits = gf2.unpack_ints([syndrome_int], 12)[0]
        want = reference.get(syndrome_int)
        via_mitm = mitm_decode(tables, bits)
        via_graph = graph_decode(fig3, bits, 2)
        if want is None:
            assert via_mitm is None and via_graph is None
        else:
            assert via_mitm is not None and gf2.bits_to_int(via_mitm) == want
            assert via_graph is not None and gf2.bits_to_int(via_graph) == want

    rng = np.random.default_rng(888)
    from fertaper.codeword import is_n_injective

    for m, n, q in ((14, 2, 10), (17, 2, 12), (20, 3, 16)):
        while True:
            mat = rng.integers(0, 2, size=(q, m)).astype(np.uint8)
            if is_n_injective(mat, n):
                break
        mat_tables = build_tables(*packed(mat), n)
        for _ in range(150):
            s = rng.integers(0, 2, size=q).astype(np.uint8)
            got = mitm_decode(mat_tables, s)
            want = brute_force_decode(mat, n, s)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
    watch.done("A8", "all 4096 syndromes on the 12-vertex code + random codes")


def test_a9_exchange_penalty_spectrum():
    watch = Stopwatch(60.0)
    for n in range(1, 5):
        for m in range(1, 5):
            dense = exchange_penalty_dense(n, m)
            values = np.linalg.eigvalsh(dense)
            expected = sorted({partition_eigenvalue(p) for p in column_partitions(n, m)})
            rounded = sorted({Fraction(round(v * 2), 2) for v in values})
            assert rounded == expected, (n, m)
            assert max(abs(v - float(min(expected, key=lambda e: abs(v - float(e)))))
                       for v in values) < 1e-12
            if 2 <= n <= m:  # the (n-1, 1) shape fits, so the gap is n/2
                nonzero = [v for v in rounded if v > 0]
                assert min(nonzero) == Fraction(n, 2), (n, m)
    watch.done("A9", "spectra = partition values on the 4x4 grid; gap n/2 for n <= m")


def test_a10_first_quantized_simulator():
    watch = Stopwatch(120.0)
    rng = np.random.default_rng(999)
    enc = RegisterEncoding(4, 2)
    iso = codespace_isometry(enc)
    worst_spec = worst_perp = 0.0
    for _ in range(10):
        h = random_hamiltonian(4, 2, rng)
        parts = first_quantized_parts(h, enc)
        tu = (parts.one_body + parts.two_body).dense()
        block = iso.T @ tu @ iso
        ref = np.sort(np.linalg.eigvalsh(sector_matrix(h)))
        got = np.sort(np.linalg.eigvalsh(block))
        worst_spec = max(worst_spec, float(np.abs(got - ref).max()))
        scale = default_penalty_scale(h)
        full = tu + scale * parts.exchange_penalty.dense()
        _, vecs = np.linalg.eigh(full)
        ground = vecs[:, 0]
        perp = float(np.linalg.norm(ground - iso @ (iso.T @ ground)))
        worst_perp = max(worst_perp, perp)
    assert worst_spec < 1e-9
    assert worst_perp < 1e-10
    watch.done(
        "A10",
        f"10 instances: spectra {worst_spec:.1e}, codespace leakage {worst_perp:.1e}",
    )


def test_a11_orthogonal_array_and_binning():
    watch = Stopwatch(30.0)
    for m in (1, 2):
        oa = rao_hamming_oa(m)
        assert (oa.row_count, oa.column_count) == (9 ** m, 3 ** m + 1)
        assert oa.verify_strength_two()
    rng = np.random.default_rng(1234)
    for modes, particles in ((2, 2), (4, 2), (4, 3)):
        h = random_hamiltonian(modes, particles, rng)
        enc = RegisterEncoding(modes, particles)
        total = first_quantized_parts(h, enc).total(default_penalty_scale(h))
        groups = bin_terms(total, enc)
        assert len(groups) <= 9 ** enc.register_bits
        binned = [total.terms[k] for _, rows in groups for k in rows.tolist()]
        assert len(binned) == len(total)
        assert sorted(binned, key=lambda t: (t[1].x_mask, t[1].z_mask)) == list(total.terms)
    watch.done("A11", "strength-2 exhaustive for m in {1,2}; every term binned")
