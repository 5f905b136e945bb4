"""Command-line pipelines and the verification harness.

Subcommands: encode, taper, codesim, graphgen, graphtable, decode, firstq,
oa, hperp, verify.  Reports are JSON with sorted keys and no wall-clock
content unless requested, so identical configurations produce
byte-identical files.  The process exits nonzero when any enabled check
fails.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from fertaper import gf2, jsonout, limits
from fertaper.codeword import CodeEncoding, build_simulator_hamiltonian, load_pcm
from fertaper.fermion import (
    FermionHamiltonian,
    default_penalty_scale,
    dense_fock_matrix,
    random_hamiltonian,
)
from fertaper.firstq import (
    RegisterEncoding,
    bin_terms,
    first_quantized_parts,
    rao_hamming_oa,
    register_field,
    spectrum_matches_partitions,
)
from fertaper.graphs import (
    GraphDecoder,
    girth,
    graph_from_incidence,
    greedy_high_girth,
    load_graph,
    save_graph,
)
from fertaper.mitm import build_tables, mitm_decode
from fertaper.pauli import (
    PauliOperator,
    QubitHamiltonian,
    _labels,
    hamiltonian_from_text,
    hamiltonian_to_text,
)
from fertaper.standard_maps import build_encoding, encode_hamiltonian
from fertaper.tapering import (
    build_plan,
    clifford_transform,
    find_symmetries,
    sector_energies,
    sector_label,
    taper,
)

MAP_NAMES = {"jw": "jordan_wigner", "parity": "parity", "bintree": "binary_tree"}


@dataclass
class RunReport:
    """Outcome record: every check carries a pass flag and a residual."""

    config: dict = field(default_factory=dict)
    qubits_before: int | None = None
    qubits_after: int | None = None
    generators: list = field(default_factory=list)
    paired_qubits: list = field(default_factory=list)
    sector_energies: dict = field(default_factory=dict)
    best_sector: str | None = None
    sparsity: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    timings: dict | None = None

    def add_check(self, name: str, passed: bool, residual: float | None = None):
        entry = {"name": name, "passed": bool(passed)}
        if residual is not None:
            entry["residual"] = float(residual)
        self.checks.append(entry)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)


def _checked_penalty(value: float | None) -> float | None:
    """The --penalty value, which must be finite and >= 0 when given."""
    if value is not None and not 0 <= value < math.inf:
        raise ValueError(f"--penalty must be a finite number >= 0, got {value}")
    return value


def _parse_sector(text: str) -> tuple[int, ...]:
    if any(c not in "+-" for c in text):
        raise ValueError(f"sector string must be over +/-, got {text!r}")
    return tuple(1 if c == "+" else -1 for c in text)


# -- subcommand handlers ------------------------------------------------------


def _cmd_encode(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        h = FermionHamiltonian.from_json(fh.read())
    enc = build_encoding(MAP_NAMES[args.map], h.modes)
    out = encode_hamiltonian(h, enc)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(hamiltonian_to_text(out))
    print(f"encoded {h.modes} modes -> {out.qubit_count} qubits, {len(out)} terms")
    return 0


def _cmd_taper(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        h = hamiltonian_from_text(fh.read())
    if not h.is_hermitian():
        worst = int(np.argmax(np.abs(h.coeffs.imag)))  # the first of the largest
        label = _labels(h.qubit_count, h.x_masks[worst:worst + 1], h.z_masks[worst:worst + 1])[0]
        raise ValueError(
            f"{args.input}: Hamiltonian is not Hermitian (term {label} "
            f"has coefficient {complex(h.coeffs[worst])}); sector energies would be meaningless"
        )
    group = find_symmetries(h)
    plan = build_plan(group, h)
    transformed = clifford_transform(h, plan)
    # "" is a sector too: the one of a plan with no generators
    enumerate_all = args.sector is None
    report = RunReport(config={"input": args.input,
                               "sector": "enumerate" if enumerate_all else args.sector})
    report.qubits_before = h.qubit_count
    report.qubits_after = h.qubit_count - plan.size
    # the plan's order: sector sign i is the eigenvalue of generator i
    report.generators = [g.label for g in plan.generators]
    report.paired_qubits = list(plan.paired_qubits)

    # pauli.commutes as one array parity per generator over every input term's mask words
    x, z = h.x_masks, h.z_masks
    gens = gf2.uint64_words([m for g in plan.generators for m in (g.x_mask, g.z_mask)],
                            h.qubit_count)
    report.add_check("generators_commute", not any(
        (gf2.popcounts((x & gz) ^ (z & gx)) & 1).any() for gx, gz in zip(gens[::2], gens[1::2])))

    sectors = None if enumerate_all else [_parse_sector(args.sector)]
    if report.qubits_after <= limits.SECTOR_QUBIT_CAP:
        energies = sector_energies(transformed, plan, sectors)
        report.sector_energies = {sector_label(s): float(e) for s, e in energies.items()}
        # the first sector at the minimum, so last-bit noise cannot change the choice
        lowest = min(energies.values())
        chosen = next(s for s, energy in energies.items() if energy <= lowest + 1e-10)
        report.best_sector = sector_label(chosen)
    elif sectors:
        chosen = sectors[0]  # too large to diagonalize; still written below
    else:
        raise ValueError(
            f"{report.qubits_after} qubits remain; enumeration is "
            f"capped at {limits.SECTOR_QUBIT_CAP}, pass --sector"
        )
    reduced = taper(transformed, plan, chosen)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(hamiltonian_to_text(reduced))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    print(f"tapered {h.qubit_count} -> {reduced.qubit_count} qubits "
          f"({plan.size} symmetries), sector {sector_label(chosen)}")
    return 0 if report.all_passed else 1


def _cmd_codesim(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        h = FermionHamiltonian.from_json(fh.read())
    if args.graph:
        enc = CodeEncoding.from_graph(load_graph(args.graph), h.particles)
    else:
        enc = CodeEncoding.from_matrix(load_pcm(args.check), h.particles)
    frames = build_simulator_hamiltonian(h, enc, _checked_penalty(args.penalty))
    flips = gf2.unpack_ints(frames.x_masks, enc.qubits)
    qubit = np.nonzero(flips)[1] + 1  # 1-based
    # a frame's flipped qubits and its diagonal are slices of one array each
    ends = [0, *np.cumsum(flips.sum(axis=1)).tolist()]
    diagonals = (["lazy"] * len(frames) if frames.buffer is None  # past the entry budget (Frames)
                 else [frames.buffer[a:b] for a, b in itertools.pairwise(frames.offsets.tolist())])
    terms = jsonout.Table({  # built before the file opens: it rejects NaN and inf
        # frame i^|z| X(x) Z(z) is spelled -1 when |z|, its Y count, is 2 or 3 mod 4
        "frame": ["-1" + label if label.count("Y") & 2 else label
                  for label in _labels(enc.qubits, frames.x_masks, frames.z_masks)],
        "weight": frames.weights,
        "flip_qubits": [qubit[a:b] for a, b in itertools.pairwise(ends)],
        "diagonal": diagonals,
    })
    with open(args.output, "w", encoding="utf-8") as fh:
        jsonout.dump({"qubits": enc.qubits, "terms": terms}, fh)
    print(f"wrote {len(frames)} framed terms on {enc.qubits} qubits")
    return 0


def _cmd_graphgen(args) -> int:
    g = greedy_high_girth(args.qubits, args.particles, args.trials, args.seed)
    save_graph(g, args.out)
    print(f"graph: {g.vertex_count} vertices, {g.edge_count} edges, girth {girth(g)}")
    return 0


def _cmd_graphtable(args) -> int:
    if args.qmax < 4:
        raise ValueError(f"--qmax {args.qmax} leaves no rows; the table starts at Q=4")
    if args.nmax < 1:
        raise ValueError(f"--nmax {args.nmax} leaves no columns; it must be at least 1")
    limits.check_graph_vertices(args.qmax)  # before the first row, not at the last
    lines = ["Q," + ",".join(f"N={n}" for n in range(1, args.nmax + 1))]
    for q in range(4, args.qmax + 1):
        row = [str(q)]
        for n in range(1, args.nmax + 1):
            g = greedy_high_girth(q, n, args.trials, args.seed)
            row.append(str(g.edge_count))
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_decode(args) -> int:
    a = load_pcm(args.check)
    q, m = a.shape
    bad = next(((i, c) for i, c in enumerate(args.syndrome, 1) if c not in "01"), None)
    if bad:
        raise ValueError(f"--syndrome has {bad[1]!r} at position {bad[0]}; bits must be 0 or 1")
    if len(args.syndrome) != q:
        raise ValueError(f"--syndrome has {len(args.syndrome)} bits, {args.check} has {q} rows")
    if not 0 <= args.particles <= m:
        raise ValueError(f"--particles {args.particles} is outside 0..{m}, the column count")
    # N columns of weight at most w flip at most N*w rows: a heavier syndrome has no preimage
    if args.syndrome.count("1") > args.particles * int(a.sum(axis=0).max(initial=0)):
        print("no weight-matching preimage")
        return 1
    syndrome = np.array([int(c) for c in args.syndrome], dtype=np.uint8)
    # a graph's incidence matrix with girth >= 2N+2 decodes by matching, up to the vertex cap
    g = graph_from_incidence(a)
    decoder = (None if g is None or g.vertex_count > limits.GRAPH_VERTEX_CAP
               else GraphDecoder.certified(g, args.particles))
    if decoder is not None:
        hit = decoder.decode(syndrome)
    else:
        hit = mitm_decode(build_tables(gf2.pack_rows(a.T), q, args.particles), syndrome)
    if hit is None:
        print("no weight-matching preimage")
        return 1
    print("".join(str(int(b)) for b in hit))
    return 0


def _cmd_firstq(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        h = FermionHamiltonian.from_json(fh.read())
    enc = RegisterEncoding(h.modes, h.particles)
    register_field(enc)  # first: it rejects an unsupported register size
    parts = first_quantized_parts(h, enc)
    scale = _checked_penalty(args.penalty)
    if scale is None:
        scale = default_penalty_scale(h)
    total = parts.total(scale)  # canonical, so bin_terms indexes its terms
    groups = bin_terms(total, enc)
    terms = jsonout.Table({
        "re": total.coeffs.real.copy(),
        "im": total.coeffs.imag.copy(),
        "pauli": _labels(enc.qubits, total.x_masks, total.z_masks),
    })
    payload = {
        "qubits": enc.qubits,
        "registers": enc.particles,
        "register_bits": enc.register_bits,
        "penalty_scale": scale,
        "groups": jsonout.Table({
            "basis": [row for row, _ in groups],
            "terms": [terms.take(rows) for _, rows in groups],
        }),
    }
    with open(args.emit_bins, "w", encoding="utf-8") as fh:
        jsonout.dump(payload, fh)
    print(f"{len(groups)} measurement groups for {len(total)} terms "
          f"on {enc.qubits} qubits (cap {9 ** enc.register_bits})")
    return 0


def _cmd_oa(args) -> int:
    oa = rao_hamming_oa(args.m)
    print(f"array: {oa.row_count} rows x {oa.column_count} columns")
    if args.verify:
        ok = oa.verify_strength_two()
        print("strength-2 index-1:", "pass" if ok else "FAIL")
        return 0 if ok else 1
    return 0


def _cmd_hperp(args) -> int:
    ok, got, want = spectrum_matches_partitions(args.N, args.M)
    if args.spectrum:
        print("eigenvalues:", ", ".join(str(v) for v in got))
        print("from partitions:", ", ".join(str(v) for v in want))
    print("spectrum matches partitions:", "pass" if ok else "FAIL")
    return 0 if ok else 1


# -- verify suites ------------------------------------------------------------

# The 14 Pauli strings of the four-qubit minimal-basis hydrogen Hamiltonian.
H2_TABLE = (
    "ZIII", "IZII", "IIZI", "IIIZ",
    "ZZII", "ZIZI", "ZIIZ", "IZZI", "IZIZ", "IIZZ",
    "YYXX", "XYYX", "YXXY", "XXYY",
)

# Images of the table after the three symmetry reflections (paired qubits
# 2, 3, 4 act by I or X only; signs live in the coefficients).
H2_TRANSFORMED = (
    "ZIII", "ZXII", "ZIXI", "ZIIX",
    "IXII", "IIXI", "IIIX", "IXXI", "IXIX", "IIXX",
    "XIXX", "XIIX", "XXXI", "XXII",
)


def h2_operator_table() -> QubitHamiltonian:
    coeffs = [0.1 * (i + 1) for i in range(len(H2_TABLE))]
    return QubitHamiltonian(
        4, tuple((c, PauliOperator.from_label(l)) for c, l in zip(coeffs, H2_TABLE))
    )


def verify_suite(suite: str, modes: int = 5, particles: int = 2, seed: int = 7,
                 m_param: int = 2) -> RunReport:
    """Self-contained oracle suites exposed on the command line."""
    report = RunReport(config={"suite": suite, "M": str(modes), "N": str(particles),
                               "seed": str(seed), "m": str(m_param)})
    if suite == "h2":
        h = h2_operator_table()
        group = find_symmetries(h)
        want = [PauliOperator.from_label(l) for l in ("ZZII", "ZIZI", "ZIIZ")]
        report.add_check("symmetry_group", group.same_group(want))
        plan = build_plan(group, h)
        report.add_check("paired_qubits", plan.paired_qubits == (2, 3, 4))
        transformed = clifford_transform(h, plan)
        report.add_check(
            "transformed_table", transformed.operator_set() == set(H2_TRANSFORMED)
        )
        reduced = taper(transformed, plan, (1, 1, 1))
        report.add_check("single_qubit_left", reduced.qubit_count == 1)
        full = np.sort(np.linalg.eigvalsh(h.dense()))
        trans = np.sort(np.linalg.eigvalsh(transformed.dense()))
        report.add_check("isospectral", bool(np.allclose(full, trans, atol=1e-12)),
                         float(np.abs(full - trans).max()))
    elif suite == "spectra":
        if modes < 1:
            raise ValueError(f"--M {modes}: the spectra suite needs at least one mode")
        rng = np.random.default_rng(seed)
        h = random_hamiltonian(modes, particles, rng)
        ref = np.sort(np.linalg.eigvalsh(dense_fock_matrix(h)))
        for kind in ("jordan_wigner", "parity", "binary_tree"):
            enc = build_encoding(kind, modes)
            q = encode_hamiltonian(h, enc)
            full = np.sort(np.linalg.eigvalsh(q.dense()))
            report.add_check(f"{kind}_spectrum", bool(np.allclose(full, ref, atol=1e-9)),
                             float(np.abs(full - ref).max()))
            plan = build_plan(find_symmetries(q), q)
            transformed = clifford_transform(q, plan)
            energies = sector_energies(transformed, plan)
            spectra = [np.linalg.eigvalsh(taper(transformed, plan, s).dense()) for s in energies]
            union = np.sort(np.concatenate(spectra))
            report.add_check(f"{kind}_sector_union", bool(np.allclose(union, ref, atol=1e-9)),
                             float(np.abs(union - ref).max()))
            gap = max(abs(e - spectrum[0]) for e, spectrum in zip(energies.values(), spectra))
            report.add_check(f"{kind}_sector_energies", gap <= 1e-9, gap)
    elif suite == "oa":
        oa = rao_hamming_oa(m_param)
        report.add_check("dimensions", oa.row_count == 9 ** m_param
                         and oa.column_count == 3 ** m_param + 1)
        report.add_check("strength_two", oa.verify_strength_two())
    else:
        raise ValueError(f"unknown suite {suite!r}; choose h2, spectra, or oa")
    return report


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    report = verify_suite(args.suite, args.M, args.N, args.seed, args.m)
    if args.timings:
        report.timings = {"wall_seconds": time.perf_counter() - started}
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    for check in report.checks:
        mark = "pass" if check["passed"] else "FAIL"
        residual = f" (residual {check['residual']:.3g})" if "residual" in check else ""
        print(f"{check['name']}: {mark}{residual}")
    return 0 if report.all_passed else 1


@functools.cache  # built on first use, then shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fertaper",
        description="Fermion-to-qubit encodings, symmetry tapering, and sparse simulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="map a fermionic Hamiltonian to qubits")
    p.add_argument("--input", required=True, help="Hamiltonian JSON file")
    p.add_argument("--map", required=True, choices=sorted(MAP_NAMES))
    p.add_argument("--output", required=True, help="Pauli text file to write")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("taper", help="detect symmetries and remove qubits")
    p.add_argument("--input", required=True, help="Pauli text file")
    p.add_argument("--sector", help="sector signs, e.g. ++-")
    p.add_argument("--output", required=True)
    p.add_argument("--report", help="JSON report path")
    p.set_defaults(func=_cmd_taper)

    p = sub.add_parser("codesim", help="framed simulator from a parity-check code")
    code = p.add_mutually_exclusive_group(required=True)
    code.add_argument("--check", help="parity-check matrix file")
    code.add_argument("--graph", help="bipartite graph file")
    p.add_argument("--input", required=True, help="Hamiltonian JSON file")
    p.add_argument("--penalty", type=float, default=None)
    p.add_argument("--output", required=True, help="framed-terms JSON")
    p.set_defaults(func=_cmd_codesim)

    p = sub.add_parser("graphgen", help="greedy high-girth bipartite graph")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--particles", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_graphgen)

    p = sub.add_parser("graphtable", help="CSV of best edge counts per (Q, N)")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_graphtable)

    p = sub.add_parser("decode", help="syndrome decode: matching on a graph's incidence "
                       "matrix with girth >= 2N+2, else meet-in-the-middle")
    p.add_argument("--check", required=True)
    p.add_argument("--particles", type=int, required=True)
    p.add_argument("--syndrome", required=True, help="bit string, qubit 1 first")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("firstq", help="register encoding with measurement groups")
    p.add_argument("--input", required=True)
    p.add_argument("--penalty", type=float, default=None)
    p.add_argument("--emit-bins", required=True, help="JSON output path")
    p.set_defaults(func=_cmd_firstq)

    p = sub.add_parser("oa", help="orthogonal array construction / verification")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_oa)

    p = sub.add_parser("hperp", help="exchange-penalty spectrum versus partitions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--spectrum", action="store_true")
    p.set_defaults(func=_cmd_hperp)

    p = sub.add_parser("verify", help="run an oracle suite")
    p.add_argument("--suite", required=True, choices=("h2", "spectra", "oa"))
    p.add_argument("--M", type=int, default=5)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--report")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-reproducibility)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
