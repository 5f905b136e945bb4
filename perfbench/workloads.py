"""The four benchmark workloads, one per CLI pipeline.

A workload owns its seeded input generator, the timed steps of one
instance, and the output checks that run after the timed region.  An
instance's steps call ``fertaper.cli.main`` in-process through a
``Runner``, which times them and captures the CLI's stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from fertaper import cli, codeword, graphs
from fertaper.fermion import (
    FermionHamiltonian,
    dense_fock_matrix,
    sector_matrix_direct,
    weight_n_states,
)
from fertaper.firstq import RegisterEncoding, default_penalty_scale, first_quantized_parts
from fertaper.graphs import (
    cycle_chord_graph,
    girth,
    graph_decode,
    greedy_high_girth,
    load_graph,
    save_graph,
)
from fertaper.pauli import PauliOperator, commutes, hamiltonian_from_text
from fertaper.tapering import all_sectors, build_plan, clifford_transform, find_symmetries, taper

from inputs import (
    banded_hamiltonian,
    planted_vector,
    register_hamiltonian,
    spin_conserving_hamiltonian,
    syndrome_plan,
)

ATOL = 1e-9


@dataclass
class Instance:
    """One pipeline run: its inputs, its timed seconds and what it produced."""

    ident: int
    tier: str
    directory: Path
    params: dict
    seconds: float = 0.0
    outputs: dict = field(default_factory=dict)
    # each timed step's seconds over the machine's slowdown around it
    ref_seconds: float = 0.0


class Runner:
    """Times CLI calls and other steps; a tracer, if given, records only inside them.

    ``slowdown``, if given, returns how much slower than a reference the
    machine runs at the moment of the call.  It is sampled just before and
    just after each timed step, outside the timing.
    """

    def __init__(self, tracer=None, slowdown=None):
        self.tracer = tracer
        self.slowdown = slowdown

    def call(self, inst: Instance, key: str, argv: list[str]) -> int:
        """Run ``fertaper <argv>`` in-process; record exit code and stdout under key."""
        buf = io.StringIO()

        def cli_main():
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    return cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                return exc.code if isinstance(exc.code, int) else 2

        rc = self._timed(inst, cli_main)
        inst.outputs[key] = (rc, buf.getvalue())
        return rc

    def step(self, inst: Instance, name: str, fn):
        """Time a non-CLI step (decode batches); traced runs give it a root span."""
        if self.tracer is not None:
            fn = self.tracer.span(name)(fn)
        return self._timed(inst, fn)

    def _timed(self, inst: Instance, fn):
        before = self.slowdown() if self.slowdown is not None else 1.0
        if self.tracer is not None:
            self.tracer.active = True
        start = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False
            after = self.slowdown() if self.slowdown is not None else 1.0
            inst.seconds += elapsed
            inst.ref_seconds += elapsed * 2 / (before + after)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _write_pcm(path: Path, matrix: np.ndarray) -> None:
    """Parity-check file: "Q M", then one row of 0/1 digits per qubit."""
    rows = "".join("".join(str(int(b)) for b in row) + "\n" for row in matrix)
    _write(path, f"{matrix.shape[0]} {matrix.shape[1]}\n" + rows)


def _bits_index(bits) -> int:  # own copy: gf2.bits_to_int is slated for removal
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def _syndrome(matrix: np.ndarray, x) -> np.ndarray:
    return (matrix.astype(np.int64) @ np.asarray(x, dtype=np.int64) % 2).astype(np.uint8)


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


class Workload:
    """Interface: generate inputs, run the timed steps, check the outputs."""

    name = ""
    # tier order of one round: cheap small instances are sampled most
    round = ("small", "small", "small", "medium", "small", "small", "small", "large")
    # seconds one round took when the benchmark was written (2-core x86_64
    # VM, one BLAS thread); it only converts --seconds into a round count
    nominal_round_s = 1.0

    def generate(self, rng: np.random.Generator, tier: str, d: Path, slot: int) -> dict:
        raise NotImplementedError

    def run(self, inst: Instance, runner: Runner) -> None:
        raise NotImplementedError

    def check(self, inst: Instance) -> list[str]:
        raise NotImplementedError

    def corrupt(self, inst: Instance) -> None:
        """Damage one written output of a copied instance (self-test)."""
        raise NotImplementedError


# -- encode -> taper ------------------------------------------------------------


class EncodeTaper(Workload):
    name = "encode_taper"
    nominal_round_s = 7.5
    modes = {"small": 8, "medium": 12, "large": 16}
    maps = ("jw", "parity", "bintree")

    def generate(self, rng, tier, d, slot):
        m = self.modes[tier]
        h = spin_conserving_hamiltonian(m, m // 2, rng, interaction_pairs=m * m // 2)
        _write(d / "h.json", h.to_json())
        return {"modes": m, "map": self.maps[slot % len(self.maps)]}

    def run(self, inst, runner):
        d = inst.directory
        if runner.call(inst, "encode", ["encode", "--input", str(d / "h.json"),
                                        "--map", inst.params["map"],
                                        "--output", str(d / "q.txt")]):
            return
        argv = ["taper", "--input", str(d / "q.txt"), "--output", str(d / "t.txt"),
                "--report", str(d / "r.json")]
        if inst.tier == "large":  # 14 qubits stay: too many to enumerate sectors
            argv += ["--sector", "++"]
        runner.call(inst, "taper", argv)

    def check(self, inst):
        d, m = inst.directory, inst.params["modes"]
        for key in ("encode", "taper"):
            if inst.outputs.get(key, (None,))[0] != 0:
                return [f"{key} exit code {inst.outputs.get(key, (None,))[0]}"]
        fails = []
        hq = hamiltonian_from_text(_read(d / "q.txt"))
        report = json.loads(_read(d / "r.json"))
        tapered = hamiltonian_from_text(_read(d / "t.txt"))
        gens = [PauliOperator.from_label(label) for label in report["generators"]]
        if hq.qubit_count != m:
            fails.append(f"encoded {hq.qubit_count} qubits, want {m}")
        if len(gens) != 2:
            fails.append(f"{len(gens)} symmetry generators, want 2 (spin parities)")
        if any(not commutes(g, op) for g in gens for _, op in hq.terms):
            fails.append("a reported generator does not commute with the Hamiltonian")
        if not report["qubits_after"] == tapered.qubit_count == m - len(gens):
            fails.append(f"tapered output has {tapered.qubit_count} qubits, "
                         f"report says {report['qubits_after']}")
        plan = build_plan(find_symmetries(hq), hq)
        transformed = clifford_transform(hq, plan)
        if list(plan.paired_qubits) != report["paired_qubits"]:
            fails.append("paired qubits differ from the report")
        if len(transformed) != len(hq):
            fails.append(f"transform changed the term count {len(hq)} -> {len(transformed)}")
        if any(op.letter_at(q) not in "IX" for _, op in transformed.terms
               for q in plan.paired_qubits):
            fails.append("a paired qubit carries Y or Z after the transform")
        if inst.tier != "small" or fails:  # dense checks only where they are cheap
            return fails
        energies = report["sector_energies"]
        best = float(np.linalg.eigvalsh(tapered.dense())[0])
        if len(energies) != 4 or abs(best - energies[report["best_sector"]]) > ATOL \
                or abs(best - min(energies.values())) > ATOL:
            fails.append("written sector is not the reported lowest sector")
        h = FermionHamiltonian.from_json(_read(d / "h.json"))
        fock = np.linalg.eigvalsh(dense_fock_matrix(h))
        if abs(min(energies.values()) - fock[0]) > ATOL:
            fails.append("lowest sector energy differs from the Fock ground energy")
        union = np.sort(np.concatenate([
            np.linalg.eigvalsh(taper(transformed, plan, s).dense())
            for s in all_sectors(plan.size)]))
        if union.shape != fock.shape or np.abs(union - fock).max() > ATOL:
            fails.append("union of sector spectra differs from the Fock spectrum")
        return fails

    def corrupt(self, inst):
        path = inst.directory / "r.json"
        report = json.loads(_read(path))
        report["sector_energies"] = {k: v + 1e-3 for k, v in report["sector_energies"].items()}
        _write(path, json.dumps(report))


# -- codesim ----------------------------------------------------------------------


class Codesim(Workload):
    name = "codesim"
    nominal_round_s = 6.4
    qubits = {"small": 8, "medium": 10}

    def generate(self, rng, tier, d, slot):
        if tier == "large":
            graph = cycle_chord_graph(8, 2)  # the Fig-3 code: Q=12, M=16
        else:
            graph = greedy_high_girth(self.qubits[tier], 2, trials=50, seed=_seed_int(rng))
        save_graph(graph, str(d / "g.graph"))
        # save_graph relabels the left side first; columns follow the file
        matrix = load_graph(str(d / "g.graph")).incidence_matrix()
        _write_pcm(d / "g.pcm", matrix)
        h = banded_hamiltonian(matrix.shape[1], 2, rng)
        _write(d / "h.json", h.to_json())
        return {"matrix": matrix}

    def run(self, inst, runner):
        d = inst.directory
        codes = [("graph", "--graph", "g.graph")]
        if inst.tier == "medium":  # the same matrix without its bipartition
            codes.append(("check", "--check", "g.pcm"))
        for key, flag, name in codes:
            runner.call(inst, key, ["codesim", flag, str(d / name), "--input",
                                    str(d / "h.json"), "--output", str(d / f"o_{key}.json")])

    def check(self, inst):
        d = inst.directory
        h = FermionHamiltonian.from_json(_read(d / "h.json"))
        want = sector_matrix_direct(h)
        fails = []
        for key in ("graph", "check") if inst.tier == "medium" else ("graph",):
            rc = inst.outputs.get(key, (None,))[0]
            if rc != 0:
                fails.append(f"codesim --{key} exit code {rc}")
                continue
            payload = json.loads(_read(d / f"o_{key}.json"))
            block, leak = framed_block(payload, inst.params["matrix"], h.particles)
            if leak > ATOL:
                fails.append(f"codesim --{key} leaks {leak:.3g} out of the codespace")
            if block.shape != want.shape or np.abs(block - want).max() > ATOL:
                fails.append(f"codesim --{key} block differs from the sector matrix")
        return fails

    def corrupt(self, inst):
        path = inst.directory / "o_graph.json"
        payload = json.loads(_read(path))
        payload["terms"][0]["weight"] *= 1.5
        _write(path, json.dumps(payload))


def framed_block(payload: dict, matrix: np.ndarray, n: int):
    """Rebuild sum-of-frames on encoded states from codesim's JSON.

    Returns the block on the codespace (columns in ``weight_n_states``
    order) and the largest amplitude the sum sends outside it.
    """
    q, m = matrix.shape
    codes = [_bits_index(_syndrome(matrix, st.occ)) for st in weight_n_states(m, n)]
    where = {c: i for i, c in enumerate(codes)}
    block = np.zeros((len(codes), len(codes)), dtype=complex)
    outside: dict[tuple[int, int], complex] = {}
    if payload["qubits"] != q:
        return block, float("inf")
    for term in payload["terms"]:
        op = PauliOperator.from_label(term["frame"])
        flip, zmask = _bits_index(op.x), _bits_index(op.z)
        phase = (1, 1j, -1, -1j)[op.phase_power]
        rest = [qb for qb in range(1, q + 1) if qb not in set(term["flip_qubits"])]
        diag = term["diagonal"]
        if sorted(term["flip_qubits"]) != [i + 1 for i, b in enumerate(op.x) if b] \
                or len(diag) != 1 << len(rest):
            return block, float("inf")
        for col, s in enumerate(codes):
            r = 0
            for qb in rest:
                r = (r << 1) | ((s >> (q - qb)) & 1)
            amp = term["weight"] * diag[r] * phase * (-1) ** bin(s & zmask).count("1")
            if amp == 0:
                continue
            row = where.get(s ^ flip)
            if row is None:
                outside[(s ^ flip, col)] = outside.get((s ^ flip, col), 0) + amp
            else:
                block[row, col] += amp
    return block, max((abs(v) for v in outside.values()), default=0.0)


# -- graphgen -> decode -----------------------------------------------------------


class GraphgenDecode(Workload):
    name = "graphgen_decode"
    nominal_round_s = 5.9
    round = ("small", "small", "medium", "small", "large")
    # qubits, particles, graphgen trials, batch syndromes (half planted)
    sizes = {"small": (24, 3, 200, 64), "medium": (48, 4, 30, 64), "large": (96, 6, 4, 8)}

    def generate(self, rng, tier, d, slot):
        q, n, trials, batch = self.sizes[tier]
        # one extra planted and random syndrome for the CLI decode calls
        plan = {"graph_seed": _seed_int(rng), **syndrome_plan(rng, q, batch // 2 + 1)}
        _write(d / "syndromes.json", json.dumps(plan))
        return {"q": q, "n": n, "trials": trials, **plan}

    def run(self, inst, runner):
        d, p = inst.directory, inst.params
        q, n = p["q"], p["n"]
        if runner.call(inst, "graphgen", ["graphgen", "--qubits", str(q), "--particles", str(n),
                                          "--trials", str(p["trials"]), "--seed",
                                          str(p["graph_seed"]), "--out", str(d / "g.graph")]):
            return
        # untimed: syndromes depend on the generated graph
        matrix = load_graph(str(d / "g.graph")).incidence_matrix()
        m = matrix.shape[1]
        cases = []
        for keys in p["planted_keys"]:
            x = planted_vector(keys, m, n)
            cases.append((_syndrome(matrix, x), x))
        cases += [(np.asarray(s, dtype=np.uint8), None) for s in p["random"]]
        cli_cases = [cases.pop(0), cases.pop()]  # one planted, one random
        inst.outputs.update(matrix=matrix, cases=cases, cli_cases=cli_cases)
        _write_pcm(d / "g.pcm", matrix)

        def decode_batch():  # module attribute lookups, so a tracer sees the calls
            enc = codeword.CodeEncoding.from_graph(graphs.load_graph(str(d / "g.graph")), n)
            out = []
            for s, _ in cases:
                hit = enc.decode(s)
                out.append(None if hit is None else np.array(hit.occ, dtype=np.uint8))
            return out

        inst.outputs["batch"] = runner.step(inst, "bench.decode_batch", decode_batch)
        for k, (s, _) in enumerate(cli_cases):
            runner.call(inst, f"decode{k}", ["decode", "--check", str(d / "g.pcm"),
                                             "--particles", str(n), "--syndrome",
                                             "".join(str(int(b)) for b in s)])

    def check(self, inst):
        n = inst.params["n"]
        rc = inst.outputs.get("graphgen", (None,))[0]
        if rc != 0:
            return [f"graphgen exit code {rc}"]
        graph = load_graph(str(inst.directory / "g.graph"))
        matrix = inst.outputs["matrix"]
        if graph.vertex_count != inst.params["q"] or girth(graph) < 2 * n + 2:
            return ["generated graph has the wrong size or girth"]
        answers = list(zip(inst.outputs["cases"], inst.outputs["batch"]))
        for k, case in enumerate(inst.outputs["cli_cases"]):
            rc, out = inst.outputs.get(f"decode{k}", (None, ""))
            if rc == 0:
                answers.append((case, np.array([int(c) for c in out.strip()], dtype=np.uint8)))
            elif rc == 1:
                answers.append((case, None))
            else:
                return [f"decode exit code {rc}"]
        fails = []
        for (s, planted), got in answers:
            if got is not None:
                if got.shape != (matrix.shape[1],) or int(got.sum()) != n \
                        or not np.array_equal(_syndrome(matrix, got), s):
                    fails.append("a preimage has the wrong weight or syndrome")
                elif planted is not None and not np.array_equal(got, planted):
                    fails.append("a planted vector decoded to another vector")
            elif planted is not None:
                fails.append("a planted syndrome was reported as having no preimage")
            elif graph_decode(graph, s, n) is not None:
                fails.append("'no preimage' contradicts the matching decoder")
        return fails

    def corrupt(self, inst):
        rc, out = inst.outputs["decode0"]
        flipped = "1" if out.strip()[0] == "0" else "0"
        inst.outputs["decode0"] = (rc, flipped + out.strip()[1:])


# -- first quantization ------------------------------------------------------------


class Firstq(Workload):
    name = "firstq"
    nominal_round_s = 4.2
    sizes = {"small": (4, 3), "medium": (8, 3), "large": (8, 4)}

    def generate(self, rng, tier, d, slot):
        m, n = self.sizes[tier]
        _write(d / "h.json", register_hamiltonian(m, n, rng).to_json())
        return {}

    def run(self, inst, runner):
        d = inst.directory
        runner.call(inst, "firstq", ["firstq", "--input", str(d / "h.json"),
                                     "--emit-bins", str(d / "b.json")])

    def check(self, inst):
        rc = inst.outputs.get("firstq", (None,))[0]
        if rc != 0:
            return [f"firstq exit code {rc}"]
        d = inst.directory
        h = FermionHamiltonian.from_json(_read(d / "h.json"))
        enc = RegisterEncoding(h.modes, h.particles)
        want = {op.label: c for c, op in
                first_quantized_parts(h, enc).total(default_penalty_scale(h)).terms}
        payload = json.loads(_read(d / "b.json"))
        bits = payload["register_bits"]
        fails = []
        if len(payload["groups"]) > 9 ** bits:
            fails.append(f"{len(payload['groups'])} groups exceed 9^m = {9 ** bits}")
        seen = set()
        for group in payload["groups"]:
            row = group["basis"]
            for term in group["terms"]:
                label = term["pauli"]
                if label in seen or label not in want:
                    fails.append(f"term {label} is duplicated or unexpected")
                    return fails
                seen.add(label)
                if abs(complex(term["re"], term["im"]) - want[label]) > ATOL:
                    fails.append(f"term {label} has the wrong coefficient")
                for q, letter in enumerate(label, start=0):
                    reg, pos = divmod(q, bits)
                    if letter != "I" and (reg >= len(row) or row[reg][pos] != letter):
                        fails.append(f"group row does not diagonalize {label}")
                        return fails
        if seen != set(want):
            fails.append(f"{len(set(want) - seen)} terms are in no group")
        return fails

    def corrupt(self, inst):
        path = inst.directory / "b.json"
        payload = json.loads(_read(path))
        payload["groups"][0]["terms"].pop()
        _write(path, json.dumps(payload))


WORKLOADS = {w.name: w for w in (EncodeTaper(), Codesim(), GraphgenDecode(), Firstq())}


def copy_instance(inst: Instance, directory: Path) -> Instance:
    """Copy of an instance whose outputs live in a fresh directory."""
    shutil.copytree(inst.directory, directory)
    return Instance(inst.ident, inst.tier, directory, inst.params, inst.seconds,
                    dict(inst.outputs))
