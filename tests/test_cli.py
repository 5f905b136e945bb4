import dataclasses
import itertools
import json
import os
import subprocess
import sys
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

from fertaper import limits
from fertaper.cli import build_parser, main
from fertaper.codeword import CodeEncoding, FramedDiagonal
from fertaper.fermion import FermionHamiltonian, dense_fock_matrix, sector_matrix_direct
from fertaper.graphs import (
    GraphDecoder,
    cycle_chord_graph,
    girth,
    greedy_high_girth,
    save_graph,
)
from fertaper.mitm import InjectivityViolation
from fertaper.pauli import PauliOperator, QubitHamiltonian, commutes, hamiltonian_from_text
from fertaper.tapering import (
    build_plan,
    clifford_transform,
    find_symmetries,
    sector_energies,
    taper,
)
from tests.conftest import grown_weight3_code, minimal_basis_hydrogen, syndrome
from tests.oracles import apply_frames_to_isometry, brute_force_decode, isometry, matrix
from tests.test_tapering import all_block_sector_spectra


@pytest.fixture
def h2_json(tmp_path):
    path = tmp_path / "h2.json"
    path.write_text(minimal_basis_hydrogen().to_json())
    return str(path)


@pytest.fixture
def subcode_json(tmp_path):
    from fertaper.fermion import random_hamiltonian

    rng = np.random.default_rng(5)
    h = random_hamiltonian(6, 2, rng)
    path = tmp_path / "h6.json"
    path.write_text(h.to_json())
    return str(path)


def number_chain(size: int, rng) -> list[tuple[float, str]]:
    """(coefficient, label) terms of a particle-conserving chain on size qubits.

    Z and ZZ energies plus XX + YY hops between neighbours: the chain's
    parity is its one symmetry.
    """
    def label(letters: dict[int, str]) -> str:
        return "".join(letters.get(q, "I") for q in range(size))

    terms = [(rng.normal(), label({q: "Z"})) for q in range(size)]
    for q in range(size - 1):
        hop = rng.normal()
        terms += [(hop, label({q: "X", q + 1: "X"})), (hop, label({q: "Y", q + 1: "Y"})),
                  (rng.normal(), label({q: "Z", q + 1: "Z"}))]
    return terms


def open_shell_hubbard() -> FermionHamiltonian:
    """Three spatial orbitals, spins interleaved, whose lowest Fock state has three electrons."""
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(3, 3)) / 4
    spatial = (raw + raw.T) / 2 - 0.5 * np.eye(3)
    t = np.zeros((6, 6))
    t[0::2, 0::2] = t[1::2, 1::2] = spatial
    u = {(2 * i + 1, 2 * i + 2, 2 * i + 2, 2 * i + 1): 0.9 for i in range(3)}
    return FermionHamiltonian(6, 3, t, u)


class TestEncodeTaper:
    def test_encode_then_taper(self, tmp_path, h2_json, capsys):
        encoded = tmp_path / "h2_qubit.txt"
        assert main(["encode", "--input", h2_json, "--map", "jw",
                     "--output", str(encoded)]) == 0
        h = hamiltonian_from_text(encoded.read_text())
        assert h.qubit_count == 4
        assert len(h) == 15  # 14 operators plus identity

        tapered = tmp_path / "tapered.txt"
        report = tmp_path / "report.json"
        assert main(["taper", "--input", str(encoded),
                     "--output", str(tapered), "--report", str(report)]) == 0
        reduced = hamiltonian_from_text(tapered.read_text())
        assert reduced.qubit_count == 1
        data = json.loads(report.read_text())
        assert data["qubits_before"] == 4 and data["qubits_after"] == 1
        assert sorted(data["generators"]) == ["ZIIZ", "ZIZI", "ZZII"]
        # best sector reproduces the untapered ground energy
        full = np.linalg.eigvalsh(h.dense())[0]
        assert min(data["sector_energies"].values()) == pytest.approx(full, abs=1e-9)

    def test_fixed_sector(self, tmp_path, h2_json):
        encoded = tmp_path / "q.txt"
        main(["encode", "--input", h2_json, "--map", "parity", "--output", str(encoded)])
        out = tmp_path / "t.txt"
        assert main(["taper", "--input", str(encoded), "--sector=-++",
                     "--output", str(out)]) == 0
        assert hamiltonian_from_text(out.read_text()).qubit_count == 1

    @pytest.mark.parametrize("mapping", ["jw", "parity", "bintree"])
    def test_all_maps(self, tmp_path, h2_json, mapping):
        out = tmp_path / "enc.txt"
        assert main(["encode", "--input", h2_json, "--map", mapping,
                     "--output", str(out)]) == 0

    def test_non_hermitian_input_is_an_error_line(self, tmp_path, capsys):
        # ZZ carries the imaginary coefficient 1j, so no sector has real energies
        pauli = tmp_path / "nh.txt"
        pauli.write_text("# qubits 2\n0 1 ZZ\n1 0 ZI\n")
        report = tmp_path / "r.json"
        rc = main(["taper", "--input", str(pauli), "--output", str(tmp_path / "t.txt"),
                   "--report", str(report)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not Hermitian" in err and "ZZ" in err
        assert not report.exists()

    def test_non_hermitian_error_names_the_first_worst_term(self, tmp_path, monkeypatch, capsys):
        # ZZ and XI tie on |im|; the first in canonical (x, z) order is named, with the
        # coefficient as Python spells a complex, and no other term is spelled
        monkeypatch.setattr(QubitHamiltonian, "terms", property(lambda h: pytest.fail(".terms")))
        monkeypatch.chdir(tmp_path)
        Path("nh.txt").write_text("# qubits 2\n0.5 1 ZZ\n1 0 ZI\n-0.25 -1 XI\n")
        assert main(["taper", "--input", "nh.txt", "--output", "t.txt"]) == 2
        assert capsys.readouterr().err == (
            "error: nh.txt: Hamiltonian is not Hermitian (term ZZ has coefficient (0.5+1j)); "
            "sector energies would be meaningless\n")
        assert not Path("t.txt").exists()

    @pytest.mark.parametrize("line", ["nan 0 ZZ", "1  nan ZZ", "-inf 0 ZZ", "1 1e400 ZZ"])
    def test_non_finite_coefficient_names_its_line(self, tmp_path, capsys, line):
        # read as written, before any phase is folded in: NaN times the zero
        # imaginary part would otherwise report an imaginary NaN
        pauli = tmp_path / "in.txt"
        pauli.write_text(f"1 0 XX\n{line}\n")
        out = tmp_path / "out.txt"
        assert main(["taper", "--input", str(pauli), "--output", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: Hamiltonian line {line!r} has a coefficient that is not finite\n"
        assert not out.exists()

    def test_overflowing_coefficient_sum_is_an_error_line(self, tmp_path, capsys):
        pauli = tmp_path / "in.txt"
        pauli.write_text("1e308 0 ZZ\n1e308 0 ZZ\n")
        out = tmp_path / "out.txt"
        assert main(["taper", "--input", str(pauli), "--output", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: the coefficient of 'ZZ' sums to (inf+0j), which is not finite\n"
        assert not out.exists()

    def test_overflowing_tapered_sum_is_an_error_line(self, tmp_path, capsys):
        # both terms taper to the identity on no qubits, in every sector
        pauli = tmp_path / "in.txt"
        pauli.write_text("1e308 0 ZI\n1e308 0 ZZ\n")
        out = tmp_path / "out.txt"
        assert main(["taper", "--input", str(pauli), "--output", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: in sector ++ the coefficient of '' sums to (inf+0j), which is not finite\n"
        assert not out.exists()

    def test_overflowing_encoded_coefficient_is_an_error_line(self, tmp_path, capsys):
        # three occupation numbers of 1.5e308 put 2.25e308 on the identity
        source = tmp_path / "big.json"
        source.write_text(json.dumps({"modes": 4, "particles": 2, "u": [],
                                      "t": [[k, k, 1.5e308, 0.0] for k in (1, 2, 3)]}))
        out = tmp_path / "out.txt"
        assert main(["encode", "--input", str(source), "--map", "jw",
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: the coefficient of 'IIII' sums to (inf+0j), which is not finite\n"
        assert not out.exists()

    def test_empty_sector_is_a_sector(self, tmp_path, capsys):
        # "" names the sector of a plan with no generators; with two it is too short
        pauli = tmp_path / "in.txt"
        out = tmp_path / "out.txt"
        pauli.write_text("1 0 ZZ\n0.5 0 ZI\n")
        assert main(["taper", "--input", str(pauli), "--sector=", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: sector needs 2 entries\n"
        assert not out.exists()
        pauli.write_text("1 0 X\n0.5 0 Z\n")
        report = tmp_path / "report.json"
        assert main(["taper", "--input", str(pauli), "--sector=", "--output", str(out),
                     "--report", str(report)]) == 0
        assert capsys.readouterr().out == "tapered 1 -> 1 qubits (0 symmetries), sector \n"
        data = json.loads(report.read_text())
        assert data["config"]["sector"] == "" and list(data["sector_energies"]) == [""]

    def test_missing_modes_key_is_an_error_line(self, tmp_path, capsys):
        source = tmp_path / "h.json"
        source.write_text(json.dumps({"particles": 1, "t": [[1, 1, 1.0, 0.0]]}))
        rc = main(["encode", "--input", str(source), "--map", "jw",
                   "--output", str(tmp_path / "q.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'modes'" in err

    @pytest.mark.parametrize("modes", [limits.MODE_CAP + 1, 100_000, 10 ** 29])
    def test_too_many_modes_is_an_error_line_before_any_allocation(self, tmp_path, capsys,
                                                                   modes):
        source = tmp_path / "h.json"
        source.write_text(json.dumps({"modes": modes, "particles": 1}))
        out = tmp_path / "q.txt"
        rc = main(["encode", "--input", str(source), "--map", "jw", "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: Hamiltonian JSON 'modes' is {modes}, over the cap of "
                       f"{limits.MODE_CAP} modes\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"modes": 2, "particles": 1, "t": [[0, 1, 0.5, 0], [1, 0, 0.5, 0]]}',
        '{"modes": 2, "particles": 1, "t": [[5, 1, 0.5, 0]]}',
        '{"modes": 2, "particles": 1, "t": [[1, 2, "a", 0]]}',
        '{"modes": 2, "particles": 1, "u": [[1, 2, 2, 1, "a", 0]]}',
        '{"modes": 2, "particles": 1, "t": 5}',
        '{"modes": 2.7, "particles": 1}',
        '{"modes": 2, "particles": 1, "t": [[1.9, 1, 0.5, 0]]}',
    ], ids=["index-zero", "index-past-modes", "t-string", "u-string", "t-not-a-list",
            "float-modes", "float-index"])
    def test_malformed_json_is_an_error_line(self, tmp_path, capsys, text):
        source = tmp_path / "h.json"
        source.write_text(text)
        out = tmp_path / "q.txt"
        rc = main(["encode", "--input", str(source), "--map", "jw", "--output", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Hamiltonian JSON") and captured.out == ""
        assert not out.exists()


def forbid_indented_json(monkeypatch):
    """Make json.dump and json.dumps fail when asked to indent."""
    for name in ("dump", "dumps"):
        def call(*args, real=getattr(json, name), **kwargs):
            assert kwargs.get("indent") is None, "indented stdlib JSON on the hot path"
            return real(*args, **kwargs)
        monkeypatch.setattr(json, name, call)


def encode_and_taper(tmp_path, h_json):
    """CLI encode (Jordan-Wigner) then taper; returns the encoded, tapered and report paths."""
    encoded, tapered, report = (tmp_path / name for name in ("q.txt", "t.txt", "r.json"))
    assert main(["encode", "--input", h_json, "--map", "jw", "--output", str(encoded)]) == 0
    assert main(["taper", "--input", str(encoded), "--output", str(tapered),
                 "--report", str(report)]) == 0
    return encoded, tapered, report


class TestTaperReport:
    def test_h2_report(self, tmp_path, h2_json):
        encoded, _, report = encode_and_taper(tmp_path, h2_json)
        data = json.loads(report.read_text())
        assert data["qubits_before"] == 4
        assert data["qubits_after"] == 1
        assert sorted(data["generators"]) == ["ZIIZ", "ZIZI", "ZZII"]
        assert all(check["passed"] for check in data["checks"])
        assert len(data["sector_energies"]) == 8
        # dense oracles: the transform is isospectral, the sectors together
        # hold the whole spectrum, and the lowest sector is the global
        # (Fock-space, not N-particle) ground energy
        q = hamiltonian_from_text(encoded.read_text())
        plan = build_plan(find_symmetries(q), q)
        transformed = clifford_transform(q, plan)
        full = np.sort(np.linalg.eigvalsh(q.dense()))
        assert np.allclose(np.sort(np.linalg.eigvalsh(transformed.dense())), full, atol=1e-9)
        union = np.sort(np.concatenate(list(
            all_block_sector_spectra(q, plan, transformed).values())))
        assert np.allclose(union, full, atol=1e-9)
        want = np.linalg.eigvalsh(dense_fock_matrix(minimal_basis_hydrogen()))[0]
        assert abs(min(data["sector_energies"].values()) - want) < 1e-9

    def test_sector_signs_are_the_report_generators_eigenvalues(self, tmp_path):
        # generator i of the report has eigenvalue sign i on the sector's
        # states: the tapered spectrum is H on that joint eigenspace
        from tests.test_output_digests import spin_conserving

        h_json = tmp_path / "h.json"
        h_json.write_text(spin_conserving(0).to_json())
        encoded, tapered, report = (tmp_path / name for name in ("q.txt", "t.txt", "r.json"))
        assert main(["encode", "--input", str(h_json), "--map", "jw",
                     "--output", str(encoded)]) == 0
        assert main(["taper", "--input", str(encoded), "--sector=+-",
                     "--output", str(tapered), "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        q = hamiltonian_from_text(encoded.read_text())
        assert data["generators"] == [g.label for g in
                                      build_plan(find_symmetries(q), q).generators]
        projector = np.eye(1 << q.qubit_count)
        for label, sign in zip(data["generators"], (1, -1)):
            projector = projector @ (np.eye(len(projector))
                                     + sign * PauliOperator.from_label(label).dense()) / 2
        values, vectors = np.linalg.eigh(projector)
        space = vectors[:, values > 0.5]
        want = np.linalg.eigvalsh(space.conj().T @ q.dense() @ space)
        got = np.linalg.eigvalsh(hamiltonian_from_text(tapered.read_text()).dense())
        assert np.allclose(got, want, atol=1e-9)
        assert data["sector_energies"]["+-"] == pytest.approx(want[0], abs=1e-9)

    def test_byte_identical_reports(self, tmp_path, h2_json):
        # same paths both times: the report records its input path
        runs = []
        for _ in range(2):
            _, tapered, report = encode_and_taper(tmp_path, h2_json)
            runs.append((tapered.read_bytes(), report.read_bytes()))
        assert runs[0] == runs[1]

    def test_empty_hamiltonian_tapers_every_qubit(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(FermionHamiltonian(3, 1, np.zeros((3, 3))).to_json())
        encoded, tapered, report = encode_and_taper(tmp_path, str(path))
        assert encoded.read_text() == "# qubits 3\n"
        data = json.loads(report.read_text())
        # the whole single-letter group survives, one symmetry per qubit
        assert len(data["generators"]) == 3
        assert data["qubits_after"] == 0
        assert set(data["sector_energies"].values()) == {0.0}
        assert hamiltonian_from_text(tapered.read_text()).qubit_count == 0

    def test_fixed_sector_past_the_cap_names_the_written_sector(self, tmp_path, capsys):
        # transverse-field Ising chain on 14 qubits: the one symmetry is
        # X...X, so 13 qubits remain, too many to diagonalize the sectors
        n = 14
        lines = [f"# qubits {n}"]
        lines += ["1 0 " + "I" * q + "ZZ" + "I" * (n - q - 2) for q in range(n - 1)]
        lines += ["0.5 0 " + "I" * q + "X" + "I" * (n - q - 1) for q in range(n)]
        pauli = tmp_path / "ising.txt"
        pauli.write_text("\n".join(lines) + "\n")
        tapered, report = tmp_path / "t.txt", tmp_path / "r.json"
        assert main(["taper", "--input", str(pauli), "--sector=-",
                     "--output", str(tapered), "--report", str(report)]) == 0
        assert capsys.readouterr().out == "tapered 14 -> 13 qubits (1 symmetries), sector -\n"
        q = hamiltonian_from_text(pauli.read_text())
        plan = build_plan(find_symmetries(q), q)
        assert hamiltonian_from_text(tapered.read_text()) == \
            taper(clifford_transform(q, plan), plan, (-1,))
        # the report keeps its pinned fields: nothing was diagonalized
        data = json.loads(report.read_text())
        assert data["best_sector"] is None and data["sector_energies"] == {}

    def test_past_the_qubit_cap_is_an_error_line(self, tmp_path, capsys):
        # the X...X symmetry of the Ising chain leaves 13 qubits, past the cap of 12
        n = 14
        lines = [f"# qubits {n}"]
        lines += ["1 0 " + "I" * q + "ZZ" + "I" * (n - q - 2) for q in range(n - 1)]
        lines += ["0.5 0 " + "I" * q + "X" + "I" * (n - q - 1) for q in range(n)]
        pauli = tmp_path / "ising.txt"
        pauli.write_text("\n".join(lines) + "\n")
        assert main(["taper", "--input", str(pauli), "--output", str(tmp_path / "t.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "13 qubits remain; enumeration is capped at 12" in err

    def test_generators_commute_check(self, tmp_path, h2_json):
        encoded, _, report = encode_and_taper(tmp_path, h2_json)
        data = json.loads(report.read_text())
        assert {"name": "generators_commute", "passed": True} in data["checks"]
        q = hamiltonian_from_text(encoded.read_text())
        gens = [PauliOperator.from_label(label) for label in data["generators"]]
        assert all(commutes(g, op) for g in gens for _, op in q.terms)

    def test_failed_check_exits_one_with_outputs_written(self, tmp_path, h2_json, monkeypatch):
        from fertaper import cli

        # the plan reports a generator that anticommutes with the input's ZIII
        # term; every later stage still gets the real plan
        real = {}

        def broken_plan(group, h=None):
            plan = build_plan(group, h)
            bad = dataclasses.replace(
                plan, generators=(PauliOperator.from_label("XIII"),) + plan.generators[1:])
            real[id(bad)] = plan
            return bad

        monkeypatch.setattr(cli, "build_plan", broken_plan)
        for name in ("clifford_transform", "sector_energies", "taper"):
            stage = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, stage=stage: stage(
                *(real.get(id(a), a) for a in args)))
        encoded, tapered, report = (tmp_path / name for name in ("q.txt", "t.txt", "r.json"))
        assert main(["encode", "--input", h2_json, "--map", "jw", "--output", str(encoded)]) == 0
        assert main(["taper", "--input", str(encoded), "--output", str(tapered),
                     "--report", str(report)]) == 1
        data = json.loads(report.read_text())
        assert {"name": "generators_commute", "passed": False} in data["checks"]
        assert data["generators"][0] == "XIII" and data["best_sector"]
        assert hamiltonian_from_text(tapered.read_text()).qubit_count == 1

    def test_failed_check_past_64_qubits(self, tmp_path, monkeypatch):
        from fertaper import cli

        # each Z_q and X_q X_q+1 on 66 qubits: the one symmetry is Z on every qubit,
        # and the reported X_1 anticommutes with the Z_1 term (object masks)
        n = 66
        lines = [f"# qubits {n}"]
        lines += [f"0.5 0 {'I' * (q - 1)}Z{'I' * (n - q)}" for q in range(1, n + 1)]
        lines += [f"0.25 0 {'I' * (q - 1)}XX{'I' * (n - q - 1)}" for q in range(1, n)]
        wide = tmp_path / "wide.txt"
        wide.write_text("\n".join(lines) + "\n")
        real = {}

        def broken_plan(group, h=None):
            plan = build_plan(group, h)
            assert plan.generators == (PauliOperator.from_label("Z" * n),)
            bad = dataclasses.replace(plan, generators=(PauliOperator.single(n, 1, "X"),))
            real[id(bad)] = plan
            return bad

        monkeypatch.setattr(cli, "build_plan", broken_plan)
        for name in ("clifford_transform", "taper"):
            stage = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, stage=stage: stage(
                *(real.get(id(a), a) for a in args)))
        tapered, report = tmp_path / "t.txt", tmp_path / "r.json"
        assert main(["taper", "--input", str(wide), "--output", str(tapered), "--sector", "+",
                     "--report", str(report)]) == 1
        assert {"name": "generators_commute", "passed": False} in \
            json.loads(report.read_text())["checks"]
        monkeypatch.undo()
        assert main(["taper", "--input", str(wide), "--output", str(tapered), "--sector", "+",
                     "--report", str(report)]) == 0
        assert {"name": "generators_commute", "passed": True} in \
            json.loads(report.read_text())["checks"]

    def test_enumerates_past_the_dense_cap_when_few_qubits_remain(self, tmp_path):
        # 15 input qubits, one past the dense cap; four chain parities leave 11
        sizes = (4, 4, 4, 3)
        rng = np.random.default_rng(3)
        chains = [number_chain(size, rng) for size in sizes]
        n = sum(sizes)
        assert n > limits.DENSE_QUBIT_CAP and n - len(sizes) <= limits.SECTOR_QUBIT_CAP
        lines, offset = [f"# qubits {n}"], 0
        for size, terms in zip(sizes, chains):
            lines += [f"{c} 0 {'I' * offset}{label}{'I' * (n - offset - size)}"
                      for c, label in terms]
            offset += size
        pauli, report = tmp_path / "chains.txt", tmp_path / "r.json"
        pauli.write_text("\n".join(lines) + "\n")
        assert main(["taper", "--input", str(pauli), "--output", str(tmp_path / "t.txt"),
                     "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["generators"] == ["ZZZZIIIIIIIIIII", "IIIIZZZZIIIIIII",
                                      "IIIIIIIIZZZZIII", "IIIIIIIIIIIIZZZ"]
        assert len(data["sector_energies"]) == 16
        # the chains are independent: a sector's energy is the sum over chains
        # of each one's least energy at the parity its sign fixes
        lowest = []
        for terms in chains:
            dense = hamiltonian_from_text("".join(f"{c} 0 {label}\n" for c, label in terms)).dense()
            odd = np.bitwise_count(np.arange(len(dense))) & 1
            lowest.append({sign: np.linalg.eigvalsh(dense[np.ix_(odd == bit, odd == bit)])[0]
                           for sign, bit in (("+", 0), ("-", 1))})
        for label, energy in data["sector_energies"].items():
            want = sum(chain[sign] for chain, sign in zip(lowest, label))
            assert energy == pytest.approx(want, abs=1e-10)

    def test_sector_past_the_qubit_cap_builds_no_blocks(self, tmp_path, h2_json, monkeypatch,
                                                        capsys):
        # as the benchmark's 16-qubit input with --sector: refused before any 2^k array
        import fertaper.tapering as tapering

        def no_blocks(h):
            raise AssertionError("built a sector's blocks")

        encoded, tapered, report = (tmp_path / name for name in ("q.txt", "t.txt", "r.json"))
        assert main(["encode", "--input", h2_json, "--map", "jw", "--output", str(encoded)]) == 0
        monkeypatch.setattr(tapering, "BasisBlocks", no_blocks)
        monkeypatch.setattr(limits, "SECTOR_QUBIT_CAP", 0)
        argv = ["taper", "--input", str(encoded), "--output", str(tapered),
                "--report", str(report)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1 qubits remain; enumeration is capped at 0" in err
        assert main(argv + ["--sector=+-+"]) == 0
        assert capsys.readouterr().out == "tapered 4 -> 1 qubits (3 symmetries), sector +-+\n"
        data = json.loads(report.read_text())
        assert data["best_sector"] is None and data["sector_energies"] == {}

    @pytest.mark.parametrize("n", [11, 30])
    def test_sector_count_past_the_cap_is_an_error_line(self, tmp_path, capsys, n):
        # one Z on n qubits: n symmetries and 2^n sectors, each on no qubit
        pauli, tapered = tmp_path / "z.txt", tmp_path / "t.txt"
        pauli.write_text(f"# qubits {n}\n1 0 Z{'I' * (n - 1)}\n")
        assert 1 << n > limits.SECTOR_COUNT_CAP
        assert main(["taper", "--input", str(pauli), "--output", str(tapered)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not tapered.exists()
        assert captured.err == (f"error: {n} symmetries give 2^{n} sectors, over the cap of "
                                f"{limits.SECTOR_COUNT_CAP} enumerated at once; name the "
                                "sectors instead (taper --sector)\n")
        sector = "-" + "+" * (n - 1)
        assert main(["taper", "--input", str(pauli), "--output", str(tapered),
                     f"--sector={sector}"]) == 0
        assert capsys.readouterr().out == (f"tapered {n} -> 0 qubits ({n} symmetries), "
                                           f"sector {sector}\n")
        assert tapered.read_text() == "# qubits 0\n-1 0\n"

    def test_qubit_count_past_the_cap_is_an_error_line(self, tmp_path, capsys):
        # a 16-byte header would otherwise start a symmetry search over 100,000 qubits
        pauli, tapered = tmp_path / "wide.txt", tmp_path / "t.txt"
        pauli.write_text("# qubits 100000\n")
        assert main(["taper", "--input", str(pauli), "--output", str(tapered)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not tapered.exists()
        assert captured.err == ("error: Pauli file has 100000 qubits, over the cap of "
                                f"{limits.MODE_CAP}\n")

    @pytest.mark.parametrize("mapping", ["jw", "parity"])
    def test_open_shell_best_sector_is_the_first_at_the_minimum(self, tmp_path, mapping):
        # three electrons: the two spin-flipped ground states have one energy
        # in two sectors, whose last bits may differ
        h_json = tmp_path / "h.json"
        h_json.write_text(open_shell_hubbard().to_json())
        encoded, tapered, report = (tmp_path / name for name in ("q.txt", "t.txt", "r.json"))
        assert main(["encode", "--input", str(h_json), "--map", mapping,
                     "--output", str(encoded)]) == 0
        assert main(["taper", "--input", str(encoded), "--output", str(tapered),
                     "--report", str(report)]) == 0
        energies = json.loads(report.read_text())["sector_energies"]
        lowest = min(energies.values())
        ground = [label for label, e in energies.items() if e <= lowest + 1e-10]
        assert len(ground) == 2
        assert json.loads(report.read_text())["best_sector"] == ground[0]
        assert list(energies).index(ground[0]) < list(energies).index(ground[1])

    def test_best_sector_ignores_differences_below_the_tolerance(self, tmp_path, monkeypatch):
        # lower each later sector by 1e-13: a bare minimum would pick the last
        import fertaper.cli as cli

        def nudged(*args):
            energies = sector_energies(*args)
            return {s: e - 1e-13 * k for k, (s, e) in enumerate(energies.items())}

        monkeypatch.setattr(cli, "sector_energies", nudged)
        path = tmp_path / "h.json"
        path.write_text(FermionHamiltonian(3, 1, np.zeros((3, 3))).to_json())
        _, _, report = encode_and_taper(tmp_path, str(path))
        data = json.loads(report.read_text())
        assert len(set(data["sector_energies"].values())) == 8
        assert data["best_sector"] == "+++"

    def test_repeated_json_row_is_an_error_line(self, tmp_path, capsys):
        source = tmp_path / "h.json"
        source.write_text(json.dumps({"modes": 2, "particles": 1,
                                      "t": [[1, 1, 0.5, 0.0], [1, 1, 0.25, 0.0]]}))
        rc = main(["encode", "--input", str(source), "--map", "jw",
                   "--output", str(tmp_path / "q.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "t row [1, 1]" in err


class TestCodesim:
    def test_framed_output(self, tmp_path, subcode_json):
        a = cycle_chord_graph(8, 2).incidence_matrix()[:, :6]
        check = tmp_path / "a.pcm"
        np.savetxt(check, a, fmt="%d", header="%d %d" % a.shape, comments="")
        out = tmp_path / "framed.json"
        assert main(["codesim", "--check", str(check), "--input", subcode_json,
                     "--penalty", "2.0", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["qubits"] == 12
        assert all("frame" in t and "diagonal" in t for t in data["terms"])
        # materialized diagonals at this size
        assert all(isinstance(t["diagonal"], list) for t in data["terms"])

    def test_codeword_list_over_the_entry_budget_is_an_error_line(
            self, tmp_path, subcode_json, monkeypatch, capsys):
        a = cycle_chord_graph(8, 2).incidence_matrix()[:, :6]
        check = tmp_path / "a.pcm"
        np.savetxt(check, a, fmt="%d", header="%d %d" % a.shape, comments="")
        monkeypatch.setattr(limits, "TABLE_ENTRY_BUDGET", 14)  # C(6, 2) = 15 codewords
        out = tmp_path / "framed.json"
        assert main(["codesim", "--check", str(check), "--input", subcode_json,
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "needs 15 entries" in err
        assert not out.exists()

    def test_a_code_past_24_columns_without_a_graph(self, tmp_path):
        # 26 weight-3 columns on 14 qubits, certified by the codeword list:
        # the codespace block is the sector matrix and nothing leaks out of it
        enc = grown_weight3_code(14, 2, 26, 1)
        check = tmp_path / "a.pcm"
        np.savetxt(check, matrix(enc), fmt="%d", header="%d %d" % matrix(enc).shape, comments="")
        source = self.banded_json(tmp_path / "h.json", 26)
        out = tmp_path / "framed.json"
        assert main(["codesim", "--check", str(check), "--input", source,
                     "--output", str(out)]) == 0
        terms = json.loads(out.read_text())["terms"]
        assert len(terms) > 500 and all(isinstance(t["diagonal"], list) for t in terms)
        frames = [FramedDiagonal(PauliOperator.from_label(t["frame"]), t["diagonal"], t["weight"])
                  for t in terms]
        image = apply_frames_to_isometry(frames, enc)
        h = FermionHamiltonian.from_json(Path(source).read_text())
        assert np.allclose(isometry(enc).T @ image, sector_matrix_direct(h), atol=1e-12)
        image[enc.syndromes().astype(np.intp)] = 0  # what is left leaks out of the codespace
        assert np.abs(image).max() < 1e-12

    @staticmethod
    def banded_json(path, modes):
        t = np.zeros((modes, modes), dtype=complex)
        for a in range(modes):
            t[a, a] = 0.1 * (a % 7)
        for a in range(modes - 1):
            t[a, a + 1] = 0.5 + 0.25j
            t[a + 1, a] = 0.5 - 0.25j
        u = {(1, 2, 4, 3): 0.3, (3, 4, 2, 1): 0.3}
        path.write_text(FermionHamiltonian(modes, 2, t, u).to_json())
        return str(path)

    def test_lazy_frames_past_materialize_cap(self, tmp_path):
        import tracemalloc

        from fertaper.graphs import load_graph

        q = 28
        assert 1 << q > limits.TABLE_ENTRY_BUDGET  # the penalty diagonal alone passes it
        graph = tmp_path / "g.graph"
        assert main(["graphgen", "--qubits", str(q), "--particles", "2",
                     "--trials", "2", "--seed", "3", "--out", str(graph)]) == 0
        modes = load_graph(str(graph)).incidence_matrix().shape[1]
        h_json = self.banded_json(tmp_path / "h.json", modes)
        out = tmp_path / "framed.json"
        tracemalloc.start()
        try:
            rc = main(["codesim", "--graph", str(graph), "--input", h_json,
                       "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        # no per-syndrome array: even one byte per syndrome is 2^28 bytes
        assert peak < 1 << (q - 4)
        data = json.loads(out.read_text())
        assert data["qubits"] == q
        assert data["terms"] and all(t["diagonal"] == "lazy" for t in data["terms"])

    def test_lazy_frames_keep_the_materialized_structure(self, tmp_path, monkeypatch):
        graph = tmp_path / "g.graph"
        save_graph(cycle_chord_graph(8, 2), str(graph))
        h_json = self.banded_json(tmp_path / "h.json", 16)
        full = limits.TABLE_ENTRY_BUDGET
        runs = {}
        # 1000 entries hold Fig-3's 120 codewords but not its 111,616 diagonal entries
        for budget in (full, 1000):
            monkeypatch.setattr(limits, "TABLE_ENTRY_BUDGET", budget)
            out = tmp_path / f"framed{budget}.json"
            assert main(["codesim", "--graph", str(graph), "--input", h_json,
                         "--output", str(out)]) == 0
            runs[budget] = json.loads(out.read_text())["terms"]
        eager, lazy = runs[full], runs[1000]
        assert all(isinstance(t["diagonal"], list) for t in eager)
        assert all(t["diagonal"] == "lazy" for t in lazy)
        strip = lambda terms: [{k: v for k, v in t.items() if k != "diagonal"} for t in terms]
        assert strip(lazy) == strip(eager)

    @pytest.mark.parametrize("u", [
        [[1, 1, 1, 1, 0.5, 0.0]],
        [[1, 1, 2, 3, 0.25, 0.0], [3, 2, 1, 1, 0.25, 0.0]],
    ], ids=["self-adjoint", "paired"])
    def test_zero_operator_interaction_entries(self, tmp_path, u):
        # a'_a a'_b a_g a_d with a == b or g == d is the zero operator
        check = tmp_path / "a.pcm"
        check.write_text("4 4\n1000\n0100\n0010\n0001\n")
        source = tmp_path / "h.json"
        source.write_text(json.dumps({"modes": 4, "particles": 2,
                                      "t": [[1, 2, 0.3, 0.0], [2, 1, 0.3, 0.0]], "u": u}))
        out = tmp_path / "framed.json"
        assert main(["codesim", "--check", str(check), "--input", str(source),
                     "--output", str(out)]) == 0
        frames = [FramedDiagonal(PauliOperator.from_label(t["frame"]), t["diagonal"], t["weight"])
                  for t in json.loads(out.read_text())["terms"]]
        enc = CodeEncoding.from_matrix(np.eye(4, dtype=np.uint8), 2)
        block = isometry(enc).T @ apply_frames_to_isometry(frames, enc)
        h = FermionHamiltonian.from_json(source.read_text())
        assert np.allclose(block, sector_matrix_direct(h), atol=1e-12)

    def test_zero_columns_take_one_identity_frame(self, tmp_path):
        # an all-zero check matrix: the pair hop flips nothing, so it is one
        # identity frame whose diagonal is the sector block
        check = tmp_path / "a.pcm"
        check.write_text("1 2\n00\n")
        source = tmp_path / "h.json"
        source.write_text(json.dumps({"modes": 2, "particles": 2, "t": [],
                                      "u": [[1, 2, 1, 2, 0.5, 0.0], [2, 1, 2, 1, 0.5, 0.0]]}))
        out = tmp_path / "framed.json"
        assert main(["codesim", "--check", str(check), "--input", str(source),
                     "--output", str(out)]) == 0
        terms = json.loads(out.read_text())["terms"]
        assert {t["frame"] for t in terms} == {"I"}
        frames = [FramedDiagonal(PauliOperator.from_label(t["frame"]), t["diagonal"], t["weight"])
                  for t in terms]
        enc = CodeEncoding.from_matrix(np.zeros((1, 2), dtype=np.uint8), 2)
        block = isometry(enc).T @ apply_frames_to_isometry(frames, enc)
        h = FermionHamiltonian.from_json(source.read_text())
        assert np.allclose(block, sector_matrix_direct(h), atol=1e-12)
        assert sector_matrix_direct(h).any()

    def test_frames_build_no_pauli_operator_or_framed_diagonal(self, tmp_path, monkeypatch):
        # the frames table reaches the writer as columns: one _labels call
        # spells every frame, and no per-frame object is built
        from fertaper import cli, pauli

        calls = {"from_masks": 0, "__init__": 0, "FramedDiagonal": 0, "_labels": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        real_from_masks = PauliOperator.from_masks.__func__
        monkeypatch.setattr(PauliOperator, "from_masks",
                            classmethod(counted("from_masks", real_from_masks)))
        monkeypatch.setattr(PauliOperator, "__init__", counted("__init__", PauliOperator.__init__))
        monkeypatch.setattr(FramedDiagonal, "__post_init__",
                            counted("FramedDiagonal", FramedDiagonal.__post_init__))
        labels = counted("_labels", pauli._labels)
        monkeypatch.setattr(pauli, "_labels", labels)
        monkeypatch.setattr(cli, "_labels", labels)
        graph = tmp_path / "g.graph"
        save_graph(cycle_chord_graph(8, 2), str(graph))
        h_json = self.banded_json(tmp_path / "h.json", 16)
        out = tmp_path / "framed.json"
        assert main(["codesim", "--graph", str(graph), "--input", h_json,
                     "--output", str(out)]) == 0
        assert calls == {"from_masks": 0, "__init__": 0, "FramedDiagonal": 0, "_labels": 1}
        terms = json.loads(out.read_text())["terms"]
        assert len(terms) > 20 and any(t["frame"].startswith("-1") for t in terms)

    def test_zero_frames_write_an_empty_list(self, tmp_path):
        # only zero-operator entries and no penalty: a table of no rows, whose
        # empty buffer and flip columns split into no cells
        from fertaper.codeword import build_simulator_hamiltonian

        check = tmp_path / "a.pcm"
        check.write_text("4 4\n1000\n0100\n0010\n0001\n")
        source = tmp_path / "h.json"
        source.write_text(json.dumps({"modes": 4, "particles": 2, "t": [],
                                      "u": [[1, 1, 1, 1, 0.5, 0.0]]}))
        h = FermionHamiltonian.from_json(source.read_text())
        frames = build_simulator_hamiltonian(h, CodeEncoding.from_matrix(np.eye(4), 2), 0.0)
        assert len(frames) == 0 and list(frames) == []
        assert frames.buffer.size == 0 and frames.offsets.tolist() == [0]
        out = tmp_path / "framed.json"
        assert main(["codesim", "--check", str(check), "--input", str(source),
                     "--penalty", "0", "--output", str(out)]) == 0
        assert out.read_text() == json.dumps({"qubits": 4, "terms": []}, indent=1)

    def test_non_finite_interaction_is_an_error_line(self, tmp_path, subcode_json, capsys):
        data = json.loads(Path(subcode_json).read_text())
        key = data["u"][0][:4]
        for row in data["u"]:
            if row[:4] in (key, key[::-1]):
                row[4] = float("nan")
        source = tmp_path / "nan.json"
        source.write_text(json.dumps(data))  # json writes the NaN token; json.loads reads it
        check = tmp_path / "a.pcm"
        sub = cycle_chord_graph(8, 2).incidence_matrix()[:, :6]
        np.savetxt(check, sub, fmt="%d", header="%d %d" % sub.shape, comments="")
        out = tmp_path / "framed.json"
        assert main(["codesim", "--check", str(check), "--input", str(source),
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: interaction entry") and "not finite" in err
        assert not out.exists()

    def test_overflowing_default_penalty_is_an_error_line(self, tmp_path, capsys):
        source = tmp_path / "big.json"
        source.write_text(json.dumps({"modes": 4, "particles": 2, "u": [],
                                      "t": [[1, 1, 1e308, 0.0], [2, 2, 1e308, 0.0]]}))
        check = tmp_path / "eye.pcm"
        check.write_text("4 4\n1000\n0100\n0010\n0001\n")
        out = tmp_path / "framed.json"
        with pytest.warns(UserWarning, match="exceeds 1"):
            rc = main(["codesim", "--check", str(check), "--input", str(source),
                       "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: coefficients too large")
        assert not out.exists()

    @pytest.mark.parametrize("penalty", ["nan", "inf", "-inf", "-2"])
    def test_bad_penalty_is_an_error_line(self, tmp_path, subcode_json, capsys, penalty):
        check = tmp_path / "a.pcm"
        sub = cycle_chord_graph(8, 2).incidence_matrix()[:, :6]
        np.savetxt(check, sub, fmt="%d", header="%d %d" % sub.shape, comments="")
        out = tmp_path / "framed.json"
        assert main(["codesim", "--check", str(check), "--input", subcode_json,
                     f"--penalty={penalty}", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --penalty must be a finite number >= 0")
        assert not out.exists()

    def test_output_is_the_indented_json_of_its_content(self, tmp_path, subcode_json,
                                                        monkeypatch):
        check = tmp_path / "a.pcm"
        sub = cycle_chord_graph(8, 2).incidence_matrix()[:, :6]
        np.savetxt(check, sub, fmt="%d", header="%d %d" % sub.shape, comments="")
        out = tmp_path / "framed.json"
        forbid_indented_json(monkeypatch)
        assert main(["codesim", "--check", str(check), "--input", subcode_json,
                     "--penalty", "0", "--output", str(out)]) == 0
        monkeypatch.undo()
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=1)

    def test_empty_check_file_is_an_error_line(self, tmp_path, subcode_json, capsys):
        check = tmp_path / "empty.pcm"
        check.write_text("")
        rc = main(["codesim", "--check", str(check), "--input", subcode_json,
                   "--output", str(tmp_path / "framed.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("codes", [[], ["--check", "a.pcm", "--graph", "g.graph"]],
                             ids=["neither", "both"])
    def test_exactly_one_code_flag(self, tmp_path, subcode_json, capsys, codes):
        with pytest.raises(SystemExit) as exit_:
            main(["codesim", *codes, "--input", subcode_json,
                  "--output", str(tmp_path / "framed.json")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--check" in err and "--graph" in err


class TestGraphCommands:
    def test_graphgen(self, tmp_path):
        out = tmp_path / "g.graph"
        assert main(["graphgen", "--qubits", "10", "--particles", "2",
                     "--trials", "20", "--seed", "1", "--out", str(out)]) == 0
        from fertaper.graphs import girth, load_graph

        g = load_graph(str(out))
        assert girth(g) >= 6

    @pytest.mark.parametrize("body, message", [
        ("2\n", "line 1: the header must be"),
        ("1 1 x\n", "line 1: the header must be"),
        ("-1 2 0\n", "line 1: the header must be"),
        ("", "line 1: the header must be"),
        ("1 1 2\n1 2\n", "has 1 edge lines; its header says 2"),
        ("1 1 1\n1 5\n", "line 2: an edge must be \"u v\" with vertices in 1..2"),
        ("1 1 1\n1 x\n", "line 2: an edge must be"),
        ("2 1 1\n1 2\n", "edge 1-2 does not cross the bipartition"),
        ("20000 20000 1\n1 20001\n", "line 1: graph on 40000 vertices exceeds the cap of 2048"),
    ], ids=["one-token", "non-integer", "negative", "empty", "short", "vertex-past-q",
            "non-integer-vertex", "same-side", "vertices-past-the-cap"])
    def test_bad_graph_file_is_an_error_line(self, tmp_path, subcode_json, capsys,
                                             body, message):
        graph = tmp_path / "bad.graph"
        graph.write_text(body)
        out = tmp_path / "framed.json"
        rc = main(["codesim", "--graph", str(graph), "--input", subcode_json,
                   "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: graph file {graph}") and message in err
        assert not out.exists()

    def test_graphgen_without_trials_is_an_error_line(self, tmp_path, capsys):
        rc = main(["graphgen", "--qubits", "10", "--particles", "2", "--trials", "0",
                   "--out", str(tmp_path / "g.graph")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: need at least one trial")

    def test_graph_commands_refuse_a_vertex_count_over_the_cap(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(limits, "GRAPH_VERTEX_CAP", 9)
        out = tmp_path / "g"
        for argv in (["graphgen", "--qubits", "10", "--particles", "2", "--trials", "2"],
                     ["graphtable", "--qmax", "10", "--nmax", "2", "--trials", "2"]):
            assert main(argv + ["--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: graph on 10 vertices exceeds the cap of 9")
            assert not captured.out and not out.exists()
        assert main(["graphgen", "--qubits", "9", "--particles", "2", "--trials", "2",
                     "--out", str(out)]) == 0

    def test_graphgen_with_more_particles_than_any_path(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        assert main(["graphgen", "--qubits", "10", "--particles", "40000", "--trials", "2",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == "graph: 10 vertices, 9 edges, girth inf\n"

    def test_graphtable(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["graphtable", "--qmax", "6", "--nmax", "2",
                     "--trials", "5", "--seed", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "Q,N=1,N=2"
        assert len(lines) == 4  # Q = 4, 5, 6

    @pytest.mark.parametrize("flags, message", [
        (["--qmax", "3", "--nmax", "2"], "--qmax 3 leaves no rows"),
        (["--qmax", "-1", "--nmax", "2"], "--qmax -1 leaves no rows"),
        (["--qmax", "6", "--nmax", "0"], "--nmax 0 leaves no columns"),
        (["--qmax", "6", "--nmax", "-2"], "--nmax -2 leaves no columns"),
    ])
    def test_graphtable_without_rows_or_columns_is_an_error_line(self, tmp_path, capsys,
                                                               flags, message):
        out = tmp_path / "table.csv"
        assert main(["graphtable", *flags, "--trials", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and not captured.out
        assert not out.exists()


class TestDecodeCommand:
    def test_round_trip(self, tmp_path, capsys):
        g = cycle_chord_graph(8, 2)
        a = g.incidence_matrix()
        check = tmp_path / "a.pcm"
        np.savetxt(check, a, fmt="%d", header="%d %d" % a.shape, comments="")
        x = np.zeros(16, dtype=np.uint8)
        x[[0, 7]] = 1
        bits = "".join(str(int(b)) for b in syndrome(a, x))
        assert main(["decode", "--check", str(check), "--particles", "2",
                     "--syndrome", bits]) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert out == "".join(str(int(b)) for b in x)

    def test_no_preimage_exit_code(self, tmp_path, capsys):
        check = tmp_path / "a.pcm"
        check.write_text("4 4\n1000\n0100\n0010\n0001\n")
        assert main(["decode", "--check", str(check), "--particles", "2",
                     "--syndrome", "1000"]) == 1

    @staticmethod
    def run_decode(parser, check, n, bits, capsys):
        """One decode through the parser: (exit code, printed preimage or None)."""
        args = parser.parse_args(["decode", "--check", str(check), "--particles", str(n),
                                  "--syndrome", "".join(str(int(b)) for b in bits)])
        rc = args.func(args)
        out = capsys.readouterr().out.strip()
        return rc, (np.array([int(c) for c in out], dtype=np.uint8) if rc == 0 else None)

    def test_graph_matrix_matches_brute_force_on_every_syndrome(self, tmp_path, capsys,
                                                                monkeypatch):
        import fertaper.cli as cli

        def no_tables(*args):
            raise AssertionError("a graph incidence matrix built meet-in-the-middle tables")

        monkeypatch.setattr(cli, "build_tables", no_tables)
        a = cycle_chord_graph(8, 2).incidence_matrix()
        check = tmp_path / "fig3.pcm"
        np.savetxt(check, a, fmt="%d", header="%d %d" % a.shape, comments="")
        parser = build_parser()
        for s in range(1 << 12):
            bits = [(s >> (11 - i)) & 1 for i in range(12)]
            rc, got = self.run_decode(parser, check, 2, bits, capsys)
            want = brute_force_decode(a, 2, bits)
            assert rc == (1 if want is None else 0)
            assert want is None or np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["weight-3 columns", "girth too small"])
    def test_other_matrices_keep_the_mitm_route(self, tmp_path, capsys, monkeypatch, kind):
        def no_matching(*args):
            raise AssertionError("a non-graph matrix took the matching route")

        monkeypatch.setattr(GraphDecoder, "decode", no_matching)
        rng = np.random.default_rng(3)
        if kind == "weight-3 columns":
            a = np.zeros((10, 14), dtype=np.uint8)
            for col in range(14):
                a[rng.choice(10, size=3, replace=False), col] = 1
        else:
            g = greedy_high_girth(10, 1, trials=5, seed=2)
            assert girth(g) < 6
            a = g.incidence_matrix()
        check = tmp_path / "a.pcm"
        np.savetxt(check, a, fmt="%d", header="%d %d" % a.shape, comments="")
        parser = build_parser()
        for k in range(40):
            if k % 2:
                bits = rng.integers(0, 2, size=10).astype(np.uint8)
            else:
                x = np.zeros(a.shape[1], dtype=np.uint8)
                x[rng.choice(a.shape[1], size=2, replace=False)] = 1
                bits = syndrome(a, x)
            # every weight-2 preimage (brute_force_decode stops at 24 modes)
            found = [x for x in np.eye(a.shape[1], dtype=np.uint8)[
                list(itertools.combinations(range(a.shape[1]), 2))].sum(axis=1)
                if np.array_equal(syndrome(a, x), bits)]
            if len(found) > 1:  # never print just one of two preimages
                with pytest.raises(InjectivityViolation):
                    self.run_decode(parser, check, 2, bits, capsys)
                continue
            want = found[0] if found else None
            rc, got = self.run_decode(parser, check, 2, bits, capsys)
            assert rc == (1 if want is None else 0)
            assert want is None or np.array_equal(got, want)

    def test_incidence_matrix_past_the_vertex_cap_takes_the_mitm_route(self, tmp_path, capsys,
                                                                        monkeypatch):
        # one edge on 6,000 vertices: no 6,000 x 6,000 distance matrix is built
        def no_decoder(*args):
            raise AssertionError("built a graph decoder past the vertex cap")

        monkeypatch.setattr(GraphDecoder, "__init__", no_decoder)
        q = 6000
        assert q > limits.GRAPH_VERTEX_CAP
        check = tmp_path / "edge.pcm"
        check.write_text(f"{q} 1\n1\n1\n" + "0\n" * (q - 2))
        assert main(["decode", "--check", str(check), "--particles", "1",
                     "--syndrome", "11" + "0" * (q - 2)]) == 0
        assert capsys.readouterr().out == "1\n"
        # a Fig-3 pcm just past a lowered cap prints what matching prints under it
        monkeypatch.undo()
        a = cycle_chord_graph(8, 2).incidence_matrix()
        np.savetxt(check, a, fmt="%d", header="%d %d" % a.shape, comments="")
        x = np.zeros(16, dtype=np.uint8)
        x[[0, 7]] = 1
        argv = ["decode", "--check", str(check), "--particles", "2",
                "--syndrome", "".join(str(int(b)) for b in syndrome(a, x))]
        outs = []
        for cap in (12, 11):
            monkeypatch.setattr(limits, "GRAPH_VERTEX_CAP", cap)
            if cap == 11:
                monkeypatch.setattr(GraphDecoder, "__init__", no_decoder)
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs == ["".join(str(int(b)) for b in x) + "\n"] * 2

    def test_two_preimages_are_an_error_line(self, tmp_path, capsys):
        # the weight-3-column matrix above: 0000010010 is the syndrome of
        # both 01000010000000 and 00001100000000
        rng = np.random.default_rng(3)
        a = np.zeros((10, 14), dtype=np.uint8)
        for col in range(14):
            a[rng.choice(10, size=3, replace=False), col] = 1
        check = tmp_path / "a.pcm"
        np.savetxt(check, a, fmt="%d", header="%d %d" % a.shape, comments="")
        for x in ("01000010000000", "00001100000000"):
            s = syndrome(a, np.array([int(c) for c in x]))
            assert "".join(str(int(b)) for b in s) == "0000010010"
        rc = main(["decode", "--check", str(check), "--particles", "2",
                   "--syndrome", "0000010010"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "more than one" in err

    def test_equal_half_weight_syndromes_are_refused(self, tmp_path, capsys):
        # columns 1 and 2 are equal, so the weight-1 half table holds their
        # syndrome 110 twice; 0011 is the one weight-2 preimage of 011 and
        # decodes, while 110 + 001 = 111 has two and is refused
        a = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)
        assert brute_force_decode(a, 2, [0, 1, 1]).tolist() == [0, 0, 1, 1]
        check = tmp_path / "a.pcm"
        check.write_text("3 4\n1100\n1110\n0001\n")
        rc = main(["decode", "--check", str(check), "--particles", "2", "--syndrome", "011"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.out == "0011\n" and captured.err == ""
        rc = main(["decode", "--check", str(check), "--particles", "2", "--syndrome", "111"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: syndrome has more than one weight-N preimage\n"

    @pytest.mark.parametrize("body,argv,where", [
        ("2 3\n101\n012\n", ["--syndrome", "11"], "row 2, column 3 is '2'"),
        ("2 3\n101\n011\n110\n", ["--syndrome", "11"], "has 3 rows; its header says 2"),
        ("2 3\n101\n011\n", ["--syndrome", "12"], "'2' at position 2"),
        ("2 3\n101\n011\n", ["--syndrome", "110"], "3 bits"),
        ("2 3\n101\n011\n", ["--syndrome", "11", "--particles=-1"], "-1 is outside 0..3"),
        ("2 3\n101\n011\n", ["--syndrome", "11", "--particles", "4"], "4 is outside 0..3"),
    ], ids=["entry-2", "extra-row", "syndrome-2", "syndrome-length", "particles-low",
            "particles-high"])
    def test_bad_input_is_an_error_line(self, tmp_path, capsys, body, argv, where):
        check = tmp_path / "a.pcm"
        check.write_text(body)
        if "--particles" not in " ".join(argv):
            argv = argv + ["--particles", "1"]
        assert main(["decode", "--check", str(check)] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and where in captured.err


class TestFirstqCommand:
    def test_bins_output(self, tmp_path):
        from fertaper.fermion import random_hamiltonian

        rng = np.random.default_rng(9)
        h = random_hamiltonian(4, 2, rng)
        hpath = tmp_path / "h.json"
        hpath.write_text(h.to_json())
        out = tmp_path / "bins.json"
        assert main(["firstq", "--input", str(hpath), "--emit-bins", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["qubits"] == 4
        assert 0 < len(data["groups"]) <= 81

    @pytest.mark.parametrize("penalty", ["nan", "inf", "-2"])
    def test_bad_penalty_is_an_error_line(self, tmp_path, capsys, penalty):
        from fertaper.fermion import random_hamiltonian

        hpath = tmp_path / "h.json"
        hpath.write_text(random_hamiltonian(4, 2, np.random.default_rng(9)).to_json())
        out = tmp_path / "bins.json"
        assert main(["firstq", "--input", str(hpath), f"--penalty={penalty}",
                     "--emit-bins", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --penalty must be a finite number >= 0")
        assert not out.exists()

    def test_bins_are_the_indented_json_of_their_content(self, tmp_path, monkeypatch):
        from fertaper.fermion import random_hamiltonian

        hpath = tmp_path / "h.json"
        hpath.write_text(random_hamiltonian(4, 3, np.random.default_rng(4)).to_json())
        out = tmp_path / "bins.json"
        forbid_indented_json(monkeypatch)
        assert main(["firstq", "--input", str(hpath), "--penalty", "0",
                     "--emit-bins", str(out)]) == 0
        monkeypatch.undo()
        text = out.read_text()
        data = json.loads(text)
        assert text == json.dumps(data, indent=1)
        assert data["penalty_scale"] == 0.0

    def test_bins_build_no_pauli_operator_and_spell_labels_once(self, tmp_path, monkeypatch):
        # the groups are index arrays into one sum: its labels are spelled by
        # one _labels call and no per-term PauliOperator is built
        from fertaper import cli, pauli
        from fertaper.fermion import random_hamiltonian

        calls = {"from_masks": 0, "__init__": 0, "_labels": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        real_from_masks = PauliOperator.from_masks.__func__
        monkeypatch.setattr(PauliOperator, "from_masks",
                            classmethod(counted("from_masks", real_from_masks)))
        monkeypatch.setattr(PauliOperator, "__init__", counted("__init__", PauliOperator.__init__))
        labels = counted("_labels", pauli._labels)
        monkeypatch.setattr(pauli, "_labels", labels)
        monkeypatch.setattr(cli, "_labels", labels)
        hpath = tmp_path / "h.json"
        hpath.write_text(random_hamiltonian(8, 3, np.random.default_rng(5)).to_json())
        out = tmp_path / "bins.json"
        assert main(["firstq", "--input", str(hpath), "--emit-bins", str(out)]) == 0
        assert calls == {"from_masks": 0, "__init__": 0, "_labels": 1}
        assert len(json.loads(out.read_text())["groups"]) > 1

    def test_writer_calls_do_not_grow_with_the_group_count(self, tmp_path, monkeypatch):
        # the groups are one jsonout.Table: dump formats no scalar per group
        # or per basis list
        from fertaper import jsonout
        from fertaper.fermion import random_hamiltonian

        dump, scalar, calls, dumping = jsonout.dump, jsonout._scalar, [], []

        def counted_scalar(value):
            if dumping:
                calls.append(value)
            return scalar(value)

        def counted_dump(*args):
            dumping.append(True)
            try:
                return dump(*args)
            finally:
                dumping.pop()

        monkeypatch.setattr(jsonout, "_scalar", counted_scalar)
        monkeypatch.setattr(jsonout, "dump", counted_dump)
        counts, groups = [], []
        for modes in (4, 8):
            hpath = tmp_path / f"h{modes}.json"
            hpath.write_text(random_hamiltonian(modes, 3, np.random.default_rng(5)).to_json())
            out = tmp_path / f"bins{modes}.json"
            calls.clear()
            assert main(["firstq", "--input", str(hpath), "--emit-bins", str(out)]) == 0
            counts.append(len(calls))
            groups.append(len(json.loads(out.read_text())["groups"]))
        assert 0 < counts[0] == counts[1]
        assert groups[0] < groups[1]

    def test_unsupported_register_size_fails_before_building_terms(self, tmp_path, capsys,
                                                                   monkeypatch):
        # past M=32 the registers need 6 qubits, past the tabulated GF(3^m) degrees
        from fertaper import cli
        from fertaper.fermion import random_hamiltonian

        def unreachable(*args):
            raise AssertionError("register parts built before the array")

        monkeypatch.setattr(cli, "first_quantized_parts", unreachable)
        for modes in (33, 64):
            h = random_hamiltonian(modes, 2, np.random.default_rng(3))
            hpath = tmp_path / "h.json"
            hpath.write_text(h.to_json())
            out = tmp_path / "bins.json"
            assert main(["firstq", "--input", str(hpath), "--emit-bins", str(out)]) == 2
            assert capsys.readouterr().err == \
                f"error: firstq groups terms for at most 32 modes, got {modes}\n"
            assert not out.exists()

    def test_builds_no_array_and_no_phase_per_term(self, tmp_path, monkeypatch):
        # rows come from field arithmetic and phases from one numpy multiply
        # per one- and two-body part, so neither count grows with the terms
        from fertaper import firstq
        from fertaper.fermion import random_hamiltonian

        calls = {"array": 0, "phase": 0}
        post_init, phase = firstq.OrthogonalArray.__post_init__, firstq._hermitian_coeff

        def counted_post_init(oa):
            calls["array"] += 1
            post_init(oa)

        def counted_phase(*args):
            calls["phase"] += 1
            return phase(*args)

        monkeypatch.setattr(firstq.OrthogonalArray, "__post_init__", counted_post_init)
        monkeypatch.setattr(firstq, "_hermitian_coeff", counted_phase)
        hpath = tmp_path / "h.json"
        hpath.write_text(random_hamiltonian(8, 3, np.random.default_rng(5)).to_json())
        out = tmp_path / "bins.json"
        assert main(["firstq", "--input", str(hpath), "--emit-bins", str(out)]) == 0
        terms = sum(len(group["terms"]) for group in json.loads(out.read_text())["groups"])
        assert terms > 500
        assert calls == {"array": 0, "phase": 2}


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["h2", "oa"])
    def test_suites_pass(self, suite):
        assert main(["verify", "--suite", suite]) == 0

    def test_spectra_suite(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(["verify", "--suite", "spectra", "--M", "4", "--N", "2",
                     "--seed", "7", "--report", str(report)]) == 0
        checks = json.loads(report.read_text())["checks"]
        assert [c["name"] for c in checks] == [
            f"{kind}_{check}" for kind in ("jordan_wigner", "parity", "binary_tree")
            for check in ("spectrum", "sector_union", "sector_energies")]
        assert all(c["passed"] and c["residual"] <= 1e-9 for c in checks)

    def test_timings_read_a_monotonic_clock(self, tmp_path, monkeypatch):
        # a wall clock can step back between two reads; perf_counter cannot
        import time

        import fertaper.cli as cli

        def wall_clock():
            raise AssertionError("verify read time.time")

        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=time.perf_counter,
                                                         time=wall_clock))
        report = tmp_path / "r.json"
        assert main(["verify", "--suite", "h2", "--timings", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["timings"]["wall_seconds"] >= 0

    def test_report_deterministic(self, tmp_path):
        r1 = tmp_path / "a.json"
        r2 = tmp_path / "b.json"
        main(["verify", "--suite", "h2", "--report", str(r1)])
        main(["verify", "--suite", "h2", "--report", str(r2)])
        assert r1.read_text() == r2.read_text()

    def test_spectra_suite_without_modes_is_an_error_line(self, capsys):
        assert main(["verify", "--suite", "spectra", "--M", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --M 0: the spectra suite needs at least one mode\n"

    def test_exit_code_nonzero_on_error(self, tmp_path):
        assert main(["encode", "--input", str(tmp_path / "missing.json"),
                     "--map", "jw", "--output", str(tmp_path / "o.txt")]) == 2

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_invalid_dense_cap_override_is_an_error_line(self, monkeypatch, capsys, value):
        monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", value)
        assert main(["verify", "--suite", "h2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: FERTAPER_MAX_DENSE_QUBITS must be a non-negative "
                                f"integer, got {value!r}\n")


def refusal_inputs(tmp_path) -> None:
    """The files the refusals below read, written into tmp_path."""
    from fertaper.fermion import random_hamiltonian

    save_graph(cycle_chord_graph(8, 2), str(tmp_path / "fig3.graph"))  # 16 edges
    files = {
        "h4.json": random_hamiltonian(4, 2, np.random.default_rng(1)).to_json(),
        "h5.json": random_hamiltonian(5, 4, np.random.default_rng(1)).to_json(),
        "m0.json": '{"modes": 0, "particles": 0, "t": [], "u": []}',
        "p0.json": '{"modes": 4, "particles": 0, "t": [], "u": []}',
        "p3.json": '{"modes": 2, "particles": 3, "t": [], "u": []}',
        "empty.txt": "",
        "zz.txt": "# qubits 2\n1 0 ZZ\n",
        "c3.pcm": "3 3\n100\n010\n001\n",
        "spaced.pcm": "2 3\n1 1 00\n011\n",  # three entries, four digits
        "shortrow.pcm": "2 3\n101\n01\n",
        "sup.pcm": "\u00b2 3\n101\n",  # a digit int() refuses
        "past.graph": "2 2 1\n1 5\n",
        "twin.graph": "2 2 2\n1 3\n3 1\n",
        "nan.txt": "# qubits 2\n1 0 ZZ\nnan 0 ZZ\n",
        "accent.txt": "1 0 Z\u00c9\n",
        "short.txt": "# qubits 3\n1 0 ZZ\n",
        "squared.txt": "# qubits \u00b2\n",  # a count int() refuses is a comment
        "bool.json": '{"modes": 2, "particles": 1, "t": [[true, 1, 0.5, 0]], "u": []}',
        "twice.json": ('{"modes": 2, "particles": 1, "t": [[1, 1, 0.5, 0], [2, 2, 0.5, 0], '
                       '[1, 1, 0.25, 0]], "u": []}'),
        "lone.json": '{"modes": 3, "particles": 1, "t": [], "u": [[1, 2, 3, 1, 0.5, 0]]}',
        "huge.json": ('{"modes": 2, "particles": 1, "t": [[1, 1180591620717411303424, 0.5, 0]], '
                      '"u": []}'),  # a 2**70 index
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


REFUSALS = [
    (["encode", "--input", "m0.json", "--map", "parity", "--output", "o.txt"],
     "need at least one mode"),
    (["taper", "--input", "empty.txt", "--output", "t.txt"], "no Pauli terms found"),
    (["taper", "--input", "zz.txt", "--output", "t.txt", "--sector", "+x"],
     "sector string must be over +/-, got '+x'"),
    (["taper", "--input", "nan.txt", "--output", "t.txt"],
     "Hamiltonian line 'nan 0 ZZ' has a coefficient that is not finite"),
    (["taper", "--input", "accent.txt", "--output", "t.txt"], "invalid Pauli label 'Z\u00c9'"),
    (["taper", "--input", "short.txt", "--output", "t.txt"], "inconsistent Pauli lengths in file"),
    (["taper", "--input", "squared.txt", "--output", "t.txt"], "no Pauli terms found"),
    (["graphgen", "--qubits", "1", "--particles", "1", "--trials", "1", "--out", "g.graph"],
     "need at least two vertices"),
    (["codesim", "--graph", "fig3.graph", "--input", "h4.json", "--output", "o.json"],
     "mode count mismatch"),
    (["codesim", "--check", "c3.pcm", "--input", "h5.json", "--output", "o.json"],
     "particle count out of range"),
    (["decode", "--check", "spaced.pcm", "--particles", "1", "--syndrome", "11"],
     "parity-check file spaced.pcm: row 1, column 3 is '00'; entries must be 0 or 1"),
    (["decode", "--check", "shortrow.pcm", "--particles", "1", "--syndrome", "11"],
     "parity-check file shortrow.pcm: row 2 has 2 entries; its header says 3"),
    (["decode", "--check", "sup.pcm", "--particles", "1", "--syndrome", "11"],
     "parity-check file sup.pcm: header '\u00b2 3' is not \"Q M\""),
    (["codesim", "--graph", "past.graph", "--input", "h4.json", "--output", "o.json"],
     "graph file past.graph, line 2: an edge must be \"u v\" with vertices in 1..4"),
    (["codesim", "--graph", "twin.graph", "--input", "h4.json", "--output", "o.json"],
     "graph file twin.graph: parallel edge 3-1"),
    (["firstq", "--input", "p0.json", "--emit-bins", "b.json"],
     "need at least one mode and one particle"),
    (["firstq", "--input", "p3.json", "--emit-bins", "b.json"],
     "particle count outside 0..modes"),
    (["encode", "--input", "bool.json", "--map", "parity", "--output", "o.txt"],
     "Hamiltonian JSON t row [true, 1, 0.5, 0] has a mode index that is not an integer in 1..2"),
    (["encode", "--input", "twice.json", "--map", "parity", "--output", "o.txt"],
     "Hamiltonian JSON repeats the t row [1, 1]"),
    (["encode", "--input", "lone.json", "--map", "parity", "--output", "o.txt"],
     "interaction entry (1, 2, 3, 1) lacks a conjugate partner (1, 3, 2, 1)"),
    (["encode", "--input", "huge.json", "--map", "parity", "--output", "o.txt"],
     "Hamiltonian JSON t row [1, 1180591620717411303424, 0.5, 0] has a mode index that is "
     "not an integer in 1..2"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[
    "encode-no-modes", "taper-no-terms", "taper-bad-sector", "taper-nan-coefficient",
    "taper-non-ascii-letter", "taper-short-label", "taper-superscript-count",
    "graphgen-one-vertex", "codesim-mode-mismatch", "codesim-too-many-particles",
    "decode-spaced-two-digit-entry", "decode-short-row", "decode-superscript-header",
    "codesim-vertex-past-q", "codesim-parallel-edge", "firstq-no-particles",
    "firstq-particles-past-modes", "encode-bool-index", "encode-repeated-row",
    "encode-lone-interaction", "encode-huge-index"])
def test_refusal_is_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    refusal_inputs(tmp_path)
    inputs = sorted(tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == inputs  # no output file written


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        parser = build_parser()
        text = parser.format_help()
        for name in ("encode", "taper", "codesim", "graphgen", "graphtable",
                     "decode", "firstq", "oa", "hperp", "verify"):
            assert name in text

    def test_parser_is_built_once_on_first_use(self):
        import fertaper

        code = ("import fertaper.cli as cli; before = cli.build_parser.cache_info().currsize; "
                "cli.main(['oa', '--m', '1']); cli.main(['oa', '--m', '1']); "
                "print(before, cli.build_parser.cache_info().misses)")
        src = str(Path(fertaper.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.split()[-2:] == ["0", "1"]

    def test_oa_and_hperp(self):
        assert main(["oa", "--m", "1", "--verify"]) == 0
        assert main(["hperp", "--N", "2", "--M", "2"]) == 0

    @pytest.mark.parametrize("n, m", [(3, 0), (-1, 2), (2, -1)])
    def test_hperp_sizes_out_of_range_are_an_error_line(self, capsys, n, m):
        assert main(["hperp", "--N", str(n), "--M", str(m)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no "pass" on an empty spectrum
        assert captured.err == ("error: the penalty spectrum needs N >= 0 particles and "
                                f"M >= 1 modes, got N={n}, M={m}\n")

    def test_hperp_without_particles_passes(self, capsys):
        assert main(["hperp", "--N", "0", "--M", "1"]) == 0
        assert capsys.readouterr().out == "spectrum matches partitions: pass\n"

    def test_oa_verify_at_m4(self, capsys):
        assert main(["oa", "--m", "4", "--verify"]) == 0
        assert capsys.readouterr().out == ("array: 6561 rows x 82 columns\n"
                                           "strength-2 index-1: pass\n")


def test_cli_import_leaves_networkx_unloaded():
    # a fresh interpreter: graph decoding needs no graph library at import
    import fertaper

    src = str(Path(fertaper.__file__).resolve().parent.parent)
    code = "import sys, fertaper.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "False"
