import importlib
import pkgutil

import numpy as np
import pytest

import fertaper
from fertaper import limits, tapering
from fertaper.codeword import CodeEncoding, FramedDiagonal
from fertaper.fermion import FermionHamiltonian, FockState, dense_fock_matrix
from fertaper.firstq import RegisterEncoding, exchange_penalty_dense
from fertaper.pauli import PauliOperator, QubitHamiltonian
from fertaper.standard_maps import build_encoding, encode_hamiltonian
from fertaper.tapering import (
    BasisBlocks,
    build_plan,
    clifford_transform,
    find_symmetries,
    sector_energies,
)
from tests.oracles import (
    apply_frames_to_isometry,
    encode_first_quantized,
    isometry,
    observable_matrix,
    partition_eigenvector,
    permutation_matrix,
    preimage,
    to_dense,
)
from tests.test_tapering import spin_conserving_hamiltonian

# every dense builder, each on a basis of 16 to 81 states
DENSE_BUILDERS = {
    "QubitHamiltonian.dense":
        lambda: QubitHamiltonian(4, ((1.0, PauliOperator.from_label("XZIY")),)).dense(),
    "PauliOperator.dense": lambda: PauliOperator.from_label("XZIY").dense(),
    "permutation_matrix": lambda: permutation_matrix(build_encoding("parity", 4)),
    "CodeEncoding.isometry": lambda: isometry(CodeEncoding.from_matrix(np.eye(4), 1)),
    "CodeEncoding.preimage": lambda: preimage(CodeEncoding.from_matrix(np.eye(4), 1)),
    "apply_frames_to_isometry":
        lambda: apply_frames_to_isometry([], CodeEncoding.from_matrix(np.eye(4), 1)),
    "FramedDiagonal.to_dense":
        lambda: to_dense(FramedDiagonal(PauliOperator.from_masks(4, 0b1000, 0), np.ones(8))),
    "dense_fock_matrix": lambda: dense_fock_matrix(FermionHamiltonian(4, 1, np.eye(4))),
    "observable_matrix": lambda: observable_matrix(((1, 2), 1), 4),
    "exchange_penalty_dense": lambda: exchange_penalty_dense(3, 4),
    "encode_first_quantized":
        lambda: encode_first_quantized(FockState((1, 1, 0, 0)), RegisterEncoding(4, 2)),
    "partition_eigenvector": lambda: partition_eigenvector((2, 1), 3),
    "BasisBlocks":
        lambda: BasisBlocks([QubitHamiltonian(4, ((1.0, PauliOperator.from_label("XZIY")),))]).labels,
}


@pytest.mark.parametrize("lower", ["environment", "attribute"])
@pytest.mark.parametrize("name", sorted(DENSE_BUILDERS))
def test_one_dense_cap_guards_every_dense_builder(monkeypatch, name, lower):
    build = DENSE_BUILDERS[name]
    monkeypatch.delenv("FERTAPER_MAX_DENSE_QUBITS", raising=False)
    assert build().size >= 16
    if lower == "environment":
        monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", "3")
    else:
        monkeypatch.setattr(limits, "DENSE_QUBIT_CAP", 3)
    with pytest.raises(ValueError, match="exceeds the cap of 3; set FERTAPER_MAX_DENSE_QUBITS"):
        build()


@pytest.mark.parametrize("value,cap", [("0", 0), ("7", 7), (" 20 ", 20), ("", 14)])
def test_dense_cap_override_values(monkeypatch, value, cap):
    monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", value)
    limits.check_dense(1 << cap)
    with pytest.raises(ValueError, match=f"on {cap + 1} qubits exceeds the cap of {cap};"):
        limits.check_dense((1 << cap) + 1)


@pytest.mark.parametrize("value", ["abc", "-3", "3.5", "+4", "²"])
def test_dense_cap_override_rejects_non_integers(monkeypatch, value):
    monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", value)
    with pytest.raises(ValueError, match="FERTAPER_MAX_DENSE_QUBITS must be a non-negative"):
        limits.check_dense(2)


def test_caps_are_defined_only_in_limits():
    modules = [fertaper] + [importlib.import_module(f"fertaper.{info.name}")
                            for info in pkgutil.iter_modules(fertaper.__path__)]
    assert limits in modules
    found = [f"{module.__name__}.{attr}" for module in modules if module is not limits
             for attr in vars(module) if attr.endswith(("_CAP", "_BUDGET"))]
    assert found == []


def test_permutation_cap_refuses_before_the_dense_cap(monkeypatch):
    # 8 particles on 8 modes: 8! = 40320 orderings, and an 8^8-state register
    # that the dense cap would refuse too; the ordering count is named first
    monkeypatch.delenv("FERTAPER_MAX_DENSE_QUBITS", raising=False)
    with pytest.raises(ValueError, match=r"sums 8! = 40320 orderings, over the cap of 10000"):
        encode_first_quantized(FockState((1,) * 8), RegisterEncoding(8, 8))
    monkeypatch.setattr(limits, "PERMUTATION_CAP", 40320)
    with pytest.raises(ValueError, match="exceeds the cap of 14"):
        encode_first_quantized(FockState((1,) * 8), RegisterEncoding(8, 8))


def test_several_sums_share_one_dense_cap(monkeypatch):
    # two 3-qubit sums on one offset register span 16 states
    sums = [QubitHamiltonian(3, ((1.0, PauliOperator.from_label(label)),)) for label in ("XZI", "ZZY")]
    monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", "3")
    BasisBlocks(sums[:1])
    with pytest.raises(ValueError, match="on 4 qubits exceeds the cap of 3"):
        BasisBlocks(sums)


@pytest.mark.parametrize("cap", [4, 5])
def test_sector_spectra_take_as_many_sectors_as_the_cap_holds(monkeypatch, cap):
    # 6 spin orbitals, 2 generators: four 4-qubit sectors, 64 states together
    q = encode_hamiltonian(spin_conserving_hamiltonian(6, 3), build_encoding("parity", 6))
    plan = build_plan(find_symmetries(q), q)
    assert (plan.size, q.qubit_count - plan.size) == (2, 4)
    monkeypatch.delenv("FERTAPER_MAX_DENSE_QUBITS", raising=False)
    transformed = clifford_transform(q, plan)
    whole = sector_energies(transformed, plan)
    batches = []
    blocks = tapering.BasisBlocks

    def counted(sums):
        sums = list(sums)
        batches.append(len(sums))
        return blocks(sums)

    monkeypatch.setattr(tapering, "BasisBlocks", counted)
    monkeypatch.setenv("FERTAPER_MAX_DENSE_QUBITS", str(cap))
    energies = sector_energies(transformed, plan)
    assert batches == [1 << (cap - 4)] * (4 >> (cap - 4))
    assert list(energies) == list(whole)
    assert all(energies[s] == whole[s] for s in whole)
