"""One small seeded instance of every benchmark workload, end to end.

Each workload's own generate -> run -> check must report no failure, so a
change to the library API that the benchmark calls shows up here and not
only as a failure ratio in a benchmark run.  The workload modules are
imported from perfbench/ without writing bytecode there; instances live in
pytest's temporary directory.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        patch.setattr(sys, "dont_write_bytecode", True)
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["encode_taper", "codesim", "graphgen_decode", "firstq"])
def test_small_instance_passes_its_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    params = workload.generate(np.random.default_rng(911), "small", tmp_path, 0)
    inst = workloads.Instance(0, "small", tmp_path, params)
    workload.run(inst, workloads.Runner())
    assert workload.check(inst) == []
