"""The benchmark tracer's targets still name functions of fertaper.

A renamed function would otherwise only show up as a nonzero
``trace.missing_targets`` in a benchmark run.
"""

import importlib.util
from pathlib import Path

from fertaper import gf2, tapering

# mitm.full_decode_table went away when the dict decode table did, and gf2.rref
# when kernel_basis became the one eliminator
KNOWN_MISSING = {"mitm.full_decode_table", "gf2.rref"}


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    originals = (gf2.kernel_basis, tapering.find_symmetries)
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        missing = set(tracer.missing)
        assert gf2.kernel_basis is not originals[0]
    finally:
        tracer.uninstall()
    assert missing <= KNOWN_MISSING
    assert (gf2.kernel_basis, tapering.find_symmetries) == originals
