import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper import jsonout

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7, 0.1, -2.5]

floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
arrays = st.lists(floats, max_size=12).map(lambda v: np.array(v, dtype=np.float64))
scalars = (st.none() | st.booleans() | st.integers() | floats
           | floats.map(np.float64) | st.text(max_size=8))
payloads = st.recursive(
    scalars | arrays,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30,
)


def dumps(obj) -> str:
    fh = io.StringIO()
    jsonout.dump(obj, fh)
    return fh.getvalue()


def plain(obj):
    """The payload with every array replaced by its .tolist(), as json takes it."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_matches_indented_json_dumps(obj):
    assert dumps(obj) == json.dumps(plain(obj), indent=1)


def test_signed_zeros_and_edge_floats_in_one_array():
    values = np.array([-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7, -0.0, 1e16])
    payload = {"a": values, "b": [np.float64(0.1), True, None, "é\n\x01"], "c": [], "d": {}}
    text = dumps(payload)
    assert text == json.dumps(plain(payload), indent=1)
    assert "-0.0,\n  0.0,\n  5e-324" in text


def test_dump_writes_the_bytes_of_json_dump(tmp_path):
    payload = {"qubits": 3, "terms": [{"weight": np.float64(-1.5),
                                       "diagonal": np.linspace(-1, 1, 9)}, {"diagonal": "lazy"}]}
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    with open(ours, "w", encoding="utf-8") as fh:
        jsonout.dump(payload, fh)
    with open(theirs, "w", encoding="utf-8") as fh:
        json.dump(plain(payload), fh, indent=1)
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_non_finite_floats_raise(bad):
    with pytest.raises(ValueError, match="not a JSON number"):
        dumps({"x": [1.0, bad]})
    with pytest.raises(ValueError, match="not a JSON number"):
        dumps([np.array([0.0, bad])])


@pytest.mark.parametrize("bad", [np.int64(3), np.zeros((2, 2)), np.zeros(3, dtype=np.int64),
                                 {1: "int key"}, {"set"}])
def test_other_types_raise_type_error(bad):
    with pytest.raises(TypeError):
        dumps({"x": bad})
