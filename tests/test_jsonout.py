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


cells = st.none() | st.booleans() | st.integers() | floats | st.text(max_size=8)


@st.composite
def tables(draw):
    """(columns, row count): float64 array columns and columns of JSON scalars."""
    n = draw(st.integers(0, 6))
    columns = {}
    for key in draw(st.lists(st.text(max_size=5), min_size=1, max_size=3, unique=True)):
        if draw(st.booleans()):
            columns[key] = np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                                    dtype=np.float64)
        else:
            columns[key] = draw(st.lists(cells, min_size=n, max_size=n))
    return columns, n


def table_rows(columns, rows):
    """The list of dicts a Table of these columns writes for these rows."""
    plain_columns = {k: plain(v) for k, v in columns.items()}
    return [{k: v[r] for k, v in plain_columns.items()} for r in rows]


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_table_matches_indented_json_dumps_of_its_rows(table, data):
    # row subsets of one table (empty ones and repeated rows too), nested
    # 0 to 3 containers deep, next to the whole table
    columns, n = table
    subset = st.lists(st.integers(0, n - 1), max_size=8) if n else st.just([])
    whole = jsonout.Table(columns)
    rows = data.draw(subset)
    ours, theirs = whole.take(rows), table_rows(columns, rows)
    for depth in range(data.draw(st.integers(0, 3))):
        rows = data.draw(subset)
        if depth % 2:
            ours = {"terms": ours, "more": whole.take(rows), "all": whole}
            theirs = {"terms": theirs, "more": table_rows(columns, rows),
                      "all": table_rows(columns, range(n))}
        else:
            ours, theirs = [ours, whole.take(rows), 1.5], [theirs, table_rows(columns, rows), 1.5]
    assert dumps(ours) == json.dumps(theirs, indent=1)


def test_table_edge_values_repeated_rows_and_empty_subsets():
    columns = {"re": np.array([-0.0, 5e-324, 1e16, 0.1, 0.0]),
               "pauli": ["XYZ", "é", "☃\n", "", "XYZ"], "n": [1, None, True, 2.5, -0.0]}
    table = jsonout.Table(columns)
    payload = {"groups": [{"basis": ["X", "Y"], "terms": table.take([4, 0, 0, 3])},
                          {"basis": [], "terms": table.take([])},
                          {"basis": ["Z"], "terms": table.take(np.arange(5))}]}
    want = {"groups": [{"basis": ["X", "Y"], "terms": table_rows(columns, [4, 0, 0, 3])},
                       {"basis": [], "terms": []},
                       {"basis": ["Z"], "terms": table_rows(columns, range(5))}]}
    text = dumps(payload)
    assert text == json.dumps(want, indent=1)
    assert '"re": -0.0,' in text and '"re": 5e-324,' in text and '"re": 1e+16,' in text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_table_non_finite_floats_raise(bad):
    with pytest.raises(ValueError, match="not a JSON number"):
        jsonout.Table({"re": np.array([0.0, bad])})
    with pytest.raises(ValueError, match="not a JSON number"):
        jsonout.Table({"re": np.zeros(2), "x": [1.0, bad]})


@pytest.mark.parametrize("columns", [{"x": np.zeros(2, dtype=np.int64)}, {"x": [np.int64(3)]},
                                     {"x": [[1.0]]}, {1: [1.0]}])
def test_table_other_cell_types_raise_type_error(columns):
    with pytest.raises(TypeError):
        jsonout.Table(columns)


def test_table_columns_of_different_lengths_raise():
    with pytest.raises(ValueError, match="differ in length"):
        jsonout.Table({"a": np.zeros(2), "b": ["x"]})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True), st.data())
def test_words_match_indented_json_dumps_of_their_lists(vocabulary, data):
    # lists over one vocabulary, empty ones and repeats too, nested 0 to 2 deep
    words = jsonout.Words(vocabulary)
    pick = st.lists(st.sampled_from(vocabulary), max_size=6).map(tuple)
    items = data.draw(pick)
    ours, theirs = words.take(items), list(items)
    for _ in range(data.draw(st.integers(0, 2))):
        items = data.draw(pick)
        ours = {"basis": words.take(items), "inner": [ours, words]}
        theirs = {"basis": list(items), "inner": [theirs, []]}
    assert dumps(ours) == json.dumps(theirs, indent=1)


def test_words_outside_the_vocabulary_raise():
    with pytest.raises(KeyError):
        dumps(jsonout.Words(["XY", "ZZ"]).take(("XY", "YX")))
    with pytest.raises(TypeError):
        jsonout.Words([b"XY"])
