import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper import cli, jsonout
from fertaper.cli import main
from fertaper.fermion import random_hamiltonian
from fertaper.graphs import cycle_chord_graph, greedy_high_girth, save_graph

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7, 0.1, -2.5]

floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
arrays = st.lists(floats, max_size=12).map(lambda v: np.array(v, dtype=np.float64))
int64s = st.integers(-(2**63), 2**63 - 1)
int_arrays = st.lists(int64s, max_size=6).map(lambda v: np.array(v, dtype=np.int64))
scalars = (st.none() | st.booleans() | st.integers() | floats
           | floats.map(np.float64) | st.text(max_size=8))


# (what dump is given, what json.dumps is given): dicts whose values are
# scalars and one-row tables of an array column
values = (scalars.map(lambda v: (v, v))
          | arrays.map(lambda a: (jsonout.Table({"v": [a]}), [{"v": a.tolist()}])))
payloads = st.dictionaries(st.text(max_size=6), values, max_size=8).map(
    lambda d: ({k: o for k, (o, _) in d.items()}, {k: t for k, (_, t) in d.items()}))


def dumps(obj) -> str:
    fh = io.StringIO()
    jsonout.dump(obj, fh)
    return fh.getvalue()


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_matches_indented_json_dumps(pair):
    ours, theirs = pair
    assert dumps(ours) == json.dumps(theirs, indent=1)


def test_signed_zeros_and_edge_floats_in_one_array():
    values = np.array([-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7, -0.0, 1e16])
    payload = {"a": jsonout.Table({"d": [values]}),
               "b": np.float64(0.1), "c": True, "d": None, "e": "é\n\x01", "f": -0.0}
    text = dumps(payload)
    assert text == json.dumps({**payload, "a": [{"d": values.tolist()}]}, indent=1)
    assert "-0.0,\n    0.0,\n    5e-324" in text


def test_dump_writes_the_bytes_of_json_dump(tmp_path):
    diagonals = [np.linspace(-1, 1, 9), np.array([0.25, -0.0])]
    payload = {"qubits": 3, "terms": jsonout.Table({"weight": np.array([-1.5, 2.0]),
                                                     "diagonal": diagonals}),
               "lazy": jsonout.Table({"diagonal": ["lazy"]})}
    plain = {"qubits": 3, "terms": [{"weight": -1.5, "diagonal": diagonals[0].tolist()},
                                    {"weight": 2.0, "diagonal": diagonals[1].tolist()}],
             "lazy": [{"diagonal": "lazy"}]}
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    with open(ours, "w", encoding="utf-8") as fh:
        jsonout.dump(payload, fh)
    with open(theirs, "w", encoding="utf-8") as fh:
        json.dump(plain, fh, indent=1)
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_non_finite_floats_raise(bad):
    with pytest.raises(ValueError, match="not a JSON number"):
        dumps({"x": bad})
    with pytest.raises(ValueError, match="not a JSON number"):
        jsonout.Table({"d": [np.zeros(3), np.array([0.0, bad])]})


@pytest.mark.parametrize("bad", [np.int64(3), np.zeros(3), np.zeros((2, 2)),
                                 np.zeros(3, dtype=np.int64), {1: "int key"}, {"set"}])
def test_other_types_raise_type_error(bad):
    # arrays are written only as Table columns
    with pytest.raises(TypeError):
        dumps({"x": bad})


@pytest.mark.parametrize("payload", [{"x": [1.0]}, {"x": ()}, {"x": (1, "a")}, {"x": {}},
                                     {"x": {"y": 1}}, {1: 1.0}, jsonout.Table({"v": [1.0]}),
                                     [{"x": 1}], None])
def test_only_a_dict_of_scalars_and_tables_is_written(payload):
    with pytest.raises(TypeError):
        dumps(payload)


cells = st.none() | st.booleans() | st.integers() | floats | st.text(max_size=8)


@st.composite
def tables(draw):
    """(columns, row count): float64 array columns, columns of JSON scalars,
    columns of float64 or int64 arrays of any lengths and columns of str
    lists, empty ones too."""
    n = draw(st.integers(0, 6))
    columns = {}
    for key in draw(st.lists(st.text(max_size=5), min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from(["floats", "cells", "float lists", "int lists", "words"]))
        if kind == "floats":
            columns[key] = np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                                    dtype=np.float64)
        elif kind == "cells":
            columns[key] = draw(st.lists(cells, min_size=n, max_size=n))
        elif kind == "words":
            words = st.lists(st.text(max_size=3), max_size=3)
            columns[key] = draw(st.lists(words, min_size=n, max_size=n))
        else:
            lists = arrays if kind == "float lists" else int_arrays
            columns[key] = draw(st.lists(lists, min_size=n, max_size=n))
    return columns, n


def plain(column) -> list:
    """A Table column as json takes it: arrays become lists."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    return [v.tolist() if isinstance(v, np.ndarray) else v for v in column]


def table_rows(columns, rows):
    """The list of dicts a Table of these columns writes for these rows."""
    plain_columns = {k: plain(v) for k, v in columns.items()}
    return [{k: v[r] for k, v in plain_columns.items()} for r in rows]


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_table_matches_indented_json_dumps_of_its_rows(table, data):
    # row subsets of one table (empty ones and repeated rows too) as values
    # of one dict, next to the whole table and a scalar
    columns, n = table
    subset = st.lists(st.integers(0, n - 1), max_size=8) if n else st.just([])
    whole = jsonout.Table(columns)
    ours, theirs = {"all": whole}, {"all": table_rows(columns, range(n))}
    for i, rows in enumerate(data.draw(st.lists(subset, min_size=1, max_size=4))):
        ours[f"take{i}"], theirs[f"take{i}"] = whole.take(rows), table_rows(columns, rows)
    ours["n"] = theirs["n"] = 1.5
    assert dumps(ours) == json.dumps(theirs, indent=1)


def test_table_edge_values_repeated_rows_and_empty_subsets():
    columns = {"re": np.array([-0.0, 5e-324, 1e16, 0.1, 0.0]),
               "pauli": ["XYZ", "é", "☃\n", "", "XYZ"], "n": [1, None, True, 2.5, -0.0]}
    table = jsonout.Table(columns)
    payload = {"groups": jsonout.Table({
        "basis": [["X", "Y"], [], ["Z"]],
        "terms": [table.take([4, 0, 0, 3]), table.take([]), table.take(np.arange(5))]})}
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


@pytest.mark.parametrize("run", [None, 1, 4])
def test_table_list_cells_share_one_distinct_set(monkeypatch, run):
    # -0.0 and 0.0 in different rows, empty lists, and an int column beside;
    # the distinct pass over the whole column, or in runs of about 1 or 4 entries
    if run:
        monkeypatch.setattr(jsonout, "_RUN_ENTRIES", run)
    columns = {"flip": [np.array([1, 3]), np.array([], dtype=np.int64), np.array([2**62, -7]),
                        np.array([5])],
               "weight": np.array([0.1, -0.0, 1e16, 2.0]),
               "diagonal": [np.array([-0.0, 0.1, 5e-324]), np.array([0.0, 1e16, 0.0]),
                            np.array([]), np.array([1e16, -0.0, -5e-324, 0.1])]}
    table = jsonout.Table(columns)
    text = dumps({"terms": table, "again": table.take([3, 0, 1])})
    want = {"terms": table_rows(columns, range(4)), "again": table_rows(columns, [3, 0, 1])}
    assert text == json.dumps(want, indent=1)
    assert '"diagonal": [\n    -0.0,' in text and '"diagonal": [\n    0.0,' in text
    assert '"flip": [],' in text and '"diagonal": []\n' in text


def test_table_of_zero_rows():
    table = jsonout.Table({"frame": [], "flip": [], "diagonal": []})
    assert dumps({"qubits": 8, "terms": table}) == json.dumps({"qubits": 8, "terms": []},
                                                              indent=1)
    assert dumps({"none": jsonout.Table({})}) == '{\n "none": []\n}'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_table_non_finite_list_cells_raise(bad):
    with pytest.raises(ValueError, match="not a JSON number"):
        jsonout.Table({"x": ["a", "b"], "d": [np.array([]), np.array([0.0, bad, 1.0])]})


@pytest.mark.parametrize("column", [[np.zeros(2), np.zeros(2, dtype=np.int64)],
                                    [np.zeros(2), "lazy"], [np.zeros((2, 2))],
                                    [np.zeros(2, dtype=np.float32)], ["lazy", np.zeros(2)],
                                    [np.zeros(2), [0.0, 1.0]]])
def test_table_mixed_or_unsupported_list_cells_raise_type_error(column):
    with pytest.raises(TypeError):
        jsonout.Table({"d": column})


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
    # str-list cells, lists and tuples, empty ones and repeated words too, in
    # tables nested 0 to 2 deep as Table cells
    pick = st.lists(st.sampled_from(vocabulary), max_size=6)
    pick = pick | pick.map(tuple)
    rows = data.draw(st.lists(pick, max_size=4))
    ours, theirs = jsonout.Table({"basis": rows}), [{"basis": list(row)} for row in rows]
    for _ in range(data.draw(st.integers(0, 2))):
        rows = data.draw(st.lists(pick, min_size=1, max_size=4))
        ours = jsonout.Table({"basis": rows, "inner": [ours] * len(rows)})
        theirs = [{"basis": list(row), "inner": theirs} for row in rows]
    assert dumps({"groups": ours}) == json.dumps({"groups": theirs}, indent=1)


def test_each_distinct_word_is_encoded_once(monkeypatch):
    encoded = []
    real = jsonout.encode_basestring_ascii

    def counted(word):
        encoded.append(word)
        return real(word)

    monkeypatch.setattr(jsonout, "encode_basestring_ascii", counted)
    rows = [("XY", "ZZ"), ("ZZ", "XY"), (), ("é", "XY")]
    text = dumps({"groups": jsonout.Table({"basis": rows})})
    assert text == json.dumps({"groups": [{"basis": list(row)} for row in rows]}, indent=1)
    assert sorted(encoded) == sorted(["groups", "basis", "XY", "ZZ", "é"])


@pytest.mark.parametrize("column", [[["XY", b"ZZ"]], [("XY",), (1.0,)], [["XY"], "ZZ"],
                                    [["XY"], jsonout.Table({})], [[["XY"]]]])
def test_str_list_cells_of_other_types_raise_type_error(column):
    with pytest.raises(TypeError):
        jsonout.Table({"basis": column})


def test_table_cells_are_written_at_their_depth():
    terms = jsonout.Table({"re": np.array([0.5, -0.0]), "pauli": ["XX", "ZI"]})
    groups = jsonout.Table({"basis": [["XY"], []], "terms": [terms.take([1, 0]), terms.take([])]})
    want = [{"basis": ["XY"], "terms": [{"re": -0.0, "pauli": "ZI"}, {"re": 0.5, "pauli": "XX"}]},
            {"basis": [], "terms": []}]
    assert dumps({"n": 2, "groups": groups}) == json.dumps({"n": 2, "groups": want}, indent=1)


# -- float list cells are held and written as runs of equal entries ------------

DEFAULT_RUN_ENTRIES = jsonout._RUN_ENTRIES
RUN_VALUES = [0.0, -0.0, 1.0, -2.5, 5e-324, 0.1]


@st.composite
def run_cells(draw):
    """Float64 list cells made of runs: long runs of a few values (so runs
    go on across cell boundaries), 0.0 and -0.0 alternating, empty and
    one-entry cells, and at times one cell longer than a default chunk."""
    value = st.sampled_from(RUN_VALUES) | floats
    cells = []
    for kind in draw(st.lists(st.sampled_from(["runs", "signed zeros", "one", "empty"]),
                              max_size=6)):
        if kind == "runs":
            runs = draw(st.lists(st.tuples(value, st.integers(1, 40)), max_size=5))
            cells.append(np.repeat(np.array([v for v, _ in runs], dtype=np.float64),
                                   [n for _, n in runs]))
        elif kind == "signed zeros":
            cells.append(np.array([0.0, -0.0] * draw(st.integers(1, 6)))[draw(st.integers(0, 1)):])
        elif kind == "one":
            cells.append(np.array([draw(value)]))
        else:
            cells.append(np.array([]))
    if draw(st.booleans()):
        big = DEFAULT_RUN_ENTRIES + draw(st.integers(1, 3))
        cut = draw(st.integers(0, big))
        cells.insert(draw(st.integers(0, len(cells))),
                     np.concatenate([np.full(cut, draw(value)), np.full(big - cut, -0.0)]))
    return cells


@pytest.mark.parametrize("run", [1, 4, DEFAULT_RUN_ENTRIES])
@settings(max_examples=60, deadline=None)
@given(run_cells(), st.data())
def test_run_heavy_float_cells_match_indented_json_dumps(run, cells, data):
    # rows written in order and in reverse, beside a scalar float column of runs
    weights = np.array(data.draw(st.lists(st.sampled_from(RUN_VALUES), min_size=len(cells),
                                          max_size=len(cells))), dtype=np.float64)
    columns = {"weight": weights, "diagonal": cells}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jsonout, "_RUN_ENTRIES", run)
        table = jsonout.Table(columns)
    rows = list(range(len(cells)))
    text = dumps({"terms": table, "back": table.take(rows[::-1])})
    assert text == json.dumps({"terms": table_rows(columns, rows),
                               "back": table_rows(columns, rows[::-1])}, indent=1)


class CountedLookups:
    """A text store that counts the texts read from it."""

    def __init__(self, texts):
        self.texts, self.looked_up = texts, 0

    def __getitem__(self, key):
        self.looked_up += np.size(key)
        return self.texts[key]


def test_a_cell_of_three_runs_looks_up_three_texts():
    cell = np.repeat([0.0, -0.0, 0.5], [1 << 15, 1 << 14, 1 << 14])
    table = jsonout.Table({"diagonal": [cell]})
    cells = table._cells[0]
    cells._texts = CountedLookups(cells._texts)
    assert dumps({"terms": table}) == json.dumps({"terms": [{"diagonal": cell.tolist()}]},
                                                 indent=1)
    assert 0 < cells._texts.looked_up <= 3


# -- codesim writes its frames as one Table -------------------------------------


def fig3_codesim(tmp_path) -> list[str]:
    """codesim arguments for a banded M=16 Hamiltonian on the Fig-3 code."""
    graph = tmp_path / "g.graph"
    save_graph(cycle_chord_graph(8, 2), str(graph))
    h = random_hamiltonian(16, 2, np.random.default_rng(5), interaction_pairs=4)
    (tmp_path / "h.json").write_text(h.to_json())
    return ["codesim", "--graph", str(graph), "--input", str(tmp_path / "h.json"),
            "--output", str(tmp_path / "o.json")]


@pytest.mark.parametrize("where", ["diagonal", "weight"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_codesim_rejects_non_finite_values_before_opening_its_output(tmp_path, monkeypatch,
                                                                     capsys, where, bad):
    build = cli.build_simulator_hamiltonian

    def spoiled(*args):
        # the last entry of the last frame's diagonal, or the last frame's weight
        frames = build(*args)
        buffer, weights = frames.buffer.copy(), frames.weights.copy()
        if where == "diagonal":
            buffer[-1] = bad
        else:
            weights[-1] = bad
        return dataclasses.replace(frames, buffer=buffer, weights=weights)

    monkeypatch.setattr(cli, "build_simulator_hamiltonian", spoiled)
    assert main(fig3_codesim(tmp_path)) == 2
    assert "not a JSON number" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_codesim_formats_each_float_column_in_one_pass(tmp_path, monkeypatch):
    # one distinct-value pass for the weights and one for every diagonal at
    # once, however many frames there are
    passes = []
    float_texts = jsonout._float_texts

    def counted(*args):
        passes.append(args)
        return float_texts(*args)

    monkeypatch.setattr(jsonout, "_float_texts", counted)
    assert main(fig3_codesim(tmp_path)) == 0
    assert len(json.loads((tmp_path / "o.json").read_text())["terms"]) > 20
    assert len(passes) == 2


def test_codesim_output_is_json_dumps_of_itself(tmp_path):
    # a greedy Q=14, N=3 code: its output reads back and writes again byte for byte
    graph = tmp_path / "g.graph"
    g = greedy_high_girth(14, 3, 20, 1)
    save_graph(g, str(graph))
    h = random_hamiltonian(g.edge_count, 3, np.random.default_rng(7), interaction_pairs=2)
    (tmp_path / "h.json").write_text(h.to_json())
    assert main(["codesim", "--graph", str(graph), "--input", str(tmp_path / "h.json"),
                 "--output", str(tmp_path / "o.json")]) == 0
    text = (tmp_path / "o.json").read_text()
    assert text == json.dumps(json.loads(text), indent=1)
