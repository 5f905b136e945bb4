"""The whole-file graph and parity-check checks and the list-based decoder
against their line-by-line, entry-by-entry oracles (tests/graph_oracle.py).

Random valid and damaged parity-check files (entries 2, x, a spaced 00 or
10, short and long rows, missing and extra rows, tab separators, comments,
bad headers, several faults at once) must give the same uint8 array or the
same ValueError message; so must graph files (vertex 0 and Q+1,
non-decimal and Arabic-Indic tokens, one- and three-token lines,
self-loops, same-side and parallel edges in either orientation, a wrong
edge count) and edge lists handed to BipartiteGraph.  On random graphs of
at most 30 vertices, planted and random syndromes decode to the oracle's
vector byte for byte, or to None for both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper.codeword import CodeEncoding, load_pcm
from fertaper.graphs import (
    BipartiteGraph,
    GraphDecoder,
    greedy_high_girth,
    load_graph,
)
from tests import graph_oracle as oracle
from tests.conftest import syndrome

# what a damaged parity-check entry can hold ("²" is a digit that is not decimal)
BAD_ENTRIES = ["2", "x", "00", "11", "10", "²", "\t", "1\t0", "0 1"]
# what a damaged graph token can hold ("٣" is an Arabic-Indic 3, a decimal digit)
BAD_TOKENS = ["0", "x", "-1", "1.0", "٣", "01", "²", "+2"]
SEPARATORS = ["", " ", "  ", " \t", "\t"]


def outcome(read, path):
    """What a reader gives as comparable data: the result or the error message."""
    try:
        result = read(str(path))
    except ValueError as err:
        return "error", str(err)
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, BipartiteGraph):
        result = result.left, result.right, result.edges
    left, right, edges = result
    assert all(type(u) is int for edge in edges for u in edge)
    return left, right, edges


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("files") / "file"


@st.composite
def pcm_texts(draw):
    """A parity-check file, valid or with up to three faults."""
    q, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = [[draw(st.sampled_from("01")) for _ in range(m)] for _ in range(q)]
    header = [str(q), str(m)]
    for fault in draw(st.lists(st.sampled_from(["entry", "merge", "drop", "add", "drop row",
                                                "add row", "header"]), max_size=3)):
        r = draw(st.integers(0, len(rows) - 1)) if rows else 0
        row = rows[r] if rows else []
        c = draw(st.integers(0, len(row) - 1)) if row else 0
        if fault == "entry" and row:
            row[c] = draw(st.sampled_from(BAD_ENTRIES))
        elif fault == "merge" and len(row) > c + 1:  # "1 1 0 0" -> "1 1 00"
            row[c:c + 2] = [row[c] + row[c + 1]]
        elif fault == "drop" and row:
            del row[c]
        elif fault == "add":
            row.insert(c, draw(st.sampled_from("01")))
        elif fault == "drop row" and rows:
            del rows[r]
        elif fault == "add row":
            rows.insert(r, [draw(st.sampled_from("01")) for _ in range(m)])
        elif fault == "header":
            k = draw(st.integers(0, 2))
            if k == 2:
                header.append(str(m))
            else:
                header[k] = draw(st.sampled_from(["0", "x", "-1", "3.0", str(q + 1), str(m + 1)]))
    lines = [" ".join(header)]
    for row in rows:
        line = draw(st.sampled_from(SEPARATORS)).join(row)
        lines.append(line + draw(st.sampled_from(["", "", " # note", "  "])))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return "\n".join(lines) + "\n"


@st.composite
def graph_texts(draw):
    """A graph file, valid or with up to three faults."""
    ql, qr = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    q = ql + qr
    cross = [(u, v) for u in range(1, ql + 1) for v in range(ql + 1, q + 1)]
    edges = draw(st.lists(st.sampled_from(cross), unique=True, max_size=8)) if cross else []
    lines = [[str(u), str(v)] if draw(st.booleans()) else [str(v), str(u)] for u, v in edges]
    vertex = st.integers(1, max(q, 1)).map(str)
    header = [str(ql), str(qr), None]
    for fault in draw(st.lists(st.sampled_from(["token", "past q", "three", "one", "self-loop",
                                                "same side", "parallel", "count", "header"]),
                               max_size=3)):
        k = draw(st.integers(0, len(lines) - 1)) if lines else 0
        line = lines[k] if lines else []
        if fault == "token" and line:
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif fault == "past q" and line:
            line[draw(st.integers(0, len(line) - 1))] = str(q + 1)
        elif fault == "three":
            lines.insert(k, line[:2] + [draw(vertex)] if line else [draw(vertex)] * 3)
        elif fault == "one":
            lines.insert(k, [draw(vertex)])
        elif fault == "self-loop":
            lines.insert(k, [draw(vertex)] * 2)
        elif fault == "same side":
            side = draw(st.sampled_from([range(1, ql + 1), range(ql + 1, q + 1)]))
            if len(side) >= 2:
                u, v = draw(st.lists(st.sampled_from(side), min_size=2, max_size=2, unique=True))
                lines.insert(k, [str(u), str(v)])
        elif fault == "parallel" and line:
            lines.insert(draw(st.integers(0, len(lines))),
                         list(line) if draw(st.booleans()) else line[::-1])
        elif fault == "count":
            header[2] = str(len(lines) + draw(st.sampled_from([-1, 1])))
        elif fault == "header":
            header[draw(st.integers(0, 2))] = draw(st.sampled_from(["x", "-1", "²"]))
    if header[2] is None:
        header[2] = str(len(lines))
    text = [" ".join(header)]
    for line in lines:
        text.append(draw(st.sampled_from([" ", "  ", "\t"])).join(line))
        if draw(st.integers(0, 5)) == 0:
            text.append(draw(st.sampled_from(["", "  "])))
    return "\n".join(text) + "\n"


@given(pcm_texts())
@settings(max_examples=400, deadline=None)
def test_pcm_file_reads_as_the_row_by_row_reader(scratch, text):
    scratch.write_text(text, encoding="utf-8")
    assert outcome(load_pcm, scratch) == outcome(oracle.load_pcm, scratch)


@given(graph_texts())
@settings(max_examples=400, deadline=None)
def test_graph_file_reads_as_the_line_by_line_reader(scratch, text):
    scratch.write_text(text, encoding="utf-8")
    assert outcome(load_graph, scratch) == outcome(oracle.load_graph, scratch)


@pytest.mark.parametrize("text", [
    "2 3\n1 1 00\n011\n",            # three entries, four digits: column 3 is '00'
    "2 3\n10 1\n011\n",              # two entries, three digits
    "2 3\n101\n01\n",                # a short row
    "2 3\n101\n0112\n",              # a 2 in a long row
    "2 3\n1 0 x\n01 1\n",            # two faults: the first row's is named
    "3 2\n10\n01\n",                 # a missing row
], ids=["spaced-00", "spaced-10", "short-row", "long-row-with-2", "two-faults", "missing-row"])
def test_pcm_file_faults_read_as_the_row_by_row_reader(scratch, text):
    scratch.write_text(text, encoding="utf-8")
    got = outcome(load_pcm, scratch)
    assert got[0] == "error" and got == outcome(oracle.load_pcm, scratch)


def test_pcm_header_of_non_decimal_digits_names_the_file(tmp_path):
    # "²" passes str.isdigit but not int(): the header check names the file
    path = tmp_path / "sq.pcm"
    path.write_text("² 3\n101\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_pcm(str(path))
    assert str(err.value) == f"parity-check file {path}: header '² 3' is not \"Q M\""


@pytest.mark.parametrize("body", [
    "2 2 1\n0 3\n", "2 2 1\n1 5\n", "2 2 1\n1 x\n", "2 2 1\n1 3 4\n", "2 2 2\n1 3\n1 1\n",
    "2 2 2\n1 3\n1 2\n", "2 2 2\n1 3\n3 1\n", "2 2 2\n1 3\n1 3\n", "2 2 3\n1 0\n1 3\n3 1\n",
    "2 2 0\n", "0 0 0\n", "2 2 1\n٣ 1\n", "2 2 2\n0 3\n1 " + "1" * 5000 + "\n",
    "2 2 1\n1 " + "3" * 5000 + "\n",
], ids=["vertex-zero", "vertex-past-q", "non-decimal", "three-tokens", "self-loop",
        "same-side", "parallel-reversed", "parallel", "two-faults", "no-edges", "no-vertices",
        "arabic-indic-digit", "vertex-zero-before-a-5000-digit-vertex", "5000-digit-vertex"])
def test_graph_file_cases_read_as_the_line_by_line_reader(scratch, body):
    scratch.write_text(body, encoding="utf-8")
    assert outcome(load_graph, scratch) == outcome(oracle.load_graph, scratch)


@st.composite
def edge_lists(draw):
    """Sides and an edge list for BipartiteGraph, valid or with up to three faults."""
    ql, qr = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    q = ql + qr
    left, right = frozenset(range(1, ql + 1)), frozenset(range(ql + 1, q + 1))
    cross = [(u, v) for u in left for v in right]
    edges = draw(st.lists(st.sampled_from(cross), unique=True, max_size=8)) if cross else []
    edges = [e if draw(st.booleans()) else e[::-1] for e in edges]
    vertex = st.integers(1, max(q, 1))
    for fault in draw(st.lists(st.sampled_from(["self-loop", "same side", "parallel",
                                                "non-vertex", "sides"]), max_size=3)):
        k = draw(st.integers(0, len(edges)))
        if fault == "self-loop":
            edges.insert(k, (draw(vertex),) * 2)
        elif fault == "same side":
            edges.insert(k, (draw(vertex), draw(vertex)))
        elif fault == "parallel" and edges:
            u, v = draw(st.sampled_from(edges))
            edges.insert(k, (u, v) if draw(st.booleans()) else (v, u))
        elif fault == "non-vertex":
            u = draw(st.sampled_from([0, q + 1, -1]))
            edges.insert(k, (u, draw(vertex)) if draw(st.booleans()) else (draw(vertex), u))
        elif fault == "sides" and q:
            v = draw(vertex)
            left, right = (left | {v}, right) if draw(st.booleans()) else (left - {v}, right)
    return left, right, tuple(edges)


@given(edge_lists())
@settings(max_examples=400, deadline=None)
def test_edge_checks_match_the_per_edge_checks(case):
    left, right, edges = case
    try:
        g = BipartiteGraph(left, right, edges)
        got = g.left, g.right, g.edges
    except ValueError as err:
        got = "error", str(err)
    try:
        want = oracle.check_graph(left, right, edges)
    except ValueError as err:
        want = "error", str(err)
    assert got == want


@st.composite
def decode_cases(draw):
    """A graph on at most 30 vertices, a particle count and a seed for its syndromes."""
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):  # a certified graph code
        q = draw(st.integers(max(2, 2 * n + 2), 30))
        return greedy_high_girth(q, n, trials=4, seed=seed), n, rng
    ql = draw(st.integers(1, 15))
    qr = draw(st.integers(1, 30 - ql))
    p = draw(st.sampled_from([0.1, 0.25, 0.5]))
    edges = tuple((u, v) for u in range(1, ql + 1) for v in range(ql + 1, ql + qr + 1)
                  if rng.random() < p)
    return BipartiteGraph(frozenset(range(1, ql + 1)),
                          frozenset(range(ql + 1, ql + qr + 1)), edges), n, rng


@given(decode_cases())
@settings(max_examples=120, deadline=None)
def test_decode_matches_the_entry_by_entry_decoder(case):
    g, n, rng = case
    decoder = GraphDecoder(g, n)
    a = g.incidence_matrix()
    q, m = a.shape
    syndromes = []
    for _ in range(8):
        if m >= n:  # planted
            x = np.zeros(m, dtype=np.uint8)
            x[rng.choice(m, n, replace=False)] = 1
            syndromes.append(syndrome(a, x))
        marked = rng.choice(q, min(q, 2 * int(rng.integers(0, n + 1))), replace=False)
        s = np.zeros(q, dtype=np.uint8)
        s[marked] = 1
        syndromes.append(s)
        syndromes.append(rng.integers(0, 2, q).astype(np.uint8))
    for s in syndromes:
        got, want = decoder.decode(s), oracle.decode(decoder, s)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes())


def test_decoded_occupations_are_python_ints(fig3_graph):
    a = fig3_graph.incidence_matrix()
    x = np.zeros(a.shape[1], dtype=np.uint8)
    x[[0, 7]] = 1
    for enc in (CodeEncoding.from_graph(fig3_graph, 2), CodeEncoding.from_matrix(a, 2)):
        got = enc.decode(syndrome(a, x))
        assert got.occ == tuple(x.tolist())
        assert all(type(b) is int for b in got.occ)

