"""The column Hamiltonian JSON reader against its row-by-row oracle.

Random valid files (int and float parts, -0.0, +/-1e308, indices 1 and M,
empty or missing ``t`` and ``u``, rows in any order) must give equal ``t``
arrays bit for bit, equal ``u`` entries (the reader's int64 key rows in
the order it keeps them against the oracle's dict sorted by key, and the
``repr`` of each value) and the same warnings; damaged files (bad index
types and ranges, bad values, short or long rows, repeated rows, a ``u``
row without its partner, a non-Hermitian ``t``, too many particles, a large
magnitude, several at once) must give the same ValueError message, or the
same result and warnings.
"""

import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper.fermion import FermionHamiltonian
from tests import fermion_json_oracle as oracle
from tests.test_output_digests import spin_conserving

FMAX = sys.float_info.max
VALUES = [0, 1, -1, 3, 10**20, -(2**60), 0.0, -0.0, 0.5, -0.25, 1e-13, 1e308, -1e308, 5e-324,
          0.1, 2.0]
# what a damaged entry can hold; text sentinels become 1e400, -1e400 and NaN in the JSON
BAD_INDICES = [True, False, 1.0, 2**70, 0, -1, "1", None, [1]]
BAD_VALUES = ["1", 10**400, -(10**400), "<inf>", "<-inf>", "<nan>", True, None, int(FMAX) + 1,
              -int(FMAX) - 1, [0.5]]
# a t entry may also hold the edges of the float range (a u value with two such parts
# would overflow the oracle's abs(), see test_u_magnitude_past_the_float_range_warns)
T_VALUES = [int(FMAX), -int(FMAX), FMAX, 1.5]
SENTINELS = {'"<inf>"': "1e400", '"<-inf>"': "-1e400", '"<nan>"': "NaN"}


def outcome(read, text):
    """What a reader gives as comparable data: the result or the error, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            modes, particles, t, u = read(text)
        except ValueError as err:
            result = ("error", str(err))
        else:
            result = (modes, particles, t.dtype, t.shape, t.tobytes(), entries(u))
    return result, [(w.category.__name__, str(w.message)) for w in caught]


def entries(u):
    """u's (key, repr(value)) list: the oracle's dict sorted by key, and the reader's
    (keys, values) arrays in the order it keeps them, which must be that order."""
    if isinstance(u, dict):
        assert all(type(i) is int for key in u for i in key)
        return [(key, repr(value)) for key, value in sorted(u.items())]
    keys, values = u
    assert keys.dtype == np.int64 and keys.shape == (len(values), 4)
    assert values.dtype == np.complex128
    return [(tuple(key), repr(value)) for key, value in zip(keys.tolist(), values.tolist())]


def read_new(text):
    h = FermionHamiltonian.from_json(text)
    return h.modes, h.particles, h.t, h.u


def negated(value):
    # a damaged entry may already hold a string or a list, which stays as it is
    return value if isinstance(value, (str, list)) else -value


@st.composite
def hamiltonian_data(draw, min_modes=0):
    """A valid Hamiltonian JSON object: Hermitian t, u entries with their partners."""
    m = draw(st.integers(min_modes, 5))
    particles = draw(st.integers(0, m))
    value = st.sampled_from(VALUES) | st.floats(-2, 2) | st.integers(-3, 3)
    real = st.sampled_from([0, 0.0, -0.0])  # the imaginary part of a self-adjoint entry
    t, u = {}, {}
    if m:
        index = st.sampled_from([1, m]) | st.integers(1, m)
        for a, b in draw(st.lists(st.tuples(index, index), max_size=8)):
            re, im = draw(value), draw(real if a == b else value)
            t[a, b], t[b, a] = (re, im), (re, negated(im))
        for key in draw(st.lists(st.tuples(index, index, index, index), max_size=8)):
            partner = key[::-1]
            re, im = draw(value), draw(real if key == partner else value)
            u[key], u[partner] = (re, im), (re, negated(im))
    rows = {"t": [[*k, *v] for k, v in t.items()], "u": [[*k, *v] for k, v in u.items()]}
    data = {"modes": m, "particles": particles}
    for name in ("t", "u"):
        if rows[name] or draw(st.booleans()):  # an empty list may also be left out
            data[name] = draw(st.permutations(rows[name]))
    return data


def text_of(data) -> str:
    text = json.dumps(data)
    for sentinel, word in SENTINELS.items():
        text = text.replace(sentinel, word)
    return text


@st.composite
def damaged_texts(draw):
    """A valid file with one to three faults, each a different kind or in a different place."""
    data = draw(hamiltonian_data(min_modes=1))
    m = data["modes"]
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["t", "u"]))
        rows = data.setdefault(name, [])
        kind = draw(st.sampled_from(["index", "value", "short", "long", "repeat", "drop",
                                     "shift", "row", "particles", "magnitude", "list"]))
        if kind == "particles":
            data["particles"] = m + draw(st.integers(1, 3))
        elif kind == "magnitude" and isinstance(rows, list):
            a = draw(st.integers(1, m))
            rows.append([a, a, 1.5, 0] if name == "t" else [a, a + 1, a + 1, a, 1.5, 0])
        elif kind == "list":
            data[name] = draw(st.sampled_from([{}, "rows", 3, None]))
        elif isinstance(rows, list) and any(isinstance(r, list) and len(r) > 2 for r in rows):
            k = draw(st.sampled_from([k for k, r in enumerate(rows)
                                      if isinstance(r, list) and len(r) > 2]))
            row = rows[k]
            if kind == "index":
                row[draw(st.integers(0, len(row) - 3))] = draw(
                    st.sampled_from([*BAD_INDICES, m + 1]))
            elif kind == "value":
                pool = BAD_VALUES + T_VALUES if name == "t" else BAD_VALUES
                row[draw(st.sampled_from([-2, -1]))] = draw(st.sampled_from(pool))
            elif kind == "short":
                row.pop(draw(st.integers(0, len(row) - 1)))
            elif kind == "long":
                row.append(0)
            elif kind == "repeat":  # the same indices again, perhaps with another value
                rows.insert(draw(st.integers(0, len(rows))), [*row[:-2], draw(
                    st.sampled_from([row[-2], 0.25])), row[-1]])
            elif kind == "drop":  # a u row loses its partner, a t entry its transpose
                del rows[k]
            elif kind == "shift":  # t no longer Hermitian, or a u value off its partner's
                row[-1] = negated(row[-1]) if row[-1] else 0.5
            elif kind == "row":
                rows[k] = draw(st.sampled_from(["row", 3, None, {"a": 1}, [], [1] * 6]))
    return text_of(data)


@given(hamiltonian_data())
@settings(max_examples=300, deadline=None)
def test_valid_files_read_as_row_by_row(data):
    text = text_of(data)
    got = outcome(read_new, text)
    assert got == outcome(oracle.read, text)
    assert got[0][0] != "error"


@given(damaged_texts())
@settings(max_examples=600, deadline=None)
def test_damaged_files_fail_or_read_as_row_by_row(text):
    assert outcome(read_new, text) == outcome(oracle.read, text)


FAULTS = {
    "bool index": '{"modes": 2, "particles": 1, "t": [[true, 1, 0.5, 0]]}',
    "float index": '{"modes": 2, "particles": 1, "t": [[1, 1.0, 0.5, 0]]}',
    "2**70 index": '{"modes": 2, "particles": 1, "u": [[1, 2, 1180591620717411303424, 1, 0, 0]]}',
    "index 0": '{"modes": 2, "particles": 1, "t": [[0, 1, 0.5, 0]]}',
    "index M+1": '{"modes": 2, "particles": 1, "u": [[1, 2, 2, 3, 0.5, 0]]}',
    "string value": '{"modes": 2, "particles": 1, "t": [[1, 1, "0.5", 0]]}',
    "10**400 value": '{"modes": 1, "particles": 1, "t": [[1, 1, 0, 1' + "0" * 400 + "]]}",
    "1e400 value": '{"modes": 2, "particles": 1, "t": [[1, 1, 1e400, 0]]}',
    "NaN value": '{"modes": 3, "particles": 1, "u": [[1, 2, 2, 1, NaN, 0]]}',
    "short row": '{"modes": 2, "particles": 1, "u": [[1, 2, 2, 1, 0.5]]}',
    "repeated row": '{"modes": 2, "particles": 1, "t": [[1, 1, 0.5, 0], [1, 1, 0.5, 0]]}',
    "lone u row": '{"modes": 3, "particles": 1, "u": [[1, 2, 3, 1, 0.5, 0]]}',
    "non-Hermitian t": '{"modes": 2, "particles": 1, "t": [[1, 2, 0.5, 0.5], [2, 1, 0.5, 0.5]]}',
    "huge non-Hermitian t": ('{"modes": 2, "particles": 1, "t": [[1, 2, 1.7e308, 1.7e308], '
                             '[2, 1, -1.7e308, -1.7e308]]}'),  # overflows, as the oracle does
    "particles above modes": '{"modes": 2, "particles": 3}',
    "magnitude above 1": '{"modes": 2, "particles": 1, "t": [[2, 2, -1.5, 0]]}',
    # the first fault named: the u partner, then the index, then the repeat
    "several faults": ('{"modes": 3, "particles": 4, "t": [[1, 1, 0.5, 0], [1, 1, 2, 0], '
                       '[1, 2, 1, 1], [2, 1, 1, 1]], "u": [[1, 2, 3, 1, 1, 0], '
                       '[3, 3, 3, 4, 0, 0]]}'),
    "several faults after a good row": ('{"modes": 3, "particles": 1, "u": [[1, 2, 2, 1, 0, 0], '
                                        '[1, 2, 3, 1, 1, 0], [3, 1, 2, 1, NaN, 0]]}'),
}


@pytest.mark.parametrize("text", FAULTS.values(), ids=FAULTS)
def test_named_faults_give_the_row_by_row_outcome(text):
    assert outcome(read_new, text) == outcome(oracle.read, text)


def test_u_magnitude_past_the_float_range_warns():
    # the row-by-row check took abs() of each u value and raised OverflowError on a
    # finite value whose magnitude passes the float range; t's entries, read by numpy,
    # already warned with an infinite magnitude, and u's now do the same
    big = 1.7e308
    text = json.dumps({"modes": 3, "particles": 1,
                       "u": [[1, 2, 3, 1, big, big], [1, 3, 2, 1, big, -big]]})
    with pytest.raises(OverflowError):
        oracle.read(text)
    (result, caught) = outcome(read_new, text)
    assert result[-1] == [((1, 2, 3, 1), repr(complex(big, big))),
                          ((1, 3, 2, 1), repr(complex(big, -big)))]
    assert caught == [("UserWarning", "coefficient magnitude inf exceeds 1; the usual "
                       "energy-scale convention keeps all coefficients within [-1, 1]")]


@pytest.mark.parametrize("u, message", [
    ({(1, 2, 3): 0.5}, "bad interaction index tuple (1, 2, 3)"),
    ({(1, 2, 2, 1): 0.5, (1, 2, 3, 4, 5): 0.5}, "bad interaction index tuple (1, 2, 3, 4, 5)"),
    ({(1, 2, 2, 1): complex("nan")}, "interaction entry (1, 2, 2, 1) is (nan+0j), not finite"),
    ({(1, 2, 3, 1): 0.5, (1, 3, 2, 1): 0.25}, "interaction entry (1, 2, 3, 1) lacks a "
                                              "conjugate partner (1, 3, 2, 1)"),
    ({(1, 2, 2, 1): 0.5, (1.5, 2, 2, 1): 0.25, (3, 3, 3, 9): 1}, None),
    ({(np.int64(1), 2, 2, 1): np.complex64(0.5), (2, 1, 1, 2): 1}, None),
    ({(1, 2, 2, 1): "0.5"}, None),
    ({(1, 2, 2, 1): 0.5, (2, 1, 1, 2): 1, (1, 3, 3, 1): True}, None),
    ({(1, 2, 2, "x"): 0.5}, "invalid literal for int() with base 10: 'x'"),
    ({(1, 2, 2, 1): "x", (1, 2, 2, "x"): 0.5}, "complex() arg is a malformed string"),
    ({(1, 2, 2, 1): 0.5, "2332": 1}, None),
])
def test_constructor_checks_u_as_entry_by_entry(u, message):
    # direct construction: keys of other int types and values of other number
    # types are normalized, and the first bad entry in u's order is named
    t = np.zeros((3, 3))
    got = outcome(lambda _: read_new_constructed(t, u), None)
    assert got == outcome(lambda _: oracle.checked(3, 1, t, u), None)
    if message is not None:
        assert got[0] == ("error", message)


def read_new_constructed(t, u):
    h = FermionHamiltonian(3, 1, t, u)
    return h.modes, h.particles, h.t, h.u


def test_reading_holds_no_extra_copy_per_row():
    # the M=72 Hamiltonian of the wide digests: 2,592 t rows and 119 u rows in a
    # 192 KB text.  The row-by-row reader peaked at 3.82 times the text's size,
    # most of it json.loads' lists and floats; one more list of the rows' entries
    # (about 0.4 times) would pass 4.3
    text = spin_conserving(72, 72, 144).to_json()
    tracemalloc.start()
    try:
        h = FermionHamiltonian.from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.modes == 72 and len(h.u[0]) == 119
    assert peak < 4.3 * len(text)


def test_constructor_keeps_its_own_u():
    # u is kept as read-only arrays of the constructor's own, so the caller's
    # dict or arrays can change
    u = {(1, 2, 2, 1): 0.5 + 0j}
    h = FermionHamiltonian(2, 1, np.zeros((2, 2)), u)
    u[(1, 2, 2, 1)] = 7 + 0j
    u[(2, 1, 1, 2)] = 7 + 0j
    keys, values = h.u
    assert keys.tolist() == [[1, 2, 2, 1]] and values.tolist() == [0.5 + 0j]
    assert not keys.flags.writeable and not values.flags.writeable
    pair = (np.array([[2, 1, 1, 2], [1, 2, 2, 1]]), np.array([0.5 + 0j, 0.5 + 0j]))
    for given in (pair, h.u):
        kept = FermionHamiltonian(2, 1, np.zeros((2, 2)), given).u
        assert not any(np.shares_memory(a, b) for a in kept for b in given)
        assert not kept[0].flags.writeable and not kept[1].flags.writeable


@given(hamiltonian_data(), st.data())
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore:coefficient magnitude")
def test_u_in_any_order_is_kept_as_the_file_gives_it(data, draw):
    # a dict and a (keys, values) pair of the file's u rows, each in a drawn
    # order, give the arrays that from_json gives
    text = text_of(data)
    h = FermionHamiltonian.from_json(text)
    rows = json.loads(text).get("u", [])
    for form in ("dict", "pair"):
        shuffled = draw.draw(st.permutations(rows))
        if form == "dict":
            u = {tuple(row[:-2]): complex(*row[-2:]) for row in shuffled}
        else:
            u = (np.array([row[:-2] for row in shuffled], dtype=np.int64).reshape(-1, 4),
                 np.array([complex(*row[-2:]) for row in shuffled], dtype=complex))
        built = FermionHamiltonian(h.modes, h.particles, h.t, u)
        for got, want in ((built.u, h.u), (built.interactions, h.interactions)):
            assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
            assert got[0].tolist() == want[0].tolist()
            assert list(map(repr, got[1].tolist())) == list(map(repr, want[1].tolist()))
        assert not any(a.flags.writeable for a in (*built.u, *h.u))


def test_constructor_refuses_a_repeated_or_misshapen_pair():
    t = np.zeros((3, 3))
    keys = np.array([[1, 2, 3, 1], [1, 2, 2, 1], [1, 2, 2, 1]])
    with pytest.raises(ValueError, match=r"entry \(1, 2, 3, 1\) lacks a conjugate partner"):
        FermionHamiltonian(3, 1, t, (keys, np.full(3, 0.5)))
    with pytest.raises(ValueError, match=r"entry \(1, 2, 2, 1\) is given twice"):
        FermionHamiltonian(3, 1, t, (keys[1:], np.full(2, 0.5)))
    with pytest.raises(ValueError, match=r"bad interaction index tuple \(4, 2, 2, 1\)"):
        FermionHamiltonian(3, 1, t, ([[1, 2, 2, 1], [4, 2, 2, 1]], [0.5, np.nan]))
    with pytest.raises(ValueError, match=r"a \(K, 4\) key array and K values"):
        FermionHamiltonian(3, 1, t, (keys[:, :3], np.full(3, 0.5)))
    with pytest.raises(ValueError, match=r"a \(K, 4\) key array and K values"):
        FermionHamiltonian(3, 1, t, (keys, np.full(2, 0.5)))
