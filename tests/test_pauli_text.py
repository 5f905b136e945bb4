"""The column Pauli text reader and writer against their line-by-line oracles.

Random valid texts (phase prefixes, comments, blank lines, every kind of
line break, tabs and other whitespace, the header before, among or after
the terms or absent) must read to the same sum; single-character damage to
them (or an inserted "nan" or "inf") must give the same ValueError message
or the same sum; and random sums, canonical or marked canonical as they
are, must write the same bytes.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper.cli import MAP_NAMES
from fertaper.pauli import QubitHamiltonian, hamiltonian_from_text, hamiltonian_to_text
from fertaper.standard_maps import build_encoding, encode_hamiltonian
from tests import pauli_text_oracle as oracle
from tests.test_output_digests import spin_conserving

PREFIXES = ["", "+", "+1", "+i", "i", "-1", "-", "-i"]
# str.splitlines breaks at each of these; str.split cuts at each gap, and "\x1f"
# and "\xa0" are whitespace that does not break a line
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"]
GAPS = [" ", "\t", "  ", " \t ", "\x1f", "\xa0"]
SPELLINGS = ["0", "-0", "+0.5", ".5", "5.", "1E-3", "1_0", "1e308", "-1e308", "5e-324",
             "0.1", "0.30000000000000004", "١"]
COMMENTS = ["#", "# note", "# qubits abc", "# qubits ²", "#qubits", "# qubits 3 4"]
# what an edit puts in: one character, or a word that float() reads as not finite
EDIT_CHARS = [*"IXYZQ+-i1059.e_#anf \t\n\r\x0c\x1f²É", "nan", "inf"]
VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1 + 0.2,
          0.1, 1 / 3, 1.0, -1.0, 1e-12, float("nan"), float("inf"), -float("inf")]


def outcome(read, text):
    """The sum a reader gives as comparable data, or the message of its ValueError."""
    try:
        h = read(text)
    except ValueError as err:
        return "error", str(err)
    return (h.qubit_count, h.x_masks.dtype, h.x_masks.tolist(), h.z_masks.tolist(),
            [repr(c) for c in h.coeffs.tolist()])


def written(write, h):
    """The text a writer gives, or the message of its ValueError (a sum that is not finite)."""
    try:
        return write(h)
    except ValueError as err:
        return "error", str(err)


def coefficient_words():
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    spelled = st.tuples(floats, st.sampled_from(["{!r}", "{:.17g}", "{:e}", "{:+.3f}"]))
    return st.one_of(st.sampled_from(SPELLINGS), spelled.map(lambda p: p[1].format(p[0])))


def gap():
    return st.sampled_from(GAPS)


@st.composite
def pauli_texts(draw):
    """A text that the line-by-line reader accepts, up to a coefficient sum overflowing."""
    n = draw(st.integers(0, 130))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        words = [draw(coefficient_words()), draw(coefficient_words())]
        if n:
            words.append(draw(st.sampled_from(PREFIXES))
                         + draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)))
        line = draw(st.sampled_from(["", " ", "\t"])) + "".join(
            word + draw(gap()) for word in words[:-1]) + words[-1]
        if draw(st.booleans()):
            line += draw(gap()) + draw(st.sampled_from(COMMENTS))
        lines.append(line)
    for _ in range(draw(st.integers(0, 3))):  # comment and blank lines anywhere
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " \t", *COMMENTS])))
    # on zero qubits a header must come first; otherwise before, among, after or absent
    where = 0 if n == 0 else draw(st.sampled_from([0, None, len(lines),
                                                   draw(st.integers(0, len(lines)))]))
    if where is not None:
        header = draw(st.sampled_from(["# qubits {}", "#qubits\t{}", "  #  qubits {}  "]))
        lines.insert(where, header.format(n))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text if draw(st.booleans()) else text.rstrip("".join(LINE_BREAKS))


@given(pauli_texts())
@settings(max_examples=300, deadline=None)
def test_valid_texts_read_as_line_by_line(text):
    assert outcome(hamiltonian_from_text, text) == outcome(oracle.hamiltonian_from_text, text)


@given(pauli_texts(), st.data())
@settings(max_examples=500, deadline=None)
def test_damaged_texts_fail_or_read_as_line_by_line(text, data):
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        char = data.draw(st.sampled_from(EDIT_CHARS))
        if edit == "insert" or at == len(text):
            text = text[:at] + char + text[at:]
        elif edit == "replace":
            text = text[:at] + char + text[at + 1:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    assert outcome(hamiltonian_from_text, text) == outcome(oracle.hamiltonian_from_text, text)


@st.composite
def sums(draw):
    n = draw(st.integers(0, 130))
    parts = st.one_of(st.sampled_from(VALUES), st.floats(width=64))
    pool = draw(st.lists(st.tuples(parts, parts), min_size=1, max_size=4))  # repeated values
    terms = draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1),
                                    st.one_of(st.sampled_from(pool), st.tuples(parts, parts))),
                          max_size=12))
    return QubitHamiltonian.from_masks(
        n, [x for x, _, _ in terms], [z for _, z, _ in terms],
        [complex(*c) for _, _, c in terms], canonical=draw(st.booleans()))


@given(sums())
@settings(max_examples=300, deadline=None)
def test_written_bytes_match_line_by_line(h):
    assert written(hamiltonian_to_text, h) == written(oracle.hamiltonian_to_text, h)


def test_first_bad_line_is_named():
    text = "# qubits 2\n1 0 XX\nnan 0 ZZ\n1 0 Q\n1 0 ZZZ\n"
    with pytest.raises(ValueError, match="'nan 0 ZZ' has a coefficient that is not finite"):
        hamiltonian_from_text(text)
    text = "1 0 XX\n# qubits 3\n1 0 ZQ\n"  # the header is refused before the bad label
    with pytest.raises(ValueError, match="inconsistent"):
        hamiltonian_from_text(text)
    with pytest.raises(ValueError, match="'1 -inf ZZ' has a coefficient that is not finite"):
        hamiltonian_from_text("1 0 XX\n1 -inf ZZ\n1 0 ZZZ\n")
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        hamiltonian_from_text("1 0 XX\nnan x ZZ\n")  # both words are parsed before the check


def test_non_decimal_count_is_a_comment():
    # "²" passes str.isdigit(), but int() refuses it: the header is a comment,
    # as "# qubits abc" is
    assert hamiltonian_from_text("# qubits ²\n1 0 ZZ\n").qubit_count == 2
    assert oracle.hamiltonian_from_text("# qubits ²\n1 0 ZZ\n").qubit_count == 2
    for comment in ("# qubits ²", "# qubits abc"):
        with pytest.raises(ValueError, match="no Pauli terms found"):
            hamiltonian_from_text(comment + "\n")


def test_reading_holds_no_extra_copy_per_row():
    # the M=72 JW sum of the wide digest: 6010 terms of 72 letters, object masks.
    # The line-by-line reader peaked at 3.4 times the text's size, and the
    # column reader at 4.7 times, when it holds the lines and their split rows
    # at once.  One more copy of the lines (1.6 times) or of the words (2.1
    # times) would pass 5.5
    text = hamiltonian_to_text(encode_hamiltonian(spin_conserving(72, 72, 144),
                                                  build_encoding(MAP_NAMES["jw"], 72)))
    tracemalloc.start()
    try:
        h = hamiltonian_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(h) == 6010 and h.qubit_count == 72
    assert peak < 5.5 * len(text)
