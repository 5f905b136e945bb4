"""Pauli sums on one packed-word layout at every width, against Python-int references.

A sum holds its masks as (terms, W) uint64 word matrices, W = max(1,
ceil(n / 64)), at every width.  The stages run here at widths on both sides
of each word boundary up to three words, and each result is compared with
the same stage on the masks as Python ints, coefficient reprs included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper import gf2
from fertaper.pauli import QubitHamiltonian, hamiltonian_from_text, hamiltonian_to_text
from fertaper.tapering import build_plan, clifford_transform, find_symmetries, taper_sectors
from tests.test_pauli import dict_merge, in_word_layout
from tests.test_tapering import per_term_clifford_transform, per_term_taper

WIDTHS = [0, 1, 63, 64, 65, 127, 128, 129, 130]
PARTS = st.sampled_from([0.0, -0.0, 1.0, -0.5, 1e-13]) | st.floats(-4, 4)


@st.composite
def terms(draw):
    """(n, xs, zs, cs): a few Paulis on n qubits, each repeated, in shuffled order."""
    n = draw(st.sampled_from(WIDTHS))
    top = (1 << n) - 1
    # whole words, single bits (those next to a word boundary among them) and any mask
    mask = (st.sampled_from([0, top, top >> 1, top ^ (top >> 1)]) | st.integers(0, top)
            | st.integers(0, max(n - 1, 0)).map(lambda p: (1 << p) & top))
    keys = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=5))
    rows = [(x, z, complex(draw(PARTS), draw(PARTS)))
            for x, z in keys for _ in range(draw(st.integers(1, 3)))]
    return n, *(list(column) for column in zip(*draw(st.permutations(rows))))


def as_ints(h: QubitHamiltonian):
    """A sum's masks as Python ints and its coefficients' reprs."""
    assert in_word_layout(h)
    return gf2.word_ints(h.x_masks), gf2.word_ints(h.z_masks), [repr(c) for c in h.coeffs.tolist()]


def text_of(n, xs, zs, cs) -> str:
    """The Pauli text of int masks and coefficients, one label letter at a time."""
    lines = [f"# qubits {n}"]
    for x, z, c in zip(xs, zs, cs):
        label = "".join("IXZY"[(x >> s & 1) | (z >> s & 1) << 1] for s in range(n - 1, -1, -1))
        lines.append(" ".join([f"{c.real:.17g}", f"{c.imag:.17g}", label][:3 if n else 2]))
    return "\n".join(lines) + "\n"


@given(terms(), PARTS, st.data())
@settings(max_examples=60, deadline=None)
def test_every_stage_matches_python_ints_at_every_width(case, factor, data):
    n, xs, zs, cs = case
    reprs = [repr(c) for c in cs]
    h = QubitHamiltonian.from_masks(n, xs, zs, cs)
    assert as_ints(h) == (xs, zs, reprs)
    canonical = QubitHamiltonian.merged(n, xs, zs, cs)
    want_x, want_z, want_c = dict_merge(n, xs, zs, cs)
    assert as_ints(canonical) == (want_x, want_z, [repr(c) for c in want_c])
    assert as_ints(h.canonicalize()) == as_ints(canonical)

    other = QubitHamiltonian.from_masks(n, xs[::-1], zs[::-1], cs[::-1])
    assert as_ints(h + other) == (xs + xs[::-1], zs + zs[::-1], reprs + reprs[::-1])
    # numpy's complex product, which can differ from Python's in the sign of an
    # underflowed zero part: the masks are under test here, not the product
    factor = complex(factor, 0.5)
    products = (np.array(cs, dtype=complex) * factor).tolist()
    assert as_ints(h.scaled(factor)) == (xs, zs, [repr(c) for c in products])

    text = hamiltonian_to_text(h)
    assert text == text_of(n, want_x, want_z, want_c)
    assert as_ints(hamiltonian_from_text(text)) == as_ints(canonical)

    plan = build_plan(find_symmetries(h), h)
    transformed = clifford_transform(h, plan)
    assert as_ints(transformed) == as_ints(per_term_clifford_transform(h, plan))
    sectors = [tuple(data.draw(st.sampled_from([1, -1])) for _ in range(plan.size))
               for _ in range(2)]
    for sector, tapered in taper_sectors(transformed, plan, sectors).items():
        assert as_ints(tapered) == as_ints(per_term_taper(transformed, plan, sector))
