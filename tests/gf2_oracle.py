"""Row elimination and bit packing spelled out, the oracles of gf2's one path.

``echelon`` and ``rref`` are the row-echelon eliminator that gf2 held beside
``kernel_basis`` until the column elimination came to serve rank, span and
the standard encodings' inverse; the tests judge ``kernel_basis`` against
them.  ``bits_int`` and ``drop_bits`` work on binary strings, not on the
words gf2 packs, so they share no code with what they check.
"""


def echelon(rows) -> dict[int, int]:
    """Row echelon basis of the span, keyed by each row's leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                break
            row ^= pivot
    return basis


def rref(rows, width: int) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form over GF(2) of int rows of the given width.

    Column c is bit width-1-c, so pivots are sought left to right.

    Returns:
        (nonzero reduced rows, their pivot columns), both in ascending
        pivot column order.
    """
    basis = echelon(rows)
    if basis and max(basis) >= width:
        raise ValueError(f"row wider than {width} bits")
    tops = sorted(basis)  # lowest pivot first: rows are cleared by reduced rows
    for k, top in enumerate(tops):
        for low in tops[:k]:
            if basis[top] >> low & 1:
                basis[top] ^= basis[low]
    tops.reverse()
    return [basis[t] for t in tops], [width - 1 - t for t in tops]


def bits_int(bits) -> int:
    """A bit sequence read as a binary string, first entry most significant."""
    return int("".join(str(int(b)) for b in bits) or "0", 2)


def drop_bits(value: int, positions) -> int:
    """value with the bits at the given positions (bit 0 the least significant)
    deleted from its binary string, the bits above each moving down."""
    low_first = bin(value)[2:][::-1]
    kept = [bit for pos, bit in enumerate(low_first) if pos not in set(positions)]
    return int("".join(reversed(kept)) or "0", 2)
