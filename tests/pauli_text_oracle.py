"""Line-by-line Pauli text reader and writer, the oracles of the column ones.

These are ``pauli.hamiltonian_from_text`` and ``pauli.hamiltonian_to_text``
as they were before the text stages came to work on whole columns: one
``partition`` / ``split`` / ``float`` / mask parse per line, and one
f-string per term.  The only change is the header test, ``isdecimal()``
where it was ``isdigit()``, so that ``# qubits ²`` is a comment here too.
"""

import math

from fertaper import limits
from fertaper.pauli import _PHASE, QubitHamiltonian, _labels, _letter_masks, _split_label


def hamiltonian_to_text(h: QubitHamiltonian) -> str:
    """Serialize as lines "re im PAULISTRING" (canonical order)."""
    h = h.canonicalize()
    lines = [f"# qubits {h.qubit_count}"]
    sep = " " if h.qubit_count else ""  # on zero qubits the label is empty
    for coeff, label in zip(h.coeffs.tolist(), _labels(h.qubit_count, h.x_masks, h.z_masks)):
        lines.append(f"{coeff.real:.17g} {coeff.imag:.17g}{sep}{label}")
    return "\n".join(lines) + "\n"


def hamiltonian_from_text(text: str) -> QubitHamiltonian:
    """Parse the line format produced by :func:`hamiltonian_to_text`, a line at a time."""
    xs, zs, cs = [], [], []
    n = None
    for raw in text.splitlines():
        line, _, comment = raw.partition("#")
        parts = line.split()
        if not parts:
            words = comment.split()
            if len(words) == 2 and words[0] == "qubits" and words[1].isdecimal():
                n = _same_length(n, int(words[1]))
            continue
        if len(parts) == 2 and n == 0:
            parts.append("")
        if len(parts) != 3:
            raise ValueError(f"malformed Hamiltonian line: {raw!r}")
        re_c, im_c, label = parts
        prefix, letters = _split_label(label) if label else (0, "")
        n = _same_length(n, len(letters))
        x, z = _letter_masks(letters)
        re_v, im_v = float(re_c), float(im_c)
        if not (math.isfinite(re_v) and math.isfinite(im_v)):
            raise ValueError(f"Hamiltonian line {raw!r} has a coefficient that is not finite")
        coeff = complex(re_v, im_v)
        xs.append(x)
        zs.append(z)
        cs.append(coeff * _PHASE[prefix])
    if n is None:
        raise ValueError("no Pauli terms found")
    return QubitHamiltonian.from_masks(n, xs, zs, cs).canonicalize()


def _same_length(n: int | None, length: int) -> int:
    if length > limits.MODE_CAP:
        raise ValueError(f"Pauli file has {length} qubits, over the cap of {limits.MODE_CAP}")
    if n is not None and length != n:
        raise ValueError("inconsistent Pauli lengths in file")
    return length
