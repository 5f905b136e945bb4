"""Row-by-row Hamiltonian JSON reader, the oracle of the column one.

This is ``fermion.FermionHamiltonian.from_json`` with its ``_json_rows``
and the checks of ``FermionHamiltonian.__post_init__`` as they were before
they came to work on whole columns: one Python check per row, key and
entry.  ``read`` returns what the constructor would hold, ``(modes,
particles, t, u)``, instead of a ``FermionHamiltonian``, so the column
checks never run on it.
"""

import cmath
import json
import sys
import warnings

import numpy as np

from fertaper import limits


def read(text: str):
    """(modes, particles, t, u) of a Hamiltonian JSON text, or the first error."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("Hamiltonian JSON must be an object")
    for key in ("modes", "particles"):
        if key not in data:
            raise ValueError(f"Hamiltonian JSON lacks the required key {key!r}")
        if type(data[key]) is not int or data[key] < 0:
            raise ValueError(f"Hamiltonian JSON {key!r} is {json.dumps(data[key])}, "
                             "not a non-negative integer")
    m = data["modes"]
    if m > limits.MODE_CAP:
        raise ValueError(f"Hamiltonian JSON 'modes' is {m}, over the cap of "
                         f"{limits.MODE_CAP} modes")
    t = np.zeros((m, m), dtype=complex)
    for (a, b), value in _json_rows(data, "t", "[a, b, re, im]", m).items():
        t[a - 1, b - 1] = value
    u = _json_rows(data, "u", "[a, b, g, d, re, im]", m)
    return checked(m, data["particles"], t, u)


def checked(modes: int, particles: int, t, u: dict):
    """The checks and conversions of the constructor, entry by entry."""
    t = np.asarray(t, dtype=complex)
    if t.shape != (modes, modes):
        raise ValueError(f"t must be {modes}x{modes}")
    bad = np.argwhere(~np.isfinite(t))
    if len(bad):
        a, b = bad[0] + 1
        raise ValueError(f"one-body entry ({a}, {b}) is {t[a - 1, b - 1]}, not finite")
    if not np.allclose(t, t.conj().T, atol=1e-12):
        raise ValueError("one-body tensor is not Hermitian")
    u = {tuple(int(i) for i in k): complex(v) for k, v in u.items()}
    for key, value in u.items():
        if len(key) != 4 or not all(1 <= i <= modes for i in key):
            raise ValueError(f"bad interaction index tuple {key}")
        if not cmath.isfinite(value):
            raise ValueError(f"interaction entry {key} is {value}, not finite")
        partner = (key[3], key[2], key[1], key[0])
        if partner not in u or abs(u[partner] - value.conjugate()) > 1e-12:
            raise ValueError(
                f"interaction entry {key} lacks a conjugate partner {partner}"
            )
    if not 0 <= particles <= modes:
        raise ValueError("particle count outside 0..modes")
    top = max(
        [abs(x) for x in np.ravel(t)] + [abs(v) for v in u.values()], default=0.0
    )
    if top > 1 + 1e-9:
        warnings.warn(
            f"coefficient magnitude {float(top)!r} exceeds 1; the usual energy-scale "
            "convention keeps all coefficients within [-1, 1]",
            stacklevel=2,
        )
    return modes, particles, t, u


def _json_rows(data: dict, name: str, shape: str, modes: int) -> dict[tuple, complex]:
    """The t or u rows as mode indices -> coefficient; JSON integers load as type int."""
    rows = data.get(name, [])
    if not isinstance(rows, list):
        raise ValueError(f"Hamiltonian JSON {name!r} is not a list of {shape} rows")
    out: dict[tuple, complex] = {}
    for row in rows:
        problem = None
        if not isinstance(row, list) or len(row) != shape.count(",") + 1:
            problem = f"is not {shape}"
        elif not all(type(i) is int and 1 <= i <= modes for i in row[:-2]):
            problem = f"has a mode index that is not an integer in 1..{modes}"
        elif not all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max
                     for v in row[-2:]):
            problem = "has an re or im that is not a real number in the float range"
        if problem:
            raise ValueError(f"Hamiltonian JSON {name} row {json.dumps(row)} {problem}")
        key = tuple(row[:-2])
        if key in out:
            raise ValueError(f"Hamiltonian JSON repeats the {name} row {list(key)}")
        out[key] = complex(*row[-2:])
    return out
