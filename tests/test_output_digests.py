"""Byte-level regression pins for the text and JSON the CLI writes.

The SHA-256 digests below were recorded from the tuple-based Pauli
implementation that the packed (x|z) masks replaced.  Any change to term
order, coefficient arithmetic (including signed zeros) or number
formatting in ``encode``, ``taper`` or ``firstq`` changes a digest.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fertaper.cli import main
from fertaper.fermion import FermionHamiltonian, random_hamiltonian

MODES = 8


def spin_conserving(seed: int) -> FermionHamiltonian:
    """Seeded M=8 instance that conserves each spin species (odd modes up)."""
    h = random_hamiltonian(MODES, 4, np.random.default_rng(seed), interaction_pairs=24)
    spin = np.arange(1, MODES + 1) % 2
    t = np.where(spin[:, None] == spin[None, :], h.t, 0)
    u = {k: v for k, v in h.u.items()
         if sorted((spin[k[0] - 1], spin[k[1] - 1])) == sorted((spin[k[2] - 1], spin[k[3] - 1]))}
    return FermionHamiltonian(MODES, 4, t, u)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# (encode text, taper text, taper report) per (map, seed)
ENCODE_TAPER_DIGESTS = {
    ("jw", 11): ("16b2ce3cafed28bfb16a1c8c92ffdb67fa4ded93c4b34a84b3689e75214dd860",
                 "40cc9719699f3deed6856e9c9367e1184a40bb07db9bf48b7b42f8a346ad90c1",
                 "0d50e9f2565ed01a8940ebeeb78a735741d482041d23c1c03ab6be2643fc941a"),
    ("jw", 12): ("5d22ca2e2ac6169cf60d817b2ed85a9fb0cc659de2c4fb8d916fbd18b397c437",
                 "f294318f263da645eedd9c72995dcf6c7e462aaa0c099678d553c726cd02daab",
                 "54e8549d4485c57c1ebc3f4ee9341fcb270d0f88e8bf8fba4d80e4c775d39849"),
    ("parity", 11): ("ae011e2b850b8d8c54cf11e0f83b3fffd0d1d2ea2746227cb55a441f1ff8e26d",
                     "05290631991bf9cc0ad084bd1dca312616d8b68ffe3ed776b3188789eb98c209",
                     "8c4f111070cb85476e476f6c89d4ce57fbd50e1686c9c337a7a19daf924dea1b"),
    ("parity", 12): ("b237270722c425612530e13badee4aff0e37d18d6bcd1b8974180e16c17419e8",
                     "3e70d8d8a3b88700749d14eb17942571c7d0c3fd2b4a3530743fc1a2d1b6068b",
                     "804a3b85cb15b0a1bfb75cc6fa61bced14aeca5bffcd03c58b1f8c6b4d8fc573"),
    ("bintree", 11): ("2cb83dfedac873d898ab8f6b8280fd4eeed965e6ff9df2e3250339dc01b9e69a",
                      "9b5d29c7685b509f145c23865806b6422ebef3756deef592fa70b5c7a17d1fda",
                      "8d75908e38e1bceb7e68fe2211d5fa09eac476a08989f31555fe9d03ef77c7ac"),
    ("bintree", 12): ("b71f31e0851c94d50682f5caf62531f8ab0b1b23c31ea4e0e79032a8577e3d48",
                      "f0c2027990fbae9c64c4fbac31b8fc6504e083f68f20ac7457420ecaf9feb6be",
                      "2fd7996487cc11743cebfeb11eaa11565594f85bc0d408c19861deaf6801b212"),
}

FIRSTQ_DIGEST = "768f115da945cc9f52ecd675ad6781d95388a3424bbf665f066db8e5ceb497a8"


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("mapping", ["jw", "parity", "bintree"])
def test_encode_and_taper_bytes(tmp_path, monkeypatch, mapping, seed):
    monkeypatch.chdir(tmp_path)  # relative paths: the report records its input path
    Path("h.json").write_text(spin_conserving(seed).to_json())
    assert main(["encode", "--input", "h.json", "--map", mapping, "--output", "q.txt"]) == 0
    assert main(["taper", "--input", "q.txt", "--output", "t.txt", "--report", "r.json"]) == 0
    got = tuple(digest(Path(name)) for name in ("q.txt", "t.txt", "r.json"))
    assert got == ENCODE_TAPER_DIGESTS[(mapping, seed)]


def test_firstq_bins_bytes(tmp_path):
    h = random_hamiltonian(MODES, 2, np.random.default_rng(13), interaction_pairs=6)
    (tmp_path / "h.json").write_text(h.to_json())
    out = tmp_path / "b.json"
    assert main(["firstq", "--input", str(tmp_path / "h.json"), "--emit-bins", str(out)]) == 0
    assert digest(out) == FIRSTQ_DIGEST
