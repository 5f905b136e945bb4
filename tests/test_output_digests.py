"""Byte-level regression pins for the text and JSON the CLI writes.

The SHA-256 digests below were recorded from the tuple-based Pauli
implementation that the packed (x|z) masks replaced.  Any change to term
order, coefficient arithmetic (including signed zeros) or number
formatting in ``encode``, ``taper`` or ``firstq`` changes a digest.
The ``graphgen`` digests were re-recorded once, when the greedy search
came to run its trials in lockstep on one stack of distance matrices: the
trials then share one random stream draw by draw, not trial after trial,
so a seed draws other graphs (31, 59, 111 and 16 edges here, against 31,
59, 107 and 16 before).  They were first recorded from the breadth-first
search generator that the capped distance matrix replaced; a seed must
keep drawing the same edges.
The ``graphtable`` digest was recorded before the greedy search's stacks of
at least 2Q trials came to be laid out trial-innermost in memory; every
stack of its 81 cells starts with 100 >= 2Q trials, so it pins that
layout, as the (48, 4, 30) and (96, 6, 4) ``graphgen`` digests pin the
vertex-innermost one.
The ``codesim`` digests were recorded from the dict decode table that the
sorted array table replaced; codeword numbering may change, the written
frames may not.
The per-shape ``firstq`` digests were recorded from the pure-Python
field arithmetic, orthogonal array and term binning that the lookup
tables and value arrays replaced.
The ``taper --report`` digests were re-recorded once, when the report
switched from listing the generators in ``find_symmetries`` order to the
plan's order, the order its sector signs follow.  They were re-recorded
a second time when sector energies came to be computed block by block
(the connected blocks of each tapered sector over its basis states), which
moves their last bits by at most 8e-15 here, and the report gained its
``generators_commute`` check; the encoded and tapered text digests did not
move.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fertaper import limits
from fertaper.cli import main
from fertaper.fermion import FermionHamiltonian, random_hamiltonian
from fertaper.graphs import BipartiteGraph, cycle_chord_graph, save_graph
from tests.conftest import u_dict

MODES = 8

# The greedy codes the codesim digests were recorded on, frozen as edge lists
# so that the digests pin simulator bytes, not the generator's draws:
# greedy_high_girth(10, 2, 50, 22) and greedy_high_girth(8, 2, 50, 0) as the
# one-trial-at-a-time search drew them.
CHECK_CODE = BipartiteGraph(
    frozenset(range(1, 6)), frozenset(range(6, 11)),
    ((1, 6), (1, 7), (2, 7), (2, 8), (2, 9), (3, 6), (3, 8), (3, 10), (4, 6), (4, 9),
     (5, 9), (5, 10)))
EMPTY_CODE = BipartiteGraph(
    frozenset(range(1, 5)), frozenset(range(5, 9)),
    ((1, 6), (1, 7), (1, 8), (2, 5), (2, 6), (3, 5), (3, 7), (4, 5), (4, 8)))


def spin_conserving(seed: int, modes: int = MODES, pairs: int = 24) -> FermionHamiltonian:
    """Seeded instance that conserves each spin species (odd modes up); M=8 by default."""
    h = random_hamiltonian(modes, 4, np.random.default_rng(seed), interaction_pairs=pairs)
    spin = np.arange(1, modes + 1) % 2
    t = np.where(spin[:, None] == spin[None, :], h.t, 0)
    u = {k: v for k, v in u_dict(h.u).items()
         if sorted((spin[k[0] - 1], spin[k[1] - 1])) == sorted((spin[k[2] - 1], spin[k[3] - 1]))}
    return FermionHamiltonian(modes, 4, t, u)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# (encode text, taper text, taper report) per (map, seed)
ENCODE_TAPER_DIGESTS = {
    ("jw", 11): ("16b2ce3cafed28bfb16a1c8c92ffdb67fa4ded93c4b34a84b3689e75214dd860",
                 "40cc9719699f3deed6856e9c9367e1184a40bb07db9bf48b7b42f8a346ad90c1",
                 "a3c306b9e2dc8aec443d9ab4a1b666ba11a5c59fbc0aad766886b8799a8cbb09"),
    ("jw", 12): ("5d22ca2e2ac6169cf60d817b2ed85a9fb0cc659de2c4fb8d916fbd18b397c437",
                 "f294318f263da645eedd9c72995dcf6c7e462aaa0c099678d553c726cd02daab",
                 "62899e612e0f6301bdd159ba46a5a9a4dbc8a3f79b5ee501d98bb3cfc121c2c4"),
    ("parity", 11): ("ae011e2b850b8d8c54cf11e0f83b3fffd0d1d2ea2746227cb55a441f1ff8e26d",
                     "05290631991bf9cc0ad084bd1dca312616d8b68ffe3ed776b3188789eb98c209",
                     "d1a95884796b2b078e9e56ce1fc354ec596c3167caa6b1f7fe252f1f633cc21e"),
    ("parity", 12): ("b237270722c425612530e13badee4aff0e37d18d6bcd1b8974180e16c17419e8",
                     "3e70d8d8a3b88700749d14eb17942571c7d0c3fd2b4a3530743fc1a2d1b6068b",
                     "c531460d2b6a7332ea039b9969496946a33ae69c475f3f9698e0612dca668a43"),
    ("bintree", 11): ("2cb83dfedac873d898ab8f6b8280fd4eeed965e6ff9df2e3250339dc01b9e69a",
                      "9b5d29c7685b509f145c23865806b6422ebef3756deef592fa70b5c7a17d1fda",
                      "72d9f301f03c709a74086cdac424851eb6e8808ba5f4490ced809b780f3fa93b"),
    ("bintree", 12): ("b71f31e0851c94d50682f5caf62531f8ab0b1b23c31ea4e0e79032a8577e3d48",
                      "f0c2027990fbae9c64c4fbac31b8fc6504e083f68f20ac7457420ecaf9feb6be",
                      "f952ea1dca66718a6c506a9e792beec959f72191f922dbc105085a2e271fc95f"),
}

# (encode text, taper --sector ++ text, taper report) per (map, modes, pairs), on
# spin_conserving(modes, modes, pairs) (M=16: 493 terms; M=72: 6010 terms,
# past the 64 qubits of one uint64 word; M=130: three words).  The M=16 and the
# JW M=72 digests were recorded from the per-term loops of encode, kernel_basis
# and clifford_transform that the mask-array stages replaced; the parity and
# binary-tree M=72 and every M=130 digest from the Python-int (object array)
# masks that sums held past 64 qubits before one word layout served every width.
WIDE_ENCODE_TAPER_DIGESTS = {
    ("jw", 16, 64): ("bd7fa4f72eb10d54d05c392bbb6f8c8e5d1586be7d5fd3c2076a9fad2395672c",
                 "19852d352584a6c35588ad0f1a3eadff0f0abaaf64321bc5c0b8cec1ff6adcab",
                 "0175d586bd67fa632792f248d94b8589310498cfcf555202a8dab3d5a750b869"),
    ("parity", 16, 64): ("8c68ccbeee109325939b36a5429800f51bec45df12a51e05edddb2d1e0c882e1",
                     "3261c5c1bc023d2b3dc26398e55e20859040d9a3eb26e091f4dbdb601854de5c",
                     "54c617a270fa1d58c259f8072c3541ae10561377b86b5db137eac62096b88541"),
    ("bintree", 16, 64): ("130cc7cd20bcf1ae0c812ec0b8d1f49d8e1f729305877d53fbb1a1f18ca01525",
                      "59602ec0d8afb946e3c3991025139dd0a2fbe0266d0066658768c4561f367ef1",
                      "a6b008a72770876a2948f50b22c44beab2b4d3f8397116896f9152448d5ac654"),
    ("jw", 72, 144): ("9e04f74844bba21bc76e7719488af9f71dbe8686107766de196e29947458bb45",
                 "2265bbe584d1ce2cb9cd4974a03cf81dadc185dc294461a408b56ff42de6353a",
                 "b3f749dc2c7bab058d9a2e8b5d9495a30a0a25fb27a6e8d057aae2c8b22490ef"),
    ("parity", 72, 144): ("9742185a48551ba758bc5a92d6f5ab951971397e4b50a53e22d4499f513b7210",
                     "343dc04fe4d1effeb3a37dcee00e61917f90d9b962ccc75a7750592021548220",
                     "7ddc09fac701d9faf4150262d37ad86699af36d492080d50bc9a5f1547808adf"),
    ("bintree", 72, 144): ("d8426e2552f29bc0f9b88f5b8070faf54b60b810e4b1d240c1d9cd87f067baf7",
                      "62a2077e07a09cfed898ebbe0fd62d69a65958389488e3b59e8181ba78c9e7a0",
                      "eb1e655af617130d7aae027c886abd7e848864968351410e33e105544de9e516"),
    ("jw", 130, 260): ("509c70f7c20d7c979c0360c448a92fa29881c4ca1dfc4c5d8ee54d73cf8c4132",
                  "283798ccc7690e23829b448112f1fda08c5fff273670166a4f8dc240351a0d5f",
                  "0580d4642c42d2bce4c5b34b3360fe78b5e368bcc2d964b2553c18d04a58dff2"),
    ("parity", 130, 260): ("7aeb192df7890b3033334150e2cf8fc2eb35ad9c7c8e185b06a654dadd53e2d1",
                      "55a1855f8d8739500a639b1021e0a3bcbbe49b698c832c8347c04357ed283db5",
                      "2393ea026453034ee04f4b24e60a6c267445745f3629af817bd40c4ace24a2b8"),
    ("bintree", 130, 260): ("503dc1c1e01b0f4e5ce05c5fadc72350bc37b9f6eef0290165d10b5ff3ef6850",
                       "636c3a9fd145f96c2f1c18029a6ecfc09b43eeb8f20611ebb611a678fc2c15d6",
                       "d1a1a92bec64fc9891c333ac84efb527f6912dacef40098498c96310d3b83caa"),
}

# (qubits, particles, trials, seed) -> graphgen output file
GRAPHGEN_DIGESTS = {
    (24, 3, 200, 11): "5659e3398f3dc4c6151b5d164accc85386892febc4e91dcf12c1575f1cb4e4cf",
    (48, 4, 30, 12): "b5babbe180e95b0eca10e3be81abc9b8d8576b4eb73418a8da7df0129b918495",
    (96, 6, 4, 13): "659d1d6e0a8dcafdd62b5f78516214ad2d2eeb35a957ac1ced970200ea5e1db2",
    (12, 2, 1000, 0): "925049d3b51526ba99156d6771c19c6e5a20ed484d880a367bc21f7c3705638b",
}

# graphtable --qmax 30 --nmax 3 --trials 100 --seed 0
GRAPHTABLE_DIGEST = "78345797cf1dba7b7dedd2b469486d6721185b0e7cda636c306149b8adbed7c6"

# codesim JSON: the Fig-3 code by --graph, a seeded Q=10 greedy code by --check
CODESIM_DIGESTS = {
    "graph": "dd30f8eb98030f58b1f73d4ed121f469da23d603c2e1cbaad9696a4e2a311f91",
    "check": "68818a4175a1d9b7176f2e4b5e69a947a135b9670084ca8a9fd28e9ba277e244",
}

# codesim JSON the digests above do not reach: the Fig-3 run of "graph" with the
# materialize cap at 11 (every diagonal "lazy"), a Hamiltonian with no terms
# on a Q=8 greedy code with --penalty 0 ("terms": []), and the "check" run
# with --penalty 2 (weight 2.0); recorded before codesim wrote its frames as
# one table
CODESIM_EDGE_DIGESTS = {
    "lazy": "8a888e9c53d0d32837709783a1bd489e8af8b5be7a6b544b150cfe15c3948057",
    "empty": "dcca858e0ddbf7f71830e4cb313fac49ce8e9d1ac5af9d2e057fb3ad9d3707e1",
    "penalty": "beb59e4bd1a718e1a94125945375822d879bd9fbf24c53144567aab7f7c117b2",
}

FIRSTQ_DIGEST = "768f115da945cc9f52ecd675ad6781d95388a3424bbf665f066db8e5ceb497a8"

# firstq --emit-bins per (modes, particles, seed), six interaction pairs each;
# M=5 pads to eight labels and M=16 needs GF(81)
FIRSTQ_SHAPE_DIGESTS = {
    (2, 2, 31): "b733fc457b7ab6e5185754e7295e28656b870b8a79009a1362091513776d20f8",
    (4, 3, 32): "795841bed2f7cc1297e16e83c4c895c6425fbeea77455db605078f1ae1bc6f41",
    (5, 2, 33): "6d3c0581eeed008f4ca97d0630a4e954bd9d09d74c640ff446a56f0748cce25f",
    (8, 3, 34): "d6bab60f56040bad99ffe789d080373740c84be10469b426fa3bf85f44e6a9d1",
    (8, 4, 35): "a790164b1a2d465f52aaf17235275bf0497f0d339ea0b57c3265c2cf4dc47f6f",
    (16, 3, 36): "5d44b1958f5aa9540a2dc277d17cd150b10390b8d6b941262b63dd1e21e26ce5",
}


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("mapping", ["jw", "parity", "bintree"])
def test_encode_and_taper_bytes(tmp_path, monkeypatch, mapping, seed):
    monkeypatch.chdir(tmp_path)  # relative paths: the report records its input path
    Path("h.json").write_text(spin_conserving(seed).to_json())
    assert main(["encode", "--input", "h.json", "--map", mapping, "--output", "q.txt"]) == 0
    assert main(["taper", "--input", "q.txt", "--output", "t.txt", "--report", "r.json"]) == 0
    got = tuple(digest(Path(name)) for name in ("q.txt", "t.txt", "r.json"))
    assert got == ENCODE_TAPER_DIGESTS[(mapping, seed)]


@pytest.mark.parametrize("spec", sorted(WIDE_ENCODE_TAPER_DIGESTS))
def test_wide_encode_and_taper_bytes(tmp_path, monkeypatch, spec):
    mapping, modes, pairs = spec
    monkeypatch.chdir(tmp_path)
    Path("h.json").write_text(spin_conserving(modes, modes, pairs).to_json())
    assert main(["encode", "--input", "h.json", "--map", mapping, "--output", "q.txt"]) == 0
    assert main(["taper", "--input", "q.txt", "--sector", "++", "--output", "t.txt",
                 "--report", "r.json"]) == 0
    got = tuple(digest(Path(name)) for name in ("q.txt", "t.txt", "r.json"))
    assert got == WIDE_ENCODE_TAPER_DIGESTS[spec]


def test_firstq_bins_bytes(tmp_path):
    h = random_hamiltonian(MODES, 2, np.random.default_rng(13), interaction_pairs=6)
    (tmp_path / "h.json").write_text(h.to_json())
    out = tmp_path / "b.json"
    assert main(["firstq", "--input", str(tmp_path / "h.json"), "--emit-bins", str(out)]) == 0
    assert digest(out) == FIRSTQ_DIGEST


@pytest.mark.parametrize("spec", sorted(FIRSTQ_SHAPE_DIGESTS))
def test_firstq_shape_bytes(tmp_path, spec):
    modes, particles, seed = spec
    h = random_hamiltonian(modes, particles, np.random.default_rng(seed), interaction_pairs=6)
    (tmp_path / "h.json").write_text(h.to_json())
    out = tmp_path / "b.json"
    assert main(["firstq", "--input", str(tmp_path / "h.json"), "--emit-bins", str(out)]) == 0
    assert digest(out) == FIRSTQ_SHAPE_DIGESTS[spec]


@pytest.mark.parametrize("spec", sorted(GRAPHGEN_DIGESTS))
def test_graphgen_bytes(tmp_path, spec):
    out = tmp_path / "g.graph"
    argv = ["graphgen", "--out", str(out)]
    for flag, value in zip(("--qubits", "--particles", "--trials", "--seed"), spec):
        argv += [flag, str(value)]
    assert main(argv) == 0
    assert digest(out) == GRAPHGEN_DIGESTS[spec]


def test_graphtable_bytes(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["graphtable", "--qmax", "30", "--nmax", "3", "--trials", "100", "--seed", "0",
                 "--out", str(out)]) == 0
    assert digest(out) == GRAPHTABLE_DIGEST


def codesim_inputs(tmp_path, kind: str) -> list[str]:
    """codesim arguments for the seeded "graph" and "check" runs, output o.json."""
    if kind == "graph":
        code = tmp_path / "g.graph"
        save_graph(cycle_chord_graph(8, 2), str(code))
        modes, seed = 16, 21
    else:
        a = CHECK_CODE.incidence_matrix()
        code = tmp_path / "a.pcm"
        np.savetxt(code, a, fmt="%d", header="%d %d" % a.shape, comments="")
        modes, seed = a.shape[1], 23
    h = random_hamiltonian(modes, 2, np.random.default_rng(seed), interaction_pairs=6)
    (tmp_path / "h.json").write_text(h.to_json())
    return ["codesim", f"--{kind}", str(code), "--input", str(tmp_path / "h.json"),
            "--output", str(tmp_path / "o.json")]


@pytest.mark.parametrize("kind", sorted(CODESIM_DIGESTS))
def test_codesim_bytes(tmp_path, kind):
    assert main(codesim_inputs(tmp_path, kind)) == 0
    assert digest(tmp_path / "o.json") == CODESIM_DIGESTS[kind]


def test_codesim_lazy_bytes(tmp_path, monkeypatch):
    # 1000 entries hold Fig-3's 120 codewords but not its diagonals
    monkeypatch.setattr(limits, "TABLE_ENTRY_BUDGET", 1000)
    assert main(codesim_inputs(tmp_path, "graph")) == 0
    assert digest(tmp_path / "o.json") == CODESIM_EDGE_DIGESTS["lazy"]


def test_codesim_empty_bytes(tmp_path):
    code = tmp_path / "g.graph"
    save_graph(EMPTY_CODE, str(code))
    (tmp_path / "h.json").write_text(json.dumps({"modes": 9, "particles": 2}))
    out = tmp_path / "o.json"
    assert main(["codesim", "--graph", str(code), "--input", str(tmp_path / "h.json"),
                 "--penalty", "0", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["terms"] == []
    assert digest(out) == CODESIM_EDGE_DIGESTS["empty"]


def test_codesim_penalty_bytes(tmp_path):
    assert main(codesim_inputs(tmp_path, "check") + ["--penalty", "2"]) == 0
    assert 2.0 in [t["weight"] for t in json.loads((tmp_path / "o.json").read_text())["terms"]]
    assert digest(tmp_path / "o.json") == CODESIM_EDGE_DIGESTS["penalty"]


def reversed_u(text: str) -> str:
    """A Hamiltonian JSON text with its u rows in reverse order."""
    data = json.loads(text)
    data["u"].reverse()
    return json.dumps(data, indent=1)


# the CLI runs of each order case, and the files they write
ROW_ORDER_RUNS = {
    "firstq": ([["firstq", "--input", "h.json", "--emit-bins", "b.json"]], ["b.json"]),
    "encode_taper": ([["encode", "--input", "h.json", "--map", "jw", "--output", "q.txt"],
                      ["taper", "--input", "q.txt", "--output", "t.txt", "--report", "r.json"]],
                     ["q.txt", "t.txt", "r.json"]),
    "codesim": ([["codesim", "--graph", "g.graph", "--input", "h.json", "--output", "o.json"]],
                ["o.json"]),
}


@pytest.mark.parametrize("case", sorted(ROW_ORDER_RUNS))
def test_u_row_order_leaves_the_output_bytes(tmp_path, monkeypatch, case):
    # the same Hamiltonian, its u rows as to_json writes them and reversed; codesim
    # on the Fig-3 code already sorted its terms, and guards that it still does
    if case == "codesim":
        h = random_hamiltonian(16, 2, np.random.default_rng(21), interaction_pairs=6)
    else:
        h = spin_conserving(11, 8, 24) if case == "firstq" else spin_conserving(7, 12, 60)
    texts = (h.to_json(), reversed_u(h.to_json()))
    assert texts[0] != texts[1]
    runs, written = ROW_ORDER_RUNS[case]
    outputs = []
    for order, text in zip(("written", "reversed"), texts):
        (tmp_path / order).mkdir()
        monkeypatch.chdir(tmp_path / order)  # relative paths: the taper report records its input
        Path("h.json").write_text(text)
        save_graph(cycle_chord_graph(8, 2), "g.graph")
        for argv in runs:
            assert main(argv) == 0
        outputs.append([Path(name).read_bytes() for name in written])
    assert outputs[0] == outputs[1]


# A hand-written Pauli file as a person might type it: phase prefixes, trailing
# comments, CRLF line ends, tabs, a repeated Pauli, the header after some terms
# and the terms out of order.  The digests (taper text, taper report) were
# recorded from the line-by-line reader that the column reader replaced.
UNTIDY_PAULI = (
    "# H2-like sum on four qubits, typed by hand\r\n"
    "\r\n"
    "0.1712\t0\t-1ZIII   # negated by its prefix\r\n"
    "  -0.2228 0 IIZI\r\n"
    "0.1686 0.0 +ZZII\r\n"
    "0 -0.0453 +iXXYY  # i times -0.0453i\r\n"
    "0.0453 0 -YYXX\t# - flips the sign\r\n"
    "# qubits 4\r\n"
    "-0.0453 0 +1XYYX\r\n"
    "\t-0.0453   0   YXXY\r\n"
    "0.1205 0 ZIZI\r\n"
    "0.1659 0 ZIIZ\r\n"
    "0.1659 0 IZZI\r\n"
    "0.1205 0 IZIZ\r\n"
    "0.1743 0 IIZZ\r\n"
    "-0.8105 0 IIII # identity\r\n"
    "0.1712 0 IZII\r\n"
    "-0.2228 0 IIIZ\r\n"
    "0.3424 0 ZIII  # with the -1ZIII line above: 0.1712\r\n"
)
UNTIDY_TAPER_DIGESTS = ("e0b766004e8a1eed7980e60d6d70cf575c55a3c910927c65413bd5b8b42b153c",
                        "248e6abce22a06136b2795d2908efa003d0b562160d89c1fbd851ea23fa93a7a")


def test_untidy_pauli_file_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("q.txt").write_bytes(UNTIDY_PAULI.encode("ascii"))
    assert main(["taper", "--input", "q.txt", "--output", "t.txt", "--report", "r.json"]) == 0
    assert (digest(Path("t.txt")), digest(Path("r.json"))) == UNTIDY_TAPER_DIGESTS


def mode_cap_chain() -> str:
    """Hamiltonian JSON at limits.MODE_CAP modes: a nearest-neighbour hopping chain
    and one pair hop, (1, M, M-1, 2) with its conjugate, across the whole register."""
    m = limits.MODE_CAP
    t = [row for j in range(1, m) for row in ([j, j + 1, -1.0, 0.0], [j + 1, j, -1.0, 0.0])]
    u = [[1, m, m - 1, 2, 0.25, 0.5], [2, m - 1, m, 1, 0.25, -0.5]]
    return json.dumps({"modes": m, "particles": 2, "t": t, "u": u})


# encode text per map at M = limits.MODE_CAP (1024 qubits, 17 mask words), on
# mode_cap_chain(); recorded from the row-echelon inverse of the encoding matrix
# that kernel_basis replaced
MODE_CAP_ENCODE_DIGESTS = {
    "jw": "e8067969cfa74fa913376546fe3c5738caaa1eb6d836e45afb3d0718638e72d4",
    "parity": "34d63cf60852d4035f98a4d2560c1045e58cb6f40c869f0082f0d3de9bb90751",
    "bintree": "0b138fc0924f664197e2585d427b3dee550cffe67075f2fd725e3c41dc5f181c",
}


@pytest.mark.parametrize("mapping", sorted(MODE_CAP_ENCODE_DIGESTS))
def test_mode_cap_encode_bytes(tmp_path, mapping):
    (tmp_path / "h.json").write_text(mode_cap_chain())
    out = tmp_path / "q.txt"
    assert main(["encode", "--input", str(tmp_path / "h.json"), "--map", mapping,
                 "--output", str(out)]) == 0
    assert digest(out) == MODE_CAP_ENCODE_DIGESTS[mapping]
