"""Line-by-line graph and parity-check readers and the numpy-indexed decoder,
the oracles of the whole-file checks and of the list-based decoder.

These are ``codeword.load_pcm``, ``graphs.load_graph``,
``graphs.BipartiteGraph.__post_init__`` and ``graphs.GraphDecoder.decode``
as they were before the files came to be checked at once and the decoder
came to read Python lists: one check per row, line, token and edge, and a
decoder that reads the distance matrix one numpy entry at a time.

``check_graph`` returns ``(left, right, edges)`` rather than a
``BipartiteGraph``, so the new edge checks never run on it, and
``load_graph`` returns the same triple.  ``load_pcm`` keeps the old header
test, ``str.isdigit``, so it takes a header such as ``"² 3"`` for digits and
then fails in ``int()``; the reader now refuses such a header by name.
"""

import numpy as np

from fertaper import gf2, limits
from fertaper.graphs import min_weight_matching
from tests.gf2_oracle import bits_int


def check_graph(left: frozenset, right: frozenset, edges):
    """The checks of BipartiteGraph's constructor, one frozenset per edge."""
    q = len(left) + len(right)
    if left & right:
        raise ValueError("left and right sides overlap")
    if set(range(1, q + 1)) != left | right:
        raise ValueError("vertices must be exactly 1..Q")
    seen = set()
    for u, v in edges:
        pair = frozenset((u, v))
        if len(pair) != 2:
            raise ValueError(f"self-loop at vertex {u}")
        if not ((u in left and v in right) or (v in left and u in right)):
            raise ValueError(f"edge {u}-{v} does not cross the bipartition")
        if pair in seen:
            raise ValueError(f"parallel edge {u}-{v}")
        seen.add(pair)
    return left, right, edges


def load_graph(path: str):
    """(left, right, edges) of a graph file, or the first error, line by line."""
    with open(path, encoding="utf-8") as fh:
        lines = [(k, ln.split()) for k, ln in enumerate(fh, 1) if ln.strip()]
    k, header = lines[0] if lines else (1, [])
    if len(header) != 3 or not all(t.isdecimal() for t in header):
        raise ValueError(f"graph file {path}, line {k}: the header must be "
                         "\"Q_left Q_right M\" in non-negative integers")
    ql, qr, m = map(int, header)
    try:
        limits.check_graph_vertices(ql + qr)
    except ValueError as err:
        raise ValueError(f"graph file {path}, line {k}: {err}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"graph file {path} has {len(lines) - 1} edge lines; "
                         f"its header says {m}")
    for k, ends in lines[1:]:
        if len(ends) != 2 or not all(t.isdecimal() and 1 <= int(t) <= ql + qr for t in ends):
            raise ValueError(f"graph file {path}, line {k}: an edge must be \"u v\" "
                             f"with vertices in 1..{ql + qr}")
    edges = tuple((int(u), int(v)) for _, (u, v) in lines[1:])
    try:
        return check_graph(frozenset(range(1, ql + 1)),
                           frozenset(range(ql + 1, ql + qr + 1)), edges)
    except ValueError as err:
        raise ValueError(f"graph file {path}: {err}") from None


def load_pcm(path: str) -> np.ndarray:
    """The 0/1 matrix of a parity-check file, or the first error, row by row."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"parity-check file {path} is empty")
    header = lines[0].split()
    if len(header) != 2 or not all(t.isdigit() for t in header):
        raise ValueError(f"parity-check file {path}: header {lines[0]!r} is not \"Q M\"")
    q, m = (int(t) for t in header)
    if len(lines) == 1:
        raise ValueError(f"parity-check file {path} has a header but no rows")
    if len(lines) - 1 > q:
        raise ValueError(f"parity-check file {path} has {len(lines) - 1} rows; "
                         f"its header says {q}")
    digits = []
    for r, ln in enumerate(lines[1:], 1):
        entries = ln.split() if " " in ln else ln
        if not {"0", "1"}.issuperset(entries):
            bad = next(c for c, d in enumerate(entries, 1) if d not in ("0", "1"))
            raise ValueError(f"parity-check file {path}: row {r}, column {bad} is "
                             f"{entries[bad - 1]!r}; entries must be 0 or 1")
        if len(entries) != m:
            raise ValueError(f"parity-check file {path}: row {r} has {len(entries)} "
                             f"entries; its header says {m}")
        digits.append("".join(entries))
    a = (np.frombuffer("".join(digits).encode(), dtype=np.uint8) - ord("0")).reshape(-1, m)
    if a.shape != (q, m):
        raise ValueError(f"parity-check body {a.shape} does not match header ({q}, {m})")
    return a


def _path(decoder, a: int, b: int) -> list[int]:
    dist = decoder.distances
    cols = []
    while a != b:
        a, col = next(step for step in decoder.neighbours[a] if dist[step[0], b] < dist[a, b])
        cols.append(col)
    return cols


def decode(decoder, syndrome) -> np.ndarray | None:
    """decoder.decode(syndrome) on the decoder's numpy matrix, entry by entry."""
    syndrome = gf2.asbits(syndrome)
    n = decoder.particles
    if syndrome.shape != (decoder.graph.vertex_count,):
        raise ValueError("syndrome length does not match vertex count")
    marked = np.flatnonzero(syndrome)
    if len(marked) > 2 * n:
        return None
    reach = min(n, decoder.graph.vertex_count - 1)
    weights = [[d if d <= reach else None for d in row]
               for row in decoder.distances[np.ix_(marked, marked)].tolist()]
    matched = min_weight_matching(weights)
    if matched is None or matched[0] != n:
        return None
    x = np.zeros(decoder.graph.edge_count, dtype=np.uint8)
    for i, j in matched[1]:
        x[_path(decoder, marked[i], marked[j])] ^= 1
    chosen = np.flatnonzero(x)
    if len(chosen) != n:
        return None
    boundary = 0
    for col in chosen:
        boundary ^= decoder.edge_masks[col]
    if boundary != bits_int(syndrome):
        return None
    return x
