"""Line-by-line graph and parity-check readers, the distance matrix and
the numpy-indexed decoder: the oracles of the whole-file checks, of the
ball certificate and girth, and of the ball decoder.

``load_pcm``, ``load_graph``, ``check_graph`` and ``decode`` are
``codeword.load_pcm``, ``graphs.load_graph``,
``graphs.BipartiteGraph.__post_init__`` and ``graphs.GraphDecoder.decode``
as they were before the files came to be checked at once and the decoder
came to read Python lists: one check per row, line, token and edge, and a
decoder that reads the distance matrix one numpy entry at a time.
``path_lengths`` is the exact all-pairs matrix and girth that
``graphs`` built before girth, the certificate and the decoder came to
walk radius-N balls; ``decode`` reads its own copy of that matrix.

``check_graph`` returns ``(left, right, edges)`` rather than a
``BipartiteGraph``, so the new edge checks never run on it, and
``load_graph`` returns the same triple.  ``load_pcm`` keeps the old header
test, ``str.isdigit``, so it takes a header such as ``"² 3"`` for digits and
then fails in ``int()``; the reader now refuses such a header by name.
"""

import math

import numpy as np

from fertaper import gf2, limits
from fertaper.graphs import _link, min_weight_matching
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


def _neighbours(g) -> list[list[tuple[int, int]]]:
    """Each vertex's (neighbour, edge column) pairs, vertices 0-based, in edge order."""
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for col, (u, v) in enumerate(g.edges):
        nbrs[u - 1].append((v - 1, col))
        nbrs[v - 1].append((u - 1, col))
    return nbrs


def path_lengths(g) -> tuple[np.ndarray, float]:
    """Uncapped Q x Q int16 path lengths (Q where not connected) and the girth.

    A BFS from each unvisited vertex in turn grows a spanning forest, whose
    distances fill the matrix level by level: a root's row holds the BFS
    depths of its component, and any other vertex's row is its parent's
    plus one outside its own subtree and minus one inside it, the sign read
    off a Q x Q int8 ancestor mask.  Then _link adds the edges outside the
    forest.  Every cycle closes when the last of its edges is added, at one
    more than the distance that edge then spans, and that distance plus one
    is itself a cycle's length; so the girth is the least such value, or
    math.inf for a forest.
    """
    q = g.vertex_count
    neighbours = _neighbours(g)
    parent, depth, root = [-1] * q, [0] * q, [-1] * q
    by_depth: list[list[int]] = [[]]  # non-root vertices by depth, from 1
    in_tree = [False] * g.edge_count
    for start in range(q):
        if root[start] >= 0:
            continue
        root[start] = start
        queue = [start]
        for u in queue:
            for w, col in neighbours[u]:
                if root[w] < 0:
                    parent[w], depth[w], root[w] = u, depth[u] + 1, start
                    if depth[w] == len(by_depth):
                        by_depth.append([])
                    by_depth[depth[w]].append(w)
                    in_tree[col] = True
                    queue.append(w)
    parent = np.array(parent, dtype=np.intp)
    levels = [(np.array(ws), parent[ws]) for ws in by_depth[1:]]
    anc = np.ones((q, q), dtype=np.int8)  # anc[x, v]: -1 if v is x or an ancestor of x, else 1
    np.fill_diagonal(anc, -1)
    for lev, up in levels:
        anc[lev] = anc[up]
        anc[lev, lev] = -1
    dist = np.full((q, q), q, dtype=np.int16)
    dist[np.array(root, dtype=np.intp), np.arange(q)] = depth
    for lev, up in levels:
        dist[lev] = dist[up] + anc[:, lev].T
    np.minimum(dist, q, out=dist)  # rows of other components went past q, at most to 2q - 1
    best = math.inf
    for (u, v), tree in zip(g.edges, in_tree):
        if not tree:
            best = min(best, int(dist[u - 1, v - 1]) + 1)
            _link(dist, u - 1, v - 1)
    return dist, best


def _path(neighbours, dist, a: int, b: int) -> list[int]:
    cols = []
    while a != b:
        a, col = next(step for step in neighbours[a] if dist[step[0], b] < dist[a, b])
        cols.append(col)
    return cols


def decode(decoder, syndrome) -> np.ndarray | None:
    """decoder.decode(syndrome) on path_lengths' numpy matrix, entry by entry."""
    syndrome = gf2.asbits(syndrome)
    n, g = decoder.particles, decoder.graph
    if syndrome.shape != (g.vertex_count,):
        raise ValueError("syndrome length does not match vertex count")
    marked = np.flatnonzero(syndrome)
    if len(marked) > 2 * n:
        return None
    dist, neighbours = path_lengths(g)[0], _neighbours(g)
    reach = min(n, g.vertex_count - 1)
    weights = [[d if d <= reach else None for d in row]
               for row in dist[np.ix_(marked, marked)].tolist()]
    matched = min_weight_matching(weights)
    if matched is None or matched[0] != n:
        return None
    x = np.zeros(g.edge_count, dtype=np.uint8)
    for i, j in matched[1]:
        x[_path(neighbours, dist, marked[i], marked[j])] ^= 1
    chosen = np.flatnonzero(x)
    if len(chosen) != n:
        return None
    boundary = 0
    for col in chosen:
        boundary ^= decoder.edge_masks[col]
    if boundary != bits_int(syndrome):
        return None
    return x
