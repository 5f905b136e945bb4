"""High-girth bipartite graphs as parity-check matrices.

The incidence matrix of a bipartite graph has column weight two with one
endpoint on each side, so it encodes weight-N occupation vectors whenever
the girth is at least 2N+2.  This module generates such graphs (a
cycle-with-chords family and a randomized greedy search), measures girth,
and decodes syndromes by pairing syndrome vertices with shortest paths
through a minimum-weight perfect matching.

Girth, the weight-N certificate and decoding are local, and one BFS
serves all three: _ball walks out from a vertex to a radius and gives
each reached vertex's depth and parent edge, and the first depth at which
some vertex is reached twice.  The girth is 2N+2 or more exactly when no
ball of radius N reaches a vertex twice, and the decoder reads only
distances up to N and the paths between them, so none of them builds a
Q x Q table.  Only the greedy search holds distance matrices: its trials
link every edge they draw, with _link, into a stack of Q x Q matrices
capped at _far.  One dict of {neighbour: edge column} per vertex, in edge
order, serves the balls and two-colouring.  The incidence matrix's
columns are the edges' vertex masks, vertex 1 most significant.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from fertaper import gf2, limits


@dataclass(frozen=True)
class BipartiteGraph:
    """Vertices 1..Q split into two sides; edges only across the split.

    The edge tuple fixes the column order of the incidence matrix.
    """

    left: frozenset
    right: frozenset
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        q = len(self.left) + len(self.right)
        if self.left & self.right:
            raise ValueError("left and right sides overlap")
        if set(range(1, q + 1)) != self.left | self.right:
            raise ValueError("vertices must be exactly 1..Q")
        side = dict.fromkeys(self.left, 0) | dict.fromkeys(self.right, 1)
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if side.get(u, 2) + side.get(v, 2) != 1:  # a non-vertex is on neither side
                raise ValueError(f"edge {u}-{v} does not cross the bipartition")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ValueError(f"parallel edge {u}-{v}")
            seen.add(pair)

    @property
    def vertex_count(self) -> int:
        return len(self.left) + len(self.right)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_masks(self) -> tuple[int, ...]:
        """Each edge's two endpoints as a vertex mask, vertex 1 most significant:
        the incidence matrix's columns, packed as the Pauli masks are."""
        q = self.vertex_count
        return tuple((1 << (q - u)) | (1 << (q - v)) for u, v in self.edges)

    def incidence_matrix(self) -> np.ndarray:
        return gf2.unpack_ints(self.edge_masks(), self.vertex_count).T


def _neighbours(q: int, edges) -> list[dict[int, int]]:
    """Each vertex's {neighbour: edge column}, vertices 0-based, in edge order."""
    nbrs: list[dict[int, int]] = [{} for _ in range(q)]
    for col, (u, v) in enumerate(edges):
        nbrs[u - 1][v - 1] = col
        nbrs[v - 1][u - 1] = col
    return nbrs


def _far(n: int, q: int) -> int:
    """Least distance at which an edge may join two of q vertices in a
    weight-n code, 2n+1: joining vertices that far apart closes no cycle
    shorter than 2n+2.  At n = 0 it is 2, so that edges still differ from
    non-edges.  It is at most q, which no path on q vertices is long
    enough to reach, so the cap still tells a path from no path."""
    return min(max(2 * n + 1, 2), q)


def _unlinked(q: int, cap: int) -> np.ndarray:
    dist = np.full((q, q), cap, dtype=np.int16)
    np.fill_diagonal(dist, 0)
    return dist


def _link(dist: np.ndarray, a, b) -> None:
    """Add edge (a, b), 0-based, to a capped distance matrix in place; on a
    (T, Q, Q) stack, add edge (a[t], b[t]) to each matrix dist[t].

    A shortest x-y path that uses the new edge runs x..a-b..y or x..b-a..y,
    one pass each.  Row a is copied first, as the first pass can shorten
    it; row b it leaves as it was.  Taking the minimum with the old
    entries keeps every entry within the cap.  A stack laid out with the
    trial axis innermost (see _lockstep) gets its rows copied trial-
    innermost too, so that the outer sums and minima run over Q^2 rows of
    T contiguous entries, not T*Q rows of Q.
    """
    if dist.ndim == 3:
        t = np.arange(len(dist))
        via_a, via_b = dist[t, a] + 1, dist[t, b]
        if dist.strides[0] < dist.strides[2]:
            via_a, via_b = np.asfortranarray(via_a), np.asfortranarray(via_b)
    else:
        via_a, via_b = dist[a] + 1, dist[b]
    np.minimum(dist, via_a[..., :, None] + via_b[..., None, :], out=dist)
    np.minimum(dist, via_b[..., :, None] + via_a[..., None, :], out=dist)


def _ball(neighbours, source: int, radius) -> tuple[dict[int, tuple[int, int, int]], float]:
    """BFS from source out to radius over _neighbours lists: {vertex: (depth,
    parent, parent edge column)} within radius, the source (0, -1, -1), and
    the first depth at which some vertex is reached twice, or math.inf.

    A parent edge is the vertex's lowest-numbered edge one step nearer the
    source.  A vertex reached twice at depth d ends two paths from the
    source, which hold a cycle of length at most 2d; a cycle of length 2L
    through the source reaches a vertex twice by depth L.
    """
    found = {source: (0, -1, -1)}
    frontier = [source]
    twice = math.inf
    depth = 0
    while frontier and depth < radius:
        depth += 1
        reached = []
        for u in frontier:
            for w, col in neighbours[u].items():
                seen = found.get(w)
                if seen is None:
                    found[w] = (depth, u, col)
                    reached.append(w)
                elif seen[0] == depth:  # w is reached twice; one two levels up was counted at u
                    twice = min(twice, depth)
                    if col < seen[2]:
                        found[w] = (depth, u, col)
        frontier = reached
    return found, twice


def _half_girth(g: BipartiteGraph, neighbours, radius) -> float:
    """Half the girth of g when it is at most radius, else math.inf: the
    least depth at which a ball from a vertex on the smaller side reaches a
    vertex twice, as every cycle has vertices on both sides.

    Each source leaves a copy of neighbours after its ball, as any shorter
    cycle through it has been seen, and so in turn does every vertex then on
    no cycle (one neighbour or none).  Later balls stop short of the best
    depth so far, and a bound below 2 ends the search: no bipartite cycle is
    shorter than 4.  On a 2048-cycle that takes 1.2 ms, against 0.64 s for
    balls from all 1,024 sources on the whole cycle (2-core x86_64 VM).
    """
    rest = [dict(nbrs) for nbrs in neighbours]
    best = math.inf
    for source in sorted(v - 1 for v in min(g.left, g.right, key=len)):
        reach = min(radius, best - 1)
        if reach < 2:
            break
        best = min(best, _ball(rest, source, reach)[1])
        gone = [source]
        while gone:
            v = gone.pop()
            for w in rest[v]:
                del rest[w][v]
                if len(rest[w]) == 1:
                    gone.append(w)
            rest[v] = {}
    return best


def girth(g: BipartiteGraph) -> float:
    """Length of the shortest cycle, or math.inf for a forest."""
    q = g.vertex_count
    limits.check_graph_vertices(q)
    return 2 * _half_girth(g, _neighbours(q, g.edges), math.inf)


def two_coloring(neighbours: list[dict[int, int]]) -> tuple[set, set] | None:
    """Color classes of a bipartition, as 1-based vertex sets, of the graph
    whose _neighbours lists are given; None when an odd cycle exists."""
    color = [-1] * len(neighbours)
    for start in range(len(neighbours)):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in neighbours[u]:
                if color[w] < 0:
                    color[w] = color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return ({v + 1 for v, c in enumerate(color) if c == 0},
            {v + 1 for v, c in enumerate(color) if c == 1})


def graph_from_incidence(a) -> BipartiteGraph | None:
    """The bipartite graph whose incidence matrix is a, or None if there is none.

    a qualifies when every column has weight two, no two columns repeat
    and the rows two-colour.  Row r is vertex r+1 and column order is edge
    order, so incidence_matrix() gives a back.
    """
    a = gf2.asbits(a)
    q, m = a.shape
    if not (a.sum(axis=0) == 2).all():
        return None
    ends = (np.nonzero(a.T)[1].reshape(m, 2) + 1).tolist()  # each column's two rows, ascending
    edges = tuple(map(tuple, ends))
    if len(set(edges)) != m:
        return None
    coloring = two_coloring(_neighbours(q, edges))
    if coloring is None:
        return None
    left, right = coloring
    return BipartiteGraph(frozenset(left), frozenset(right), edges)


def cycle_chord_graph(cycle_length: int, n: int) -> BipartiteGraph:
    """Even cycle with an antipodal chord of n edges at every position.

    Produces cycle_length*(2+n)/2 edges on cycle_length*(1+n)/2 vertices
    with girth exactly 2n+2.  The chords join vertex j to vertex j +
    cycle_length/2, each through n-1 fresh vertices.  Bipartiteness
    requires the half-cycle offset and the chord length to have equal
    parity, i.e. cycle_length = 2n mod 4; the 2-coloring check below
    enforces that rather than assuming it.
    """
    L = cycle_length
    if L % 2 or L < 2 * n + 2:
        raise ValueError("cycle length must be even and at least 2n+2")
    if n < 1:
        raise ValueError("need at least one particle")
    edges: list[tuple[int, int]] = [(i, i % L + 1) for i in range(1, L + 1)]
    next_vertex = L + 1
    for j in range(1, L // 2 + 1):
        a, b = j, j + L // 2
        path = [a] + list(range(next_vertex, next_vertex + n - 1)) + [b]
        next_vertex += n - 1
        edges.extend((path[i], path[i + 1]) for i in range(n))
    coloring = two_coloring(_neighbours(next_vertex - 1, edges))
    if coloring is None:
        raise ValueError(
            f"cycle length {L} with chord length {n} creates odd cycles; "
            "the half-cycle offset and chord length must have equal parity "
            f"(use cycle_length = {2 * n} mod 4)"
        )
    left, right = coloring
    oriented = tuple((u, v) if u in left else (v, u) for u, v in edges)
    g = BipartiteGraph(frozenset(left), frozenset(right), oriented)
    got = girth(g)
    if got != 2 * n + 2:
        raise AssertionError(f"construction girth {got} != {2 * n + 2}")
    return g


def greedy_high_girth(q: int, n: int, trials: int = 1000, seed: int = 0) -> BipartiteGraph:
    """Best-of-many randomized greedy graphs with girth >= 2n+2.

    Each trial fixes a bipartition size, then repeatedly adds a uniformly
    random cross edge whose endpoints are at distance >= 2n+1 (new cycles
    stay at length >= 2n+2) until no edge can be added.  The trials run in
    lockstep on one (trials, Q, Q) stack of capped distance matrices, in
    consecutive stacks of at most limits.GREEDY_STACK_BUDGET entries: each
    step draws one candidate per unfinished trial, in trial order, from one
    random.Random(seed), and one broadcast update adds every drawn edge.
    A trial's candidates are listed in row-major (u, v) order, so a single
    trial draws what a trial run alone would.  A stack that starts with at
    least 2Q trials keeps its trial axis innermost in memory, others their
    vertex axis (see _lockstep); the graphs do not depend on the order.
    The densest graph over all trials wins; ties keep the earlier trial, so
    a fixed seed gives a reproducible result.
    """
    if q < 2:
        raise ValueError("need at least two vertices")
    if n < 0:
        raise ValueError("particle count must be non-negative")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    limits.check_graph_vertices(q)
    rng = random.Random(seed)
    base = q // 2
    spread = sorted({max(1, base + d) for d in (0, -1, 1, -2, 2, -q // 6, q // 6)})
    splits = np.array([s for s in spread if 1 <= s <= q - 1])
    far = _far(n, q)
    chunk = max(1, limits.GREEDY_STACK_BUDGET // (q * q))
    best_left, best_edges = 0, []
    for start in range(0, trials, chunk):
        left = splits[np.arange(start, min(start + chunk, trials)) % len(splits)]
        # trial-innermost against vertex-innermost, (Q, N, T), medians on a 2-core x86_64
        # VM: about even at T = 2Q ((30, 3, 60) 6.34 -> 6.16 ms, (16, 2, 32) 1.43 -> 1.51),
        # faster beyond ((30, 3, 90) 7.07 -> 6.26, (24, 3, 200) 8.04 -> 6.79), slower
        # below ((36, 3, 36) 5.35 -> 6.12, (48, 4, 30) 7.16 -> 9.70, (96, 6, 4) 5.9 -> 29.4)
        size, edges = _lockstep(q, far, left, rng, trials_inner=len(left) >= 2 * q)
        if len(edges) > len(best_edges):
            best_left, best_edges = size, edges
    return BipartiteGraph(frozenset(range(1, best_left + 1)),
                          frozenset(range(best_left + 1, q + 1)), tuple(sorted(best_edges)))


def _lockstep(q: int, far: int, left: np.ndarray, rng: random.Random,
              trials_inner: bool) -> tuple[int, list[tuple[int, int]]]:
    """Grow one greedy graph per entry of left, its left side's size, in
    lockstep; the densest one's left size and 1-based edges, the earliest
    on a tie.

    Each step reads the box of rows below the largest left size and columns
    from the smallest up, and each trial's cross mask cuts the box to its
    own left x right block.  A trial with no candidate leaves the stack.
    The steps record (trial, a, b) only, and the winner's edges are read
    back from those records.

    The stack is indexed (trial, row, column) either way.  With trials_inner
    it is laid out (row, column, trial) in memory, and it is laid out so
    again when trials leave it: _link's broadcasts then step through Q^2
    runs of T entries, which is faster while T is large against Q, and
    slower when it is not.  The candidate box is copied into a C-ordered
    buffer, so hits come in (trial, u, v) order either way.
    """
    # _link adds two entries and one: int8 holds that sum up to a cap of 63
    dtype = np.int8 if 2 * far + 1 <= np.iinfo(np.int8).max else np.int16
    if trials_inner:
        dist = np.empty((q, q, len(left)), dtype=dtype).transpose(2, 0, 1)
    else:
        dist = np.empty((len(left), q, q), dtype=dtype)
    dist[:] = _unlinked(q, far)
    trial = np.arange(len(left))  # each stacked matrix's index into left
    cross = None
    steps = []
    while len(trial):
        if cross is None or len(cross) != len(trial):  # (re)cut the box to the trials left
            sizes = left[trial]
            lo, hi = int(sizes.min()), int(sizes.max())
            cross = ((np.arange(hi)[:, None] < sizes[:, None, None])
                     & (np.arange(lo, q) >= sizes[:, None, None]))
            box = np.empty_like(cross)
            offsets = np.arange(len(trial) + 1) * (hi * (q - lo))  # each trial's box in hits
        np.greater_equal(dist[:, :hi, lo:], far, out=box)
        box &= cross
        hits = np.flatnonzero(box)
        starts = np.searchsorted(hits, offsets)
        counts = starts[1:] - starts[:-1]
        going = np.flatnonzero(counts)
        draws = np.array(_randbelow(rng, counts[going].tolist()), dtype=np.intp)
        a, b = np.divmod(hits[starts[going] + draws] - offsets[going], q - lo)
        b += lo
        if len(going) < len(trial):
            trial = trial[going]
            if trials_inner:  # take() returns the kept trials C-ordered in (row, column, trial)
                dist = dist.transpose(1, 2, 0).take(going, axis=2).transpose(2, 0, 1)
            else:
                dist = dist[going]
        _link(dist, a, b)
        steps.append((trial, a, b))
    trial, a, b = (np.concatenate(column) for column in zip(*steps))
    win = int(np.argmax(np.bincount(trial, minlength=len(left))))
    mine = trial == win
    return int(left[win]), list(zip((a[mine] + 1).tolist(), (b[mine] + 1).tolist()))


def _randbelow(rng: random.Random, counts: list[int]) -> list[int]:
    """rng.randrange(c) for each c in counts, in turn, without its per-call
    argument checks: CPython's randrange(c) draws getrandbits(k), k the bit
    length of c, until the value is below c, and so does this loop."""
    getrandbits = rng.getrandbits
    draws = []
    for c in counts:
        k = c.bit_length()
        r = getrandbits(k)
        while r >= c:
            r = getrandbits(k)
        draws.append(r)
    return draws


def min_weight_matching(weights) -> tuple[int, list[tuple[int, int]]] | None:
    """Exact minimum-weight perfect matching of k vertices, or None if none exists.

    weights[i][j] is the cost of pairing i with j, None where the two
    cannot be paired.  A top-down memo over the bitmask of unpaired
    vertices pairs the lowest one with each other j in turn.  Only the
    masks reached that way are visited, at most F(k+1) (Fibonacci): 233,
    1,597 and 10,946 at k = 12, 16 and 20, against the 2^k masks of a
    bottom-up subset DP.  That is still exponential: a weight-N graph code
    matches up to 2N vertices, and on a 100-cycle the memo took 0.026 / 1.07
    / 6.6 s at k = 24 / 32 / 36 (F(k+1) = 75,025 / 3.5M / 24M), `decode
    --check` 0.22 / 1.16 / 14.3 s at N = 12 / 16 / 18 (ROADMAP direction
    10).  Returns the total and the pairs (i, j), i < j, lowest i first.
    """
    k = len(weights)
    if k % 2:
        return None
    memo: dict[int, tuple[float, int]] = {0: (0, -1)}

    def best(mask: int) -> tuple[float, int]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        choice = (math.inf, -1)
        row = weights[i]
        others = rest
        while others:
            j = (others & -others).bit_length() - 1
            others ^= 1 << j
            if row[j] is None:
                continue
            total = row[j] + best(rest ^ (1 << j))[0]
            if total < choice[0]:
                choice = (total, j)
        memo[mask] = choice
        return choice

    mask = (1 << k) - 1
    total = best(mask)[0]
    if total == math.inf:
        return None
    pairs = []
    while mask:
        i = (mask & -mask).bit_length() - 1
        j = memo[mask][1]
        pairs.append((i, j))
        mask ^= (1 << i) | (1 << j)
    return total, pairs


class GraphDecoder:
    """Weight-n syndrome decoder of one graph, built once and reused.

    Holds each vertex's _neighbours list, the edges' vertex masks and a
    cache of balls: the radius-n _ball of each vertex that a syndrome has
    marked, built on first use, so a batch of syndromes walks each ball
    once.  It holds no table over all vertices: the cache is emptied before
    a new ball would take it past limits.BALL_CACHE_VERTICES vertices.
    """

    def __init__(self, g: BipartiteGraph, n: int):
        limits.check_graph_vertices(g.vertex_count)
        self.graph = g
        self.particles = n
        self.neighbours = _neighbours(g.vertex_count, g.edges)
        self.edge_masks = g.edge_masks()
        self.balls: dict[int, dict[int, tuple[int, int, int]]] = {}
        self.ball_vertices = 0  # vertices in the cached balls

    @classmethod
    def certified(cls, g: BipartiteGraph, n: int) -> "GraphDecoder | None":
        """The decoder, when girth >= 2n+2 certifies weight-n injectivity, else
        None: when no ball of radius n reaches a vertex twice (_half_girth)."""
        decoder = cls(g, n)
        return decoder if _half_girth(g, decoder.neighbours, n) > n else None

    def decode(self, syndrome) -> np.ndarray | None:
        """Weight-n edge set whose boundary is the given vertex subset.

        The minimum-weight solution pairs up the syndrome vertices with
        edge-disjoint shortest paths, so a minimum-weight perfect matching
        under the path metric finds it (the T-join / matching equivalence
        of Edmonds and Johnson, Math. Programming 5, 1973); the unique
        weight-n preimage exists exactly when that minimum equals n.  The
        reconstruction is verified against the syndrome before returning,
        making wrong answers impossible regardless of matching internals.
        The k <= 2n marked vertices' radius-n balls hold every pair weight a
        weight-n matching can use, and each pair's path by parent edges;
        pairing, paths and the check run on Python ints.
        """
        syndrome = gf2.asbits(syndrome)
        n, q = self.particles, self.graph.vertex_count
        if syndrome.shape != (q,):
            raise ValueError("syndrome length does not match vertex count")
        marked = np.flatnonzero(syndrome).tolist()
        if len(marked) > 2 * n:
            return None
        balls = []
        for v in marked:
            ball = self.balls.get(v)
            if ball is None:
                ball = _ball(self.neighbours, v, n)[0]
                if self.ball_vertices + len(ball) > limits.BALL_CACHE_VERTICES:
                    self.balls.clear()
                    self.ball_vertices = 0
                self.balls[v] = ball
                self.ball_vertices += len(ball)
            balls.append(ball)
        weights = [[ball[j][0] if j in ball else None for j in marked] for ball in balls]
        matched = min_weight_matching(weights)
        if matched is None or matched[0] != n:
            return None
        chosen = set()
        for i, j in matched[1]:
            v, ball = marked[i], balls[j]
            while v != marked[j]:
                _, v, col = ball[v]
                chosen ^= {col}
        # confirm weight and boundary; mismatches cannot happen at a true optimum
        if len(chosen) != n:
            return None
        boundary = 0
        for col in chosen:
            boundary ^= self.edge_masks[col]
        for v in marked:
            boundary ^= 1 << (q - 1 - v)
        if boundary:
            return None
        x = np.zeros(self.graph.edge_count, dtype=np.uint8)
        x[list(chosen)] = 1
        return x


def graph_decode(g: BipartiteGraph, syndrome, n: int) -> np.ndarray | None:
    """One-off GraphDecoder(g, n).decode(syndrome); build the decoder once to
    decode many syndromes of one graph."""
    return GraphDecoder(g, n).decode(syndrome)


def save_graph(g: BipartiteGraph, path: str) -> None:
    """Write "Q_left Q_right M" then one "u v" line per edge.

    Vertices are relabeled so the left side is 1..Q_left.
    """
    order = sorted(g.left) + sorted(g.right)
    relabel = {v: i + 1 for i, v in enumerate(order)}
    lines = [f"{len(g.left)} {len(g.right)} {g.edge_count}"]
    for u, v in g.edges:
        a, b = (u, v) if u in g.left else (v, u)
        lines.append(f"{relabel[a]} {relabel[b]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path: str) -> BipartiteGraph:
    """Read save_graph's format: "Q_left Q_right M", then M lines "u v".

    The counts must be non-negative integers, Q_left+Q_right at most
    limits.GRAPH_VERTEX_CAP (checked before any vertex set is built), and
    the vertices lie in 1..Q_left+Q_right; anything else is a ValueError
    naming the file and line.
    """
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
    # every line at once; _refuse_edge words the first error when a line is wrong
    words = [ends for _, ends in lines[1:]]
    tokens = [t for ends in words for t in ends]
    digits = "".join(tokens)
    vertices = None
    if set(map(len, words)) <= {2} and (digits.isdecimal() or not digits):
        try:
            vertices = list(map(int, tokens))
        except ValueError:  # past int()'s digit limit: the line loop raises it where it lies
            pass
    if vertices is None or (vertices and not 1 <= min(vertices) <= max(vertices) <= ql + qr):
        _refuse_edge(path, lines[1:], ql + qr)
    edges = tuple(zip(vertices[::2], vertices[1::2]))
    try:
        return BipartiteGraph(frozenset(range(1, ql + 1)),
                              frozenset(range(ql + 1, ql + qr + 1)), edges)
    except ValueError as err:
        raise ValueError(f"graph file {path}: {err}") from None


def _refuse_edge(path: str, lines: list[tuple[int, list[str]]], q: int) -> None:
    """Raise the ValueError of the first malformed edge line of a graph file on q vertices."""
    for k, ends in lines:
        if len(ends) != 2 or not all(t.isdecimal() and 1 <= int(t) <= q for t in ends):
            raise ValueError(f"graph file {path}, line {k}: an edge must be \"u v\" "
                             f"with vertices in 1..{q}")
    raise AssertionError(f"graph file {path} was flagged, but its edges read")
