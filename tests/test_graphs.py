import itertools
import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fertaper import gf2, graphs, limits
from fertaper.codeword import CodeEncoding
from fertaper.graphs import (
    BipartiteGraph,
    GraphDecoder,
    _ball,
    _far,
    _link,
    _lockstep,
    _neighbours,
    _randbelow,
    _unlinked,
    cycle_chord_graph,
    girth,
    graph_decode,
    graph_from_incidence,
    greedy_high_girth,
    load_graph,
    min_weight_matching,
    save_graph,
    two_coloring,
)
from fertaper.mitm import InjectivityViolation
from tests.conftest import syndrome, syndrome_map
from tests.gf2_oracle import bits_int
from tests.graph_oracle import path_lengths
from tests.oracles import brute_force_decode, is_n_injective, matrix, no_edge_addable


def four_cycle():
    return BipartiteGraph(
        frozenset({1, 2}), frozenset({3, 4}), ((1, 3), (3, 2), (2, 4), (4, 1))
    )


def path_graph():
    return BipartiteGraph(frozenset({1, 2}), frozenset({3}), ((1, 3), (2, 3)))


def ring_graph(q):
    """The q-cycle 1-2-...-q-1, q even."""
    return BipartiteGraph(frozenset(range(1, q + 1, 2)), frozenset(range(2, q + 1, 2)),
                          tuple((i, i % q + 1) for i in range(1, q + 1)))


def brute_force_girth(g):
    """Shortest cycle, edge by edge: one plus the distance between the edge's
    ends once the edge itself is taken out (the oracle for girth)."""
    best = math.inf
    for k, (u, v) in enumerate(g.edges):
        rest = BipartiteGraph(g.left, g.right, g.edges[:k] + g.edges[k + 1:])
        d = bfs_distances(rest, u).get(v)
        if d is not None:
            best = min(best, d + 1)
    return best


def heawood_graph():
    """The Heawood graph: a 14-cycle plus a chord from each odd vertex to the
    vertex five on; cubic, with girth 6."""
    edges = ring_graph(14).edges + tuple((i, (i + 4) % 14 + 1) for i in range(1, 15, 2))
    return BipartiteGraph(frozenset(range(1, 15, 2)), frozenset(range(2, 15, 2)), edges)


def parity_graph(edges):
    """The graph of edges on 1..max vertex, odd vertices on the left."""
    q = max(map(max, edges))
    return BipartiteGraph(frozenset(range(1, q + 1, 2)), frozenset(range(2, q + 1, 2)),
                          tuple(edges))


# graphs of girth 4 to 30 and infinity, built when a test asks for them
NAMED_GRAPHS = {
    "ring4": lambda: ring_graph(4),
    "ring10": lambda: ring_graph(10),
    "ring14": lambda: ring_graph(14),
    "ring30": lambda: ring_graph(30),
    "rings6-and-10": lambda: parity_graph(ring_graph(6).edges + tuple(
        (u + 6, v + 6) for u, v in ring_graph(10).edges)),
    "ring8-with-a-tail": lambda: parity_graph(ring_graph(8).edges + ((8, 9), (9, 10), (10, 11))),
    "path": path_graph,
    "heawood": heawood_graph,
    "chord-8-2": lambda: cycle_chord_graph(8, 2),
    "chord-12-2": lambda: cycle_chord_graph(12, 2),
    "chord-10-3": lambda: cycle_chord_graph(10, 3),
    "chord-12-4": lambda: cycle_chord_graph(12, 4),
    "chord-14-5": lambda: cycle_chord_graph(14, 5),
    "chord-16-6": lambda: cycle_chord_graph(16, 6),
}


@st.composite
def bipartite_graphs(draw):
    """Up to 5 + 5 vertices, any set of cross edges in any order."""
    nl, nr = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    left, right = range(1, nl + 1), range(nl + 1, nl + nr + 1)
    cross = [(u, v) for u in left for v in right]
    edges = draw(st.lists(st.sampled_from(cross), unique=True))
    return BipartiteGraph(frozenset(left), frozenset(right), tuple(edges))


class TestGirth:
    def test_four_cycle(self):
        assert girth(four_cycle()) == 4

    def test_tree_is_infinite(self):
        assert girth(path_graph()) == math.inf

    def test_figure_graph(self, fig3_graph):
        assert fig3_graph.vertex_count == 12
        assert fig3_graph.edge_count == 16
        assert girth(fig3_graph) == 6

    @settings(max_examples=300, deadline=None)
    @given(bipartite_graphs())
    def test_matches_brute_force_on_random_bipartite_graphs(self, g):
        got = girth(g)
        dist, judged = path_lengths(g)
        assert got == judged == brute_force_girth(g)
        assert got == math.inf or type(got) is int
        q = g.vertex_count
        assert dist.dtype == np.int16
        for u in range(1, q + 1):
            reach = bfs_distances(g, u)
            assert dist[u - 1].tolist() == [reach.get(v, q) for v in range(1, q + 1)]

    def test_a_cycle_at_the_vertex_cap(self):
        q = limits.GRAPH_VERTEX_CAP
        ring = ring_graph(q)
        assert girth(ring) == q
        # the first ball reaches the far vertex twice, at depth q/2
        ball, twice = _ball(_neighbours(q, ring.edges), 0, q)
        assert twice == q // 2
        k = np.arange(q)
        assert [ball[v][0] for v in range(q)] == np.minimum(k, q - k).tolist()

    @pytest.mark.parametrize("length", [4, 6, 8, 10, 12])
    def test_long_cycles_in_any_edge_order(self, length):
        # a bare even cycle, then a chord graph of the same girth
        rng = np.random.default_rng(length)
        ring = BipartiteGraph(frozenset(range(1, length + 1, 2)),
                              frozenset(range(2, length + 1, 2)),
                              tuple((i, i % length + 1) for i in range(1, length + 1)))
        chords = cycle_chord_graph(length + 2, length // 2 - 1)
        for g, want in ((ring, length), (chords, length)):
            for _ in range(3):
                order = tuple(g.edges[i] for i in rng.permutation(g.edge_count))
                shuffled = BipartiteGraph(g.left, g.right, order)
                assert girth(shuffled) == brute_force_girth(shuffled) == want


class TestNamedGraphs:
    @pytest.mark.parametrize("which", NAMED_GRAPHS)
    def test_girth_matches_brute_force(self, which):
        g = NAMED_GRAPHS[which]()
        assert girth(g) == brute_force_girth(g) == path_lengths(g)[1]

    @pytest.mark.parametrize("which", NAMED_GRAPHS)
    def test_certificate_agrees_with_the_judged_girth(self, which):
        g = NAMED_GRAPHS[which]()
        judged = path_lengths(g)[1]
        for n in range(1, 7):
            assert (GraphDecoder.certified(g, n) is not None) == (judged >= 2 * n + 2)


class TestInjectivityFromGirth:
    def test_figure_graph_two_particles(self, fig3_graph):
        assert GraphDecoder.certified(fig3_graph, 2) is not None

    def test_figure_graph_three_particles(self, fig3_graph):
        assert GraphDecoder.certified(fig3_graph, 3) is None

    def test_forest_any_weight(self):
        assert GraphDecoder.certified(path_graph(), 2) is not None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_brute_force(self, n):
        graphs = [
            four_cycle(),
            path_graph(),
            cycle_chord_graph(8, 2),
            greedy_high_girth(10, n, trials=20, seed=5),
        ]
        for g in graphs:
            if g.edge_count == 0 or g.edge_count > 20:
                continue
            injective = is_n_injective(g.incidence_matrix(), n)
            # girth >= 2N+2 suffices; exactly, no cycle may be as short as
            # 2*min(N, M-N), the most two weight-N vectors can differ by
            assert (GraphDecoder.certified(g, n) is not None) <= injective
            assert injective == (girth(g) > 2 * min(n, g.edge_count - n))


    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_bfs_girth(self, seed):
        # random cross-edge subsets: short cycles in any order of the edges
        rng = np.random.default_rng(seed)
        left, right = range(1, 6), range(6, 12)
        cross = [(u, v) for u in left for v in right]
        for _ in range(20):
            keep = rng.random(len(cross)) < rng.uniform(0.1, 0.5)
            edges = tuple(e for e, k in zip(cross, keep) if k)
            g = BipartiteGraph(frozenset(left), frozenset(right), edges)
            for n in (0, 1, 2, 3):
                certified = GraphDecoder.certified(g, n) is not None
                assert certified == (brute_force_girth(g) >= 2 * n + 2)

    @settings(max_examples=200, deadline=None)
    @given(bipartite_graphs())
    def test_agrees_with_the_judged_girth_on_random_graphs(self, g):
        judged = path_lengths(g)[1]
        for n in range(1, 7):
            assert (GraphDecoder.certified(g, n) is not None) == (judged >= 2 * n + 2)


class TestCycleChord:
    def test_in_text_data_point(self):
        g = cycle_chord_graph(10, 3)
        assert (g.edge_count, g.vertex_count, girth(g)) == (25, 20, 8)

    def test_figure_example(self):
        g = cycle_chord_graph(8, 2)
        assert (g.edge_count, g.vertex_count, girth(g)) == (16, 12, 6)

    @pytest.mark.parametrize("length,n", [(8, 2), (12, 2), (16, 2), (10, 3), (14, 3), (12, 4)])
    def test_edge_vertex_formulas(self, length, n):
        g = cycle_chord_graph(length, n)
        assert g.edge_count == length + n * length // 2
        assert g.vertex_count == length + (n - 1) * length // 2
        assert girth(g) == 2 * n + 2

    def test_qubit_mode_relation(self):
        # Q = M - M/(2+N) on the family
        for length, n in ((8, 2), (12, 2), (10, 3), (12, 4)):
            g = cycle_chord_graph(length, n)
            assert g.vertex_count == g.edge_count - g.edge_count // (2 + n)

    def test_parity_obstruction(self):
        # chord parity must match the half-cycle parity; otherwise odd cycles
        with pytest.raises(ValueError, match="odd cycles"):
            cycle_chord_graph(6, 2)
        with pytest.raises(ValueError, match="odd cycles"):
            cycle_chord_graph(10, 2)

    def test_too_short(self):
        with pytest.raises(ValueError):
            cycle_chord_graph(4, 2)
        with pytest.raises(ValueError):
            cycle_chord_graph(7, 2)


def greedy_splits(q):
    """The left side sizes greedy_high_girth gives its trials in turn."""
    spread = sorted({max(1, q // 2 + d) for d in (0, -1, 1, -2, 2, -q // 6, q // 6)})
    return [s for s in spread if 1 <= s <= q - 1]


def sequential_greedy(q, n, trials, seed):
    """The greedy search one trial at a time, each trial's draws before the
    next trial's (the reference for the lockstep stack): the same splits,
    candidates in row-major (u, v) order and one shared random.Random."""
    rng = random.Random(seed)
    splits = greedy_splits(q)
    cap = max(2 * n + 1, 2)
    best = None
    for trial in range(trials):
        left = splits[trial % len(splits)]
        dist = np.full((q, q), cap, dtype=np.int64)
        np.fill_diagonal(dist, 0)
        edges = []
        while True:
            candidates = np.flatnonzero(dist[:left, left:] >= cap)
            if not len(candidates):
                break
            a, b = divmod(int(candidates[rng.randrange(len(candidates))]), q - left)
            b += left
            through = dist[:, a, None] + dist[b]
            dist = np.minimum(dist, np.minimum(through, through.T) + 1)
            edges.append((a + 1, b + 1))
        if best is None or len(edges) > best.edge_count:
            best = BipartiteGraph(frozenset(range(1, left + 1)),
                                  frozenset(range(left + 1, q + 1)), tuple(sorted(edges)))
    return best


# Median best edge count of sequential_greedy over seeds 0..19 at 100 trials,
# for Q = 4..18 in turn, per N
SEQUENTIAL_MEDIANS = {
    1: (4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49, 56, 64, 72, 81),
    2: (3, 4, 6, 7, 9, 10, 12, 14, 16, 18, 19, 22, 24, 26, 28),
    3: (3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 19, 20, 21),
}


def assert_valid(g, n):
    assert girth(g) >= 2 * n + 2
    assert no_edge_addable(g, n)


class TestGreedy:
    def test_deterministic(self):
        a = greedy_high_girth(10, 2, trials=15, seed=9)
        b = greedy_high_girth(10, 2, trials=15, seed=9)
        assert a == b

    @pytest.mark.parametrize("q", [2, 3, 5, 8, 13, 21, 34, 48])
    def test_one_trial_draws_the_sequential_graph(self, q):
        for n, seed in itertools.product(range(5), range(3)):
            assert greedy_high_girth(q, n, trials=1, seed=seed) == sequential_greedy(q, n, 1, seed)

    @pytest.mark.parametrize("q", [5, 9, 14, 20, 27])
    def test_lockstep_graphs_are_valid_and_reproducible(self, q):
        for n, seed in itertools.product(range(4), range(2)):
            g = greedy_high_girth(q, n, trials=25, seed=seed)
            assert_valid(g, n)
            assert g == greedy_high_girth(q, n, trials=25, seed=seed)

    @pytest.mark.parametrize("n", sorted(SEQUENTIAL_MEDIANS))
    def test_median_edge_count_no_worse_than_sequential(self, n):
        got = [np.median([greedy_high_girth(q, n, trials=100, seed=s).edge_count
                          for s in range(20)]) for q in range(4, 19)]
        assert all(np.array(got) >= SEQUENTIAL_MEDIANS[n])

    @pytest.mark.parametrize("q,n", [(9, 2), (7, 3)])
    def test_sequential_medians_come_from_the_reference(self, q, n):
        got = np.median([sequential_greedy(q, n, 100, s).edge_count for s in range(20)])
        assert got == SEQUENTIAL_MEDIANS[n][q - 4]

    @pytest.mark.parametrize("budget", [1, 3 * 11 * 11, 7 * 11 * 11])
    def test_trials_in_consecutive_stacks(self, monkeypatch, budget):
        """Stacks of one, three and seven trials; with one trial per stack
        the search is the sequential one, draw for draw."""
        monkeypatch.setattr(limits, "GREEDY_STACK_BUDGET", budget)
        for n, seed in itertools.product((1, 2, 3), (0, 1)):
            g = greedy_high_girth(11, n, trials=17, seed=seed)
            assert_valid(g, n)
            assert g == greedy_high_girth(11, n, trials=17, seed=seed)
            if budget == 1:
                assert g == sequential_greedy(11, n, 17, seed)

    @pytest.mark.parametrize("q", [5, 9, 14, 20, 27])
    def test_both_memory_orders_draw_the_same_graphs(self, q):
        """A stack laid out trial-innermost grows the graphs, and consumes the
        random stream, as the vertex-innermost one does, at trial counts on
        both sides of greedy_high_girth's switch at 2Q."""
        splits = np.array(greedy_splits(q))
        for n, trials, seed in itertools.product(range(4), (1, q, 2 * q, 3 * q + 1), (0, 1)):
            left = splits[np.arange(trials) % len(splits)]
            far = _far(n, q)
            rngs = random.Random(seed), random.Random(seed)
            got = [_lockstep(q, far, left, rng, trials_inner=inner)
                   for rng, inner in zip(rngs, (False, True))]
            assert got[0] == got[1]
            assert rngs[0].getstate() == rngs[1].getstate()

    @pytest.mark.parametrize("budget", [25 * 11 * 11, 40 * 11 * 11])
    def test_stacks_in_either_order_draw_the_same_graph(self, monkeypatch, budget):
        """60 trials in stacks of 25, 25 and 10, or 40 and 20: the stacks of
        at least 2Q = 22 trials run trial-innermost, the last one not; forcing
        either order on every stack draws the same graph."""
        monkeypatch.setattr(limits, "GREEDY_STACK_BUDGET", budget)
        lockstep = graphs._lockstep
        orders, forced = [], []

        def spy(q, far, left, rng, trials_inner):
            orders.append(trials_inner)
            return lockstep(q, far, left, rng, trials_inner=forced[0] if forced else trials_inner)

        monkeypatch.setattr(graphs, "_lockstep", spy)
        for n, seed in itertools.product((1, 2, 3), (0, 1)):
            forced.clear()
            orders.clear()
            g = greedy_high_girth(11, n, trials=60, seed=seed)
            assert orders == ([True, True, False] if budget == 25 * 11 * 11 else [True, False])
            assert_valid(g, n)
            for inner in (False, True):
                forced[:] = [inner]
                assert greedy_high_girth(11, n, trials=60, seed=seed) == g

    def test_inline_draws_are_randrange_draws(self):
        """_randbelow draws what randrange draws, and leaves the stream where
        randrange leaves it, at counts around every power of two up to 2^20."""
        counts = [1, 2, 3, 10**6] + [2**k + d for k in range(1, 21) for d in (-1, 0, 1)]
        mixed = random.Random(7)
        counts += [mixed.randint(1, 10**6) for _ in range(500)]
        mixed.shuffle(counts)
        for seed in range(3):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert _randbelow(ours, counts) == [theirs.randrange(c) for c in counts]
            assert ours.getstate() == theirs.getstate()

    def test_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(limits, "GRAPH_VERTEX_CAP", 9)
        assert greedy_high_girth(9, 2, trials=2).vertex_count == 9
        with pytest.raises(ValueError, match="graph on 10 vertices exceeds the cap of 9"):
            greedy_high_girth(10, 2, trials=2)

    def test_many_trials_hold_no_per_trial_array(self):
        # each stack takes its left sizes from its own trials, so 300,000 trials
        # allocate no array of that length (4.6 MiB when every size was built first)
        tracemalloc.start()
        try:
            g = greedy_high_girth(4, 1, trials=300_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == BipartiteGraph(frozenset({1, 2}), frozenset({3, 4}),
                                   ((1, 3), (1, 4), (2, 3), (2, 4)))
        assert peak < 2 << 20

    def test_particle_count_past_any_path_gives_a_spanning_tree(self):
        # every pair is at least 2n+1 apart or unconnected, so each edge joins two
        # components; at n = 40,000, 2n+1 does not fit an int16 distance matrix
        for n in (20, 40_000):
            g = greedy_high_girth(10, n, trials=3, seed=1)
            assert g.edge_count == 9 and girth(g) == math.inf

    def test_girth_bound_and_maximality(self):
        for n in (1, 2, 3):
            g = greedy_high_girth(11, n, trials=10, seed=3)
            assert girth(g) >= 2 * n + 2
            assert no_edge_addable(g, n)

    @settings(max_examples=300, deadline=None)
    @given(bipartite_graphs(), st.integers(0, 6))
    def test_maximality_agrees_with_adding_each_absent_edge(self, drawn, n):
        """no_edge_addable against girth >= 2N+2 after each absent cross edge
        is added, on girth >= 2N+2 graphs kept from the drawn edges in order;
        up to 10 vertices, so 2N+1 passes Q from N = 5 on."""
        g = BipartiteGraph(drawn.left, drawn.right, ())
        for e in drawn.edges:
            grown = BipartiteGraph(g.left, g.right, g.edges + (e,))
            if brute_force_girth(grown) >= 2 * n + 2:
                g = grown
        absent = [(u, v) for u in sorted(g.left) for v in sorted(g.right)
                  if (u, v) not in g.edges]
        addable = [e for e in absent if brute_force_girth(
            BipartiteGraph(g.left, g.right, g.edges + (e,))) >= 2 * n + 2]
        assert no_edge_addable(g, n) == (not addable)

    @pytest.mark.parametrize("q", [2, 3, 5, 8, 11])
    def test_maximality_past_the_vertex_count(self, q):
        # from N = Q/2 on, 2N+2 > Q leaves room for no cycle, so the maximal graphs
        # are the spanning trees, and the far rule reads Q
        for n in (q // 2, q, 3 * q):
            g = greedy_high_girth(q, n, trials=4, seed=q)
            assert g.edge_count == q - 1 and no_edge_addable(g, n)
            for k in range(g.edge_count):
                assert not no_edge_addable(
                    BipartiteGraph(g.left, g.right, g.edges[:k] + g.edges[k + 1:]), n)

    def test_incidence_injectivity(self):
        g = greedy_high_girth(12, 2, trials=30, seed=4)
        assert is_n_injective(g.incidence_matrix(), 2)

    def test_column_structure(self):
        g = greedy_high_girth(9, 2, trials=10, seed=8)
        a = g.incidence_matrix()
        assert (a.sum(axis=0) == 2).all()
        left, right = two_coloring(_neighbours(g.vertex_count, g.edges))
        assert left | right == set(range(1, 10))
        assert (left, right) == (set(g.left), set(g.right))

    def test_first_data_point(self):
        g = greedy_high_girth(12, 2, trials=200, seed=0)
        assert g.edge_count >= 16
        assert girth(g) >= 6


def bfs_distances(g, source):
    adj = {v: set() for v in range(1, g.vertex_count + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


class TestDistanceMatrix:
    """The greedy search's capped distance matrices, and the distances and
    paths the girth, the certificate and the decoder read off balls."""

    def test_vertex_cap_before_the_matrix(self, monkeypatch):
        # girth, no_edge_addable and GraphDecoder each refuse before building anything
        monkeypatch.setattr(limits, "GRAPH_VERTEX_CAP", 9)
        g = BipartiteGraph(frozenset(range(1, 6)), frozenset(range(6, 11)), ((1, 6),))
        for build in (girth, lambda g: no_edge_addable(g, 1),
                      lambda g: GraphDecoder(g, 1)):
            with pytest.raises(ValueError, match="graph on 10 vertices exceeds the cap of 9"):
                build(g)
        monkeypatch.setattr(limits, "GRAPH_VERTEX_CAP", 10)
        assert girth(g) == math.inf

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_capped_bfs_distances(self, n, fig3_graph):
        # the greedy search's matrices: _link keeps every entry within the cap
        for g in (fig3_graph, path_graph(), greedy_high_girth(15, 2, trials=3, seed=n),
                  BipartiteGraph(frozenset({1, 2}), frozenset({3, 4}), ((1, 3),))):
            cap = _far(n, g.vertex_count)
            dist = _unlinked(g.vertex_count, cap)
            for u, v in g.edges:
                _link(dist, u - 1, v - 1)
            assert dist.dtype == np.int16
            for u in range(1, g.vertex_count + 1):
                reach = bfs_distances(g, u)
                want = [min(reach.get(v, cap), cap) for v in range(1, g.vertex_count + 1)]
                assert dist[u - 1].tolist() == want

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6, 12, 20000])
    def test_decoder_distances_are_exact_at_any_particle_count(self, n, fig3_graph):
        # the radius-N ball the decoder reads, at N below and at or past Q: BFS
        # lengths up to N, nothing past N or unconnected, and parents by the
        # lowest-numbered edge one step nearer, as path_lengths' rows give them
        for g in (fig3_graph, path_graph(), greedy_high_girth(15, 2, trials=3, seed=n),
                  BipartiteGraph(frozenset({1, 2}), frozenset({3, 4}), ((1, 3),)),
                  BipartiteGraph(frozenset({1, 2}), frozenset({3, 4}), ((1, 3), (2, 4)))):
            q = g.vertex_count
            decoder = GraphDecoder(g, n)
            dist = path_lengths(g)[0]
            for u in range(1, q + 1):
                reach = bfs_distances(g, u)
                ball = _ball(decoder.neighbours, u - 1, n)[0]
                assert {v: d for v, (d, _, _) in ball.items()} == {
                    v - 1: d for v, d in reach.items() if d <= n}
                for v, (d, parent, col) in ball.items():
                    if v == u - 1:
                        assert (d, parent, col) == (0, -1, -1)
                        continue
                    nearer = [c for c, ends in enumerate(g.edges) if v + 1 in ends
                              and dist[sum(ends) - v - 2, u - 1] == d - 1]
                    assert col == min(nearer) and {parent + 1, v + 1} == set(g.edges[col])

    def test_unconnected_pair_is_no_path_at_n_past_q(self):
        # vertices 1 and 2 lie in different components; at N = 4, past Q, that
        # reads as no path, not as a path of any length
        g = BipartiteGraph(frozenset({1, 2}), frozenset({3, 4}), ((1, 3), (2, 4)))
        assert GraphDecoder(g, 4).decode(np.array([1, 1, 0, 0], dtype=np.uint8)) is None

    @pytest.mark.parametrize("n", [3, 1023])
    def test_decoder_holds_no_q_by_q_array(self, n):
        """On the 2048-cycle the certificate, the decoder and one decode peak
        under Q x Q bytes, half of one int16 Q x Q matrix: at N = 3, and at
        N = 1023, where each ball the certificate and the decode walk is
        nearly the whole cycle."""
        q = limits.GRAPH_VERTEX_CAP
        ring = ring_graph(q)
        marked = [0, 1, 2, 3, 4, 5] if n == 3 else [0, n]  # edges 1, 3, 5 or 1..n
        s = np.zeros(q, dtype=np.uint8)
        s[marked] = 1
        tracemalloc.start()
        try:
            decoder = GraphDecoder.certified(ring, n)
            x = decoder.decode(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.flatnonzero(x).tolist() == (marked[::2] if n == 3 else list(range(n)))
        assert peak < q * q

    def test_decode_lists_the_marked_rows_only(self):
        """On the 2048-cycle one decode holds the k marked vertices' balls,
        under 48 bytes a vertex and Q vertices a ball: k x Q at most, where a
        Q x Q list would take some 150 MiB."""
        q = limits.GRAPH_VERTEX_CAP
        decoder = GraphDecoder(ring_graph(q), 3)
        for marked in ([0, 1, 2, 3, 4, 5], [0, 1, 1000, 1001, 2000, 2001]):
            s = np.zeros(q, dtype=np.uint8)
            s[marked] = 1
            tracemalloc.start()
            try:
                x = decoder.decode(s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.flatnonzero(x).tolist() == marked[::2]
            assert peak < len(marked) * q * 48

    def test_the_ball_cache_is_bounded(self, monkeypatch):
        """On the 256-cycle at N = 127, a length-N path syndrome from each
        vertex marks two vertices whose balls hold 255 vertices each.  With
        the cache capped at four balls every decode is the path, the cache
        never holds more than the cap, and the traced memory stays under 300
        bytes a vertex of the cap (a ball's vertex takes some 100 to 150,
        and two balls of a decode are held beside the cache), where keeping
        every ball takes some 6.6 MB."""
        q, n = 256, 127
        cap = 4 * (2 * n + 1)
        monkeypatch.setattr(limits, "BALL_CACHE_VERTICES", cap)
        decoder = GraphDecoder(ring_graph(q), n)
        held = []
        tracemalloc.start()
        try:
            for v in range(q):
                s = np.zeros(q, dtype=np.uint8)
                s[[v, (v + n) % q]] = 1
                x = decoder.decode(s)
                assert sorted(np.flatnonzero(x).tolist()) == sorted((v + i) % q for i in range(n))
                held.append(decoder.ball_vertices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(held) <= cap and len(decoder.balls) <= 4
        assert peak < cap * 300

    def test_a_particle_count_past_int16_decodes(self, fig3_graph):
        # N = 20000: 2N+1 = 40001 does not fit int16, and a ball holds Python ints
        decoder = GraphDecoder(fig3_graph, 20000)
        for u in range(1, fig3_graph.vertex_count + 1):
            reach = bfs_distances(fig3_graph, u)
            ball = _ball(decoder.neighbours, u - 1, 20000)[0]
            assert {v: d for v, (d, _, _) in ball.items()} == {
                v - 1: d for v, d in reach.items()}
        occ = np.zeros(fig3_graph.edge_count, dtype=np.uint8)
        occ[:2] = 1
        assert decoder.decode(syndrome(fig3_graph.incidence_matrix(), occ)) is None
        assert GraphDecoder.certified(fig3_graph, 20000) is None

    @pytest.mark.parametrize("which", ["fig3", "greedy48"])
    def test_graph_encoding_walks_its_edges_once(self, monkeypatch, fig3_graph, which):
        # the edge list is read once, into the decoder's neighbour lists, which
        # the certificate and the decode then walk; no distance matrix is built
        g, n = ((fig3_graph, 2) if which == "fig3"
                else (greedy_high_girth(48, 4, trials=3, seed=6), 4))
        calls = []
        for name in ("_neighbours", "_link", "_unlinked"):
            built = getattr(graphs, name)
            monkeypatch.setattr(graphs, name, lambda *args, name=name, built=built:
                                calls.append(name) or built(*args))
        enc = CodeEncoding.from_graph(g, n)
        occ = np.zeros(g.edge_count, dtype=np.uint8)
        occ[:n] = 1
        assert enc.decode(syndrome(matrix(enc), occ)).occ == tuple(occ)
        assert calls == ["_neighbours"]

    def test_particle_count_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            greedy_high_girth(6, -1, trials=1)

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ValueError, match="at least one trial"):
            greedy_high_girth(6, 1, trials=0)

    def test_zero_particles_gives_the_complete_bipartite_graph(self):
        g = greedy_high_girth(7, 0, trials=3, seed=1)
        assert g.edge_count == len(g.left) * len(g.right)


def brute_force_matching(weights):
    """Cheapest perfect matching by listing every one (the oracle)."""
    def matchings(rest):
        if not rest:
            yield []
            return
        i, others = rest[0], rest[1:]
        for j in others:
            if weights[i][j] is not None:
                for tail in matchings([v for v in others if v != j]):
                    yield [(i, j)] + tail

    totals = [sum(weights[i][j] for i, j in m) for m in matchings(list(range(len(weights))))]
    return min(totals, default=None)


@st.composite
def pair_weights(draw):
    k = draw(st.integers(0, 10))
    weights = [[None] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        w = draw(st.one_of(st.none(), st.integers(1, 9)))
        weights[i][j] = weights[j][i] = w
    return weights


class TestMinWeightMatching:
    @settings(max_examples=150, deadline=None)
    @given(pair_weights())
    def test_agrees_with_enumeration(self, weights):
        got = min_weight_matching(weights)
        want = brute_force_matching(weights)
        if want is None:
            assert got is None
            return
        total, pairs = got
        assert total == want
        assert sorted(v for pair in pairs for v in pair) == list(range(len(weights)))
        assert all(i < j for i, j in pairs)
        assert sum(weights[i][j] for i, j in pairs) == total

    def test_empty_and_odd(self):
        assert min_weight_matching([]) == (0, [])
        assert min_weight_matching([[0]]) is None


class TestGraphFromIncidence:
    def test_round_trip(self, fig3_graph):
        a = fig3_graph.incidence_matrix()
        g = graph_from_incidence(a)
        assert np.array_equal(g.incidence_matrix(), a)
        assert girth(g) == 6

    def test_isolated_vertex(self):
        a = np.array([[1], [1], [0]], dtype=np.uint8)
        g = graph_from_incidence(a)
        assert g.vertex_count == 3 and g.edges == ((1, 2),)

    @pytest.mark.parametrize("a", [
        [[1, 0], [1, 1], [1, 1]],                 # a weight-3 column
        [[1, 1], [1, 1], [0, 0]],                 # a repeated column
        [[1, 0, 1], [1, 1, 0], [0, 1, 1]],        # a triangle: odd cycle
    ], ids=["weight-3", "repeated", "odd-cycle"])
    def test_not_a_bipartite_graph(self, a):
        assert graph_from_incidence(np.array(a, dtype=np.uint8)) is None


@st.composite
def small_codes(draw):
    """A graph on up to 4 + 4 vertices with up to 9 cross edges, in any
    order, and a particle count from 0 to Q + 1."""
    nl, nr = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    left, right = range(1, nl + 1), range(nl + 1, nl + nr + 1)
    cross = [(u, v) for u in left for v in right]
    edges = draw(st.lists(st.sampled_from(cross), unique=True, max_size=9))
    g = BipartiteGraph(frozenset(left), frozenset(right), tuple(edges))
    return g, draw(st.integers(0, nl + nr + 1))


class TestDecode:
    @settings(max_examples=100, deadline=None)
    @given(small_codes())
    def test_every_syndrome_agrees_with_brute_force(self, code):
        """Certified or not, and at N past Q: the decoder answers exactly
        when the lightest preimage has weight N, with a weight-N preimage,
        and with brute_force_decode's one preimage wherever there is one."""
        g, n = code
        a = g.incidence_matrix()
        q, m = a.shape
        masks = g.edge_masks()
        lightest = {}  # syndrome mask: least weight of a preimage
        for subset in range(1 << m):
            s = 0
            for col in range(m):
                if subset >> col & 1:
                    s ^= masks[col]
            lightest[s] = min(lightest.get(s, m), subset.bit_count())
        decoder = GraphDecoder(g, n)
        certified = GraphDecoder.certified(g, n) is not None
        for s in range(1 << q):
            bits = gf2.unpack_ints([s], q)[0]
            got = decoder.decode(bits)
            try:
                want, several = brute_force_decode(a, n, bits), False
            except InjectivityViolation:
                want, several = None, True
            assert (got is None) == (lightest.get(s) != n)
            if got is not None:
                assert int(got.sum()) == n and np.array_equal(syndrome(a, got), bits)
                assert several or np.array_equal(got, want)
            if certified:
                assert not several and (got is None) == (want is None)

    def test_single_edge_boundary(self):
        g = four_cycle()
        syndrome = np.zeros(4, dtype=np.uint8)
        syndrome[[0, 2]] = 1  # endpoints of edge (1, 3)
        x = graph_decode(g, syndrome, 1)
        assert x.tolist() == [1, 0, 0, 0]

    def test_empty_syndrome_needs_zero_weight(self):
        g = four_cycle()
        zero = np.zeros(4, dtype=np.uint8)
        assert graph_decode(g, zero, 1) is None
        assert graph_decode(g, zero, 0).tolist() == [0, 0, 0, 0]

    def test_odd_syndrome_rejected(self, fig3_graph):
        syndrome = np.zeros(12, dtype=np.uint8)
        syndrome[0] = 1
        assert graph_decode(fig3_graph, syndrome, 2) is None

    def test_all_syndromes_match_brute_force(self, fig3_graph):
        a = fig3_graph.incidence_matrix()
        reference = syndrome_map(a, 2)
        for syn in range(1 << 12):
            bits = gf2.unpack_ints([syn], 12)[0]
            got = graph_decode(fig3_graph, bits, 2)
            want = reference.get(syn)
            if want is None:
                assert got is None
            else:
                assert got is not None and bits_int(got) == want

    @pytest.mark.parametrize("q,n,seed", [(10, 2, 0), (12, 2, 1), (14, 3, 2), (16, 3, 3)])
    def test_random_graphs_match_brute_force(self, q, n, seed):
        g = greedy_high_girth(q, n, trials=10, seed=seed)
        a = g.incidence_matrix()
        reference = syndrome_map(a, n)
        rng = np.random.default_rng(seed)
        # all achievable syndromes plus random unachievable ones
        for syn, mask in list(reference.items())[:200]:
            bits = gf2.unpack_ints([syn], q)[0]
            got = graph_decode(g, bits, n)
            assert got is not None and bits_int(got) == mask
        for _ in range(200):
            bits = rng.integers(0, 2, size=q).astype(np.uint8)
            got = graph_decode(g, bits, n)
            want = reference.get(bits_int(bits))
            if want is None:
                assert got is None
            else:
                assert bits_int(got) == want


    def test_decoder_reuse_matches_one_off_calls(self):
        g = greedy_high_girth(20, 3, trials=5, seed=7)
        decoder = GraphDecoder(g, 3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            bits = rng.integers(0, 2, size=20).astype(np.uint8)
            got, want = decoder.decode(bits), graph_decode(g, bits, 3)
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)

    def test_wrong_syndrome_length(self, fig3_graph):
        with pytest.raises(ValueError, match="syndrome length"):
            GraphDecoder(fig3_graph, 2).decode(np.zeros(11, dtype=np.uint8))


class TestFileFormat:
    def test_round_trip(self, tmp_path, fig3_graph):
        path = tmp_path / "g.graph"
        save_graph(fig3_graph, str(path))
        again = load_graph(str(path))
        assert again.edge_count == fig3_graph.edge_count
        assert girth(again) == girth(fig3_graph)
        assert len(again.left) == len(fig3_graph.left)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("1 1 2\n1 2\n")
        with pytest.raises(ValueError):
            load_graph(str(path))

    @pytest.mark.parametrize("body, message", [
        ("2\n", "line 1: the header must be \"Q_left Q_right M\" in non-negative integers"),
        ("1 1 x\n", "line 1: the header must be"),
        ("\n1 -1 0\n", "line 2: the header must be"),
        ("1 1 1\n\n1 3\n", "line 3: an edge must be \"u v\" with vertices in 1..2"),
        ("1 1 1\n1 2 2\n", "line 2: an edge must be"),
        ("1 1 1\n0 2\n", "line 2: an edge must be"),
        ("1 2 1\n2 3\n", "edge 2-3 does not cross the bipartition"),
    ], ids=["one-token", "non-integer", "negative", "vertex-past-q", "three-ends",
            "vertex-zero", "same-side"])
    def test_bad_file_names_the_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "bad.graph"
        path.write_text(body)
        with pytest.raises(ValueError) as err:
            load_graph(str(path))
        assert str(err.value).startswith(f"graph file {path}")
        assert message in str(err.value)

    @pytest.mark.parametrize("body", ["1000000 1000000 0\n", "20000 20000 1\n1 20001\n"],
                             ids=["header-only", "one-edge"])
    def test_vertex_count_past_the_cap_is_refused_before_any_set(self, tmp_path, body):
        path = tmp_path / "big.graph"
        path.write_text(body)
        q = sum(map(int, body.split()[:2]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                load_graph(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (f"graph file {path}, line 1: graph on {q} vertices exceeds "
                                  f"the cap of {limits.GRAPH_VERTEX_CAP}; its greedy search "
                                  "holds Q x Q distance matrices")
        assert peak < 1 << 20  # no vertex set of the header's size

    def test_isolated_vertices_survive(self, tmp_path):
        g = BipartiteGraph(frozenset({1, 2}), frozenset({3, 4}), ((1, 3),))
        path = tmp_path / "iso.graph"
        save_graph(g, str(path))
        again = load_graph(str(path))
        assert again.vertex_count == 4
        assert again.edge_count == 1


class TestValidation:
    def test_edge_within_side_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraph(frozenset({1, 2}), frozenset({3}), ((1, 2),))

    def test_parallel_edge_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraph(frozenset({1}), frozenset({2}), ((1, 2), (2, 1)))

    def test_vertex_numbering(self):
        with pytest.raises(ValueError):
            BipartiteGraph(frozenset({1}), frozenset({3}), ((1, 3),))
