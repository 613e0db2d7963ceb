"""Branch-and-bound search, orbits, and the cyclic-invariant restriction."""

import hashlib
import itertools
import math
import random
import tracemalloc
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keller import search as search_module
from keller.construction import VectorSet
from keller.core import (
    Automorphism,
    CubeVector,
    GraphVariant,
    KellerGraphSpec,
    enumerate_automorphisms,
    has_edge,
    materialize,
)
from keller.search import (
    SearchBudget,
    SearchStatus,
    _CliqueSearch,
    _relabel,
    _pair_stabilizer_key,
    _stabilizer_classes,
    _Subproblem,
    _subproblems,
    clique_decision,
    cyclic_orbits,
    invariant_clique_search,
    max_clique,
)
from keller.verify import verify_clique

PLAIN = GraphVariant.PLAIN
STAR = GraphVariant.STAR


def nx_graph(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.num_vertices))
    out.add_edges_from(g.edges())
    return out


def nx_omega(graph):
    return max(len(c) for c in nx.find_cliques(graph))


# ---------------------------------------------------------------------------
# max clique / decision
# ---------------------------------------------------------------------------

def test_max_clique_plain_reaches_2n():
    for dim in (1, 2, 3):
        g = materialize(KellerGraphSpec(dim, PLAIN))
        out = max_clique(g)
        assert out.status is SearchStatus.OPTIMAL
        assert len(out.best_clique) == 2**dim


def test_max_clique_g2_star_is_triangle_free():
    g = materialize(KellerGraphSpec(2, STAR))
    # independent oracle: no triangle exists among all 16 vertices
    spec = g.spec
    vecs = [g.vector(i) for i in range(16)]
    triangles = [
        t
        for t in itertools.combinations(vecs, 3)
        if all(has_edge(spec, a, b) for a, b in itertools.combinations(t, 2))
    ]
    assert not triangles
    out = max_clique(g)
    assert out.status is SearchStatus.OPTIMAL and len(out.best_clique) == 2


def test_max_clique_g3_star_value():
    g = materialize(KellerGraphSpec(3, STAR))
    out = max_clique(g)
    assert out.status is SearchStatus.OPTIMAL
    assert len(out.best_clique) == nx_omega(nx_graph(g)) == 5  # strictly below 2^3


def test_decision_refutes_full_cliques_low_dims():
    for dim in (2, 3):
        g = materialize(KellerGraphSpec(dim, STAR))
        out = clique_decision(g, 2**dim)
        assert out.status is SearchStatus.TARGET_REFUTED


def test_decision_finds_witness_in_plain():
    g = materialize(KellerGraphSpec(3, PLAIN))
    out = clique_decision(g, 8)
    assert out.status is SearchStatus.TARGET_FOUND
    assert len(out.best_clique) >= 8
    assert verify_clique(out.best_clique, g.spec).is_clique


def test_bound_validity_on_random_induced_subgraphs():
    # the coloring bound must never prune the true optimum; compare the
    # engine on induced subgraphs against maximal-clique enumeration
    rng = random.Random(914)
    for dim in (3, 4):
        g = materialize(KellerGraphSpec(dim, STAR))
        full = nx_graph(g)
        matrix = keller_matrix(g)
        for _ in range(12):
            verts = rng.sample(range(g.num_vertices), 24)
            sub = full.subgraph(verts)
            want = nx_omega(sub) if sub.number_of_edges() else 1
            status, best = unreduced(matrix[np.ix_(verts, verts)], None)
            assert status is SearchStatus.OPTIMAL
            assert len(best) == want


def test_determinism_same_nodes_and_outcome():
    g = materialize(KellerGraphSpec(3, STAR))
    a = max_clique(g)
    b = max_clique(g)
    assert (a.status, a.nodes_explored, a.best_clique) == (b.status, b.nodes_explored, b.best_clique)


def test_budget_exhaustion_statuses():
    g = materialize(KellerGraphSpec(4, STAR))
    out = clique_decision(g, 16, SearchBudget(node_limit=20))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.nodes_explored == 20
    out = max_clique(g, SearchBudget(node_limit=10))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert verify_clique(out.best_clique, g.spec).is_clique


def test_budget_is_shared_across_subproblems():
    # G*_4 decide 16 runs over nine Stab(0) subproblems in 34 nodes; every
    # limit below that stops at exactly the limit
    g = materialize(KellerGraphSpec(4, STAR))
    for limit in (1, 2, 3, 20, 33):
        out = clique_decision(g, 16, SearchBudget(node_limit=limit))
        assert (out.status, out.nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, limit)
    out = clique_decision(g, 16, SearchBudget(node_limit=34))
    assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, 34)


def test_interrupt_keeps_incumbent():
    g = materialize(KellerGraphSpec(4, STAR))
    seen = []

    def on_improve(size, nodes):
        seen.append(size)
        if size >= 6:
            raise KeyboardInterrupt

    out = max_clique(g, on_improve=on_improve)
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.note == "interrupted"
    assert len(out.best_clique) == seen[-1] >= 6
    assert verify_clique(out.best_clique, g.spec).is_clique


def test_interrupt_in_weighted_search(monkeypatch):
    def interrupt(self, cand):
        raise KeyboardInterrupt

    monkeypatch.setattr(_CliqueSearch, "_color_sort", interrupt)
    out = invariant_clique_search(3, 4)  # one constant or four: the pair rule does not fire
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.note == "interrupted"
    assert out.nodes_explored == 1
    assert len(out.best_clique) == 0


def test_interrupt_in_forced_pair_search(monkeypatch):
    # 5 = 3 + 2 forces two constants, so the clique starts from {000, 222}
    # and the root node's incumbent is that prefix
    def interrupt(self, cand):
        raise KeyboardInterrupt

    monkeypatch.setattr(_CliqueSearch, "_color_sort", interrupt)
    out = invariant_clique_search(3, 5)
    assert (out.status, out.note, out.nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, "interrupted", 1)
    assert out.best_clique == VectorSet.from_strings(3, ["000", "222"])


def test_interrupt_while_building_orbit_graph(monkeypatch):
    def interrupt(row0, table):
        raise KeyboardInterrupt

    monkeypatch.setattr(search_module, "_orbit_compatibility", interrupt)
    out = invariant_clique_search(3, 5)
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert (out.note, out.nodes_explored, len(out.best_clique)) == ("interrupted", 0, 0)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(node_limit=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=0.0)
    with pytest.raises(ValueError, match="time_limit must be positive"):
        SearchBudget(time_limit=float("nan"))


# ---------------------------------------------------------------------------
# symmetry breaking: vertex 0, then the Stab(0) class of the second vertex
# ---------------------------------------------------------------------------

def digit_key(v):
    return v.digits.count(0), v.digits.count(2)


def neighbors_of_zero(g):
    return np.array([g.has_edge_index(0, v) for v in range(g.num_vertices)])


@pytest.mark.parametrize("n", [2, 3])
def test_translations_are_automorphisms(n):
    # u -> u ^ v relabels coordinate i by x -> x ^ v_i, a 4-cycle symmetry
    group = set(enumerate_automorphisms(n))
    vecs = [CubeVector.from_index(n, i) for i in range(4**n)]
    for v in vecs:
        a = Automorphism(tuple(range(n)), tuple(tuple(x ^ d for x in range(4)) for d in v.digits))
        assert a in group
        assert all(a.apply(u).packed == u.packed ^ v.packed for u in vecs)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_stabilizer_orbits_are_digit_count_classes(n, variant):
    g = materialize(KellerGraphSpec(n, variant))
    zero = CubeVector.from_index(n, 0)
    stab = [a for a in enumerate_automorphisms(n) if a.apply(zero) == zero]
    assert len(stab) == 2**n * math.factorial(n)
    classes = [[CubeVector.from_index(n, int(v)) for v in c] for c in _stabilizer_classes(g.spec, neighbors_of_zero(g))]
    members = [v for c in classes for v in c]
    assert sorted(v.packed for v in members) == [v for v in range(4**n) if g.has_edge_index(0, v)]
    assert len({digit_key(c[0]) for c in classes}) == len(classes)
    assert [len(c) for c in classes] == sorted((len(c) for c in classes), reverse=True)
    for c in classes:
        cls = set(c)
        assert {digit_key(v) for v in c} == {digit_key(c[0])}
        assert all(a.apply(v) in cls for a in stab for v in c)  # invariant
        assert {a.apply(c[0]) for a in stab} == cls  # one orbit


def test_reduction_only_on_keller_adjacency():
    g = materialize(KellerGraphSpec(3, STAR))
    subs = [build() for build in _subproblems(g)]
    assert len(subs) == len(_stabilizer_classes(g.spec, neighbors_of_zero(g)))
    assert all(sub.prefix[0] == 0 and len(sub.prefix) == 2 for sub in subs)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_pair_stabilizer_key_classes_are_orbits(n, variant):
    # for each r in N(0), the key's classes on all 4^n vectors are the orbits
    # of the automorphisms fixing both 0 and r; the search only keys class
    # representatives, whose odd digits are all 1, so r ranges wider to pin
    # the sign that a 3 forces
    g = materialize(KellerGraphSpec(n, variant))
    zero = CubeVector.from_index(n, 0)
    stab = [a for a in enumerate_automorphisms(n) if a.apply(zero) == zero]
    for packed in np.flatnonzero(neighbors_of_zero(g)).tolist():
        r = CubeVector.from_index(n, packed)
        pair = [a for a in stab if a.apply(r) == r]
        key = _pair_stabilizer_key(n, r.packed, np.arange(4**n)).tolist()
        for v in range(4**n):
            orbit = {a.apply(CubeVector.from_index(n, v)).packed for a in pair}
            assert orbit == {w for w in range(4**n) if key[w] == key[v]}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_orbit_masks_are_the_key_classes_of_positions(n, variant):
    # position p's mask holds exactly the positions whose vertex shares p's
    # key: the masks partition the positions, one key per mask
    g = materialize(KellerGraphSpec(n, variant))
    for sub in (build() for build in _subproblems(g)):
        verts = np.array([v for (v,) in sub.vectors], dtype=np.intp)
        key = _pair_stabilizer_key(n, sub.prefix[1], verts).tolist()
        assert len(sub.orbit) == len(verts)
        for p, mask in enumerate(sub.orbit):
            assert [q for q in range(len(verts)) if mask >> q & 1] == [q for q in range(len(verts)) if key[q] == key[p]]


def keller_matrix(g):
    """The dense boolean adjacency matrix of g, one edge query per pair."""
    nverts = g.num_vertices
    return np.array([[g.has_edge_index(u, v) for v in range(nverts)] for u in range(nverts)])


def unreduced(matrix, target):
    """The B&B engine on a whole relabeled boolean matrix: (status, best clique)."""
    adj, order = _relabel(matrix)
    search = _CliqueSearch(target, SearchBudget())
    status = search.run([lambda: _Subproblem((), adj, [(v,) for v in order])])
    best = search.best_vectors()
    assert len(best) == search.best_size
    assert (matrix[np.ix_(best, best)] | np.eye(len(best), dtype=bool)).all()
    return status, best


def unreduced_keller(g, target):
    """``unreduced`` on the whole of g: (status, best size), the clique verified."""
    status, best = unreduced(keller_matrix(g), target)
    dim = g.spec.dim
    clique = VectorSet(dim, (CubeVector.from_index(dim, v) for v in best))
    assert verify_clique(clique, g.spec).is_clique
    return status, len(best)


def assert_agree(reduced, full, target):
    # the size of a decision run's incumbent depends on the search order;
    # what both must share is the status and which side of the target it is
    status, size = full
    assert reduced.status is status
    if status is SearchStatus.OPTIMAL:
        assert len(reduced.best_clique) == size
    elif status is SearchStatus.TARGET_FOUND:
        assert len(reduced.best_clique) >= target and size >= target
    else:
        assert len(reduced.best_clique) < target and size < target


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_reduced_search_matches_unreduced_small(n, variant):
    g = materialize(KellerGraphSpec(n, variant))
    omega = len(max_clique(g).best_clique)
    assert_agree(max_clique(g), unreduced_keller(g, None), None)
    for target in range(1, omega + 2):
        assert_agree(clique_decision(g, target), unreduced_keller(g, target), target)


@pytest.mark.parametrize("target", [12, 13, None])
def test_reduced_search_matches_unreduced_g4_star(target):
    g = materialize(KellerGraphSpec(4, STAR))
    reduced = max_clique(g) if target is None else clique_decision(g, target)
    assert_agree(reduced, unreduced_keller(g, target), target)


def test_reduced_search_node_counts_g4_star():
    # the unreduced engine needs 748 322, 108 280 and 748 342 nodes here
    g = materialize(KellerGraphSpec(4, STAR))
    assert clique_decision(g, 13).nodes_explored == 151
    assert clique_decision(g, 16).nodes_explored == 34
    assert max_clique(g).nodes_explored == 184


def test_clique_number_ground_truth():
    for n, omega in ((2, 2), (3, 5), (4, 12)):
        out = max_clique(materialize(KellerGraphSpec(n, STAR)))
        assert (out.status, len(out.best_clique)) == (SearchStatus.OPTIMAL, omega)
    for n in (1, 2, 3, 4):
        out = max_clique(materialize(KellerGraphSpec(n, PLAIN)))
        assert (out.status, len(out.best_clique)) == (SearchStatus.OPTIMAL, 2**n)
    out = max_clique(materialize(KellerGraphSpec(1, STAR)))  # G*_1 has no edges
    assert (out.status, len(out.best_clique)) == (SearchStatus.OPTIMAL, 1)


@pytest.mark.parametrize("n, nverts, nedges", [(4, 171, 9435), (5, 776, 225_990), (6, 3361, 4_619_898)])
def test_neighbourhood_of_zero_is_dimacs_keller(n, nverts, nedges):
    # G*_n induced on N(0) has the published sizes of the DIMACS keller4,
    # keller5 and keller6 instances, whose clique number is omega(G*_n) - 1
    row0 = materialize(KellerGraphSpec(n, STAR)).row0
    verts = np.flatnonzero(row0)
    matrix = search_module._gather(row0, verts, [verts])
    assert (len(verts), int(matrix.sum()) // 2) == (nverts, nedges)
    if n == 4:
        adj, order = _relabel(matrix)
        search = _CliqueSearch(None, SearchBudget())
        status = search.run([lambda: _Subproblem((), adj, [(int(verts[p]),) for p in order])])
        assert (status, search.best_size, search.nodes) == (SearchStatus.OPTIMAL, 11, 11_585)
        # with vertex 0 it is a maximum clique of G*_4
        clique = VectorSet._from_packed(n, [0, *search.best_vectors()])
        assert verify_clique(clique, KellerGraphSpec(n, STAR)).is_clique


class ClassStartBound(_CliqueSearch):
    """The engine with its earlier bound test: once at each class start and
    after each recursive child, against a threshold held in a local."""

    def _expand(self, rmask, rsize, cand, drop):
        self._tick()
        if rsize > self.best_size:
            self._improve(rmask, rsize)
        adj, weights, cap, bits = self.adj, self.weights, self.cap, self.bits
        threshold = max(self.best_size, self.floor)
        for cls, bound in reversed(self._color_sort(cand)):
            cls &= cand
            if rsize + bound <= threshold:
                return
            while cls:
                bit = cls & -cls
                p = bit.bit_length() - 1
                size = rsize + weights[p]
                if size <= cap:
                    sub = cand & adj[p]
                    if sub:
                        self._expand(rmask | bit, size, sub, bits)
                        threshold = max(self.best_size, self.floor)
                        if rsize + bound <= threshold:
                            return
                    elif size > self.best_size:
                        self._improve(rmask | bit, size)
                cand ^= drop[p]
                cls &= cand


@st.composite
def weighted_graphs(draw):
    """A symmetric boolean matrix on 1-20 vertices with a weight of 1-3 per vertex."""
    nverts = draw(st.integers(1, 20))
    upper = draw(st.lists(st.booleans(), min_size=nverts * nverts, max_size=nverts * nverts))
    matrix = np.triu(np.array(upper, dtype=bool).reshape(nverts, nverts), 1)
    weights = draw(st.lists(st.integers(1, 3), min_size=nverts, max_size=nverts))
    return matrix | matrix.T, weights


@settings(max_examples=200, deadline=None)
@given(weighted_graphs(), st.data())
def test_bound_test_before_every_child_matches_class_start_test(graph, data):
    # testing the bound before every child prunes only children that are
    # leaves of the first class and no heavier than the incumbent, so the
    # trees, incumbents and improvement logs are the same; the root drops a
    # drawn partition of the positions as its orbits
    matrix, weights = graph
    adj, order = _relabel(matrix)
    vectors = [tuple(range(3 * v, 3 * v + weights[v])) for v in order]
    block = data.draw(st.lists(st.integers(0, 3), min_size=len(order), max_size=len(order)))
    orbit = [sum(1 << q for q, b in enumerate(block) if b == block[p]) for p in range(len(order))]
    for target in (None, data.draw(st.integers(1, sum(weights) + 1))):
        runs = []
        for engine in (_CliqueSearch, ClassStartBound):
            log = []
            search = engine(target, SearchBudget(), lambda size, nodes: log.append((size, nodes)))
            status = search.run([lambda: _Subproblem((), adj, vectors, orbit)])
            runs.append((status, search.nodes, search.best_vectors(), log))
        assert runs[0] == runs[1]


def packed_values(clique):
    return sorted(clique.packed.tolist())


def test_g5_star_has_a_28_clique():
    # Corradi-Szabo (1990): the clique number of G*_5 is 28; the node count
    # and the witness pin the search order exactly
    g = materialize(KellerGraphSpec(5, STAR))
    out = clique_decision(g, 28)
    assert out.status is SearchStatus.TARGET_FOUND
    assert len(out.best_clique) >= 28
    assert verify_clique(out.best_clique, g.spec).is_clique
    assert out.nodes_explored == 86_126
    assert packed_values(out.best_clique) == [
        0, 24, 30, 86, 123, 148, 159, 306, 313, 397, 435, 437, 470, 507,
        541, 560, 595, 597, 619, 724, 735, 882, 889, 925, 944, 966, 1016, 1022,
    ]


def test_budgeted_decision_keeps_a_real_incumbent():
    # every node the search enters is a clique, so a decision run that runs
    # out of budget still reports the largest one it reached
    g = materialize(KellerGraphSpec(5, STAR))
    out = clique_decision(g, 29, SearchBudget(node_limit=30_000))
    assert (out.status, out.nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, 30_000)
    assert len(out.best_clique) == 13
    assert verify_clique(out.best_clique, g.spec).is_clique
    assert packed_values(out.best_clique) == [0, 86, 143, 397, 491, 513, 522, 546, 612, 645, 651, 707, 1002]


def test_progress_heartbeat_every_progress_every_nodes(monkeypatch):
    monkeypatch.setattr(search_module, "_PROGRESS_EVERY", 1024)
    g = materialize(KellerGraphSpec(5, STAR))
    beats = []
    out = clique_decision(
        g, 29, SearchBudget(node_limit=3500), on_progress=lambda n, r: beats.append((n, r))
    )
    assert [n for n, _ in beats] == [1024, 2048, 3072]
    assert all(r > 0 for _, r in beats)
    # the heartbeat only observes: the same tree and incumbent as without it
    quiet = clique_decision(g, 29, SearchBudget(node_limit=3500))
    assert (out.status, out.nodes_explored, out.best_clique) == (
        quiet.status, quiet.nodes_explored, quiet.best_clique
    )
    beats.clear()
    out = invariant_clique_search(6, 64, on_progress=lambda n, r: beats.append((n, r)))
    assert out.nodes_explored > 1024
    assert [n for n, _ in beats] == list(range(1024, out.nodes_explored + 1, 1024))
    # with neither a deadline nor a heartbeat, no node polls the clock
    assert not _CliqueSearch(29, SearchBudget()).poll
    assert _CliqueSearch(29, SearchBudget(time_limit=1.0)).poll


def test_time_limit_exhaustion_keeps_a_real_incumbent():
    # the clock is read every 1024 nodes and before each further subproblem; decide
    # 29 runs for minutes and its first subproblem alone for over 200 000
    # nodes, so a run stopped by its time limit stops at a multiple of 1024
    g = materialize(KellerGraphSpec(5, STAR))
    out = clique_decision(g, 29, SearchBudget(time_limit=0.2))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.nodes_explored > 0 and out.nodes_explored % 1024 == 0
    assert out.best_clique and verify_clique(out.best_clique, g.spec).is_clique


def test_time_limit_is_checked_between_subproblems():
    # the first G*_6 subproblem refutes 4096 at its root node; a spent time
    # limit then stops the run before it builds the other 19 subproblems,
    # which it would otherwise all build and refute at one node each
    g = materialize(KellerGraphSpec(6, STAR))
    out = clique_decision(g, 4096, SearchBudget(time_limit=1e-9))
    assert (out.status, out.nodes_explored, len(out.best_clique)) == (SearchStatus.BUDGET_EXHAUSTED, 1, 2)


def test_search_finished_past_its_time_limit_is_complete():
    # the cyclic n = 5 refutation is one subproblem; with a spent time limit
    # the clock is read at nodes 1024, 2048, ... only, so the 304-node tree
    # is finished and the refutation stands
    out = invariant_clique_search(5, 8, SearchBudget(time_limit=1e-6))
    assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, 304)
    # G_1 is two edges, so N(0) = {2} is one Stab(0) class and its
    # subproblem, the last one, ends the search
    out = max_clique(materialize(KellerGraphSpec(1, PLAIN)), SearchBudget(time_limit=1e-9))
    assert (out.status, out.nodes_explored, len(out.best_clique)) == (SearchStatus.OPTIMAL, 0, 2)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_cyclic_orbits_n7_counts():
    orbits = cyclic_orbits(7)
    sizes = Counter(o.size for o in orbits)
    assert sizes == {1: 4, 7: (4**7 - 4) // 7}
    assert sizes[7] == 2340


def test_cyclic_orbits_n2_swap():
    orbits = cyclic_orbits(2)
    by_rep = {str(o.representative): o for o in orbits}
    assert {str(v) for v in by_rep["01"].orbit} == {"01", "10"}
    assert by_rep["00"].size == 1


def test_cyclic_orbits_n3_total():
    assert len(cyclic_orbits(3)) == 4 + (64 - 4) // 3 == 24


def test_cyclic_orbits_composite_n4():
    sizes = Counter(o.size for o in cyclic_orbits(4))
    assert sizes == {1: 4, 2: 6, 4: 60}


def rotated(v):
    return CubeVector.from_digits(v.digits[1:] + v.digits[:1])


def test_orbits_partition_and_reps_minimal():
    # one coordinate: the shift is the identity
    assert [(o.representative.packed, len(o.orbit), o.size) for o in cyclic_orbits(1)] == [(i, 1, 1) for i in range(4)]
    for n in (2, 3, 4):
        orbits = cyclic_orbits(n)
        everything = [v for o in orbits for v in o.orbit]
        assert len(everything) == 4**n
        assert len(set(everything)) == 4**n
        reps = [o.representative.digits for o in orbits]
        assert reps == sorted(reps)
        for o in orbits:
            assert o.representative.digits == min(v.digits for v in o.orbit)
            assert {rotated(v) for v in o.orbit} == set(o.orbit)
    for n in range(1, 6):
        shift = search_module._shift(n)
        vecs = [CubeVector.from_index(n, i) for i in range(4**n)]
        assert [shift.apply(v) for v in vecs] == [rotated(v) for v in vecs]
        # row i walks the shift from its representative: its first size
        # entries are distinct, and then it repeats them
        table, sizes = search_module._orbit_table(shift)
        assert table.shape == (len(cyclic_orbits(n)), n)
        for row, size in zip(table.tolist(), sizes.tolist()):
            assert len(set(row[:size])) == size
            assert row == row[:size] * (n // size)


@pytest.mark.parametrize("block_elems", [1, 300, 1 << 15])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_compatibility_matches_definition(monkeypatch, n, block_elems):
    # admissible: every internal pair adjacent; compatible: every cross pair
    # adjacent (a vector is not adjacent to itself, so the diagonal is clear);
    # the blocks run from one row to the whole matrix
    monkeypatch.setattr(search_module, "_BLOCK_ELEMS", block_elems)
    g = materialize(KellerGraphSpec(n, STAR))
    adjacency = keller_matrix(g)
    members = [[v.packed for v in o.orbit] for o in cyclic_orbits(n)]
    table, _ = search_module._orbit_table(search_module._shift(n))
    admissible, compat = search_module._orbit_compatibility(g.row0, table)
    keep = [i for i, m in enumerate(members) if (adjacency[np.ix_(m, m)] | np.eye(len(m), dtype=bool)).all()]
    assert admissible.tolist() == keep
    expected = [[adjacency[np.ix_(members[a], members[b])].all() for b in keep] for a in keep]
    assert compat.tolist() == expected


@pytest.mark.parametrize("n, admissible, limit_mib", [(7, 1600, 16), (8, 4320, 64)])
def test_orbit_compatibility_memory_is_bounded(n, admissible, limit_mib):
    # a one-shot build holds several admissible x admissible uint64
    # temporaries: a 68.5 MiB peak at n = 7 and 142 MiB per temporary at n = 8
    g = materialize(KellerGraphSpec(n, STAR))
    table, _ = search_module._orbit_table(search_module._shift(n))
    tracemalloc.start()
    try:
        adm, compat = search_module._orbit_compatibility(g.row0, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(adm) == admissible
    assert peak < limit_mib * 2**20
    assert (compat == compat.T).all() and not compat.diagonal().any()


# ---------------------------------------------------------------------------
# invariant search
# ---------------------------------------------------------------------------

def brute_invariant_exists(n, target):
    spec = KellerGraphSpec(n, STAR)
    orbits = cyclic_orbits(n)
    adm = [
        o
        for o in orbits
        if all(
            has_edge(spec, a, b)
            for a, b in itertools.combinations(sorted(o.orbit, key=lambda v: v.digits), 2)
        )
    ]

    def compatible(a, b):
        return all(has_edge(spec, u, v) for u in a.orbit for v in b.orbit)

    for r in range(len(adm) + 1):
        for combo in itertools.combinations(adm, r):
            if sum(o.size for o in combo) != target:
                continue
            if all(compatible(a, b) for a, b in itertools.combinations(combo, 2)):
                return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_invariant_search_matches_brute_force(n):
    for target in range(1, 2**n + 1):
        out = invariant_clique_search(n, target)
        assert out.status in (SearchStatus.TARGET_FOUND, SearchStatus.TARGET_REFUTED)
        assert (out.status is SearchStatus.TARGET_FOUND) == brute_invariant_exists(n, target)
        if out.status is SearchStatus.TARGET_FOUND:
            assert len(out.best_clique) == target
            assert verify_clique(out.best_clique, KellerGraphSpec(n, STAR)).is_clique


@pytest.mark.parametrize("n", [2, 3, 4])
def test_invariant_refutation_consistent_with_unrestricted(n):
    restricted = invariant_clique_search(n, 2**n)
    unrestricted = clique_decision(materialize(KellerGraphSpec(n, STAR)), 2**n)
    assert unrestricted.status is SearchStatus.TARGET_REFUTED
    assert restricted.status is SearchStatus.TARGET_REFUTED


def test_invariant_found_set_is_shift_closed():
    out = invariant_clique_search(3, 5)
    assert out.status is SearchStatus.TARGET_FOUND
    members = set(out.best_clique)
    assert {rotated(v) for v in members} == members


def test_invariant_weighted_node_counts():
    # a node colors a non-empty candidate set; leaves are not counted
    out = invariant_clique_search(5, 8)
    assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, 304)
    out = invariant_clique_search(6, 64)
    assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, 1496)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_uniform_step_commutes_with_shift_and_swaps_constant_pairs(n):
    # the ground of the forced-pair rule: x -> x + 1 on every coordinate maps
    # rotation-invariant cliques to rotation-invariant cliques, and
    # {1^n, 3^n} onto {0^n, 2^n}
    up, shift = Automorphism(tuple(range(n)), ((1, 2, 3, 0),) * n), search_module._shift(n)
    vecs = VectorSet._from_packed(n, np.arange(4**n)).packed
    assert np.array_equal(up._apply_packed(shift._apply_packed(vecs)), shift._apply_packed(up._apply_packed(vecs)))
    odd = VectorSet(n, [CubeVector.from_digits((d,) * n) for d in (1, 3)])
    assert odd.apply(up) == VectorSet(n, [CubeVector.from_digits((d,) * n) for d in (0, 2)])


def unreduced_invariant_status(n, target):
    """The orbit search with no pair rule: every admissible orbit a singleton position."""
    table, sizes = search_module._orbit_table(search_module._shift(n))
    keep, compat = search_module._orbit_compatibility(materialize(KellerGraphSpec(n, STAR)).row0, table)
    adj, order = _relabel(compat)
    vectors = [tuple(table[keep[u], : sizes[keep[u]]].tolist()) for u in order]
    return _CliqueSearch(target, SearchBudget()).run([lambda: _Subproblem((), adj, vectors)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_forced_pair_prefix_matches_unreduced_search(n):
    # the pair rule fires for prime n > 2 and target = 2 mod n; at n = 7
    # four such targets are run
    zeros, twos = CubeVector.from_digits((0,) * n), CubeVector.from_digits((2,) * n)
    for target in (2, 9, 58, 121) if n == 7 else range(1, 2**n + 1):
        out = invariant_clique_search(n, target)
        assert out.status is unreduced_invariant_status(n, target), target
        if out.status is SearchStatus.TARGET_FOUND and n in (3, 5, 7) and target % n == 2:
            assert zeros in out.best_clique and twos in out.best_clique


def test_invariant_infeasible_residue_reported_without_search():
    out = invariant_clique_search(7, 131)  # 131 % 7 = 5 > four available constants
    assert out.status is SearchStatus.TARGET_REFUTED
    assert out.nodes_explored == 0
    assert out.note is not None


def test_invariant_budget_exhaustion_keeps_incumbent():
    out = invariant_clique_search(6, 64, SearchBudget(node_limit=20))
    assert (out.status, out.nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, 20)
    members = set(out.best_clique)
    assert members
    assert verify_clique(out.best_clique, KellerGraphSpec(6, STAR)).is_clique
    assert {rotated(v) for v in members} == members


def test_invariant_n7_budgeted_incumbent_is_pinned():
    # the 50 000-node n = 7 run reaches a 79-vector incumbent; its vectors,
    # sorted by packed value, pin the search order exactly
    out = invariant_clique_search(7, 128, SearchBudget(node_limit=50_000))
    assert (out.status, out.nodes_explored, len(out.best_clique)) == (SearchStatus.BUDGET_EXHAUSTED, 50_000, 79)
    digest = hashlib.sha256(",".join(map(str, packed_values(out.best_clique))).encode()).hexdigest()
    assert digest == "0f20bef7d9958e21502bf951719a7902c7262bb28211da9bc53f2113a79fa7f2"
    assert verify_clique(out.best_clique, KellerGraphSpec(7, STAR)).is_clique


@pytest.mark.slow
def test_invariant_n7_complete_refutation():
    # G*_7 has no rotation-invariant 128-clique, consistent with its clique
    # number 124 (Debroni et al., SODA 2011); 21-32 s on a 2-vCPU VM
    out = invariant_clique_search(7, 128)
    assert (out.status, out.nodes_explored, len(out.best_clique)) == (SearchStatus.TARGET_REFUTED, 1_181_121, 79)
    assert verify_clique(out.best_clique, KellerGraphSpec(7, STAR)).is_clique
    members = set(out.best_clique)
    assert {rotated(v) for v in members} == members


def test_invariant_budget_exhaustion_clean():
    out = invariant_clique_search(7, 128, SearchBudget(node_limit=2000))
    assert out.status in (SearchStatus.TARGET_REFUTED, SearchStatus.BUDGET_EXHAUSTED)
    assert out.status is not SearchStatus.TARGET_FOUND


def test_invariant_huge_target_refuted_without_search():
    # the reach bitset would need 2^(target + 1) bits
    out = invariant_clique_search(3, 999_999_999_999)
    assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, 0)
    assert out.note == "target 999999999999 is not a sum of admissible orbit sizes"
    assert len(out.best_clique) == 0


def test_invariant_search_dimension_guard(monkeypatch):
    def enumerate_all(*args):
        raise AssertionError("the guard must reject n = 9 before enumerating")

    monkeypatch.setattr(search_module, "_orbit_table", enumerate_all)
    monkeypatch.setattr(search_module, "_orbit_compatibility", enumerate_all)
    with pytest.raises(ValueError, match="guarded at dim 8"):
        invariant_clique_search(9, 512)
    with pytest.raises(ValueError, match="guarded at dim 8"):
        invariant_clique_search(9, 512, SearchBudget(node_limit=1))
