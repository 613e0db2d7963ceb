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
    out = clique_decision(g, 16, SearchBudget(node_limit=50))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.nodes_explored == 50
    out = max_clique(g, SearchBudget(node_limit=10))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert verify_clique(out.best_clique, g.spec).is_clique


def test_budget_is_shared_across_subproblems():
    # G*_4 decide 16 runs over nine Stab(0) subproblems in 98 nodes; every
    # limit below that stops at exactly the limit
    g = materialize(KellerGraphSpec(4, STAR))
    for limit in (1, 2, 3, 50, 97):
        out = clique_decision(g, 16, SearchBudget(node_limit=limit))
        assert (out.status, out.nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, limit)
    out = clique_decision(g, 16, SearchBudget(node_limit=98))
    assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, 98)


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
    out = invariant_clique_search(3, 5)
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.note == "interrupted"
    assert out.nodes_explored == 1
    assert len(out.best_clique) == 0


def test_interrupt_while_building_orbit_graph(monkeypatch):
    def interrupt(g, orbits):
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
    subs = list(_subproblems(g))
    assert len(subs) == len(_stabilizer_classes(g.spec, neighbors_of_zero(g)))
    assert all(sub.prefix[0] == 0 and len(sub.prefix) == 2 for sub in subs)


def keller_matrix(g):
    """The dense boolean adjacency matrix of g, one edge query per pair."""
    nverts = g.num_vertices
    return np.array([[g.has_edge_index(u, v) for v in range(nverts)] for u in range(nverts)])


def unreduced(matrix, target):
    """The B&B engine on a whole relabeled boolean matrix: (status, best clique)."""
    adj, order = _relabel(matrix)
    search = _CliqueSearch(target, SearchBudget())
    status = search.run([_Subproblem((), adj, [(v,) for v in order])])
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
    assert clique_decision(g, 13).nodes_explored == 477
    assert clique_decision(g, 16).nodes_explored == 98
    assert max_clique(g).nodes_explored == 556


def test_clique_number_ground_truth():
    for n, omega in ((2, 2), (3, 5), (4, 12)):
        out = max_clique(materialize(KellerGraphSpec(n, STAR)))
        assert (out.status, len(out.best_clique)) == (SearchStatus.OPTIMAL, omega)
    for n in (1, 2, 3, 4):
        out = max_clique(materialize(KellerGraphSpec(n, PLAIN)))
        assert (out.status, len(out.best_clique)) == (SearchStatus.OPTIMAL, 2**n)
    out = max_clique(materialize(KellerGraphSpec(1, STAR)))  # G*_1 has no edges
    assert (out.status, len(out.best_clique)) == (SearchStatus.OPTIMAL, 1)


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


def test_time_limit_exhaustion_keeps_a_real_incumbent():
    # the clock is read every 1024 nodes and after each subproblem; decide
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


def test_orbits_partition_and_reps_minimal():
    for n in (2, 3, 4):
        orbits = cyclic_orbits(n)
        everything = [v for o in orbits for v in o.orbit]
        assert len(everything) == 4**n
        assert len(set(everything)) == 4**n
        for o in orbits:
            assert o.representative.digits == min(v.digits for v in o.orbit)
            shifted = {
                CubeVector.from_digits(v.digits[1:] + v.digits[:1]) for v in o.orbit
            }
            assert shifted == set(o.orbit)


@pytest.mark.parametrize("block_elems", [1, 300, 1 << 15])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_compatibility_matches_definition(monkeypatch, n, block_elems):
    # admissible: every internal pair adjacent; compatible: every cross pair
    # adjacent (a vector is not adjacent to itself, so the diagonal is clear);
    # the blocks run from one row to the whole matrix
    monkeypatch.setattr(search_module, "_BLOCK_ELEMS", block_elems)
    g = materialize(KellerGraphSpec(n, STAR))
    adjacency = keller_matrix(g)
    orbits = cyclic_orbits(n)
    members = [[v.packed for v in o.orbit] for o in orbits]
    admissible, compat = search_module._orbit_compatibility(g, orbits)
    keep = [i for i, m in enumerate(members) if (adjacency[np.ix_(m, m)] | np.eye(len(m), dtype=bool)).all()]
    assert admissible == [orbits[i] for i in keep]
    expected = [[adjacency[np.ix_(members[a], members[b])].all() for b in keep] for a in keep]
    assert compat.tolist() == expected


@pytest.mark.parametrize("n, admissible, limit_mib", [(7, 1600, 16), (8, 4320, 64)])
def test_orbit_compatibility_memory_is_bounded(n, admissible, limit_mib):
    # a one-shot build holds several admissible x admissible uint64
    # temporaries: a 68.5 MiB peak at n = 7 and 142 MiB per temporary at n = 8
    g = materialize(KellerGraphSpec(n, STAR))
    orbits = cyclic_orbits(n)
    tracemalloc.start()
    try:
        adm, compat = search_module._orbit_compatibility(g, orbits)
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
    shifted = {CubeVector.from_digits(v.digits[1:] + v.digits[:1]) for v in members}
    assert shifted == members


def test_invariant_weighted_node_counts():
    # a node colors a non-empty candidate set; leaves are not counted
    out = invariant_clique_search(5, 8)
    assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, 304)
    out = invariant_clique_search(6, 64)
    assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, 1496)


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
    shifted = {CubeVector.from_digits(v.digits[1:] + v.digits[:1]) for v in members}
    assert shifted == members


def test_invariant_n7_budgeted_incumbent_is_pinned():
    # the 50 000-node n = 7 run reaches a 77-vector incumbent; its vectors,
    # sorted by packed value, pin the search order exactly
    out = invariant_clique_search(7, 128, SearchBudget(node_limit=50_000))
    assert (out.status, out.nodes_explored, len(out.best_clique)) == (SearchStatus.BUDGET_EXHAUSTED, 50_000, 77)
    digest = hashlib.sha256(",".join(map(str, packed_values(out.best_clique))).encode()).hexdigest()
    assert digest == "05b908fc2750b231c4c7a52510005cf3b9281e2014392a4254709b296233ca4d"
    assert verify_clique(out.best_clique, KellerGraphSpec(7, STAR)).is_clique


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

    monkeypatch.setattr(search_module, "cyclic_orbits", enumerate_all)
    monkeypatch.setattr(search_module, "_orbit_compatibility", enumerate_all)
    with pytest.raises(ValueError, match="guarded at dim 8"):
        invariant_clique_search(9, 512)
    with pytest.raises(ValueError, match="guarded at dim 8"):
        invariant_clique_search(9, 512, SearchBudget(node_limit=1))
