"""Branch-and-bound search, orbits, and the cyclic-invariant restriction."""

import functools
import gc
import hashlib
import itertools
import math
import random
import tracemalloc
import weakref
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import dense_rows, packed_rows
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
    _cayley,
    _prefix_stabilizer_key,
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: clique_decision(materialize(KellerGraphSpec(2, STAR)), 0), "target size must be positive"),
        (lambda: invariant_clique_search(3, 0), "target must be positive"),
    ],
    ids=["decision-target-0", "invariant-target-0"],
)
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_determinism_same_nodes_and_outcome():
    g = materialize(KellerGraphSpec(3, STAR))
    a = max_clique(g)
    b = max_clique(g)
    assert (a.status, a.nodes_explored, a.best_clique) == (b.status, b.nodes_explored, b.best_clique)


def test_budget_exhaustion_statuses():
    g = materialize(KellerGraphSpec(4, STAR))
    out = clique_decision(g, 16, SearchBudget(node_limit=10))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.nodes_explored == 10
    out = max_clique(g, SearchBudget(node_limit=10))
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert verify_clique(out.best_clique, g.spec).is_clique


def test_budget_is_shared_across_subproblems():
    # G*_4 decide 16 runs over nine Stab(0) subproblems in 15 nodes, the
    # first 10 in the first one; every limit below that stops at exactly
    # the limit
    g = materialize(KellerGraphSpec(4, STAR))
    for limit in (1, 2, 3, 12, 14):
        out = clique_decision(g, 16, SearchBudget(node_limit=limit))
        assert (out.status, out.nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, limit)
    out = clique_decision(g, 16, SearchBudget(node_limit=15))
    assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, 15)


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
    def interrupt(self, cand, need):
        raise KeyboardInterrupt

    monkeypatch.setattr(_Subproblem, "_color_sort", interrupt)
    out = invariant_clique_search(3, 4)  # one constant or four: the pair rule does not fire
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.note == "interrupted"
    assert out.nodes_explored == 1
    assert len(out.best_clique) == 0


def test_interrupt_in_forced_pair_search(monkeypatch):
    # 5 = 3 + 2 forces two constants, so the clique starts from {000, 222}
    # and the root node's incumbent is that prefix
    def interrupt(self, cand, need):
        raise KeyboardInterrupt

    monkeypatch.setattr(_Subproblem, "_color_sort", interrupt)
    out = invariant_clique_search(3, 5)
    assert (out.status, out.note, out.nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, "interrupted", 1)
    assert out.best_clique == VectorSet.from_strings(3, ["000", "222"])


def test_interrupt_while_building_orbit_graph(monkeypatch):
    def interrupt(row0, table):
        raise KeyboardInterrupt

    monkeypatch.setattr(search_module, "_gather", interrupt)
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


def prefix_key(n, prefix, vecs):
    """``_prefix_stabilizer_key`` on packed vectors."""
    return _prefix_stabilizer_key(prefix, np.asarray(vecs), n)


def assert_key_classes_are_orbits(n, stab_images, prefix):
    """The key's classes on all 4^n vectors are the orbits of the maps fixing the prefix.

    ``stab_images`` holds each map of Stab(0) applied to every packed vector,
    one row per map; the maps fixing each prefix vector form a group, so the
    orbit of v is its column of images there.
    """
    fix = stab_images[(stab_images[:, prefix] == prefix).all(axis=1)]
    key = prefix_key(n, prefix, np.arange(4**n))
    # constant on each orbit, and as many classes as orbits (an orbit is
    # named by its smallest member)
    assert (key[fix] == key).all(), prefix
    assert len(np.unique(key)) == len(np.unique(fix.min(axis=0))), prefix


def common_neighbours(g, clique):
    return [v for v in range(g.num_vertices) if all(g.has_edge_index(u, v) for u in clique)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_prefix_stabilizer_key_classes_are_orbits(n, variant):
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
        key = prefix_key(n, [0, r.packed], np.arange(4**n)).tolist()
        for v in range(4**n):
            orbit = {a.apply(CubeVector.from_index(n, v)).packed for a in pair}
            assert orbit == {w for w in range(4**n) if key[w] == key[v]}
    # every clique prefix {0, r, p} and {0, r, p, q}, as deeper B&B nodes fix them
    images = np.array([a._apply_packed(np.arange(4**n)) for a in stab])
    assert_key_classes_are_orbits(n, images, [0])
    prefixes = 0
    for r in common_neighbours(g, [0]):
        for p in common_neighbours(g, [0, r]):
            if p > r:
                assert_key_classes_are_orbits(n, images, [0, r, p])
                prefixes += 1
                for q in common_neighbours(g, [0, r, p]):
                    if q > p:
                        assert_key_classes_are_orbits(n, images, [0, r, p, q])
                        prefixes += 1
    assert prefixes or (n, variant) == (2, STAR)  # G*_2 is triangle-free


def stab0_images(n):
    """Stab(0), the 2^n n! signed coordinate permutations, applied to every
    packed vector: one row per map."""
    negate = (0, 3, 2, 1)
    vecs = np.arange(4**n)
    return np.array([
        Automorphism(perm, tuple(negate if s else (0, 1, 2, 3) for s in signs))._apply_packed(vecs)
        for perm in itertools.permutations(range(n))
        for signs in itertools.product((0, 1), repeat=n)
    ])


def test_prefix_stabilizer_key_classes_are_orbits_g4_star_sample():
    # Stab(0) is the 2^4 4! = 384 signed coordinate permutations; each
    # preserves G*_4's adjacency.  A seeded sample of cliques {0, r, p, q}
    # keys every prefix of each
    n = 4
    g = materialize(KellerGraphSpec(n, STAR))
    images = stab0_images(n)
    vecs = np.arange(4**n)
    assert len({row.tobytes() for row in images}) == 384 and (images[:, 0] == 0).all()
    matrix = g.row0[vecs[:, None] ^ vecs]
    assert all((matrix[np.ix_(row, row)] == matrix).all() for row in images)
    rng = random.Random(416)
    for _ in range(25):
        clique = [0]
        while len(clique) < 4 and (nbrs := common_neighbours(g, clique)):
            clique.append(rng.choice(nbrs))
            assert_key_classes_are_orbits(n, images, clique)


def root_key(n, prefix, vecs):
    """The key of a subproblem root's orbits: Stab(0, r) keys merged by the
    swap x -> x ^ r, for the prefix (0, r)."""
    vecs = np.asarray(vecs)
    return np.minimum(prefix_key(n, prefix, vecs), prefix_key(n, prefix, vecs ^ prefix[1]))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_orbit_masks_are_the_key_classes_of_positions(n, variant):
    # at a subproblem's root, position p's drop mask holds exactly the
    # positions whose vertex shares p's merged key, its Stab(0, r) key or
    # that of its image under the swap x -> x ^ r: the masks partition the
    # positions, one key per mask
    g = materialize(KellerGraphSpec(n, variant))
    for sub in (build() for build in _subproblems(g)):
        verts = sub.vectors[:, 0]
        key = root_key(n, sub.prefix, verts).tolist()
        drop = sub._orbit_masks(0, (1 << len(verts)) - 1)
        assert sorted(drop) == list(range(len(verts)))
        for p, mask in drop.items():
            assert [q for q in range(len(verts)) if mask >> q & 1] == [q for q in range(len(verts)) if key[q] == key[p]]


def class_index(g):
    """Per vertex, the index of its Stab(0) class in search order; -1 off N(0)."""
    out = np.full(g.num_vertices, -1)
    for i, members in enumerate(_stabilizer_classes(g.spec, g.row0)):
        out[members] = i
    return out


@pytest.mark.parametrize("n, variant, limit", [(3, PLAIN, None), (3, STAR, None), (4, STAR, 500)])
def test_every_clique_has_a_normal_form_in_its_subproblem(n, variant, limit):
    # subproblem i is the Cayley graph of the classes from i on: a vertex or
    # an edge iff its difference (from 0, from r and from each other) lies in
    # class i or later.  Translating a maximal clique's pair (u, w) with the
    # earliest-class difference to (0, u ^ w), then mapping u ^ w onto the
    # class representative r by Stab(0), gives a clique of that subproblem
    g = materialize(KellerGraphSpec(n, variant))
    cls = class_index(g)
    subs = [build() for build in _subproblems(g)]
    positions = []
    for i, sub in enumerate(subs):
        r = sub.prefix[1]
        verts = sub.vectors[:, 0].tolist()
        assert sorted(verts) == [v for v in range(4**n) if cls[v] >= i and cls[v ^ r] >= i]
        for p, u in enumerate(verts):
            assert [q for q in range(len(verts)) if sub.adj[p] >> q & 1] == [
                q for q, v in enumerate(verts) if cls[u ^ v] >= i
            ]
        positions.append({v: p for p, v in enumerate(verts)})
    images = stab0_images(n)
    for clique in itertools.islice(nx.find_cliques(nx_graph(g)), limit):
        i, u, w = min((cls[u ^ w], u, w) for u, w in itertools.combinations(clique, 2))
        r = subs[i].prefix[1]
        a = images[np.flatnonzero(images[:, u ^ w] == r)[0]]
        image = {int(a[v ^ u]) for v in clique}
        assert {0, r} <= image and len(image) == len(clique)
        rest = [positions[i][v] for v in image - {0, r}]
        assert all(subs[i].adj[p] >> q & 1 for p, q in itertools.combinations(rest, 2))


@pytest.mark.parametrize(
    "n, variant, roots", [(3, PLAIN, None), (3, STAR, None), (4, PLAIN, None), (4, STAR, None), (5, STAR, 3)]
)
def test_root_orbits_are_those_of_stab_0_r_and_the_swap(n, variant, roots):
    # at the root of subproblem (0, r), position p's drop mask is its orbit
    # under Stab(0, r) and the maps x -> a(x) ^ r for a in Stab(0, r), found
    # by brute force over Stab(0) (3 840 maps at n = 5): the candidates are
    # closed under these maps, and the merged key's classes are their orbits
    g = materialize(KellerGraphSpec(n, variant))
    images = stab0_images(n)
    for build in itertools.islice(_subproblems(g), roots):
        sub = build()
        r = sub.prefix[1]
        pair = images[images[:, r] == r]
        group = np.concatenate([pair, pair ^ r])
        verts = sub.vectors[:, 0].tolist()
        assert set(group[:, verts].ravel().tolist()) == set(verts)
        drop = sub._orbit_masks(0, (1 << len(verts)) - 1)
        position = {v: p for p, v in enumerate(verts)}
        assert drop == {p: sum(1 << position[w] for w in set(group[:, v].tolist())) for p, v in enumerate(verts)}


def keller_matrix(g):
    """The dense boolean adjacency matrix of g, one edge query per pair."""
    nverts = g.num_vertices
    return np.array([[g.has_edge_index(u, v) for v in range(nverts)] for u in range(nverts)])


def unit_subproblem(matrix, verts=None, key=None):
    """A subproblem with no prefix on a dense boolean matrix, vertex i
    adding verts[i] (by default i) with weight 1."""
    verts = np.arange(len(matrix)) if verts is None else np.asarray(verts)
    return _Subproblem((), *_relabel(packed_rows(matrix)), verts[:, None], np.ones(len(verts), dtype=np.intp), key)


def unreduced(matrix, target):
    """The B&B engine on a whole relabeled boolean matrix: (status, best clique).

    A target of None runs the ladder of decisions, ``maximize``.
    """
    search = _CliqueSearch(SearchBudget())
    builders = [lambda: unit_subproblem(matrix)]
    status = search.maximize(builders) if target is None else search.run(builders, target)
    best = search.best
    assert len(best) == search.best_size
    assert (matrix[np.ix_(best, best)] | np.eye(len(best), dtype=bool)).all()
    return status, best


@functools.cache
def unreduced_keller(spec, target):
    """``unreduced`` on the whole graph: (status, best size), the clique verified.

    Cached, as the tests at the default orbit depth and at every depth
    compare against the same runs (the G*_4 ones take seconds each).
    """
    status, best = unreduced(keller_matrix(materialize(spec)), target)
    clique = VectorSet(spec.dim, (CubeVector.from_index(spec.dim, v) for v in best))
    assert verify_clique(clique, spec).is_clique
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


def assert_agree_every_target(spec):
    # max_clique, and decisions at every target up to one past the clique number
    g = materialize(spec)
    omega = len(max_clique(g).best_clique)
    assert_agree(max_clique(g), unreduced_keller(spec, None), None)
    for target in range(1, omega + 2):
        assert_agree(clique_decision(g, target), unreduced_keller(spec, target), target)


def assert_agree_g4_star(target):
    g = materialize(KellerGraphSpec(4, STAR))
    reduced = max_clique(g) if target is None else clique_decision(g, target)
    assert_agree(reduced, unreduced_keller(g.spec, target), target)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_reduced_search_matches_unreduced_small(n, variant):
    assert_agree_every_target(KellerGraphSpec(n, variant))


@pytest.mark.parametrize("target", [12, 13, None])
def test_reduced_search_matches_unreduced_g4_star(target):
    assert_agree_g4_star(target)


# deeper than any clique of these graphs, so every node drops whole orbits
EVERY_DEPTH = 64


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_orbits_at_every_depth_match_unreduced_small(monkeypatch, n, variant):
    monkeypatch.setattr(search_module, "_ORBIT_DEPTH", EVERY_DEPTH)
    assert_agree_every_target(KellerGraphSpec(n, variant))


@pytest.mark.parametrize("target", [12, 13, None])
def test_orbits_at_every_depth_match_unreduced_g4_star(monkeypatch, target):
    monkeypatch.setattr(search_module, "_ORBIT_DEPTH", EVERY_DEPTH)
    assert_agree_g4_star(target)


def key_classes(key):
    """Per position, the bitmask of the positions that share its key."""
    masks = dict.fromkeys(key, 0)
    for p, k in enumerate(key):
        masks[k] |= 1 << p
    return [masks[k] for k in key]


class CheckedOrbitDrops(_Subproblem):
    """A subproblem checking each keyed node's drop masks against the key.

    Every drop mask must be its position's key class, whole and inside cand,
    so cand must be a union of classes: the induction behind dropping whole
    orbits below a subproblem's root.  The classes are keyed afresh on the
    positions' vectors in dimension ``n``, the searched graph's, not through
    the subproblem's own key; at the root the key merges each vector's with
    its image under the swap x -> x ^ r.
    """

    n = 0
    keyed_nodes = 0
    keyed_roots = 0

    def _orbit_masks(self, rmask, cand):
        drop = super()._orbit_masks(rmask, cand)
        clique = list(self.prefix)
        positions = range(len(self.vectors))
        vecs = self.vectors[:, 0].tolist()
        clique += [vecs[p] for p in positions if rmask >> p & 1]
        key = (root_key(self.n, clique, vecs) if rmask == 0 else prefix_key(self.n, clique, vecs)).tolist()
        classes = key_classes(key)
        assert all(cls & cand in (0, cls) for cls in classes)
        assert sorted(drop) == [p for p in positions if cand >> p & 1]
        assert all(drop[p] == classes[p] for p in drop)
        type(self).keyed_nodes += 1
        type(self).keyed_roots += rmask == 0
        return drop


@pytest.mark.parametrize("depth", [2, EVERY_DEPTH])
def test_keyed_nodes_drop_whole_classes_inside_cand(monkeypatch, depth):
    monkeypatch.setattr(search_module, "_ORBIT_DEPTH", depth)
    monkeypatch.setattr(search_module, "_Subproblem", CheckedOrbitDrops)
    monkeypatch.setattr(CheckedOrbitDrops, "keyed_nodes", 0)
    monkeypatch.setattr(CheckedOrbitDrops, "keyed_roots", 0)
    for n, variant in ((3, PLAIN), (3, STAR), (4, STAR)):
        monkeypatch.setattr(CheckedOrbitDrops, "n", n)
        g = materialize(KellerGraphSpec(n, variant))
        max_clique(g)
        clique_decision(g, 2**n)
    g = materialize(KellerGraphSpec(4, STAR))
    clique_decision(g, 13)
    assert CheckedOrbitDrops.keyed_nodes > CheckedOrbitDrops.keyed_roots > 0


def translation_key(clique, cand):
    """One orbit at the root and singletons below it: the translations
    x -> x ^ c are automorphisms of a Cayley graph on Z_2^k, transitive on
    its vertices."""
    return cand if len(clique) else np.zeros(len(cand), dtype=np.intp)


def decide(sub, target):
    """A fresh engine on sub alone: (status, nodes, best size); a target of
    None runs the ladder, ``maximize``."""
    search = _CliqueSearch(SearchBudget())
    status = search.maximize([lambda: sub]) if target is None else search.run([lambda: sub], target)
    return status, search.nodes, search.best_size


def test_a_key_from_outside_keller_code_keeps_every_status():
    # random Cayley graphs on Z_2^6, x ~ y iff x ^ y lies in a drawn S: the
    # engine given translation_key decides every target as the keyless one
    # does, and finds the same clique number, while some trees differ, so
    # the key is used.  On these graphs a constant key at every keyed depth
    # refutes some targets that have cliques.
    rng = random.Random(1)
    x = np.arange(64)
    changed = 0
    for _ in range(150):
        matrix = np.array([False] + [rng.random() < 0.5 for _ in range(63)])[x[:, None] ^ x]
        plain, keyed = unit_subproblem(matrix), unit_subproblem(matrix, key=translation_key)
        full, reduced = decide(plain, None), decide(keyed, None)
        assert full[::2] == reduced[::2]
        changed += full[1] != reduced[1]
        for target in range(1, full[2] + 2):
            full, reduced = decide(plain, target), decide(keyed, target)
            assert full[0] is reduced[0]
            changed += full[1] != reduced[1]
    assert changed


def test_the_key_reads_packed_vectors():
    # a 5-cycle 0-1-2-3-4 with vertex 5 pendant on 0, vertex i adding the
    # vector 100 + 7 i: the key gets those vectors, never positions or the
    # builder's indices, and at the first root cand is all six
    matrix = np.zeros((6, 6), dtype=bool)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)):
        matrix[u, v] = matrix[v, u] = True
    vectors = (100 + 7 * np.arange(6)).tolist()
    calls = []

    def recording_key(clique, cand):
        calls.append((clique.tolist(), cand.tolist()))
        return cand  # one class per candidate: the orbits of the identity

    assert decide(unit_subproblem(matrix, vectors, recording_key), None)[::2] == (SearchStatus.OPTIMAL, 2)
    assert sorted(calls[0][1]) == vectors
    assert all(set(clique + cand) <= set(vectors) for clique, cand in calls)


def test_reduced_search_node_counts_g4_star():
    # the unreduced engine needs 414 411, 50 905 and 414 512 nodes here
    g = materialize(KellerGraphSpec(4, STAR))
    assert clique_decision(g, 13).nodes_explored == 48
    assert clique_decision(g, 16).nodes_explored == 15
    assert max_clique(g).nodes_explored == 128


# A hand-written tree over positions 0-5 of a subproblem with the prefix
# (100,): per clique mask, its candidates and the children (bit, size, rest)
# it yields; a child whose rest is 0 is a leaf.  Position p adds vector
# 10 + p.  Its four nodes are the root, {5}, {5, 4} and {1}, and the largest
# clique, {100, 13, 14, 15}, is the leaf {5, 4, 3}, reached at node 3.
HAND_TREE = {
    0b000000: (0b111111, [(1 << 5, 2, 0b011100), (1 << 4, 2, 0), (1 << 1, 2, 0b000001)]),
    0b100000: (0b011100, [(1 << 4, 3, 0b001000), (1 << 2, 3, 0)]),
    0b110000: (0b001000, [(1 << 3, 4, 0)]),
    0b000010: (0b000001, [(1 << 0, 3, 0)]),
}


class HandTree:
    """A stand-in subproblem holding only what the engine may read of one:
    the prefix, the candidate count, the children of a node (``HAND_TREE``,
    whatever the target) and the vectors of a clique."""

    __slots__ = ("prefix",)

    def __init__(self):
        self.prefix = (100,)

    def __len__(self):
        return 6

    def children(self, rmask, rsize, cand, target):
        assert (cand, rsize) == (HAND_TREE[rmask][0], 1 + rmask.bit_count())
        yield from HAND_TREE[rmask][1]

    def clique_vectors(self, mask):
        return [100] + [10 + p for p in range(6) if mask >> p & 1]


def walk_hand_tree(target, budget=SearchBudget(), sub=HandTree):
    """``_CliqueSearch.run`` on the hand tree: (status, nodes, incumbent, note, improvement log)."""
    log = []
    search = _CliqueSearch(budget, lambda size, nodes: log.append((size, nodes)))
    status = search.run([sub], target)
    return status, search.nodes, search.best, search.note, log


def test_the_incumbent_outlives_its_subproblem():
    # the incumbent is packed vectors, so once a run has moved past the
    # subproblem it was found in, nothing keeps that subproblem alive
    built = []

    def prefix_only():
        sub = _cayley(np.zeros(1, dtype=bool), (10, 11), np.zeros((0, 1), dtype=np.intp), np.zeros(0, dtype=np.intp))
        built.append(weakref.ref(sub))
        return sub

    search = _CliqueSearch(SearchBudget())
    edge = np.array([[False, True], [True, False]])
    status = search.run([prefix_only, lambda: unit_subproblem(edge, [20, 21])], 3)
    assert (status, search.best) == (SearchStatus.TARGET_REFUTED, [10, 11])
    gc.collect()
    assert built[0]() is None


def test_engine_only_walks_the_children_a_subproblem_yields():
    # nodes are counted with leaves left out, the incumbent is the largest
    # clique entered, a target is found where it is first reached, and every
    # node limit stops at exactly that many nodes
    best = [100, 13, 14, 15]
    refuted = walk_hand_tree(5)
    assert refuted == (SearchStatus.TARGET_REFUTED, 4, best, None, [(1, 1), (2, 2), (3, 3), (4, 3)])
    for target, nodes in ((1, 1), (2, 2), (3, 3), (4, 3)):
        assert walk_hand_tree(target)[:2] == (SearchStatus.TARGET_FOUND, nodes)
    assert walk_hand_tree(4)[2] == best
    for limit, size in ((1, 1), (2, 2), (3, 4)):
        status, nodes, clique, _, _ = walk_hand_tree(5, SearchBudget(node_limit=limit))
        assert (status, nodes, len(clique)) == (SearchStatus.BUDGET_EXHAUSTED, limit, size)
    assert walk_hand_tree(5, SearchBudget(node_limit=4)) == refuted


def test_interrupt_inside_children_ends_the_walk():
    class Interrupted(HandTree):
        __slots__ = ()

        def children(self, rmask, rsize, cand, target):
            if rmask == 0b100000:
                raise KeyboardInterrupt
            yield from super().children(rmask, rsize, cand, target)

    status, nodes, clique, note, _ = walk_hand_tree(5, sub=Interrupted)
    assert (status, nodes, clique, note) == (SearchStatus.BUDGET_EXHAUSTED, 2, [100, 15], "interrupted")


def root_units(sub, target):
    """Per root child of sub at target, the nodes a fresh engine takes to
    search its candidates alone (0 for a leaf)."""
    counts = []
    for bit, size, rest in sub.children(0, len(sub.prefix), (1 << len(sub)) - 1, target):
        search = _CliqueSearch(SearchBudget())
        search.sub, search.target = sub, target
        search._visit(bit, size, rest)
        counts.append(search.nodes)
    return counts


def test_root_children_are_independent_units(monkeypatch):
    # on a refutation each root child's subtree needs nothing of the others:
    # a fresh engine on one child's candidates takes as many nodes as the
    # child takes in the whole run, so the root and its children's summed
    # nodes are the subproblem's (G*_4: 43 nodes, the root's 12 children, in
    # the first subproblem; three have no candidates and no nodes)
    g = materialize(KellerGraphSpec(4, STAR))
    for build in _subproblems(g):
        sub = build()
        status, nodes, _ = decide(sub, 13)
        assert status is SearchStatus.TARGET_REFUTED
        assert nodes == (1 + sum(root_units(sub, 13)) if len(sub) else 0)
    built = []

    class Recorded(_Subproblem):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(search_module, "_Subproblem", Recorded)
    for n, target, nodes in ((6, 64, 1496), (5, 32, 23)):
        out = invariant_clique_search(n, target)
        assert (out.status, out.nodes_explored) == (SearchStatus.TARGET_REFUTED, nodes)
        assert nodes == 1 + sum(root_units(built[-1], target))


def ladder(g):
    """Fresh ``clique_decision`` runs from target 1, each one past the last
    clique found, until one is refuted: (summed nodes, largest clique found)."""
    nodes, target = 0, 1
    while True:
        out = clique_decision(g, target)
        nodes += out.nodes_explored
        if out.status is not SearchStatus.TARGET_FOUND:
            return nodes, target - 1
        target = len(out.best_clique) + 1


@pytest.mark.parametrize("n, variant", [(3, STAR), (4, STAR), (3, PLAIN), (4, PLAIN)])
def test_max_clique_is_a_ladder_of_decisions(n, variant):
    # the incumbent a rung starts with prunes nothing, so each rung's tree is
    # a fresh decision's, and one node counter sums them
    g = materialize(KellerGraphSpec(n, variant))
    out = max_clique(g)
    assert out.status is SearchStatus.OPTIMAL
    assert (out.nodes_explored, len(out.best_clique)) == ladder(g)


def test_max_clique_builds_each_subproblem_once(monkeypatch):
    # the last rung refutes 13 over all nine G*_4 subproblems, and earlier
    # rungs reuse what they built
    built, cayley = [], search_module._cayley

    def counted(row0, prefix, *args):
        built.append(prefix[1])
        return cayley(row0, prefix, *args)

    monkeypatch.setattr(search_module, "_cayley", counted)
    g = materialize(KellerGraphSpec(4, STAR))
    assert max_clique(g).status is SearchStatus.OPTIMAL
    assert sorted(built) == sorted(int(c[0]) for c in _stabilizer_classes(g.spec, g.row0))


def test_max_clique_budget_spans_every_rung():
    # every limit below the 128 nodes of the whole ladder stops at exactly
    # that limit, in whichever rung it falls, with a verified incumbent
    g = materialize(KellerGraphSpec(4, STAR))
    for limit in range(1, 128):
        out = max_clique(g, SearchBudget(node_limit=limit))
        assert (out.status, out.nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, limit)
        assert len(out.best_clique) >= 2 and verify_clique(out.best_clique, g.spec).is_clique
    out = max_clique(g, SearchBudget(node_limit=128))
    assert (out.status, out.nodes_explored, len(out.best_clique)) == (SearchStatus.OPTIMAL, 128, 12)


@pytest.mark.parametrize("n, variant, omega", [(3, STAR, 5), (4, STAR, 12), (4, PLAIN, 16)])
def test_max_clique_improvements_increase_to_omega(n, variant, omega):
    seen = []
    out = max_clique(materialize(KellerGraphSpec(n, variant)), on_improve=lambda size, nodes: seen.append((size, nodes)))
    sizes = [size for size, _ in seen]
    assert sizes == sorted(set(sizes)) and sizes[-1] == len(out.best_clique) == omega
    assert [nodes for _, nodes in seen] == sorted(nodes for _, nodes in seen)


def test_max_clique_g5_star_budget_keeps_a_28_clique():
    # the ladder reaches omega(G*_5) = 28 after 17 760 nodes; refuting 29
    # takes millions more
    g = materialize(KellerGraphSpec(5, STAR))
    seen = []
    out = max_clique(g, SearchBudget(node_limit=35_000), on_improve=lambda size, nodes: seen.append((size, nodes)))
    assert (out.status, out.nodes_explored, len(out.best_clique)) == (SearchStatus.BUDGET_EXHAUSTED, 35_000, 28)
    assert verify_clique(out.best_clique, g.spec).is_clique
    assert seen[-1] == (28, 17_760)


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
    rows = search_module._gather(row0, verts[:, None])
    assert rows.shape == (nverts, (nverts + 7) // 8)
    assert int(np.unpackbits(rows).sum()) // 2 == nedges  # the padding bits are clear
    if n == 4:
        search = _CliqueSearch(SearchBudget())
        status = search.maximize([lambda: unit_subproblem(dense_rows(rows, nverts), verts)])
        assert (status, search.best_size, search.nodes) == (SearchStatus.OPTIMAL, 11, 4_833)
        # with vertex 0 it is a maximum clique of G*_4
        clique = VectorSet._from_packed(n, [0, *search.best])
        assert verify_clique(clique, KellerGraphSpec(n, STAR)).is_clique


class PerChildBound(_Subproblem):
    """A subproblem whose own walk tests bounds before every child, instead
    of walking the branching rule's classes: every greedy class (a need of 1
    branches them all), each bounded by the running sum of the classes'
    heaviest weights, re-colored below the need with unit weights and then
    thinned by the absorption rule, and the node's drop table keyed at its
    first drop."""

    def children(self, rmask, rsize, cand, target):
        classes = self._color_sort(cand, 1)
        heaviest = [max(self.weights[p] for p in search_module._positions(cls).tolist()) for cls in classes]
        bounds = list(itertools.accumulate(heaviest))
        if self.unit and 1 < target - rsize <= len(classes):
            keep = target - rsize - 1
            classes = search_module._absorb(self.adj, search_module._recolor(self.adj, classes, keep), keep)
        drop = None if rmask.bit_count() <= self.keyed else self.bits[1:]  # bits[p + 1] is position p's
        for cls, bound in reversed(list(zip(classes, bounds))):
            cls &= cand
            while cls:
                if rsize + bound < target:
                    return
                bit = cls & -cls
                p = bit.bit_length() - 1
                size = rsize + self.weights[p]
                if size <= target:
                    yield bit, size, cand & self.adj[p]
                if drop is None:
                    drop = self._orbit_masks(rmask, cand)
                cand ^= drop[p]
                cls &= cand


@st.composite
def weighted_graphs(draw):
    """A symmetric boolean matrix on 1-20 vertices with a weight of 1-3 per
    vertex, or one weight of 1, 2, 3 or 7 for every vertex (the closed-form
    bound of uniform weights)."""
    nverts = draw(st.integers(1, 20))
    upper = draw(st.lists(st.booleans(), min_size=nverts * nverts, max_size=nverts * nverts))
    matrix = np.triu(np.array(upper, dtype=bool).reshape(nverts, nverts), 1)
    if draw(st.booleans()):
        weights = [draw(st.sampled_from((1, 2, 3, 7)))] * nverts
    else:
        weights = draw(st.lists(st.integers(1, 3), min_size=nverts, max_size=nverts))
    return matrix | matrix.T, weights


# the monkeypatched orbit depth is the same for every example
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(weighted_graphs(), st.data())
def test_bound_test_before_every_child_matches_class_start_test(monkeypatch, graph, data):
    # a run's threshold is its target, fixed, so testing the bound before
    # every child prunes exactly the classes the branching rule leaves out:
    # the trees, incumbents and improvement logs are the same, for one
    # decision and for the ladder of them; the root, the only keyed node at
    # orbit depth 0, drops the classes of a drawn key on the vertices
    monkeypatch.setattr(search_module, "_ORBIT_DEPTH", 0)
    matrix, weights = graph
    nverts = len(matrix)
    heaviest = max(weights)
    vectors = heaviest * np.arange(nverts)[:, None] + np.arange(heaviest)  # vertex v adds its weight's values
    block = np.array(data.draw(st.lists(st.integers(0, 3), min_size=nverts, max_size=nverts)))

    def drawn_key(clique, cand):
        # cand holds column 0 of each vertex's vectors, heaviest * v
        assert len(clique) == 0 and sorted(cand.tolist()) == list(range(0, heaviest * nverts, heaviest))
        return block[cand // heaviest]

    for target in (None, data.draw(st.integers(1, sum(weights) + 1))):
        runs = []
        for walk in (_Subproblem, PerChildBound):
            log = []
            search = _CliqueSearch(SearchBudget(), lambda size, nodes: log.append((size, nodes)))
            builders = [lambda: walk((), *_relabel(packed_rows(matrix)), vectors, np.array(weights), drawn_key)]
            status = search.maximize(builders) if target is None else search.run(builders, target)
            runs.append((status, search.nodes, search.best, log))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# re-coloring (Re-NUMBER) of the classes a node never branches
# ---------------------------------------------------------------------------

@st.composite
def unit_graphs(draw):
    """A symmetric boolean matrix on 1-24 vertices, its edge density drawn too."""
    nverts = draw(st.integers(1, 24))
    density = draw(st.integers(0, 100)) / 100
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    matrix = np.array([[rng.random() < density for _ in range(nverts)] for _ in range(nverts)])
    matrix = np.triu(matrix, 1)
    return matrix | matrix.T


def assert_recolored(adj, cand, keep, greedy, classes):
    """``_recolor``'s classes of cand, keeping the first ``keep`` (never
    branched), against the greedy ones it was given: as many classes (with
    unit weights, the same bounds), a partition of cand, the first keep
    independent sets and every later class inside the greedy class it came
    from.  Returns the number of vertices moved out of branched classes,
    and of those moved between unbranched ones."""
    assert len(classes) == len(greedy)
    union = 0
    for cls in classes:
        assert not union & cls
        union |= cls
    assert union == cand
    for cls in classes[:keep]:
        assert all(not adj[p] & cls for p in search_module._positions(cls).tolist())
    for cls, old in zip(classes[keep:], greedy[keep:]):
        assert cls | old == old
    moved = sum((old ^ cls).bit_count() for cls, old in zip(classes[keep:], greedy[keep:]))
    swapped = sum((old & ~cls).bit_count() for cls, old in zip(classes[:keep], greedy[:keep]))
    return moved, swapped


@settings(max_examples=300, deadline=None)
@given(unit_graphs(), st.data())
def test_recoloring_keeps_unbranched_classes_independent(matrix, data):
    # at a node that needs `need` more vertices the first need - 1 classes
    # are never branched; re-coloring moves vertices into them, and must keep
    # each an independent set, the classes a partition of cand, and each
    # branched class inside the greedy class it came from; the branching
    # rule returns the branched classes, the re-colored ones from need - 1 on
    # less the vertices the absorption rule drops
    nverts = len(matrix)
    sub = unit_subproblem(matrix)
    assert sub.unit
    every = (1 << nverts) - 1
    cand = data.draw(st.one_of(st.just(every), st.integers(1, every)))
    greedy = sub._color_sort(cand, 1)  # a need of 1 branches every class
    need = data.draw(st.integers(2, len(greedy)) if len(greedy) > 1 else st.just(1))
    classes = search_module._recolor(sub.adj, greedy, need - 1)
    assert_recolored(sub.adj, cand, need - 1, greedy, classes)
    assert sub._color_sort(cand, need) == search_module._absorb(sub.adj, classes, need - 1)[need - 1 :]


class CheckedRecoloring:
    """``_recolor``, checking the classes of every node that re-colors
    (``assert_recolored``) and counting the vertices moved."""

    def __init__(self, recolor):
        self.recolor = recolor
        self.moved = self.swapped = 0

    def __call__(self, adj, greedy, keep):
        classes = self.recolor(adj, greedy, keep)
        moved, swapped = assert_recolored(adj, functools.reduce(int.__or__, greedy), keep, greedy, classes)
        self.moved += moved
        self.swapped += swapped
        return classes


def test_recoloring_at_every_node_of_keller_searches(monkeypatch):
    # the same checks at every node of real searches that re-colors, where
    # vertices do move, directly and by swaps
    checked = CheckedRecoloring(search_module._recolor)
    monkeypatch.setattr(search_module, "_recolor", checked)
    for n, variant in ((3, PLAIN), (3, STAR), (4, PLAIN), (4, STAR)):
        max_clique(materialize(KellerGraphSpec(n, variant)))
    clique_decision(materialize(KellerGraphSpec(5, STAR)), 29, SearchBudget(node_limit=2000))
    assert checked.moved > checked.swapped > 0


# ---------------------------------------------------------------------------
# absorption of branched vertices by pairs of unbranched classes
# ---------------------------------------------------------------------------

def subgraph_omega(adj, mask):
    """The clique number of the positions of mask, by networkx (0 if empty)."""
    members = search_module._positions(mask).tolist()
    graph = nx.Graph()
    graph.add_nodes_from(members)
    graph.add_edges_from((p, q) for p in members for q in search_module._positions(adj[p] & mask).tolist() if p < q)
    return max((len(c) for c in nx.find_cliques(graph)), default=0)


@settings(max_examples=300, deadline=None)
@given(unit_graphs(), st.data())
def test_unbranched_vertices_hold_no_clique_of_the_need(matrix, data):
    # at a node that needs `need` more vertices, what the branching rule
    # leaves out of cand (the re-colored unbranched classes and the vertices
    # absorbed by pairs of them) holds no clique of need vertices, and each
    # class it returns lies inside its re-colored class
    nverts = len(matrix)
    sub = unit_subproblem(matrix)
    every = (1 << nverts) - 1
    cand = data.draw(st.one_of(st.just(every), st.integers(1, every)))
    greedy = sub._color_sort(cand, 1)
    need = data.draw(st.integers(1, len(greedy) + 1))
    branched = sub._color_sort(cand, need)
    assert subgraph_omega(sub.adj, cand ^ functools.reduce(int.__or__, branched, 0)) < need
    recolored = search_module._recolor(sub.adj, greedy, need - 1)
    assert len(branched) == len(recolored[need - 1 :])
    assert all(cls | old == old for cls, old in zip(branched, recolored[need - 1 :]))


def absorbing_pairs(adj, low, dropped, steps=10_000):
    """Disjoint pairs of the classes in low, one per position of dropped,
    each holding with its position no triangle, found by backtracking in at
    most ``steps`` tries; None if none are found.  The classes of low must
    be independent sets, so a triangle there goes through the position."""
    vertices = search_module._positions(dropped).tolist()
    tries = itertools.count()

    def pairs(p, used):
        for i, j in itertools.combinations(range(len(low)), 2):
            if used & {i, j}:
                continue
            common = adj[p] & low[j]
            if all(not adj[a] & common for a in search_module._positions(adj[p] & low[i]).tolist()):
                yield i, j

    def assign(k, used):
        if k == len(vertices):
            return []
        for i, j in pairs(vertices[k], used):
            if next(tries) >= steps:
                return None
            rest = assign(k + 1, used | {i, j})
            if rest is not None:
                return [(i, j), *rest]
        return None

    return assign(0, frozenset())


class CheckedAbsorb:
    """``_absorb``, checking every node that re-colors: the unbranched
    classes are kept and are independent sets, each branched class only
    loses vertices, and the vertices dropped have disjoint pairs of
    unbranched classes that prove them (``absorbing_pairs``), so the
    vertices a node does not branch hold no clique of the need.  Counts the
    vertices dropped."""

    def __init__(self, absorb):
        self.absorb = absorb
        self.dropped = 0

    def __call__(self, adj, recolored, keep):
        classes = self.absorb(adj, recolored, keep)
        assert len(classes) == len(recolored) and classes[:keep] == recolored[:keep]
        for cls in classes[:keep]:
            assert all(not adj[p] & cls for p in search_module._positions(cls).tolist())
        dropped = 0
        for cls, old in zip(classes[keep:], recolored[keep:]):
            assert cls | old == old
            dropped |= old ^ cls
        assert absorbing_pairs(adj, classes[:keep], dropped) is not None
        self.dropped += dropped.bit_count()
        return classes


def test_absorption_at_every_node_of_keller_searches(monkeypatch):
    # the same soundness at every node of real searches that re-colors, and
    # the rule does drop vertices there
    checked = CheckedAbsorb(search_module._absorb)
    monkeypatch.setattr(search_module, "_absorb", checked)
    for n, variant in ((1, PLAIN), (1, STAR), (2, PLAIN), (2, STAR), (3, PLAIN), (3, STAR), (4, PLAIN), (4, STAR)):
        max_clique(materialize(KellerGraphSpec(n, variant)))
    clique_decision(materialize(KellerGraphSpec(5, STAR)), 29, SearchBudget(node_limit=2000))
    assert checked.dropped > 0


def rule_off(adj, classes, keep):
    """A node rule that changes no class."""
    return classes


# each rule that changes which children a node branches, replaced by the identity
RULES_OFF = ("_recolor", "_absorb")


def outcome(status, size, target):
    """What a run must share with any other search order: its status, and
    its best size unless it refutes a target, when the incumbent it reached
    on the way depends on the order and only lies below the target."""
    if status is SearchStatus.TARGET_REFUTED:
        assert size < target
        return status, None
    return status, size


def every_run(g):
    """``outcome`` of max_clique and of a decision at every target up to one
    past the clique number, and the summed nodes."""
    best = max_clique(g)
    runs = [best] + [clique_decision(g, target) for target in range(1, len(best.best_clique) + 2)]
    outcomes = [outcome(o.status, len(o.best_clique), target) for target, o in enumerate(runs)]
    return outcomes, sum(o.nodes_explored for o in runs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_recoloring_keeps_every_status_and_size(monkeypatch, n, variant):
    # re-coloring and absorption change which children a node branches,
    # never an outcome: with either replaced by the identity, every status
    # and best size agree, and on G*_4 each rule saves nodes
    g = materialize(KellerGraphSpec(n, variant))
    recolored, nodes = every_run(g)
    for rule in RULES_OFF:
        with monkeypatch.context() as patch:
            patch.setattr(search_module, rule, rule_off)
            off, off_nodes = every_run(g)
        assert recolored == off, rule
        if (n, variant) == (4, STAR):
            assert nodes < off_nodes, rule


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(unit_graphs())
def test_recoloring_keeps_every_status_and_size_on_random_graphs(monkeypatch, matrix):
    # the same on random unit-weight graphs, with no symmetry reduction, for
    # either rule replaced by the identity
    def runs():
        status, best = unreduced(matrix, None)
        out = [(status, len(best))]
        for target in range(1, len(best) + 2):
            status, found = unreduced(matrix, target)
            out.append(outcome(status, len(found), target))
        return out

    recolored = runs()
    for rule in RULES_OFF:
        with monkeypatch.context() as patch:
            patch.setattr(search_module, rule, rule_off)
            assert runs() == recolored, rule


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
    assert out.nodes_explored == 14_597
    assert packed_values(out.best_clique) == [
        0, 24, 30, 86, 123, 148, 159, 306, 313, 397, 435, 437, 470, 507,
        541, 560, 595, 597, 619, 724, 735, 882, 889, 925, 944, 966, 1016, 1022,
    ]


@pytest.mark.slow
def test_g5_star_clique_number_is_28():
    # Corradi-Szabo (1990): omega(G*_5) = 28, as a verified 28-clique (found
    # after 17 760 nodes) and a refuted 29, the whole of the remaining
    # 4 611 359 nodes; 6 min (360 s) on a 2-vCPU VM
    g = materialize(KellerGraphSpec(5, STAR))
    out = max_clique(g)
    assert (out.status, len(out.best_clique), out.nodes_explored) == (SearchStatus.OPTIMAL, 28, 4_629_119)
    assert verify_clique(out.best_clique, g.spec).is_clique


def test_budgeted_decision_keeps_a_real_incumbent():
    # every node the search enters is a clique, so a decision run that runs
    # out of budget still reports the largest one it reached
    g = materialize(KellerGraphSpec(5, STAR))
    out = clique_decision(g, 29, SearchBudget(node_limit=30_000))
    assert (out.status, out.nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, 30_000)
    assert len(out.best_clique) == 14
    assert verify_clique(out.best_clique, g.spec).is_clique
    assert packed_values(out.best_clique) == [0, 86, 227, 397, 491, 493, 513, 522, 563, 609, 675, 910, 993, 1002]


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
    assert not _CliqueSearch(SearchBudget()).poll
    assert _CliqueSearch(SearchBudget(time_limit=1.0)).poll


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


def test_a_witness_that_is_no_clique_is_refused(monkeypatch):
    # every outcome's incumbent is checked against the graph before it is
    # returned: a certifier that reports a missing pair stops the search
    missing = verify_clique(VectorSet.from_strings(2, ["00", "01"]), KellerGraphSpec(2, STAR))
    assert missing.pairs
    monkeypatch.setattr(search_module, "verify_clique", lambda clique, spec: missing)
    with pytest.raises(AssertionError, match="search returned a non-clique"):
        clique_decision(materialize(KellerGraphSpec(2, STAR)), 2)


def test_an_invariant_witness_the_shift_moves_is_refused(monkeypatch):
    # the cyclic-invariant search checks its claim too: an incumbent short
    # of its last vector is still a clique, but no longer a union of shift
    # orbits, and the search stops instead of returning it
    clique_vectors = _Subproblem.clique_vectors
    monkeypatch.setattr(_Subproblem, "clique_vectors", lambda sub, mask: clique_vectors(sub, mask)[:-1])
    with pytest.raises(AssertionError, match="the shift does not fix"):
        invariant_clique_search(6, 64, SearchBudget(node_limit=20))


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
    admissible = search_module._admissible(g.row0, table)
    compat = search_module._gather(g.row0, table[admissible])
    keep = [i for i, m in enumerate(members) if (adjacency[np.ix_(m, m)] | np.eye(len(m), dtype=bool)).all()]
    assert admissible.tolist() == keep
    expected = [[adjacency[np.ix_(members[a], members[b])].all() for b in keep] for a in keep]
    assert compat.shape == (len(keep), (len(keep) + 7) // 8)
    assert dense_rows(compat, len(keep)).tolist() == expected
    assert not np.unpackbits(compat, axis=1, bitorder="little")[:, len(keep) :].any()  # the padding bits are clear


@pytest.mark.parametrize("n, admissible, limit_mib", [(7, 1600, 2), (8, 4320, 6)])
def test_orbit_compatibility_memory_is_bounded(n, admissible, limit_mib):
    # packed rows, gathered in blocks: 0.89 MiB at n = 7 and 3.1 MiB at n = 8,
    # where the dense boolean matrix alone takes 2.4 and 17.8 MiB, and a
    # one-shot gather holds several admissible x admissible uint64
    # temporaries (68.5 MiB at n = 7)
    g = materialize(KellerGraphSpec(n, STAR))
    table, _ = search_module._orbit_table(search_module._shift(n))
    tracemalloc.start()
    try:
        adm = search_module._admissible(g.row0, table)
        compat = search_module._gather(g.row0, table[adm])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(adm) == admissible
    assert peak < limit_mib * 2**20
    compat = dense_rows(compat, admissible)
    assert (compat == compat.T).all() and not compat.diagonal().any()


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


ONE_NODE = SearchBudget(node_limit=1)


@pytest.mark.parametrize(
    "call, limit_mib",
    [
        # everything before the first node of the n = 7 and n = 8 orbit
        # searches: 1.0 and 9.5 MiB, where dense candidate matrices and a
        # 4^n x n orbit table took 4.1 and 26.3 MiB
        (lambda: invariant_clique_search(7, 128, ONE_NODE), 2),
        (lambda: invariant_clique_search(8, 256, ONE_NODE), 16),
        # the representatives' rows only, 2.8 MiB, not a walk of all 65 536
        # vectors with their ranks (13.1 MiB)
        (lambda: search_module._orbit_table(search_module._shift(8)), 4),
    ],
    ids=["invariant-7", "invariant-8", "orbit-table-8"],
)
def test_orbit_search_build_memory_is_bounded(call, limit_mib):
    assert traced_peak(call) < limit_mib * 2**20


def test_stabilizer_subproblem_build_memory_is_bounded():
    # the first G*_6 subproblem, 2724 candidates, packed from the gather to
    # the relabel and freed before the masks are built: 3.2 MiB, where
    # holding the packed rows through the build peaked at 3.8 MiB and the
    # build with a dense boolean matrix (7.1 MiB alone) at 10.2 MiB
    g = materialize(KellerGraphSpec(6, STAR))
    out = []
    assert traced_peak(lambda: out.append(clique_decision(g, 61, ONE_NODE))) < 6 * 2**20
    assert (out[0].status, out[0].nodes_explored) == (SearchStatus.BUDGET_EXHAUSTED, 1)


def test_stabilizer_subproblem_build_memory_is_bounded_in_g7():
    # the first G*_7 subproblem: 49.6 MiB, its 17.7 MiB of packed rows freed
    # before the masks are built, where holding them through the build
    # peaked at 67.2 MiB; about 1.2 s on a 2-vCPU VM
    g = materialize(KellerGraphSpec(7, STAR))
    assert traced_peak(lambda: next(iter(_subproblems(g)))()) < 58 * 2**20


def test_packed_rows_are_freed_before_the_subproblem_is_built(monkeypatch):
    # _Subproblem gets the relabeled rows only, so no gathered packed rows
    # are alive while it builds its masks: one gather per build, on a
    # Stab(0) subproblem, the orbit graph and its forced pair (n = 7)
    gathered, live = [], []
    gather = search_module._gather

    def recorded(row0, table):
        rows = gather(row0, table)
        gathered.append(weakref.ref(rows))
        return rows

    class Counted(_Subproblem):
        def __init__(self, *args):
            live.append(sum(ref() is not None for ref in gathered))
            super().__init__(*args)

    monkeypatch.setattr(search_module, "_gather", recorded)
    monkeypatch.setattr(search_module, "_Subproblem", Counted)
    g = materialize(KellerGraphSpec(4, STAR))
    assert clique_decision(g, 13, ONE_NODE).nodes_explored == 1
    assert invariant_clique_search(6, 64, ONE_NODE).nodes_explored == 1
    assert invariant_clique_search(7, 128, ONE_NODE).nodes_explored == 1
    assert (len(gathered), live) == (3, [0, 0, 0])


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
    row0 = materialize(KellerGraphSpec(n, STAR)).row0
    keep = search_module._admissible(row0, table)
    return _CliqueSearch(SearchBudget()).run([lambda: _cayley(row0, (), table[keep], sizes[keep])], target)


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


@pytest.mark.parametrize("n", [5, 7])
def test_forced_pair_candidates_match_brute_force(monkeypatch, n):
    # _cayley keeps the admissible orbits whose every member is adjacent to
    # 0^n and to 2^n, one edge query per pair, and so no constant
    built = []

    class Recorded(_Subproblem):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(search_module, "_Subproblem", Recorded)
    assert invariant_clique_search(n, 2**n, ONE_NODE).nodes_explored == 1
    g = materialize(KellerGraphSpec(n, STAR))
    constants = [CubeVector.from_digits((d,) * n).packed for d in range(4)]
    expected = {
        o.representative.packed
        for o in cyclic_orbits(n)
        if all(g.has_edge_index(u.packed, w.packed) for u, w in itertools.combinations(o.orbit, 2))
        and all(g.has_edge_index(u.packed, c) for u in o.orbit for c in constants[::2])
    }
    (sub,) = built
    assert sub.prefix == (constants[0], constants[2])
    assert set(sub.vectors[:, 0].tolist()) == expected
    assert not expected & set(constants)


def test_cayley_on_an_empty_table_is_its_prefix():
    row0 = materialize(KellerGraphSpec(3, STAR)).row0
    sub = _cayley(row0, (0, 42), np.zeros((0, 3), dtype=np.intp), np.zeros(0, dtype=np.intp))
    assert len(sub) == 0 and sub.clique_vectors(0) == [0, 42]


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


def test_invariant_n8_budgeted_incumbent_is_pinned():
    # the n = 8 orbit graph mixes weights 1, 2, 4 and 8, so its nodes take
    # the running sum of each class's heaviest weight; the 20 000-node run's
    # 104-vector incumbent pins that path's search order
    out = invariant_clique_search(8, 256, SearchBudget(node_limit=20_000))
    assert (out.status, out.nodes_explored, len(out.best_clique)) == (SearchStatus.BUDGET_EXHAUSTED, 20_000, 104)
    digest = hashlib.sha256(",".join(map(str, packed_values(out.best_clique))).encode()).hexdigest()
    assert digest == "2cacf433ac82c5ca218c19843b68a743bd1601db604c08823b497c6353408398"
    assert verify_clique(out.best_clique, KellerGraphSpec(8, STAR)).is_clique


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
    monkeypatch.setattr(search_module, "_admissible", enumerate_all)
    monkeypatch.setattr(search_module, "_gather", enumerate_all)
    with pytest.raises(ValueError, match="guarded at dim 8"):
        invariant_clique_search(9, 512)
    with pytest.raises(ValueError, match="guarded at dim 8"):
        invariant_clique_search(9, 512, SearchBudget(node_limit=1))
