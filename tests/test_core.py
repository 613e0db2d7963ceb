"""Core predicates, packing, automorphisms, materialization."""

import itertools
import random

import numpy as np
import pytest

from keller.core import (
    Automorphism,
    CubeVector,
    DIHEDRAL_LABEL_MAPS,
    GraphVariant,
    KellerGraphSpec,
    MaterializedGraph,
    VectorSet,
    _edge,
    digit_gap,
    enumerate_automorphisms,
    has_edge,
    materialize,
    plain_degree,
    random_automorphism,
    star_degree,
)

PLAIN = GraphVariant.PLAIN
STAR = GraphVariant.STAR


def oracle_edge(variant, u, v):
    """Straight-from-the-definition edge predicate on digit tuples."""
    gap2 = any(abs(a - b) == 2 for a, b in zip(u, v))
    if variant is PLAIN:
        return gap2
    return gap2 and sum(1 for a, b in zip(u, v) if a != b) >= 2


def cv(*digits):
    return CubeVector.from_digits(digits)


# ---------------------------------------------------------------------------
# digits and vectors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b,gap", [(0, 2, 2), (3, 3, 0), (0, 3, 3), (1, 3, 2), (2, 1, 1)])
def test_digit_gap(a, b, gap):
    assert digit_gap(a, b) == gap


def test_gap_two_pairs():
    twos = {(a, b) for a in range(4) for b in range(4) if digit_gap(a, b) == 2}
    assert twos == {(0, 2), (2, 0), (1, 3), (3, 1)}


def test_cube_vector_round_trips():
    v = cv(0, 2, 1, 3)
    assert v.digits == (0, 2, 1, 3)
    assert str(v) == "0213"
    assert len(v) == v.dim == 4
    assert CubeVector.from_string("0213") == v
    assert CubeVector.from_index(4, v.index) == v
    assert v.index == 0 + 2 * 4 + 1 * 16 + 3 * 64


def test_cube_vector_validation():
    with pytest.raises(ValueError):
        cv(0, 4)
    with pytest.raises(ValueError):
        CubeVector.from_string("01x")
    with pytest.raises(ValueError):
        CubeVector.from_string("")


def test_equality_and_hash_on_packed_form():
    assert cv(1, 2) == cv(1, 2)
    assert hash(cv(1, 2)) == hash(CubeVector.from_string("12"))
    assert cv(1, 2) != cv(2, 1)
    assert cv(1, 2) != cv(1, 2, 0)  # same packed value, different dim


def test_index_is_little_endian_base4():
    for i in range(4**3):
        v = CubeVector.from_index(3, i)
        assert sum(d * 4**k for k, d in enumerate(v.digits)) == i


# ---------------------------------------------------------------------------
# edge predicates
# ---------------------------------------------------------------------------

def test_has_edge_examples():
    g3 = KellerGraphSpec(3, PLAIN)
    g3s = KellerGraphSpec(3, STAR)
    assert has_edge(g3, cv(0, 0, 0), cv(2, 0, 1))
    assert not has_edge(g3s, cv(2, 0, 1), cv(2, 0, 3))  # single differing coordinate
    assert has_edge(KellerGraphSpec(2, STAR), cv(0, 0), cv(2, 2))
    for spec in (g3, g3s):
        assert not has_edge(spec, cv(1, 2, 3), cv(1, 2, 3))


def test_has_edge_dimension_mismatch():
    with pytest.raises(ValueError):
        has_edge(KellerGraphSpec(3, PLAIN), cv(0, 0, 0), cv(0, 0))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_predicates_match_oracle_exhaustively(dim):
    for variant in (PLAIN, STAR):
        spec = KellerGraphSpec(dim, variant)
        for u in itertools.product(range(4), repeat=dim):
            for v in itertools.product(range(4), repeat=dim):
                assert has_edge(spec, cv(*u), cv(*v)) == oracle_edge(variant, u, v)


@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_broadcast_edge_rows_match_has_edge(variant):
    # a column of vectors against a row gives the whole adjacency matrix
    spec = KellerGraphSpec(3, variant)
    packed = np.arange(64, dtype=np.uint64)
    matrix = _edge(packed[:, None] ^ packed[None, :], 3, variant is STAR)
    assert matrix.shape == (64, 64)
    for u in range(64):
        for v in range(64):
            assert matrix[u, v] == has_edge(spec, CubeVector(3, u), CubeVector(3, v))


def test_predicates_match_oracle_random_high_dims():
    rng = random.Random(20260809)
    for _ in range(500):
        dim = rng.randint(4, 16)
        u = tuple(rng.randrange(4) for _ in range(dim))
        v = tuple(rng.randrange(4) for _ in range(dim))
        for variant in (PLAIN, STAR):
            spec = KellerGraphSpec(dim, variant)
            assert has_edge(spec, cv(*u), cv(*v)) == oracle_edge(variant, u, v)


def test_symmetry_and_irreflexivity_random():
    rng = random.Random(7)
    for _ in range(300):
        dim = rng.randint(1, 12)
        u = cv(*(rng.randrange(4) for _ in range(dim)))
        v = cv(*(rng.randrange(4) for _ in range(dim)))
        for variant in (PLAIN, STAR):
            spec = KellerGraphSpec(dim, variant)
            assert has_edge(spec, u, v) == has_edge(spec, v, u)
            assert not has_edge(spec, u, u)


def test_star_edges_are_plain_edges():
    rng = random.Random(99)
    for _ in range(500):
        dim = rng.randint(1, 10)
        u = cv(*(rng.randrange(4) for _ in range(dim)))
        v = cv(*(rng.randrange(4) for _ in range(dim)))
        if has_edge(KellerGraphSpec(dim, STAR), u, v):
            assert has_edge(KellerGraphSpec(dim, PLAIN), u, v)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_rotation_example():
    a = Automorphism.rotation(4, 0, 1)
    assert a.apply(cv(0, 0, 1, 2)) == cv(1, 0, 1, 2)


def test_identity():
    a = Automorphism.identity(5)
    v = cv(0, 3, 2, 1, 1)
    assert a.apply(v) == v


def test_label_map_validation():
    with pytest.raises(ValueError):
        Automorphism((0,), ((0, 2, 1, 3),))  # swaps 1 and 2: breaks the pair partition
    with pytest.raises(ValueError):
        Automorphism((0, 0), ((0, 1, 2, 3), (0, 1, 2, 3)))  # not a permutation


def test_dihedral_group_has_eight_elements():
    assert len(DIHEDRAL_LABEL_MAPS) == 8
    for lm in DIHEDRAL_LABEL_MAPS:
        assert {frozenset((lm[0], lm[2])), frozenset((lm[1], lm[3]))} == {
            frozenset((0, 2)),
            frozenset((1, 3)),
        }


@pytest.mark.parametrize("dim,expected", [(1, 8), (2, 128)])
def test_group_order_matches_8n_nfact(dim, expected):
    actions = set()
    vectors = [CubeVector.from_index(dim, i) for i in range(4**dim)]
    for a in enumerate_automorphisms(dim):
        actions.add(tuple(a.apply(v).packed for v in vectors))
    assert len(actions) == expected


def test_automorphisms_preserve_edges():
    rng = random.Random(42)
    for _ in range(200):
        dim = rng.randint(2, 5)
        a = random_automorphism(dim, rng)
        u = cv(*(rng.randrange(4) for _ in range(dim)))
        v = cv(*(rng.randrange(4) for _ in range(dim)))
        for variant in (PLAIN, STAR):
            spec = KellerGraphSpec(dim, variant)
            assert has_edge(spec, u, v) == has_edge(spec, a.apply(u), a.apply(v))


def test_compose_and_inverse():
    rng = random.Random(5)
    for _ in range(100):
        dim = rng.randint(1, 5)
        a = random_automorphism(dim, rng)
        b = random_automorphism(dim, rng)
        v = cv(*(rng.randrange(4) for _ in range(dim)))
        assert a.compose(b).apply(v) == a.apply(b.apply(v))
        assert a.inverse().apply(a.apply(v)) == v
        assert a.compose(a.inverse()).apply(v) == v


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        Automorphism.identity(3).apply(cv(0, 0))


_ID2 = (0, 1, 2, 3), (0, 1, 2, 3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: KellerGraphSpec(0, STAR), ValueError, "dimension must be positive, got 0"),
        (lambda: KellerGraphSpec(2, "Gstar"), TypeError, "variant must be a GraphVariant"),
        (lambda: CubeVector(0, 0), ValueError, "dimension must be positive, got 0"),
        (lambda: CubeVector(2, 16), ValueError, "packed value 16 out of range for dim 2"),
        (lambda: CubeVector(2, 0)[5], IndexError, "5"),
        (lambda: Automorphism((0, 1), _ID2[:1]), ValueError, "need one label map per coordinate"),
        (lambda: Automorphism.rotation(2, 2), ValueError, "coordinate 2 out of range for dim 2"),
        (lambda: Automorphism((0, 1), _ID2).compose(Automorphism.identity(3)), ValueError,
         "dimension mismatch in composition"),
        (lambda: VectorSet(2, [cv(0, 2)]).apply(Automorphism.identity(3)), ValueError,
         "dimension mismatch: automorphism 3, set 2"),
        (lambda: VectorSet._from_packed(0, []), ValueError, "dimension must be positive, got 0"),
    ],
    ids=["spec-dim-0", "spec-variant-str", "vector-dim-0", "vector-packed-16", "vector-index-5",
         "automorphism-label-maps", "rotation-coord", "compose-dims", "set-apply-dims", "set-dim-0"],
)
def test_input_guards(call, error, message):
    # each guard raises its own error and message, never a deeper failure
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def test_materialize_g1():
    g = materialize(KellerGraphSpec(1, PLAIN))
    assert g.num_vertices == 4
    assert g.num_edges == 2
    assert g.has_edge_index(0, 2) and g.has_edge_index(1, 3)
    assert not g.has_edge_index(0, 1) and not g.has_edge_index(0, 3)


@pytest.mark.parametrize("dim,edges", [(2, 40), (3, 1088)])
def test_materialize_star_edge_counts(dim, edges):
    g = materialize(KellerGraphSpec(dim, STAR))
    assert g.num_vertices == 4**dim
    assert g.num_edges == edges


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_materialized_adjacency_matches_oracle(dim):
    for variant in (PLAIN, STAR):
        g = materialize(KellerGraphSpec(dim, variant))
        vecs = [g.vector(i).digits for i in range(g.num_vertices)]
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                assert g.has_edge_index(u, v) == oracle_edge(variant, vecs[u], vecs[v])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_star_degree_regularity(dim):
    g = materialize(KellerGraphSpec(dim, STAR))
    degrees = {g.degree(v) for v in range(g.num_vertices)}
    assert degrees == {star_degree(dim)}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_plain_degree_regularity(dim):
    g = materialize(KellerGraphSpec(dim, PLAIN))
    degrees = {g.degree(v) for v in range(g.num_vertices)}
    assert degrees == {plain_degree(dim)}


def test_materialize_guard():
    with pytest.raises(ValueError):
        materialize(KellerGraphSpec(9, STAR))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_packed_rows_match_edge_kernel(dim, variant):
    # row u of the graph is the vertex-0 row gathered at the packed xors vecs ^ u
    g = materialize(KellerGraphSpec(dim, variant))
    vecs = np.arange(4**dim, dtype=np.uint64)
    assert g.row0.shape == (4**dim,) and g.row0.dtype == bool
    assert np.array_equal(g.row0, _edge(vecs, dim, variant is STAR))
    for u in range(4**dim):
        assert np.array_equal(g.row0[vecs ^ u], _edge(vecs ^ u, dim, variant is STAR))


def test_row0_is_read_only():
    g = materialize(KellerGraphSpec(3, STAR))
    assert not g.row0.flags.writeable
    with pytest.raises(ValueError):
        g.row0[0] = True


def test_materialized_graph_is_computed_from_its_spec():
    spec = KellerGraphSpec(2, STAR)
    with pytest.raises(TypeError):
        MaterializedGraph(spec, adjacency=(0,) * 16)
    with pytest.raises(TypeError):
        MaterializedGraph(spec, row0=np.zeros(16, dtype=bool))
    g = MaterializedGraph(spec)
    assert g == materialize(spec) and hash(g) == hash(materialize(spec))
    assert g != materialize(KellerGraphSpec(2, PLAIN))


def test_edges_iterator_sorted_unique():
    g = materialize(KellerGraphSpec(2, STAR))
    edges = list(g.edges())
    assert edges == sorted(edges)
    assert len(edges) == len(set(edges)) == g.num_edges
    assert all(u < v for u, v in edges)
