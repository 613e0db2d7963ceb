"""The numpy degeneracy relabel against the heap routine it replaced.

``reference_relabel`` is the earlier Python-int implementation, kept as the
oracle: a heap of (degree, vertex) pairs with lazy deletion, then a remap of
every row one bit at a time into removal-order positions.  The search's node
counts depend on the exact order, so ``_relabel`` must return the same order
and every row on every graph, including graphs with many degree ties.
"""

import heapq
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keller import search as search_module
from keller.core import GraphVariant, KellerGraphSpec, materialize
from keller.search import (
    SearchBudget,
    _relabel,
    _stabilizer_classes,
    _subproblems,
    invariant_clique_search,
)


def reference_removal_order(adjacency):
    """Repeatedly remove a minimum-degree vertex (smallest index on ties)."""
    nverts = len(adjacency)
    deg = [row.bit_count() for row in adjacency]
    heap = [(deg[v], v) for v in range(nverts)]
    heapq.heapify(heap)
    removed_mask = 0
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if (removed_mask >> v) & 1 or d != deg[v]:
            continue
        order.append(v)
        removed_mask |= 1 << v
        rest = adjacency[v] & ~removed_mask
        while rest:
            lsb = rest & -rest
            u = lsb.bit_length() - 1
            deg[u] -= 1
            heapq.heappush(heap, (deg[u], u))
            rest ^= lsb
    return order


def reference_relabel(adjacency):
    """Rows over removal-order positions; returns (rows, order).

    Position p names vertex order[p], and bit q of rows[p] is set iff
    order[p] ~ order[q].
    """
    order = reference_removal_order(adjacency)
    position = [0] * len(order)
    for p, old in enumerate(order):
        position[old] = p
    rows = [0] * len(order)
    for p, old in enumerate(order):
        row = adjacency[old]
        acc = 0
        while row:
            lsb = row & -row
            acc |= 1 << position[lsb.bit_length() - 1]
            row ^= lsb
        rows[p] = acc
    return rows, order


def bool_matrix(rows, nverts):
    return np.array([[(row >> j) & 1 for j in range(nverts)] for row in rows], dtype=bool)


def graph_rows(g):
    """The graph's rows as Python-int bitsets: bit j of row i is edge {i, j}."""
    nverts = g.num_vertices
    return [sum(1 << v for v in range(nverts) if g.has_edge_index(u, v)) for u in range(nverts)]


def int_rows(matrix):
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in matrix]


def induced(rows, verts):
    """Bitset rows of the subgraph induced on verts, vertex i naming verts[i]."""
    pos = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        acc = 0
        for u in verts:
            if (rows[v] >> u) & 1:
                acc |= 1 << pos[u]
        out.append(acc)
    return out


def assert_same_relabel(matrix, rows):
    assert _relabel(matrix) == reference_relabel(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("variant", [GraphVariant.PLAIN, GraphVariant.STAR])
def test_relabel_matches_reference_on_keller_graphs(n, variant):
    g = materialize(KellerGraphSpec(n, variant))
    rows = graph_rows(g)
    assert_same_relabel(bool_matrix(rows, g.num_vertices), rows)


@pytest.mark.parametrize("n", [4, 5])
def test_every_stabilizer_subproblem_matches_reference(monkeypatch, n):
    # the candidates of class k: N(0) & N(rep_k) minus the earlier classes;
    # the induced matrices are built in blocks from one row to the whole matrix
    g = materialize(KellerGraphSpec(n, GraphVariant.STAR))
    rows = graph_rows(g)
    row0 = np.array([g.has_edge_index(0, v) for v in range(g.num_vertices)])
    classes = _stabilizer_classes(g.spec, row0)
    assert len(classes) > 1
    want = []
    allowed = rows[0]
    for members in classes:
        rep = int(members[0])
        cand = allowed & rows[rep]
        verts = [v for v in range(g.num_vertices) if (cand >> v) & 1]
        adj, sub_to_vert = reference_relabel(induced(rows, verts))
        want.append(((0, rep), adj, [(verts[i],) for i in sub_to_vert]))
        for v in members.tolist():
            allowed &= ~(1 << v)
    for block_elems in (1, 300, search_module._BLOCK_ELEMS):
        monkeypatch.setattr(search_module, "_BLOCK_ELEMS", block_elems)
        subs = [build() for build in _subproblems(g)]
        assert [(sub.prefix, sub.adj, sub.vectors) for sub in subs] == want


@pytest.mark.parametrize("n", [6, 7])
def test_relabel_matches_reference_on_orbit_graphs(n):
    # the matrix the target-2^n search relabels: at n = 7 the orbits
    # compatible with the fixed constants 0^n and 2^n
    with mock.patch.object(search_module, "_relabel", wraps=_relabel) as spy:
        invariant_clique_search(n, 2**n, SearchBudget(node_limit=1))
    (matrix,), _ = spy.call_args
    assert len(matrix) == {6: 296, 7: 1228}[n]
    assert_same_relabel(matrix, int_rows(matrix))


def test_relabel_memory_is_bounded():
    # the rows are permuted and packed in blocks: no second full-size matrix
    # (a one-shot permutation peaks above the input's own size)
    rng = np.random.default_rng(7)
    matrix = np.triu(rng.random((1500, 1500)) < 0.35, 1)
    matrix |= matrix.T
    tracemalloc.start()
    try:
        _relabel(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes / 3


@st.composite
def symmetric_graphs(draw):
    """A small symmetric boolean matrix with a clear diagonal; few distinct degrees."""
    nverts = draw(st.integers(0, 24))
    upper = draw(st.lists(st.booleans(), min_size=nverts * nverts, max_size=nverts * nverts))
    matrix = np.triu(np.array(upper, dtype=bool).reshape(nverts, nverts), 1)
    return matrix | matrix.T


@settings(max_examples=300, deadline=None)
@given(symmetric_graphs(), st.sampled_from([1, 50, search_module._BLOCK_ELEMS]))
def test_relabel_matches_reference_on_random_graphs(matrix, block_elems):
    # the rows are permuted and packed in blocks from one row to the whole matrix
    with mock.patch.object(search_module, "_BLOCK_ELEMS", block_elems):
        assert_same_relabel(matrix, int_rows(matrix))
