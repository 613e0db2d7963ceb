"""Exact clique search on Keller graphs.

One weighted branch and bound over Python-int bitsets serves every search,
in the style of the BBMC family: candidates are colored greedily in
descending degeneracy order, then branched highest color first, pruning
when the current clique plus the color bound cannot beat the incumbent (or
reach the decision target).  A clique's size is its total vertex weight and
a color class's bound is the running sum of each class's heaviest weight,
so with unit weights (every Keller-graph search) the bound is the color
number.  A node is one coloring of a non-empty candidate set; a branch whose
candidate set is empty is a leaf and is not counted.  Every node entered is
a clique, so it updates the incumbent: a decision run that runs out of
budget still reports the largest clique it reached.

Each subproblem's bitsets are over positions in the repeated-minimum-degree
removal order (ties to the smallest index), so descending degeneracy order
is descending bit order and a set's next vertex is its highest bit, found by
``int.bit_length`` without allocating.  Coloring then costs two big-int
operations per vertex: one AND with a prebuilt positive mask that drops the
vertex and its neighbours, one OR with a prebuilt single bit.  The order is
fixed, so search trees and node counts are reproducible.  Up to each
subproblem the graph is handled as numpy arrays: classes, candidate sets and
induced subgraphs are gathers on the graph's vertex-0 row (u ~ v iff
row0[u ^ v]), and only the reordered subgraph becomes the bitset rows the
search runs on.

The search is symmetry-broken.  Every translation m -> m ^ c is an
automorphism, so some optimal clique contains vertex 0; the automorphisms
fixing 0 (coordinate permutations times per-coordinate x -> -x) split N(0)
into classes keyed by the counts of digits 0 and 2, and each class is one
orbit.  So the search runs one subproblem per class, largest class first: the
clique starts as {0, r} for the class representative r (its smallest vertex)
and grows inside N(0) & N(r), minus the classes already done.  That candidate
set is a union of orbits of Stab(0, r), the automorphisms fixing 0 and r, so
at each subproblem's root a searched child p drops its whole Stab(0, r) orbit
from the candidates, not just p: an automorphism fixing 0 and r maps a clique
through another member of the orbit onto one through p, already searched.
One node counter, budget and incumbent span all subproblems.  Node counts and
witness cliques therefore differ from versions without these reductions.

The cyclic-invariant search looks for cliques closed under the coordinate
shift, an ``Automorphism``: unions of whole shift orbits, held as one packed
table whose rows walk the shift from each orbit's lexicographic minimum.  It
runs on the orbit compatibility graph: one vertex per orbit whose internal
pairs are all adjacent, weighted by the orbit size, an edge when every cross
pair is adjacent (both tests gather the table on G*_n's vertex-0 row), and a
target on the total weight that no branch may overshoot.  When the target
forces exactly two constant vectors, the clique starts from {0^n, 2^n}, as
the Stab(0) subproblems start from {0, r}.  It is one subproblem, built
inside the search so that Ctrl-C during the build ends it cleanly.  Every
search has one front end: subproblems come as builders, and a position
carries the packed vectors it adds to a clique, so the incumbent is the
witness that is checked.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    MAX_MATERIALIZE_DIM,
    Automorphism,
    CubeVector,
    GraphVariant,
    KellerGraphSpec,
    MaterializedGraph,
    VectorSet,
    _digit_columns,
    materialize,
)
from .verify import verify_clique

__all__ = [
    "SearchBudget",
    "SearchStatus",
    "SearchOutcome",
    "OrbitVertex",
    "max_clique",
    "clique_decision",
    "cyclic_orbits",
    "invariant_clique_search",
]


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a search run; unset fields mean unlimited."""

    node_limit: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")
        if self.time_limit is not None and not self.time_limit > 0:  # also NaN
            raise ValueError("time_limit must be positive")


class SearchStatus(Enum):
    OPTIMAL = "OPTIMAL"
    TARGET_FOUND = "TARGET_FOUND"
    TARGET_REFUTED = "TARGET_REFUTED"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


@dataclass(frozen=True)
class SearchOutcome:
    best_clique: VectorSet
    status: SearchStatus
    nodes_explored: int
    note: Optional[str] = None


class _Found(Exception):
    pass


# With ``on_progress``, the search reports its node count and rate every this
# many nodes; a multiple of the 1024-node poll that also checks the deadline.
_PROGRESS_EVERY = 1 << 16


class _Exhausted(Exception):
    pass


# Matrices of pairs are built in row blocks of about _BLOCK_ELEMS pairs, which
# keeps the temporaries small (256 KiB per 8-byte array) and in cache.
_BLOCK_ELEMS = 1 << 15


def _relabel(matrix: np.ndarray) -> tuple[list[int], list[int]]:
    """Degeneracy order and the bitset rows in it; returns (rows, order).

    ``matrix`` is a dense symmetric boolean adjacency with a clear diagonal.
    ``order`` is the repeated removal of a minimum-degree vertex, smallest
    index on ties (``argmin`` returns the first minimum); a removed vertex's
    degree is pinned above every live one.  Position p names vertex
    ``order[p]``, and bit q of ``rows[p]`` is set iff order[p] ~ order[q]:
    the last vertex removed is the top bit, so a bitset's highest set bit is
    its next vertex in descending degeneracy order.  The rows are permuted
    and packed in row blocks, so the only full-size array is ``matrix``.
    """
    matrix = np.ascontiguousarray(matrix)  # row updates below are 5x slower in Fortran order
    nverts = len(matrix)
    deg = matrix.sum(axis=1, dtype=np.int64)
    removed = np.iinfo(np.int64).max
    order = np.empty(nverts, dtype=np.intp)
    for i in range(nverts):
        v = int(np.argmin(deg))
        order[i] = v
        deg -= matrix[v]
        deg[v] = removed
    # take(order, axis=1) is faster than [:, order]
    rows = _pack_rows(nverts, nverts, lambda a, b: matrix[order[a:b]].take(order, axis=1))
    return rows, order.tolist()


def _pack_rows(nrows: int, ncols: int, block: Callable[[int, int], np.ndarray]) -> list[int]:
    """A boolean matrix's rows as Python ints, column j in bit j.

    ``block(a, b)`` returns rows a to b - 1 (b may pass the last row); the
    blocks have about _BLOCK_ELEMS entries, so the whole matrix never exists.
    """
    rows: list[int] = []
    step = max(1, _BLOCK_ELEMS // max(1, ncols))
    for start in range(0, nrows, step):
        packed = np.packbits(block(start, start + step), axis=1, bitorder="little")
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return rows


def _gather(row0: np.ndarray, rows: np.ndarray, columns: Sequence[np.ndarray]) -> np.ndarray:
    """M[i, j] = AND over c in ``columns`` of ``row0[rows[i] ^ c[j]]``, in row blocks."""
    matrix = np.ones((len(rows), len(columns[0])), dtype=bool)
    step = max(1, _BLOCK_ELEMS // max(1, matrix.shape[1]))
    for start in range(0, len(rows), step):
        block = matrix[start : start + step]
        for c in columns:
            block &= row0[rows[start : start + step, None] ^ c]
    return matrix


@dataclass(frozen=True)
class _Subproblem:
    """Extend the clique ``prefix`` (packed vectors) within a candidate set.

    ``adj`` is the subgraph induced on the candidates, all of them adjacent
    to every prefix vector, as ``_relabel`` rows: one bit per position in
    degeneracy removal order.  ``vectors[p]`` is the tuple of packed vectors
    that position p adds to a clique, and its length is p's weight: ``(v,)``
    for a Keller-graph vertex, one whole orbit for the orbit graph.  Both
    searches fix vectors only through the prefix: {0, r} for a Stab(0)
    class, and {0^n, 2^n} on the orbit graph when exactly two constants are
    forced (the uniform x -> x + 1, an ``Automorphism`` commuting with the
    shift, maps the other adjacent constant pair {1^n, 3^n} onto it).

    ``orbit[p]`` is the bitmask of the positions in p's orbit under the
    automorphisms that fix the prefix, a positive int holding p's own bit;
    the candidates are a union of these orbits.  A Stab(0) subproblem keys
    them with ``_pair_stabilizer_key``.  Empty means no symmetry is known,
    as on the orbit graph, and each position is its own orbit.
    """

    prefix: tuple[int, ...]
    adj: list[int]
    vectors: Sequence[tuple[int, ...]]
    orbit: Sequence[int] = ()


def _stabilizer_classes(spec: KellerGraphSpec, row0: np.ndarray) -> list[np.ndarray]:
    """N(0) split by (count of digit 0, count of digit 2), largest class first.

    The automorphisms fixing vector 0 are the coordinate permutations times
    x -> -x on any set of coordinates; these classes are their orbits on
    N(0) (row0 is vertex 0's boolean adjacency row).  Each class is sorted;
    ties in size keep the ascending order of the key.
    """
    nbrs = np.flatnonzero(row0)
    key = _pair_stabilizer_key(spec.dim, 0, nbrs)  # Stab(0, 0) = Stab(0)
    classes = [nbrs[key == k] for k in np.unique(key)]
    classes.sort(key=len, reverse=True)
    return classes


def _pair_stabilizer_key(n: int, r: int, vecs: np.ndarray) -> np.ndarray:
    """A key on packed vectors whose classes are the orbits of Stab(0, r).

    An automorphism fixing 0 moves each coordinate i to pi(i) and multiplies
    it by a sign s = +-1 there (x -> -x swaps 1 and 3).  It also fixes r iff
    pi keeps each of r's digit classes {0}, {2} and {1, 3}, with the sign
    s = r_pi(i) * r_i (mod 4) forced on r's odd coordinates.  So on r's 0-
    and on its 2-coordinates a vector's digits are permuted and negated
    freely, which keeps their counts of 0 and of 2; on r's odd coordinates
    they are permuted with forced signs, which keeps the count of each value
    v_i * r_i (mod 4).  Any two vectors with equal counts are one orbit.
    """
    digits = _digit_columns(vecs, n)
    r_digits = _digit_columns(np.array([r]), n)[0]
    odd = r_digits & 1 == 1
    counts = []
    for coords in (r_digits == 0, r_digits == 2):
        counts += [(digits[:, coords] == 0).sum(axis=1), (digits[:, coords] == 2).sum(axis=1)]
    signed = (digits[:, odd] * r_digits[odd]) & 3
    counts += [(signed == x).sum(axis=1) for x in (0, 1, 2)]
    key = np.zeros(len(vecs), dtype=np.intp)
    for count in counts:
        key = key * (n + 1) + count
    return key


def _induced(row0: np.ndarray, n: int, r: int, verts: np.ndarray) -> _Subproblem:
    """The subproblem extending {0, r} within verts, one vertex per position.

    Each position's orbit mask holds the positions of its Stab(0, r) orbit.
    """
    adj, sub_to_vert = _relabel(_gather(row0, verts, [verts]))
    verts = verts[sub_to_vert]
    keys, orbit_of = np.unique(_pair_stabilizer_key(n, r, verts), return_inverse=True)
    ids = np.arange(len(keys))[:, None]
    masks = _pack_rows(len(keys), len(verts), lambda a, b: orbit_of == ids[a:b])
    orbit = [masks[k] for k in orbit_of.tolist()]
    return _Subproblem((0, r), adj, [(v,) for v in verts.tolist()], orbit)


def _subproblems(g: MaterializedGraph) -> Iterator[Callable[[], _Subproblem]]:
    """One subproblem per Stab(0) class of N(0), each yielded as its builder.

    Translations move any clique onto vertex 0, and Stab(0) then moves its
    member of the earliest class onto that class's representative.  A
    builder holds its candidate vertices; the gather, the relabel and the
    Stab(0, r) orbit masks wait until it is called.
    """
    row0 = g.row0
    allowed = row0.copy()
    classes = _stabilizer_classes(g.spec, allowed)
    if not classes:
        yield lambda: _Subproblem((0,), [], [])
        return
    vecs = np.arange(g.num_vertices)
    for members in classes:
        verts = np.flatnonzero(allowed & row0[vecs ^ members[0]])
        yield functools.partial(_induced, row0, g.spec.dim, int(members[0]), verts)
        allowed[members] = False


class _CliqueSearch:
    """Weighted B&B over subproblems; a target switches to decision pruning.

    A clique's size is its total weight.  ``run`` searches a sequence of
    subproblems under one node counter, budget and incumbent; sizes
    (incumbent, target, ``on_improve``) count the subproblem's prefix.  With
    a target, a branch is pruned unless its bound reaches the target, and no
    vertex is added that would overshoot it.  A subproblem's root node drops
    searched children's whole orbits; every other node drops single bits.

    Bitsets are over ``_relabel`` positions, so a set's highest bit is its
    next vertex in descending degeneracy order and ``int.bit_length`` finds
    it without allocating.  Coloring a vertex p costs two big-int operations:
    ``q &= nonadj[p]`` drops p and its neighbours with a positive mask (a
    negative ``~adj[p]`` operand would make CPython build a two's-complement
    temporary on every AND), and ``cls |= bits[p]`` takes a prebuilt bit.
    """

    def __init__(
        self,
        target: Optional[int],
        budget: SearchBudget,
        on_improve: Optional[Callable[[int, int], None]] = None,
        on_progress: Optional[Callable[[int, float], None]] = None,
    ):
        self.target = target
        self.cap = target if target is not None else sys.maxsize
        self.floor = target - 1 if target is not None else 0
        self.node_limit = budget.node_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit is not None else None
        )
        self.on_improve = on_improve
        self.on_progress = on_progress
        self.start = time.monotonic()
        # one flag, so a run with neither a deadline nor a heartbeat does no
        # extra work per node
        self.poll = self.deadline is not None or on_progress is not None
        self.adj: Sequence[int] = ()
        self.nonadj: list[int] = []
        self.bits: list[int] = []
        self.orbit: Sequence[int] = ()
        self.weights: list[int] = []
        self.heavy: list[tuple[int, int]] = []
        self.light = 1
        self.sub: Optional[_Subproblem] = None
        self.best: tuple[_Subproblem, int] = (_Subproblem((), [], []), 0)
        self.best_size = 0
        self.nodes = 0
        self.note: Optional[str] = None

    def _tick(self) -> None:
        if self.node_limit is not None and self.nodes >= self.node_limit:
            raise _Exhausted
        self.nodes += 1
        if self.poll and (self.nodes & 1023) == 0:
            self._poll()

    def _poll(self) -> None:
        now = time.monotonic()
        if self.on_progress is not None and self.nodes % _PROGRESS_EVERY == 0:
            self.on_progress(self.nodes, self.nodes / max(now - self.start, 1e-9))
        if self.deadline is not None and now > self.deadline:
            raise _Exhausted

    def _color_sort(self, cand: int) -> list[tuple[int, int]]:
        """Greedy color classes of cand from the top bit down, each with its bound.

        A class's bound is the sum of the maximum weights of it and every
        earlier class: the color number when all weights are 1.
        """
        nonadj, bits, light, heavy = self.nonadj, self.bits, self.light, self.heavy
        classes: list[tuple[int, int]] = []
        bound = 0
        while cand:
            q = cand
            cls = 0
            while q:
                p = q.bit_length() - 1
                q &= nonadj[p]
                cls |= bits[p]
            cand ^= cls
            weight = light
            for level, members in heavy:
                if cls & members:
                    weight = level
                    break
            bound += weight
            classes.append((cls, bound))
        return classes

    def _improve(self, mask: int, size: int) -> None:
        self.best, self.best_size = (self.sub, mask), size
        if self.on_improve is not None:
            self.on_improve(size, self.nodes)
        if size >= self.cap:
            raise _Found

    def _expand(self, rmask: int, rsize: int, cand: int, drop: Sequence[int]) -> None:
        """One node: color the non-empty candidate set and branch on it.

        Classes are branched last first, and within a class the lowest
        position first.  Before each child its class bound is tested against
        the incumbent (or the target's floor); no later child has a higher
        bound, so the first failing test ends the node.  A searched child p
        removes ``drop[p]`` from cand, and each class is masked with cand.
        Inner nodes pass the single bits.  A subproblem's root passes the
        orbit masks, so once p is searched no later child is in p's orbit.
        The orbits are those of automorphisms fixing the prefix, and the
        root's cand is a union of them, so it stays one and the XOR removes
        exactly p's orbit.  Sound: let p be the first searched child whose
        orbit a clique meets.  An automorphism fixing the prefix maps the
        clique's member there onto p, and the clique onto one through p that
        meets no earlier child's orbit, so one inside cand as it was when p
        was searched.  A clique that meets no searched orbit lies in what is
        left of cand, which the color bounds still cover: removal only
        loosens them.
        """
        self._tick()
        if rsize > self.best_size:
            self._improve(rmask, rsize)
        adj, weights, cap, bits = self.adj, self.weights, self.cap, self.bits
        for cls, bound in reversed(self._color_sort(cand)):
            cls &= cand
            while cls:
                if rsize + bound <= max(self.best_size, self.floor):
                    return
                bit = cls & -cls
                p = bit.bit_length() - 1
                size = rsize + weights[p]
                if size <= cap:
                    sub = cand & adj[p]
                    if sub:
                        self._expand(rmask | bit, size, sub, bits)
                    elif size > self.best_size:  # a leaf, not counted as a node
                        self._improve(rmask | bit, size)
                cand ^= drop[p]
                cls &= cand

    def _enter(self, sub: _Subproblem) -> None:
        self.sub, self.adj = sub, sub.adj
        self.weights = [len(vectors) for vectors in sub.vectors]
        self.bits = [1 << p for p in range(len(sub.adj))]
        self.orbit = sub.orbit or self.bits
        full = (1 << len(sub.adj)) - 1
        self.nonadj = [full ^ row ^ bit for row, bit in zip(sub.adj, self.bits)]  # no self-loops
        # per weight level, heaviest first, the positions of that weight; the
        # lightest level needs no mask, it is what a color class falls back to
        levels = sorted(set(self.weights), reverse=True) or [1]
        self.light = levels[-1]
        self.heavy = [
            (w, sum(bit for bit, wp in zip(self.bits, self.weights) if wp == w)) for w in levels[:-1]
        ]

    def run(self, builders: Iterable[Callable[[], _Subproblem]]) -> SearchStatus:
        """Build and search each subproblem in turn; Ctrl-C ends it like an exhausted budget.

        Ctrl-C while a subproblem is being built ends the search the same
        way.  The time limit is also checked before each further build, so a
        run past its deadline builds no more, and one that finished its last
        subproblem is complete whatever the clock says.
        """
        try:
            for i, build in enumerate(builders):
                if i and self.deadline is not None and time.monotonic() > self.deadline:
                    raise _Exhausted
                sub = build()
                self._enter(sub)
                size = len(sub.prefix)
                if sub.adj:
                    self._expand(0, size, (1 << len(sub.adj)) - 1, self.orbit)
                elif size > self.best_size:
                    self._improve(0, size)
        except _Found:
            return SearchStatus.TARGET_FOUND
        except _Exhausted:
            return SearchStatus.BUDGET_EXHAUSTED
        except KeyboardInterrupt:
            self.note = "interrupted"
            return SearchStatus.BUDGET_EXHAUSTED
        if self.target is not None:
            return SearchStatus.TARGET_REFUTED
        return SearchStatus.OPTIMAL

    def best_vectors(self) -> list[int]:
        """Packed vectors of the incumbent clique."""
        sub, mask = self.best
        out = list(sub.prefix)
        while mask:
            lsb = mask & -mask
            out.extend(sub.vectors[lsb.bit_length() - 1])
            mask ^= lsb
        return out


def _search(
    spec: KellerGraphSpec, search: _CliqueSearch, builders: Iterable[Callable[[], _Subproblem]]
) -> SearchOutcome:
    """Run the search and return its incumbent as a witness checked against spec."""
    status = search.run(builders)
    clique = VectorSet._from_packed(spec.dim, search.best_vectors())
    report = verify_clique(clique, spec)
    if not report.is_clique:
        raise AssertionError(f"search returned a non-clique; missing pairs {report.pairs[:3]}")
    return SearchOutcome(clique, status, search.nodes, search.note)


def max_clique(
    g: MaterializedGraph,
    budget: SearchBudget = SearchBudget(),
    *,
    on_improve: Optional[Callable[[int, int], None]] = None,
    on_progress: Optional[Callable[[int, float], None]] = None,
) -> SearchOutcome:
    """Largest clique of g; OPTIMAL unless the budget runs out first.

    ``on_improve(size, nodes)`` is called whenever the incumbent grows, and
    ``on_progress(nodes, nodes_per_second)`` every ``_PROGRESS_EVERY`` nodes.
    Ctrl-C ends the search as BUDGET_EXHAUSTED with note "interrupted",
    keeping the incumbent.
    """
    return _search(g.spec, _CliqueSearch(None, budget, on_improve, on_progress), _subproblems(g))


def clique_decision(
    g: MaterializedGraph,
    size: int,
    budget: SearchBudget = SearchBudget(),
    *,
    on_improve: Optional[Callable[[int, int], None]] = None,
    on_progress: Optional[Callable[[int, float], None]] = None,
) -> SearchOutcome:
    """Decide whether g contains a clique of the given size.

    TARGET_FOUND returns a witness of at least that size; TARGET_REFUTED is
    exhaustive (every subtree that could reach the target was explored).
    """
    if size < 1:
        raise ValueError("target size must be positive")
    return _search(g.spec, _CliqueSearch(size, budget, on_improve, on_progress), _subproblems(g))


# ---------------------------------------------------------------------------
# Cyclic-invariant search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitVertex:
    """An orbit of the cyclic coordinate shift (m1,...,mn) -> (m2,...,mn,m1).

    The representative is the lexicographic minimum; the orbit size divides
    the dimension (size 1 exactly for constant vectors).
    """

    representative: CubeVector
    orbit: frozenset[CubeVector]
    size: int


def _shift(n: int) -> Automorphism:
    """The coordinate shift (m1,...,mn) -> (m2,...,mn,m1): coordinate i moves to i - 1."""
    return Automorphism(tuple((i - 1) % n for i in range(n)), Automorphism.identity(n).label_maps)


def _orbit_table(a: Automorphism) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of <a> on all 4^n packed vectors as table rows, and their sizes.

    Row i is r, a(r), a^2(r), ... up to the order of a, for r the orbit's
    lexicographic minimum; rows ascend by r, and each repeats with period
    equal to its orbit size.  Entries are intp, so they index without a cast.
    """
    vecs = VectorSet._from_packed(a.dim, np.arange(4**a.dim)).packed.astype(np.intp)  # lexicographic
    walk = [vecs]
    while not np.array_equal(image := a._apply_packed(walk[-1]), vecs):
        walk.append(image)
    table = np.stack(walk, axis=1)
    ranks = np.argsort(vecs)[table]  # lexicographic rank of every entry
    table = table[ranks.min(axis=1) == ranks[:, 0]]
    return table, table.shape[1] // (table == table[:, :1]).sum(axis=1)


def cyclic_orbits(n: int) -> tuple[OrbitVertex, ...]:
    """Partition all 4^n vectors into coordinate-rotation orbits."""
    table, sizes = _orbit_table(_shift(n))
    return tuple(
        OrbitVertex(CubeVector(n, row[0]), frozenset(CubeVector(n, w) for w in row[:size]), size)
        for row, size in zip(table.tolist(), sizes.tolist())
    )


def _orbit_compatibility(row0: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the orbits that are cliques, and their compatibility matrix.

    ``table`` is the ``_orbit_table`` of an automorphism of the graph with
    vertex-0 row row0.  It maps A's representative onto each member of A and
    B onto itself, so every cross pair of orbits A and B is adjacent iff A's
    representative is adjacent to every entry of B's row.
    """
    reps = table[:, :1]
    keep = np.flatnonzero(((table == reps) | row0[table ^ reps]).all(axis=1))
    return keep, _gather(row0, reps[keep, 0], np.ascontiguousarray(table[keep].T))


def _weight_reachable(weights: Sequence[int], target: int) -> bool:
    if target > sum(weights):  # also keeps the reach bitset below 2^(sum + 1)
        return False
    reach = 1
    cap = (1 << (target + 1)) - 1
    for w in weights:
        reach |= (reach << w) & cap
    return (reach >> target) & 1 == 1


def invariant_clique_search(
    n: int,
    target: int,
    budget: SearchBudget = SearchBudget(),
    *,
    on_improve: Optional[Callable[[int, int], None]] = None,
    on_progress: Optional[Callable[[int, float], None]] = None,
) -> SearchOutcome:
    """Search G*_n for a clique of given size invariant under coordinate rotation.

    The search space is unions of whole rotation orbits; each orbit whose
    internal pairs are all adjacent becomes a vertex weighted by its size,
    and the goal is a pairwise-compatible family with weights summing
    exactly to the target.  When the residue arithmetic forces exactly two
    constant vectors, the clique starts from the prefix {0^n, 2^n}: the two
    must be adjacent, so they are {0^n, 2^n} or {1^n, 3^n}, and the uniform
    label map x -> x + 1, an ``Automorphism`` that commutes with the shift,
    maps invariant cliques to invariant cliques and {1^n, 3^n} onto
    {2^n, 0^n}.  Ctrl-C, also while the orbit graph is being built, ends the
    search as BUDGET_EXHAUSTED with note "interrupted".  ``on_improve(size,
    nodes)`` is called whenever the incumbent grows; its size counts vectors
    (the orbit weights and the prefix).  ``on_progress`` is as for
    ``max_clique``.  Guarded at dimension 8 like
    ``materialize``: the orbits cover all 4^n vectors.
    """
    if target < 1:
        raise ValueError("target must be positive")
    spec = KellerGraphSpec(n, GraphVariant.STAR)
    if n > MAX_MATERIALIZE_DIM:
        raise ValueError(
            f"cyclic-invariant search guarded at dim {MAX_MATERIALIZE_DIM}: "
            f"it enumerates all 4**{n} = {4**n} vectors"
        )
    search = _CliqueSearch(target, budget, on_improve, on_progress)

    def build() -> _Subproblem:
        # runs inside search.run(), so that Ctrl-C here ends the search too
        table, sizes = _orbit_table(_shift(n))
        keep, compat = _orbit_compatibility(materialize(spec).row0, table)
        table, sizes = table[keep], sizes[keep]
        if not _weight_reachable(sizes.tolist(), target):
            search.note = f"target {target} is not a sum of admissible orbit sizes"
            return _Subproblem((), [], [])
        prefix, cand = (), np.arange(len(sizes))
        # counts of constants a solution can contain: the residue of target
        # modulo the only other orbit size, up to the four constants
        counts = {f for f in range(5) if f <= target and (target - f) % n == 0}
        if set(sizes[sizes > 1].tolist()) == {n} and counts == {2}:
            # The two constants are adjacent: {0^n, 2^n} or {1^n, 3^n}.  The
            # uniform label map x -> x + 1 is an Automorphism commuting with
            # the shift, so it maps invariant cliques to invariant cliques,
            # and {1^n, 3^n} onto {2^n, 0^n}: fix 0^n (row 0) and 2^n.  The
            # orbits compatible with both exclude every constant.
            two = np.flatnonzero(sizes == 1)[2]  # rows ascend by representative
            prefix, cand = (0, int(table[two, 0])), np.flatnonzero(compat[0] & compat[two])
            compat = compat[np.ix_(cand, cand)]
        adj, order = _relabel(compat)
        verts = cand[order]
        vectors = [tuple(row[:size]) for row, size in zip(table[verts].tolist(), sizes[verts].tolist())]
        return _Subproblem(prefix, adj, vectors)

    return _search(spec, search, [build])
