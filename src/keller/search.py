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
and grows inside N(0) & N(r), minus the classes already done.  One node
counter, budget and incumbent span all subproblems.  Node counts and witness
cliques therefore differ from versions without this reduction.

The cyclic-invariant search looks for cliques closed under rotating the
coordinates.  Such a clique is a union of whole rotation orbits, so the
search runs on the orbit compatibility graph: one vertex per orbit whose
internal pairs are all adjacent, weighted by the orbit size, an edge when
every cross pair is adjacent (both tests gather on G*_n's vertex-0 row), and
a target on the total weight that no branch may overshoot.  It is one
subproblem, built inside the search so that Ctrl-C during the build ends it
cleanly.  Every search has one front end: a position carries the packed
vectors it adds to a clique, so the incumbent is the witness that is checked.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    MAX_MATERIALIZE_DIM,
    CubeVector,
    GraphVariant,
    KellerGraphSpec,
    MaterializedGraph,
    _digit_columns,
    materialize,
)
from .construction import VectorSet
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
    rows: list[int] = []
    step = max(1, _BLOCK_ELEMS // max(1, nverts))
    for start in range(0, nverts, step):
        block = matrix[order[start : start + step]].take(order, axis=1)  # faster than [:, order]
        packed = np.packbits(block, axis=1, bitorder="little")
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return rows, order.tolist()


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
    for a Keller-graph vertex, a whole orbit group for the orbit graph.
    """

    prefix: tuple[int, ...]
    adj: list[int]
    vectors: Sequence[tuple[int, ...]]


def _stabilizer_classes(spec: KellerGraphSpec, row0: np.ndarray) -> list[np.ndarray]:
    """N(0) split by (count of digit 0, count of digit 2), largest class first.

    The automorphisms fixing vector 0 are the coordinate permutations times
    x -> -x on any set of coordinates; these classes are their orbits on
    N(0) (row0 is vertex 0's boolean adjacency row).  Each class is sorted;
    ties in size keep the ascending order of the key.
    """
    n = spec.dim
    nbrs = np.flatnonzero(row0)
    digits = _digit_columns(nbrs, n)
    key = (digits == 0).sum(axis=1) * (n + 1) + (digits == 2).sum(axis=1)
    classes = [nbrs[key == k] for k in np.unique(key)]
    classes.sort(key=len, reverse=True)
    return classes


def _subproblems(g: MaterializedGraph) -> Iterator[_Subproblem]:
    """One subproblem per Stab(0) class of N(0), built lazily.

    Translations move any clique onto vertex 0, and Stab(0) then moves its
    member of the earliest class onto that class's representative.
    """
    row0 = g.row0
    allowed = row0.copy()
    classes = _stabilizer_classes(g.spec, allowed)
    if not classes:
        yield _Subproblem((0,), [], [])
        return
    vecs = np.arange(g.num_vertices)
    for members in classes:
        rep = int(members[0])
        verts = np.flatnonzero(allowed & row0[vecs ^ rep])
        adj, sub_to_vert = _relabel(_gather(row0, verts, [verts]))
        yield _Subproblem((0, rep), adj, [(v,) for v in verts[sub_to_vert].tolist()])
        allowed[members] = False


class _CliqueSearch:
    """Weighted B&B over subproblems; a target switches to decision pruning.

    A clique's size is its total weight.  ``run`` searches a sequence of
    subproblems under one node counter, budget and incumbent; sizes
    (incumbent, target, ``on_improve``) count the subproblem's prefix.  With
    a target, a branch is pruned unless its bound reaches the target, and no
    vertex is added that would overshoot it.

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
    ):
        self.target = target
        self.cap = target if target is not None else sys.maxsize
        self.floor = target - 1 if target is not None else 0
        self.node_limit = budget.node_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit is not None else None
        )
        self.on_improve = on_improve
        self.adj: Sequence[int] = ()
        self.nonadj: list[int] = []
        self.bits: list[int] = []
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
        if (
            self.deadline is not None
            and (self.nodes & 1023) == 0
            and time.monotonic() > self.deadline
        ):
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

    def _expand(self, rmask: int, rsize: int, cand: int) -> None:
        """One node: color the non-empty candidate set and branch on it.

        Classes are branched last first, and within a class the lowest
        position first, until the bound cannot beat the threshold.
        """
        self._tick()
        if rsize > self.best_size:
            self._improve(rmask, rsize)
        adj, weights, cap = self.adj, self.weights, self.cap
        threshold = max(self.best_size, self.floor)
        for cls, bound in reversed(self._color_sort(cand)):
            if rsize + bound <= threshold:
                return
            while cls:
                bit = cls & -cls
                p = bit.bit_length() - 1
                cls ^= bit
                size = rsize + weights[p]
                if size <= cap:
                    sub = cand & adj[p]
                    if sub:
                        self._expand(rmask | bit, size, sub)
                        threshold = max(self.best_size, self.floor)
                        if rsize + bound <= threshold:  # no later vertex has a higher bound
                            return
                    elif size > self.best_size:  # a leaf, not counted as a node
                        self._improve(rmask | bit, size)
                cand ^= bit

    def _enter(self, sub: _Subproblem) -> None:
        self.sub, self.adj = sub, sub.adj
        self.weights = [len(vectors) for vectors in sub.vectors]
        self.bits = [1 << p for p in range(len(sub.adj))]
        full = (1 << len(sub.adj)) - 1
        self.nonadj = [full ^ row ^ bit for row, bit in zip(sub.adj, self.bits)]  # no self-loops
        # per weight level, heaviest first, the positions of that weight; the
        # lightest level needs no mask, it is what a color class falls back to
        levels = sorted(set(self.weights), reverse=True) or [1]
        self.light = levels[-1]
        self.heavy = [
            (w, sum(bit for bit, wp in zip(self.bits, self.weights) if wp == w)) for w in levels[:-1]
        ]

    def run(self, subproblems: Iterable[_Subproblem]) -> SearchStatus:
        """Search every subproblem; Ctrl-C ends it like an exhausted budget.

        Subproblems may be built lazily: Ctrl-C while the next one is being
        built ends the search the same way.  The time limit is also checked
        after each subproblem, so a run past its deadline builds no more.
        """
        try:
            for sub in subproblems:
                self._enter(sub)
                size = len(sub.prefix)
                if sub.adj:
                    self._expand(0, size, (1 << len(sub.adj)) - 1)
                elif size > self.best_size:
                    self._improve(0, size)
                if self.deadline is not None and time.monotonic() > self.deadline:
                    raise _Exhausted
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
    spec: KellerGraphSpec, search: _CliqueSearch, subproblems: Iterable[_Subproblem]
) -> SearchOutcome:
    """Run the search and return its incumbent as a witness checked against spec."""
    status = search.run(subproblems)
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
) -> SearchOutcome:
    """Largest clique of g; OPTIMAL unless the budget runs out first.

    ``on_improve(size, nodes)`` is called whenever the incumbent grows.
    Ctrl-C ends the search as BUDGET_EXHAUSTED with note "interrupted",
    keeping the incumbent.
    """
    return _search(g.spec, _CliqueSearch(None, budget, on_improve), _subproblems(g))


def clique_decision(
    g: MaterializedGraph,
    size: int,
    budget: SearchBudget = SearchBudget(),
    *,
    on_improve: Optional[Callable[[int, int], None]] = None,
) -> SearchOutcome:
    """Decide whether g contains a clique of the given size.

    TARGET_FOUND returns a witness of at least that size; TARGET_REFUTED is
    exhaustive (every subtree that could reach the target was explored).
    """
    if size < 1:
        raise ValueError("target size must be positive")
    return _search(g.spec, _CliqueSearch(size, budget, on_improve), _subproblems(g))


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


def _rotate(x, n: int):
    """Packed image of the shift (m1,...,mn) -> (m2,...,mn,m1): an int or an integer array."""
    return (x >> 2) | ((x & 3) << (2 * (n - 1)))


def cyclic_orbits(n: int) -> tuple[OrbitVertex, ...]:
    """Partition all 4^n vectors into coordinate-rotation orbits."""
    seen: set[int] = set()
    out = []
    # in lexicographic order the first vector met of each orbit is its minimum
    for rep in VectorSet._from_packed(n, np.arange(4**n)).packed.tolist():
        if rep in seen:
            continue
        orbit = [rep]
        while (w := _rotate(orbit[-1], n)) != rep:
            orbit.append(w)
        seen.update(orbit)
        out.append(
            OrbitVertex(
                representative=CubeVector(n, rep),
                orbit=frozenset(CubeVector(n, w) for w in orbit),
                size=len(orbit),
            )
        )
    return tuple(out)


def _orbit_compatibility(
    g: MaterializedGraph, orbits: Sequence[OrbitVertex]
) -> tuple[list[OrbitVertex], np.ndarray]:
    """Filter internally-clique orbits and build their compatibility matrix.

    Orbit A is compatible with orbit B iff every cross pair is adjacent in
    g (G*_n); by shift-invariance that reduces to the representative of A
    against the first size(B) shifts of the representative of B.
    """
    reps = np.array([o.representative.packed for o in orbits], dtype=np.intp)
    sizes = np.array([o.size for o in orbits], dtype=np.intp)
    shifted = [reps]  # shifted[e]: every representative rotated e times
    for _ in range(1, int(sizes.max(initial=1))):
        shifted.append(_rotate(shifted[-1], g.spec.dim))
    # an orbit is a clique iff its representative is adjacent to its other shifts
    internal = np.ones(len(orbits), dtype=bool)
    for e in range(1, len(shifted)):
        internal &= (sizes <= e) | g.row0[reps ^ shifted[e]]
    keep = np.flatnonzero(internal)
    # every shift e of B's representative is a member of B (shift e mod
    # size(B)), so testing all of them adds no condition; e = 0 clears the diagonal
    compat = _gather(g.row0, reps[keep], [rotated[keep] for rotated in shifted])
    return [orbits[i] for i in keep.tolist()], compat


def _weight_reachable(weights: Sequence[int], target: int) -> bool:
    if target > sum(weights):  # also keeps the reach bitset below 2^(sum + 1)
        return False
    reach = 1
    cap = (1 << (target + 1)) - 1
    for w in weights:
        reach |= (reach << w) & cap
    return (reach >> target) & 1 == 1


def _orbit_groups(
    n: int, target: int, admissible: Sequence[OrbitVertex], compat: np.ndarray
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Vertices of the orbit graph, as tuples of admissible orbits, and its adjacency.

    Each orbit is a vertex of its own, unless the residue arithmetic forces
    exactly two constant vectors: then the compatible constant pairs join as
    weight-2 vertices instead of four singletons.
    """
    groups: list[tuple[int, ...]] = [(i,) for i in range(len(admissible))]
    fixed = [i for i, o in enumerate(admissible) if o.size == 1]
    # counts of constants a solution can contain: residue of target modulo
    # the only other available orbit size
    feasible_counts = {f for f in range(len(fixed) + 1) if f <= target and (target - f) % n == 0}
    if sorted({o.size for o in admissible if o.size > 1}) != [n] or feasible_counts != {2}:
        return groups, compat
    groups = [(i,) for i, o in enumerate(admissible) if o.size > 1]
    groups += [(a, b) for a, b in itertools.combinations(fixed, 2) if compat[a, b]]
    # a group is compatible with another when both its first and last orbit are
    first = [g[0] for g in groups]
    last = [g[-1] for g in groups]
    rows = compat[first] & compat[last]
    return groups, rows[:, first] & rows[:, last]


def invariant_clique_search(
    n: int,
    target: int,
    budget: SearchBudget = SearchBudget(),
    *,
    on_improve: Optional[Callable[[int, int], None]] = None,
) -> SearchOutcome:
    """Search G*_n for a clique of given size invariant under coordinate rotation.

    The search space is unions of whole rotation orbits; each orbit whose
    internal pairs are all adjacent becomes a vertex weighted by its size,
    and the goal is a pairwise-compatible family with weights summing
    exactly to the target.  When the residue arithmetic forces exactly two
    constant vectors, the two adjacent constant pairs join as weight-2
    super-vertices instead of four singletons.  Ctrl-C, also while the orbit
    graph is being built, ends the search as BUDGET_EXHAUSTED with note
    "interrupted".  ``on_improve(size, nodes)`` is called whenever the
    incumbent grows; its size counts vectors (the orbit weights).  Guarded
    at dimension 8 like ``materialize``: the orbits cover all 4^n vectors.
    """
    if target < 1:
        raise ValueError("target must be positive")
    spec = KellerGraphSpec(n, GraphVariant.STAR)
    if n > MAX_MATERIALIZE_DIM:
        raise ValueError(
            f"cyclic-invariant search guarded at dim {MAX_MATERIALIZE_DIM}: "
            f"it enumerates all 4**{n} = {4**n} vectors"
        )
    search = _CliqueSearch(target, budget, on_improve)

    def build() -> Iterator[_Subproblem]:
        # runs inside search.run(), so that Ctrl-C here ends the search too
        admissible, compat = _orbit_compatibility(materialize(spec), cyclic_orbits(n))
        if not _weight_reachable([o.size for o in admissible], target):
            search.note = f"target {target} is not a sum of admissible orbit sizes"
            return
        groups, matrix = _orbit_groups(n, target, admissible, compat)
        adj, order = _relabel(matrix)
        vectors = [tuple(v.packed for i in groups[u] for v in admissible[i].orbit) for u in order]
        yield _Subproblem((), adj, vectors)

    return _search(spec, search, build())
