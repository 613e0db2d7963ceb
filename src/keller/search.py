"""Exact clique search on Keller graphs.

Branch and bound over Python-int bitsets with a greedy-coloring upper bound,
in the style of the BBMC family: candidates are colored greedily in vertex
order, then branched highest color first, pruning when the current clique
plus the color bound cannot beat the incumbent (or reach the decision
target).  Vertices are relabeled once into descending degeneracy order
(reverse of the repeated-minimum-degree removal sequence, ties by index), so
search trees and node counts are reproducible.

On a genuine Keller graph the search is symmetry-broken.  Every translation
m -> m ^ c is an automorphism, so some optimal clique contains vertex 0; the
automorphisms fixing 0 (coordinate permutations times per-coordinate x -> -x)
split N(0) into classes keyed by the counts of digits 0 and 2, and each class
is one orbit.  So the search runs one subproblem per class, largest class
first: the clique starts as {0, r} for the class representative r (its
smallest vertex) and grows inside N(0) & N(r), minus the classes already
done.  One node counter, budget and incumbent span all subproblems.  Any
other adjacency (for instance an induced subgraph) is searched whole.  Node
counts and witness cliques therefore differ from versions without this
reduction.

The cyclic-invariant search looks for cliques closed under rotating the
coordinates.  Such a clique is a union of whole rotation orbits, so the
search runs on the orbit compatibility graph: one weighted vertex per orbit
whose internal pairs are all adjacent, an edge when every cross pair is
adjacent, and a target on the total weight.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    CubeVector,
    GraphVariant,
    KellerGraphSpec,
    MaterializedGraph,
    _adjacency_rows,
    _low_mask,
    has_edge,
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
    """Limits for a search run; unset fields mean unlimited.

    ``target_size`` turns an optimality run into an early-stopping one: the
    search ends with TARGET_FOUND as soon as a clique that large is seen.
    """

    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    target_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.target_size is not None and self.target_size < 1:
            raise ValueError("target_size must be positive")


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


def _degeneracy_removal_order(adjacency: Sequence[int]) -> list[int]:
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


def _relabel(adjacency: Sequence[int]) -> tuple[list[int], list[int]]:
    """Relabel into descending degeneracy order; returns (new_adj, new_to_old)."""
    new_to_old = list(reversed(_degeneracy_removal_order(adjacency)))
    old_to_new = [0] * len(new_to_old)
    for new, old in enumerate(new_to_old):
        old_to_new[old] = new
    new_adj = [0] * len(new_to_old)
    for new, old in enumerate(new_to_old):
        row = adjacency[old]
        acc = 0
        while row:
            lsb = row & -row
            acc |= 1 << old_to_new[lsb.bit_length() - 1]
            row ^= lsb
        new_adj[new] = acc
    return new_adj, new_to_old


def _row_bits(row: int, nverts: int) -> np.ndarray:
    """Bitset row as a boolean array of length nverts."""
    raw = np.frombuffer(row.to_bytes((nverts + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:nverts].astype(bool)


def _induced_rows(adjacency: Sequence[int], verts: np.ndarray) -> list[int]:
    """Bitset rows of the subgraph induced on verts, vertex i naming verts[i]."""
    nbytes = (len(adjacency) + 7) // 8
    raw = b"".join(adjacency[v].to_bytes(nbytes, "little") for v in verts.tolist())
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(verts), nbytes)
    sub = np.unpackbits(rows, axis=1, bitorder="little")[:, verts]
    packed = np.packbits(sub, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


@dataclass(frozen=True)
class _Subproblem:
    """Extend the clique ``prefix`` (original vertex ids) within a candidate set.

    ``adj`` is the relabeled subgraph induced on the candidates, all of them
    adjacent to every prefix vertex; ``new_to_old`` maps its labels back to
    original vertex ids.
    """

    prefix: tuple[int, ...]
    adj: list[int]
    new_to_old: list[int]


def _stabilizer_classes(spec: KellerGraphSpec, row0: int) -> list[np.ndarray]:
    """N(0) split by (count of digit 0, count of digit 2), largest class first.

    The automorphisms fixing vector 0 are the coordinate permutations times
    x -> -x on any set of coordinates; these classes are their orbits on
    N(0) (row0 is vertex 0's adjacency row).  Each class is sorted; ties in
    size keep the ascending order of the key.
    """
    n = spec.dim
    nbrs = np.flatnonzero(_row_bits(row0, spec.num_vertices))
    digits = (nbrs[:, None] >> (2 * np.arange(n))) & 3
    key = (digits == 0).sum(axis=1) * (n + 1) + (digits == 2).sum(axis=1)
    classes = [nbrs[key == k] for k in np.unique(key)]
    classes.sort(key=len, reverse=True)
    return classes


def _keller_subproblems(g: MaterializedGraph) -> Iterator[_Subproblem]:
    """One subproblem per Stab(0) class of N(0), built lazily.

    Requires g to be the Keller graph of g.spec: translations move any
    clique onto vertex 0, and Stab(0) then moves its member of the earliest
    class onto that class's representative.
    """
    adjacency = g.adjacency
    classes = _stabilizer_classes(g.spec, adjacency[0])
    if not classes:
        yield _Subproblem((0,), [], [])
        return
    allowed = _row_bits(adjacency[0], g.num_vertices)
    for members in classes:
        rep = int(members[0])
        verts = np.flatnonzero(allowed & _row_bits(adjacency[rep], g.num_vertices))
        adj, sub_to_vert = _relabel(_induced_rows(adjacency, verts))
        yield _Subproblem((0, rep), adj, [int(verts[i]) for i in sub_to_vert])
        allowed[members] = False


def _subproblems(g: MaterializedGraph) -> Iterator[_Subproblem]:
    """Symmetry-broken subproblems if g is its spec's Keller graph, else g whole.

    The check rebuilds the spec's rows one at a time and stops at the first
    row that differs.
    """
    rows = g.adjacency
    if len(rows) == g.spec.num_vertices and all(map(operator.eq, rows, _adjacency_rows(g.spec))):
        yield from _keller_subproblems(g)
    else:
        adj, new_to_old = _relabel(rows)
        yield _Subproblem((), adj, new_to_old)


class _CliqueSearch:
    """Unweighted B&B.  prune_floor > 0 switches to decision pruning.

    ``run`` searches a sequence of subproblems under one node counter,
    budget and incumbent; sizes (incumbent, target, ``on_improve``) count
    the subproblem's prefix.
    """

    def __init__(
        self,
        target: Optional[int],
        prune_floor: int,
        budget: SearchBudget,
        on_improve: Optional[Callable[[int, int], None]] = None,
    ):
        self.target = target
        self.prune_floor = prune_floor
        self.node_limit = budget.node_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit is not None else None
        )
        self.on_improve = on_improve
        self.adj: Sequence[int] = ()
        self.sub: Optional[_Subproblem] = None
        self.best: Optional[tuple[_Subproblem, int]] = None
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

    def _color_sort(self, cand: int) -> tuple[list[int], list[int]]:
        adj = self.adj
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        while cand:
            color += 1
            q = cand
            while q:
                lsb = q & -q
                v = lsb.bit_length() - 1
                q &= ~adj[v]
                q ^= lsb
                cand ^= lsb
                order.append(v)
                bounds.append(color)
        return order, bounds

    def _leaf(self, mask: int, size: int) -> None:
        if size > self.best_size:
            self.best, self.best_size = (self.sub, mask), size
            if self.on_improve is not None:
                self.on_improve(size, self.nodes)
            if self.target is not None and size >= self.target:
                raise _Found

    def _expand(self, rmask: int, rsize: int, cand: int) -> None:
        self._tick()
        order, bounds = self._color_sort(cand)
        threshold = max(self.best_size, self.prune_floor)
        for i in range(len(order) - 1, -1, -1):
            if rsize + bounds[i] <= threshold:
                return
            v = order[i]
            bit = 1 << v
            sub = cand & self.adj[v]
            if sub:
                self._expand(rmask | bit, rsize + 1, sub)
                threshold = max(self.best_size, self.prune_floor)
            else:
                self._leaf(rmask | bit, rsize + 1)
            cand ^= bit

    def run(self, subproblems: Iterable[_Subproblem]) -> SearchStatus:
        """Search every subproblem; Ctrl-C ends it like an exhausted budget."""
        try:
            for sub in subproblems:
                self.sub, self.adj = sub, sub.adj
                self._leaf(0, len(sub.prefix))
                if sub.adj:
                    self._expand(0, len(sub.prefix), (1 << len(sub.adj)) - 1)
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

    def best_vertices(self) -> list[int]:
        """Original vertex ids of the incumbent clique."""
        if self.best is None:
            return []
        sub, mask = self.best
        out = list(sub.prefix)
        while mask:
            lsb = mask & -mask
            out.append(sub.new_to_old[lsb.bit_length() - 1])
            mask ^= lsb
        return out


def _checked_outcome(
    clique: VectorSet,
    spec: KellerGraphSpec,
    status: SearchStatus,
    nodes: int,
    note: Optional[str] = None,
) -> SearchOutcome:
    report = verify_clique(clique, spec)
    if not report.is_clique:
        raise AssertionError(f"search returned a non-clique; missing pairs {report.pairs[:3]}")
    return SearchOutcome(clique, status, nodes, note)


def _search(
    g: MaterializedGraph,
    target: Optional[int],
    prune_floor: int,
    budget: SearchBudget,
    on_improve: Optional[Callable[[int, int], None]],
) -> SearchOutcome:
    search = _CliqueSearch(target, prune_floor, budget, on_improve)
    status = search.run(_subproblems(g))
    dim = g.spec.dim
    clique = VectorSet(dim, (CubeVector.from_index(dim, v) for v in search.best_vertices()))
    return _checked_outcome(clique, g.spec, status, search.nodes, search.note)


def max_clique(
    g: MaterializedGraph,
    budget: SearchBudget = SearchBudget(),
    *,
    on_improve: Optional[Callable[[int, int], None]] = None,
) -> SearchOutcome:
    """Largest clique of g; OPTIMAL unless the budget runs out first.

    With ``budget.target_size`` set, stops early once a clique that large is
    found (TARGET_FOUND).  ``on_improve(size, nodes)`` is called whenever the
    incumbent grows.  Ctrl-C ends the search as BUDGET_EXHAUSTED with note
    "interrupted", keeping the incumbent.
    """
    return _search(g, budget.target_size, 0, budget, on_improve)


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
    return _search(g, size, size - 1, budget, on_improve)


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


def _shift_digits(digits: tuple[int, ...]) -> tuple[int, ...]:
    return digits[1:] + digits[:1]


def cyclic_orbits(n: int) -> tuple[OrbitVertex, ...]:
    """Partition all 4^n vectors into coordinate-rotation orbits."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for digits in itertools.product(range(4), repeat=n):
        if digits in seen:
            continue
        orbit = []
        w = digits
        while w not in seen:
            seen.add(w)
            orbit.append(w)
            w = _shift_digits(w)
        rep = min(orbit)
        out.append(
            OrbitVertex(
                representative=CubeVector.from_digits(rep),
                orbit=frozenset(CubeVector.from_digits(d) for d in orbit),
                size=len(orbit),
            )
        )
    out.sort(key=lambda o: o.representative.digits)
    return tuple(out)


def _star_matrix(pa: np.ndarray, pb: np.ndarray, dim: int) -> np.ndarray:
    """STAR adjacency between every vector of pa and every vector of pb."""
    low = np.uint64(_low_mask(dim))
    one = np.uint64(1)
    x = pa[:, None] ^ pb[None, :]
    adj = ((x >> one) & ~x & low) != 0
    d = (x | (x >> one)) & low
    return adj & ((d & (d - one)) != 0)


def _orbit_compatibility(
    n: int, orbits: Sequence[OrbitVertex]
) -> tuple[list[OrbitVertex], np.ndarray]:
    """Filter internally-clique orbits and build their compatibility matrix.

    Orbit A is compatible with orbit B iff every cross pair is adjacent in
    G*_n; by shift-invariance that reduces to the representative of A
    against the first size(B) shifts of the representative of B.
    """
    spec = KellerGraphSpec(n, GraphVariant.STAR)

    def shifts(rep: CubeVector) -> list[CubeVector]:
        out = [rep]
        for _ in range(n - 1):
            out.append(CubeVector.from_digits(_shift_digits(out[-1].digits)))
        return out

    admissible = []
    for o in orbits:
        row = shifts(o.representative)
        if all(has_edge(spec, row[0], row[e]) for e in range(1, o.size)):
            admissible.append(o)
    if not admissible:
        return [], np.zeros((0, 0), dtype=bool)

    reps = np.fromiter(
        (o.representative.packed for o in admissible), dtype=np.uint64, count=len(admissible)
    )
    sizes = np.fromiter((o.size for o in admissible), dtype=np.int64, count=len(admissible))
    shifted = reps.copy()
    compat = np.ones((len(admissible), len(admissible)), dtype=bool)
    # column b needs edges for every shift e < size[b]
    for e in range(int(sizes.max())):
        if e:
            digs = ((shifted[:, None] >> (2 * np.arange(n, dtype=np.uint64))) & np.uint64(3))
            rolled = np.concatenate([digs[:, 1:], digs[:, :1]], axis=1)
            shifted = (rolled << (2 * np.arange(n, dtype=np.uint64))).sum(
                axis=1, dtype=np.uint64
            )
        needed = sizes > e
        compat[:, needed] &= _star_matrix(reps, shifted[needed], n)
    np.fill_diagonal(compat, False)
    return admissible, compat


def _weight_reachable(weights: Sequence[int], target: int) -> bool:
    reach = 1
    cap = (1 << (target + 1)) - 1
    for w in weights:
        if w <= target:
            reach |= (reach << w) & cap
        if (reach >> target) & 1:
            return True
    return (reach >> target) & 1 == 1


class _WeightedExactSearch:
    """B&B for a pairwise-compatible subset with weights summing to target."""

    def __init__(
        self,
        adj: Sequence[int],
        weights: Sequence[int],
        target: int,
        budget: SearchBudget,
    ):
        self.adj = adj
        self.weights = weights
        self.target = target
        self.node_limit = budget.node_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit is not None else None
        )
        self.found_mask: Optional[int] = None
        self.nodes = 0
        self.note: Optional[str] = None

    def _tick(self) -> None:
        if self.node_limit is not None and self.nodes >= self.node_limit:
            raise _Exhausted
        self.nodes += 1
        if (
            self.deadline is not None
            and (self.nodes & 255) == 0
            and time.monotonic() > self.deadline
        ):
            raise _Exhausted

    def _color_sort(self, cand: int) -> tuple[list[int], list[int]]:
        # bound = cumulative sum of per-color-class maximum weights
        adj = self.adj
        weights = self.weights
        order: list[int] = []
        bounds: list[int] = []
        cum = 0
        while cand:
            q = cand
            members = []
            wmax = 0
            while q:
                lsb = q & -q
                v = lsb.bit_length() - 1
                q &= ~adj[v]
                q ^= lsb
                members.append(v)
                if weights[v] > wmax:
                    wmax = weights[v]
            cum += wmax
            for v in members:
                cand &= ~(1 << v)
                order.append(v)
                bounds.append(cum)
        return order, bounds

    def _expand(self, rmask: int, rweight: int, cand: int) -> None:
        self._tick()
        if rweight == self.target:
            self.found_mask = rmask
            raise _Found
        order, bounds = self._color_sort(cand)
        for i in range(len(order) - 1, -1, -1):
            if rweight + bounds[i] < self.target:
                return
            v = order[i]
            bit = 1 << v
            if rweight + self.weights[v] <= self.target:
                self._expand(rmask | bit, rweight + self.weights[v], cand & self.adj[v])
            cand ^= bit

    def run(self) -> SearchStatus:
        """Search to the target; Ctrl-C ends it like an exhausted budget."""
        try:
            self._expand(0, 0, (1 << len(self.adj)) - 1)
        except _Found:
            return SearchStatus.TARGET_FOUND
        except _Exhausted:
            return SearchStatus.BUDGET_EXHAUSTED
        except KeyboardInterrupt:
            self.note = "interrupted"
            return SearchStatus.BUDGET_EXHAUSTED
        return SearchStatus.TARGET_REFUTED


def invariant_clique_search(
    n: int, target: int, budget: SearchBudget = SearchBudget()
) -> SearchOutcome:
    """Search G*_n for a clique of given size invariant under coordinate rotation.

    The search space is unions of whole rotation orbits; each orbit whose
    internal pairs are all adjacent becomes a vertex weighted by its size,
    and the goal is a pairwise-compatible family with weights summing
    exactly to the target.  When the residue arithmetic forces exactly two
    constant vectors, the two adjacent constant pairs join as weight-2
    super-vertices instead of four singletons.
    """
    if target < 1:
        raise ValueError("target must be positive")
    spec = KellerGraphSpec(n, GraphVariant.STAR)
    empty = VectorSet(n, ())

    admissible, compat = _orbit_compatibility(n, cyclic_orbits(n))
    weights = [o.size for o in admissible]
    if not _weight_reachable(weights, target):
        return SearchOutcome(
            empty,
            SearchStatus.TARGET_REFUTED,
            0,
            note=f"target {target} is not a sum of admissible orbit sizes",
        )

    groups: list[tuple[int, tuple[int, ...]]] = [(o.size, (i,)) for i, o in enumerate(admissible)]
    matrix = compat
    fixed = [i for i, o in enumerate(admissible) if o.size == 1]
    if fixed and n > 1:
        # counts of constants a solution can contain: residue of target modulo
        # the only other available orbit size
        other = sorted({o.size for o in admissible if o.size > 1})
        if other == [n]:
            feasible_counts = {
                f for f in range(len(fixed) + 1) if f <= target and (target - f) % n == 0
            }
            if feasible_counts == {2}:
                pairs = [(a, b) for a, b in itertools.combinations(fixed, 2) if compat[a, b]]
                big = [i for i, o in enumerate(admissible) if o.size > 1]
                groups = [(admissible[i].size, (i,)) for i in big]
                groups += [(2, pair) for pair in pairs]
                # block matrix: big-orbit rows, then one fused row per pair
                rows = [compat[i] for i in big] + [compat[a] & compat[b] for a, b in pairs]
                matrix = np.empty((len(groups), len(groups)), dtype=bool)
                for u, row in enumerate(rows):
                    matrix[u, : len(big)] = row[big]
                    for pj, (a, b) in enumerate(pairs):
                        matrix[u, len(big) + pj] = row[a] and row[b]
                np.fill_diagonal(matrix, False)

    adj_bits = [
        int.from_bytes(np.packbits(matrix[u], bitorder="little").tobytes(), "little")
        for u in range(len(groups))
    ]
    new_adj, new_to_old = _relabel(adj_bits)
    group_weights = [groups[old][0] for old in new_to_old]
    search = _WeightedExactSearch(new_adj, group_weights, target, budget)
    status = search.run()

    if status is SearchStatus.TARGET_FOUND and search.found_mask is not None:
        members: list[CubeVector] = []
        mask = search.found_mask
        while mask:
            lsb = mask & -mask
            _, idxs = groups[new_to_old[lsb.bit_length() - 1]]
            for i in idxs:
                members.extend(admissible[i].orbit)
            mask ^= lsb
        clique = VectorSet(n, members)
        return _checked_outcome(clique, spec, status, search.nodes)
    return SearchOutcome(empty, status, search.nodes, search.note)
