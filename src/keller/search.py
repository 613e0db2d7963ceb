"""Exact clique search on Keller graphs: where each part of the argument lives.

One weighted branch and bound over Python-int bitsets serves every search,
with deterministic node counts and witnesses.

* The engine, ``_CliqueSearch``, holds run state only and decides one target
  at a time; ``max_clique`` is a ladder of decisions (``maximize``).  Every
  clique it reaches goes through ``_visit``, the one place that counts nodes
  and updates the incumbent.
* A subproblem, ``_Subproblem``, extends a prefix clique within candidates
  relabeled into degeneracy order (``_relabel``) and yields each node's
  children (``children``, with the soundness argument): the color classes
  that its branching rule, ``_color_sort``, returns (the bound).  With unit
  weights the classes are re-colored (``_recolor``) and thinned
  (``_absorb``).
* Every subproblem is built by ``_cayley`` from a vertex-0 row and a table
  of candidate rows, gathered (``_gather``) and relabeled as packed rows in
  blocks of about ``_BLOCK_ELEMS`` pairs, so no dense matrix of pairs exists.
* A Keller-graph search runs one subproblem {0, r} per Stab(0) class
  (``_subproblems``, with the normal-form argument) and drops whole orbits
  near each root by an orbit key on packed vectors
  (``_prefix_stabilizer_key``, ``_swap_key``).
* The cyclic-invariant search (``invariant_clique_search``) is one
  subproblem on the weighted orbit compatibility graph of the coordinate
  shift (``_orbit_table``, ``_admissible``).
* Only packed vectors cross a subproblem's edge, bar the child bits the
  engine passes back to ``children``, and ``_search`` checks every witness
  with ``verify_clique``.
"""

from __future__ import annotations

import functools
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
    _BLOCK_ELEMS,
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
    """What a search certifies.  OPTIMAL: its clique is a maximum, one larger
    refuted.  TARGET_FOUND: its clique reaches the target.  TARGET_REFUTED:
    exhaustively, no clique reaches the target.  BUDGET_EXHAUSTED: a node or
    time limit, or Ctrl-C, stopped it; its clique is the largest it met."""

    OPTIMAL = "OPTIMAL"
    TARGET_FOUND = "TARGET_FOUND"
    TARGET_REFUTED = "TARGET_REFUTED"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


@dataclass(frozen=True)
class SearchOutcome:
    """A search's largest clique, checked by ``verify_clique``, and status.
    ``nodes_explored`` counts colorings of non-empty candidate sets, not
    leaves.  ``note`` is None, "interrupted" (Ctrl-C) or "target … is not a
    sum of admissible orbit sizes" (a cyclic-invariant search ran no node)."""

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


# A subproblem with an orbit key (every Stab(0) one) drops whole key classes
# at its nodes down to this depth below its root (depth 0), single positions
# deeper; one without a key drops single positions at every depth.  With
# Re-NUMBER and absorption, G*_5 decide 29 takes 5 040 521 nodes with depth
# 1, 4 611 359 with 2 and 4 566 449 with 3: a third keyed level saves only 1%
# of the nodes.
_ORBIT_DEPTH = 2


# Row v of this table is the 8 bits of the byte v, lowest first: a take of it
# on a packed row unpacks the row into a preallocated buffer.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")


def _unpacked(rows: np.ndarray, count: int) -> np.ndarray:
    """Packed rows as 0/1 bytes: column j is bit j of each row (``bitorder="little"``)."""
    return np.unpackbits(rows, axis=-1, count=count, bitorder="little")


def _relabel(rows: np.ndarray) -> tuple[list[int], list[int]]:
    """Degeneracy order and the bitset rows in it; returns (bitsets, order).

    ``rows`` is a symmetric adjacency with a clear diagonal, one packed row
    per vertex: bit j of row i (``bitorder="little"``) is set iff i ~ j.
    ``order`` is the repeated removal of a minimum-degree vertex, smallest
    index on ties (``argmin`` returns the first minimum); a removed vertex's
    degree is pinned above every live one.  Position p names vertex
    ``order[p]``, and bit q of ``bitsets[p]`` is set iff order[p] ~
    order[q]: the last vertex removed is the top bit, so a bitset's highest
    set bit is its next vertex in descending degeneracy order.  Degrees are
    counted, and rows permuted and repacked, in blocks of about _BLOCK_ELEMS
    entries; the removal loop unpacks one row at a time into one buffer.  So
    the only full-size array is ``rows``, one bit per pair.
    """
    nverts = len(rows)
    step = max(1, _BLOCK_ELEMS // max(1, nverts))
    # int32 halves the bytes argmin scans; a degree is below nverts
    deg = np.empty(nverts, dtype=np.int32)
    for start in range(0, nverts, step):
        deg[start : start + step] = _unpacked(rows[start : start + step], nverts).sum(axis=1)
    removed = np.iinfo(np.int32).max
    order = np.empty(nverts, dtype=np.intp)
    buf = np.empty((rows.shape[1], 8), dtype=np.uint8)
    row = buf.reshape(-1)[:nverts]
    for i in range(nverts):
        v = int(np.argmin(deg))
        order[i] = v
        np.take(_BYTE_BITS, rows[v], axis=0, out=buf, mode="clip")  # clip: an unbuffered take
        deg -= row
        deg[v] = removed
    bitsets: list[int] = []
    for start in range(0, nverts, step):
        # take(order, axis=1) is faster than [:, order]
        block = _unpacked(rows[order[start : start + step]], nverts).take(order, axis=1)
        packed = np.packbits(block, axis=1, bitorder="little")
        bitsets.extend(int.from_bytes(b.tobytes(), "little") for b in packed)
    return bitsets, order.tolist()


def _positions(mask: int) -> np.ndarray:
    """The set bits of a non-negative int, ascending."""
    bitmap = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(bitmap, bitorder="little"))


def _gather(row0: np.ndarray, table: np.ndarray) -> np.ndarray:
    """M[i, j] = AND over k of ``row0[table[i, 0] ^ table[j, k]]``, as packed rows.

    Square: one row and one column per row of ``table``, and bit j of row i
    (``bitorder="little"``) is M[i, j].  Each block of about _BLOCK_ELEMS
    entries is gathered as booleans and packed at once, so the result, one
    bit per entry, is the only full-size array.
    """
    rows, columns = table[:, 0], np.ascontiguousarray(table.T)
    out = np.empty((len(table), (len(table) + 7) // 8), dtype=np.uint8)
    step = max(1, _BLOCK_ELEMS // max(1, len(table)))
    for start in range(0, len(table), step):
        block = rows[start : start + step, None]
        matrix = row0[block ^ columns[0]]
        for c in columns[1:]:
            matrix &= row0[block ^ c]
        out[start : start + step] = np.packbits(matrix, axis=1, bitorder="little")
    return out


_Key = Callable[[np.ndarray, np.ndarray], np.ndarray]


class _Subproblem:
    """Extend the clique ``prefix`` (packed vectors) within a candidate set.

    Built from the candidates' relabeled adjacency, what ``_relabel``
    returns: the bitset rows ``adj`` and the candidates' degeneracy
    ``order``.  Every subproblem is built by ``_cayley``, which keeps only
    candidates adjacent to every prefix vector.  Candidate i adds to a
    clique the packed vectors ``vectors[i, :sizes[i]]``, and ``sizes[i]`` is
    its weight: a one-column table of Keller-graph vertices with unit sizes,
    or on the orbit graph one table row per orbit and the orbit sizes.  Both
    searches fix vectors only through the prefix: {0, r} for a Stab(0)
    class, and {0^n, 2^n} on the orbit graph when two constants are forced.

    ``key``, if given, is the subproblem's symmetry: ``key(clique, cand)``
    takes the packed vectors of the candidates added so far and of a set of
    candidates (column 0 of their rows of ``vectors``, for an orbit its
    lexicographic minimum) and returns one integer per candidate of cand.
    Its classes must be the orbits on cand of the clique's stabiliser in one
    group of automorphisms of the candidates' graph (weights included):
    equal keys mean one orbit of maps that fix the prefix and the clique.
    At the root, where the clique is empty, the key may use any larger
    group that it knows preserves the candidates.  Nodes down to depth
    ``keyed`` = ``_ORBIT_DEPTH`` then drop whole key classes
    (``children``).  None, as on the orbit graph, means no known symmetry,
    and ``keyed`` = -1.  ``_swap_key`` keys the Stab(0, r) orbits of a
    Cayley graph, joined at the root by x -> x ^ r.

    The subproblem keeps everything the search branches with, over positions
    in degeneracy removal order: ``adj``, the table ``vectors`` and the list
    ``weights`` (the sizes) per position, ``bits[p + 1]`` = 1 << p,
    ``nonadj[p + 1]`` the positions that are neither p nor its neighbours (a
    positive mask, so coloring never ANDs with a negative int, which makes
    CPython build a two's-complement temporary; both are indexed by
    ``bit_length()``, entry 0 unused), the weight levels ``light`` and
    ``heavy`` (per level above the lightest, heaviest first, the mask of its
    positions), and ``unit``, whether every weight is 1 (then nodes re-color
    and absorb, ``_recolor`` and ``_absorb``).  The orbit graph keeps the
    greedy classes: with unequal weights the sum of the classes' heaviest
    weights, not their number, must stay below the need, and with uniform
    weights above 1 re-coloring is sound but costs more than it prunes (on
    the n = 7 orbit graph from {0^7, 2^7}, all weights 7, it took the
    50 000-node run 3-4x the wall time).
    """

    def __init__(
        self,
        prefix: tuple[int, ...],
        adj: list[int],
        order: list[int],
        vectors: np.ndarray,
        sizes: np.ndarray,
        key: Optional[_Key] = None,
    ):
        self.prefix, self.adj, self.key = prefix, adj, key
        self.keyed = -1 if key is None else _ORBIT_DEPTH
        self.vectors = vectors[order]
        self.weights = sizes[order].tolist()
        self.bits = [0, *(1 << p for p in range(len(order)))]
        full = (1 << len(order)) - 1
        self.nonadj = [0, *(full ^ row ^ bit for row, bit in zip(self.adj, self.bits[1:]))]  # no self-loops
        levels = sorted(set(self.weights), reverse=True) or [1]
        self.light = levels[-1]
        self.heavy = [(w, sum(b for b, wp in zip(self.bits[1:], self.weights) if wp == w)) for w in levels[:-1]]
        self.unit = levels == [1]

    def _orbit_masks(self, rmask: int, cand: int) -> dict[int, int]:
        """Per position of cand, the positions of cand that share its key.

        The clique is rmask's positions; ``key`` gets the packed vectors of
        both, column 0 of their rows of ``vectors``.
        """
        positions = _positions(cand)
        key = self.key(self.vectors[_positions(rmask), 0], self.vectors[positions, 0]).tolist()
        members = positions.tolist()
        masks = dict.fromkeys(key, 0)
        for p, k in zip(members, key):
            masks[k] |= 1 << p
        return {p: masks[k] for p, k in zip(members, key)}

    def __len__(self) -> int:
        return len(self.adj)

    def clique_vectors(self, mask: int) -> list[int]:
        """The packed vectors of the prefix and of mask's positions."""
        out = list(self.prefix)
        for p in _positions(mask).tolist():
            out.extend(self.vectors[p, : self.weights[p]].tolist())
        return out

    def _color_sort(self, cand: int, need: int) -> list[int]:
        """The branching rule: the color classes of cand that a node needing
        ``need`` more weight branches, in coloring order.

        Classes are colored greedily from the top bit down; coloring q's top
        bit costs two big-int operations, ``q &= nonadj[i]`` and ``cls |=
        bits[i]`` at i = ``q.bit_length()``.  A class's bound is the sum of
        the maximum weights of it and every earlier class, k * ``light`` for
        the k-th class when ``heavy`` is empty.  A class whose bound falls
        short of the need (at least 1) is not branched: with no ``heavy``,
        the first (need - 1) // light.  The node branches the classes last
        first and drops each searched child from cand (``children``), so by
        the time it would reach such a class, what is left of cand lies in
        that class and the earlier ones; a clique there takes at most one
        vertex per class, so its weight is at most the bound.  Bounds only
        grow, so the short classes are a prefix, and a node whose every
        bound is short gets an empty list.  The need is fixed for the node,
        so testing the bound before each child instead would prune exactly
        these children.

        With unit weights and a short prefix that is neither empty nor
        every class, the prefix is re-colored (``_recolor``): a vertex of a
        later class moves into a short class where it has no neighbour, or
        where it has exactly one, q, that can move into another short class
        holding none of q's neighbours.  The short classes stay independent
        sets, so they still hold at most need - 1 vertices of any clique,
        and the classes returned only lose vertices and keep their bounds.
        Then vertices of the classes returned are absorbed (``_absorb``),
        each dropped with a pair of the short classes, Ci and Cj, that no
        other absorbed vertex uses: it has exactly one neighbour u in Ci,
        and u none of its neighbours in Cj.  A clique inside Ci, Cj and the
        vertex has at most 2 vertices, since one through the vertex takes
        at most u from Ci and then nothing from Cj.  The pairs are disjoint
        and every other short class gives at most 1 vertex, so what the
        node leaves unbranched, the short classes and the absorbed
        vertices, holds at most need - 1 vertices of any clique, whichever
        vertices it branches and in whichever order.  Orbit drops only
        remove vertices, which keeps this.
        """
        nonadj, bits, light, heavy = self.nonadj, self.bits, self.light, self.heavy
        classes: list[int] = []
        while cand:
            q = cand
            cls = 0
            while q:
                p = q.bit_length()
                q &= nonadj[p]
                cls |= bits[p]
            cand ^= cls
            classes.append(cls)
        if heavy:
            bound = short = 0
            for cls in classes:
                weight = light
                for level, members in heavy:
                    if cls & members:
                        weight = level
                        break
                bound += weight
                if bound >= need:
                    break
                short += 1
        else:
            short = min(len(classes), (need - 1) // light)
        if self.unit and 0 < short < len(classes):
            classes = _absorb(self.adj, _recolor(self.adj, classes, short), short)
        return classes[short:]

    def children(self, rmask: int, rsize: int, cand: int, target: int) -> Iterator[tuple[int, int, int]]:
        """The children of the node whose clique is rmask, of size rsize, within cand.

        Yields ``(bit, size, rest)`` per child the node enters: the child's
        position as a bit, its clique's size and its candidates.  The
        children are the positions of the classes ``_color_sort`` returns
        for the need ``target - rsize``, last class first and within a
        class the lowest position first, each class masked with what is
        left of cand; a position that would overshoot the target is
        skipped.  Every position walked is then dropped from cand, once the
        caller has searched its child.  A node down to depth ``keyed``
        below the subproblem's root (-1 without a key), its depth the size
        of its clique rmask, drops p's whole orbit, the key class of p
        (``_orbit_masks``); deeper nodes drop p's bit.  So once p is
        searched no later child is in p's orbit under the key's group at
        the node.  The table is chosen before the first drop, while cand is
        whole.

        Sound, by induction on depth, for a key as the class docstring
        requires: the cand of a node that drops orbits is a union of orbits
        of its group.
        At the root cand is all positions, which the root's group preserves
        (for a Stab(0) subproblem, Stab(0, r) and x -> x ^ r).  A child's
        cand is its parent's, less whole orbits of the parent's group,
        which contains the child's, and cut to the neighbours of the
        child's vertex, which the child's group fixes.  So cand stays a
        union of orbits and the XOR removes exactly p's orbit (a mask ANDed
        with cand loses nothing).  Let p be the first searched child whose
        orbit a clique extending the node's meets.  An element of the
        node's group maps the member there onto p, and the clique onto one
        through p that meets no earlier child's orbit, so one inside cand
        as it was when p was searched.  A clique that meets no searched
        orbit lies in what is left of cand once every class returned is
        walked, which by ``_color_sort`` holds no clique that reaches the
        target: removal only loosens the bounds.
        """
        classes = self._color_sort(cand, target - rsize)
        if not any(classes):
            return  # no child (dead on entry, or every branched vertex absorbed): key no orbits
        orbits = None if rmask.bit_count() > self.keyed else self._orbit_masks(rmask, cand)
        adj, weights = self.adj, self.weights
        for cls in reversed(classes):
            cls &= cand
            while cls:
                bit = cls & -cls
                p = bit.bit_length() - 1
                size = rsize + weights[p]
                if size <= target:
                    yield bit, size, cand & adj[p]
                cand ^= bit if orbits is None else orbits[p]
                cls &= cand


def _cayley(
    row0: np.ndarray, prefix: tuple[int, ...], table: np.ndarray, sizes: np.ndarray, key: Optional[_Key] = None
) -> _Subproblem:
    """The subproblem extending ``prefix`` within the rows of ``table`` on a Cayley graph.

    u ~ v iff row0[u ^ v], and ``table`` is a one-column table of vertices
    or rows of an ``_orbit_table`` of an automorphism of the graph.  The
    rows kept, in table order, are those whose every entry is adjacent to
    every prefix vector.  Two rows are adjacent iff every cross pair is; the
    automorphism maps A's representative onto each member of A and B onto
    itself, so that holds iff A's representative is adjacent to every entry
    of B's row: one ``_gather`` row per orbit.  The gathered packed rows are
    freed once ``_relabel`` returns, before ``_Subproblem`` builds its masks.
    """
    # every entry against every prefix vector; with no prefix, every row
    keep = row0[table[:, :, None] ^ np.array(prefix, dtype=np.intp)].all(axis=(1, 2))
    table, sizes = table[keep], sizes[keep]
    return _Subproblem(prefix, *_relabel(_gather(row0, table)), table, sizes, key)


def _stabilizer_classes(spec: KellerGraphSpec, row0: np.ndarray) -> list[np.ndarray]:
    """N(0) split by (count of digit 0, count of digit 2), largest class first.

    The automorphisms fixing vector 0 are the coordinate permutations times
    x -> -x on any set of coordinates; these classes are their orbits on
    N(0) (row0 is vertex 0's boolean adjacency row), the prefix (0,) case of
    ``_prefix_stabilizer_key``.  Each class is sorted; ties in size keep the
    ascending order of the key, which is that of (count of 0, count of 2).
    """
    nbrs = np.flatnonzero(row0)
    key = _prefix_stabilizer_key((0,), nbrs, spec.dim)
    # sorted(set(...)), not np.unique: under numpy 2 its first call imports numpy.ma
    classes = [nbrs[key == k] for k in sorted(set(key.tolist()))]
    classes.sort(key=len, reverse=True)
    return classes


# Per digit value, the power of its class's base that counts it in the key:
# the count of 0 is the most significant, then those of 2, 1 and 3.
_COUNT_POWER = (3, 1, 2, 0)


def _prefix_stabilizer_key(prefix: Sequence[int], vectors: np.ndarray, n: int) -> np.ndarray:
    """A key on vectors whose classes are the orbits of the stabiliser of a prefix.

    ``prefix`` and ``vectors`` are packed vectors of dimension n: the prefix
    holds vector 0 and the clique vectors to fix, and the key is taken on
    each of ``vectors``.  Its classes are the orbits of the automorphisms
    fixing 0 and each prefix vector.  An automorphism fixing 0 moves each
    coordinate i to pi(i) and multiplies it by a sign s_i = +-1 there
    (x -> -x swaps 1 and 3); it fixes a vector u iff u_pi(i) = s_i * u_i
    (mod 4) for every i.  So pi keeps each class of coordinates whose prefix
    columns agree up to negation.  On a class whose columns are all even the
    sign is free, and a vector's digits there are permuted and negated
    freely, which keeps its counts of 0, of 2 and of odd digits.  On a class
    with an odd digit, column i is sigma_i = +-1 times the class's
    representative column and the sign is forced, s_i = sigma_pi(i) *
    sigma_i; the values sigma_i * v_i are permuted, which keeps the count of
    each.  Any two vectors with equal counts on every class are one orbit.
    The key holds each count as a digit in base (class size + 1), so it is
    below 2^(4n); on the prefix (0,) it ascends with (count of 0, count of 2).
    """
    classes: dict[tuple[int, ...], list[tuple[int, bool]]] = {}
    for i, column in enumerate(zip(*_digit_columns(np.array(prefix, dtype=np.intp), n).tolist())):
        negated = tuple(-x & 3 for x in column)
        classes.setdefault(min(column, negated), []).append((i, negated < column))
    weight = [[0] * 4 for _ in range(n)]
    offset = 1
    for rep, coords in classes.items():
        base = len(coords) + 1
        even = not any(x & 1 for x in rep)
        for i, flipped in coords:
            # per digit, the value whose count is kept: sigma_i * v_i, or on
            # an all-even class the digit with 3 folded onto 1
            values = (0, 1, 2, 1) if even else (0, 3, 2, 1) if flipped else (0, 1, 2, 3)
            weight[i] = [offset * base ** _COUNT_POWER[v] for v in values]
        offset *= base**4
    return np.array(weight, dtype=np.int64)[np.arange(n), _digit_columns(vectors, n)].sum(axis=1)


def _swap_key(n: int, r: int, clique: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The orbit key of a Stab(0) subproblem extending {0, r} in dimension n.

    It is ``_prefix_stabilizer_key`` on the candidates' packed vectors,
    fixing 0, r and the clique's; at the root, where the clique is empty, it
    is the smaller of the keys of v and v ^ r, so its classes are the orbits
    of the group Stab(0, r) and the swap x -> x ^ r generate.
    """
    out = _prefix_stabilizer_key((0, r, *clique), cand, n)
    if not len(clique):
        out = np.minimum(out, _prefix_stabilizer_key((0, r), cand ^ r, n))
    return out


def _subproblems(g: MaterializedGraph) -> Iterator[Callable[[], _Subproblem]]:
    """One subproblem per Stab(0) class of N(0), each yielded as its builder.

    Subproblem i extends {0, r}, r the representative of class i, inside
    the Cayley graph of the classes from i on: its candidates are the v
    with v and v ^ r in class i or a later one, and its edges the pairs
    whose difference lies there.  Every clique has such a normal form: let
    u ^ w be a pairwise difference of the clique in the earliest class i.
    Translating by u maps u to 0, and an element of Stab(0) then maps u ^ w
    onto r.  Both are linear over XOR (Stab(0) permutes coordinates and
    negates some, and x -> -x is x ^ ((x & 1) << 1) per digit), so they map
    differences onto differences, and Stab(0) keeps each class: the image
    contains {0, r} and all its differences lie in classes i and later.
    On a Cayley graph x -> x ^ r is an automorphism, and it swaps 0 and r.
    A builder is ``_cayley`` on that Cayley graph's vertex-0 row, over one
    table of every vertex that all builders share, so the candidates are
    found, gathered and relabeled only when it is called.
    """
    vecs = np.arange(g.num_vertices)[:, None]
    ones = np.ones(g.num_vertices, dtype=np.intp)
    classes = _stabilizer_classes(g.spec, g.row0)
    if not classes:
        yield functools.partial(_cayley, g.row0, (0,), vecs, ones)
        return
    class_of = np.full(g.num_vertices, -1, dtype=np.intp)
    for i, members in enumerate(classes):
        class_of[members] = i
    for i, members in enumerate(classes):
        r = int(members[0])
        key = functools.partial(_swap_key, g.spec.dim, r)
        yield functools.partial(_cayley, class_of >= i, (0, r), vecs, ones, key)


def _recolor(adj: Sequence[int], classes: list[int], keep: int) -> list[int]:
    """Re-NUMBER: move vertices of the classes from ``keep`` on into the first keep.

    Re-NUMBER is Tomita et al.'s (WALCOM 2010), in the bitset form of San
    Segundo et al.'s BBMCR (Optim. Lett. 2013), of the BBMC family whose
    bitset branch and bound this module follows.

    Each vertex p of a later class, classes in ascending order and each from
    its top bit down, moves into the first of the first keep classes where
    it has no neighbour, or where it has exactly one, q, that can move into
    another of them holding none of q's neighbours: then q moves there and
    p takes its place.  Every class stays an independent set, and a later
    class only loses vertices.
    """
    low = classes[:keep]
    out = []
    for cls in classes[keep:]:
        rest = cls
        while rest:
            p = rest.bit_length() - 1
            bit = 1 << p
            rest ^= bit
            row = adj[p]
            for c, members in enumerate(low):
                x = row & members
                if x & (x - 1):
                    continue  # two or more neighbours in this class
                if x:
                    qrow = adj[x.bit_length() - 1]
                    for c2, other in enumerate(low):
                        if c2 != c and not qrow & other:
                            low[c2] = other | x
                            members ^= x
                            break
                    else:
                        continue
                low[c] = members | bit
                cls ^= bit
                break
        out.append(cls)
    return low + out


def _absorb(adj: Sequence[int], classes: list[int], keep: int) -> list[int]:
    """Drop vertices of the classes from ``keep`` on, each absorbed by a pair of the first keep.

    Each vertex p of a later class, in ``_recolor``'s order, is dropped if
    two of the first keep classes that no earlier drop used, Ci and Cj,
    hold exactly one neighbour u of p in Ci and no neighbour of u among
    p's neighbours in Cj; the first such pair found is then used.  A
    clique inside Ci, Cj and p has at most 2 vertices.  The first keep
    classes do not change, and the walk stops once fewer than two unused
    ones remain.  This is the infra-chromatic idea of San Segundo, Nikolaev
    and Batsyn (Comput. Oper. Res. 2015): a few classes and one more vertex
    that together hold no larger clique, which Li and Quan (AAAI 2010) read
    as the inconsistent subsets of a MaxSAT encoding.
    """
    out = classes[:]
    free = classes[:keep]
    for k in range(keep, len(classes)):
        rest = classes[k]
        while rest and len(free) > 1:
            p = rest.bit_length() - 1
            rest ^= 1 << p
            row = adj[p]
            for i, u in enumerate([row & c for c in free]):
                if not u or u & (u - 1):
                    continue  # not exactly one neighbour in this class
                common = row & adj[u.bit_length() - 1]
                for j, c in enumerate(free):
                    if j != i and not common & c:
                        out[k] ^= 1 << p
                        del free[max(i, j)], free[min(i, j)]
                        break
                else:
                    continue
                break
    return out


class _CliqueSearch:
    """Weighted B&B over subproblems that decides one target at a time.

    The engine holds run state only: the budget and callbacks, the target,
    the node counter, the incumbent ``best`` (packed vectors, so it outlives
    its subproblem), and the subproblem being searched, ``sub``.  It only
    walks the subproblem's tree, and every clique it reaches, a subproblem's
    root, a node or a leaf, goes through ``_visit``: only there are nodes
    counted and the incumbent updated.  So it reads only ``prefix``,
    ``len``, ``children`` and ``clique_vectors`` of a subproblem.  A clique's
    size is its total weight.  ``run`` decides a target over a sequence of
    subproblems, and ``maximize`` runs decisions one past the incumbent
    until one is refuted.  Sizes (incumbent, target, ``on_improve``) count
    the subproblem's prefix, and one node counter, budget and incumbent span
    every subproblem and every run.
    """

    sub: _Subproblem

    def __init__(
        self,
        budget: SearchBudget,
        on_improve: Optional[Callable[[int, int], None]] = None,
        on_progress: Optional[Callable[[int, float], None]] = None,
    ):
        self.target = 1
        self.node_limit = budget.node_limit
        self.start = start = time.monotonic()
        self.deadline = start + budget.time_limit if budget.time_limit is not None else None
        self.on_improve = on_improve
        self.on_progress = on_progress
        # one flag, so a run with neither a deadline nor a heartbeat does no
        # extra work per node
        self.poll = self.deadline is not None or on_progress is not None
        self.best: list[int] = []
        self.best_size = 0
        self.nodes = 0
        self.note: Optional[str] = None

    def _poll(self) -> None:
        now = time.monotonic()
        if self.on_progress is not None and self.nodes % _PROGRESS_EVERY == 0:
            self.on_progress(self.nodes, self.nodes / max(now - self.start, 1e-9))
        if self.deadline is not None and now > self.deadline:
            raise _Exhausted

    def _improve(self, mask: int, size: int) -> None:
        self.best, self.best_size = self.sub.clique_vectors(mask), size
        if self.on_improve is not None:
            self.on_improve(size, self.nodes)
        if size >= self.target:
            raise _Found

    def _visit(self, rmask: int, rsize: int, cand: int) -> None:
        """The clique rmask of size rsize, extended within cand: a counted
        node that enters its children if cand is non-empty, else a leaf."""
        if cand:
            if self.node_limit is not None and self.nodes >= self.node_limit:
                raise _Exhausted
            self.nodes += 1
            if self.poll and (self.nodes & 1023) == 0:
                self._poll()
        if rsize > self.best_size:
            self._improve(rmask, rsize)
        if cand:
            for bit, size, rest in self.sub.children(rmask, rsize, cand, self.target):
                self._visit(rmask | bit, size, rest)

    def run(self, builders: Iterable[Callable[[], _Subproblem]], target: int) -> SearchStatus:
        """Decide target: build each subproblem in turn and visit its root,
        the prefix within every candidate (a leaf if there is none).

        Ctrl-C ends it like an exhausted budget, also while ``builders`` or
        a builder runs.  The time limit is also checked before each further
        build, so a run past its deadline builds no more, and one that
        finished its last subproblem is complete whatever the clock says.
        """
        self.target = target
        try:
            for i, build in enumerate(builders):
                if i and self.deadline is not None and time.monotonic() > self.deadline:
                    raise _Exhausted
                self.sub = sub = build()
                self._visit(0, len(sub.prefix), (1 << len(sub)) - 1)
        except _Found:
            return SearchStatus.TARGET_FOUND
        except _Exhausted:
            return SearchStatus.BUDGET_EXHAUSTED
        except KeyboardInterrupt:
            self.note = "interrupted"
            return SearchStatus.BUDGET_EXHAUSTED
        return SearchStatus.TARGET_REFUTED

    def maximize(self, builders: Iterable[Callable[[], _Subproblem]]) -> SearchStatus:
        """Decide one past the incumbent until a run is not found; refuted is OPTIMAL.

        Each subproblem, tables and all, is built at most once, so a
        deadline stops any run within 1024 nodes.  A run decides an exact
        total weight: only when every vertex weighs 1, as on Keller graphs,
        is the last incumbent a maximum.
        """
        builders = [functools.cache(build) for build in builders]
        status = SearchStatus.TARGET_FOUND
        while status is SearchStatus.TARGET_FOUND:
            status = self.run(builders, self.best_size + 1)
        return SearchStatus.OPTIMAL if status is SearchStatus.TARGET_REFUTED else status


def _search(spec: KellerGraphSpec, search: _CliqueSearch, status: SearchStatus) -> SearchOutcome:
    """The finished search's outcome, its incumbent a witness checked against spec."""
    clique = VectorSet._from_packed(spec.dim, search.best)
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
    """Largest clique of g; OPTIMAL k, a k-clique and a refuted k + 1, unless the budget runs out.

    ``on_improve(size, nodes)`` is called whenever the incumbent grows, and
    ``on_progress(nodes, nodes_per_second)`` every ``_PROGRESS_EVERY`` nodes.
    Ctrl-C ends the search as BUDGET_EXHAUSTED with note "interrupted",
    keeping the incumbent.
    """
    search = _CliqueSearch(budget, on_improve, on_progress)
    return _search(g.spec, search, search.maximize(_subproblems(g)))


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
    search = _CliqueSearch(budget, on_improve, on_progress)
    return _search(g.spec, search, search.run(_subproblems(g), size))


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
    A vector's lexicographic rank is its packed value with the coordinates
    reversed (coordinate 0 most significant), and the reversal is an
    involution, so the vector of rank k is the reversal of k.  The
    representative r is the member whose rank is not above that of any
    image a^k(r): one pass over all 4^n vectors per power of a marks the
    representatives in rank order, with no sort, and only their rows are
    walked.
    """
    n = a.dim
    identity = Automorphism.identity(n)
    reverse = Automorphism(tuple(range(n))[::-1], identity.label_maps)
    ranks = np.arange(4**n, dtype=np.intp)
    vecs = reverse._apply_packed(ranks)  # lexicographic
    minimal = np.ones(len(vecs), dtype=bool)
    power, period = a, 1
    while power != identity:
        minimal &= ranks <= reverse.compose(power)._apply_packed(vecs)
        power, period = a.compose(power), period + 1
    walk = [vecs[minimal]]
    while len(walk) < period:
        walk.append(a._apply_packed(walk[-1]))
    table = np.stack(walk, axis=1)
    return table, table.shape[1] // (table == table[:, :1]).sum(axis=1)


def cyclic_orbits(n: int) -> tuple[OrbitVertex, ...]:
    """Partition all 4^n vectors into coordinate-rotation orbits."""
    table, sizes = _orbit_table(_shift(n))
    return tuple(
        OrbitVertex(CubeVector(n, row[0]), frozenset(CubeVector(n, w) for w in row[:size]), size)
        for row, size in zip(table.tolist(), sizes.tolist())
    )


def _admissible(row0: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Indices of the orbits of ``table`` whose internal pairs are all adjacent.

    ``table`` is the ``_orbit_table`` of an automorphism of the graph with
    vertex-0 row row0, which maps an orbit's representative onto each of
    its members: the orbit is a clique iff the representative is adjacent
    to every other entry of its row.
    """
    reps = table[:, :1]
    return np.flatnonzero(((table == reps) | row0[table ^ reps]).all(axis=1))


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
    exactly to the target.  When the target forces exactly two constant
    vectors, the clique starts from the prefix {0^n, 2^n} (the comment at
    ``forced`` gives the reason).  Ctrl-C, also while the orbit graph is
    being built, ends the search as BUDGET_EXHAUSTED with note
    "interrupted".  ``on_improve(size, nodes)`` is called whenever the
    incumbent grows; its size counts vectors (the orbit weights and the
    prefix).  ``on_progress`` is as for ``max_clique``.  Guarded at
    dimension 8 like ``materialize``: the orbits cover all 4^n vectors.  The
    witness is checked to be a clique that the shift fixes.
    """
    if target < 1:
        raise ValueError("target must be positive")
    spec = KellerGraphSpec(n, GraphVariant.STAR)
    if n > MAX_MATERIALIZE_DIM:
        raise ValueError(
            f"cyclic-invariant search guarded at dim {MAX_MATERIALIZE_DIM}: "
            f"it enumerates all 4**{n} = {4**n} vectors"
        )
    search = _CliqueSearch(budget, on_improve, on_progress)
    shift = _shift(n)

    def builders() -> Iterator[Callable[[], _Subproblem]]:
        # search.run() draws from this generator, so that Ctrl-C here ends
        # the search too; an unreachable target yields no subproblem
        table, sizes = _orbit_table(shift)
        row0 = materialize(spec).row0
        keep = _admissible(row0, table)
        table, sizes = table[keep], sizes[keep]
        if not _weight_reachable(sizes.tolist(), target):
            search.note = f"target {target} is not a sum of admissible orbit sizes"
            return
        # When every other orbit has size n, target % n == 2 forces exactly
        # two of the four constants.  They are adjacent, {0^n, 2^n} or {1^n,
        # 3^n}, and the uniform label map x -> x + 1, an Automorphism
        # commuting with the shift, maps invariant cliques to invariant
        # cliques and {1^n, 3^n} onto {2^n, 0^n}: fix 0^n and 2^n.  The
        # orbits compatible with both exclude every constant, and only they
        # are gathered.
        forced = set(sizes[sizes > 1].tolist()) == {n} and target % n == 2
        prefix = (0, CubeVector.from_digits((2,) * n).packed) if forced else ()
        yield functools.partial(_cayley, row0, prefix, table, sizes)

    out = _search(spec, search, search.run(builders(), target))
    if out.best_clique.apply(shift) != out.best_clique:
        raise AssertionError("search returned a clique that the shift does not fix")
    return out
