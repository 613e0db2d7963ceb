"""Cube vectors, vector sets, Keller graphs, and their automorphisms.

A cube class in a 4Z^n-periodic tiling by side-2 cubes is named by a vector
over {0,1,2,3}, one digit per coordinate.  Two graphs live on the 4^n such
vectors:

* ``G_n`` (PLAIN): edge iff some coordinate pair differs by exactly 2.
* ``G*_n`` (STAR): additionally the vectors differ in at least two
  coordinates.

A 2^n-vector set tiles the torus iff it is a clique in G_n, and does so with
no two cubes sharing a complete facet iff it is a clique in G*_n.

Vectors are stored packed, 2 bits per coordinate, coordinate 0 in the low
bits.  The packed value doubles as the canonical vertex index
``index(m) = sum_i m_i * 4**i``.  Many vectors form a numpy array of packed
values: uint64 up to 32 coordinates, Python ints (an object array) above.
A ``VectorSet`` is such an array, duplicate-free and in lexicographic order;
it is what the construction builds, the certifier checks and the files hold.
One edge test, on the packed xor of two vectors, serves a single pair and
whole arrays of either kind.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GraphVariant",
    "KellerGraphSpec",
    "CubeVector",
    "Automorphism",
    "VectorSet",
    "MaterializedGraph",
    "digit_gap",
    "has_edge",
    "materialize",
    "plain_degree",
    "star_degree",
    "DIHEDRAL_LABEL_MAPS",
    "MAX_MATERIALIZE_DIM",
]

# A materialized graph is one row of 4^n booleans, but the search's induced
# matrices and the DIMACS output grow as 16^n; beyond 8 use the implicit
# predicate.
MAX_MATERIALIZE_DIM = 8

# Arrays of pairs (``verify_clique``'s edge tests, the search's gathers and
# relabels) are built in row blocks of about _BLOCK_ELEMS pairs, which keeps
# the temporaries small (256 KiB per 8-byte array) and in cache while
# spreading the per-call overhead.
_BLOCK_ELEMS = 1 << 15


class GraphVariant(Enum):
    """PLAIN is G_n (tiling criterion), STAR is G*_n (facet-free criterion)."""

    PLAIN = "G"
    STAR = "Gstar"


@dataclass(frozen=True)
class KellerGraphSpec:
    """A Keller graph: dimension plus variant. Vertices are all 4^dim vectors."""

    dim: int
    variant: GraphVariant

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not isinstance(self.variant, GraphVariant):
            raise TypeError(f"variant must be a GraphVariant, got {self.variant!r}")

    @property
    def num_vertices(self) -> int:
        return 4**self.dim


def digit_gap(a: int, b: int) -> int:
    """Absolute difference of two digits on representatives 0..3.

    The gap is 2 exactly for the pairs {0,2} and {1,3}; no mod-4 reduction
    is applied (|0-3| is 3, not 1).
    """
    return abs(a - b)


def _low_mask(dim: int) -> int:
    # bit 0 of every 2-bit coordinate field: 0b...010101
    return (4**dim - 1) // 3


def _packed_dtype(dim: int) -> np.dtype:
    """uint64 holds 32 two-bit coordinates; larger vectors stay Python ints."""
    return np.dtype(np.uint64) if dim <= 32 else np.dtype(object)


def _digit_columns(packed: np.ndarray, dim: int) -> np.ndarray:
    """The digits of packed vectors as a (len, dim) uint8 array, coordinate j in column j."""
    if not len(packed):  # no per-coordinate array, whatever the dimension
        return np.zeros((0, dim), dtype=np.uint8)
    return np.stack([(packed >> (2 * j)) & 3 for j in range(dim)], axis=-1).astype(np.uint8)


def _pack_digits(digits: Sequence[int]) -> int:
    packed = 0
    for i, d in enumerate(digits):
        if not 0 <= d <= 3:
            raise ValueError(f"digit out of range at coordinate {i}: {d}")
        packed |= d << (2 * i)
    return packed


@dataclass(frozen=True)
class CubeVector:
    """An n-tuple over {0,1,2,3}, stored packed (2 bits per coordinate).

    Equality and hashing use the packed form.  ``packed`` equals the
    little-endian base-4 vertex index of the vector.
    """

    dim: int
    packed: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not 0 <= self.packed < (1 << (2 * self.dim)):
            raise ValueError(f"packed value {self.packed} out of range for dim {self.dim}")

    @classmethod
    def from_digits(cls, digits: Iterable[int]) -> "CubeVector":
        ds = tuple(digits)
        return cls(len(ds), _pack_digits(ds))

    @classmethod
    def from_string(cls, s: str) -> "CubeVector":
        """Parse a contiguous digit string such as ``"0213"``."""
        if not s or any(c not in "0123" for c in s):
            raise ValueError(f"not a cube vector string: {s!r}")
        return cls.from_digits(int(c) for c in s)

    @classmethod
    def from_index(cls, dim: int, index: int) -> "CubeVector":
        return cls(dim, index)

    @property
    def index(self) -> int:
        """Vertex index: sum of digit_i * 4**i over coordinates."""
        return self.packed

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple((self.packed >> (2 * i)) & 3 for i in range(self.dim))

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return (self.packed >> (2 * i)) & 3

    def __len__(self) -> int:
        return self.dim

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits)

    def __repr__(self) -> str:
        return f"CubeVector({self})"


def _edge(x, dim: int, star: bool):
    """The STAR/PLAIN edge test on the packed xor ``x`` of two vectors.

    ``x`` is a Python int, a uint64 array or an object array of Python ints
    (never a numpy scalar: numpy < 2 turns a uint64 scalar mixed with a
    Python int into float64).  A 2-bit field equals 0b10 iff the digit pair
    is {0,2} or {1,3} (gap 2); any nonzero field marks a differing
    coordinate.  Returns a bool, or a bool array of the shape of ``x``.
    """
    low = _low_mask(dim)
    adj = (x >> 1) & ~x & low != 0
    if star:
        d = (x | (x >> 1)) & low
        adj = adj & (d & (d - 1) != 0)
    return adj


def has_edge(spec: KellerGraphSpec, m: CubeVector, m2: CubeVector) -> bool:
    """Edge predicate for G_n / G*_n.

    PLAIN: some coordinate with digit gap exactly 2.  STAR: additionally at
    least two coordinates differ.  Irreflexive and symmetric.
    """
    if m.dim != spec.dim or m2.dim != spec.dim:
        raise ValueError(
            f"dimension mismatch: spec dim {spec.dim}, vectors {m.dim} and {m2.dim}"
        )
    return _edge(m.packed ^ m2.packed, spec.dim, spec.variant is GraphVariant.STAR)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def _dihedral_label_maps() -> tuple[tuple[int, int, int, int], ...]:
    # symmetries of the 4-cycle 0-1-2-3-0: x -> s*x + c (mod 4), s in {1,3}
    maps = []
    for s in (1, 3):
        for c in range(4):
            maps.append(tuple((s * x + c) % 4 for x in range(4)))
    return tuple(sorted(maps))


#: The 8 digit permutations usable per coordinate: the group generated by the
#: rotation (0123) and the reflection (13).  Each preserves the pair
#: partition {{0,2},{1,3}}, so edge relations are preserved coordinatewise.
DIHEDRAL_LABEL_MAPS = _dihedral_label_maps()

_IDENTITY_MAP = (0, 1, 2, 3)


@dataclass(frozen=True)
class Automorphism:
    """A Keller-graph automorphism: permute coordinates, then relabel digits.

    ``coord_perm[src] = dest`` gives the coordinate permutation;
    ``label_maps[dest]`` is the digit permutation applied at destination
    coordinate ``dest``.  Applied to a vector m, coordinate j of the image is
    ``label_maps[j][m[coord_perm^-1(j)]]``.  This composition order (move the
    coordinate, then relabel at its new position) is fixed everywhere.
    """

    coord_perm: tuple[int, ...]
    label_maps: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.coord_perm)
        # element by element: list(range(n)) would build n more ints
        if any(map(operator.ne, sorted(self.coord_perm), range(n))):
            raise ValueError(f"not a coordinate permutation: {self.coord_perm}")
        if len(self.label_maps) != n:
            raise ValueError("need one label map per coordinate")
        for j, lm in enumerate(self.label_maps):
            if lm not in DIHEDRAL_LABEL_MAPS:
                raise ValueError(
                    f"label map at coordinate {j} is not a 4-cycle symmetry: {lm}"
                )

    @property
    def dim(self) -> int:
        return len(self.coord_perm)

    @classmethod
    def identity(cls, dim: int) -> "Automorphism":
        return cls(tuple(range(dim)), (_IDENTITY_MAP,) * dim)

    @classmethod
    def rotation(cls, dim: int, coord: int, steps: int = 1) -> "Automorphism":
        """Relabel one coordinate by x -> x + steps (mod 4), e.g. 0->1->2->3->0."""
        if not 0 <= coord < dim:
            raise ValueError(f"coordinate {coord} out of range for dim {dim}")
        lm = tuple((x + steps) % 4 for x in range(4))
        maps = [_IDENTITY_MAP] * dim
        maps[coord] = lm
        return cls(tuple(range(dim)), tuple(maps))

    def _src_of_dest(self) -> tuple[int, ...]:
        inv = [0] * self.dim
        for src, dest in enumerate(self.coord_perm):
            inv[dest] = src
        return tuple(inv)

    def apply(self, m: CubeVector) -> CubeVector:
        if m.dim != self.dim:
            raise ValueError(f"dimension mismatch: automorphism {self.dim}, vector {m.dim}")
        return CubeVector(self.dim, self._apply_packed(m.packed))

    def _apply_packed(self, x):
        """Image of packed vectors: a Python int, a uint64 array or an object array.

        Each label map is x -> s*x + c (mod 4), so every digit is relabeled
        arithmetically as it moves to its destination coordinate.  An empty
        array is returned at once, without a pass over the coordinates.
        """
        out = x & 0
        if isinstance(out, np.ndarray) and not out.size:
            return out
        for j, (src, lm) in enumerate(zip(self._src_of_dest(), self.label_maps)):
            s, c = (lm[1] - lm[0]) & 3, lm[0]
            out = out | ((((x >> (2 * src)) & 3) * s + c) & 3) << (2 * j)
        return out

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Return self after other: (self.compose(other)).apply(m) == self.apply(other.apply(m))."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in composition")
        src = self._src_of_dest()
        perm = tuple(self.coord_perm[other.coord_perm[i]] for i in range(self.dim))
        maps = tuple(
            tuple(self.label_maps[k][other.label_maps[src[k]][x]] for x in range(4))
            for k in range(self.dim)
        )
        return Automorphism(perm, maps)

    def inverse(self) -> "Automorphism":
        inv_perm = self._src_of_dest()
        maps = [None] * self.dim  # type: ignore[list-item]
        for i in range(self.dim):
            lm = self.label_maps[self.coord_perm[i]]
            inv_lm = [0] * 4
            for x in range(4):
                inv_lm[lm[x]] = x
            maps[i] = tuple(inv_lm)
        return Automorphism(tuple(inv_perm), tuple(maps))


# ---------------------------------------------------------------------------
# Vector sets
# ---------------------------------------------------------------------------

class VectorSet:
    """A duplicate-free set of equal-dimension cube vectors.

    ``packed`` holds the members' packed values, read-only, sorted
    lexicographically by digit sequence: uint64 up to dimension 32, Python
    ints above.  ``members`` and iteration build the CubeVector objects on
    demand.  Equality is set equality.
    """

    __slots__ = ("dim", "packed")

    def __init__(self, dim: int, members: Iterable[CubeVector]):
        values = []
        for v in members:
            if v.dim != dim:
                raise ValueError(f"vector {v} has dim {v.dim}, expected {dim}")
            values.append(v.packed)
        self._assign(dim, values)

    @classmethod
    def _from_packed(cls, dim: int, values) -> "VectorSet":
        """The set of packed values (Python ints or an array) of dimension dim."""
        s = cls.__new__(cls)
        s._assign(dim, values)
        return s

    def _assign(self, dim: int, values) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        packed = np.array(values, dtype=_packed_dtype(dim))
        if len(packed) > 1:  # lexsort takes one key per coordinate, even for no vectors
            packed = packed[np.lexsort(_digit_columns(packed, dim).T[::-1])]  # coordinate 0 first
        dup = np.flatnonzero(packed[1:] == packed[:-1])
        if dup.size:
            raise ValueError(f"duplicate vector {CubeVector(dim, int(packed[dup[0]]))}")
        packed.flags.writeable = False
        self.dim = dim
        self.packed = packed

    @classmethod
    def from_strings(cls, dim: int, strings: Iterable[str]) -> "VectorSet":
        return cls(dim, (CubeVector.from_string(s) for s in strings))

    @property
    def members(self) -> tuple[CubeVector, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[CubeVector]:
        return (CubeVector(self.dim, p) for p in self.packed.tolist())

    def __contains__(self, v: object) -> bool:
        if not isinstance(v, CubeVector) or v.dim != self.dim:
            return False
        return bool((self.packed == v.packed).any())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorSet):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.packed, other.packed)

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.packed.tolist())))

    def __repr__(self) -> str:
        return f"VectorSet(dim={self.dim}, count={len(self)})"

    def apply(self, a: Automorphism) -> "VectorSet":
        if a.dim != self.dim:
            raise ValueError(f"dimension mismatch: automorphism {a.dim}, set {self.dim}")
        return VectorSet._from_packed(self.dim, a._apply_packed(self.packed))


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterializedGraph:
    """A Keller graph as the adjacency row of vertex 0, computed from its spec.

    Vertex i is the vector with index i (little-endian base 4).  Every
    translation m -> m ^ c is an automorphism, so {u, v} is an edge iff
    ``row0[u ^ v]``: the read-only boolean row N(0) is the whole graph.  No
    other adjacency can be passed in, so equality and hashing follow
    ``spec``.
    """

    spec: KellerGraphSpec
    row0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        row0 = _edge(self._vecs(), self.spec.dim, self.spec.variant is GraphVariant.STAR)
        row0.flags.writeable = False
        object.__setattr__(self, "row0", row0)

    @property
    def num_vertices(self) -> int:
        return len(self.row0)

    @property
    def num_edges(self) -> int:
        # vertex-transitive: every vertex has the degree of vertex 0
        return self.num_vertices * self.degree(0) // 2

    def _vecs(self) -> np.ndarray:
        return np.arange(self.spec.num_vertices, dtype=np.uint64)

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.row0[self._vecs() ^ v]))

    def has_edge_index(self, u: int, v: int) -> bool:
        return bool(self.row0[u ^ v])

    def vector(self, v: int) -> CubeVector:
        return CubeVector.from_index(self.spec.dim, v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u, higher in self._higher_neighbours():
            for v in higher.tolist():
                yield u, v

    def _higher_neighbours(self) -> Iterator[tuple[int, np.ndarray]]:
        """Each vertex u with its neighbours v > u, ascending: the edges() scan."""
        vecs = self._vecs()
        for u in range(self.num_vertices):
            yield u, u + 1 + np.flatnonzero(self.row0[vecs[u + 1 :] ^ u])


def materialize(spec: KellerGraphSpec) -> MaterializedGraph:
    """Build a Keller graph's vertex-0 row.

    Guarded at ``MAX_MATERIALIZE_DIM`` (8): the row itself is small, but the
    search's induced matrices and the DIMACS output grow as 16^n.  Use the
    implicit predicate for larger dimensions.
    """
    if spec.dim > MAX_MATERIALIZE_DIM:
        raise ValueError(
            f"dim {spec.dim} exceeds materialization guard {MAX_MATERIALIZE_DIM} "
            f"(4**{spec.dim} = {4**spec.dim} vertices)"
        )
    return MaterializedGraph(spec)


def plain_degree(dim: int) -> int:
    """Degree of every G_n vertex: 4^n - 3^n (vertex-transitive)."""
    return 4**dim - 3**dim


def star_degree(dim: int) -> int:
    """Degree of every G*_n vertex: 4^n - 3^n - n.

    Non-neighbors of m are the 3^n vectors with no gap-2 coordinate
    (including m itself) plus the n vectors differing from m in a single
    gap-2 coordinate.
    """
    return 4**dim - 3**dim - dim


def random_automorphism(dim: int, rng) -> Automorphism:
    """Uniform element of the 8^n n! automorphism group (rng: random.Random)."""
    perm = list(range(dim))
    rng.shuffle(perm)
    maps = tuple(rng.choice(DIHEDRAL_LABEL_MAPS) for _ in range(dim))
    return Automorphism(tuple(perm), maps)


def enumerate_automorphisms(dim: int) -> Iterator[Automorphism]:
    """All 8^n n! automorphisms (intended for tiny dims only)."""
    for perm in itertools.permutations(range(dim)):
        for maps in itertools.product(DIHEDRAL_LABEL_MAPS, repeat=dim):
            yield Automorphism(perm, maps)
