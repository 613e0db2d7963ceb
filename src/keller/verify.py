"""Independent certification of vector sets.

Two routes certify a counterexample: an exhaustive pairwise clique check
against the packed edge test, and a discrete torus cell-cover oracle that
never consults the graph layer.  The oracle models each vector m as the
half-open cube prod_i [m_i - 1, m_i + 1) on (R/4Z)^n, discretized to the
4^n unit cells; a set tiles iff every cell is covered exactly once.  The
cells are checked in slabs of 4^9 that share their top coordinates, so
memory does not grow with the dimension: a slab of 4^9 incidences that
marks every cell covers each exactly once, and only a bad slab is counted.

Face statistics report, over all pairs whose coordinates differ only by 0
or 2, how many coordinates agree; the maximum such count bounds the largest
shared-face dimension of the tiling.  Those are the pairs with equal digit
parities, so only vectors of one parity class are paired.

This module imports only ``core``, so no certificate rests on the
construction or search code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import CubeVector, GraphVariant, KellerGraphSpec, VectorSet
from .core import _BLOCK_ELEMS, _digit_columns, _edge, _low_mask

__all__ = [
    "MissingEdgeReport",
    "CellCoverStatus",
    "CellCoverResult",
    "FaceHistogram",
    "verify_clique",
    "verify_tiling_cells",
    "face_statistics",
    "facet_free",
    "MAX_CELL_DIM",
]

# The guard limits time, not memory: the scan grows 4x per dimension, and at
# 13 (the lift of the 12-dim tiling) it takes about 0.4 s on a 2-vCPU VM
# (0.08 s at 12).
MAX_CELL_DIM = 13

# The oracle checks 4^_SLAB_DIM cells at a time, keyed by the remaining top
# coordinates, which are the most significant digits of the cell index.  A
# slab's cell incidences are one 2 MiB intp array; a slab with exactly 4^9 of
# them is exact iff they mark every cell of a 256 KiB bool array, and only a
# bad slab is counted (a 2 MiB bincount) to find its first bad cell.
_SLAB_DIM = 9


def _popcount64(a: np.ndarray) -> np.ndarray:
    """Set bits per element of a uint64 array or an object array of Python ints."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(a).astype(np.int64)
    # numpy < 2; face_statistics only counts the pairs whose gaps are all 0 or 2
    return np.array([v.bit_count() for v in a.ravel().tolist()], dtype=np.int64).reshape(a.shape)


@dataclass(frozen=True)
class MissingEdgeReport:
    """All unordered pairs of a set that are not adjacent in the given graph.

    Pairs are internally ordered and listed lexicographically; an empty
    report certifies the set is a clique.
    """

    spec: KellerGraphSpec
    pairs: tuple[tuple[CubeVector, CubeVector], ...]

    @property
    def is_clique(self) -> bool:
        return not self.pairs


class CellCoverStatus(Enum):
    EXACT_COVER = "EXACT_COVER"
    GAP = "GAP"
    OVERLAP = "OVERLAP"


@dataclass(frozen=True)
class CellCoverResult:
    """Cell-cover outcome; witness is the first bad cell in index order."""

    status: CellCoverStatus
    witness: Optional[CubeVector] = None


@dataclass(frozen=True)
class FaceHistogram:
    """Counts of shared-face dimensions over all qualifying cube pairs.

    A pair qualifies when every coordinate gap is 0 or 2; it shares a face
    of dimension k when exactly k coordinates have gap 0.
    """

    dim: int
    counts: tuple[tuple[int, int], ...]

    @property
    def max_shared(self) -> Optional[int]:
        return max((k for k, c in self.counts if c), default=None)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)


def verify_clique(s: VectorSet, spec: KellerGraphSpec) -> MissingEdgeReport:
    """Exhaustive pairwise clique check of s against spec.

    Rows are tested in blocks of about ``_BLOCK_ELEMS`` pairs, each row
    against every vector from the block's first row on, with the pairs
    j <= i masked as adjacent; so the missing pairs (i, j) come out in
    lexicographic order.
    """
    if s.dim != spec.dim:
        raise ValueError(f"dimension mismatch: set {s.dim}, graph {spec.dim}")
    star = spec.variant is GraphVariant.STAR
    # up to 16 coordinates every 2-bit field fits a uint32, and the scan is
    # memory-bound
    packed = s.packed.astype(np.uint32) if s.dim <= 16 else s.packed
    n = len(packed)
    missing: list[tuple[int, int]] = []
    a = 0
    while a < n:
        b = min(n, a + max(1, _BLOCK_ELEMS // (n - a)))
        adj = _edge(packed[a:b, None] ^ packed[a:], s.dim, star)
        adj[:, : b - a] |= np.tri(b - a, dtype=bool)
        if not adj.all():
            i, j = np.nonzero(~adj)
            missing.extend(zip((i + a).tolist(), (j + a).tolist()))
        a = b
    members = s.members if missing else ()
    return MissingEdgeReport(spec=spec, pairs=tuple((members[i], members[j]) for i, j in missing))


def verify_tiling_cells(s: VectorSet) -> CellCoverResult:
    """Exact cover check of the 4^n torus cells by the half-open cubes of s.

    Each cube covers the 2^n cells at per-coordinate offsets {-1, 0} mod 4
    from its center.  Slabs are counted in index order and the scan stops
    at the first slab with a bad cell; the witness is the first bad cell in
    index order.  Independent of the graph predicates.
    """
    n = s.dim
    if n > MAX_CELL_DIM:
        raise ValueError(
            f"cell oracle guarded at dim {MAX_CELL_DIM}: scanning 4**{n} = {4**n:.2e} "
            f"cells would take too long"
        )
    low = min(n, _SLAB_DIM)
    nlow = 4**low
    digits = _digit_columns(s.packed, n).astype(np.intp)
    pow4 = 4 ** np.arange(low, dtype=np.intp)
    corner = ((digits[:, :low] + 3) % 4) @ pow4  # low cell at offset -1 in every coordinate
    # stepping coordinate i from offset -1 to 0 adds 4^i, except when the
    # digit is 0 and the cell index wraps from 3*4^i down to 0
    deltas = np.where(digits[:, :low] == 0, -3 * pow4, pow4)
    top = digits[:, low:]
    top_pow4 = 4 ** np.arange(n - low, dtype=np.intp)
    for slab in range(4 ** (n - low)):
        # a cube meets the slab iff each top digit of the slab is the cube's
        # digit or the one below it, mod 4
        h = (slab // top_pow4) % 4
        meets = (((top - h) % 4) <= 1).all(axis=1)
        dl = deltas[meets]
        # row r holds every cube's cell at the offsets of r's bits: the rows
        # double once per coordinate, written in place
        idx = np.empty((1 << low, len(dl)), dtype=np.intp)
        idx[0] = corner[meets]
        for i in range(low):
            np.add(idx[: 1 << i], dl[:, i], out=idx[1 << i : 2 << i])
        idx = idx.ravel()
        # exactly 4^low incidences that mark every cell cover each once
        if idx.size == nlow:
            marked = np.zeros(nlow, dtype=bool)
            marked[idx] = True
            if marked.all():
                continue
        counts = np.bincount(idx, minlength=nlow)
        first = int(np.flatnonzero(counts != 1)[0])
        status = CellCoverStatus.GAP if counts[first] == 0 else CellCoverStatus.OVERLAP
        return CellCoverResult(status, witness=CubeVector.from_index(n, slab * nlow + first))
    return CellCoverResult(CellCoverStatus.EXACT_COVER)


def face_statistics(s: VectorSet) -> FaceHistogram:
    """Histogram of shared-face dimensions over all unordered pairs of s.

    A pair's gaps are all 0 or 2 iff its xor has no low bit in any 2-bit
    field, that is iff the two vectors have the same digit parities.  So the
    vectors are sorted by their parity bits and only equal-parity runs are
    paired: the pairs at distance d in the sorted order whose parities
    agree, for d = 1, 2, ... until none do.  A set with no pair does no
    work per coordinate.
    """
    n = s.dim
    if len(s) < 2:
        return FaceHistogram(dim=n, counts=())
    acc = np.zeros(n + 1, dtype=np.int64)
    low = _low_mask(n)
    parity = s.packed & low
    order = np.argsort(parity)
    packed, parity = s.packed[order], parity[order]
    lo = np.arange(len(packed))
    d = 1
    while True:
        lo = lo[lo + d < len(packed)]
        lo = lo[parity[lo + d] == parity[lo]]
        if not lo.size:
            break
        # each differing coordinate has gap 2, a single set bit
        acc += np.bincount(n - _popcount64(packed[lo] ^ packed[lo + d]), minlength=n + 1)
        d += 1
    counts = tuple((k, int(acc[k])) for k in np.flatnonzero(acc).tolist())
    return FaceHistogram(dim=n, counts=counts)


def facet_free(s: VectorSet) -> bool:
    """True when no pair differs in exactly one coordinate by exactly 2.

    Such a pair is exactly an edge of G_n that is not an edge of G*_n, and
    exactly a pair of the face histogram with n - 1 gap-0 coordinates.  For
    a 2^n set that is a clique in G_n this coincides with being a clique in
    G*_n.
    """
    return face_statistics(s).as_dict().get(s.dim - 1, 0) == 0
