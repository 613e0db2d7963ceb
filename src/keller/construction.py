"""Block substitution: templates, block tables, and the counterexample sets.

The construction starts from an 8-row template clique in G_3 (with
two labels 0 and 0' that both behave like the digit 0), assigns to each label
a disjoint set of 4-digit blocks, and concatenates blocks independently per
column.  With block counts a = b = 12, c = d = 4 this yields
a^3 + 3abc + 3acd + c^3 = 2^12 vectors forming a clique in G*_12.  A 16-row
4-column variant with labels 0,0',1,1',2,3 and only the middle two columns
expanded yields 2^10 vectors forming a clique in G*_10.  Stacking two
translated copies lifts any counterexample one dimension up.

Block sets are ``core.VectorSet``s, and the three block conditions are
checked on their packed arrays with the certifier's ``verify_clique``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import Automorphism, CubeVector, GraphVariant, KellerGraphSpec, VectorSet

__all__ = [
    "Label",
    "TemplateVector",
    "BlockSystem",
    "BlockConditionReport",
    "table1",
    "table2",
    "block_swap_automorphism",
    "check_block_conditions",
    "substitute",
    "build_counterexample",
    "lift",
    "find_lift_shift",
]


@dataclass(frozen=True)
class Label:
    """A template symbol: a digit, optionally primed (0' and 1' only).

    A primed label differs by 2 from the same digits its plain form does,
    but counts as a distinct value when counting differing coordinates.
    Primes exist only at the template/block layer; graphs never see them.
    """

    digit: int
    primed: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.digit <= 3:
            raise ValueError(f"label digit out of range: {self.digit}")
        if self.primed and self.digit not in (0, 1):
            raise ValueError(f"only 0 and 1 may be primed, got {self.digit}'")

    @classmethod
    def parse(cls, token: str) -> "Label":
        if len(token) == 2 and token[1] == "'":
            return cls(int(token[0]), True)
        if len(token) == 1 and token in "0123":
            return cls(int(token))
        raise ValueError(f"bad label token: {token!r}")

    def __str__(self) -> str:
        return f"{self.digit}'" if self.primed else str(self.digit)


@dataclass(frozen=True)
class TemplateVector:
    """A row of a substitution template: a tuple of labels."""

    labels: tuple[Label, ...]

    @classmethod
    def from_string(cls, s: str) -> "TemplateVector":
        labels = []
        i = 0
        while i < len(s):
            if i + 1 < len(s) and s[i + 1] == "'":
                labels.append(Label.parse(s[i : i + 2]))
                i += 2
            else:
                labels.append(Label.parse(s[i]))
                i += 1
        return cls(tuple(labels))

    def stripped(self) -> CubeVector:
        """The underlying digit vector, primes ignored."""
        return CubeVector.from_digits(lab.digit for lab in self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __str__(self) -> str:
        return "".join(str(lab) for lab in self.labels)


class BlockSystem:
    """Label-indexed sets of k-digit blocks used by substitution, one VectorSet each."""

    def __init__(self, k: int, sets: Mapping[Label, Iterable[CubeVector]]):
        self.k = k
        self._sets: dict[Label, VectorSet] = {}
        for label, vecs in sets.items():
            try:
                self._sets[label] = VectorSet(k, vecs)
            except ValueError as exc:
                raise ValueError(f"S_{label}: {exc}") from None

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(self._sets)

    def get(self, label: Label) -> VectorSet:
        try:
            return self._sets[label]
        except KeyError:
            raise KeyError(f"no block set for label {label}") from None

    def __contains__(self, label: Label) -> bool:
        return label in self._sets

    def sizes(self) -> dict[Label, int]:
        return {lab: len(vs) for lab, vs in self._sets.items()}

    def replace(self, label: Label, vecs: Iterable[CubeVector]) -> "BlockSystem":
        """Copy with one set swapped out (handy for adversarial checks)."""
        return BlockSystem(self.k, {**self._sets, label: vecs})


# ---------------------------------------------------------------------------
# Canonical table data
# ---------------------------------------------------------------------------

# 8 template rows of the G_3 clique; 0' is the primed-zero label.
_TABLE1_ROWS = ("000", "201", "120", "012", "20'3", "320'", "0'32", "222")

# Block columns of 4-digit vectors, in the order S_0, S_0', S_2, S_1, S_1',
# S_3.  S_1, S_3 are the images of S_0, S_2 under the first-coordinate
# rotation 0->1->2->3->0; S_1' relates to S_1 as S_0' does to S_0.
_TABLE2_COLUMNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("0", ("0000", "0012", "0213", "0230", "0332", "1020",
           "2100", "2112", "2220", "2301", "2322", "3132")),
    ("0'", ("0303", "1011", "1113", "1130", "1323", "1331",
            "2211", "3001", "3022", "3103", "3223", "3231")),
    ("2", ("0211", "1132", "2303", "3020")),
    ("1", ("1000", "1012", "1213", "1230", "1332", "2020",
           "3100", "3112", "3220", "3301", "3322", "0132")),
    ("1'", ("1303", "2011", "2113", "2130", "2323", "2331",
            "3211", "0001", "0022", "0103", "0223", "0231")),
    ("3", ("1211", "2132", "3303", "0020")),
)

# The 16-row 4-column template for the 10-dimensional construction: the S_0
# rows taken verbatim plus the four S_2 rows rewritten with primes.  Primes
# occur only in columns 1 and 2, the expanded ones.
_PRIMED_S2_ROWS = ("021'1", "11'32", "230'3", "30'20")

# Guards the embedded tables against accidental edits.
_TABLE_SHA256 = "da76c275460440b229a0af99507de494669c51a363b1a2026c3319d7fd6925f3"


def _table_digest() -> str:
    import hashlib  # here, so that processes that never build skip loading the OpenSSL binding

    blob = "|".join(_TABLE1_ROWS)
    for name, col in _TABLE2_COLUMNS:
        blob += f";{name}:" + ",".join(col)
    blob += "|" + ",".join(_PRIMED_S2_ROWS)
    return hashlib.sha256(blob.encode()).hexdigest()


@lru_cache(maxsize=1)
def _check_tables() -> None:
    digest = _table_digest()
    if digest != _TABLE_SHA256:
        raise RuntimeError(f"embedded table data corrupted (sha256 {digest})")


@lru_cache(maxsize=1)
def table1() -> tuple[TemplateVector, ...]:
    """The 8 length-3 template rows (000, 201, 120, 012, 20'3, 320', 0'32, 222)."""
    _check_tables()
    return tuple(TemplateVector.from_string(s) for s in _TABLE1_ROWS)


@lru_cache(maxsize=1)
def table2() -> BlockSystem:
    """The six block columns S_0, S_0', S_2, S_1, S_1', S_3 (k = 4)."""
    _check_tables()
    sets = {Label.parse(name): VectorSet.from_strings(4, col) for name, col in _TABLE2_COLUMNS}
    return BlockSystem(4, sets)


def block_swap_automorphism() -> Automorphism:
    """The dim-4 automorphism that fixes S_2 pointwise and maps S_0 onto S_0'.

    Rotate the first coordinate 0->1->2->3->0 and the last 0->3->2->1->0,
    then exchange those two coordinates.  Conjugating by the S_0 -> S_1
    first-coordinate rotation gives the analogous map S_1 -> S_1'.
    """
    inc = (1, 2, 3, 0)
    dec = (3, 0, 1, 2)
    ident = (0, 1, 2, 3)
    # destination 0 receives the relabeled last coordinate and vice versa
    return Automorphism(coord_perm=(3, 1, 2, 0), label_maps=(dec, ident, ident, inc))


# ---------------------------------------------------------------------------
# Condition checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockConditionReport:
    """Witnessed outcome of the three block-system conditions.

    (i) each set is a clique in G*_k; (ii) the sets are pairwise disjoint;
    (iii) each requested union is a clique in G_k.  Empty tuples mean the
    condition holds.
    """

    clique_failures: tuple[tuple[Label, CubeVector, CubeVector], ...]
    overlap_failures: tuple[tuple[Label, Label, CubeVector], ...]
    union_failures: tuple[tuple[Label, Label, CubeVector, CubeVector], ...]

    @property
    def ok(self) -> bool:
        return not (self.clique_failures or self.overlap_failures or self.union_failures)


def check_block_conditions(
    bs: BlockSystem, pairs_for_iii: Sequence[tuple[Label, Label]]
) -> BlockConditionReport:
    """Check conditions (i)-(iii) over all sets present in the system.

    Witnesses are in lexicographic order: sets in label order, and within a
    set or union its missing pairs as ``verify_clique`` lists them.
    """
    # imported here, so that building and lifting, which check no blocks,
    # do not load the certifier
    from .verify import verify_clique

    k, labels, get = bs.k, bs.labels, bs.get
    star, plain = KellerGraphSpec(k, GraphVariant.STAR), KellerGraphSpec(k, GraphVariant.PLAIN)
    clique_failures = tuple(
        (label, u, v) for label in labels for u, v in verify_clique(get(label), star).pairs
    )
    overlap_failures = tuple(
        (la, lb, v)
        for la, lb in itertools.combinations(labels, 2)
        for v in VectorSet._from_packed(k, np.intersect1d(get(la).packed, get(lb).packed))
    )
    union_failures = tuple(
        (la, lb, u, v)
        for la, lb in pairs_for_iii
        for u, v in verify_clique(
            VectorSet._from_packed(k, np.union1d(get(la).packed, get(lb).packed)), plain
        ).pairs
    )
    return BlockConditionReport(clique_failures, overlap_failures, union_failures)


# ---------------------------------------------------------------------------
# Substitution and the two counterexamples
# ---------------------------------------------------------------------------

def substitute(
    templates: Sequence[TemplateVector],
    bs: BlockSystem,
    expand_columns: Iterable[int],
) -> VectorSet:
    """Expand template columns into blocks, concatenating all combinations.

    Columns named in ``expand_columns`` (0-based) are replaced by every block
    of the column label's set, independently per column; other columns must
    hold unprimed labels and are emitted as literal digits.  The result has
    dimension (#literal columns) + k * (#expanded columns) and exactly
    sum over templates of prod over expanded columns of |S_label| members;
    a collision among them (overlapping block sets) is an error.
    """
    expand = frozenset(expand_columns)
    if not templates:
        raise ValueError("no templates to substitute")
    ncols = len(templates[0])
    for t in templates:
        if len(t) != ncols:
            raise ValueError("templates differ in length")
    if any(c < 0 or c >= ncols for c in expand):
        raise ValueError(f"expand column out of range for {ncols}-column templates")

    out_dim = (ncols - len(expand)) + bs.k * len(expand)
    members: list[int] = []
    for t in templates:
        partial = [0]  # packed prefixes; the next column starts at bit `shift`
        shift = 0
        for c, label in enumerate(t.labels):
            if c in expand:
                blocks = [blk << shift for blk in bs.get(label).packed.tolist()]
                partial = [p | b for p in partial for b in blocks]
                shift += 2 * bs.k
            else:
                if label.primed:
                    raise ValueError(
                        f"primed label {label} in non-expanded column {c} of template {t}"
                    )
                partial = [p | label.digit << shift for p in partial]
                shift += 2
        members.extend(partial)

    if len(set(members)) != len(members):
        raise ValueError(
            "substitution produced colliding vectors; block sets are not disjoint"
        )
    return VectorSet._from_packed(out_dim, members)


def _templates_10() -> tuple[TemplateVector, ...]:
    _check_tables()
    s0_rows = dict(_TABLE2_COLUMNS)["0"]
    rows = tuple(s0_rows) + _PRIMED_S2_ROWS
    return tuple(TemplateVector.from_string(s) for s in rows)


def build_counterexample(n: int) -> VectorSet:
    """The canned facet-free tiling set for n = 10 or 12 (2^n vectors)."""
    if n == 12:
        return substitute(table1(), table2(), (0, 1, 2))
    if n == 10:
        return substitute(_templates_10(), table2(), (1, 2))
    raise ValueError(f"no construction for dimension {n}; supported: 10, 12")


# ---------------------------------------------------------------------------
# Lifting one dimension up
# ---------------------------------------------------------------------------

def lift(s: VectorSet, a: Automorphism) -> VectorSet:
    """Stack two layers: {(m, 0)} union {(a(m), 2)}, one dimension up.

    Requires s and a(s) disjoint; when s is a clique in G*_dim the result is
    a clique of twice the size in G*_(dim+1): cross pairs get their gap-2
    coordinate from the last digit (|0-2| = 2) and a second differing
    coordinate from disjointness.
    """
    if a.dim != s.dim:
        raise ValueError(f"dimension mismatch: set {s.dim}, automorphism {a.dim}")
    image = a._apply_packed(s.packed).tolist()
    overlap = set(s.packed.tolist()) & set(image)
    if overlap:
        witness = next(iter(VectorSet._from_packed(s.dim, list(overlap))))
        raise ValueError(f"set and its image overlap, e.g. {witness}")
    top = 2 << (2 * s.dim)  # the new last coordinate: 0 on s, 2 on its image
    return VectorSet._from_packed(s.dim + 1, s.packed.tolist() + [v | top for v in image])


def find_lift_shift(s: VectorSet) -> Optional[Automorphism]:
    """First single-coordinate rotation a with s and a(s) disjoint.

    Candidate order is fixed: rotations 0->1->2->3->0 by ascending
    coordinate, then their inverses in the same coordinate order.  Returns
    None when every candidate collides.
    """
    packed = set(s.packed.tolist())
    for steps in (1, 3):
        for coord in range(s.dim):
            a = Automorphism.rotation(s.dim, coord, steps)
            if packed.isdisjoint(a._apply_packed(s.packed).tolist()):
                return a
    return None
