"""Clique reports, the torus cell oracle, face statistics, facet freeness."""

import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from keller import verify as verify_module
from keller.construction import VectorSet, find_lift_shift, lift
from keller.core import (
    CubeVector,
    GraphVariant,
    KellerGraphSpec,
    random_automorphism,
)
from keller.verify import (
    CellCoverStatus,
    _popcount64,
    face_statistics,
    facet_free,
    verify_clique,
    verify_tiling_cells,
)

PLAIN = GraphVariant.PLAIN
STAR = GraphVariant.STAR


def vs(dim, strings):
    return VectorSet.from_strings(dim, strings)


def oracle_cell_counts(s: VectorSet) -> Counter:
    """Brute-force cell cover: walk every offset combination of every cube."""
    counts: Counter = Counter()
    for m in s:
        for offsets in itertools.product((-1, 0), repeat=s.dim):
            cell = tuple((d + o) % 4 for d, o in zip(m.digits, offsets))
            counts[cell] += 1
    return counts


def oracle_cell_status(s: VectorSet):
    counts = oracle_cell_counts(s)
    bad = [
        cell
        for cell in itertools.product(range(4), repeat=s.dim)
        if counts[cell] != 1
    ]
    if not bad:
        return CellCoverStatus.EXACT_COVER, None
    # first bad cell in index order: index is little-endian over coordinates
    first = min(bad, key=lambda c: sum(d * 4**i for i, d in enumerate(c)))
    status = CellCoverStatus.GAP if counts[first] == 0 else CellCoverStatus.OVERLAP
    return status, CubeVector.from_digits(first)


def random_subset(dim, size, rng):
    picks = rng.sample(range(4**dim), size)
    return VectorSet(dim, (CubeVector.from_index(dim, i) for i in picks))


def near_tiling(dim, rng):
    """A random automorphism image of the {0, 2}^dim tiling, with one cube
    dropped, moved, or left in place."""
    a = random_automorphism(dim, rng)
    members = [
        a.apply(CubeVector.from_digits([2 * ((k >> i) & 1) for i in range(dim)]))
        for k in range(2**dim)
    ]
    j = rng.randrange(len(members))
    move = rng.choice(["drop", "move", "keep"])
    if move == "drop":
        del members[j]
    elif move == "move":
        digits = list(members[j].digits)
        digits[rng.randrange(dim)] = rng.randrange(4)
        members[j] = CubeVector.from_digits(digits)
    return VectorSet(dim, set(members))


# ---------------------------------------------------------------------------
# verify_clique
# ---------------------------------------------------------------------------

def test_verify_clique_reports_sorted_pairs():
    s = vs(2, ["00", "01", "02", "13"])
    report = verify_clique(s, KellerGraphSpec(2, PLAIN))
    assert [(str(u), str(v)) for u, v in report.pairs] == [
        ("00", "01"),
        ("00", "13"),
        ("01", "02"),
        ("02", "13"),
    ]
    assert not report.is_clique


def test_verify_clique_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_clique(vs(2, ["00"]), KellerGraphSpec(3, PLAIN))


def test_verify_clique_matches_pairwise_predicate_random():
    from keller.core import has_edge

    rng = random.Random(31337)
    for _ in range(30):
        dim = rng.randint(1, 5)
        s = random_subset(dim, rng.randint(2, min(20, 4**dim)), rng)
        for variant in (PLAIN, STAR):
            spec = KellerGraphSpec(dim, variant)
            expected = {
                (u, v)
                for u, v in itertools.combinations(s.members, 2)
                if not has_edge(spec, u, v)
            }
            assert set(verify_clique(s, spec).pairs) == expected


# ---------------------------------------------------------------------------
# cell cover
# ---------------------------------------------------------------------------

def test_cells_dim1_exact():
    assert verify_tiling_cells(vs(1, ["0", "2"])).status is CellCoverStatus.EXACT_COVER


def test_cells_dim2_misaligned_witness():
    s = vs(2, ["00", "20", "02", "21"])
    got = verify_tiling_cells(s)
    want_status, want_witness = oracle_cell_status(s)
    assert got.status is want_status is not CellCoverStatus.EXACT_COVER
    assert got.witness == want_witness


def test_cells_match_oracle_on_random_sets():
    rng = random.Random(2024)
    for _ in range(40):
        dim = rng.randint(1, 3)
        s = random_subset(dim, rng.randint(1, 2**dim + 2), rng)
        got = verify_tiling_cells(s)
        want_status, want_witness = oracle_cell_status(s)
        assert got.status is want_status
        assert got.witness == want_witness


def test_cells_empty_set_gaps_at_origin():
    got = verify_tiling_cells(VectorSet(2, ()))
    assert got.status is CellCoverStatus.GAP
    assert got.witness == CubeVector.from_string("00")


def test_cells_wrong_cardinality_never_exact():
    rng = random.Random(8)
    for _ in range(20):
        dim = rng.randint(1, 3)
        size = rng.choice([2**dim - 1, 2**dim + 1])
        size = max(1, min(size, 4**dim))
        s = random_subset(dim, size, rng)
        if len(s) != 2**dim:
            assert verify_tiling_cells(s).status is not CellCoverStatus.EXACT_COVER


def test_cells_guard():
    with pytest.raises(ValueError):
        verify_tiling_cells(VectorSet(14, ()))


@pytest.mark.parametrize("slab_dim", [1, 2])
def test_cells_multi_slab_match_oracle(monkeypatch, slab_dim):
    monkeypatch.setattr(verify_module, "_SLAB_DIM", slab_dim)
    rng = random.Random(4000 + slab_dim)
    beyond_first_slab = 0
    for _ in range(120):
        dim = rng.randint(2, 5)
        if rng.random() < 0.3:
            size = rng.choice([2**dim - 1, 2**dim, 2**dim + 1, rng.randint(0, 3 * 2**dim)])
            s = random_subset(dim, size, rng)
        else:
            s = near_tiling(dim, rng)
        got = verify_tiling_cells(s)
        want_status, want_witness = oracle_cell_status(s)
        assert got.status is want_status
        assert got.witness == want_witness
        if want_witness is not None and want_witness.index >= 4**slab_dim:
            beyond_first_slab += 1
    assert beyond_first_slab >= 15


def test_cells_dim12_gap_witness_beyond_first_slab(s12):
    members = list(s12.members)
    dropped = CubeVector.from_string("101211322301")
    members.remove(dropped)
    got = verify_tiling_cells(VectorSet(12, members))
    assert got.status is CellCoverStatus.GAP
    assert got.witness == CubeVector.from_string("000100211200")
    assert got.witness.index >= 4**verify_module._SLAB_DIM


def test_cells_dim13_lift_exact(s12):
    lifted = lift(s12, find_lift_shift(s12))
    assert lifted.dim == 13
    assert verify_tiling_cells(lifted).status is CellCoverStatus.EXACT_COVER


def test_cells_dim12_peak_memory(s12):
    # one slab's counters, not 4^12 of them
    tracemalloc.start()
    try:
        assert verify_tiling_cells(s12).status is CellCoverStatus.EXACT_COVER
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_cells_volume_sanity():
    # every cube covers exactly 2^n cells, so total coverage is |S| * 2^n and
    # an exact cover forces |S| = 2^n
    rng = random.Random(99)
    for _ in range(20):
        dim = rng.randint(1, 3)
        s = random_subset(dim, rng.randint(1, 2**dim + 1), rng)
        counts = oracle_cell_counts(s)
        assert sum(counts.values()) == len(s) * 2**dim
        if verify_tiling_cells(s).status is CellCoverStatus.EXACT_COVER:
            assert len(s) == 2**dim


def test_criterion_equivalence_small_dims():
    # tiling criterion: exact cover iff clique in the PLAIN graph (2^n vectors)
    rng = random.Random(555)
    for dim in (2, 3):
        for _ in range(150):
            s = random_subset(dim, 2**dim, rng)
            exact = verify_tiling_cells(s).status is CellCoverStatus.EXACT_COVER
            clique = verify_clique(s, KellerGraphSpec(dim, PLAIN)).is_clique
            assert exact == clique


def test_criterion_equivalence_under_mutation(s10):
    assert verify_tiling_cells(s10).status is CellCoverStatus.EXACT_COVER
    assert verify_clique(s10, KellerGraphSpec(10, PLAIN)).is_clique
    mutated = list(s10.members)
    digits = list(mutated[17].digits)
    digits[3] = (digits[3] + 1) % 4
    mutated[17] = CubeVector.from_digits(digits)
    m = VectorSet(10, mutated)
    assert verify_tiling_cells(m).status is not CellCoverStatus.EXACT_COVER
    assert not verify_clique(m, KellerGraphSpec(10, PLAIN)).is_clique


# ---------------------------------------------------------------------------
# face statistics and facet freeness
# ---------------------------------------------------------------------------

def test_face_histogram_facet_pair():
    hist = face_statistics(vs(2, ["00", "20"]))
    assert hist.as_dict() == {1: 1}
    assert hist.max_shared == 1


def test_face_histogram_skew_pair_empty():
    hist = face_statistics(vs(2, ["00", "11"]))
    assert hist.as_dict() == {}
    assert hist.max_shared is None


def test_face_histogram_oracle_random():
    rng = random.Random(777)
    for _ in range(30):
        dim = rng.randint(1, 4)
        s = random_subset(dim, rng.randint(2, min(15, 4**dim)), rng)
        expected: Counter = Counter()
        for u, v in itertools.combinations(s.members, 2):
            gaps = [abs(a - b) for a, b in zip(u.digits, v.digits)]
            if all(g in (0, 2) for g in gaps):
                expected[gaps.count(0)] += 1
        assert face_statistics(s).as_dict() == dict(expected)


def test_face_histogram_automorphism_invariance(s10):
    rng = random.Random(4242)
    sample = VectorSet(10, rng.sample(list(s10.members), 64))
    hist = face_statistics(sample)
    for _ in range(5):
        a = random_automorphism(10, rng)
        assert face_statistics(sample.apply(a)).as_dict() == hist.as_dict()


def test_clique_report_cardinality_automorphism_invariance():
    rng = random.Random(11)
    for _ in range(20):
        dim = rng.randint(2, 4)
        s = random_subset(dim, rng.randint(2, 12), rng)
        a = random_automorphism(dim, rng)
        for variant in (PLAIN, STAR):
            spec = KellerGraphSpec(dim, variant)
            assert len(verify_clique(s, spec).pairs) == len(verify_clique(s.apply(a), spec).pairs)


def test_popcount_fallback_matches_bitwise_count(monkeypatch):
    rng = np.random.default_rng(64)
    a = rng.integers(0, 2**64, size=(9, 40), dtype=np.uint64)
    a[0, 0], a[0, 3] = 0, 2**64 - 1
    a = a[:, ::3]  # not contiguous
    want = _popcount64(a)
    assert want.tolist() == [[bin(int(x)).count("1") for x in row] for row in a]
    monkeypatch.delattr(np, "bitwise_count", raising=False)  # numpy < 2
    got = _popcount64(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_facet_free_examples(s10):
    assert not facet_free(vs(2, ["00", "20"]))
    assert facet_free(vs(2, ["00", "22"]))
    assert facet_free(s10)


def test_facet_free_agrees_with_star_clique_on_plain_cliques():
    rng = random.Random(321)
    checked = 0
    for _ in range(200):
        dim = rng.randint(2, 3)
        s = random_subset(dim, rng.randint(2, 2**dim), rng)
        plain_ok = verify_clique(s, KellerGraphSpec(dim, PLAIN)).is_clique
        star_ok = verify_clique(s, KellerGraphSpec(dim, STAR)).is_clique
        if plain_ok:
            assert facet_free(s) == star_ok
            checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# dimensions above 32: Python-int packed arrays
# ---------------------------------------------------------------------------

WIDE40 = ["0" * 40, "2" * 20 + "1" * 20, "1" * 40]


def digit_oracle_edge(variant, u, v):
    gaps = [abs(a - b) for a, b in zip(u.digits, v.digits)]
    return 2 in gaps and (variant is PLAIN or sum(1 for g in gaps if g) >= 2)


def digit_oracle_faces(s):
    counts: Counter = Counter()
    for u, v in itertools.combinations(s.members, 2):
        gaps = [abs(a - b) for a, b in zip(u.digits, v.digits)]
        if all(g in (0, 2) for g in gaps):
            counts[gaps.count(0)] += 1
    return dict(counts)


def digit_oracle_facet_free(s):
    for u, v in itertools.combinations(s.members, 2):
        gaps = [abs(a - b) for a, b in zip(u.digits, v.digits)]
        if sum(1 for g in gaps if g) == 1 and 2 in gaps:
            return False
    return True


def wide_sets():
    """The 3-vector dim-40 set plus random sets at dims 33 and 40.

    The random members are {0, 2}^n vectors with a few coordinates moved, so
    that shared faces, facet pairs and missing edges all occur.
    """
    sets = [vs(40, WIDE40)]
    rng = random.Random(4040)
    for dim in (33, 40, 40):
        members = set()
        while len(members) < 14:
            digits = [rng.choice((0, 2)) for _ in range(dim)]
            for _ in range(rng.randrange(3)):
                digits[rng.randrange(dim)] = rng.randrange(4)
            members.add(CubeVector.from_digits(digits))
        base = rng.choice(sorted(members, key=str))
        members.add(CubeVector.from_digits(base.digits[:-1] + ((base.digits[-1] + 2) % 4,)))
        sets.append(VectorSet(dim, members))
    return sets


def test_wide_sets_are_python_int_arrays():
    for s in wide_sets():
        assert s.packed.dtype == object
        assert all(type(p) is int for p in s.packed)


def test_wide_verify_clique_matches_digit_oracle():
    for s in wide_sets():
        for variant in (PLAIN, STAR):
            want = [
                (u, v)
                for u, v in itertools.combinations(s.members, 2)
                if not digit_oracle_edge(variant, u, v)
            ]
            assert list(verify_clique(s, KellerGraphSpec(s.dim, variant)).pairs) == want
    report = verify_clique(vs(40, WIDE40), KellerGraphSpec(40, PLAIN))
    assert [(str(u), str(v)) for u, v in report.pairs] == [
        ("0" * 40, "1" * 40),
        ("1" * 40, "2" * 20 + "1" * 20),
    ]


def test_wide_faces_and_facet_freeness_match_digit_oracle(monkeypatch):
    sets = wide_sets()
    assert any(digit_oracle_faces(s) for s in sets)
    assert not all(digit_oracle_facet_free(s) for s in sets)
    for s in sets:
        assert face_statistics(s).as_dict() == digit_oracle_faces(s)
        assert facet_free(s) == digit_oracle_facet_free(s)
    monkeypatch.delattr(np, "bitwise_count", raising=False)  # numpy < 2
    for s in sets:
        assert face_statistics(s).as_dict() == digit_oracle_faces(s)


def test_wide_lift_matches_digit_oracle():
    for s in wide_sets():
        a = find_lift_shift(s)
        assert a is not None
        image = [a.apply(m) for m in s]
        assert not set(image) & set(s)
        want = {CubeVector.from_digits(m.digits + (0,)) for m in s}
        want |= {CubeVector.from_digits(m.digits + (2,)) for m in image}
        lifted = lift(s, a)
        assert lifted.dim == s.dim + 1
        assert set(lifted) == want
        assert [v.digits for v in lifted] == sorted(v.digits for v in want)
    lifted = lift(vs(40, WIDE40), find_lift_shift(vs(40, WIDE40)))
    assert [str(v) for v in lifted] == [
        "0" * 41,
        "1" + "0" * 39 + "2",
        "1" * 40 + "0",
        "2" + "1" * 39 + "2",
        "2" * 20 + "1" * 20 + "0",
        "3" + "2" * 19 + "1" * 20 + "2",
    ]
