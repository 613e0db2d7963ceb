"""Tables, block conditions, substitution, counterexamples, lifting."""

import itertools
import random
import tracemalloc

import pytest

from keller.construction import (
    BlockSystem,
    Label,
    TemplateVector,
    VectorSet,
    block_swap_automorphism,
    build_counterexample,
    check_block_conditions,
    find_lift_shift,
    lift,
    substitute,
    table1,
    table2,
)
from keller.core import (
    Automorphism,
    CubeVector,
    GraphVariant,
    KellerGraphSpec,
    has_edge,
    random_automorphism,
)
from keller.verify import verify_clique

STAR = GraphVariant.STAR
PLAIN = GraphVariant.PLAIN

L0, L0P = Label(0), Label(0, True)
L1, L1P = Label(1), Label(1, True)
L2, L3 = Label(2), Label(3)
UNION_PAIRS = [(L0, L2), (L0P, L2), (L1, L3), (L1P, L3)]


def vs(dim, strings):
    return VectorSet.from_strings(dim, strings)


def shift_first(v: CubeVector) -> CubeVector:
    return CubeVector.from_digits(((v[0] + 1) % 4,) + v.digits[1:])


# ---------------------------------------------------------------------------
# labels and templates
# ---------------------------------------------------------------------------

def test_label_parsing_and_validation():
    assert str(Label.parse("0'")) == "0'"
    assert Label.parse("3") == L3
    with pytest.raises(ValueError):
        Label(2, True)
    with pytest.raises(ValueError):
        Label.parse("4")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Label(4), "label digit out of range: 4"),
        (lambda: substitute((), table2(), ()), "no templates to substitute"),
        (lambda: substitute([TemplateVector.from_string(t) for t in ("01", "012")], table2(), ()),
         "templates differ in length"),
        (lambda: substitute([TemplateVector.from_string("01")], table2(), (2,)),
         "expand column out of range for 2-column templates"),
        (lambda: lift(vs(2, ["00"]), Automorphism.identity(3)), "dimension mismatch: set 2, automorphism 3"),
    ],
    ids=["label-digit-4", "no-templates", "ragged-templates", "expand-column", "lift-dims"],
)
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_template_parsing():
    t = TemplateVector.from_string("20'3")
    assert t.labels == (L2, L0P, L3)
    assert t.stripped() == CubeVector.from_string("203")
    assert str(t) == "20'3"
    assert list(t) == list(t.labels)


# ---------------------------------------------------------------------------
# canonical tables
# ---------------------------------------------------------------------------

def test_table1_rows():
    rows = table1()
    assert len(rows) == 8
    assert TemplateVector.from_string("20'3") in rows
    assert {str(t) for t in rows} == {"000", "201", "120", "012", "20'3", "320'", "0'32", "222"}


def test_table1_stripped_is_g3_clique_missing_exactly_three_star_edges():
    stripped = VectorSet(3, (t.stripped() for t in table1()))
    assert verify_clique(stripped, KellerGraphSpec(3, PLAIN)).is_clique
    report = verify_clique(stripped, KellerGraphSpec(3, STAR))
    assert {(str(u), str(v)) for u, v in report.pairs} == {
        ("201", "203"),
        ("120", "320"),
        ("012", "032"),
    }


def test_table2_shapes_and_s2():
    bs = table2()
    assert bs.k == 4
    sizes = {str(lab): n for lab, n in bs.sizes().items()}
    assert sizes == {"0": 12, "0'": 12, "1": 12, "1'": 12, "2": 4, "3": 4}
    assert set(bs.get(L2)) == {
        CubeVector.from_string(s) for s in ("0211", "1132", "2303", "3020")
    }


def test_corrupted_tables_are_refused(monkeypatch):
    # a stored digest that the embedded tables do not hash to stands in for
    # an edited table: neither table is built from it
    from keller import construction

    caches = (construction._check_tables, table1, table2)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(construction, "_TABLE_SHA256", "0" * 64)
    try:
        for table in (table1, table2):
            with pytest.raises(RuntimeError, match="embedded table data corrupted"):
                table()
    finally:
        for cached in caches:
            cached.cache_clear()


def test_table2_shift_relations():
    bs = table2()
    assert {shift_first(v) for v in bs.get(L0)} == set(bs.get(L1))
    assert {shift_first(v) for v in bs.get(L2)} == set(bs.get(L3))
    assert {shift_first(v) for v in bs.get(L0P)} == set(bs.get(L1P))


def test_block_swap_automorphism_actions():
    bs = table2()
    a = block_swap_automorphism()
    s2 = VectorSet(4, bs.get(L2))
    assert s2.apply(a) == s2
    assert VectorSet(4, bs.get(L0)).apply(a) == VectorSet(4, bs.get(L0P))
    # conjugating by the first-coordinate rotation gives the S_1 analogue
    rot = Automorphism.rotation(4, 0, 1)
    analogue = rot.compose(a).compose(rot.inverse())
    assert VectorSet(4, bs.get(L1)).apply(analogue) == VectorSet(4, bs.get(L1P))


def test_s0_union_s2_missing_exactly_four_star_edges():
    bs = table2()
    union = VectorSet(4, tuple(bs.get(L0)) + tuple(bs.get(L2)))
    assert verify_clique(union, KellerGraphSpec(4, PLAIN)).is_clique
    report = verify_clique(union, KellerGraphSpec(4, STAR))
    assert {(str(u), str(v)) for u, v in report.pairs} == {
        ("0211", "0213"),
        ("1020", "3020"),
        ("1132", "3132"),
        ("2301", "2303"),
    }


# ---------------------------------------------------------------------------
# block conditions
# ---------------------------------------------------------------------------

def test_conditions_hold_for_table2():
    report = check_block_conditions(table2(), UNION_PAIRS)
    assert report.ok


def test_conditions_hold_restricted_to_s0_s0p_s2():
    bs = table2()
    sub = BlockSystem(4, {lab: bs.get(lab) for lab in (L0, L0P, L2)})
    assert L0P in sub and L1 not in sub
    assert check_block_conditions(sub, [(L0, L2), (L0P, L2)]).ok


def test_duplicated_set_fails_disjointness_with_witness():
    bs = table2().replace(L1, table2().get(L0))
    report = check_block_conditions(bs, UNION_PAIRS)
    assert not report.ok
    assert report.overlap_failures
    label_a, label_b, witness = report.overlap_failures[0]
    assert witness in set(bs.get(label_a)) and witness in set(bs.get(label_b))


def test_broken_union_condition_is_witnessed():
    # 0211 -> 0212 leaves S_2 a clique and the sets disjoint, but 0212 has no
    # gap-2 coordinate against 0213 in S_0, so a union check must fail
    bs = table2().replace(L2, [CubeVector.from_string(s) for s in ("0212", "1132", "2303", "3020")])
    report = check_block_conditions(bs, UNION_PAIRS)
    assert not report.ok
    assert report.union_failures and not report.overlap_failures


def lex(vecs):
    return sorted(vecs, key=lambda v: v.digits)


def oracle_block_conditions(bs, pairs_for_iii):
    """(i)-(iii) failures by has_edge over all pairs and by set intersection."""
    star, plain = KellerGraphSpec(bs.k, STAR), KellerGraphSpec(bs.k, PLAIN)

    def missing(vecs, spec):
        return [(u, v) for u, v in itertools.combinations(lex(vecs), 2) if not has_edge(spec, u, v)]

    sets = {lab: set(bs.get(lab)) for lab in bs.labels}
    clique = [(lab, u, v) for lab in bs.labels for u, v in missing(sets[lab], star)]
    overlap = [
        (la, lb, v) for la, lb in itertools.combinations(bs.labels, 2) for v in lex(sets[la] & sets[lb])
    ]
    union = [(la, lb, u, v) for la, lb in pairs_for_iii for u, v in missing(sets[la] | sets[lb], plain)]
    return [clique, overlap, union]


def test_block_conditions_match_brute_force_oracle():
    def blocks(*strings):
        return [CubeVector.from_string(s) for s in strings]

    bs = table2()
    systems = [
        bs,
        bs.replace(L1, bs.get(L0)),  # overlap
        bs.replace(L2, blocks("0211", "0011", "1132", "1133")),  # clique and union, out of order
        bs.replace(L0P, blocks("3001", "0002", "2222", "1113", "0000")),  # all three
    ]
    seen = [False] * 3
    for system in systems:
        report = check_block_conditions(system, UNION_PAIRS)
        got = (report.clique_failures, report.overlap_failures, report.union_failures)
        expected = oracle_block_conditions(system, UNION_PAIRS)
        assert [list(failures) for failures in got] == expected
        seen = [s or bool(failures) for s, failures in zip(seen, got)]
    assert seen == [True, True, True]


def test_block_system_names_the_rejected_set():
    with pytest.raises(ValueError, match=r"^S_1': vector 021 has dim 3, expected 4$"):
        BlockSystem(4, {L2: table2().get(L2), L1P: [CubeVector.from_string("021")]})
    with pytest.raises(ValueError, match=r"^S_2: duplicate vector 0211$"):
        table2().replace(L2, [CubeVector.from_string(s) for s in ("0211", "1132", "0211")])
    assert isinstance(table2().get(L2), VectorSet)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_single_template_enumeration_oracle():
    bs = table2()
    out = substitute([TemplateVector.from_string("222")], bs, (0, 1, 2))
    expected = {
        CubeVector.from_digits(a.digits + b.digits + c.digits)
        for a, b, c in itertools.product(bs.get(L2), repeat=3)
    }
    assert set(out) == expected
    assert len(out) == 4**3


def test_substitute_counts_and_cardinality_identity():
    out12 = substitute(table1(), table2(), (0, 1, 2))
    a, b, c, d = 12, 12, 4, 4
    assert len(out12) == a**3 + 3 * a * b * c + 3 * a * c * d + c**3 == (a + c) ** 3 == 4096
    assert out12.dim == 12


def test_substitute_errors():
    bs = BlockSystem(4, {L2: table2().get(L2)})
    with pytest.raises(KeyError):
        substitute([TemplateVector.from_string("202")], bs, (0, 1, 2))
    with pytest.raises(ValueError):
        # primed label left unexpanded
        substitute([TemplateVector.from_string("20'2")], table2(), (0, 2))


def test_substitution_theorem_constructive_and_adversarial():
    spec12 = KellerGraphSpec(12, STAR)
    assert verify_clique(substitute(table1(), table2(), (0, 1, 2)), spec12).is_clique
    # 0211 -> 1111 keeps the sets disjoint but breaks (iii): 1111 has no gap-2
    # coordinate against 0000, so the checker objects and the output is no clique
    bad = table2().replace(L2, [CubeVector.from_string(s) for s in ("1111", "1132", "2303", "3020")])
    assert not check_block_conditions(bad, UNION_PAIRS).ok
    out = substitute(table1(), bad, (0, 1, 2))
    assert not verify_clique(out, spec12).is_clique
    # corrupting disjointness instead makes substitution itself object
    overlapping = table2().replace(L2, [CubeVector.from_string(s) for s in ("0213", "1132", "2303", "3020")])
    with pytest.raises(ValueError, match="colliding"):
        substitute(table1(), overlapping, (0, 1, 2))


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

def test_build_12(s12):
    assert s12.dim == 12 and len(s12) == 4096
    assert verify_clique(s12, KellerGraphSpec(12, STAR)).is_clique


def test_build_10(s10):
    assert s10.dim == 10 and len(s10) == 1024
    assert verify_clique(s10, KellerGraphSpec(10, STAR)).is_clique


def test_build_10_contains_template_row_expansion(s10):
    # template row 0 2 1' 1: digit, S_2 block, S_1' block, digit
    v = CubeVector.from_string("0" + "0211" + "1303" + "1")
    assert v in s10
    bs = table2()
    for blk2, blk1p in itertools.product(bs.get(L2), bs.get(L1P)):
        assert CubeVector.from_digits((0,) + blk2.digits + blk1p.digits + (1,)) in s10


def test_build_unsupported_dimension():
    with pytest.raises(ValueError):
        build_counterexample(11)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_size_and_shape():
    s = vs(1, ["0", "2"])
    a = Automorphism.rotation(1, 0, 1)
    out = lift(s, a)
    assert out.dim == 2 and len(out) == 4
    assert set(out) == {CubeVector.from_string(x) for x in ("00", "20", "12", "32")}


def test_lift_identity_rejected_with_witness():
    s = vs(1, ["0", "2"])
    with pytest.raises(ValueError, match="overlap"):
        lift(s, Automorphism.identity(1))


def test_find_lift_shift_dim1():
    a = find_lift_shift(vs(1, ["0", "2"]))
    assert a is not None
    assert {str(a.apply(v)) for v in vs(1, ["0", "2"])} == {"1", "3"}


def test_find_lift_shift_full_space_has_none():
    assert find_lift_shift(vs(1, ["0", "1", "2", "3"])) is None


def test_find_lift_shift_regression_fixture(s10):
    # frozen outcome: the very first candidate works (rotation +1 on coordinate 0)
    a = find_lift_shift(s10)
    assert a is not None
    assert a.coord_perm == tuple(range(10))
    assert a.label_maps[0] == (1, 2, 3, 0)
    assert all(a.label_maps[i] == (0, 1, 2, 3) for i in range(1, 10))


def test_empty_set_lift_visits_no_coordinate(monkeypatch):
    # find_lift_shift and lift apply one rotation to no vectors: the image
    # is empty at once, with no pass over the 100 000 coordinates
    visits = []
    src_of_dest = Automorphism._src_of_dest
    monkeypatch.setattr(Automorphism, "_src_of_dest", lambda a: visits.append(a.dim) or src_of_dest(a))
    s = VectorSet(100_000, [])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        a = find_lift_shift(s)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a == Automorphism.rotation(100_000, 0, 1)
    # the rotation found holds a dim-long tuple of ints and one of label
    # maps; checking its permutation builds no second dim-long list of ints
    # (1.33 times what it holds; 2.17 with one)
    assert peak - base < 1.6 * (held - base)
    out = lift(s, a)
    assert (out.dim, len(out), visits) == (100_001, 0, [])
    # a non-empty set does walk the coordinates, so the count sees them
    lift(vs(2, ["00"]), Automorphism.rotation(2, 0, 1))
    assert visits == [2]


def grow_random_star_clique(dim, rng):
    spec = KellerGraphSpec(dim, STAR)
    verts = [CubeVector.from_index(dim, i) for i in range(4**dim)]
    rng.shuffle(verts)
    clique = []
    for v in verts:
        if all(has_edge(spec, v, u) for u in clique):
            clique.append(v)
    return VectorSet(dim, clique)


def test_lift_property_small_dims():
    rng = random.Random(12345)
    lifted_count = 0
    for _ in range(40):
        dim = rng.randint(2, 4)
        s = grow_random_star_clique(dim, rng)
        a = random_automorphism(dim, rng)
        if set(s.members) & set(s.apply(a).members):
            continue
        out = lift(s, a)
        assert len(out) == 2 * len(s)
        assert verify_clique(out, KellerGraphSpec(dim + 1, STAR)).is_clique
        lifted_count += 1
    assert lifted_count >= 10  # the property was actually exercised
