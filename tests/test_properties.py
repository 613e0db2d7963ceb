"""Property tests: the one edge kernel, the packed automorphism routine and the
packed VectorSet, each pinned to its digit-wise definition at dims 1..40.

Dims above 32 exercise the object arrays of Python ints that VectorSet uses
there; every form of the kernel (Python int, uint64 array, object array) must
agree with ``digit_gap``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from keller.construction import VectorSet
from keller.core import (
    DIHEDRAL_LABEL_MAPS,
    Automorphism,
    CubeVector,
    _edge,
    digit_gap,
)

PROPERTY = settings(max_examples=200, deadline=None)


def pack(digits):
    return sum(d << (2 * i) for i, d in enumerate(digits))


def oracle_edge(u, v, star):
    gap2 = any(digit_gap(a, b) == 2 for a, b in zip(u, v))
    differing = sum(1 for a, b in zip(u, v) if digit_gap(a, b) != 0)
    return gap2 and (not star or differing >= 2)


def digits_of(dim):
    return st.lists(st.integers(0, 3), min_size=dim, max_size=dim).map(tuple)


@st.composite
def vector_pairs(draw):
    """A dimension and pairs of vectors, most of them differing in a few coordinates.

    Uniformly random vectors of a large dimension are almost always adjacent;
    changing only a few coordinates keeps both outcomes common.
    """
    dim = draw(st.integers(1, 40))
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        u = draw(digits_of(dim))
        if draw(st.booleans()):
            v = draw(digits_of(dim))
        else:
            v = list(u)
            moves = st.tuples(st.integers(0, dim - 1), st.integers(1, 3))
            for coord, step in draw(st.lists(moves, max_size=3)):
                v[coord] = (v[coord] + step) % 4
            v = tuple(v)
        pairs.append((u, v))
    return dim, pairs


@st.composite
def automorphisms(draw):
    dim = draw(st.integers(1, 40))
    perm = tuple(draw(st.permutations(range(dim))))
    maps = tuple(draw(st.lists(st.sampled_from(DIHEDRAL_LABEL_MAPS), min_size=dim, max_size=dim)))
    vectors = draw(st.lists(digits_of(dim), min_size=1, max_size=6))
    return Automorphism(perm, maps), vectors


@PROPERTY
@given(vector_pairs(), st.booleans())
def test_edge_kernel_on_ints_matches_digit_gap(case, star):
    dim, pairs = case
    for u, v in pairs:
        assert _edge(pack(u) ^ pack(v), dim, star) is oracle_edge(u, v, star)


@PROPERTY
@given(vector_pairs(), st.booleans())
def test_edge_kernel_on_arrays_matches_digit_gap(case, star):
    dim, pairs = case
    want = [oracle_edge(u, v, star) for u, v in pairs]
    xors = [pack(u) ^ pack(v) for u, v in pairs]
    dtypes = [object, np.uint64] if dim <= 32 else [object]
    for dtype in dtypes:
        got = _edge(np.array(xors, dtype=dtype), dim, star)
        assert got.dtype == bool
        assert got.tolist() == want


@PROPERTY
@given(automorphisms())
def test_packed_automorphism_matches_digit_definition(case):
    a, vectors = case
    src_of = {dest: src for src, dest in enumerate(a.coord_perm)}
    want = [
        pack(a.label_maps[j][m[src_of[j]]] for j in range(a.dim)) for m in vectors
    ]
    assert [a._apply_packed(pack(m)) for m in vectors] == want
    assert [a.apply(CubeVector.from_digits(m)).packed for m in vectors] == want
    dtypes = [object, np.uint64] if a.dim <= 32 else [object]
    for dtype in dtypes:
        got = a._apply_packed(np.array([pack(m) for m in vectors], dtype=dtype))
        assert got.tolist() == want


@PROPERTY
@given(st.integers(1, 40).flatmap(lambda dim: st.tuples(
    st.just(dim), st.lists(digits_of(dim), unique=True, max_size=12), digits_of(dim))))
def test_vector_set_order_membership_and_equality(case):
    dim, vectors, probe = case
    s = VectorSet(dim, (CubeVector.from_digits(m) for m in vectors))
    assert s.packed.dtype == (np.uint64 if dim <= 32 else object)
    assert not s.packed.flags.writeable
    assert [v.digits for v in s] == sorted(vectors)
    assert s.members == tuple(s)
    assert (CubeVector.from_digits(probe) in s) == (probe in vectors)
    shuffled = VectorSet._from_packed(dim, [pack(m) for m in reversed(vectors)])
    assert shuffled == s
    assert hash(shuffled) == hash(s)
