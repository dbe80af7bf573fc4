import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonance_sizer import ValidationError, enumerate_classes
from resonance_sizer._sweep import perm_blocks, term_arrays
from resonance_sizer.errors import SizeMismatch, TooLarge
from resonance_sizer.permutations import _class_members, _cycles, _has_even_cycle
from tests.permutation_reference import (
    Permutation,
    class_mates,
    classes_by_codes,
    cycle_decompose,
    edge_equivalent,
    edge_multigraph,
    permutation_sign,
)

perms = st.integers(2, 7).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda p: Permutation(tuple(p)))
)
perms_to_8 = st.integers(2, 8).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda p: Permutation(tuple(p)))
)


@st.composite
def two_long_cycles(draw):
    """A permutation of 6 to 8 points that is two cycles of length >= 3."""
    n = draw(st.integers(6, 8))
    order = draw(st.permutations(list(range(n))))
    cut = draw(st.integers(3, n - 3))
    return Permutation.from_cycles(n, [order[:cut], order[cut:]])


def rank_parity(ranks: np.ndarray, n: int) -> np.ndarray:
    """Inversion-count parity of lexicographic ranks (0 even, 1 odd): the
    sum of the factorial-base digits of a rank is its inversion count."""
    ranks = np.asarray(ranks, dtype=np.int64)
    total = np.zeros_like(ranks)
    f = math.factorial(n - 1)
    for i in range(n - 1):
        total += (ranks // f) % (n - i)
        f //= n - 1 - i
    return total & 1


def inversion_sign(image):
    inv = sum(
        1
        for i, j in itertools.combinations(range(len(image)), 2)
        if image[i] > image[j]
    )
    return -1 if inv % 2 else 1


def test_permutation_validation():
    with pytest.raises(ValidationError):
        Permutation((0, 0, 1))
    with pytest.raises(ValidationError):
        Permutation((1, 2, 3))


def test_cycle_decompose_identity():
    dec = cycle_decompose(Permutation.identity(3))
    assert dec == ((0,), (1,), (2,))
    assert len(dec) == 3


def test_cycle_decompose_three_cycle():
    dec = cycle_decompose(Permutation((1, 2, 0)))
    assert dec == ((0, 1, 2),)
    assert len(dec) == 1


def test_cycle_decompose_two_transpositions():
    dec = cycle_decompose(Permutation((1, 0, 3, 2)))
    assert dec == ((0, 1), (2, 3))
    assert len(dec) == 2


def test_from_cycles_roundtrip():
    sigma = Permutation.from_cycles(5, [(0, 3), (1, 4, 2)])
    assert sigma.image == (3, 4, 1, 0, 2)
    rebuilt = Permutation.from_cycles(5, cycle_decompose(sigma))
    assert rebuilt == sigma


def test_sign_examples():
    assert permutation_sign(Permutation.identity(4)) == 1
    assert permutation_sign(Permutation((1, 0, 2, 3))) == -1
    assert permutation_sign(Permutation((1, 2, 0))) == 1


@given(perms)
def test_sign_matches_inversion_count(sigma):
    assert permutation_sign(sigma) == inversion_sign(sigma.image)


@given(perms)
def test_sign_of_inverse(sigma):
    assert permutation_sign(sigma) == permutation_sign(sigma.inverse())


def test_rank_parity_matches_sign():
    for n in (2, 3, 4, 5, 6):
        for rank, image in enumerate(itertools.permutations(range(n))):
            parity = int(rank_parity(np.array([rank]), n)[0])
            assert (-1) ** parity == permutation_sign(Permutation(image))


@pytest.mark.parametrize("n", range(2, 10))
def test_perm_blocks_match_itertools(n):
    blocks = list(perm_blocks(n))
    reference = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    assert np.array_equal(np.concatenate([b for _, b in blocks]), reference)
    parity = np.concatenate([p for p, _ in blocks])
    assert np.array_equal(parity, rank_parity(np.arange(len(reference)), n))
    assert all(b.dtype == np.int64 and len(p) == len(b) for p, b in blocks)
    if n <= 7:  # n! fits one default block: the cached table itself
        assert len(blocks) == 1 and not blocks[0][1].flags.writeable


@pytest.mark.parametrize("block_size", [1, 2, 7, 24, 100])
def test_perm_blocks_small_blocks(block_size):
    reference = np.array(list(itertools.permutations(range(5))), dtype=np.int64)
    blocks = list(perm_blocks(5, block_size))
    assert max(len(b) for _, b in blocks) <= block_size
    assert np.array_equal(np.concatenate([b for _, b in blocks]), reference)
    start = 0
    for parity, block in blocks:
        ranks = np.arange(start, start + len(block))
        assert np.array_equal(block, reference[ranks])
        assert np.array_equal(parity, rank_parity(ranks, 5))
        start += len(block)


@pytest.mark.parametrize("n", range(2, 9))
def test_term_arrays_weights_signed_by_rank_parity(n):
    rng = np.random.default_rng(n)
    pts = rng.uniform(size=(n, 3))
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    _, w, _ = term_arrays(d[None])
    ar = np.arange(n)
    k1 = np.concatenate(
        [1.0 / np.where(b == ar, 1.0, d[ar, b]).prod(axis=1) for _, b in perm_blocks(n)]
    )
    expected = np.where(rank_parity(np.arange(len(k1)), n), -k1, k1)
    assert w.tobytes() == expected.tobytes()


def test_edge_multigraph_identity_loops():
    g = edge_multigraph(Permutation.identity(2))
    assert g == ((0, 0), (1, 1))
    assert g.count((0, 0)) == 1


def test_edge_multigraph_swap_double_edge():
    g = edge_multigraph(Permutation((1, 0)))
    assert g == ((0, 1), (0, 1))
    assert g.count((0, 1)) == 2


def test_edge_multigraph_three_cycle_simple_edges():
    g = edge_multigraph(Permutation((1, 2, 0)))
    assert g == ((0, 1), (0, 2), (1, 2))


def test_edge_multigraph_total_multiplicity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        sigma = Permutation(tuple(rng.permutation(n)))
        assert len(edge_multigraph(sigma)) == n


def test_edge_equivalent_examples():
    three = Permutation((1, 2, 0))
    assert edge_equivalent(three, three)
    assert edge_equivalent(three, three.inverse())
    assert not edge_equivalent(Permutation((1, 0, 2)), Permutation((2, 1, 0)))


def test_edge_equivalent_size_mismatch():
    with pytest.raises(SizeMismatch):
        edge_equivalent(Permutation((1, 0)), Permutation((1, 0, 2)))


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(*(st.permutations(list(range(n))),) * 3)))
@settings(max_examples=60)
def test_edge_equivalence_is_equivalence_relation(triple):
    a, b, c = (Permutation(tuple(p)) for p in triple)
    assert edge_equivalent(a, a)
    assert edge_equivalent(a, b) == edge_equivalent(b, a)
    if edge_equivalent(a, b) and edge_equivalent(b, c):
        assert edge_equivalent(a, c)


def test_class_mates_identity():
    assert class_mates(Permutation.identity(4)) == [Permutation.identity(4)]


def test_class_mates_three_cycle():
    sigma = Permutation((1, 2, 0))
    mates = class_mates(sigma)
    assert set(m.image for m in mates) == {(1, 2, 0), (2, 0, 1)}


def test_class_mates_mixed_cycles():
    sigma = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert len(class_mates(sigma)) == 2


@given(perms)
@settings(max_examples=60)
def test_class_mates_size_and_equivalence(sigma):
    mates = class_mates(sigma)
    long_cycles = sum(1 for c in cycle_decompose(sigma) if len(c) >= 3)
    assert len(mates) == 2**long_cycles
    for mate in mates:
        assert edge_equivalent(sigma, mate)
        assert permutation_sign(mate) == permutation_sign(sigma)


def test_class_mates_equals_brute_class():
    # brute force: group all of S_5 by multigraph, compare with class_mates
    sigma = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    brute = [
        Permutation(p)
        for p in itertools.permutations(range(5))
        if edge_equivalent(Permutation(p), sigma)
    ]
    assert class_mates(sigma) == brute


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 5), (4, 17)])
def test_enumerate_classes_counts(n, expected):
    assert len(enumerate_classes(n)) == expected


def representatives(classes):
    return [Permutation(image) for image in classes.tolist()]


def test_enumerate_classes_representatives_are_canonical():
    classes = enumerate_classes(4)
    for rep in representatives(classes):
        assert rep == class_mates(rep)[0]  # lexicographically smallest member
    reps = [r.image for r in representatives(classes)]
    assert reps == sorted(reps)


@pytest.mark.parametrize("n", range(2, 9))
def test_enumerate_classes_images_array(n):
    images = enumerate_classes(n)
    assert images.ndim == 2 and images.shape[1] == n and not images.flags.writeable
    assert enumerate_classes(n) is images  # cached
    # each row is the lexicographically smallest member of its class
    assert np.array_equal(images, [class_mates(r)[0].image for r in representatives(images)])


def test_enumerate_classes_covers_sn():
    classes = enumerate_classes(4)
    for image in itertools.permutations(range(4)):
        sigma = Permutation(image)
        hits = sum(
            1 for rep in representatives(classes) if edge_equivalent(sigma, rep)
        )
        assert hits == 1


def test_enumerate_classes_bounds():
    with pytest.raises(TooLarge):
        enumerate_classes(11)
    with pytest.raises(ValidationError):
        enumerate_classes(1)


@pytest.mark.parametrize("n", [2.0, 3.5, True, "4"])
def test_enumerate_classes_rejects_non_integers(n):
    enumerate_classes(2)  # a cached int key must not answer for 2.0 or True
    with pytest.raises(ValidationError, match="must be an integer"):
        enumerate_classes(n)


def test_enumerate_classes_cache_clear():
    images = enumerate_classes(5)
    enumerate_classes.cache_clear()
    again = enumerate_classes(5)
    assert again is not images and np.array_equal(again, images)
    assert enumerate_classes(5) is again


@pytest.mark.parametrize("n", range(2, 10))
def test_enumerate_classes_matches_multigraph_codes(n):
    images = enumerate_classes(n)
    want, sizes = classes_by_codes(n)
    assert type(images) is np.ndarray and images.dtype == np.int8
    assert not images.flags.writeable
    assert np.array_equal(images, want)
    # the oracle's classes partition S_N, each of 2^k members for the k
    # cycles of length >= 3 of its representative (`_cycles` is checked
    # against cycle_decompose below)
    assert sum(sizes) == math.factorial(n)
    long_cycles = [sum(len(c) >= 3 for c in _cycles(row)) for row in images.tolist()]
    assert sizes == tuple(2**k for k in long_cycles)


@given(st.one_of(perms_to_8, two_long_cycles()))
@settings(max_examples=150)
def test_class_members_match_class_mates(sigma):
    members = _class_members(np.array(sigma.image)).tolist()
    assert tuple(members[0]) == sigma.image
    assert sorted(map(tuple, members)) == [m.image for m in class_mates(sigma)]


@given(perms_to_8)
@settings(max_examples=150)
def test_cycles_and_even_cycle_test_match_cycle_decompose(sigma):
    decomposed = cycle_decompose(sigma)
    assert [tuple(c) for c in _cycles(np.array(sigma.image))] == list(decomposed)
    even = any(len(c) >= 4 and len(c) % 2 == 0 for c in decomposed)
    assert _has_even_cycle(np.array(sigma.image)) == even

