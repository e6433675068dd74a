from collections import Counter
from itertools import permutations, product
from math import factorial, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from braidedforms.permutations import (
    gaussian_multinomial,
    inverted,
    length,
    reduced_word,
    shuffle_set,
)

perms4 = st.permutations(list(range(1, 5))).map(tuple)


def all_permutations(j):
    """S_j in one-line notation, in lexicographic order."""
    return list(permutations(range(1, j + 1)))


def compose(p, q):
    """The product p q, composed as functions: (p q)(i) = p(q(i))."""
    return tuple(p[i - 1] for i in q)


def transposition(j, a):
    """The adjacent transposition t_a = (a, a+1) in S_j."""
    images = list(range(1, j + 1))
    images[a - 1], images[a] = images[a], images[a - 1]
    return tuple(images)


def word_to_permutation(j, word):
    """The product t_{a_1} ... t_{a_l} of the word's transpositions."""
    p = tuple(range(1, j + 1))
    for a in word:
        p = compose(p, transposition(j, a))
    return p


def left_word(p):
    """A second reduced word, from the left descents: p^{-1}'s canonical
    word reversed, since (t_{a_1} ... t_{a_l})^{-1} is t_{a_l} ... t_{a_1}."""
    return reduced_word(inverted(p))[::-1]


def reference_left_word(p):
    """The left word by its own bubble sort: strip the left descents of p,
    the a-positions of p^{-1}, recording each as it is stripped."""
    word = []
    inv = list(inverted(p))
    while True:
        for a in range(len(inv) - 1):
            if inv[a] > inv[a + 1]:
                inv[a], inv[a + 1] = inv[a + 1], inv[a]
                word.append(a + 1)
                break
        else:
            break
    return tuple(word)


def reference_shuffles(parts, side):
    """The shuffle set by brute force over S_j: the permutations increasing
    on each consecutive block (lower) or their inverses (upper), sorted."""
    j = sum(parts)
    ends = [sum(parts[:i + 1]) for i in range(len(parts))]
    blocks = [range(end - k, end) for k, end in zip(parts, ends)]
    lower = [p for p in all_permutations(j)
             if all(p[i] < p[i + 1] for block in blocks for i in block[:-1])]
    return sorted(lower if side == "lower" else map(inverted, lower))


class TestPermutation:
    def test_left_word_matches_its_own_sort(self):
        for n in range(1, 7):
            for p in all_permutations(n):
                assert left_word(p) == reference_left_word(p)

    def test_length(self):
        assert length((1, 2, 3, 4)) == 0
        assert length(transposition(3, 1)) == 1
        for n in range(1, 6):
            rev = tuple(range(n, 0, -1))
            assert length(rev) == n * (n - 1) // 2

    def test_length_counts_inversions(self):
        for n in range(7):
            for p in all_permutations(n):
                pairs = sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n))
                assert length(p) == pairs == len(reduced_word(p))

    def test_reduced_word_examples(self):
        assert reduced_word((1, 2, 3)) == ()
        assert reduced_word(transposition(4, 2)) == (2,)
        assert len(reduced_word((3, 2, 1))) == 3

    @settings(max_examples=60, deadline=None)
    @given(perms4)
    def test_reduced_words_multiply_back(self, p):
        for word in (reduced_word(p), left_word(p)):
            assert len(word) == length(p)
            assert word_to_permutation(4, word) == p

    @settings(max_examples=60, deadline=None)
    @given(perms4, perms4)
    def test_length_subadditive(self, p, q):
        assert length(compose(p, q)) <= length(p) + length(q)
        assert length(inverted(p)) == length(p)

    @settings(max_examples=30, deadline=None)
    @given(perms4)
    def test_group_axioms(self, p):
        e = (1, 2, 3, 4)
        assert compose(p, inverted(p)) == e == compose(inverted(p), p)
        assert compose(p, e) == p == compose(e, p)
        assert inverted(inverted(p)) == p


class TestShuffles:
    def test_cardinality_is_multinomial(self):
        for parts in [(3,), (2, 1), (1, 1, 1), (2, 2), (0, 3), (1, 2, 2)]:
            pi = tuple(parts)
            for side in ("upper", "lower"):
                count = factorial(sum(pi)) // prod(factorial(k) for k in parts)
                assert len(shuffle_set(pi, side)) == count

    def test_trivial_partition(self):
        assert shuffle_set((4,), "upper") == [(1, 2, 3, 4)]

    def test_singleton_parts_give_whole_group(self):
        got = set(shuffle_set((1, 1, 1), "upper"))
        assert got == set(all_permutations(3))

    def test_lower_shuffles_block_monotone(self):
        for sigma in shuffle_set((2, 2), "lower"):
            for block in ((1, 2), (3, 4)):
                values = [sigma[i - 1] for i in block]
                assert values == sorted(values)

    def test_upper_shuffles_preserve_order_onto_blocks(self):
        # the inverse convention: sigma^-1 increasing on each block
        pi = (2, 1, 2)
        upper = set(shuffle_set(pi, "upper"))
        lower = set(shuffle_set(pi, "lower"))
        assert set(map(inverted, upper)) == lower

    def test_shuffle_sets_by_brute_force(self):
        # every composition of at most 3 parts, zeros included, of total <= 6:
        # the same shuffles in the same order, which is the order in which a
        # multinomial sums its terms
        for size in (1, 2, 3):
            for parts in product(range(7), repeat=size):
                if sum(parts) > 6:
                    continue
                for side in ("lower", "upper"):
                    assert shuffle_set(parts, side) == reference_shuffles(parts, side), \
                        (parts, side)

    def test_gaussian_multinomial_counts_lengths(self):
        # c_i of the Gaussian multinomial is the number of shuffles of length
        # i, on either side, for every partition of total <= 7 in <= 3 parts
        for size in (1, 2, 3):
            for parts in product(range(8), repeat=size):
                if sum(parts) > 7:
                    continue
                coeffs = gaussian_multinomial(parts)
                for side in ("lower", "upper"):
                    lengths = Counter(map(length, shuffle_set(tuple(parts), side)))
                    assert coeffs == [lengths[i] for i in range(max(lengths) + 1)], \
                        (parts, side)
