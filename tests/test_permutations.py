from collections import Counter
from itertools import product
from math import factorial, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from braidedforms.permutations import (
    Permutation,
    all_permutations,
    gaussian_multinomial,
    shuffle_set,
)

perms4 = st.permutations(list(range(1, 5))).map(Permutation)


def transposition(j, a):
    """The adjacent transposition t_a = (a, a+1) in S_j."""
    images = list(range(1, j + 1))
    images[a - 1], images[a] = images[a], images[a - 1]
    return Permutation(images)


def word_to_permutation(j, word):
    """The product t_{a_1} ... t_{a_l} of the word's transpositions."""
    p = Permutation(range(1, j + 1))
    for a in word:
        p = p * transposition(j, a)
    return p


def reference_reduced_expression_left(p):
    """The left word by its own bubble sort: strip the left descents of p,
    the a-positions of p^{-1}, recording each as it is stripped."""
    word = []
    inv = list(p.inverse().images)
    while True:
        for a in range(len(inv) - 1):
            if inv[a] > inv[a + 1]:
                inv[a], inv[a + 1] = inv[a + 1], inv[a]
                word.append(a + 1)
                break
        else:
            break
    return tuple(word)


class TestPermutation:
    def test_left_word_matches_its_own_sort(self):
        for n in range(1, 7):
            for p in all_permutations(n):
                assert p.reduced_expression_left() == reference_reduced_expression_left(p)

    def test_length(self):
        assert Permutation(range(1, 5)).length() == 0
        assert transposition(3, 1).length() == 1
        for n in range(1, 6):
            rev = Permutation(range(n, 0, -1))
            assert rev.length() == n * (n - 1) // 2

    def test_length_counts_inversions(self):
        for n in range(7):
            for p in all_permutations(n):
                im = p.images
                pairs = sum(im[a] > im[b] for a in range(n) for b in range(a + 1, n))
                assert p.length() == pairs == len(p.reduced_expression())

    def test_reduced_expression_examples(self):
        assert Permutation(range(1, 4)).reduced_expression() == ()
        assert transposition(4, 2).reduced_expression() == (2,)
        rev3 = Permutation((3, 2, 1))
        assert len(rev3.reduced_expression()) == 3

    @settings(max_examples=60, deadline=None)
    @given(perms4)
    def test_reduced_words_multiply_back(self, p):
        for word in (p.reduced_expression(), p.reduced_expression_left()):
            assert len(word) == p.length()
            assert word_to_permutation(4, word) == p

    @settings(max_examples=60, deadline=None)
    @given(perms4, perms4)
    def test_length_subadditive(self, p, q):
        assert (p * q).length() <= p.length() + q.length()
        assert p.inverse().length() == p.length()

    @settings(max_examples=30, deadline=None)
    @given(perms4)
    def test_group_axioms(self, p):
        e = Permutation(range(1, 5))
        assert p * p.inverse() == e == p.inverse() * p
        assert p * e == p == e * p

    def test_all_permutations_count(self):
        for n in range(1, 6):
            assert len(list(all_permutations(n))) == factorial(n)


class TestShuffles:
    def test_cardinality_is_multinomial(self):
        for parts in [(3,), (2, 1), (1, 1, 1), (2, 2), (0, 3), (1, 2, 2)]:
            pi = tuple(parts)
            for side in ("upper", "lower"):
                count = factorial(sum(pi)) // prod(factorial(k) for k in parts)
                assert len(shuffle_set(pi, side)) == count

    def test_trivial_partition(self):
        assert shuffle_set((4,), "upper") == [Permutation(range(1, 5))]

    def test_singleton_parts_give_whole_group(self):
        got = set(shuffle_set((1, 1, 1), "upper"))
        assert got == set(all_permutations(3))

    def test_lower_shuffles_block_monotone(self):
        for sigma in shuffle_set((2, 2), "lower"):
            for block in ((1, 2), (3, 4)):
                values = [sigma(i) for i in block]
                assert values == sorted(values)

    def test_upper_shuffles_preserve_order_onto_blocks(self):
        # the inverse convention: sigma^-1 increasing on each block
        pi = (2, 1, 2)
        upper = set(shuffle_set(pi, "upper"))
        lower = set(shuffle_set(pi, "lower"))
        assert {p.inverse() for p in upper} == lower

    def test_gaussian_multinomial_counts_lengths(self):
        # c_i of the Gaussian multinomial is the number of shuffles of length
        # i, on either side, for every partition of total <= 7 in <= 3 parts
        for size in (1, 2, 3):
            for parts in product(range(8), repeat=size):
                if sum(parts) > 7:
                    continue
                coeffs = gaussian_multinomial(parts)
                for side in ("lower", "upper"):
                    lengths = Counter(s.length() for s in shuffle_set(tuple(parts), side))
                    assert coeffs == [lengths[i] for i in range(max(lengths) + 1)], \
                        (parts, side)
