"""Permutations, reduced words, and shuffle sets.

A permutation of {1..j} is the tuple of its one-line images; `length`,
`reduced_word` and `inverted` read it.  Shuffle sets follow the braided
multinomial convention: for a composition (j_1,...,j_r) of j, a tuple of
non-negative parts, the lower set consists of the permutations that are
increasing on each consecutive block, and the upper set is its set of
inverses.  On either side, the number of shuffles of each length is a
coefficient of the Gaussian multinomial (`gaussian_multinomial`).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, zip_longest


def length(p) -> int:
    """Number of inversions = length of any reduced word: each image
    counts the smaller images to its right, found by bisection."""
    count = 0
    seen = []
    for v in reversed(p):
        k = bisect_left(seen, v)
        count += k
        seen.insert(k, v)
    return count


def reduced_word(p) -> tuple[int, ...]:
    """Canonical reduced word (bubble sort): right-multiply away the
    leftmost descent.  Product t_{a_1} ... t_{a_l} (leftmost applied last)
    equals the permutation."""
    word = []
    images = list(p)
    while True:
        for a in range(len(images) - 1):
            if images[a] > images[a + 1]:
                images[a], images[a + 1] = images[a + 1], images[a]
                word.append(a + 1)
                break
        else:
            break
    # sigma = sigma' * t_a collects a last-to-first
    return tuple(reversed(word))


def inverted(p) -> tuple[int, ...]:
    """The inverse permutation, in one-line notation."""
    images = [0] * len(p)
    for i, v in enumerate(p):
        images[v - 1] = i + 1
    return tuple(images)


def shuffle_set(parts, side: str) -> list[tuple[int, ...]]:
    """Shuffles for the composition parts = (j_1, ..., j_r) of j = sum(parts),
    a tuple of non-negative ints.

    side="lower": permutations increasing on each consecutive block (the
    inverse shuffle set); side="upper": their inverses (order-preserving onto
    each block).  Generated combinatorially, sorted by one-line notation.
    """
    def laid(rest, free):
        # one-line images: each block an increasing choice among the values
        # still free, laid end to end
        if not rest:
            yield ()
            return
        for chosen in combinations(free, rest[0]):
            left = [v for v in free if v not in chosen]
            for tail in laid(rest[1:], left):
                yield chosen + tail

    lower = laid(parts, range(1, sum(parts) + 1))
    if side == "lower":
        return sorted(lower)
    if side == "upper":
        return sorted(map(inverted, lower))
    raise ValueError(f"side must be lower or upper, got {side!r}")


def gaussian_multinomial(parts) -> list[int]:
    """Coefficients c_0, c_1, ... of the Gaussian multinomial [j over parts]_q:
    c_i is the number of shuffles of length i for the composition `parts` of j,
    on either side.  It is the product over the blocks of the Gaussian
    binomials [l + k over k] (k the block, l the blocks before it), each from
    the q-Pascal rule [k+l over k] = [k+l-1 over k-1] + q^k [k+l-1 over k]."""
    coeffs = [1]
    l = 0
    for k in parts:
        row = [[1]] * (l + 1)  # row[b] = [a + b over a], from a = 0 up to a = k
        for a in range(1, k + 1):
            nxt = [[1]]
            for b in range(1, l + 1):
                nxt.append([x + y for x, y in
                            zip_longest(row[b], [0] * a + nxt[b - 1], fillvalue=0)])
            row = nxt
        product = [0] * (len(coeffs) + len(row[l]) - 1)
        for i, x in enumerate(coeffs):
            for t, y in enumerate(row[l]):
                product[i + t] += x * y
        coeffs = product
        l += k
    return coeffs
