"""Permutations, reduced words, and shuffle sets.

Permutations act on {1..j} and are stored in one-line notation.  Products
compose as functions: (s*t)(i) = s(t(i)).  Shuffle sets follow the braided
multinomial convention: for a composition (j_1,...,j_r) of j, a tuple of
non-negative parts, the lower set consists of the permutations that are
increasing on each consecutive block, and the upper set is its set of
inverses.  On either side, the number of shuffles of each length is a
coefficient of the Gaussian multinomial (`gaussian_multinomial`).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, zip_longest
from typing import Iterator

from .errors import ShapeError


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ShapeError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.size != other.size:
            raise ShapeError("permutation size mismatch")
        return Permutation(self.images[other.images[i] - 1] for i in range(self.size))

    def inverse(self) -> "Permutation":
        images = [0] * self.size
        for i, v in enumerate(self.images):
            images[v - 1] = i + 1
        return Permutation(images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"

    def length(self) -> int:
        """Number of inversions = length of any reduced word: each image
        counts the smaller images to its right, found by bisection."""
        count = 0
        seen = []
        for v in reversed(self.images):
            k = bisect_left(seen, v)
            count += k
            seen.insert(k, v)
        return count

    def reduced_expression(self) -> tuple[int, ...]:
        """Canonical reduced word (bubble sort): right-multiply away the
        leftmost descent.  Product t_{a_1} ... t_{a_l} (leftmost applied last)
        equals the permutation."""
        word = []
        images = list(self.images)
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

    def reduced_expression_left(self) -> tuple[int, ...]:
        """A second reduced word, from the left descents: sigma^{-1}'s
        canonical word reversed, since (t_{a_1} ... t_{a_l})^{-1} is
        t_{a_l} ... t_{a_1}; generally differs from reduced_expression."""
        return tuple(reversed(self.inverse().reduced_expression()))


def all_permutations(j: int) -> Iterator[Permutation]:
    from itertools import permutations as _perms

    for images in _perms(range(1, j + 1)):
        yield Permutation(images)


def shuffle_set(parts, side: str) -> list[Permutation]:
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

    lower = [Permutation(images) for images in laid(parts, range(1, sum(parts) + 1))]
    if side == "lower":
        result = lower
    elif side == "upper":
        result = [p.inverse() for p in lower]
    else:
        raise ValueError(f"side must be lower or upper, got {side!r}")
    return sorted(result, key=lambda p: p.images)


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
