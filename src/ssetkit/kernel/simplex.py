"""Simplex values in Eilenberg-Zilber normal form.

Every simplex of a finite simplicial set is written uniquely as a strictly
decreasing word of degeneracy operators applied to a nondegenerate base cell.
This module knows the word combinatorics; the simplicial set itself (which
owns the face tables of the nondegenerate cells) lives in `sset`.

A ``Simplex`` is a named tuple ``(word, base)``, so hashing, equality and
ordering run in C, and construction is one tuple allocation.  It equals the
plain tuple ``(word, base)`` and hashes like it; its order is the tuple
order.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple


class Simplex(NamedTuple):
    """A possibly-degenerate simplex: degeneracy word applied to a base cell.

    ``word`` is strictly decreasing and stored outermost-first, so
    ``Simplex((2, 0), "e")`` means ``s_2 s_0 e``.
    """

    word: tuple[int, ...]
    base: str

    def __repr__(self) -> str:  # compact, used in diagnostics
        if not self.word:
            return f"<{self.base}>"
        ops = " ".join(f"s{i}" for i in self.word)
        return f"<{ops} {self.base}>"


def nondeg(base: str) -> Simplex:
    """The simplex value of a nondegenerate cell itself."""
    return Simplex((), base)


def word_insert(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Normalize ``s_i`` composed outside a strictly decreasing word.

    Uses s_i s_j = s_{j+1} s_i (for i <= j) to push the new operator inward
    until the word is strictly decreasing again.
    """
    out: list[int] = []
    k = 0
    for w in word:
        if i > w:
            break
        out.append(w + 1)
        k += 1
    return tuple(out) + (i,) + word[k:]


def word_is_valid(word: tuple[int, ...], base_dim: int) -> bool:
    """Check the word is strictly decreasing and applicable to ``base_dim``."""
    if any(a <= b for a, b in zip(word, word[1:])):
        return False
    # applying innermost-first: the t-th operator from the inside acts on a
    # simplex of dimension base_dim + t
    for t, i in enumerate(reversed(word)):
        if not 0 <= i <= base_dim + t:
            return False
    return True


def degeneracy_words(base_dim: int, target_dim: int) -> list[tuple[int, ...]]:
    """All valid strictly decreasing words raising ``base_dim`` to ``target_dim``.

    Listed in lexicographic order of the word tuples.  Every strictly
    decreasing word over 0..target_dim-1 of that length is applicable: its
    t-th operator from the inside is at most base_dim + t.
    """
    if target_dim < base_dim:
        return []
    return sorted(tuple(reversed(w)) for w in combinations(range(target_dim), target_dim - base_dim))


def collapse_word(values: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """EZ-normalize a weakly increasing vertex sequence.

    Returns ``(word, support)`` where ``support`` is the strictly increasing
    sequence of distinct values and ``word`` the degeneracy word such that the
    simplex with vertex sequence ``values`` equals the word applied to the
    simplex spanned by ``support``.
    """
    support = tuple(sorted(set(values)))
    word = tuple(
        sorted((j for j in range(len(values) - 1) if values[j] == values[j + 1]), reverse=True)
    )
    return word, support
