"""Standard simplicial sets: simplices, boundaries, horns, the classifying interval.

Cells of the standard n-simplex are named by their vertex sets, joined with
underscores ("0", "0_2", "0_1_2", ...), so inclusions are easy to read in
diagnostics and serialized files.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .simplex import Simplex, collapse_word, nondeg
from .sset import EMPTY, FinSSet, SMap, SSetError

__all__ = [
    "std_simplex",
    "boundary",
    "horn",
    "simplex_space_map",
    "delta_map",
    "sigma_map",
    "yoneda",
    "nerve_j",
    "interval_groupoid_skeleton",
]


def _subset_id(vertices: Sequence[int]) -> str:
    return "_".join(str(v) for v in vertices)


@lru_cache(maxsize=None)
def std_simplex(n: int) -> FinSSet:
    if n < 0:
        return EMPTY
    levels = []
    faces: dict[str, tuple[Simplex, ...]] = {}
    for m in range(n + 1):
        level = []
        for sub in itertools.combinations(range(n + 1), m + 1):
            cid = _subset_id(sub)
            level.append(cid)
            if m > 0:
                faces[cid] = tuple(
                    nondeg(_subset_id(sub[:i] + sub[i + 1 :])) for i in range(m + 1)
                )
        levels.append(tuple(level))
    return FinSSet(tuple(levels), faces)


@lru_cache(maxsize=None)
def boundary(n: int) -> tuple[FinSSet, SMap]:
    """The boundary of the n-simplex with its inclusion (empty when n = 0)."""
    full = std_simplex(n)
    gens = [c for c in full.nondegenerate(n - 1)] if n > 0 else []
    sub, incl = full.subcomplex(gens)
    return sub, incl


@lru_cache(maxsize=None)
def horn(n: int, k: int) -> tuple[FinSSet, SMap]:
    """The (n,k)-horn with its inclusion into the n-simplex."""
    if not (0 <= k <= n and n >= 1):
        raise SSetError(f"no horn ({n},{k})")
    full = std_simplex(n)
    omit = _subset_id(tuple(v for v in range(n + 1) if v != k))
    gens = [c for c in full.nondegenerate(n - 1) if c != omit]
    if not gens:  # n = 1: the horn is a single vertex
        gens = [_subset_id((1 - k,))]
    sub, incl = full.subcomplex(gens)
    return sub, incl


def simplex_space_map(m: int, n: int, vmap: Sequence[int]) -> SMap:
    """The simplicial map std(m) -> std(n) induced by a monotone vertex map."""
    if len(vmap) != m + 1 or any(a > b for a, b in zip(vmap, vmap[1:])):
        raise SSetError("vertex map must be weakly monotone of length m+1")
    src, tgt = std_simplex(m), std_simplex(n)
    assign = {}
    for c in src.nondegenerate():
        vs = tuple(int(p) for p in c.split("_"))
        values = tuple(vmap[v] for v in vs)
        word, support = collapse_word(values)
        assign[c] = Simplex(word, _subset_id(support))
    return SMap(src, tgt, assign)


@lru_cache(maxsize=None)
def delta_map(n: int, i: int) -> SMap:
    """Coface std(n-1) -> std(n) skipping vertex i."""
    return simplex_space_map(n - 1, n, tuple(v if v < i else v + 1 for v in range(n)))


@lru_cache(maxsize=None)
def sigma_map(n: int, i: int) -> SMap:
    """Codegeneracy std(n+1) -> std(n) repeating vertex i."""
    return simplex_space_map(n + 1, n, tuple(v if v <= i else v - 1 for v in range(n + 2)))


def yoneda(x: FinSSet, s: Simplex) -> SMap:
    """The map std(n) -> x classifying an n-simplex."""
    n = x.simplex_dim(s)
    src = std_simplex(n)
    assign = {}
    for c in src.nondegenerate():
        vs = tuple(int(p) for p in c.split("_"))
        assign[c] = x.restrict_along(s, vs)
    return SMap(src, x, assign)


# -- the classifying interval ----------------------------------------------


@lru_cache(maxsize=None)
def nerve_j(depth: int) -> FinSSet:
    """Truncated nerve of the walking isomorphism f: a -> b, g: b -> a (the
    classifying interval), realized up to dimension ``depth``.

    Each level n has two nondegenerate chains, one from ``a`` and one from
    ``b``, whose arrows alternate f and g; ``n_a__f__g`` is the chain
    a -f-> b -g-> a.  d_0 is the chain from the other object with one arrow
    fewer and d_n drops the last arrow.  Since f g and g f are identities, an
    inner face d_i is s_{i-1} of the chain with two arrows fewer.
    """

    def chain(start: int, n: int) -> str:
        return "__".join(["n_" + "ab"[start]] + ["fg"[(start + k) % 2] for k in range(n)])

    # level 0 holds the two objects even at a negative depth, which assert_valid refuses
    levels = [tuple(chain(start, n) for start in (0, 1)) for n in range(max(depth, 0) + 1)]
    faces: dict[str, tuple[Simplex, ...]] = {}
    for n in range(1, depth + 1):
        for start in (0, 1):
            faces[chain(start, n)] = (
                nondeg(chain(1 - start, n - 1)),
                *(Simplex((i - 1,), chain(start, n - 2)) for i in range(1, n)),
                nondeg(chain(start, n - 1)),
            )
    return FinSSet(tuple(levels), faces, depth).assert_valid()


@lru_cache(maxsize=None)
def interval_groupoid_skeleton(level: int) -> tuple[FinSSet, SMap]:
    """The level-skeleton of the classifying interval, with the edge inclusion.

    The skeleton is exact as an object, so maps out of it are genuinely
    enumerable; the returned map is std(1) -> skeleton picking the arrow
    a -> b, the edge whose invertibility the skeleton classifies.
    """
    sk = nerve_j(level).skeleton(level)
    edge = SMap(
        std_simplex(1),
        sk,
        {"0": nondeg("n_a"), "1": nondeg("n_b"), "0_1": nondeg("n_a__f")},
    ).assert_valid()
    return sk, edge
