"""Standard simplicial sets: simplices, boundaries, horns, nerves.

Cells of the standard n-simplex are named by their vertex sets, joined with
underscores ("0", "0_2", "0_1_2", ...), so inclusions are easy to read in
diagnostics and serialized files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional, Sequence

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
    "CategoryPresentation",
    "nerve",
    "walking_iso_category",
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


# -- nerves of finite categories ------------------------------------------


@dataclass(frozen=True)
class CategoryPresentation:
    """A finite category given by its full composition table.

    ``arrows`` maps non-identity arrow names to (source, target) objects.
    ``compose`` maps pairs (f, g) with f: a -> b, g: b -> c (apply f first)
    to the name of the composite, or to ``None`` meaning an identity arrow.
    """

    objects: tuple[str, ...]
    arrows: Mapping[str, tuple[str, str]]
    compose: Mapping[tuple[str, str], Optional[str]]

    def src(self, a: str) -> str:
        return self.arrows[a][0]

    def tgt(self, a: str) -> str:
        return self.arrows[a][1]

    def validate(self) -> list[str]:
        problems = []
        for (f, g), h in self.compose.items():
            if self.tgt(f) != self.src(g):
                problems.append(f"compose entry ({f},{g}) not composable")
                continue
            if h is not None and (self.src(h), self.tgt(h)) != (self.src(f), self.tgt(g)):
                problems.append(f"composite {h} of ({f},{g}) has wrong endpoints")
        for f in self.arrows:
            for g in self.arrows:
                if self.tgt(f) == self.src(g) and (f, g) not in self.compose:
                    problems.append(f"missing composite for ({f},{g})")
        return problems

    def comp(self, f: Optional[str], g: Optional[str]) -> Optional[str]:
        """Composition with None standing for identity arrows."""
        if f is None:
            return g
        if g is None:
            return f
        return self.compose[(f, g)]


ID = None  # identity marker inside chains


def nerve(cat: CategoryPresentation, depth: int) -> FinSSet:
    """The nerve, realized up to dimension ``depth``.

    Exact when some level at or below ``depth`` carries no nondegenerate
    chain (then nothing nondegenerate can appear above it either), otherwise
    truncated at ``depth``.
    """
    problems = cat.validate()
    if problems:
        raise SSetError("; ".join(problems))

    # chains at level n: (start_object, arrows...) with len == n, identities
    # excluded -- a chain containing an identity is degenerate, and every
    # degenerate simplex is a degeneracy word applied to such a reduced chain.
    # We realize nondegenerate chains directly.
    levels: list[tuple[str, ...]] = [tuple(f"n_{o}" for o in sorted(cat.objects))]
    chain_of = {f"n_{o}": (o,) for o in cat.objects}
    faces: dict[str, tuple[Simplex, ...]] = {}

    def chains(n: int):
        if n == 0:
            for o in sorted(cat.objects):
                yield (o,)
            return
        for prefix in chains(n - 1):
            tail = prefix[0] if n == 1 else cat.tgt(prefix[-1])
            for a in sorted(cat.arrows):
                if cat.src(a) == tail:
                    yield prefix + (a,)

    def chain_id(ch: tuple) -> str:
        return "n_" + "__".join(ch)

    def face_of_chain(ch: tuple, i: int) -> Simplex:
        obj, arrows = ch[0], list(ch[1:])
        n = len(arrows)
        word: tuple[int, ...] = ()
        if i == 0:
            new = [cat.tgt(arrows[0])] + arrows[1:]
        elif i == n:
            new = [obj] + arrows[:-1]
        else:
            composite = cat.comp(arrows[i - 1], arrows[i])
            if composite is None:
                # the inner composite is an identity: the face is degenerate
                new = [obj] + arrows[: i - 1] + arrows[i + 1 :]
                word = (i - 1,)
            else:
                new = [obj] + arrows[: i - 1] + [composite] + arrows[i + 1 :]
        return Simplex(word, chain_id(tuple(new)))

    n = 1
    exact = False
    while n <= depth:
        level = []
        for ch in chains(n):
            cid = chain_id(ch)
            level.append(cid)
            chain_of[cid] = ch
            faces[cid] = tuple(face_of_chain(ch, i) for i in range(n + 1))
        if not level:
            exact = True
            break
        levels.append(tuple(level))
        n += 1
    return FinSSet(tuple(levels), faces, None if exact else depth).assert_valid()


@lru_cache(maxsize=None)
def walking_iso_category() -> CategoryPresentation:
    """The groupoid with two objects and a unique arrow in each direction."""
    return CategoryPresentation(
        objects=("a", "b"),
        arrows={"f": ("a", "b"), "g": ("b", "a")},
        compose={("f", "g"): None, ("g", "f"): None},
    )


@lru_cache(maxsize=None)
def nerve_j(depth: int) -> FinSSet:
    """Truncated nerve of the walking isomorphism (the classifying interval)."""
    return nerve(walking_iso_category(), depth)


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
