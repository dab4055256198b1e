"""Realize an abstractly presented presheaf as a FinSSet in normal form.

A construction (a chosen pullback or a pushforward) describes its
simplices semantically: hashable keys per level together with face and
degeneracy actions.  The realizer finds the nondegenerate keys, assigns them
deterministic ids, and rewrites every face into Eilenberg-Zilber normal form
by greedily stripping the largest degeneracy position (which is always the
outermost letter of the normal form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Sequence

from .simplex import Simplex
from .sset import FinSSet, SSetError

Key = Hashable


def _canon(key: Key) -> str:
    return repr(key)


@dataclass
class LevelPresentation:
    """Semantic levels of a presheaf, up to ``max_level`` inclusive."""

    max_level: int
    elements: Callable[[int], Sequence[Key]]
    face_at: Callable[[int, Key, int], Key]
    degen_at: Callable[[int, Key, int], Key]


class Built:
    """The realized simplicial set plus translation to/from semantic keys."""

    def __init__(self, pres: LevelPresentation, dim_bound: Optional[int], prefix: str = "x"):
        self.pres = pres
        self._decomp: dict[tuple[int, Key], Simplex] = {}
        self._ids: dict[Key, str] = {}
        self._keys: dict[str, tuple[int, Key]] = {}

        levels: list[tuple[str, ...]] = []
        faces: dict[str, tuple[Simplex, ...]] = {}
        for n in range(pres.max_level + 1):
            elems = list(pres.elements(n))
            elems.sort(key=_canon)
            level_ids = []
            for key in elems:
                if self._degeneracy_position(n, key) is not None:
                    continue
                cid = f"{prefix}{n}_{len(level_ids)}"
                level_ids.append(cid)
                self._ids[key] = cid
                self._keys[cid] = (n, key)
            levels.append(tuple(level_ids))
            if n > 0:
                for cid in level_ids:
                    _, key = self._keys[cid]
                    faces[cid] = tuple(
                        self.decompose(n - 1, pres.face_at(n, key, i)) for i in range(n + 1)
                    )
        while levels and not levels[-1]:
            levels = levels[:-1]
        self.sset = FinSSet(tuple(levels), faces, dim_bound)

    def _degeneracy_position(self, n: int, key: Key) -> Optional[int]:
        """Largest j with key == s_j d_j key, i.e. the outermost EZ letter."""
        for j in range(n - 1, -1, -1):
            below = self.pres.face_at(n, key, j)
            if self.pres.degen_at(n - 1, below, j) == key:
                return j
        return None

    def decompose(self, n: int, key: Key) -> Simplex:
        """EZ normal form of an arbitrary semantic n-simplex."""
        memo = self._decomp.get((n, key))
        if memo is not None:
            return memo
        word: list[int] = []
        level, cur = n, key
        while True:
            j = self._degeneracy_position(level, cur)
            if j is None:
                break
            word.append(j)
            cur = self.pres.face_at(level, cur, j)
            level -= 1
        cid = self._ids.get(cur)
        if cid is None:
            raise SSetError(f"semantic simplex {cur!r} at level {level} was never realized")
        result = Simplex(tuple(word), cid)
        self._decomp[(n, key)] = result
        return result

    def key_of(self, s: Simplex) -> tuple[int, Key]:
        """Semantic key of an arbitrary simplex of the realized object."""
        n, key = self._keys[s.base]
        for i in reversed(s.word):
            key = self.pres.degen_at(n, key, i)
            n += 1
        return n, key
