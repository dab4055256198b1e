"""Finite simplicial sets and simplicial maps.

A ``FinSSet`` stores, per dimension, its nondegenerate cells, and for each
cell of dimension n >= 1 a tuple of n+1 faces in Eilenberg-Zilber normal
form.  ``dim_bound`` is ``None`` for exact objects (the finite data describes
the whole simplicial set) or an integer N when the object is an honest
truncation: levels <= N are correct, nothing is claimed above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .simplex import Simplex, degeneracy_words, nondeg, word_insert, word_is_valid


class SSetError(ValueError):
    """Raised for structurally invalid simplicial data or misuse."""


class Truncated(SSetError):
    """A level above a truncated object's bound was asked for.

    The answer is unknown at that depth, not wrong: the finite data claims
    nothing above the bound.
    """


@dataclass(frozen=True)
class FinSSet:
    cells: tuple[tuple[str, ...], ...]
    faces: Mapping[str, tuple[Simplex, ...]]
    dim_bound: Optional[int] = None
    _dims: dict = field(default_factory=dict, repr=False, compare=False)
    _simplex_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _face_index: dict = field(default_factory=dict, repr=False, compare=False)
    # the plan of a map search from this object, built by ``homs.search_plan``
    _search_plan: list = field(default_factory=list, repr=False, compare=False)

    @staticmethod
    def make(
        cells: Mapping[int, Sequence[str]] | Sequence[Sequence[str]],
        faces: Mapping[str, Sequence[Simplex]],
        dim_bound: Optional[int] = None,
    ) -> "FinSSet":
        if isinstance(cells, Mapping):
            top = max(cells, default=-1)
            levels = tuple(tuple(cells.get(n, ())) for n in range(top + 1))
        else:
            levels = tuple(tuple(level) for level in cells)
        while levels and not levels[-1]:
            levels = levels[:-1]
        return FinSSet(levels, {c: tuple(fs) for c, fs in faces.items()}, dim_bound)

    def __post_init__(self) -> None:
        for n, level in enumerate(self.cells):
            for c in level:
                if c in self._dims:
                    raise SSetError(f"duplicate cell id {c!r}")
                self._dims[c] = n

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Top dimension carrying a nondegenerate cell (-1 when empty)."""
        return len(self.cells) - 1

    @property
    def is_exact(self) -> bool:
        return self.dim_bound is None

    def cell_dim(self, cell: str) -> int:
        return self._dims[cell]

    def has_cell(self, cell: str) -> bool:
        return cell in self._dims

    def nondegenerate(self, n: Optional[int] = None) -> Iterator[str]:
        if n is not None:
            if 0 <= n <= self.dim:
                yield from self.cells[n]
            return
        for level in self.cells:
            yield from level

    def simplex_dim(self, s: Simplex) -> int:
        return self._dims[s.base] + len(s.word)

    def size(self) -> int:
        return sum(len(level) for level in self.cells)

    def key(self) -> tuple:
        """Canonical hashable key for caching and structural equality."""
        return (
            self.cells,
            tuple(sorted((c, fs) for c, fs in self.faces.items())),
            self.dim_bound,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinSSet) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    # -- simplicial operators ----------------------------------------------

    def degen(self, s: Simplex, i: int) -> Simplex:
        if not 0 <= i <= self.simplex_dim(s):
            raise SSetError(f"s_{i} not applicable to {s} of dim {self.simplex_dim(s)}")
        return Simplex(word_insert(s.word, i), s.base)

    def face(self, s: Simplex, i: int) -> Simplex:
        n = self.simplex_dim(s)
        if n < 1 or not 0 <= i <= n:
            raise SSetError(f"d_{i} not applicable to {s} of dim {n}")
        out: list[int] = []
        j = i
        word = s.word
        for k, w in enumerate(word):
            if j == w or j == w + 1:
                res = Simplex(word[k + 1 :], s.base)
                return self._apply_word(out, res)
            if j < w:
                out.append(w - 1)
            else:  # j > w + 1
                out.append(w)
                j -= 1
        res = self.faces[s.base][j]
        return self._apply_word(out, res)

    def _apply_word(self, outer: Sequence[int], s: Simplex) -> Simplex:
        for letter in reversed(list(outer)):
            s = Simplex(word_insert(s.word, letter), s.base)
        return s

    def vertex_of(self, s: Simplex, k: int) -> Simplex:
        """The k-th vertex of a simplex, as a 0-simplex value."""
        n = self.simplex_dim(s)
        for i in range(n, -1, -1):
            if i != k:
                s = self.face(s, i)
                if i < k:
                    k -= 1
        return s

    def edge_of(self, s: Simplex, a: int, b: int) -> Simplex:
        """The (a,b)-edge of a simplex (a < b), as a 1-simplex value."""
        n = self.simplex_dim(s)
        for i in range(n, -1, -1):
            if i != a and i != b:
                s = self.face(s, i)
        return s

    def restrict_along(self, s: Simplex, positions: Sequence[int]) -> Simplex:
        """Precompose with the vertex inclusion picking ``positions`` (sorted)."""
        n = self.simplex_dim(s)
        keep = set(positions)
        for i in range(n, -1, -1):
            if i not in keep:
                s = self.face(s, i)
        return s

    # -- enumeration ---------------------------------------------------------

    def _check_level(self, n: int) -> None:
        if self.dim_bound is not None and n > self.dim_bound:
            raise Truncated(
                f"level {n} of a truncated object (bound {self.dim_bound}) is not represented"
            )

    def simplices(self, n: int) -> tuple[Simplex, ...]:
        """All n-simplices, degenerate included, in canonical order."""
        if n < 0:
            return ()
        self._check_level(n)
        cached = self._simplex_cache.get(n)
        if cached is not None:
            return cached
        out = []
        for m in range(0, min(n, self.dim) + 1):
            words = degeneracy_words(m, n)
            for base in self.cells[m]:
                for word in words:
                    out.append(Simplex(word, base))
        result = tuple(sorted(out))
        self._simplex_cache[n] = result
        return result

    def simplices_with_faces(self, n: int, wants: tuple[Simplex, ...]) -> list[Simplex]:
        """The n-simplices x (n >= 1) with d_i x == wants[i] for all i.

        The result is in ``simplices(n)`` order: nondegenerate matches
        first, then the degenerate one, if any.  Nondegenerate matches are
        one lookup in a per-level dict, built on first use, from the face
        tuple stored in ``faces`` to the names of the cells having it.

        A degenerate simplex whose outermost letter is j is s_j t with
        d_j = d_{j+1} = t, so the only degenerate candidates are
        s_j(wants[j]) for each j with wants[j] == wants[j+1]; one is kept
        when its other faces match too.  The simplicial identities make two
        degenerate simplices with the same faces equal, so the search stops
        at the first one kept.

        Only nondegenerate cells are indexed: keying every simplex would
        keep a face tuple per degenerate simplex alive for as long as the
        object lives, and ``factor_soa`` keeps every middle object alive.
        """
        self._check_level(n)
        index = self._face_index.get(n)
        if index is None:
            groups: dict[tuple[Simplex, ...], list[str]] = {}
            if n <= self.dim:
                for c in sorted(self.cells[n]):
                    groups.setdefault(self.faces[c], []).append(c)
            index = {fs: tuple(cs) for fs, cs in groups.items()}
            self._face_index[n] = index
        out = [nondeg(c) for c in index.get(wants, ())]
        for j in range(n):
            t = wants[j]
            if t == wants[j + 1]:
                s = self.degen(t, j)
                if all(self.face(s, i) == wants[i] for i in range(n + 1) if i not in (j, j + 1)):
                    out.append(s)
                    break
        return out

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        problems: list[str] = []
        for n, level in enumerate(self.cells):
            for c in level:
                if n == 0:
                    if c in self.faces and self.faces[c]:
                        problems.append(f"vertex {c} has faces listed")
                    continue
                fs = self.faces.get(c)
                if fs is None or len(fs) != n + 1:
                    problems.append(f"cell {c} of dim {n} needs {n + 1} faces")
                    continue
                for i, f in enumerate(fs):
                    if f.base not in self._dims:
                        problems.append(f"face d_{i} of {c} has unknown base {f.base!r}")
                        continue
                    bd = self._dims[f.base]
                    if not word_is_valid(f.word, bd):
                        problems.append(f"face d_{i} of {c} has invalid word {f.word}")
                        continue
                    if bd + len(f.word) != n - 1:
                        problems.append(f"face d_{i} of {c} has dim {bd + len(f.word)} != {n - 1}")
        if problems:
            return problems
        if self.dim_bound is not None and self.dim > self.dim_bound:
            problems.append(
                f"nondegenerate cells in dim {self.dim} above bound {self.dim_bound}"
            )
        for n in range(2, self.dim + 1):
            for c in self.cells[n]:
                s = nondeg(c)
                for j in range(1, n + 1):
                    for i in range(j):
                        left = self.face(self.face(s, j), i)
                        right = self.face(self.face(s, i), j - 1)
                        if left != right:
                            problems.append(
                                f"simplicial identity fails on {c}: d_{i} d_{j} = {left}, "
                                f"d_{j - 1} d_{i} = {right}"
                            )
        return problems

    def assert_valid(self) -> "FinSSet":
        problems = self.validate()
        if problems:
            raise SSetError("; ".join(problems))
        return self

    # -- derived objects ------------------------------------------------------

    def skeleton(self, n: int) -> "FinSSet":
        """The n-skeleton.  Always exact: levels <= n determine it entirely."""
        if self.dim_bound is not None and n > self.dim_bound:
            raise SSetError("skeleton level exceeds truncation bound")
        levels = self.cells[: n + 1]
        keep = {c for level in levels for c in level}
        faces = {c: fs for c, fs in self.faces.items() if c in keep}
        return FinSSet(levels, faces, None)

    def subcomplex(self, generators: Iterable[str]) -> tuple["FinSSet", "SMap"]:
        """Smallest subcomplex containing ``generators``; returns inclusion."""
        keep: set[str] = set()
        stack = list(generators)
        while stack:
            c = stack.pop()
            if c in keep:
                continue
            if c not in self._dims:
                raise SSetError(f"unknown cell {c!r}")
            keep.add(c)
            for f in self.faces.get(c, ()):
                stack.append(f.base)
        levels = tuple(tuple(c for c in level if c in keep) for level in self.cells)
        while levels and not levels[-1]:
            levels = levels[:-1]
        sub = FinSSet(levels, {c: self.faces[c] for c in keep if self.faces.get(c)}, None)
        incl = SMap(sub, self, {c: nondeg(c) for c in keep})
        return sub, incl

    def rename(self, fn: Callable[[str], str]) -> "FinSSet":
        levels = tuple(tuple(fn(c) for c in level) for level in self.cells)
        faces = {
            fn(c): tuple(Simplex(f.word, fn(f.base)) for f in fs)
            for c, fs in self.faces.items()
        }
        return FinSSet(levels, faces, self.dim_bound)


EMPTY = FinSSet((), {})


@dataclass(frozen=True)
class SMap:
    """A simplicial map, recorded on the nondegenerate cells of the source."""

    source: FinSSet
    target: FinSSet
    assignment: Mapping[str, Simplex]

    def key(self) -> tuple:
        return (
            self.source.key(),
            self.target.key(),
            tuple(sorted(self.assignment.items())),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SMap) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def apply(self, s: Simplex) -> Simplex:
        t = self.assignment[s.base]
        for i in reversed(s.word):
            t = self.target.degen(t, i)
        return t

    def apply_cell(self, cell: str) -> Simplex:
        return self.assignment[cell]

    def validate(self) -> list[str]:
        problems: list[str] = []
        src = self.source
        for c in src.nondegenerate():
            if c not in self.assignment:
                problems.append(f"cell {c} unassigned")
        if problems:
            return problems
        for c, img in self.assignment.items():
            if not src.has_cell(c):
                problems.append(f"assignment mentions unknown cell {c!r}")
                continue
            if img.base not in self.target._dims:
                problems.append(f"image of {c} has unknown base {img.base!r}")
                continue
            if self.target.simplex_dim(img) != src.cell_dim(c):
                problems.append(
                    f"image of {c} has dim {self.target.simplex_dim(img)} != {src.cell_dim(c)}"
                )
        if problems:
            return problems
        for n in range(1, src.dim + 1):
            for c in src.cells[n]:
                img = self.assignment[c]
                for i in range(n + 1):
                    lhs = self.apply(src.faces[c][i])
                    rhs = self.target.face(img, i)
                    if lhs != rhs:
                        problems.append(
                            f"face compatibility fails on {c} at d_{i}: {lhs} != {rhs}"
                        )
        return problems

    def assert_valid(self) -> "SMap":
        problems = self.validate()
        if problems:
            raise SSetError("; ".join(problems))
        return self

    def preimages(self) -> Optional[dict[str, str]]:
        """``{f(a): a}`` over the nondegenerate cells a of the source when f
        sends them to distinct nondegenerate cells, else None.

        By Eilenberg-Zilber this holds exactly when f is a monomorphism: f
        then sends s_w a to s_w f(a), and these are distinct for distinct
        (w, a).  A cell sent to a degenerate s_i y shares its image with the
        degenerate s_i d_i of itself.
        """
        hit: dict[str, str] = {}
        for cell, s in self.assignment.items():
            if s.word or hit.setdefault(s.base, cell) != cell:
                return None
        return hit

    def is_mono(self) -> bool:
        """Whether f is a monomorphism, decided by ``preimages``."""
        return self.preimages() is not None


def identity(x: FinSSet) -> SMap:
    return SMap(x, x, {c: nondeg(c) for c in x.nondegenerate()})


def compose(g: SMap, f: SMap) -> SMap:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise SSetError("composition mismatch")
    return SMap(f.source, g.target, {c: g.apply(s) for c, s in f.assignment.items()})


def constant_map(x: FinSSet, target: FinSSet, vertex: str) -> SMap:
    """The map collapsing x to a single vertex of the target.

    An n-cell goes to the vertex degenerated n times, s_{n-1} ... s_0 v.
    """
    assign = {}
    for n, level in enumerate(x.cells):
        s = Simplex(tuple(range(n - 1, -1, -1)), vertex)
        for c in level:
            assign[c] = s
    return SMap(x, target, assign)


def find_isomorphism(x: FinSSet, y: FinSSet) -> Optional[SMap]:
    """The first isomorphism x -> y in map-search order, or None.

    With as many nondegenerate cells per dimension on both sides, a
    monomorphism is a bijection on nondegenerate cells, so an isomorphism.
    """
    from .homs import enumerate_maps

    if [len(l) for l in x.cells] != [len(l) for l in y.cells]:
        return None
    return next(enumerate_maps(x, y, mono=True), None)
