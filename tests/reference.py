"""Naive reference implementations that the fast paths are tested against.

``enumerate_maps`` is the scan-and-recurse search that the face-indexed,
iterative ``ssetkit.kernel.homs.enumerate_maps`` replaced, kept verbatim:
each cell's candidates are every simplex of the target of its dimension,
filtered by comparing faces.  ``find_isomorphism`` is the recursive
backtracking that ``ssetkit.kernel.sset.find_isomorphism`` once was, also
kept verbatim; today that function is the first map of the kernel's search
with ``mono=True``.  ``is_mono`` is the levelwise injectivity test that
``SMap.preimages`` replaced, kept verbatim as a function of the map, and
``degeneracy_words`` the generate-validate-sort that
``ssetkit.kernel.simplex.degeneracy_words`` replaced, kept verbatim.

``has_rlp`` is the general lifting path that the face-lookup path of
``ssetkit.lifting`` replaced for horn and boundary inclusions, kept
verbatim: ``lifting_problems`` searches maps for every square's bottom and
``solve_lift`` searches sections for its filler, taking the first only
unless ``all_fillers``.  It runs on the kernel's ``enumerate_maps`` and
``enumerate_sections``, which are tested against the naive search above.

``SimplexDataclass`` is the frozen, ordered dataclass that
``ssetkit.kernel.simplex.Simplex`` was before it became a named tuple, kept
verbatim but for its name.

``Built`` and ``LevelPresentation`` are the generic realizer that
``ssetkit.kernel.build`` held, kept verbatim: it sorts every semantic key
of a level and tests each for degeneracy with face and degeneracy calls.
``Product`` and ``product`` are the product record and its realizer that
``ssetkit.kernel.limits.product`` replaced, and ``Pullback`` and
``identity_pullback`` the pullback record and the chosen pullback along an
identity, whose methods were assigned on the instance, all kept verbatim but
for the names.  Today a product is the chosen pullback over the point.
``pullback(f, g, prefix)`` is the ``ssetkit.kernel.limits._pullback`` that
realized every pair of X_n x_Z Y_n through ``Built``; the kernel now glues
the pairs whose words share no letter directly.  ``Pushforward`` and
``Exponential`` are the ``ssetkit.kernel.closed`` classes that realized
their keys through ``Built``, testing every degeneracy position; the kernel
now tests only the letters of the base simplex's word.  All three are kept
verbatim but for the name of ``pullback`` and the module prefix of the
kernel's ``Pullback``, ``initial_map``, ``pullback`` and ``product``; the
pushforward's fibers and products come from the kernel.

``Pushout`` and ``pushout`` are the pushout record and the construction
that realized every pushout through ``Built``, from a union-find over every
simplex of A; ``ssetkit.kernel.limits.pushout`` now glues every span, along
a monomorphism or not, directly from its legs' cells.
``factor_soa`` is the small object argument that rescanned every
generator's tops from the first after each attachment and realized the
whole middle object again through this ``pushout``; it runs on the
scan of ``has_rlp`` (``ssetkit.lifting._first_unsolved``), which is tested
against ``has_rlp`` above.  ``constant_map`` is the per-dimension
degeneracy loop that ``ssetkit.kernel.sset.constant_map`` replaced.  All
are kept verbatim but for the module prefix of ``_first_unsolved``.

``CategoryPresentation``, ``nerve`` and ``walking_iso_category`` are the
nerve of a finite category given by its composition table, and the walking
isomorphism, that ``ssetkit.kernel.standard`` built the classifying
interval through, kept verbatim; ``nerve_j`` now writes the interval's two
alternating chains per level directly.  ``BResult``, ``b_functor`` and
``b_map`` are the interval completion b of ``ssetkit.joyal`` that kept
every pushout it glued, so that ``induce`` could replay them; the package's
``induce`` assigns each cell of b(X) its cocone image directly.  They are
kept verbatim but for the module prefix of ``Pushout``, ``pushout``,
``constant_map``, ``edge_classifier`` and ``_retag``.

``free_vars``, ``free_vars_type``, ``subst``, ``subst_type``,
``alpha_equal`` and ``alpha_equal_type`` are the per-node walkers over
``.itt`` syntax that the binder table of ``ssetkit.tt.syntax`` replaced,
kept verbatim.  Their ``subst`` renames a capturing binder only under
``Lam``, ``EApp`` clauses, ``TPi``, ``TCoprod`` and ``TSigma``.

``tokens`` is the match-per-token loop that the one ``findall`` of
``ssetkit.tt.parser`` replaced: it returns ``(kind, text, line, col)``
tuples, positions kept for every token, or raises the package's
``ParseError``.  ``parse_file``, ``parse_term`` and ``parse_type`` are the
recursive descent over those tuples that the parser over token texts
replaced.  All are kept verbatim but for ``tokens`` being a function, and
the nesting bound is the package's ``_MAX_NESTING``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Hashable, Iterator, Mapping, Optional, Sequence

from ssetkit import joyal, kernel, lifting
from ssetkit.kernel import (
    delta_map,
    enumerate_sections,
    interval_groupoid_skeleton,
    q_map,
    sigma_map,
    terminal_map,
    yoneda,
)
from ssetkit.kernel.simplex import Simplex, nondeg, word_is_valid
from ssetkit.kernel.limits import _joint_bound
from ssetkit.kernel.sset import EMPTY, FinSSet, SMap, SSetError, Truncated, compose, identity
from ssetkit.lifting import (
    BudgetExhausted,
    CellAttachment,
    CellFactorization,
    GeneratorFamily,
    LiftingProblem,
)
from ssetkit.tt.parser import _MAX_NESTING, ParseError, RawDecl
from ssetkit.tt.syntax import (
    App,
    CoprodElim,
    CPair,
    EApp,
    EAppClause,
    ExtClause,
    Fst,
    HomApp,
    HomLam,
    I0,
    I1,
    IdJ,
    In,
    Lam,
    One,
    Pglue,
    Pinl,
    Pinr,
    PushElim,
    Refl,
    SPair,
    Snd,
    TConst,
    TCoprod,
    TDepHom,
    TExt,
    THom,
    TId,
    TInterval,
    TPath,
    TPi,
    TPushout,
    TSigma,
    TUnit,
    Term,
    Type,
    Var,
    fresh,
)


@dataclass(frozen=True, order=True)
class SimplexDataclass:
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


def enumerate_maps(
    source: FinSSet,
    target: FinSSet,
    *,
    forced: Optional[dict[str, Simplex]] = None,
    constraint: Optional[Callable[[str, Simplex], bool]] = None,
    limit: Optional[int] = None,
) -> Iterator[SMap]:
    """Yield all simplicial maps source -> target.

    ``forced`` pins images of particular cells; ``constraint`` filters
    candidate images cell by cell.  The target must be represented at least
    up to the dimension of the source.
    """
    if target.dim_bound is not None and source.dim > target.dim_bound:
        raise SSetError(
            f"target truncated at {target.dim_bound}, below source dimension {source.dim}"
        )
    cells: list[str] = []
    for n in range(source.dim + 1):
        cells.extend(sorted(source.cells[n]))
    forced = forced or {}

    assign: dict[str, Simplex] = {}
    count = 0

    def candidates(c: str) -> Iterator[Simplex]:
        n = source.cell_dim(c)
        if c in forced:
            options: tuple[Simplex, ...] = (forced[c],)
        else:
            options = target.simplices(n)
        for cand in options:
            if n > 0:
                ok = True
                for i in range(n + 1):
                    f = source.faces[c][i]
                    want = assign[f.base]
                    for w in reversed(f.word):
                        want = target.degen(want, w)
                    if target.face(cand, i) != want:
                        ok = False
                        break
                if not ok:
                    continue
            if constraint is not None and not constraint(c, cand):
                continue
            yield cand

    def search(idx: int) -> Iterator[SMap]:
        nonlocal count
        if limit is not None and count >= limit:
            return
        if idx == len(cells):
            count += 1
            yield SMap(source, target, dict(assign))
            return
        c = cells[idx]
        for cand in candidates(c):
            assign[c] = cand
            yield from search(idx + 1)
            if limit is not None and count >= limit:
                del assign[c]
                return
            del assign[c]

    yield from search(0)


def find_isomorphism(x: FinSSet, y: FinSSet) -> Optional[SMap]:
    """Search for an isomorphism by matching nondegenerate cells per dimension."""
    if [len(l) for l in x.cells] != [len(l) for l in y.cells]:
        return None
    assign: dict[str, Simplex] = {}
    levels = [list(level) for level in x.cells]
    ylevels = [list(level) for level in y.cells]

    def extend(n: int, idx: int, used: set[str]) -> bool:
        if n > x.dim:
            return True
        if idx == len(levels[n]):
            return extend(n + 1, 0, set())
        c = levels[n][idx]
        for cand in ylevels[n]:
            if cand in used:
                continue
            if n > 0:
                ok = True
                for i in range(n + 1):
                    f = x.faces[c][i]
                    expect = Simplex(f.word, assign[f.base].base)
                    if y.face(nondeg(cand), i) != expect:
                        ok = False
                        break
                if not ok:
                    continue
            assign[c] = nondeg(cand)
            used.add(cand)
            if extend(n, idx + 1, used):
                return True
            used.discard(cand)
            del assign[c]
        return False

    if extend(0, 0, set()):
        return SMap(x, y, dict(assign))
    return None


def is_mono(self: SMap) -> bool:
    """Levelwise injectivity; levels above dim(source) follow automatically."""
    for n in range(0, self.source.dim + 1):
        seen = set()
        for s in self.source.simplices(n):
            img = self.apply(s)
            if img in seen:
                return False
            seen.add(img)
    return True


def degeneracy_words(base_dim: int, target_dim: int) -> Iterator[tuple[int, ...]]:
    """All valid strictly decreasing words raising ``base_dim`` to ``target_dim``.

    Yielded in lexicographic order of the word tuples.
    """
    length = target_dim - base_dim
    if length < 0:
        return
    if length == 0:
        yield ()
        return

    def rec(prefix: list[int], remaining: int) -> Iterator[tuple[int, ...]]:
        # prefix is outermost-first; next letter must be < prefix[-1] and the
        # final word must stay applicable, checked at the leaves.
        if remaining == 0:
            word = tuple(prefix)
            if word_is_valid(word, base_dim):
                yield word
            return
        hi = (prefix[-1] - 1) if prefix else (target_dim - 1)
        for i in range(0, hi + 1):
            prefix.append(i)
            yield from rec(prefix, remaining - 1)
            prefix.pop()

    yield from sorted(rec([], length))


def _forced_images(i: SMap, along: SMap) -> Optional[dict[str, Simplex]]:
    """Images a map out of i.target must give the cells i hits nondegenerately
    to restrict to ``along`` along i; None when two cells of A clash."""
    forced: dict[str, Simplex] = {}
    for c in i.source.nondegenerate():
        img = i.apply_cell(c)
        if not img.word:
            want = along.apply_cell(c)
            if forced.setdefault(img.base, want) != want:
                return None
    return forced


def solve_lift(problem: LiftingProblem, *, all_fillers: bool = False):
    """Find the lexicographically least filler B -> X, or None.

    With ``all_fillers`` returns the full list instead.
    """
    i, p, top, bottom = problem.left, problem.right, problem.top, problem.bottom
    forced = _forced_images(i, top)
    if forced is None:
        return [] if all_fillers else None
    gen = islice(kernel.enumerate_sections(p, bottom, forced=forced), None if all_fillers else 1)
    # degenerate images of cells of A also constrain the filler, but only
    # through their bases, which the forced dict above already pins; cells of
    # A hitting degenerate simplices of B constrain nothing extra beyond
    # commutativity of the found map, so re-check.
    fillers = []
    for h in gen:
        if all(h.apply(i.apply_cell(c)) == top.apply_cell(c) for c in i.source.nondegenerate()):
            if not all_fillers:
                return h
            fillers.append(h)
    return fillers if all_fillers else None


def lifting_problems(gen: SMap, p: SMap) -> Iterator[LiftingProblem]:
    """All commuting squares from a generator to p, in deterministic order."""
    for u in kernel.enumerate_maps(gen.source, p.source):
        want = compose(p, u)
        forced = _forced_images(gen, want)
        if forced is None:
            continue
        for v in kernel.enumerate_maps(gen.target, p.target, forced=forced):
            if compose(v, gen) == want:
                yield LiftingProblem(gen, p, u, v)


def _first_unsolved(pairs) -> Optional[tuple[int, LiftingProblem]]:
    """The index of the first (left, right) pair with a square that has no
    filler, and that square; None when every square is filled."""
    for idx, (left, right) in enumerate(pairs):
        for prob in lifting_problems(left, right):
            if solve_lift(prob) is None:
                return idx, prob
    return None


def has_rlp(p: SMap, family: GeneratorFamily) -> tuple[bool, Optional[LiftingProblem]]:
    """Right lifting property against every generator; returns a
    counterexample square on failure."""
    found = _first_unsolved((gen, p) for gen in family.generators)
    return (True, None) if found is None else (False, found[1])


# ------------------------------------------------------------ the realizer


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


# ------------------------------------------------ products and pullbacks


@dataclass
class Product:
    sset: FinSSet
    left: FinSSet
    right: FinSSet
    proj1: SMap
    proj2: SMap
    _built: Built

    def simplex_of(self, a: Simplex, b: Simplex) -> Simplex:
        n = self.left.simplex_dim(a)
        return self._built.decompose(n, (a, b))

    def components(self, s: Simplex) -> tuple[Simplex, Simplex]:
        _, key = self._built.key_of(s)
        return key  # type: ignore[return-value]

    def pair(self, f: SMap, g: SMap) -> SMap:
        """The map <f, g>: W -> X x Y."""
        assign = {
            c: self.simplex_of(f.apply_cell(c), g.apply_cell(c))
            for c in f.source.nondegenerate()
        }
        return SMap(f.source, self.sset, assign)


def product(x: FinSSet, y: FinSSet) -> Product:
    if x.dim < 0 or y.dim < 0:
        empty = EMPTY
        return Product(empty, x, y, SMap(empty, x, {}), SMap(empty, y, {}), None)  # type: ignore[arg-type]
    exact_bound = x.dim + y.dim
    max_level, dim_bound = _joint_bound([x, y], exact_bound)

    def elements(n: int):
        return [(a, b) for a in x.simplices(n) for b in y.simplices(n)]

    pres = LevelPresentation(
        max_level=max_level,
        elements=elements,
        face_at=lambda n, k, i: (x.face(k[0], i), y.face(k[1], i)),
        degen_at=lambda n, k, i: (x.degen(k[0], i), y.degen(k[1], i)),
    )
    built = Built(pres, dim_bound, prefix="p")
    p = built.sset
    proj1 = SMap(p, x, {c: built._keys[c][1][0] for c in p.nondegenerate()})
    proj2 = SMap(p, y, {c: built._keys[c][1][1] for c in p.nondegenerate()})
    return Product(p, x, y, proj1, proj2, built)


@dataclass
class Pullback:
    sset: FinSSet
    to_left: SMap
    to_right: SMap
    left_map: SMap
    right_map: SMap
    _built: Built

    def simplex_of(self, a: Simplex, b: Simplex) -> Simplex:
        n = self.left_map.source.simplex_dim(a)
        return self._built.decompose(n, (a, b))

    def components(self, s: Simplex) -> tuple[Simplex, Simplex]:
        _, key = self._built.key_of(s)
        return key  # type: ignore[return-value]

    def pair(self, u: SMap, v: SMap) -> SMap:
        assign = {
            c: self.simplex_of(u.apply_cell(c), v.apply_cell(c))
            for c in u.source.nondegenerate()
        }
        return SMap(u.source, self.sset, assign)


def identity_pullback(f: SMap, g: SMap, f_is_id: bool) -> Pullback:
    """Chosen pullback along an identity: return the other leg unchanged."""
    if f_is_id:
        # f = id: pullback of g along id is g itself
        pb = Pullback(g.source, g, identity(g.source), f, g, None)  # type: ignore[arg-type]
        pb.simplex_of = lambda a, b: b  # type: ignore[method-assign]
        pb.components = lambda s: (g.apply(s), s)  # type: ignore[method-assign]
        pb.pair = lambda u, v: v  # type: ignore[method-assign]
        return pb
    pb = Pullback(f.source, identity(f.source), f, f, g, None)  # type: ignore[arg-type]
    pb.simplex_of = lambda a, b: a  # type: ignore[method-assign]
    pb.components = lambda s: (s, f.apply(s))  # type: ignore[method-assign]
    pb.pair = lambda u, v: u  # type: ignore[method-assign]
    return pb


def pullback(f: SMap, g: SMap, prefix: str) -> Pullback:
    """Realize the pairs of simplices of f.source and g.source over one
    simplex of the common target, with ids ``{prefix}{level}_{index}``."""
    x, y = f.source, g.source
    if x.dim < 0 or y.dim < 0:  # no simplices, so simplex_of is never called
        return kernel.Pullback(EMPTY, kernel.initial_map(x), kernel.initial_map(y), f, None)  # type: ignore[arg-type]
    max_level, dim_bound = _joint_bound([x, y], x.dim + y.dim)

    def elements(n: int):
        ys = {}
        for b in y.simplices(n):
            ys.setdefault(g.apply(b), []).append(b)
        return [(a, b) for a in x.simplices(n) for b in ys.get(f.apply(a), ())]

    pres = LevelPresentation(
        max_level=max_level,
        elements=elements,
        face_at=lambda n, k, i: (x.face(k[0], i), y.face(k[1], i)),
        degen_at=lambda n, k, i: (x.degen(k[0], i), y.degen(k[1], i)),
    )
    built = Built(pres, dim_bound, prefix=prefix)
    p = built.sset
    proj1 = SMap(p, x, {c: built._keys[c][1][0] for c in p.nondegenerate()})
    proj2 = SMap(p, y, {c: built._keys[c][1][1] for c in p.nondegenerate()})
    return kernel.Pullback(p, proj1, proj2, f, lambda a, b: built.decompose(x.simplex_dim(a), (a, b)))


# -------------------------------------------- pushforwards and exponentials


def _encode(m: SMap) -> tuple:
    return tuple(sorted(m.assignment.items()))


def _decode(enc: tuple, source: FinSSet, target: FinSSet) -> SMap:
    return SMap(source, target, dict(enc))


class Pushforward:
    """The dependent product of g: E -> A along f: A -> B, truncated.

    An n-simplex over tau: std(n) -> B is a section of g over the pullback of
    f along tau.
    """

    def __init__(self, f: SMap, g: SMap, depth: int):
        if g.target != f.source:
            raise SSetError("pushforward: g must land in the domain of f")
        self.f = f
        self.g = g
        self.depth = depth
        b = f.target
        self._fibers: dict[tuple[int, Simplex], Pullback] = {}

        def fiber(n: int, tau: Simplex) -> Pullback:
            key = (n, tau)
            if key not in self._fibers:
                self._fibers[key] = kernel.pullback(yoneda(b, tau), f)
            return self._fibers[key]

        self._fiber = fiber

        def elements(n: int):
            out = []
            for tau in b.simplices(n):
                for s in enumerate_sections(g, fiber(n, tau).proj2):
                    out.append((tau, _encode(s)))
            return out

        def reindex(n_from: int, key: tuple, op: SMap, new_tau: Simplex) -> tuple:
            """Restrict an n_from-level element along op: std(m) -> std(n_from),
            whose base simplex tau . op is new_tau."""
            tau, enc = key
            pb_from = fiber(n_from, tau)
            s = _decode(enc, pb_from.sset, g.source)
            q = q_map(op, pb_from, fiber(op.source.dim, new_tau))
            return (new_tau, _encode(compose(s, q)))

        pres = LevelPresentation(
            max_level=depth,
            elements=elements,
            face_at=lambda n, k, i: reindex(n, k, delta_map(n, i), b.face(k[0], i)),
            degen_at=lambda n, k, i: reindex(n, k, sigma_map(n, i), b.degen(k[0], i)),
        )
        self._built = Built(pres, depth, prefix="f")
        self.sset = self._built.sset
        self.struct = SMap(
            self.sset, b, {c: self._built._keys[c][1][0] for c in self.sset.nondegenerate()}
        )

    def section_at(self, s: Simplex) -> tuple[Simplex, SMap]:
        n, (tau, enc) = self._built.key_of(s)
        return tau, _decode(enc, self._fiber(n, tau).sset, self.g.source)

    def transpose(self, w_map: SMap, k: SMap, pb: Pullback) -> SMap:
        """Adjoint transpose.

        Given w_map: W -> B, the chosen pullback pb of (w_map, f), and
        k: pb.sset -> E over A (g . k == pb.proj2), produce W -> Pi_f(g).
        """
        w = w_map.source
        assign = {}
        for c in w.nondegenerate():
            m = w.cell_dim(c)
            if m > self.depth:
                raise SSetError("transpose: source dimension exceeds pushforward depth")
            tau = w_map.apply_cell(c)
            sec = compose(k, q_map(yoneda(w, nondeg(c)), pb, self._fiber(m, tau)))
            assign[c] = self._built.decompose(m, (tau, _encode(sec)))
        return SMap(w, self.sset, assign)

    def evaluate(self, s: Simplex, a: Simplex) -> Simplex:
        """Counit: evaluate an n-simplex of Pi at an n-simplex of A over it."""
        n = self.sset.simplex_dim(s)
        tau, sec = self.section_at(s)
        fib = self._fiber(n, tau)
        top = nondeg("_".join(str(v) for v in range(n + 1)))
        return sec.apply(fib.simplex_of(top, a))

    def counit(self, pb: Pullback) -> SMap:
        """Evaluation Pi_f(g) x_B A -> E on a chosen pullback of (struct, f)."""
        assign = {}
        for c in pb.sset.nondegenerate():
            s, a = pb.components(nondeg(c))
            assign[c] = self.evaluate(s, a)
        return SMap(pb.sset, self.g.source, assign)


class Exponential(Pushforward):
    """base^exponent, truncated at ``depth``: the pushforward of the
    projection base x X -> X along X -> 1.

    An n-simplex is a section of that projection over std(n) x X, that is a
    map std(n) x X -> base.
    """

    def __init__(self, base: FinSSet, exponent: FinSSet, depth: int):
        if not (base.is_exact and exponent.is_exact):
            raise SSetError("exponential requires exact inputs")
        self.base = base
        self.prod = kernel.product(base, exponent)
        super().__init__(terminal_map(exponent), self.prod.proj2, depth)

    def curry(self, k: SMap, pb: Pullback) -> SMap:
        """Transpose k: W x X -> base into W -> base^X.

        ``pb`` is the chosen pullback W -> 1 <- X, the source of k.
        """
        return self.transpose(pb.left_map, self.prod.pair(k, pb.proj2), pb)

    def uncurry(self, h: SMap, pb: Pullback) -> SMap:
        """Transpose h: W -> base^X into W x X -> base, on pb as in curry."""
        assign = {}
        for c in pb.sset.nondegenerate():
            w, x = pb.components(nondeg(c))
            assign[c] = self.prod.proj1.apply(self.evaluate(h.apply(w), x))
        return SMap(pb.sset, self.base, assign)

    def postcompose(self, g: SMap, other: "Exponential") -> SMap:
        """g^X: base^X -> other.sset for g: base -> other.base."""
        g_x = other.prod.pair(compose(g, self.prod.proj1), self.prod.proj2)
        return self._on_sections(other, lambda sec, fib, fib_o: compose(g_x, sec))

    def precompose(self, j: SMap, other: "Exponential") -> SMap:
        """base^j: base^X -> base^U for j: U -> X (other = base^U)."""

        def restrict(sec: SMap, fib: Pullback, fib_u: Pullback) -> SMap:
            incl = fib.pair(fib_u.proj1, compose(j, fib_u.proj2))
            return other.prod.pair(compose(self.prod.proj1, compose(sec, incl)), fib_u.proj2)

        return self._on_sections(other, restrict)

    def _on_sections(self, other: "Exponential", act) -> SMap:
        """The map self.sset -> other.sset that sends the simplex with section
        sec over the fiber fib to the one with section act(sec, fib, fib_o),
        fib_o being other's fiber at the same level."""
        assign = {}
        for c in self.sset.nondegenerate():
            n = self.sset.cell_dim(c)
            tau, sec = self.section_at(nondeg(c))
            new = act(sec, self._fiber(n, tau), other._fiber(n, tau))
            assign[c] = other._built.decompose(n, (tau, _encode(new)))
        return SMap(self.sset, other.sset, assign)


# ---------------------------------------- pushouts and the cell attachment


@dataclass
class Pushout:
    sset: FinSSet
    inl: SMap  # from f.target (B)
    inr: SMap  # from g.target (C)
    _built: Built

    def induce(self, u: SMap, v: SMap) -> SMap:
        """Cocone factorization: u from B, v from C with u.f == v.g."""
        if u.target != v.target:
            raise SSetError("pushout induce: codomain mismatch")
        assign: dict[str, Simplex] = {}
        for cid in self.sset.nondegenerate():
            _, key = self._built._keys[cid]
            tag, s = key
            assign[cid] = u.apply(s) if tag == "b" else v.apply(s)
        return SMap(self.sset, u.target, assign)


def pushout(f: SMap, g: SMap) -> Pushout:
    """Chosen pushout of the span B <- A -> C (f: A -> B, g: A -> C)."""
    if f.source != g.source:
        raise SSetError("pushout: domain mismatch")
    a, b, c = f.source, f.target, g.target
    finite = [z.dim_bound for z in (a, b, c) if z.dim_bound is not None]
    bound = min(finite) if finite else None
    exact_top = max(b.dim, c.dim)
    max_level = exact_top if bound is None else min(bound, exact_top)
    if max_level < exact_top:  # inl and inr could not send the cells above it anywhere
        raise Truncated(f"pushout truncated at {max_level}, below leg dimension {exact_top}")

    # levelwise classes of B_n + C_n under f(s) ~ g(s)
    classes: list[dict[tuple, tuple]] = []
    for n in range(max_level + 1):
        parent: dict[tuple, tuple] = {}

        def find(t: tuple) -> tuple:
            while parent.get(t, t) != t:
                parent[t] = parent.get(parent[t], parent[t])
                t = parent[t]
            return t

        def union(t1: tuple, t2: tuple) -> None:
            r1, r2 = find(t1), find(t2)
            if r1 != r2:
                r1, r2 = sorted((r1, r2), key=repr)
                parent[r2] = r1

        if a.dim >= 0 and (a.dim_bound is None or n <= a.dim_bound):
            for s in a.simplices(n):
                union(("b", f.apply(s)), ("c", g.apply(s)))
        table: dict[tuple, tuple] = {}
        for s in b.simplices(n):
            table[("b", s)] = find(("b", s))
        for s in c.simplices(n):
            table[("c", s)] = find(("c", s))
        # canonical representative: smallest member of each class
        members: dict[tuple, list[tuple]] = {}
        for k, r in table.items():
            members.setdefault(r, []).append(k)
        canon = {r: min(ms, key=repr) for r, ms in members.items()}
        classes.append({k: canon[r] for k, r in table.items()})

    def cls(n: int, key: tuple) -> tuple:
        return classes[n][key]

    def elements(n: int):
        return sorted(set(classes[n].values()), key=repr)

    def face_at(n: int, key: tuple, i: int):
        tag, s = key
        z = b if tag == "b" else c
        return cls(n - 1, (tag, z.face(s, i)))

    def degen_at(n: int, key: tuple, i: int):
        tag, s = key
        z = b if tag == "b" else c
        return cls(n + 1, (tag, z.degen(s, i)))

    pres = LevelPresentation(max_level, elements, face_at, degen_at)
    built = Built(pres, bound, prefix="g")
    p = built.sset
    inl = SMap(b, p, {cc: built.decompose(b.cell_dim(cc), cls(b.cell_dim(cc), ("b", nondeg(cc)))) for cc in b.nondegenerate()})
    inr = SMap(c, p, {cc: built.decompose(c.cell_dim(cc), cls(c.cell_dim(cc), ("c", nondeg(cc)))) for cc in c.nondegenerate()})
    return Pushout(p, inl, inr, built)


def factor_soa(f: SMap, family: GeneratorFamily, budget: int) -> CellFactorization:
    """Factor f as (relative cell map, map with RLP up to depth), by need.

    Attaches one generator cell per unsolved lifting problem, in deterministic
    order, until none remain or the budget runs out (raising BudgetExhausted
    with the partial factorization attached).
    """
    left = identity(f.source)
    right = f
    attachments: list[CellAttachment] = []
    while True:
        found = lifting._first_unsolved((gen, right) for gen in family.generators)
        if found is None:
            return CellFactorization(left, right, tuple(attachments), True)
        if len(attachments) >= budget:
            partial = CellFactorization(left, right, tuple(attachments), False)
            raise BudgetExhausted(
                f"cell budget {budget} exhausted with unsolved problems remaining", partial
            )
        idx, prob = found
        gen = family.generators[idx]
        po = pushout(gen, prob.top)
        step = po.inr  # middle -> new middle (cobase change of the generator)
        left = compose(step, left)
        right = po.induce(prob.bottom, right)
        attachments.append(CellAttachment(idx, prob.top))
    # unreachable


def constant_map(x: FinSSet, target: FinSSet, vertex: str) -> SMap:
    """The map collapsing x to a single vertex of the target."""
    assign = {}
    for c in x.nondegenerate():
        n = x.cell_dim(c)
        s = nondeg(vertex)
        for i in range(n):
            s = target.degen(s, i)
        assign[c] = s
    return SMap(x, target, assign)


# ---------------------------------------- nerves of finite categories


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


# ------------------------------------------- b(X) through its pushouts


@dataclass(frozen=True)
class BResult:
    """b(X): every nondegenerate edge glued to a classifying interval.

    ``copies`` records, per inverted edge, the inclusion of its interval
    copy; ``steps`` keeps the pushouts so maps out of b(X) can be induced.
    """

    sset: FinSSet
    unit: SMap  # X -> b(X)
    edges: tuple[str, ...]
    copies: Mapping[str, SMap] = field(compare=False)
    steps: tuple[kernel.Pushout, ...] = field(compare=False)
    level: int

    def induce(self, on_base: SMap, on_copies: Mapping[str, SMap]) -> SMap:
        """The map b(X) -> Z from a cocone: a map on X and one per copy."""
        cur = on_base
        for e, po in zip(self.edges, self.steps):
            cur = po.induce(cur, on_copies[e])
        return SMap(self.sset, cur.target, cur.assignment)


@lru_cache(maxsize=None)
def b_functor(x: FinSSet, level: int) -> BResult:
    """Glue a truncated classifying interval onto every nondegenerate edge.

    Levels <= ``level`` of the result agree with the untruncated completion;
    the result is marked truncated accordingly (unless nothing was glued).
    """
    sk, edge = interval_groupoid_skeleton(level)
    edges = tuple(x.nondegenerate(1)) if x.dim >= 1 else ()
    current = x
    unit = identity(x)
    copies: dict[str, SMap] = {}
    steps: list[kernel.Pushout] = []
    for e in edges:
        classifier = compose(unit, joyal.edge_classifier(x, nondeg(e)))
        po = kernel.pushout(classifier, edge)
        for prev in copies:
            copies[prev] = compose(po.inl, copies[prev])
        copies[e] = po.inr
        unit = compose(po.inl, unit)
        steps.append(po)
        current = po.sset
    if edges:
        bound = level if x.dim_bound is None else min(level, x.dim_bound)
        current = joyal._retag(current, bound)
        unit = SMap(x, current, unit.assignment)
        copies = {e: SMap(sk, current, m.assignment) for e, m in copies.items()}
    return BResult(current, unit, edges, copies, tuple(steps), level)


def b_map(f: SMap, level: int) -> SMap:
    """The induced map b(f): b(X) -> b(Y)."""
    bx = b_functor(f.source, level)
    by = b_functor(f.target, level)
    sk, _ = interval_groupoid_skeleton(level)
    on_base = compose(by.unit, f)
    on_copies: dict[str, SMap] = {}
    for e in bx.edges:
        img = f.apply_cell(e)
        if img.word:
            # the edge collapses: route its interval copy through the vertex
            vertex = by.unit.apply(nondeg(img.base))
            on_copies[e] = kernel.constant_map(sk, by.sset, vertex.base)
        else:
            on_copies[e] = by.copies[img.base]
    return bx.induce(on_base, on_copies)


# ------------------------------------------------------- .itt syntax walkers


def free_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset([t.name])
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.x}
    if isinstance(t, App):
        return free_vars(t.f) | free_vars(t.a)
    if isinstance(t, HomLam):
        return free_vars(t.body)
    if isinstance(t, HomApp):
        return free_vars(t.f)
    if isinstance(t, EApp):
        out = free_vars(t.f) | free_vars(t.v)
        for c in t.clauses:
            out |= free_vars(c.body) - {c.x}
        return out
    if isinstance(t, (One, I0, I1)):
        return frozenset()
    if isinstance(t, SPair):
        return free_vars(t.a) | free_vars(t.b)
    if isinstance(t, (Fst, Snd, Refl, Pinl, Pinr)):
        inner = t.t
        return free_vars(inner)
    if isinstance(t, IdJ):
        return (
            (free_vars_type(t.dtype) - {t.z, t.p})
            | (free_vars(t.d) - {t.x})
            | free_vars(t.q)
        )
    if isinstance(t, (In, CPair)):
        return free_vars(t.j) | free_vars(t.b)
    if isinstance(t, CoprodElim):
        return (
            (free_vars_type(t.dtype) - {t.z})
            | (free_vars(t.d) - {t.i, t.x})
            | free_vars(t.scrut)
        )
    if isinstance(t, Pglue):
        return free_vars(t.t) | free_vars(t.r)
    if isinstance(t, PushElim):
        return (
            (free_vars_type(t.dtype) - {t.w})
            | (free_vars(t.d1) - {t.y})
            | (free_vars(t.d2) - {t.z})
            | (free_vars(t.d3) - {t.x, t.i})
            | free_vars(t.scrut)
        )
    raise TypeError(f"not a term node: {t!r}")


def free_vars_type(t: Type) -> frozenset:
    if isinstance(t, TConst):
        out = frozenset()
        for a in t.args:
            out |= free_vars(a)
        return out
    if isinstance(t, (TUnit, TInterval)):
        return frozenset()
    if isinstance(t, THom):
        return free_vars_type(t.a) | free_vars_type(t.b)
    if isinstance(t, TDepHom):
        out = free_vars_type(t.b)
        for n, ty in reversed(t.tele):
            out = (out - {n}) | free_vars_type(ty)
        return out
    if isinstance(t, (TPi, TCoprod)):
        return free_vars_type(t.itype) | (free_vars_type(t.body) - {t.i})
    if isinstance(t, TSigma):
        return free_vars_type(t.xtype) | (free_vars_type(t.body) - {t.x})
    if isinstance(t, (TId, TPath)):
        return free_vars_type(t.a) | free_vars(t.left) | free_vars(t.right)
    if isinstance(t, TExt):
        out = free_vars_type(t.v) | (free_vars_type(t.a) - {t.y})
        for c in t.clauses:
            out |= free_vars_type(c.u) | (free_vars(c.j) - {c.x}) | (free_vars(c.body) - {c.x})
        return out
    if isinstance(t, TPushout):
        return free_vars(t.f) | free_vars(t.g)
    raise TypeError(f"not a type node: {t!r}")


def subst(t: Term, name: str, value: Term) -> Term:
    """Capture-avoiding substitution of ``value`` for ``name`` in a term."""
    fv = free_vars(value)

    def go(t: Term, bound: frozenset) -> Term:
        if isinstance(t, Var):
            return value if t.name == name else t
        if isinstance(t, Lam):
            if t.x == name:
                return t
            if t.x in fv:
                nx = fresh(t.x, fv | free_vars(t.body) | bound | {name})
                return Lam(nx, go(subst(t.body, t.x, Var(nx)), bound | {nx}))
            return Lam(t.x, go(t.body, bound | {t.x}))
        if isinstance(t, App):
            return App(go(t.f, bound), go(t.a, bound))
        if isinstance(t, HomLam):
            return HomLam(go(t.body, bound))
        if isinstance(t, HomApp):
            return HomApp(go(t.f, bound))
        if isinstance(t, EApp):
            cls = []
            for c in t.clauses:
                if c.x == name:
                    cls.append(c)
                elif c.x in fv:
                    nx = fresh(c.x, fv | free_vars(c.body) | bound | {name})
                    cls.append(EAppClause(nx, go(subst(c.body, c.x, Var(nx)), bound | {nx})))
                else:
                    cls.append(EAppClause(c.x, go(c.body, bound | {c.x})))
            return EApp(tuple(cls), go(t.f, bound), go(t.v, bound))
        if isinstance(t, (One, I0, I1)):
            return t
        if isinstance(t, SPair):
            return SPair(go(t.a, bound), go(t.b, bound))
        if isinstance(t, Fst):
            return Fst(go(t.t, bound))
        if isinstance(t, Snd):
            return Snd(go(t.t, bound))
        if isinstance(t, Refl):
            return Refl(go(t.t, bound))
        if isinstance(t, Pinl):
            return Pinl(go(t.t, bound))
        if isinstance(t, Pinr):
            return Pinr(go(t.t, bound))
        if isinstance(t, Pglue):
            return Pglue(go(t.t, bound), go(t.r, bound))
        if isinstance(t, IdJ):
            dt = t.dtype if name in (t.z, t.p) else subst_type(t.dtype, name, value)
            d = t.d if name == t.x else subst(t.d, name, value)
            return IdJ(t.z, t.p, dt, t.x, d, go(t.q, bound))
        if isinstance(t, In):
            return In(go(t.j, bound), go(t.b, bound))
        if isinstance(t, CPair):
            return CPair(go(t.j, bound), go(t.b, bound))
        if isinstance(t, CoprodElim):
            dt = t.dtype if name == t.z else subst_type(t.dtype, name, value)
            d = t.d if name in (t.i, t.x) else subst(t.d, name, value)
            return CoprodElim(t.z, dt, t.i, t.x, d, go(t.scrut, bound))
        if isinstance(t, PushElim):
            dt = t.dtype if name == t.w else subst_type(t.dtype, name, value)
            d1 = t.d1 if name == t.y else subst(t.d1, name, value)
            d2 = t.d2 if name == t.z else subst(t.d2, name, value)
            d3 = t.d3 if name in (t.x, t.i) else subst(t.d3, name, value)
            return PushElim(t.w, dt, t.y, d1, t.z, d2, t.x, t.i, d3, go(t.scrut, bound))
        raise TypeError(f"not a term node: {t!r}")

    return go(t, frozenset())


def subst_type(t: Type, name: str, value: Term) -> Type:
    """Capture-avoiding substitution into a type."""
    if isinstance(t, TConst):
        return TConst(t.name, tuple(subst(a, name, value) for a in t.args))
    if isinstance(t, (TUnit, TInterval)):
        return t
    if isinstance(t, THom):
        return THom(subst_type(t.a, name, value), subst_type(t.b, name, value))
    if isinstance(t, TDepHom):
        tele = []
        shadowed = False
        for n, ty in t.tele:
            tele.append((n, ty if shadowed else subst_type(ty, name, value)))
            if n == name:
                shadowed = True
        body = t.b if shadowed else subst_type(t.b, name, value)
        return TDepHom(tuple(tele), body)
    if isinstance(t, (TPi, TCoprod)):
        cls = TPi if isinstance(t, TPi) else TCoprod
        it = subst_type(t.itype, name, value)
        if t.i == name:
            return cls(t.i, it, t.body)
        fv = free_vars(value)
        if t.i in fv:
            ni = fresh(t.i, fv | free_vars_type(t.body) | {name})
            return cls(ni, it, subst_type(subst_type(t.body, t.i, Var(ni)), name, value))
        return cls(t.i, it, subst_type(t.body, name, value))
    if isinstance(t, TSigma):
        xt = subst_type(t.xtype, name, value)
        if t.x == name:
            return TSigma(t.x, xt, t.body)
        fv = free_vars(value)
        if t.x in fv:
            nx = fresh(t.x, fv | free_vars_type(t.body) | {name})
            return TSigma(nx, xt, subst_type(subst_type(t.body, t.x, Var(nx)), name, value))
        return TSigma(t.x, xt, subst_type(t.body, name, value))
    if isinstance(t, (TId, TPath)):
        cls = TId if isinstance(t, TId) else TPath
        return cls(
            subst_type(t.a, name, value),
            subst(t.left, name, value),
            subst(t.right, name, value),
        )
    if isinstance(t, TExt):
        v = subst_type(t.v, name, value)
        a = t.a if t.y == name else subst_type(t.a, name, value)
        cls = []
        for c in t.clauses:
            u = subst_type(c.u, name, value)
            if c.x == name:
                cls.append(ExtClause(c.x, u, c.j, c.body))
            else:
                cls.append(
                    ExtClause(c.x, u, subst(c.j, name, value), subst(c.body, name, value))
                )
        return TExt(t.y, v, a, tuple(cls))
    if isinstance(t, TPushout):
        return TPushout(subst(t.f, name, value), subst(t.g, name, value))
    raise TypeError(f"not a type node: {t!r}")


def alpha_equal(t: Term, u: Term, env: tuple = ()) -> bool:
    """Alpha-equivalence of terms; env pairs bound names left-to-right."""

    def look(n: str, side: int) -> object:
        for i, pair in enumerate(reversed(env)):
            if pair[side] == n:
                return ("b", i)
        return ("f", n)

    if type(t) is not type(u):
        return False
    if isinstance(t, Var):
        return look(t.name, 0) == look(u.name, 1)
    if isinstance(t, Lam):
        return alpha_equal(t.body, u.body, env + ((t.x, u.x),))
    if isinstance(t, App):
        return alpha_equal(t.f, u.f, env) and alpha_equal(t.a, u.a, env)
    if isinstance(t, HomLam):
        return alpha_equal(t.body, u.body, env)
    if isinstance(t, HomApp):
        return alpha_equal(t.f, u.f, env)
    if isinstance(t, EApp):
        if len(t.clauses) != len(u.clauses):
            return False
        for c, d in zip(t.clauses, u.clauses):
            if not alpha_equal(c.body, d.body, env + ((c.x, d.x),)):
                return False
        return alpha_equal(t.f, u.f, env) and alpha_equal(t.v, u.v, env)
    if isinstance(t, (One, I0, I1)):
        return True
    if isinstance(t, SPair):
        return alpha_equal(t.a, u.a, env) and alpha_equal(t.b, u.b, env)
    if isinstance(t, (Fst, Snd, Refl, Pinl, Pinr)):
        return alpha_equal(t.t, u.t, env)
    if isinstance(t, IdJ):
        return (
            alpha_equal_type(t.dtype, u.dtype, env + ((t.z, u.z), (t.p, u.p)))
            and alpha_equal(t.d, u.d, env + ((t.x, u.x),))
            and alpha_equal(t.q, u.q, env)
        )
    if isinstance(t, (In, CPair)):
        return alpha_equal(t.j, u.j, env) and alpha_equal(t.b, u.b, env)
    if isinstance(t, CoprodElim):
        return (
            alpha_equal_type(t.dtype, u.dtype, env + ((t.z, u.z),))
            and alpha_equal(t.d, u.d, env + ((t.i, u.i), (t.x, u.x)))
            and alpha_equal(t.scrut, u.scrut, env)
        )
    if isinstance(t, Pglue):
        return alpha_equal(t.t, u.t, env) and alpha_equal(t.r, u.r, env)
    if isinstance(t, PushElim):
        return (
            alpha_equal_type(t.dtype, u.dtype, env + ((t.w, u.w),))
            and alpha_equal(t.d1, u.d1, env + ((t.y, u.y),))
            and alpha_equal(t.d2, u.d2, env + ((t.z, u.z),))
            and alpha_equal(t.d3, u.d3, env + ((t.x, u.x), (t.i, u.i)))
            and alpha_equal(t.scrut, u.scrut, env)
        )
    raise TypeError(f"not a term node: {t!r}")


def alpha_equal_type(t: Type, u: Type, env: tuple = ()) -> bool:
    if type(t) is not type(u):
        return False
    if isinstance(t, TConst):
        return t.name == u.name and len(t.args) == len(u.args) and all(
            alpha_equal(a, b, env) for a, b in zip(t.args, u.args)
        )
    if isinstance(t, (TUnit, TInterval)):
        return True
    if isinstance(t, THom):
        return alpha_equal_type(t.a, u.a, env) and alpha_equal_type(t.b, u.b, env)
    if isinstance(t, TDepHom):
        if len(t.tele) != len(u.tele):
            return False
        e = env
        for (n1, t1), (n2, t2) in zip(t.tele, u.tele):
            if not alpha_equal_type(t1, t2, e):
                return False
            e = e + ((n1, n2),)
        return alpha_equal_type(t.b, u.b, e)
    if isinstance(t, (TPi, TCoprod)):
        return alpha_equal_type(t.itype, u.itype, env) and alpha_equal_type(
            t.body, u.body, env + ((t.i, u.i),)
        )
    if isinstance(t, TSigma):
        return alpha_equal_type(t.xtype, u.xtype, env) and alpha_equal_type(
            t.body, u.body, env + ((t.x, u.x),)
        )
    if isinstance(t, (TId, TPath)):
        return (
            alpha_equal_type(t.a, u.a, env)
            and alpha_equal(t.left, u.left, env)
            and alpha_equal(t.right, u.right, env)
        )
    if isinstance(t, TExt):
        if len(t.clauses) != len(u.clauses):
            return False
        if not alpha_equal_type(t.v, u.v, env):
            return False
        if not alpha_equal_type(t.a, u.a, env + ((t.y, u.y),)):
            return False
        for c, d in zip(t.clauses, u.clauses):
            if not alpha_equal_type(c.u, d.u, env):
                return False
            e = env + ((c.x, d.x),)
            if not alpha_equal(c.j, d.j, e) or not alpha_equal(c.body, d.body, e):
                return False
        return True
    if isinstance(t, TPushout):
        return alpha_equal(t.f, u.f, env) and alpha_equal(t.g, u.g, env)
    raise TypeError(f"not a type node: {t!r}")


_TOKEN = re.compile(
    r"""(?P<ws>\s+|--[^\n]*)
      | (?P<sym>:=|\(\)|[()<>{}|,.:\\#])
      | (?P<name>[A-Za-z_][A-Za-z0-9_'-]*)
    """,
    re.VERBOSE,
)

_TYPE_KEYWORDS = {
    "One", "I1", "Hom", "Pi", "Coprod", "Sigma", "Id", "Path", "Pushout",
}
_RESERVED = _TYPE_KEYWORDS | {"def", "postulate", "Type", "Base"}


def tokens(src: str) -> list[tuple[str, str, int, int]]:
    toks: list[tuple[str, str, int, int]] = []
    line, bol = 1, 0
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, pos - bol + 1)
        text = m.group(0)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, text, line, pos - bol + 1))
        line += text.count("\n")
        if "\n" in text:
            bol = pos + text.rindex("\n") + 1
        pos = m.end()
    return toks


class _Tokens:
    def __init__(self, src: str):
        self.toks = tokens(src)
        self.idx = 0
        self.depth = 0

    def peek(self, k: int = 0) -> Optional[tuple]:
        if self.idx + k < len(self.toks):
            return self.toks[self.idx + k]
        return None

    def next(self) -> tuple:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else (None, "", 1, 1)
            raise ParseError("unexpected end of input", last[2], last[3])
        self.idx += 1
        return t

    def expect(self, text: str) -> tuple:
        t = self.next()
        if t[1] != text:
            raise ParseError(f"expected {text!r}, found {t[1]!r}", t[2], t[3])
        return t

    def at(self, text: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t is not None and t[1] == text

    def err(self, message: str) -> ParseError:
        t = self.peek() or (None, "", 1, 1)
        return ParseError(message, t[2], t[3])

    def deeper(self) -> None:
        """Go one level deeper in the syntax tree, refusing to pass _MAX_NESTING."""
        if self.depth >= _MAX_NESTING:
            raise self.err(f"nesting deeper than {_MAX_NESTING} levels")
        self.depth += 1


def _nested(parse):
    """Count each ``parse`` call as one level of nesting, for its duration."""

    def nested(ts: _Tokens):
        depth = ts.depth
        ts.deeper()
        try:
            return parse(ts)
        finally:
            ts.depth = depth

    return nested


def _parse_name(ts: _Tokens) -> str:
    t = ts.next()
    if t[0] != "name":
        raise ParseError(f"expected a name, found {t[1]!r}", t[2], t[3])
    return t[1]


def _parse_tele_entry(ts: _Tokens) -> tuple:
    ts.expect("(")
    names = [_parse_name(ts)]
    while not ts.at(":"):
        names.append(_parse_name(ts))
    ts.expect(":")
    ty = _parse_type(ts)
    ts.expect(")")
    return tuple((n, ty) for n in names)


def _parse_tele(ts: _Tokens) -> tuple:
    if ts.at("()"):  # an explicitly empty telescope
        ts.next()
        return ()
    out: list = []
    while ts.at("(") and ts.peek(1) is not None and ts.peek(1)[0] == "name":
        # lookahead: a telescope entry is '(' names ':' ...
        save = ts.idx
        try:
            out.extend(_parse_tele_entry(ts))
        except ParseError:
            ts.idx = save
            break
    return tuple(out)


def _parse_binder_head(ts: _Tokens) -> tuple:
    ts.expect("(")
    n = _parse_name(ts)
    ts.expect(":")
    ty = _parse_type(ts)
    ts.expect(")")
    return n, ty


@_nested
def _parse_type(ts: _Tokens) -> Type:
    t = ts.peek()
    if t is None:
        raise ts.err("expected a type")
    kind, text = t[0], t[1]
    if text == "One":
        ts.next()
        return TUnit()
    if text == "I1":
        ts.next()
        return TInterval()
    if text == "Hom":
        ts.next()
        ts.expect("(")
        if ts.at("("):
            tele: list = []
            while ts.at("("):
                tele.extend(_parse_tele_entry(ts))
            ts.expect(".")
            b = _parse_type(ts)
            ts.expect(")")
            return TDepHom(tuple(tele), b)
        a = _parse_type(ts)
        ts.expect(",")
        b = _parse_type(ts)
        ts.expect(")")
        return THom(a, b)
    if text in ("Pi", "Coprod", "Sigma"):
        ts.next()
        n, ty = _parse_binder_head(ts)
        body = _parse_type(ts)
        if text == "Pi":
            return TPi(n, ty, body)
        if text == "Coprod":
            return TCoprod(n, ty, body)
        return TSigma(n, ty, body)
    if text in ("Id", "Path"):
        ts.next()
        ts.expect("(")
        a = _parse_type(ts)
        ts.expect(",")
        left = _parse_term(ts)
        ts.expect(",")
        right = _parse_term(ts)
        ts.expect(")")
        return TId(a, left, right) if text == "Id" else TPath(a, left, right)
    if text == "Pushout":
        ts.next()
        ts.expect("(")
        f = _parse_term(ts)
        ts.expect(",")
        g = _parse_term(ts)
        ts.expect(")")
        return TPushout(f, g)
    if text == "<":
        ts.next()
        ts.expect("Pi")
        y, v = _parse_binder_head(ts)
        a = _parse_type(ts)
        ts.expect("|")
        clauses = []
        while True:
            x, u = _parse_binder_head(ts)
            j = _parse_atom(ts)
            ts.expect(".")
            body = _parse_term(ts)
            clauses.append(ExtClause(x, u, j, body))
            if ts.at(","):
                ts.next()
                continue
            break
        ts.expect(">")
        return TExt(y, v, a, tuple(clauses))
    if text == "(":
        ts.next()
        name = _parse_name(ts)
        args = []
        while not ts.at(")"):
            args.append(_parse_atom(ts))
        ts.expect(")")
        return TConst(name, tuple(args))
    if kind == "name":
        ts.next()
        return TConst(text)
    raise ts.err(f"expected a type, found {text!r}")


@_nested
def _parse_term(ts: _Tokens) -> Term:
    if ts.at("\\"):
        ts.next()
        x = _parse_name(ts)
        ts.expect(".")
        return Lam(x, _parse_term(ts))
    t = _parse_atom(ts)
    while True:
        # each application wraps the spine built so far one level deeper
        if ts.at("()"):
            ts.deeper()
            ts.next()
            t = HomApp(t)
            continue
        nxt = ts.peek()
        if nxt is not None and (
            nxt[1] == "("
            or (nxt[0] == "name" and nxt[1] not in _RESERVED)
            or nxt[1] == "\\"
        ):
            ts.deeper()
            if nxt[1] == "\\":
                ts.next()
                x = _parse_name(ts)
                ts.expect(".")
                t = App(t, Lam(x, _parse_term(ts)))
                return t
            t = App(t, _parse_atom(ts))
            continue
        return t


def _parse_atom(ts: _Tokens) -> Term:
    t = ts.peek()
    if t is None:
        raise ts.err("expected a term")
    kind, text = t[0], t[1]
    if text == "one":
        ts.next()
        return One()
    if text == "i0":
        ts.next()
        return I0()
    if text == "i1":
        ts.next()
        return I1()
    if text == "\\":
        ts.next()
        x = _parse_name(ts)
        ts.expect(".")
        return Lam(x, _parse_term(ts))
    if text == "lam":
        ts.next()
        ts.expect("(")
        body = _parse_term(ts)
        ts.expect(")")
        return HomLam(body)
    if text == "app":
        ts.next()
        ts.expect("{")
        clauses = []
        while True:
            x = _parse_name(ts)
            ts.expect(".")
            body = _parse_term(ts)
            clauses.append(EAppClause(x, body))
            if ts.at(","):
                ts.next()
                continue
            break
        ts.expect("}")
        ts.expect("(")
        f = _parse_term(ts)
        ts.expect(",")
        v = _parse_term(ts)
        ts.expect(")")
        return EApp(tuple(clauses), f, v)
    if text in ("spair", "in", "pglue"):
        ts.next()
        ts.expect("(")
        a = _parse_term(ts)
        ts.expect(",")
        b = _parse_term(ts)
        ts.expect(")")
        return {"spair": SPair, "in": In, "pglue": Pglue}[text](a, b)
    if text in ("fst", "snd", "refl", "pinl", "pinr"):
        ts.next()
        ts.expect("(")
        inner = _parse_term(ts)
        ts.expect(")")
        return {"fst": Fst, "snd": Snd, "refl": Refl, "pinl": Pinl, "pinr": Pinr}[text](inner)
    if text == "idJ":
        ts.next()
        ts.expect("(")
        z = _parse_name(ts)
        p = _parse_name(ts)
        ts.expect(".")
        dtype = _parse_type(ts)
        ts.expect(",")
        x = _parse_name(ts)
        ts.expect(".")
        d = _parse_term(ts)
        ts.expect(",")
        q = _parse_term(ts)
        ts.expect(")")
        return IdJ(z, p, dtype, x, d, q)
    if text == "coprod-elim":
        ts.next()
        ts.expect("(")
        z = _parse_name(ts)
        ts.expect(".")
        dtype = _parse_type(ts)
        ts.expect(",")
        i = _parse_name(ts)
        x = _parse_name(ts)
        ts.expect(".")
        d = _parse_term(ts)
        ts.expect(",")
        scrut = _parse_term(ts)
        ts.expect(")")
        return CoprodElim(z, dtype, i, x, d, scrut)
    if text == "pelim":
        ts.next()
        ts.expect("(")
        w = _parse_name(ts)
        ts.expect(".")
        dtype = _parse_type(ts)
        ts.expect(",")
        y = _parse_name(ts)
        ts.expect(".")
        d1 = _parse_term(ts)
        ts.expect(",")
        z = _parse_name(ts)
        ts.expect(".")
        d2 = _parse_term(ts)
        ts.expect(",")
        x = _parse_name(ts)
        i = _parse_name(ts)
        ts.expect(".")
        d3 = _parse_term(ts)
        ts.expect(",")
        scrut = _parse_term(ts)
        ts.expect(")")
        return PushElim(w, dtype, y, d1, z, d2, x, i, d3, scrut)
    if text == "(":
        ts.next()
        a = _parse_term(ts)
        if ts.at(","):
            ts.next()
            b = _parse_term(ts)
            ts.expect(")")
            return CPair(a, b)
        ts.expect(")")
        return a
    if kind == "name" and text not in _RESERVED:
        ts.next()
        return Var(text)
    raise ts.err(f"expected a term, found {text!r}")


def parse_file(src: str) -> tuple[tuple, tuple]:
    """Parse a ``.itt`` source: returns (pragmas, declarations)."""
    ts = _Tokens(src)
    pragmas = []
    while ts.at("#"):
        ts.next()
        pragmas.append(_parse_name(ts))
    decls = []
    while ts.peek() is not None:
        t = ts.next()
        if t[1] not in ("def", "postulate"):
            raise ParseError(f"expected a declaration, found {t[1]!r}", t[2], t[3])
        name = _parse_name(ts)
        btele = _parse_tele(ts)
        itele = None
        if ts.at("|"):
            ts.next()
            itele = _parse_tele(ts)
        ts.expect(":")
        if ts.at("Type"):
            ts.next()
            rhs: object = "Type"
        elif ts.at("Base"):
            ts.next()
            rhs = "Base"
        else:
            rhs = _parse_type(ts)
        body = None
        if ts.at(":="):
            ts.next()
            body = _parse_term(ts)
        decls.append(RawDecl(t[1], name, btele, itele, rhs, body, line=t[2]))
    return tuple(pragmas), tuple(decls)


def parse_term(src: str) -> Term:
    ts = _Tokens(src)
    t = _parse_term(ts)
    if ts.peek() is not None:
        raise ts.err("trailing input after term")
    return t


def parse_type(src: str) -> Type:
    ts = _Tokens(src)
    t = _parse_type(ts)
    if ts.peek() is not None:
        raise ts.err("trailing input after type")
    return t
