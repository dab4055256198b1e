"""Finite limits and colimits with their mediating maps.

Finite limits are chosen pullbacks, one :class:`Pullback` record glued
level by level from its legs' simplices: a pair is a cell when the two
normal-form words share no letter.  The product x x y is the pullback of
x -> 1 <- y, and a pullback along an identity is the other leg.
:func:`q_map` is the map between two chosen pullbacks of one leg,
q(sigma, A) of the model.  Every pushout, along a monomorphism as in the
small object argument or along any other map, is glued level by level from
the nondegenerate cells of its legs.  Every construction is deterministic,
so repeated calls on equal inputs give literally equal results -- the model
layer's strict substitution laws depend on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .simplex import Simplex, nondeg, word_insert
from .sset import EMPTY, FinSSet, SMap, SSetError, Truncated, compose, constant_map, identity
from .standard import std_simplex

__all__ = [
    "terminal",
    "terminal_map",
    "initial_map",
    "product",
    "Pullback",
    "pullback",
    "q_map",
    "Pushout",
    "pushout",
    "Coproduct",
    "coproduct",
]


def terminal() -> FinSSet:
    return std_simplex(0)


def terminal_map(x: FinSSet) -> SMap:
    return constant_map(x, std_simplex(0), "0")


def initial_map(x: FinSSet) -> SMap:
    return SMap(EMPTY, x, {})


def _joint_bound(xs: list[FinSSet], exact_bound: int) -> tuple[int, Optional[int]]:
    """Realization level and resulting dim_bound of a pullback."""
    finite = [x.dim_bound for x in xs if x.dim_bound is not None]
    if finite:
        bound = min(finite)
        return min(bound, exact_bound) if exact_bound >= 0 else bound, bound
    return exact_bound, None


@dataclass
class Pullback:
    """The chosen pullback of the cospan left_map: X -> Z <- Y.

    ``proj1`` projects to X and ``proj2`` to Y; ``simplex_of(a, b)`` is the
    simplex over a of X and b of Y, which must have equal images in Z.
    """

    sset: FinSSet
    proj1: SMap
    proj2: SMap
    left_map: SMap
    simplex_of: Callable[[Simplex, Simplex], Simplex]

    def components(self, s: Simplex) -> tuple[Simplex, Simplex]:
        return self.proj1.apply(s), self.proj2.apply(s)

    def pair(self, u: SMap, v: SMap) -> SMap:
        """The map <u, v>: W -> X x_Z Y."""
        assign = {
            c: self.simplex_of(u.apply_cell(c), v.apply_cell(c))
            for c in u.source.nondegenerate()
        }
        return SMap(u.source, self.sset, assign)


def _pullback(f: SMap, g: SMap, prefix: str) -> Pullback:
    """Glue the pairs of simplices of f.source and g.source over one simplex
    of the common target, with ids ``{prefix}{level}_{index}``.

    By Eilenberg-Zilber, componentwise, a pair (a, b) is s_j of a pair
    exactly when j is a letter of both normal-form words.  So the cells of
    level n are the pairs whose words share no letter, numbered in the
    ``repr`` order of the pairs, and a pair is s_w of the cell left when its
    common letters w are stripped, highest first.
    """
    x, y = f.source, g.source
    if x.dim < 0 or y.dim < 0:  # no simplices, so simplex_of is never called
        return Pullback(EMPTY, initial_map(x), initial_map(y), f, None)  # type: ignore[arg-type]
    max_level, dim_bound = _joint_bound([x, y], x.dim + y.dim)
    normal: dict[tuple[Simplex, Simplex], Simplex] = {}  # a pair -> its simplex, seeded with the cells

    def simplex_of(a: Simplex, b: Simplex) -> Simplex:
        s = normal.get((a, b))
        if s is not None:
            return s
        word = tuple(sorted(set(a.word).intersection(b.word), reverse=True))
        c, d = a, b
        for j in word:
            c, d = x.face(c, j), y.face(d, j)
        cell = normal.get((c, d)) if word else None
        if cell is None:
            raise SSetError(f"semantic simplex {(c, d)!r} at level {x.simplex_dim(c)} was never realized")
        s = normal[(a, b)] = Simplex(word, cell.base)
        return s

    levels: list[tuple[str, ...]] = []
    faces: dict[str, tuple[Simplex, ...]] = {}
    pairs: dict[str, tuple[Simplex, Simplex]] = {}
    for n in range(max_level + 1):
        over: dict[Simplex, list[Simplex]] = {}
        for b in y.simplices(n):
            over.setdefault(g.apply(b), []).append(b)
        kept = sorted(
            ((a, b) for a in x.simplices(n) for b in over.get(f.apply(a), ()) if set(a.word).isdisjoint(b.word)),
            key=repr,
        )
        names = tuple(f"{prefix}{n}_{i}" for i in range(len(kept)))
        for cid, (a, b) in zip(names, kept):
            pairs[cid] = (a, b)
            normal[(a, b)] = nondeg(cid)
            if n:
                faces[cid] = tuple(simplex_of(x.face(a, i), y.face(b, i)) for i in range(n + 1))
        levels.append(names)
    while levels and not levels[-1]:
        levels.pop()
    p = FinSSet(tuple(levels), faces, dim_bound)
    proj1 = SMap(p, x, {c: a for c, (a, _) in pairs.items()})
    proj2 = SMap(p, y, {c: b for c, (_, b) in pairs.items()})
    return Pullback(p, proj1, proj2, f, simplex_of)


def product(x: FinSSet, y: FinSSet) -> Pullback:
    """The product x x y: the chosen pullback of x -> 1 <- y."""
    return _pullback(terminal_map(x), terminal_map(y), "p")


def pullback(f: SMap, g: SMap) -> Pullback:
    """Chosen pullback of the cospan f: X -> Z <- Y : g.

    Along an identity it is the other leg itself, so extending a context by
    the unit type gives back the context.
    """
    if f.target != g.target:
        raise SSetError("pullback: codomain mismatch")
    if f == identity(f.source):
        return Pullback(g.source, g, identity(g.source), f, lambda a, b: b)
    if g == identity(g.source):
        return Pullback(f.source, identity(f.source), f, f, lambda a, b: a)
    return _pullback(f, g, "q")


def q_map(sigma: SMap, pb: Pullback, pb_sigma: Pullback) -> SMap:
    """The map pb_sigma.sset -> pb.sset between chosen pullbacks over sigma.

    ``pb`` is the chosen pullback of f: X -> Z <- Y : g and ``pb_sigma`` that
    of f . sigma and g, for sigma: X' -> X.  In the model it is q(sigma, A):
    Delta.sigma*A -> Gamma.A between chosen context extensions.
    """
    return pb.pair(compose(sigma, pb_sigma.proj1), pb_sigma.proj2)


@dataclass
class Coproduct:
    sset: FinSSet
    inl: SMap
    inr: SMap

    def induce(self, u: SMap, v: SMap) -> SMap:
        if u.target != v.target:
            raise SSetError("coproduct induce: codomain mismatch")
        assign: dict[str, Simplex] = {}
        for c, s in self.inl.assignment.items():
            assign[s.base] = u.apply_cell(c)
        for c, s in self.inr.assignment.items():
            assign[s.base] = v.apply_cell(c)
        return SMap(self.sset, u.target, assign)


def coproduct(x: FinSSet, y: FinSSet) -> Coproduct:
    finite = [b for b in (x.dim_bound, y.dim_bound) if b is not None]
    bound = min(finite) if finite else None
    exact_top = max(x.dim, y.dim)
    if bound is not None and bound < exact_top:  # as in pushout: no room for the cells above it
        raise Truncated(f"coproduct truncated at {bound}, below summand dimension {exact_top}")
    levels = []
    for n in range(exact_top + 1):
        level = []
        if n <= x.dim:
            level.extend(f"l_{c}" for c in x.cells[n])
        if n <= y.dim:
            level.extend(f"r_{c}" for c in y.cells[n])
        levels.append(tuple(level))
    faces: dict[str, tuple[Simplex, ...]] = {}
    for c, fs in x.faces.items():
        faces[f"l_{c}"] = tuple(Simplex(s.word, f"l_{s.base}") for s in fs)
    for c, fs in y.faces.items():
        faces[f"r_{c}"] = tuple(Simplex(s.word, f"r_{s.base}") for s in fs)
    total = FinSSet(tuple(levels), faces, bound)
    inl = SMap(x, total, {c: nondeg(f"l_{c}") for c in x.nondegenerate()})
    inr = SMap(y, total, {c: nondeg(f"r_{c}") for c in y.nondegenerate()})
    return Coproduct(total, inl, inr)


@dataclass
class Pushout:
    """The chosen pushout of B <- A -> C, with ``inl`` from B and ``inr`` from C.

    ``origin[cid]`` is the key that represents the cell ``cid``, the least
    cell of its class in ``repr`` order: ``("b", x)`` for a nondegenerate
    simplex x of B, or ``("c", t)`` for one of C.
    """

    sset: FinSSet
    inl: SMap
    inr: SMap
    origin: dict[str, tuple[str, Simplex]]

    def induce(self, u: SMap, v: SMap) -> SMap:
        """Cocone factorization: u from B, v from C with u.f == v.g."""
        if u.target != v.target:
            raise SSetError("pushout induce: codomain mismatch")
        assign: dict[str, Simplex] = {}
        for cid in self.sset.nondegenerate():
            tag, s = self.origin[cid]
            assign[cid] = u.apply(s) if tag == "b" else v.apply(s)
        return SMap(self.sset, u.target, assign)


def pushout(f: SMap, g: SMap) -> Pushout:
    """Chosen pushout of the span B <- A -> C (f: A -> B, g: A -> C).

    The pushout is the levelwise quotient of B_n + C_n by f(s) ~ g(s), glued
    level by level from the legs' cells.  By Eilenberg-Zilber only the
    nondegenerate cells x of A tie classes: a degenerate s_w y of A ties
    s_w f(y) to s_w g(y), which level n - |w| has already tied.  A class
    that meets a degenerate simplex s_w y is the degenerate simplex s_w of
    y's image, a lower cell that already has a name.  Every other class is
    a new cell ``g{n}_{i}``, keyed by its least member ``(tag, simplex)``
    in ``repr`` order; the cells of level n are numbered in the ``repr``
    order of their keys, and a cell's faces are its key's faces, mapped
    into the pushout.
    """
    if f.source != g.source:
        raise SSetError("pushout: domain mismatch")
    a, b, c = f.source, f.target, g.target
    finite = [z.dim_bound for z in (a, b, c) if z.dim_bound is not None]
    bound = min(finite) if finite else None
    exact_top = max(b.dim, c.dim)
    if bound is not None and bound < exact_top:  # inl and inr could not send the cells above it anywhere
        raise Truncated(f"pushout truncated at {bound}, below leg dimension {exact_top}")
    legs = {"b": b, "c": c}
    image: dict[str, dict[str, Simplex]] = {"b": {}, "c": {}}  # a leg's cell -> its simplex in the pushout
    levels: list[tuple[str, ...]] = []
    faces: dict[str, tuple[Simplex, ...]] = {}
    origin: dict[str, tuple[str, Simplex]] = {}
    for n in range(exact_top + 1):
        parent: dict[tuple[str, Simplex], tuple[str, Simplex]] = {}

        def find(t: tuple[str, Simplex]) -> tuple[str, Simplex]:
            while parent.setdefault(t, t) != t:
                t = parent[t]
            return t

        for x in a.nondegenerate(n):
            r1, r2 = find(("b", f.assignment[x])), find(("c", g.assignment[x]))
            parent[r2] = r1
        classes: dict[tuple[str, Simplex], list[tuple[str, Simplex]]] = {}
        for t in parent:
            classes.setdefault(find(t), []).append(t)
        cells = []  # (repr of the key, key, the class's members), one per new cell
        for members in classes.values():
            degenerate = next((m for m in members if m[1].word), None)
            if degenerate is None:
                key = min(members, key=repr)
                cells.append((repr(key), key, members))
                continue
            tag, s = degenerate
            simplex = _degenerate(s.word, image[tag][s.base])
            for tag, s in members:
                if not s.word:
                    image[tag][s.base] = simplex
        for tag, z in legs.items():
            for x in z.nondegenerate(n):
                key = (tag, nondeg(x))
                if key not in parent:
                    cells.append((repr(key), key, ()))
        cells.sort()
        names = tuple(f"g{n}_{i}" for i in range(len(cells)))
        for cid, (_, key, members) in zip(names, cells):
            origin[cid] = key
            tag, s = key
            to = image[tag]
            to[s.base] = cell = nondeg(cid)
            for t, y in members:
                image[t][y.base] = cell
            if n:
                faces[cid] = tuple([
                    _degenerate(y.word, to[y.base]) if y.word else to[y.base] for y in legs[tag].faces[s.base]
                ])
        levels.append(names)
    while levels and not levels[-1]:
        levels.pop()
    p = FinSSet(tuple(levels), faces, bound)
    inl = SMap(b, p, {x: image["b"][x] for x in b.nondegenerate()})
    inr = SMap(c, p, {t: image["c"][t] for t in c.nondegenerate()})
    return Pushout(p, inl, inr, origin)


def _degenerate(word: tuple[int, ...], s: Simplex) -> Simplex:
    """s_w s, in normal form."""
    if not s.word:
        return Simplex(word, s.base)
    for i in reversed(word):
        s = Simplex(word_insert(s.word, i), s.base)
    return s
