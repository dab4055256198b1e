"""Finite limits and colimits with their mediating maps.

Finite limits are chosen pullbacks, one :class:`Pullback` record realized
from semantic pairs of simplices: the product x x y is the pullback of
x -> 1 <- y, and a pullback along an identity is the other leg.
:func:`q_map` is the map between two chosen pullbacks of one leg,
q(sigma, A) of the model.  A pushout along a monomorphism attaches the
cells of its target to the other leg's target; any other pushout is
realized by levelwise union-find on the two legs.  Every construction is
deterministic, so repeated calls on equal inputs give literally equal
results -- the model layer's strict substitution laws depend on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .build import Built, LevelPresentation
from .simplex import Simplex, nondeg
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
    """Realization level and resulting dim_bound for a limit-style build."""
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
    """Realize the pairs of simplices of f.source and g.source over one
    simplex of the common target, with ids ``{prefix}{level}_{index}``."""
    x, y = f.source, g.source
    if x.dim < 0 or y.dim < 0:  # no simplices, so simplex_of is never called
        return Pullback(EMPTY, initial_map(x), initial_map(y), f, None)  # type: ignore[arg-type]
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
    return Pullback(p, proj1, proj2, f, lambda a, b: built.decompose(x.simplex_dim(a), (a, b)))


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
    levels = []
    for n in range(max(x.dim, y.dim) + 1):
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

    ``origin[cid]`` is the key that represents the cell ``cid``: ``("b", s)``
    for a simplex s of B, or ``("c", s)`` for one of C.
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

    The pushout is the levelwise quotient of B_n + C_n by f(s) ~ g(s).  Its
    cells are named ``g{n}_{i}``: each class is keyed by its least member
    ``(tag, simplex)`` in ``repr`` order, and the nondegenerate classes of
    level n are numbered in the ``repr`` order of their keys.

    When f is a monomorphism, as a generator of the small object argument
    is, the pushout is built directly (``_attach``): it is C with the cells
    of B outside f(A) attached.  Otherwise the levelwise classes are
    realized by ``kernel/build.Built``.  Both name the cells alike, so the
    two give equal results on a monomorphism.
    """
    if f.source != g.source:
        raise SSetError("pushout: domain mismatch")
    a, b, c = f.source, f.target, g.target
    finite = [z.dim_bound for z in (a, b, c) if z.dim_bound is not None]
    bound = min(finite) if finite else None
    exact_top = max(b.dim, c.dim)
    max_level = exact_top if bound is None else min(bound, exact_top)
    if max_level < exact_top:  # inl and inr could not send the cells above it anywhere
        raise Truncated(f"pushout truncated at {max_level}, below leg dimension {exact_top}")
    hit = f.preimages()
    if hit is not None:
        return _attach(f, g, hit, bound)

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
    return Pushout(p, inl, inr, {cid: key for cid, (_, key) in built._keys.items()})


def _attach(f: SMap, g: SMap, hit: dict[str, str], bound: Optional[int]) -> Pushout:
    """The pushout along a monomorphism f: A -> B, whose cells f hits are ``hit``.

    Its cells are the cells of C and the cells of B outside f(A).  A class
    holding a cell t of C also holds f(a) for each cell a with g(a) = t, and
    ``('b', ...)`` precedes ``('c', ...)`` in ``repr`` order, so t is keyed
    by the least such ``('b', f(a))``, or by ``('c', t)`` when g hits t from
    no cell.  A cell x of B outside f(A) is a class of its own, keyed
    ``('b', x)``.  These are the keys ``Built`` gives the classes, so the
    ids agree with the general realizer's.  The faces of C's cells are
    renamed; a face s_w y of a new cell goes through g when y = f(a), as
    g(s_w a), and is renamed otherwise.
    """
    b, c = f.target, g.target
    keys: dict[str, tuple[str, Simplex]] = {t: ("c", nondeg(t)) for t in c.nondegenerate()}
    for cell, s in g.assignment.items():
        if not s.word:
            keys[s.base] = min(keys[s.base], ("b", f.assignment[cell]), key=repr)
    ids_c: dict[str, str] = {}
    ids_b: dict[str, str] = {}

    def from_c(s: Simplex) -> Simplex:
        return Simplex(s.word, ids_c[s.base])

    def from_b(s: Simplex) -> Simplex:
        if s.base in hit:
            return from_c(g.apply(Simplex(s.word, hit[s.base])))
        return Simplex(s.word, ids_b[s.base])

    # a cell's faces have their bases at lower levels, whose cells already have ids
    levels: list[tuple[str, ...]] = []
    faces: dict[str, tuple[Simplex, ...]] = {}
    origin: dict[str, tuple[str, Simplex]] = {}
    for n in range(max(b.dim, c.dim) + 1):
        level = [(repr(keys[t]), t, True) for t in c.nondegenerate(n)]
        level += [(repr(("b", nondeg(x))), x, False) for x in b.nondegenerate(n) if x not in hit]
        level.sort()
        names = tuple(f"g{n}_{i}" for i in range(len(level)))
        for cid, (_, cell, old) in zip(names, level):
            if old:
                ids_c[cell], origin[cid] = cid, keys[cell]
            else:
                ids_b[cell], origin[cid] = cid, ("b", nondeg(cell))
            if n:
                faces[cid] = tuple(map(from_c, c.faces[cell]) if old else map(from_b, b.faces[cell]))
        levels.append(names)
    while levels and not levels[-1]:
        levels.pop()
    p = FinSSet(tuple(levels), faces, bound)
    inl = SMap(b, p, {x: from_b(nondeg(x)) for x in b.nondegenerate()})
    inr = SMap(c, p, {t: nondeg(ids_c[t]) for t in c.nondegenerate()})
    return Pushout(p, inl, inr, origin)
