"""Finite limits and colimits with their mediating maps.

Products and pullbacks are realized from semantic pairs of simplices;
pushouts by levelwise union-find on the two legs.  Every construction is
deterministic, so repeated calls on equal inputs give literally equal
results -- the model layer's strict substitution laws depend on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .build import Built, LevelPresentation
from .simplex import Simplex, nondeg
from .sset import EMPTY, FinSSet, SMap, SSetError, constant_map, identity

__all__ = [
    "terminal",
    "terminal_map",
    "initial_map",
    "Product",
    "product",
    "Pullback",
    "pullback",
    "Pushout",
    "pushout",
    "Coproduct",
    "coproduct",
]


def terminal() -> FinSSet:
    from .standard import std_simplex

    return std_simplex(0)


def terminal_map(x: FinSSet) -> SMap:
    from .standard import std_simplex

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


def _identity_pullback(f: SMap, g: SMap, f_is_id: bool) -> Pullback:
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


def pullback(f: SMap, g: SMap) -> Pullback:
    """Chosen pullback of the cospan f: X -> Z <- Y : g.

    ``to_left`` projects to X, ``to_right`` to Y.
    """
    if f.target != g.target:
        raise SSetError("pullback: codomain mismatch")
    if f == identity(f.source):
        return _identity_pullback(f, g, True)
    if g == identity(g.source):
        return _identity_pullback(f, g, False)
    x, y = f.source, g.source
    if x.dim < 0 or y.dim < 0:
        empty = EMPTY
        return Pullback(empty, SMap(empty, x, {}), SMap(empty, y, {}), f, g, None)  # type: ignore[arg-type]
    exact_bound = x.dim + y.dim
    max_level, dim_bound = _joint_bound([x, y], exact_bound)

    def elements(n: int):
        ys = {}
        for b in y.simplices(n):
            ys.setdefault(g.apply(b), []).append(b)
        out = []
        for a in x.simplices(n):
            for b in ys.get(f.apply(a), ()):  # matching images only
                out.append((a, b))
        return out

    pres = LevelPresentation(
        max_level=max_level,
        elements=elements,
        face_at=lambda n, k, i: (x.face(k[0], i), y.face(k[1], i)),
        degen_at=lambda n, k, i: (x.degen(k[0], i), y.degen(k[1], i)),
    )
    built = Built(pres, dim_bound, prefix="q")
    p = built.sset
    to_left = SMap(p, x, {c: built._keys[c][1][0] for c in p.nondegenerate()})
    to_right = SMap(p, y, {c: built._keys[c][1][1] for c in p.nondegenerate()})
    return Pullback(p, to_left, to_right, f, g, built)


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
    sset: FinSSet
    inl: SMap  # from f.target (B)
    inr: SMap  # from g.target (C)
    left_map: SMap
    right_map: SMap
    _built: Built
    _cls: Callable[[int, tuple], tuple]

    def induce(self, u: SMap, v: SMap) -> SMap:
        """Cocone factorization: u from B, v from C with u.f == v.g."""
        if u.target != v.target:
            raise SSetError("pushout induce: codomain mismatch")
        b, c = self.left_map.target, self.right_map.target
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
    return Pushout(p, inl, inr, f, g, built, cls)
