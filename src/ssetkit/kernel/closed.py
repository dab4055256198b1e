"""Closed structure: pushforwards (dependent products) and exponentials.

An n-simplex of a pushforward is a section over the chosen pullback of
std(n), and it moves between levels, and transposes, along the map
:func:`~ssetkit.kernel.limits.q_map` between chosen pullbacks.  An
exponential is the point case of the pushforward: Y^X is the dependent
product of the projection Y x X -> X along X -> 1, so it is a
:class:`Pushforward` and shares its simplices, transpose and evaluation.

A pushforward realizes itself: its simplices are keys (tau, section), its
cells the keys that are no degeneracy of a key, and a key is s_j of a key
only when j is a letter of tau's normal-form word, so only those letters
are tested.

A pushforward can be infinite-dimensional even for finite inputs, so it
takes an explicit ``depth`` and returns an honest truncation: every level up
to ``depth`` is the true level.  Downstream consumers (map enumeration,
lifting checks, sections over a low-dimensional context) declare the depth
they need.
"""

from __future__ import annotations

from typing import Optional

from .homs import enumerate_sections
from .limits import Pullback, product, pullback, q_map, terminal_map
from .simplex import Simplex, nondeg
from .sset import FinSSet, SMap, SSetError, compose
from .standard import delta_map, sigma_map, yoneda

__all__ = ["Exponential", "exponential", "Pushforward", "pushforward"]


def _encode(m: SMap) -> tuple:
    return tuple(sorted(m.assignment.items()))


def _decode(enc: tuple, source: FinSSet, target: FinSSet) -> SMap:
    return SMap(source, target, dict(enc))


class Pushforward:
    """The dependent product of g: E -> A along f: A -> B, truncated.

    An n-simplex over tau: std(n) -> B is a section of g over the pullback of
    f along tau, the key (tau, section).  The cells of level n are numbered
    ``f{n}_{i}`` in the ``repr`` order of their keys.
    """

    def __init__(self, f: SMap, g: SMap, depth: int):
        if g.target != f.source:
            raise SSetError("pushforward: g must land in the domain of f")
        self.f = f
        self.g = g
        self.depth = depth
        self._fibers: dict[tuple[int, Simplex], Pullback] = {}
        self._ids: dict[tuple, str] = {}  # a cell's key -> the cell
        self._keys: dict[str, tuple] = {}  # a cell -> its key
        self._decomp: dict[tuple, Simplex] = {}  # a key -> its normal form
        levels: list[tuple[str, ...]] = []
        faces: dict[str, tuple[Simplex, ...]] = {}
        for n in range(depth + 1):
            names: list[str] = []
            for key in sorted(self._elements(n), key=repr):
                if self._degeneracy_position(n, key) is not None:
                    continue
                cid = f"f{n}_{len(names)}"
                names.append(cid)
                self._ids[key] = cid
                self._keys[cid] = key
                if n:
                    faces[cid] = tuple(self.decompose(n - 1, self._face(n, key, i)) for i in range(n + 1))
            levels.append(tuple(names))
        while levels and not levels[-1]:
            levels.pop()
        self.sset = FinSSet(tuple(levels), faces, depth)
        self.struct = SMap(self.sset, f.target, {c: key[0] for c, key in self._keys.items()})

    def _fiber(self, n: int, tau: Simplex) -> Pullback:
        """The chosen pullback of f along tau: std(n) -> B."""
        fib = self._fibers.get((n, tau))
        if fib is None:
            fib = self._fibers[(n, tau)] = pullback(yoneda(self.f.target, tau), self.f)
        return fib

    def _elements(self, n: int) -> list[tuple]:
        """Every key of level n, degenerate or not."""
        return [
            (tau, _encode(s))
            for tau in self.f.target.simplices(n)
            for s in enumerate_sections(self.g, self._fiber(n, tau).proj2)
        ]

    def _reindex(self, n: int, key: tuple, op: SMap, new_tau: Simplex) -> tuple:
        """Restrict a key of level n along op: std(m) -> std(n), whose base
        simplex tau . op is new_tau."""
        tau, enc = key
        pb_from = self._fiber(n, tau)
        s = _decode(enc, pb_from.sset, self.g.source)
        q = q_map(op, pb_from, self._fiber(op.source.dim, new_tau))
        return (new_tau, _encode(compose(s, q)))

    def _face(self, n: int, key: tuple, i: int) -> tuple:
        return self._reindex(n, key, delta_map(n, i), self.f.target.face(key[0], i))

    def _degen(self, n: int, key: tuple, i: int) -> tuple:
        return self._reindex(n, key, sigma_map(n, i), self.f.target.degen(key[0], i))

    def _degeneracy_position(self, n: int, key: tuple) -> Optional[int]:
        """Largest j with key == s_j d_j key, the outermost letter of the
        key's normal form; only tau's letters can be one."""
        for j in key[0].word:
            if self._degen(n - 1, self._face(n, key, j), j) == key:
                return j
        return None

    def decompose(self, n: int, key: tuple) -> Simplex:
        """The normal form of a key of level n."""
        memo = self._decomp.get(key)
        if memo is not None:
            return memo
        word: list[int] = []
        level, cur = n, key
        while (j := self._degeneracy_position(level, cur)) is not None:
            word.append(j)
            cur = self._face(level, cur, j)
            level -= 1
        cid = self._ids.get(cur)
        if cid is None:
            raise SSetError(f"semantic simplex {cur!r} at level {level} was never realized")
        result = self._decomp[key] = Simplex(tuple(word), cid)
        return result

    def section_at(self, s: Simplex) -> tuple[Simplex, SMap]:
        n, key = self.sset.cell_dim(s.base), self._keys[s.base]
        for i in reversed(s.word):
            key = self._degen(n, key, i)
            n += 1
        tau, enc = key
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
            assign[c] = self.decompose(m, (tau, _encode(sec)))
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


def pushforward(f: SMap, g: SMap, depth: int) -> Pushforward:
    return Pushforward(f, g, depth)


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
        self.prod = product(base, exponent)
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
            assign[c] = other.decompose(n, (tau, _encode(new)))
        return SMap(self.sset, other.sset, assign)


def exponential(base: FinSSet, exponent: FinSSet, depth: int) -> Exponential:
    return Exponential(base, exponent, depth)
