"""Closed structure: pushforwards (dependent products) and exponentials.

An n-simplex of a pushforward is a section over the chosen pullback of
std(n), and it moves between levels, and transposes, along the map
:func:`~ssetkit.kernel.limits.q_map` between chosen pullbacks.  An
exponential is the point case of the pushforward: Y^X is the dependent
product of the projection Y x X -> X along X -> 1, so it is a
:class:`Pushforward` and shares its simplices, transpose and evaluation.

A pushforward can be infinite-dimensional even for finite inputs, so it
takes an explicit ``depth`` and returns an honest truncation: every level up
to ``depth`` is the true level.  Downstream consumers (map enumeration,
lifting checks, sections over a low-dimensional context) declare the depth
they need.
"""

from __future__ import annotations

from .build import Built, LevelPresentation
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
                self._fibers[key] = pullback(yoneda(b, tau), f)
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
            assign[c] = other._built.decompose(n, (tau, _encode(new)))
        return SMap(self.sset, other.sset, assign)


def exponential(base: FinSSet, exponent: FinSSet, depth: int) -> Exponential:
    return Exponential(base, exponent, depth)
