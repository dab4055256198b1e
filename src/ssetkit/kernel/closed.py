"""Cartesian-closed structure: exponentials and pushforwards.

Both constructions can be infinite-dimensional even for finite inputs, so
they take an explicit ``depth`` and return an honest truncation: every level
up to ``depth`` is the true level.  Downstream consumers (map enumeration,
lifting checks, sections over a low-dimensional context) declare the depth
they need.
"""

from __future__ import annotations

from .build import Built, LevelPresentation
from .homs import enumerate_maps, enumerate_sections
from .limits import Product, Pullback, product, pullback
from .simplex import Simplex, nondeg
from .sset import FinSSet, SMap, SSetError, compose
from .standard import delta_map, sigma_map, std_simplex, yoneda

__all__ = ["Exponential", "exponential", "Pushforward", "pushforward"]


def _encode(m: SMap) -> tuple:
    return tuple(sorted(m.assignment.items()))


def _decode(enc: tuple, source: FinSSet, target: FinSSet) -> SMap:
    return SMap(source, target, dict(enc))


class Exponential:
    """target^exponent, truncated at ``depth``."""

    def __init__(self, target: FinSSet, exponent: FinSSet, depth: int):
        if not (target.is_exact and exponent.is_exact):
            raise SSetError("exponential requires exact inputs")
        self.base = target
        self.exponent = exponent
        self.depth = depth
        self._cyl: dict[int, Product] = {}

        def cyl(n: int) -> Product:
            if n not in self._cyl:
                self._cyl[n] = product(exponent, std_simplex(n))
            return self._cyl[n]

        self._cyl_fn = cyl

        def elements(n: int):
            p = cyl(n).sset
            return [_encode(m) for m in enumerate_maps(p, target)]

        def reindex(n_from: int, enc: tuple, op: SMap) -> tuple:
            """Precompose an n_from-level element with exponent x op."""
            h = _decode(enc, cyl(n_from).sset, target)
            m = op.source.dim  # op: std(m) -> std(n_from)
            pm, pn = cyl(m), cyl(n_from)
            incl = pn.pair(pm.proj1, compose(op, pm.proj2))
            return _encode(compose(h, incl))

        pres = LevelPresentation(
            max_level=depth,
            elements=elements,
            face_at=lambda n, k, i: reindex(n, k, delta_map(n, i)),
            degen_at=lambda n, k, i: reindex(n, k, sigma_map(n, i)),
        )
        self._built = Built(pres, depth, prefix="e")
        self.sset = self._built.sset

    def as_map(self, s: Simplex) -> SMap:
        """The map exponent x std(n) -> base classified by an n-simplex."""
        n, enc = self._built.key_of(s)
        return _decode(enc, self._cyl_fn(n).sset, self.base)

    def evaluate(self, s: Simplex, x: Simplex) -> Simplex:
        """Evaluation at a pair of n-simplices (s of the exponential, x of X)."""
        n = self.sset.simplex_dim(s)
        h = self.as_map(s)
        top = nondeg("_".join(str(v) for v in range(n + 1)))
        return h.apply(self._cyl_fn(n).simplex_of(x, top))

    def curry(self, k: SMap, prod: Product) -> SMap:
        """Transpose W x X -> base into W -> base^X (prod must be W x X)."""
        w = prod.left
        assign = {}
        for c in w.nondegenerate():
            m = w.cell_dim(c)
            if m > self.depth:
                raise SSetError("curry: source dimension exceeds exponential depth")
            yon = yoneda(w, nondeg(c))
            pm = self._cyl_fn(m)
            enc_assign = {}
            for cc in pm.sset.nondegenerate():
                x, d = pm.components(nondeg(cc))
                enc_assign[cc] = k.apply(prod.simplex_of(yon.apply(d), x))
            assign[c] = self._built.decompose(m, _encode(SMap(pm.sset, self.base, enc_assign)))
        return SMap(w, self.sset, assign)

    def uncurry(self, h: SMap, prod: Product) -> SMap:
        """Transpose W -> base^X into W x X -> base (prod must be W x X)."""
        assign = {}
        for c in prod.sset.nondegenerate():
            sw, x = prod.components(nondeg(c))
            assign[c] = self.evaluate(h.apply(sw), x)
        return SMap(prod.sset, self.base, assign)

    def postcompose(self, g: SMap, other: "Exponential") -> SMap:
        """g^X: base^X -> other.sset for g: base -> other.base."""
        assign = {}
        for c in self.sset.nondegenerate():
            n, enc = self._built.key_of(nondeg(c))
            h = _decode(enc, self._cyl_fn(n).sset, self.base)
            assign[c] = other._built.decompose(n, _encode(compose(g, h)))
        return SMap(self.sset, other.sset, assign)

    def precompose(self, j: SMap, other: "Exponential") -> SMap:
        """base^j: base^X -> base^U for j: U -> X (other = base^U)."""
        assign = {}
        for c in self.sset.nondegenerate():
            n, enc = self._built.key_of(nondeg(c))
            h = _decode(enc, self._cyl_fn(n).sset, self.base)
            pu, px = other._cyl_fn(n), self._cyl_fn(n)
            incl = px.pair(compose(j, pu.proj1), pu.proj2)
            assign[c] = other._built.decompose(n, _encode(compose(h, incl)))
        return SMap(self.sset, other.sset, assign)


def exponential(base: FinSSet, exponent: FinSSet, depth: int) -> Exponential:
    return Exponential(base, exponent, depth)


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
                for s in enumerate_sections(g, fiber(n, tau).to_right):
                    out.append((tau, _encode(s)))
            return out

        def reindex(n_from: int, key: tuple, op: SMap) -> tuple:
            tau, enc = key
            m = op.source.dim
            new_tau = _apply_op(b, tau, op)
            pb_from = fiber(n_from, tau)
            pb_to = fiber(m, new_tau)
            s = _decode(enc, pb_from.sset, g.source)
            assign = {}
            for c in pb_to.sset.nondegenerate():
                u, a = pb_to.components(nondeg(c))
                assign[c] = s.apply(pb_from.simplex_of(op.apply(u), a))
            return (new_tau, _encode(SMap(pb_to.sset, g.source, assign)))

        pres = LevelPresentation(
            max_level=depth,
            elements=elements,
            face_at=lambda n, k, i: reindex(n, k, delta_map(n, i)),
            degen_at=lambda n, k, i: reindex(n, k, sigma_map(n, i)),
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
        k: pb.sset -> E over A (g . k == pb.to_right), produce W -> Pi_f(g).
        """
        w = w_map.source
        assign = {}
        for c in w.nondegenerate():
            m = w.cell_dim(c)
            if m > self.depth:
                raise SSetError("transpose: source dimension exceeds pushforward depth")
            tau = w_map.apply_cell(c)
            yon = yoneda(w, nondeg(c))
            fib = self._fiber(m, tau)
            sec_assign = {}
            for cc in fib.sset.nondegenerate():
                u, a = fib.components(nondeg(cc))
                sec_assign[cc] = k.apply(pb.simplex_of(yon.apply(u), a))
            assign[c] = self._built.decompose(m, (tau, _encode(SMap(fib.sset, self.g.source, sec_assign))))
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


def _apply_op(x: FinSSet, s: Simplex, op: SMap) -> Simplex:
    """Precompose the simplex classified by s with a simplex-space map."""
    n = op.source.dim
    top = "_".join(str(v) for v in range(n + 1))
    return yoneda(x, s).apply(op.apply_cell(top))


def pushforward(f: SMap, g: SMap, depth: int) -> Pushforward:
    return Pushforward(f, g, depth)
