"""Local-universe presentation of types: contexts, types, and terms.

A type over a context G is a pair of maps (r: G -> V, p: E ->> V) with p a
certified fibration; a term is a section G -> E over r.  Substitution is
precomposition of r, so it is strictly functorial, and extended contexts are
chosen pullbacks (the chooser returns the other leg unchanged along an
identity, which makes extension by the unit type literally the base context).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..kernel import (
    FinSSet,
    Pullback,
    SMap,
    SSetError,
    Simplex,
    compose,
    enumerate_sections,
    identity,
    pullback,
)
from ..lifting import GeneratorFamily, family_by_name, has_rlp

__all__ = [
    "FibClassSpec",
    "ModelError",
    "UnsupportedConstruction",
    "LUContext",
    "LUType",
    "LUTerm",
    "Extension",
    "ctx_extend",
    "subst",
    "subst_term",
    "weaken",
    "factor_through",
    "enumerate_terms",
]


class ModelError(SSetError):
    """A semantic construction received data violating its preconditions."""


class UnsupportedConstruction(ModelError):
    """The construction is declared out of scope for these inputs."""


@dataclass(frozen=True)
class FibClassSpec:
    """A named class of fibrations, defined by lifting against a family."""

    name: str
    depth: int

    @property
    def family(self) -> GeneratorFamily:
        return family_by_name(self.name, self.depth)

    def check(self, p: SMap):
        return has_rlp(p, self.family)

    def certify(self, p: SMap, what: str = "map") -> SMap:
        ok, ce = self.check(p)
        if not ok:
            raise ModelError(f"{what} fails {self.name}-fibration lifting at depth {self.depth}: {ce}")
        return p


@dataclass(frozen=True)
class LUContext:
    """A base- or indexed-side context: an object with its extension history."""

    sset: FinSSet
    steps: tuple = field(default=(), compare=False)

    @staticmethod
    def of(x: FinSSet) -> "LUContext":
        return LUContext(x)


@dataclass(frozen=True)
class LUType:
    """A type over ctx: the span ctx -> V <- E with p a fibration.

    ``aux`` carries construction-specific handles (pushforwards, fibers)
    needed by the term operations; it never participates in equality, so
    type equality is the strict field-by-field comparison of (ctx, r, p).
    """

    ctx: LUContext
    r: SMap  # ctx.sset -> V
    p: SMap  # E ->> V, certified against spec
    spec: FibClassSpec
    depth: int = 2
    aux: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.r.source != self.ctx.sset:
            raise ModelError("r must start at the context")
        if self.r.target != self.p.target:
            raise ModelError("r and p must share the universe")

    @property
    def universe(self) -> FinSSet:
        return self.r.target

    @property
    def total(self) -> FinSSet:
        return self.p.source

    def validate_fibration(self) -> "LUType":
        self.spec.certify(self.p, "p")
        return self


@dataclass(frozen=True)
class LUTerm:
    """A term: a section of p over r."""

    type: LUType
    section: SMap  # ctx.sset -> E

    def __post_init__(self) -> None:
        if compose(self.type.p, self.section) != self.type.r:
            raise ModelError("section does not live over r")


@dataclass(frozen=True)
class Extension:
    """An extended context with its projection, generic term, and pullback."""

    ctx: LUContext
    proj: SMap  # ctx.sset -> parent
    var: LUTerm  # the generic term of the weakened type
    pb: Pullback = field(compare=False)


def ctx_extend(gamma: LUContext, a: LUType) -> Extension:
    """The chosen pullback of p_A along r_A, with projection and variable."""
    if a.ctx.sset != gamma.sset:
        raise ModelError("type is not over the context being extended")
    pb = pullback(a.r, a.p)
    ext = LUContext(pb.sset, gamma.steps + ((a, pb),))
    weak = LUType(ext, compose(a.r, pb.to_left), a.p, a.spec, a.depth, a.aux)
    var = LUTerm(weak, pb.to_right)
    return Extension(ext, pb.to_left, var, pb)


def subst(a: LUType, sigma: SMap) -> LUType:
    """Reindex a type along sigma: precompose r (strictly functorial)."""
    if sigma.target != a.ctx.sset:
        raise ModelError("substitution does not target the type's context")
    return LUType(LUContext(sigma.source), compose(a.r, sigma), a.p, a.spec, a.depth, a.aux)


def subst_term(t: LUTerm, sigma: SMap) -> LUTerm:
    return LUTerm(subst(t.type, sigma), compose(t.section, sigma))


def weaken(t: LUTerm, ext: Extension) -> LUTerm:
    """Transport a term along a context extension's projection."""
    return subst_term(t, ext.proj)


def factor_through(f: SMap, eps: SMap) -> Optional[SMap]:
    """The unique factorization of f through a monomorphism eps, if any.

    This is the bijection phi of the relative adjunction: eps is mono, so
    when every cell of f's image lies in eps's image the factorization
    exists and is unique.
    """
    if f.target != eps.target:
        raise ModelError("factor_through: codomain mismatch")
    if not eps.is_mono():
        raise ModelError("factor_through requires a monomorphism")
    back: dict[str, Simplex] = {}
    for c in eps.source.nondegenerate():
        img = eps.apply_cell(c)
        back.setdefault(img.base, Simplex((), c))
        if not img.word:
            back[img.base] = Simplex((), c)
    assign: dict[str, Simplex] = {}
    for c in f.source.nondegenerate():
        img = f.apply_cell(c)
        pre = back.get(img.base)
        if pre is None or pre.word:
            return None
        assign[c] = Simplex(img.word, pre.base)
    out = SMap(f.source, eps.source, assign)
    if compose(eps, out) != f:
        return None
    return out


def enumerate_terms(a: LUType) -> list[LUTerm]:
    """All terms of a type, by enumerating sections of p over r."""
    return [LUTerm(a, s) for s in enumerate_sections(a.p, a.r)]
