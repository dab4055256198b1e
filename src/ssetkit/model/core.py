"""Local-universe presentation of types: contexts, types, and terms.

A context is a simplicial set.  A type is a span (r: G -> V, p: E ->> V)
with p a certified fibration of its class :class:`FibClassSpec`, and its
context G is the source of r, which it does not store again; a term is a
section G -> E over r.  A type's depth is its class's depth,
``spec.depth``: the formers build every universe, pushforward and core of a
type at that depth, and a binder's domain and family share it.  Substitution is
precomposition of r, so it is strictly functorial, and extended contexts are
chosen pullbacks (the chooser returns the other leg unchanged along an
identity, which makes extension by the unit type literally the base context).

A type former records what its term operations read in a frozen
:class:`Former` record.  Every field of a record is either universe-level,
and so passes through substitution unchanged, or part of the binder -- a type
over the context or a :class:`Binder` -- which :func:`subst` reindexes: a
binder along q(sigma, A).  A base type V binds through the same record, with
V the constant type over the context, so the extension type's Gamma x V is
the chosen extension Gamma.V.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
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
    q_map,
)
from ..lifting import GeneratorFamily, family_by_name, has_rlp

__all__ = [
    "FibClassSpec",
    "ModelError",
    "UnsupportedConstruction",
    "LUType",
    "LUTerm",
    "Extension",
    "Former",
    "Binder",
    "ctx_extend",
    "q_map",
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
class LUType:
    """A type: the span ctx -> V <- E with p a fibration, over ctx = r.source.

    ``former`` is the record of the former that built the type, holding what
    its term operations read: universe-level handles, which substitution
    passes through, and the binder, which substitution reindexes.  It never
    participates in equality, so type equality is the strict field-by-field
    comparison of (r, p, spec), and two equal types share their context.
    """

    r: SMap  # ctx -> V
    p: SMap  # E ->> V, certified against spec
    spec: FibClassSpec
    former: Optional["Former"] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.r.target != self.p.target:
            raise ModelError("r and p must share the universe")

    @property
    def ctx(self) -> FinSSet:
        return self.r.source

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
    section: SMap  # ctx -> E

    def __post_init__(self) -> None:
        if compose(self.type.p, self.section) != self.type.r:
            raise ModelError("section does not live over r")


@dataclass(frozen=True)
class Extension:
    """An extended context with its projection, generic term, and pullback."""

    proj: SMap  # ctx -> parent
    var: LUTerm  # the generic term of the weakened type
    pb: Pullback = field(compare=False)

    @property
    def ctx(self) -> FinSSet:
        return self.proj.source


def _extension(a: LUType, pb: Pullback) -> Extension:
    return Extension(pb.proj1, LUTerm(subst(a, pb.proj1), pb.proj2), pb)


def ctx_extend(a: LUType) -> Extension:
    """a's context extended by a: the chosen pullback of p_A along r_A, with
    projection and variable."""
    return _extension(a, pullback(a.r, a.p))


@dataclass(frozen=True, eq=False, repr=False)
class Binder:
    """A family b over the chosen extension pb of a's context by a.

    Sigma, Pi, the coproduct over a base type and the extension type bind
    through this record; :func:`subst` reindexes it along q(sigma, A).
    """

    a: LUType
    pb: Pullback  # the chosen pullback of a.r along a.p
    b: LUType

    def __post_init__(self) -> None:
        if self.b.ctx != self.pb.sset:
            raise ModelError("binder: the family must live over the chosen extension")
        if self.a.spec.depth != self.b.spec.depth:
            raise ModelError(
                f"binder: the domain has depth {self.a.spec.depth}, the family {self.b.spec.depth}"
            )

    @property
    def ext(self) -> Extension:
        """The extension by a, with its projection and generic variable."""
        return _extension(self.a, self.pb)

    def at(self, section: SMap) -> LUType:
        """B[a]: the family at a section of a."""
        return subst(self.b, self.pb.pair(identity(self.a.ctx), section))


@dataclass(frozen=True, eq=False, repr=False)
class Former:
    """Base of the type formers' records; see the module docstring.

    Records, like binders, compare and print by identity:
    their handles are large, and type equality never reads them.
    """


def _reindex(x, sigma: SMap):
    """A record field reindexed along sigma: Delta -> Gamma."""
    if isinstance(x, LUType):
        return subst(x, sigma)
    if isinstance(x, Binder):  # along q(sigma, A): Delta.sigma*A -> Gamma.A
        a = subst(x.a, sigma)
        pb = pullback(a.r, a.p)
        return Binder(a, pb, subst(x.b, q_map(sigma, x.pb, pb)))
    if isinstance(x, Former):
        return replace(x, **{f.name: _reindex(getattr(x, f.name), sigma) for f in fields(x)})
    return x  # universe-level


def subst(a: LUType, sigma: SMap) -> LUType:
    """Reindex a type along sigma: precompose r (strictly functorial).

    The former's record moves with the type: its types and binders are
    reindexed along sigma, its universe-level handles stay.
    """
    if sigma.target != a.ctx:
        raise ModelError("substitution does not target the type's context")
    return LUType(compose(a.r, sigma), a.p, a.spec, _reindex(a.former, sigma))


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
    back = eps.preimages()
    if back is None:
        raise ModelError("factor_through requires a monomorphism")
    assign: dict[str, Simplex] = {}
    for c in f.source.nondegenerate():
        img = f.apply_cell(c)
        pre = back.get(img.base)
        if pre is None:
            return None
        assign[c] = Simplex(img.word, pre)
    out = SMap(f.source, eps.source, assign)
    if compose(eps, out) != f:
        return None
    return out


def enumerate_terms(a: LUType) -> list[LUTerm]:
    """All terms of a type, by enumerating sections of p over r."""
    return [LUTerm(a, s) for s in enumerate_sections(a.p, a.r)]
