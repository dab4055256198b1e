"""Compositional interpretation of checked judgments into the model layer.

Postulated constants elaborate only when the environment binds them to
concrete semantic data over the empty telescope; telescoped postulates and
the pushout eliminator raise ``UnsupportedConstruction``.  The interpreter
carries the semantic base context (a simplicial set), base variables as
maps into their fibers, and indexed variables as generic terms of their
weakened types, so binders elaborate through the chosen-pullback
extensions and the equations established for the formers transfer
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..kernel import (
    FinSSet,
    SMap,
    boundary,
    compose,
    constant_map,
    pullback,
    std_simplex,
    terminal,
    terminal_map,
)
from ..lifting import GeneratorFamily
from ..model import (
    Binder,
    Ext,
    Extension,
    FibClassSpec,
    Hom,
    LUContext,
    LUTerm,
    LUType,
    ModelError,
    Pi,
    UnsupportedConstruction,
    ctx_extend,
    dep_coprod,
    dep_coprod_intro,
    extension_app,
    extension_lam,
    extension_type,
    hom_app,
    hom_lam,
    hom_type,
    id_refl,
    id_type,
    pi_app,
    pi_lam,
    pi_type,
    sigma_pair,
    sigma_proj1,
    sigma_proj2,
    sigma_type,
    subst,
    subst_term,
    unit_term,
    unit_type,
)
from . import syntax as S
from .equality import normalize

__all__ = ["ModelEnv", "SemCtx", "Elaborator", "elaborate_type", "elaborate_term"]


@dataclass
class ModelEnv:
    """Bindings of postulated constants to semantic data (closed judgments).

    ``spec`` and ``base_spec`` share one depth, the run's: every type the
    elaborator builds has it.  The formers factor against each type's own
    class, so ``family`` is read by nothing but the check that it is
    ``spec.family``.
    """

    spec: FibClassSpec
    base_spec: FibClassSpec
    family: GeneratorFamily
    budget: int = 300
    types: dict = field(default_factory=dict)  # name -> LUType over the point
    base_types: dict = field(default_factory=dict)  # name -> FinSSet (the fiber)
    terms: dict = field(default_factory=dict)  # name -> LUTerm over the point
    base_terms: dict = field(default_factory=dict)  # name -> SMap pt -> fiber
    stable_coproducts: bool = False

    def __post_init__(self) -> None:
        depths = {self.spec.depth, self.base_spec.depth, self.family.depth}
        if len(depths) > 1:
            raise ModelError(
                f"model environment: spec, base_spec and family have depths "
                f"{self.spec.depth}, {self.base_spec.depth} and {self.family.depth}"
            )
        if self.family != self.spec.family:
            raise ModelError(
                f"model environment: family {self.family.name} is not the {self.spec.name} class's family"
            )


@dataclass
class SemCtx:
    """The semantic state of a two-zone context over a base simplicial set."""

    gamma: LUContext
    base_vars: dict = field(default_factory=dict)  # name -> SMap gamma -> fiber
    ind_vars: dict = field(default_factory=dict)  # name -> LUTerm over gamma

    def reindexed(self, sigma: SMap, new_gamma: LUContext) -> "SemCtx":
        return SemCtx(
            new_gamma,
            {n: compose(m, sigma) for n, m in self.base_vars.items()},
            {n: subst_term(t, sigma) for n, t in self.ind_vars.items()},
        )


class Elaborator:
    def __init__(self, env: ModelEnv):
        self.env = env

    def closed_ctx(self) -> SemCtx:
        return SemCtx(LUContext(terminal()))

    # ---------------------------------------------------------------- types

    def elab_type(self, ctx: SemCtx, ty: S.Type) -> LUType:
        env = self.env
        if isinstance(ty, S.TUnit):
            return unit_type(ctx.gamma, env.spec)
        if isinstance(ty, S.TConst):
            if ty.args:
                raise UnsupportedConstruction(
                    "applied type constants have no semantic binding form"
                )
            base = env.types.get(ty.name)
            if base is None:
                raise UnsupportedConstruction(
                    f"no semantic binding for type constant {ty.name}"
                )
            return subst(base, terminal_map(ctx.gamma.sset))
        if isinstance(ty, S.TSigma):
            a = self.elab_type(ctx, ty.xtype)
            ext = ctx_extend(ctx.gamma, a)
            inner = self._bind_ind(ctx, ext, ty.x)
            b = self.elab_type(inner, ty.body)
            return sigma_type(Binder(a, ext.pb, b))
        if isinstance(ty, S.TId):
            a = self.elab_type(ctx, ty.a)
            left = self.elab_term(ctx, ty.left, a)
            right = self.elab_term(ctx, ty.right, a)
            return id_type(a, left, right, env.budget)
        if isinstance(ty, S.THom):
            pi = self._hom_pi(ctx, ty.a, "_", ty.b)
            return hom_type(pi, env.base_spec)
        if isinstance(ty, S.TDepHom):
            if len(ty.tele) > 1:
                raise UnsupportedConstruction(
                    "dependent Hom elaborates for indexed telescopes of length <= 1"
                )
            (x, a_ty), = ty.tele or ((None, S.TUnit()),)
            return hom_type(self._hom_pi(ctx, a_ty, x, ty.b), env.base_spec, var=x)
        if isinstance(ty, S.TPi):
            return pi_type(self._base_binder(ctx, ty.i, self._base_type(ty.itype), ty.body))
        if isinstance(ty, S.TCoprod):
            bd = self._base_binder(ctx, ty.i, self._base_type(ty.itype), ty.body)
            variant = "stable" if env.stable_coproducts else "unstable"
            return dep_coprod(bd, env.budget, variant=variant)
        if isinstance(ty, S.TPath):
            return self._path_type(ctx, ty.a, ty.left, ty.right)
        if isinstance(ty, S.TExt):
            raise UnsupportedConstruction(
                "extension types elaborate for the path-type decomposition"
            )
        if isinstance(ty, S.TPushout):
            raise UnsupportedConstruction(
                "pushout types have no former; one glues along the Joyal cylinder A x J"
            )
        if isinstance(ty, S.TInterval):
            raise UnsupportedConstruction("I1 is base-side; it has no indexed interpretation")
        raise UnsupportedConstruction(f"no interpretation for {type(ty).__name__}")

    # ---------------------------------------------------------------- terms

    def elab_term(self, ctx: SemCtx, t: S.Term, expected: LUType) -> LUTerm:
        env = self.env
        if isinstance(t, S.One):
            return unit_term(expected)
        if isinstance(t, S.Var):
            hit = ctx.ind_vars.get(t.name)
            if hit is not None:
                return hit
            glob = env.terms.get(t.name)
            if glob is not None:
                sigma = terminal_map(ctx.gamma.sset)
                return LUTerm(subst(glob.type, sigma), compose(glob.section, sigma))
            raise UnsupportedConstruction(f"no semantic binding for {t.name}")
        if isinstance(t, S.SPair):
            bd = expected.former.binder
            at = self.elab_term(ctx, t.a, bd.a)
            bt = self.elab_term(ctx, t.b, bd.at(at.section))
            return sigma_pair(expected, at, bt)
        if isinstance(t, S.Fst):
            inner = self._infer(ctx, t.t)
            return sigma_proj1(inner.type, inner)
        if isinstance(t, S.Snd):
            inner = self._infer(ctx, t.t)
            return sigma_proj2(inner.type, inner)
        if isinstance(t, S.Refl):
            base = self.elab_term(ctx, t.t, expected.former.a)
            return id_refl(expected, base)
        if isinstance(t, S.Lam):
            rec = expected.former
            if isinstance(rec, Hom):
                return self._hom_lam(ctx, expected, t.x, t.body)
            if isinstance(rec, (Pi, Ext)):  # over a base type: a product, or an extension type
                bd = rec.binder
                inner = self._bind_base_pb(ctx, bd.pb, t.x)
                body = self.elab_term(inner, t.body, bd.b)
                if isinstance(rec, Pi):
                    return pi_lam(expected, body)
                return extension_lam(expected, body.section)
            raise UnsupportedConstruction(
                "lambda against a type with no semantic function structure"
            )
        if isinstance(t, S.HomLam):
            return self._hom_lam(ctx, expected, expected.former.var, t.body)
        if isinstance(t, (S.App, S.HomApp, S.EApp)):
            return self._infer(ctx, t)
        if isinstance(t, (S.CPair, S.In)):
            bd = expected.former.binder
            j = self._base_term(ctx, t.j, bd.a.total)
            bt = self.elab_term(ctx, t.b, bd.at(j))
            return dep_coprod_intro(expected, j, bt)
        if isinstance(t, (S.PushElim, S.Pinl, S.Pinr, S.Pglue)):
            raise UnsupportedConstruction(
                "the pushout eliminator and constructors are out of semantic scope"
            )
        raise UnsupportedConstruction(f"no interpretation for term {type(t).__name__}")

    # ---------------------------------------------------------------- helpers

    def _infer(self, ctx: SemCtx, t: S.Term) -> LUTerm:
        """Inference for elaborated eliminand positions."""
        if isinstance(t, S.Var):
            return self.elab_term(ctx, t, None)
        if isinstance(t, S.App):
            f = self._infer(ctx, t.f)
            rec = f.type.former
            if isinstance(rec, Hom):
                a = self.elab_term(ctx, t.a, rec.pi.former.binder.a)
                return pi_app(rec.pi, hom_app(f.type, f), a)
            if isinstance(rec, Pi):  # a product over a base type
                a = rec.binder.a
                return pi_app(f.type, f, LUTerm(a, self._base_term(ctx, t.a, a.total)))
            raise UnsupportedConstruction("application of a non-function semantic type")
        if isinstance(t, S.HomApp):
            f = self._infer(ctx, t.f)
            rec: Hom = f.type.former
            if rec.var is None:  # an empty telescope: the domain is the unit type
                arg = unit_term(rec.pi.former.binder.a)
            else:  # the checker matched the telescope against the innermost variable
                arg = next(reversed(ctx.ind_vars.values()))
            return pi_app(rec.pi, hom_app(f.type, f), arg)
        if isinstance(t, S.EApp):
            f = self._infer(ctx, t.f)
            v = self._base_term(ctx, t.v, std_simplex(1))
            return extension_app(f.type, f, v)
        raise UnsupportedConstruction(
            f"cannot infer a semantic type for {type(t).__name__}"
        )

    def _base_term(self, ctx: SemCtx, t: S.Term, fiber: FinSSet) -> SMap:
        """A base-zone term as a map from the context into its fiber."""
        if isinstance(t, S.Var):
            hit = ctx.base_vars.get(t.name)
            if hit is not None:
                return hit
            glob = self.env.base_terms.get(t.name)
            if glob is not None:
                return compose(glob, terminal_map(ctx.gamma.sset))
            raise UnsupportedConstruction(f"no semantic binding for base term {t.name}")
        if isinstance(t, S.I0):
            return constant_map(ctx.gamma.sset, std_simplex(1), "0")
        if isinstance(t, S.I1):
            return constant_map(ctx.gamma.sset, std_simplex(1), "1")
        if isinstance(t, S.One):
            return terminal_map(ctx.gamma.sset)
        raise UnsupportedConstruction(f"no base interpretation for {type(t).__name__}")

    def _bind_ind(self, ctx: SemCtx, ext: Extension, name: Optional[str]) -> SemCtx:
        inner = ctx.reindexed(ext.proj, ext.ctx)
        inner.ind_vars.pop(name, None)  # a shadowed name moves to the innermost position
        inner.ind_vars[name] = ext.var
        return inner

    def _bind_base_pb(self, ctx: SemCtx, pb, name: Optional[str]) -> SemCtx:
        inner = ctx.reindexed(pb.proj1, LUContext(pb.sset))
        inner.base_vars[name] = pb.proj2
        return inner

    def _base_type(self, ty: S.Type) -> FinSSet:
        if isinstance(ty, S.TInterval):
            return std_simplex(1)
        if isinstance(ty, S.TConst) and not ty.args:
            fib = self.env.base_types.get(ty.name)
            if fib is not None:
                return fib
        raise UnsupportedConstruction("base types elaborate for I1 and bound constants")

    def _base_binder(self, ctx: SemCtx, i: Optional[str], fiber: FinSSet, body: S.Type) -> Binder:
        """The base type with this fiber reindexed to the context, and the
        family over it, in which ``i`` names the base variable."""
        a = LUType(ctx.gamma, terminal_map(ctx.gamma.sset), terminal_map(fiber), self.env.base_spec)
        pb = ctx_extend(ctx.gamma, a).pb
        b = self.elab_type(self._bind_base_pb(ctx, pb, i), body)
        return Binder(a, pb, b)

    def _hom_pi(self, ctx: SemCtx, a_ty: S.Type, x: str, b_ty: S.Type) -> LUType:
        a = self.elab_type(ctx, a_ty)
        ext = ctx_extend(ctx.gamma, a)
        inner = self._bind_ind(ctx, ext, x)
        b = self.elab_type(inner, b_ty)
        return pi_type(Binder(a, ext.pb, b))

    def _hom_lam(self, ctx: SemCtx, hom: LUType, x: str, body: S.Term) -> LUTerm:
        pi = hom.former.pi
        bd = pi.former.binder
        inner = self._bind_ind(ctx, bd.ext, x)
        return hom_lam(hom, pi_lam(pi, self.elab_term(inner, body, bd.b)))

    def _path_type(self, ctx: SemCtx, a_ty: S.Type, left: S.Term, right: S.Term) -> LUType:
        """The extension type over I1 with endpoints left and right; A binds
        no name for the base variable."""
        bd = self._base_binder(ctx, None, std_simplex(1), a_ty)
        a_base = self.elab_type(ctx, a_ty)
        lt = self.elab_term(ctx, left, a_base)
        rt = self.elab_term(ctx, right, a_base)
        u, j_incl = boundary(1)
        pb_gu = pullback(terminal_map(ctx.gamma.sset), terminal_map(u))
        partial = self._glue_endpoints(pb_gu, lt.section, rt.section, bd.b.total)
        return extension_type(bd, j_incl, partial)

    @staticmethod
    def _glue_endpoints(pb_gu, left_sec: SMap, right_sec: SMap, total: FinSSet) -> SMap:
        """The partial section gamma.boundary(1) -> E_A from the endpoints."""
        assign = {}
        for c in pb_gu.sset.nondegenerate():
            vtx = pb_gu.proj2.apply_cell(c)
            g = pb_gu.proj1.apply_cell(c)
            section = left_sec if vtx.base == "0" else right_sec
            assign[c] = section.apply(g)
        return SMap(pb_gu.sset, total, assign)

    # ------------------------------------------------------------ declarations

    def elab_decl(self, decl):
        """Interpret a checked declaration with empty telescopes."""
        if decl.btele or (decl.itele or ()):
            raise UnsupportedConstruction(
                "telescoped declarations elaborate only through environment bindings"
            )
        if decl.kind in ("ind-type", "base-type"):
            raise UnsupportedConstruction(
                "postulated type constants need environment bindings"
            )
        ctx = self.closed_ctx()
        ty = self.elab_type(ctx, decl.rhs)
        if decl.body is None:
            return ty
        return self.elab_term(ctx, normalize(decl.body), ty)


def elaborate_type(env: ModelEnv, ty: S.Type) -> LUType:
    el = Elaborator(env)
    return el.elab_type(el.closed_ctx(), ty)


def elaborate_term(env: ModelEnv, t: S.Term, ty: S.Type) -> LUTerm:
    el = Elaborator(env)
    sem = el.elab_type(el.closed_ctx(), ty)
    return el.elab_term(el.closed_ctx(), normalize(t), sem)
