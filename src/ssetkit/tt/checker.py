"""Bidirectional typechecker for two-zone judgments.

Judgments have a base telescope (Gamma) and an indexed telescope (Delta);
introductions check, eliminations infer, and definitional equality is
invoked at every type boundary.  Each rule violation raises ``CheckError``
naming the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .equality import equal_terms, equal_types, normalize, unfold
from .parser import RawDecl, parse_file
from .syntax import (
    App,
    CoprodElim,
    CPair,
    EApp,
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
    free_vars,
    fresh,
    subst,
    subst_type,
    type_to_src,
)

__all__ = ["CheckError", "Telescope", "Checker", "check_source"]


def _endpoint_pieces(ty: TExt) -> bool:
    """Whether a two-piece extension type is the path decomposition, the one
    shape for which ``equality.step`` may read app{c0, c1}(f, i0) as c0 and
    app{c0, c1}(f, i1) as c1: the pieces are (x : I1) i0 . a, then
    (x : I1) i1 . b, with x unused (a piece over an empty base type would
    constrain nothing)."""
    c0, c1 = ty.clauses
    return (
        isinstance(c0.j, I0)
        and isinstance(c1.j, I1)
        and all(isinstance(c.u, TInterval) and c.x not in free_vars(c.body) for c in ty.clauses)
    )


class CheckError(Exception):
    """A rule violation, named after the offended rule."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


Telescope = tuple  # of (name, Type)


@dataclass
class Ctx:
    base: tuple = ()
    ind: tuple = ()

    def bind_base(self, n: str, t: Type) -> "Ctx":
        return Ctx(self.base + ((n, t),), self.ind)

    def bind_ind(self, n: str, t: Type) -> "Ctx":
        return Ctx(self.base, self.ind + ((n, t),))

    def with_ind(self, ind: tuple) -> "Ctx":
        return Ctx(self.base, tuple(ind))

    def lookup(self, n: str) -> Optional[tuple]:
        for name, t in reversed(self.ind):
            if name == n:
                return ("ind", t)
        for name, t in reversed(self.base):
            if name == n:
                return ("base", t)
        return None


class Checker:
    """Checks declarations one at a time against a growing environment."""

    def __init__(self, stable_coproducts: bool = False):
        self.decls: dict[str, RawDecl] = {}  # the checked declarations
        self.stable = stable_coproducts
        # bodies of zero-telescope defs, for delta-unfolding in conversion
        self.defs: dict[str, Term] = {}

    # -------------------------------------------------------------- types

    def check_type(self, ctx: Ctx, t: Type, zone: str) -> None:
        """Well-formedness of a type in the given zone ("base" or "ind")."""
        if isinstance(t, TConst):
            d = self.decls.get(t.name)
            if d is None or d.kind == "term":
                raise CheckError("type-const", f"unknown type constant {t.name}")
            want = "base" if d.kind == "base-type" else "ind"
            if want != zone:
                raise CheckError("zone", f"{t.name} is a {want}-side type used in the {zone} zone")
            tele = d.btele + (d.itele or ())
            if len(t.args) != len(tele):
                raise CheckError(
                    "type-const", f"{t.name} expects {len(tele)} arguments, got {len(t.args)}"
                )
            inst = list(tele)
            for k, a in enumerate(t.args):
                n, ty = inst[k]
                argzone = "base" if k < len(d.btele) else "ind"
                self.check_term(ctx if argzone == "ind" else ctx.with_ind(()), a, ty)
                for m in range(k + 1, len(inst)):
                    inst[m] = (inst[m][0], subst_type(inst[m][1], n, a))
            return
        if isinstance(t, TUnit):
            if zone != "ind":
                raise CheckError("zone", "One is an indexed type")
            return
        if isinstance(t, TInterval):
            if zone != "base":
                raise CheckError("zone", "I1 is a base type")
            return
        if isinstance(t, THom):
            if zone != "base":
                raise CheckError("Hom-form", "Hom types live in the base zone")
            closed = ctx.with_ind(())
            self.check_type(closed, t.a, "ind")
            self.check_type(closed, t.b, "ind")
            return
        if isinstance(t, TDepHom):
            if zone != "base":
                raise CheckError("Hom-form", "dependent Hom types live in the base zone")
            c = ctx.with_ind(())
            for n, ty in t.tele:
                self.check_type(c, ty, "ind")
                c = c.bind_ind(n, ty)
            self.check_type(c, t.b, "ind")
            return
        if isinstance(t, (TPi, TCoprod)):
            if zone != "ind":
                raise CheckError("Pi-form", "Pi/Coprod types live in the indexed zone")
            self.check_type(ctx.with_ind(()), t.itype, "base")
            # i is appended to Gamma after Delta is fixed: i not in FV(Delta)
            self.check_type(ctx.bind_base(t.i, t.itype), t.body, "ind")
            return
        if isinstance(t, TSigma):
            if zone != "ind":
                raise CheckError("Sigma-form", "Sigma types live in the indexed zone")
            self.check_type(ctx, t.xtype, "ind")
            self.check_type(ctx.bind_ind(t.x, t.xtype), t.body, "ind")
            return
        if isinstance(t, (TId, TPath)):
            name = "Id" if isinstance(t, TId) else "Path"
            if zone != "ind":
                raise CheckError(f"{name}-form", f"{name} types live in the indexed zone")
            self.check_type(ctx, t.a, "ind")
            self.check_term(ctx, t.left, t.a)
            self.check_term(ctx, t.right, t.a)
            return
        if isinstance(t, TExt):
            if zone != "ind":
                raise CheckError("Ext-form", "extension types live in the indexed zone")
            self.check_type(ctx.with_ind(()), t.v, "base")
            self.check_type(ctx.bind_base(t.y, t.v), t.a, "ind")
            for c in t.clauses:
                self.check_type(ctx.with_ind(()), c.u, "base")
                cc = ctx.bind_base(c.x, c.u)
                self.check_term(cc.with_ind(()), c.j, t.v)
                self.check_term(cc, c.body, subst_type(t.a, t.y, c.j))
            return
        if isinstance(t, TPushout):
            if zone != "ind":
                raise CheckError("Pushout-form", "pushout types live in the indexed zone")
            ft = self.infer(ctx.with_ind(()), t.f)
            gt = self.infer(ctx.with_ind(()), t.g)
            if not isinstance(ft, THom) or not isinstance(gt, THom):
                raise CheckError("Pushout-form", "span legs must be Hom terms")
            if not equal_types(ft.a, gt.a, defs=self.defs):
                raise CheckError("Pushout-form", "span legs must share a domain")
            return
        raise CheckError("type", f"not a type: {t!r}")

    def _pushout_span(self, ctx: Ctx, t: TPushout) -> tuple:
        ft = self.infer(ctx.with_ind(()), t.f)
        gt = self.infer(ctx.with_ind(()), t.g)
        return ft.a, ft.b, gt.b  # A, B, C

    # -------------------------------------------------------------- terms

    def infer(self, ctx: Ctx, t: Term) -> Type:
        if isinstance(t, Var):
            hit = ctx.lookup(t.name)
            if hit is not None:
                return hit[1]
            d = self.decls.get(t.name)
            if d is not None and d.kind == "term" and not d.btele and not (d.itele or ()):
                return d.rhs
            raise CheckError("var", f"unbound variable {t.name}")
        if isinstance(t, One):
            return TUnit()
        if isinstance(t, (I0, I1)):
            return TInterval()
        if isinstance(t, App):
            ft = self.infer(ctx, t.f)
            if isinstance(ft, THom):
                self.check_term(ctx, t.a, ft.a)
                return ft.b
            if isinstance(ft, TPi):
                self.check_term(ctx.with_ind(()), t.a, ft.itype)
                return subst_type(ft.body, ft.i, t.a)
            raise CheckError("app", f"cannot apply a term of type {type(ft).__name__}")
        if isinstance(t, HomApp):
            ft = self.infer(ctx, t.f)
            if not isinstance(ft, TDepHom):
                raise CheckError("dep-hom-app", "f () requires a dependent-Hom type")
            # the current indexed telescope must end with the Hom's telescope
            tele = ft.tele
            if len(ctx.ind) < len(tele):
                raise CheckError("dep-hom-app", "indexed context too short for f ()")
            tail = ctx.ind[len(ctx.ind) - len(tele):]
            b = ft.b
            for (n_t, ty_t), (n_c, ty_c) in zip(tele, tail):
                if not equal_types(ty_t, ty_c, defs=self.defs):
                    raise CheckError("dep-hom-app", "indexed context does not match the Hom telescope")
                b = subst_type(b, n_t, Var(n_c))
            return b
        if isinstance(t, SPair):
            # inferable in the non-dependent case
            at = self.infer(ctx, t.a)
            bt = self.infer(ctx, t.b)
            # the binder is named apart from bt, which it does not scope over
            return TSigma(fresh("_", free_vars(bt)), at, bt)
        if isinstance(t, Fst):
            st = self.infer(ctx, t.t)
            if not isinstance(st, TSigma):
                raise CheckError("sigma-elim", "fst requires a Sigma type")
            return st.xtype
        if isinstance(t, Snd):
            st = self.infer(ctx, t.t)
            if not isinstance(st, TSigma):
                raise CheckError("sigma-elim", "snd requires a Sigma type")
            return subst_type(st.body, st.x, Fst(t.t))
        if isinstance(t, Refl):
            at = self.infer(ctx, t.t)
            return TId(at, t.t, t.t)
        if isinstance(t, IdJ):
            qt = self.infer(ctx, t.q)
            if not isinstance(qt, TId):
                raise CheckError("Id-elim", "idJ requires an Id-typed target")
            a, l, r = qt.a, qt.left, qt.right
            mctx = ctx.bind_ind(t.z, a).bind_ind(t.p, TId(a, l, Var(t.z)))
            self.check_type(mctx, t.dtype, "ind")
            dexp = subst_type(subst_type(t.dtype, t.z, l), t.p, Refl(l))
            self.check_term(ctx.bind_ind(t.x, a), t.d, dexp)
            return subst_type(subst_type(t.dtype, t.z, r), t.p, t.q)
        if isinstance(t, CoprodElim):
            st = self.infer(ctx, t.scrut)
            if not isinstance(st, TCoprod):
                raise CheckError("coprod-elim", "scrutinee is not a coproduct")
            self.check_type(ctx.bind_ind(t.z, st), t.dtype, "ind")
            bij = subst_type(st.body, st.i, Var(t.i))
            intro: Term = CPair(Var(t.i), Var(t.x)) if self.stable else In(Var(t.i), Var(t.x))
            dctx = ctx.bind_base(t.i, st.itype).bind_ind(t.x, bij)
            self.check_term(dctx, t.d, subst_type(t.dtype, t.z, intro))
            return subst_type(t.dtype, t.z, t.scrut)
        if isinstance(t, EApp):
            ft = self.infer(ctx, t.f)
            if isinstance(ft, TPath):
                if len(t.clauses) != 2:
                    raise CheckError("ext-app", "path application takes the two endpoint clauses")
                for ann, want in zip(t.clauses, (ft.left, ft.right)):
                    if not equal_terms(ann.body, want, None, defs=self.defs):
                        raise CheckError("ext-app", "endpoint clause differs from the path type")
                self.check_term(ctx.with_ind(()), t.v, TInterval())
                return ft.a
            if not isinstance(ft, TExt):
                raise CheckError("ext-app", "app{...} requires an extension type")
            if len(t.clauses) != len(ft.clauses):
                raise CheckError("ext-app", "clause count does not match the type")
            if len(ft.clauses) == 2 and not _endpoint_pieces(ft):
                raise CheckError(
                    "ext-app", "two clauses must be the pieces (x : I1) i0 . a, (x : I1) i1 . b, with x unused"
                )
            for ann, c in zip(t.clauses, ft.clauses):
                want = subst(c.body, c.x, Var(ann.x))
                if not equal_terms(ann.body, want, None, defs=self.defs):
                    raise CheckError("ext-app", "clause annotation differs from the type's clause")
            self.check_term(ctx.with_ind(()), t.v, ft.v)
            return subst_type(ft.a, ft.y, t.v)
        if isinstance(t, PushElim):
            st = self.infer(ctx, t.scrut)
            if not isinstance(st, TPushout):
                raise CheckError("pushout-elim", "scrutinee is not a pushout")
            a, b, c = self._pushout_span(ctx, st)
            self.check_type(ctx.bind_ind(t.w, st), t.dtype, "ind")
            self.check_term(
                ctx.bind_ind(t.y, b), t.d1, subst_type(t.dtype, t.w, Pinl(Var(t.y)))
            )
            self.check_term(
                ctx.bind_ind(t.z, c), t.d2, subst_type(t.dtype, t.w, Pinr(Var(t.z)))
            )
            gctx = ctx.bind_base(t.i, TInterval()).bind_ind(t.x, a)
            self.check_term(
                gctx, t.d3, subst_type(t.dtype, t.w, Pglue(Var(t.x), Var(t.i)))
            )
            # endpoint agreement: d3[i0/i] = d1[f x/y] and d3[i1/i] = d2[g x/y]
            left = subst(t.d3, t.i, I0())
            right = subst(t.d3, t.i, I1())
            if not equal_terms(left, subst(t.d1, t.y, App(st.f, Var(t.x))), defs=self.defs):
                raise CheckError("pushout-elim", "d3 at i0 does not agree with d1 . f")
            if not equal_terms(right, subst(t.d2, t.z, App(st.g, Var(t.x))), defs=self.defs):
                raise CheckError("pushout-elim", "d3 at i1 does not agree with d2 . g")
            return subst_type(t.dtype, t.w, t.scrut)
        raise CheckError("infer", f"cannot infer a type for {type(t).__name__}; add an annotation")

    def check_term(self, ctx: Ctx, t: Term, ty: Type) -> None:
        if isinstance(t, Lam):
            if isinstance(ty, THom):
                if ctx.ind:
                    raise CheckError("Hom-intro", "Hom abstraction needs an empty indexed context")
                self.check_term(ctx.with_ind(((t.x, ty.a),)), t.body, ty.b)
                return
            if isinstance(ty, TPi):
                body_ty = subst_type(ty.body, ty.i, Var(t.x))
                self.check_term(ctx.bind_base(t.x, ty.itype), t.body, body_ty)
                return
            if isinstance(ty, TExt):
                aty = subst_type(ty.a, ty.y, Var(t.x))
                self.check_term(ctx.bind_base(t.x, ty.v), t.body, aty)
                for c in ty.clauses:
                    want = c.body
                    got = subst(t.body, t.x, c.j)
                    at = subst_type(ty.a, ty.y, c.j)
                    if not equal_terms(got, want, at, defs=self.defs):
                        raise CheckError(
                            "ext-intro", "lambda body does not restrict to the clause term"
                        )
                return
            if isinstance(ty, TPath):
                self.check_term(ctx.bind_base(t.x, TInterval()), t.body, ty.a)
                if not equal_terms(subst(t.body, t.x, I0()), ty.left, ty.a, defs=self.defs):
                    raise CheckError("path-intro", "left endpoint mismatch")
                if not equal_terms(subst(t.body, t.x, I1()), ty.right, ty.a, defs=self.defs):
                    raise CheckError("path-intro", "right endpoint mismatch")
                return
            raise CheckError("lam", f"lambda checked against non-function type {type(ty).__name__}")
        if isinstance(t, HomLam):
            if not isinstance(ty, TDepHom):
                raise CheckError("dep-hom-intro", "lam(b) requires a dependent-Hom type")
            c = ctx.with_ind(())
            for n, tele_ty in ty.tele:
                c = c.bind_ind(n, tele_ty)
            self.check_term(c, t.body, ty.b)
            return
        if isinstance(t, SPair):
            if not isinstance(ty, TSigma):
                raise CheckError("sigma-intro", "spair requires a Sigma type")
            self.check_term(ctx, t.a, ty.xtype)
            self.check_term(ctx, t.b, subst_type(ty.body, ty.x, t.a))
            return
        if isinstance(t, CPair):
            if not isinstance(ty, TCoprod):
                raise CheckError("coprod-intro", "(j, b) requires a coproduct type")
            if not self.stable:
                raise CheckError(
                    "coprod-intro", "(j, b) needs the stable-coproducts pragma; use in(j, x)"
                )
            self.check_term(ctx.with_ind(()), t.j, ty.itype)
            self.check_term(ctx, t.b, subst_type(ty.body, ty.i, t.j))
            return
        if isinstance(t, In):
            if not isinstance(ty, TCoprod):
                raise CheckError("coprod-intro", "in(j, x) requires a coproduct type")
            if not isinstance(t.b, Var):
                raise CheckError("coprod-intro", "unstable intro applies to a variable only")
            self.check_term(ctx.with_ind(()), t.j, ty.itype)
            self.check_term(ctx, t.b, subst_type(ty.body, ty.i, t.j))
            return
        if isinstance(t, Pinl):
            if not isinstance(ty, TPushout):
                raise CheckError("pushout-intro", "pinl requires a pushout type")
            _, b, _ = self._pushout_span(ctx, ty)
            self.check_term(ctx, t.t, b)
            return
        if isinstance(t, Pinr):
            if not isinstance(ty, TPushout):
                raise CheckError("pushout-intro", "pinr requires a pushout type")
            _, _, c = self._pushout_span(ctx, ty)
            self.check_term(ctx, t.t, c)
            return
        if isinstance(t, Pglue):
            if not isinstance(ty, TPushout):
                raise CheckError("pushout-intro", "pglue requires a pushout type")
            a, _, _ = self._pushout_span(ctx, ty)
            self.check_term(ctx, t.t, a)
            self.check_term(ctx.with_ind(()), t.r, TInterval())
            return
        if isinstance(t, Refl):
            if isinstance(ty, TId):
                self.check_term(ctx, t.t, ty.a)
                if not equal_terms(t.t, ty.left, ty.a, defs=self.defs) or not equal_terms(t.t, ty.right, ty.a, defs=self.defs):
                    raise CheckError("Id-intro", "refl endpoints do not match the Id type")
                return
        # fall back to inference plus conversion
        got = self.infer(ctx, t)
        if not equal_types(got, ty, defs=self.defs):
            raise CheckError(
                "conv",
                f"type mismatch: inferred {type_to_src(got)}, expected {type_to_src(ty)}",
            )

    # -------------------------------------------------------------- declarations

    def check_decl(self, d: RawDecl) -> RawDecl:
        if d.name in self.decls:
            raise CheckError("decl", f"duplicate declaration {d.name}")
        ctx = Ctx()
        for n, ty in d.btele:
            self.check_type(ctx, ty, "base")
            ctx = ctx.bind_base(n, ty)
        if d.itele is not None:
            for n, ty in d.itele:
                self.check_type(ctx, ty, "ind")
                ctx = ctx.bind_ind(n, ty)
        if d.kind != "term":
            if d.keyword == "def" or d.body is not None:
                raise CheckError("decl", "type constants must be postulates")
            if d.kind == "base-type" and d.itele:
                raise CheckError("decl", "base type constants take no indexed telescope")
        else:
            zone = "ind" if d.itele is not None else "base"
            self.check_type(ctx, d.rhs, zone)
            if d.keyword == "def":
                if d.body is None:
                    raise CheckError("decl", "def requires a body")
                self.check_term(ctx, d.body, d.rhs)
            if d.body is not None and not d.btele and not (d.itele or ()):
                self.defs[d.name] = normalize(unfold(d.body, self.defs))
        self.decls[d.name] = d
        return d


def check_source(src: str) -> Checker:
    """Parse and check a whole ``.itt`` source; raises on the first error."""
    pragmas, decls = parse_file(src)
    for p in pragmas:
        if p != "stable-coproducts":
            raise CheckError("pragma", f"unknown pragma #{p}")
    ck = Checker(stable_coproducts="stable-coproducts" in pragmas)
    for d in decls:
        try:
            ck.check_decl(d)
        except CheckError as e:
            raise CheckError(e.rule, f"line {d.line}, in {d.name}: {e.args[0]}") from None
    return ck
