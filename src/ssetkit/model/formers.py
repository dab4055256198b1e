"""Semantic type formers over the local-universe presentation.

Every universe built here depends only on the input universes (never on the
context), so each former is strictly stable under substitution: reindexing
the result equals the result of reindexing the inputs, field by field.
Each former builds its pushforwards, exponentials and cores at the depth of
its inputs' fibration class, ``spec.depth``.

Each former keeps what its term operations read in one frozen record, a
subclass of :class:`~ssetkit.model.core.Former`, and no other module knows
the records' handles.  A record field is either universe-level
(pushforwards, factorizations, core inclusions), which substitution passes
through unchanged, or part of the binder -- a type over the context, or a
:class:`~ssetkit.model.core.Binder` (the domain type, its chosen extension
and the family over it; for the extension type, the constant base type V,
Gamma.V and A) -- which :func:`~ssetkit.model.core.subst` reindexes.  The
one other field is the name a dependent Hom binds, which substitution leaves
as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..kernel import (
    Exponential,
    FinSSet,
    Pullback,
    Pushforward,
    SMap,
    compose,
    exponential,
    identity,
    product,
    pullback,
    pushforward,
    terminal,
    terminal_map,
)
from ..joyal import core_G, core_of_map
from ..lifting import (
    CellFactorization,
    LiftingProblem,
    factor_soa,
    solve_lift,
)
from .core import (
    Binder,
    FibClassSpec,
    Former,
    LUTerm,
    LUType,
    ModelError,
    UnsupportedConstruction,
    ctx_extend,
    factor_through,
    subst,
)

__all__ = [
    "Sigma",
    "Pi",
    "Hom",
    "Id",
    "Coprod",
    "UnstableCoprod",
    "Ext",
    "constant_type",
    "unit_type",
    "unit_term",
    "sigma_type",
    "sigma_pair",
    "sigma_proj1",
    "sigma_proj2",
    "pi_type",
    "pi_lam",
    "pi_app",
    "pi_app_var",
    "hom_type",
    "hom_lam",
    "hom_app",
    "id_type",
    "id_refl",
    "dep_coprod",
    "dep_coprod_intro",
    "dep_coprod_elim",
    "extension_type",
    "extension_lam",
    "extension_app",
]


# -- the formers' records --------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Sigma(Former):
    binder: Binder
    pb_u: Pullback  # E_u = V_u x_{V_I} E_I
    pb_e: Pullback  # E_Sigma = E_u x_{V_B} E_B


@dataclass(frozen=True, eq=False, repr=False)
class Pi(Former):
    binder: Binder
    pb_u: Pullback
    prod_ee: Pullback  # E_I x E_B
    z: Pullback  # the labelled total spaces over E_u
    e_pi: Pushforward  # E_Pi = Pi_{p_u}(Z)


@dataclass(frozen=True, eq=False, repr=False)
class Hom(Former):
    pi: LUType
    eps_e: SMap  # the core inclusion of E_Pi
    var: Optional[str]  # the name its telescope binds, None for none; read by the term elaborator


@dataclass(frozen=True, eq=False, repr=False)
class Id(Former):
    a: LUType
    fac: CellFactorization


@dataclass(frozen=True, eq=False, repr=False)
class Coprod(Former):
    """The stable coproduct over a base type."""

    binder: Binder
    pb_u: Pullback
    prod_ee: Pullback
    z: Pullback
    fac: CellFactorization


@dataclass(frozen=True, eq=False, repr=False)
class UnstableCoprod(Coprod):
    """The coproduct core-restricted along the core inclusion, ``pb_c.left_map``."""

    pb_c: Pullback


@dataclass(frozen=True, eq=False, repr=False)
class Ext(Former):
    binder: Binder  # y : V, the constant base type, and A over Gamma.V
    ev: Exponential  # E_A^V


# -- constant types and unit -----------------------------------------------------


def constant_type(gamma: FinSSet, fiber: FinSSet, spec: FibClassSpec) -> LUType:
    """The constant type over gamma with this fiber: gamma -> 1 <- fiber."""
    return LUType(terminal_map(gamma), terminal_map(fiber), spec)


def unit_type(gamma: FinSSet, spec: FibClassSpec) -> LUType:
    """The unit type: the constant type with the point as fiber, whose
    fibration 1 -> 1 is the identity."""
    return constant_type(gamma, terminal(), spec)


def unit_term(a: LUType) -> LUTerm:
    return LUTerm(a, a.r)


# -- the shared universe of Sigma/Pi/coproducts --------------------------------


def _shared_universe(bd: Binder) -> tuple:
    """The universe classifying (point of V_I, labeling of its fiber in V_B).

    Returns the classifying map [r_A, r_B]: ctx -> V_u, where V_u is the
    pushforward of E_I x V_B -> E_I along p_I; the chosen pullback E_u of
    p_I along V_u -> V_I; the evaluation E_u -> E_I x V_B; and that product.
    """
    p_i = bd.a.p
    prod_ev = product(p_i.source, bd.b.universe)
    v_u = pushforward(p_i, prod_ev.proj1, bd.a.spec.depth)
    pb_u = pullback(v_u.struct, p_i)
    ev = v_u.counit(pb_u)
    r = v_u.transpose(bd.a.r, prod_ev.pair(bd.pb.proj2, bd.b.r), bd.pb)
    return r, pb_u, ev, prod_ev


def _pi_universe(bd: Binder) -> tuple:
    """The shared universe with Z (labelled total spaces) over E_u."""
    r, pb_u, ev, prod_ev = _shared_universe(bd)
    b = bd.b
    prod_ee = product(bd.a.total, b.total)
    idxp = prod_ev.pair(prod_ee.proj1, compose(b.p, prod_ee.proj2))
    z = pullback(ev, idxp)
    return r, pb_u, prod_ee, z


# -- Sigma --------------------------------------------------------------------


def sigma_type(bd: Binder) -> LUType:
    """Sigma of the family bd.b over bd.a."""
    a, b = bd.a, bd.b
    r, pb_u, ev, prod_ev = _shared_universe(bd)
    pb_e = pullback(compose(prod_ev.proj2, ev), b.p)
    p = compose(pb_u.proj1, pb_e.proj1)
    return LUType(r, p, a.spec, Sigma(bd, pb_u, pb_e))


def sigma_pair(s: LUType, at: LUTerm, bt: LUTerm) -> LUTerm:
    """(a, b) with b a term of B[a]."""
    rec: Sigma = s.former
    x = rec.pb_u.pair(s.r, at.section)  # ctx -> E_u
    return LUTerm(s, rec.pb_e.pair(x, bt.section))


def sigma_proj1(s: LUType, t: LUTerm) -> LUTerm:
    rec: Sigma = s.former
    sec = compose(rec.pb_u.proj2, compose(rec.pb_e.proj1, t.section))
    return LUTerm(rec.binder.a, sec)


def sigma_proj2(s: LUType, t: LUTerm) -> LUTerm:
    rec: Sigma = s.former
    at = sigma_proj1(s, t)
    return LUTerm(rec.binder.at(at.section), compose(rec.pb_e.proj2, t.section))


# -- Pi -----------------------------------------------------------------------


def pi_type(bd: Binder) -> LUType:
    """Pi of the family bd.b over bd.a, in the family's fibration class.

    Over a base type reindexed to the context, this is the product over
    that base type.
    """
    b = bd.b
    r, pb_u, prod_ee, z = _pi_universe(bd)
    e_pi = pushforward(pb_u.proj1, z.proj1, b.spec.depth)
    return LUType(r, e_pi.struct, b.spec, Pi(bd, pb_u, prod_ee, z, e_pi))


def _pi_apply(rec: Pi, f_sec: SMap, r: SMap, a_sec: SMap) -> SMap:
    """The section of B given by evaluating f_sec, a section of Pi over r, at
    a_sec, a section of the domain over the same context."""
    pb_e = pullback(rec.e_pi.struct, rec.pb_u.proj1)
    ev = rec.e_pi.counit(pb_e)  # -> Z
    x = rec.pb_u.pair(r, a_sec)  # ctx -> E_u
    z = compose(ev, pb_e.pair(f_sec, x))
    return compose(rec.prod_ee.proj2, compose(rec.z.proj2, z))


def pi_lam(s: LUType, bt: LUTerm) -> LUTerm:
    """Abstraction: a term of B over the chosen extension gives a term of Pi."""
    rec: Pi = s.former
    pb = rec.binder.pb
    if bt.type.ctx != pb.sset:
        raise ModelError("pi_lam: the body is not over the chosen extension")
    pb_gu = pullback(s.r, rec.pb_u.proj1)  # ctx x_{V_u} E_u
    alpha = compose(rec.pb_u.proj2, pb_gu.proj2)  # -> E_I (= E_A)
    phi = pb.pair(pb_gu.proj1, alpha)  # -> the chosen extension
    v = rec.prod_ee.pair(alpha, compose(bt.section, phi))
    k = rec.z.pair(pb_gu.proj2, v)
    return LUTerm(s, rec.e_pi.transpose(s.r, k, pb_gu))


def pi_app(s: LUType, f: LUTerm, at: LUTerm) -> LUTerm:
    """Application: f a as a term of B[a]."""
    rec: Pi = s.former
    section = _pi_apply(rec, f.section, s.r, at.section)
    return LUTerm(rec.binder.at(at.section), section)


def pi_app_var(s: LUType, f: LUTerm) -> LUTerm:
    """f applied to the generic variable: a term of B over the extension.

    The eta law is ``pi_lam(s, pi_app_var(s, f)) == f``.
    """
    rec: Pi = s.former
    pb = rec.binder.pb
    proj = pb.proj1
    section = _pi_apply(rec, compose(f.section, proj), compose(s.r, proj), pb.proj2)
    return LUTerm(rec.binder.b, section)


# -- Hom (the core functor applied to Pi) --------------------------------------


def hom_type(pi: LUType, base_spec: FibClassSpec, var: Optional[str] = None) -> LUType:
    """Hom = phi(r_Pi): ctx -> G(V_Pi) with the core of p_Pi.

    phi is factorization through the core inclusion, which exists (uniquely,
    the inclusion being mono) when the context's classifying map lands in
    the core -- guaranteed for contexts passing the base-side lifting check.
    The cores are computed at pi's depth, which ``base_spec`` must share.
    ``var`` names the bound variable of a dependent Hom's telescope, and is
    None when there is no telescope variable.
    """
    depth = pi.spec.depth
    if base_spec.depth != depth:
        raise ModelError(f"hom: the base class has depth {base_spec.depth}, Pi {depth}")
    g_p = core_of_map(pi.p, level=depth)
    eps_v = core_G(pi.universe, level=depth).inclusion
    eps_e = core_G(pi.total, level=depth).inclusion
    r_hom = factor_through(pi.r, eps_v)
    if r_hom is None:
        raise ModelError("hom: r does not factor through the core (context not verified)")
    return LUType(r_hom, g_p, base_spec, Hom(pi, eps_e, var))


def hom_lam(hom: LUType, bt: LUTerm) -> LUTerm:
    """lambda(b): transport a section of p_Pi through phi."""
    rec: Hom = hom.former
    f = factor_through(bt.section, rec.eps_e)
    if f is None:
        raise ModelError("hom_lam: the section does not land in the core")
    return LUTerm(hom, f)


def hom_app(hom: LUType, f: LUTerm) -> LUTerm:
    """f (): compose with the core inclusion to recover the Pi section."""
    rec: Hom = hom.former
    return LUTerm(rec.pi, compose(rec.eps_e, f.section))


# -- identity types ------------------------------------------------------------


def id_type(a: LUType, left: LUTerm, right: LUTerm, budget: int) -> LUType:
    """Id_A(left, right): factor the universe-level diagonal of E_A.

    The universe is E_A x_{V_A} E_A and the fibration is the right leg of
    the budgeted factorization of the diagonal, so the construction is
    independent of the context and strictly stable.  The diagonal is
    factored against A's class, which certifies the fibration.  The
    endpoints give the classifier, so they must be terms over A's context.
    """
    if left.type.ctx != a.ctx or right.type.ctx != a.ctx:
        raise ModelError("id: the endpoints are not terms over the type's context")
    pb = pullback(a.p, a.p)
    diag = pb.pair(identity(a.total), identity(a.total))
    fac = factor_soa(diag, a.spec.family, budget)
    r_id = pb.pair(left.section, right.section)
    return LUType(r_id, fac.right, a.spec, Id(a, fac))


def id_refl(idt: LUType, at: LUTerm) -> LUTerm:
    """refl: the left factor applied to the term's section."""
    rec: Id = idt.former
    return LUTerm(idt, compose(rec.fac.left, at.section))


# -- coproducts over a base type ------------------------------------------------


def dep_coprod(bd: Binder, budget: int, variant: str = "stable") -> LUType:
    """Coproduct over the base type bd.a of the family bd.b.

    The universe is shared with the product; the total object is the
    budgeted fibration factorization of Z -> V_u against bd.b's class,
    which certifies it.  The unstable variant core-restricts the universe
    along its core inclusion.
    """
    b = bd.b
    r, pb_u, prod_ee, z = _pi_universe(bd)
    fac = factor_soa(compose(pb_u.proj1, z.proj1), b.spec.family, budget)
    if variant == "stable":
        rec = Coprod(bd, pb_u, prod_ee, z, fac)
        return LUType(r, fac.right, b.spec, rec)
    if variant != "unstable":
        raise ModelError(f"unknown coproduct variant {variant!r}")
    eps = core_G(pb_u.proj1.target, level=b.spec.depth).inclusion
    r_core = factor_through(r, eps)
    if r_core is None:
        raise ModelError("dep_coprod unstable: r does not factor through the core")
    pb_c = pullback(eps, fac.right)
    rec = UnstableCoprod(bd, pb_u, prod_ee, z, fac, pb_c)
    return LUType(r_core, pb_c.proj1, b.spec, rec)


def dep_coprod_intro(s: LUType, j_sec: SMap, bt: LUTerm) -> LUTerm:
    """(j, b): the cell-attachment leg applied to the Z-point of (j, b)."""
    rec: Coprod = s.former
    a = rec.binder.a
    if compose(a.p, j_sec) != a.r:
        raise ModelError("dep_coprod_intro: j is not a section over the base classifier")
    unstable = isinstance(rec, UnstableCoprod)
    r_plain = compose(rec.pb_c.left_map, s.r) if unstable else s.r
    u = rec.pb_u.pair(r_plain, j_sec)  # Delta -> E_u
    v = rec.prod_ee.pair(j_sec, bt.section)  # Delta -> E_I x E_B
    section = compose(rec.fac.left, rec.z.pair(u, v))
    if unstable:
        section = rec.pb_c.pair(s.r, section)
    return LUTerm(s, section)


def dep_coprod_elim(s: LUType, d_type: LUType, d_sec: SMap, c: LUTerm) -> LUTerm:
    """The eliminator: extend d along the cell-attachment leg, over D.

    ``d_type`` lives over the chosen extension Delta.(coprod); ``d_sec`` is
    a section Delta.I.B -> E_D of p_D over r_D restricted along the intro
    map.  The extension is a deterministic lift against p_D, so the beta
    equation holds strictly by construction.
    """
    rec: Coprod = s.former
    if isinstance(rec, UnstableCoprod):
        raise UnsupportedConstruction("the eliminator is provided for stable coproducts")
    bd = rec.binder
    ext = ctx_extend(s)
    if d_type.ctx != ext.ctx:
        raise ModelError("dep_coprod_elim: D is not over the coproduct extension")
    ext_b = pullback(bd.b.r, bd.b.p)  # Delta.I.B, the context of d
    if d_sec.source != ext_b.sset or d_sec.target != d_type.total:
        raise ModelError("dep_coprod_elim: d must be a map Delta.I.B -> E_D")
    # X = Delta x_{V_u} Z, the Z-side of the extension; iota: X -> Delta.I.B
    x = pullback(s.r, compose(rec.pb_u.proj1, rec.z.proj1))
    e_i = compose(rec.prod_ee.proj1, compose(rec.z.proj2, x.proj2))
    e_b = compose(rec.prod_ee.proj2, compose(rec.z.proj2, x.proj2))
    into_i = bd.pb.pair(x.proj1, e_i)  # X -> Delta.I
    iota = ext_b.pair(into_i, e_b)  # X -> Delta.I.B
    t_ext = ext.pb.pair(x.proj1, compose(rec.fac.left, x.proj2))  # X -> Delta.coprod
    prob = LiftingProblem(
        left=t_ext,
        right=d_type.p,
        top=compose(d_sec, iota),
        bottom=d_type.r,
    )
    lift = solve_lift(prob)
    if lift is None:
        raise ModelError("dep_coprod_elim: no extension of d over the coproduct fibers")
    point = ext.pb.pair(identity(s.ctx), c.section)
    return LUTerm(subst(d_type, point), compose(lift, point))


# -- extension types --------------------------------------------------------------


def extension_type(bd: Binder, j: SMap, partial: SMap) -> LUType:
    """<Pi_{y:V} A | x.a>: the object of lifts of the partial section.

    ``bd`` binds y : V: ``bd.a`` is the constant type with fiber V =
    ``j.target`` over the context gamma, and ``bd.b`` is A over the chosen
    extension gamma.V.  ``partial``: gamma.U -> E_A, on the chosen extension
    by the constant type with fiber U = ``j.source``, is the prescribed
    section over r . (id x j).  The universe is the gap object of
    exponentials of the input universe, at A's depth, so it is independent
    of gamma.
    """
    a, pb_gv = bd.b, bd.pb
    depth = a.spec.depth
    u = j.source
    if bd.a.p != terminal_map(j.target):
        raise ModelError("extension_type: the binder must bind the constant type j.target")
    pb_gu = pullback(bd.a.r, terminal_map(u))
    incl = pb_gv.pair(pb_gu.proj1, compose(j, pb_gu.proj2))
    if compose(a.p, partial) != compose(a.r, incl):
        raise ModelError("extension_type: partial section does not match the restriction")
    ev_ = exponential(a.total, j.target, depth)
    vav = exponential(a.universe, j.target, depth)
    vau = exponential(a.universe, u, depth)
    eau = exponential(a.total, u, depth)
    p_v = ev_.postcompose(a.p, vav)
    res_v = vav.precompose(j, vau)
    res_e = ev_.precompose(j, eau)
    p_u = eau.postcompose(a.p, vau)
    w = pullback(res_v, p_u)
    p_pi = w.pair(p_v, res_e)  # the gap map E_A^V -> V_A^V x_{V_A^U} E_A^U
    r_v = vav.curry(a.r, pb_gv)
    a_u = eau.curry(partial, pb_gu)
    r_pi = w.pair(r_v, a_u)
    return LUType(r_pi, p_pi, a.spec, Ext(bd, ev_))


def extension_lam(ext: LUType, total_section: SMap) -> LUTerm:
    """lambda y. a from a full section gamma.V -> E_A over r."""
    rec: Ext = ext.former
    a = rec.binder.b
    if compose(a.p, total_section) != a.r:
        raise ModelError("extension_lam: not a section over r")
    return LUTerm(ext, rec.ev.curry(total_section, rec.binder.pb))


def extension_app(ext: LUType, f: LUTerm, v_pt: SMap) -> LUTerm:
    """app(f, v): evaluate at a map v: gamma -> V, a term of A[v]."""
    rec: Ext = ext.former
    bd = rec.binder
    full = rec.ev.uncurry(f.section, bd.pb)
    return LUTerm(bd.at(v_pt), compose(full, bd.pb.pair(identity(ext.ctx), v_pt)))
