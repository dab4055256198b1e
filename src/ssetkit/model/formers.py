"""Semantic type formers over the local-universe presentation.

Every universe built here depends only on the input universes (never on the
context), so each former is strictly stable under substitution: reindexing
the result equals the result of reindexing the inputs, field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..kernel import (
    FinSSet,
    Pullback,
    SMap,
    compose,
    constant_map,
    coproduct,
    exponential,
    identity,
    product,
    pullback,
    pushforward,
    pushout,
    std_simplex,
    terminal,
    terminal_map,
)
from ..joyal import core_G, core_of_map
from ..lifting import (
    BudgetExhausted,
    CellFactorization,
    GeneratorFamily,
    LiftingProblem,
    factor_soa,
    quasifibration_check,
    solve_lift,
)
from .core import (
    Extension,
    FibClassSpec,
    LUContext,
    LUTerm,
    LUType,
    ModelError,
    UnsupportedConstruction,
    ctx_extend,
    factor_through,
    subst,
)

__all__ = [
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
    "IndexedFamily",
    "indexed_extend",
    "dep_prod",
    "dep_prod_lam",
    "dep_prod_app",
    "dep_prod_app_var",
    "dep_coprod",
    "dep_coprod_intro",
    "dep_coprod_elim",
    "over_cylinder",
    "extension_type",
    "extension_lam",
    "extension_app",
    "PushoutCells",
    "pushout_cells",
]


# -- unit ---------------------------------------------------------------------


def unit_type(gamma: LUContext, spec: FibClassSpec, depth: int = 2) -> LUType:
    """The unit type: the identity fibration over the terminal universe."""
    pt = terminal()
    return LUType(gamma, terminal_map(gamma.sset), identity(pt), spec, depth)


def unit_term(a: LUType) -> LUTerm:
    return LUTerm(a, a.r)


# -- the shared universe of Sigma/Pi/coproducts --------------------------------


def _shared_universe(p_i: SMap, v_b: FinSSet, depth: int) -> dict:
    """The universe classifying (point of V_I, labeling of its fiber in V_B).

    Handles: the pushforward V_u of E_I x V_B -> E_I along p_I, the
    pulled-back fibration p_u over V_u, and the evaluation E_u -> E_I x V_B.
    """
    e_i = p_i.source
    prod_ev = product(e_i, v_b)
    v_u = pushforward(p_i, prod_ev.proj1, depth)
    pb_u = pullback(v_u.struct, p_i)  # E_u = V_u x_{V_I} E_I
    ev = v_u.counit(pb_u)  # E_u -> E_I x V_B
    return {
        "p_i": p_i,
        "v_b": v_b,
        "prod_ev": prod_ev,
        "v_u": v_u,
        "pb_u": pb_u,
        "p_u": pb_u.to_left,  # E_u ->> V_u
        "ev": ev,
    }


def _transpose_r(h: dict, r_base: SMap, r_b: SMap, pb: Pullback) -> SMap:
    """The map [r_base, r_b]: Delta -> V_u from r_base: Delta -> V_I and
    r_b on the chosen pullback pb of (r_base, p_I)."""
    k = h["prod_ev"].pair(pb.to_right, r_b)
    return h["v_u"].transpose(r_base, k, pb)


def _pi_data(h: dict, b: LUType, depth: int) -> dict:
    """Z (labelled total spaces) and E_Pi = Pi_{p_u}(Z)."""
    e_i = h["p_i"].source
    prod_ee = product(e_i, b.total)
    idxp = h["prod_ev"].pair(prod_ee.proj1, compose(b.p, prod_ee.proj2))
    z = pullback(h["ev"], idxp)  # Z over E_u
    e_pi = pushforward(h["p_u"], z.to_left, depth)
    return dict(h, prod_ee=prod_ee, z=z, q=z.to_left, e_pi=e_pi)


# -- Sigma --------------------------------------------------------------------


def sigma_type(a: LUType, b: LUType, ext: Extension) -> LUType:
    """Sigma of b over a; b must live over the extension of a's context."""
    if b.ctx.sset != ext.ctx.sset:
        raise ModelError("sigma: b is not over the extension")
    depth = max(a.depth, b.depth)
    h = _shared_universe(a.p, b.universe, depth)
    w = compose(h["prod_ev"].proj2, h["ev"])  # E_u -> V_B
    pb_e = pullback(w, b.p)  # E_Sigma = E_u x_{V_B} E_B
    p_sigma = compose(h["p_u"], pb_e.to_left)
    r_sigma = _transpose_r(h, a.r, b.r, ext.pb)
    aux = dict(h, pb_e=pb_e, a=a, b=b, ext=ext)
    return LUType(a.ctx, r_sigma, p_sigma, a.spec, depth, aux)


def sigma_pair(s: LUType, at: LUTerm, bt: LUTerm) -> LUTerm:
    """(a, b) with b a term of B[a]."""
    x = s.aux["pb_u"].pair(s.r, at.section)  # ctx -> E_u
    section = s.aux["pb_e"].pair(x, bt.section)
    return LUTerm(s, section)


def sigma_proj1(s: LUType, t: LUTerm) -> LUTerm:
    a: LUType = s.aux["a"]
    sec = compose(s.aux["pb_u"].to_right, compose(s.aux["pb_e"].to_left, t.section))
    return LUTerm(a, sec)


def sigma_proj2(s: LUType, t: LUTerm) -> LUTerm:
    b: LUType = s.aux["b"]
    at = sigma_proj1(s, t)
    sa = s.aux["ext"].pb.pair(identity(s.ctx.sset), at.section)
    return LUTerm(subst(b, sa), compose(s.aux["pb_e"].to_right, t.section))


# -- Pi (fibrationwise, and the core-restricted closed variant) ---------------


def pi_type(a: LUType, b: LUType, ext: Extension, variant: str = "plain") -> LUType:
    """Pi of b over a.

    ``variant="core"`` restricts the universe along the core inclusion
    before the final pushforward (the closed Cartesian variant); it requires
    the context's classifying map to land in the core.
    """
    if b.ctx.sset != ext.ctx.sset:
        raise ModelError("pi: b is not over the extension")
    depth = max(a.depth, b.depth)
    h = _pi_data(_shared_universe(a.p, b.universe, depth), b, depth)
    r_pi = _transpose_r(h, a.r, b.r, ext.pb)
    if variant == "plain":
        aux = dict(h, a=a, b=b, ext=ext, variant="plain")
        return LUType(a.ctx, r_pi, h["e_pi"].struct, a.spec, depth, aux)
    if variant != "core":
        raise ModelError(f"unknown pi variant {variant!r}")
    core = core_G(h["v_u"].sset, level=min(depth, 3))
    eps = core.inclusion
    r_core = factor_through(r_pi, eps)
    if r_core is None:
        raise ModelError("pi core variant: r does not factor through the core")
    pb_a = pullback(eps, h["p_u"])  # E_u' over the core; to_left is p_u'
    pb_z = pullback(pb_a.to_right, h["q"])  # Z' over E_u'
    e_pi = pushforward(pb_a.to_left, pb_z.to_left, depth)
    aux = dict(h, a=a, b=b, ext=ext, variant="core", eps=eps, pb_a=pb_a,
               pb_z=pb_z, e_pi_core=e_pi)
    return LUType(a.ctx, r_core, e_pi.struct, a.spec, depth, aux)


def _pi_abstract(s: LUType, bt: LUTerm, pb: Pullback) -> LUTerm:
    """The term of Pi abstracting bt, a term of B over the chosen extension pb."""
    h = s.aux
    pb_gu = pullback(s.r, h["p_u"])  # ctx x_{V_u} E_u
    alpha = compose(h["pb_u"].to_right, pb_gu.to_right)  # -> E_I (= E_A)
    phi = pb.pair(pb_gu.to_left, alpha)  # -> the chosen extension
    v = h["prod_ee"].pair(alpha, compose(bt.section, phi))
    k = h["z"].pair(pb_gu.to_right, v)
    return LUTerm(s, h["e_pi"].transpose(s.r, k, pb_gu))


def _pi_apply(s: LUType, f_sec: SMap, r: SMap, a_sec: SMap) -> SMap:
    """The section of B given by evaluating f_sec, a section of Pi over r, at
    a_sec, a section of the domain over the same context."""
    h = s.aux
    pb_e = pullback(h["e_pi"].struct, h["p_u"])
    ev = h["e_pi"].counit(pb_e)  # -> Z
    x = h["pb_u"].pair(r, a_sec)  # ctx -> E_u
    z = compose(ev, pb_e.pair(f_sec, x))
    return compose(h["prod_ee"].proj2, compose(h["z"].to_right, z))


def pi_lam(s: LUType, bt: LUTerm) -> LUTerm:
    """Abstraction: a term of B over the extension gives a term of Pi."""
    if s.aux.get("variant") != "plain":
        raise UnsupportedConstruction("abstraction is provided for the plain Pi")
    return _pi_abstract(s, bt, s.aux["ext"].pb)


def pi_app(s: LUType, f: LUTerm, at: LUTerm) -> LUTerm:
    """Application: f a as a term of B[a]."""
    if s.aux.get("variant") != "plain":
        raise UnsupportedConstruction("application is provided for the plain Pi")
    section = _pi_apply(s, f.section, s.r, at.section)
    b: LUType = s.aux["b"]
    sa = s.aux["ext"].pb.pair(identity(s.ctx.sset), at.section)
    return LUTerm(subst(b, sa), section)


# -- Hom (the core functor applied to Pi) --------------------------------------


def pi_app_var(s: LUType, f: LUTerm) -> LUTerm:
    """f applied to the generic variable: a term of B over the extension.

    The eta law is ``pi_lam(s, pi_app_var(s, f)) == f``.
    """
    if s.aux.get("variant") != "plain":
        raise UnsupportedConstruction("application is provided for the plain Pi")
    ext: Extension = s.aux["ext"]
    b: LUType = s.aux["b"]
    proj = ext.proj
    return LUTerm(b, _pi_apply(s, compose(f.section, proj), compose(s.r, proj), ext.pb.to_right))


def hom_type(pi: LUType, base_spec: FibClassSpec, level: int = 2) -> LUType:
    """Hom = phi(r_Pi): ctx -> G(V_Pi) with the core of p_Pi.

    phi is factorization through the core inclusion, which exists (uniquely,
    the inclusion being mono) when the context's classifying map lands in
    the core -- guaranteed for contexts passing the base-side lifting check.
    """
    g_p = core_of_map(pi.p, level=level)
    eps_v = core_G(pi.universe, level=level).inclusion
    eps_e = core_G(pi.total, level=level).inclusion
    r_hom = factor_through(pi.r, eps_v)
    if r_hom is None:
        raise ModelError("hom: r does not factor through the core (context not verified)")
    aux = dict(pi.aux, pi=pi, eps_v=eps_v, eps_e=eps_e)
    return LUType(pi.ctx, r_hom, g_p, base_spec, pi.depth, aux)


def hom_lam(hom: LUType, bt: LUTerm) -> LUTerm:
    """lambda(b): transport a section of p_Pi through phi."""
    f = factor_through(bt.section, hom.aux["eps_e"])
    if f is None:
        raise ModelError("hom_lam: the section does not land in the core")
    return LUTerm(hom, f)


def hom_app(hom: LUType, f: LUTerm) -> LUTerm:
    """f (): compose with the core inclusion to recover the Pi section."""
    pi: LUType = hom.aux["pi"]
    return LUTerm(pi, compose(hom.aux["eps_e"], f.section))


# -- identity types ------------------------------------------------------------


def id_type(a: LUType, left: LUTerm, right: LUTerm, family: GeneratorFamily, budget: int) -> LUType:
    """Id_A(left, right): factor the universe-level diagonal of E_A.

    The universe is E_A x_{V_A} E_A and the fibration is the right leg of
    the budgeted factorization of the diagonal, so the construction is
    independent of the context and strictly stable.
    """
    pb = pullback(a.p, a.p)
    diag = pb.pair(identity(a.total), identity(a.total))
    fac = factor_soa(diag, family, budget)
    r_id = pb.pair(left.section, right.section)
    aux = dict(a=a, pb=pb, fac=fac)
    return LUType(a.ctx, r_id, fac.right, a.spec, a.depth, aux)


def id_refl(idt: LUType, at: LUTerm) -> LUTerm:
    """refl: the left factor applied to the term's section."""
    fac: CellFactorization = idt.aux["fac"]
    return LUTerm(idt, compose(fac.left, at.section))


# -- dependent products and coproducts over a base type -------------------------


@dataclass(frozen=True)
class IndexedFamily:
    """The data of a base type I and an indexed family B over Delta.I.

    ``delta_r``: Delta -> V_I classifies I over the indexed context Delta
    (the base classifying map composed with the context projection); the
    extended context Delta.I is its chosen pullback against p_I, and b
    lives over it.
    """

    i: LUType
    delta_r: SMap
    pb: Pullback = field(compare=False)
    b: LUType = None


def indexed_extend(i: LUType, delta_r: SMap) -> Pullback:
    """The chosen pullback Delta.I of delta_r: Delta -> V_I along p_I."""
    if delta_r.target != i.universe:
        raise ModelError("indexed_extend: map must land in the base universe")
    return pullback(delta_r, i.p)


def _family_check(fam: IndexedFamily) -> None:
    if fam.b is None or fam.b.ctx.sset != fam.pb.sset:
        raise ModelError("the family must live over the chosen extension Delta.I")


def dep_prod(fam: IndexedFamily) -> LUType:
    """Product over the base type I of the indexed family B."""
    _family_check(fam)
    b = fam.b
    depth = max(fam.i.depth, b.depth)
    h = _pi_data(_shared_universe(fam.i.p, b.universe, depth), b, depth)
    r = _transpose_r(h, fam.delta_r, b.r, fam.pb)
    aux = dict(h, fam=fam, a=fam.i, b=b, variant="plain")
    return LUType(LUContext(fam.delta_r.source), r, h["e_pi"].struct, b.spec, depth, aux)


def dep_prod_lam(s: LUType, bt: LUTerm) -> LUTerm:
    """lambda i. b from a section of p_B over Delta.I."""
    return _pi_abstract(s, bt, s.aux["fam"].pb)


def dep_prod_app(s: LUType, f: LUTerm, j_sec: SMap) -> LUTerm:
    """f j for a base section j_sec: Delta -> E_I over delta_r."""
    fam: IndexedFamily = s.aux["fam"]
    if compose(fam.i.p, j_sec) != fam.delta_r:
        raise ModelError("dep_prod_app: j is not a section over the base classifier")
    section = _pi_apply(s, f.section, s.r, j_sec)
    sj = fam.pb.pair(identity(s.ctx.sset), j_sec)
    return LUTerm(subst(fam.b, sj), section)


def dep_prod_app_var(s: LUType, f: LUTerm) -> LUTerm:
    """f applied to the generic base variable: a term of B over Delta.I."""
    fam: IndexedFamily = s.aux["fam"]
    proj = fam.pb.to_left
    return LUTerm(fam.b, _pi_apply(s, compose(f.section, proj), compose(s.r, proj), fam.pb.to_right))


def dep_coprod(
    fam: IndexedFamily,
    family: GeneratorFamily,
    budget: int,
    probes: Sequence[SMap] = (),
    tests: Sequence[SMap] = (),
    variant: str = "stable",
) -> LUType:
    """Coproduct over the base type I: factor the composite over the universe.

    The universe is shared with the product; the total object is the
    budgeted fibration factorization of Z -> V_u.  The unstable variant
    core-restricts the universe along its core inclusion.
    """
    _family_check(fam)
    b = fam.b
    depth = max(fam.i.depth, b.depth)
    h = _pi_data(_shared_universe(fam.i.p, b.universe, depth), b, depth)
    composite = compose(h["p_u"], h["q"])
    if probes:
        rep = quasifibration_check(composite, family, list(probes), list(tests), budget)
        if not rep.ok:
            raise ModelError(
                f"dep_coprod: composite fails the quasifibration probes: {rep.probe_results}"
            )
    fac = factor_soa(composite, family, budget)
    r = _transpose_r(h, fam.delta_r, b.r, fam.pb)
    if variant == "stable":
        aux = dict(h, fam=fam, fac=fac, a=fam.i, b=b, variant="stable")
        return LUType(LUContext(fam.delta_r.source), r, fac.right, b.spec, depth, aux)
    if variant != "unstable":
        raise ModelError(f"unknown coproduct variant {variant!r}")
    core = core_G(h["v_u"].sset, level=min(depth, 3))
    eps = core.inclusion
    r_core = factor_through(r, eps)
    if r_core is None:
        raise ModelError("dep_coprod unstable: r does not factor through the core")
    pb_c = pullback(eps, fac.right)
    aux = dict(h, fam=fam, fac=fac, a=fam.i, b=b, variant="unstable", eps=eps, pb_c=pb_c)
    return LUType(LUContext(fam.delta_r.source), r_core, pb_c.to_left, b.spec, depth, aux)


def _coprod_z_section(s: LUType, j_sec: SMap, b_sec: SMap, r_plain: SMap) -> SMap:
    """Delta -> Z from a base section and a section of B[j]."""
    h = s.aux
    u = h["pb_u"].pair(r_plain, j_sec)  # Delta -> E_u
    v = h["prod_ee"].pair(j_sec, b_sec)  # Delta -> E_I x E_B
    return h["z"].pair(u, v)


def dep_coprod_intro(s: LUType, j_sec: SMap, bt: LUTerm) -> LUTerm:
    """(j, b): the cell-attachment leg applied to the Z-point of (j, b)."""
    fam: IndexedFamily = s.aux["fam"]
    fac: CellFactorization = s.aux["fac"]
    if compose(fam.i.p, j_sec) != fam.delta_r:
        raise ModelError("dep_coprod_intro: j is not a section over the base classifier")
    r_plain = s.r if s.aux["variant"] == "stable" else compose(s.aux["eps"], s.r)
    section = compose(fac.left, _coprod_z_section(s, j_sec, bt.section, r_plain))
    if s.aux["variant"] == "unstable":
        section = s.aux["pb_c"].pair(s.r, section)
    return LUTerm(s, section)


def dep_coprod_elim(s: LUType, d_type: LUType, d_sec: SMap, c: LUTerm) -> LUTerm:
    """The eliminator: extend d along the cell-attachment leg, over D.

    ``d_type`` lives over the chosen extension Delta.(coprod); ``d_sec`` is
    a section Delta.I.B -> E_D of p_D over r_D restricted along the intro
    map.  The extension is a deterministic lift against p_D, so the beta
    equation holds strictly by construction.
    """
    if s.aux["variant"] != "stable":
        raise UnsupportedConstruction("the eliminator is provided for stable coproducts")
    fam: IndexedFamily = s.aux["fam"]
    h = s.aux
    fac: CellFactorization = s.aux["fac"]
    ext = ctx_extend(LUContext(s.ctx.sset), s)
    if d_type.ctx.sset != ext.ctx.sset:
        raise ModelError("dep_coprod_elim: D is not over the coproduct extension")
    ext_b = pullback(fam.b.r, fam.b.p)  # Delta.I.B, the context of d
    if d_sec.source != ext_b.sset or d_sec.target != d_type.total:
        raise ModelError("dep_coprod_elim: d must be a map Delta.I.B -> E_D")
    # X = Delta x_{V_u} Z, the Z-side of the extension; iota: X -> Delta.I.B
    x = pullback(s.r, compose(h["p_u"], h["q"]))
    e_i = compose(h["prod_ee"].proj1, compose(h["z"].to_right, x.to_right))
    e_b = compose(h["prod_ee"].proj2, compose(h["z"].to_right, x.to_right))
    into_i = fam.pb.pair(x.to_left, e_i)  # X -> Delta.I
    iota = ext_b.pair(into_i, e_b)  # X -> Delta.I.B
    t_ext = ext.pb.pair(x.to_left, compose(fac.left, x.to_right))  # X -> Delta.coprod
    prob = LiftingProblem(
        left=t_ext,
        right=d_type.p,
        top=compose(d_sec, iota),
        bottom=d_type.r,
    )
    lift = solve_lift(prob)
    if lift is None:
        raise ModelError("dep_coprod_elim: no extension of d over the coproduct fibers")
    point = ext.pb.pair(identity(s.ctx.sset), c.section)
    return LUTerm(subst(d_type, point), compose(lift, point))


# -- extension types --------------------------------------------------------------


def over_cylinder(
    gamma: LUContext, v: FinSSet, r: SMap, p: SMap, spec: FibClassSpec, depth: int = 2
) -> LUType:
    """A type over gamma x V, remembering the chosen product."""
    prod = product(gamma.sset, v)
    if r.source != prod.sset:
        raise ModelError("over_cylinder: r must start at the chosen product")
    return LUType(LUContext(prod.sset), r, p, spec, depth, dict(prod_gv=prod))


def extension_type(gamma: LUContext, a: LUType, j: SMap, partial: SMap, depth: int) -> LUType:
    """<Pi_{y:V} A | x.a>: the object of lifts of the partial section.

    ``a`` must be built with :func:`over_cylinder` on gamma x V;
    ``partial``: gamma x U -> E_A is the prescribed section over
    r . (id x j).  The universe is the gap object of exponentials of the
    input universe, so it is independent of gamma.
    """
    prod_gv = a.aux.get("prod_gv")
    if prod_gv is None:
        raise ModelError("extension_type: a must be built over gamma x V (use over_cylinder)")
    u = j.source
    prod_gu = product(gamma.sset, u)
    incl = prod_gv.pair(prod_gu.proj1, compose(j, prod_gu.proj2))
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
    r_v = vav.curry(a.r, prod_gv)
    a_u = eau.curry(partial, prod_gu)
    r_pi = w.pair(r_v, a_u)
    aux = dict(a=a, j=j, partial=partial, ev=ev_, vav=vav, vau=vau, eau=eau,
               w=w, prod_gv=prod_gv, prod_gu=prod_gu, depth_exp=depth)
    return LUType(gamma, r_pi, p_pi, a.spec, a.depth, aux)


def extension_lam(ext: LUType, total_section: SMap) -> LUTerm:
    """lambda y. a from a full section gamma x V -> E_A over r."""
    a: LUType = ext.aux["a"]
    if compose(a.p, total_section) != a.r:
        raise ModelError("extension_lam: not a section over r")
    return LUTerm(ext, ext.aux["ev"].curry(total_section, ext.aux["prod_gv"]))


def extension_app(ext: LUType, f: LUTerm, v_pt: SMap) -> SMap:
    """app(f, v): evaluate at a map v: gamma -> V; a section over r . <id, v>."""
    prod_gv = ext.aux["prod_gv"]
    full = ext.aux["ev"].uncurry(f.section, prod_gv)
    at = prod_gv.pair(identity(ext.ctx.sset), v_pt)
    return compose(full, at)


# -- pushout cell objects ----------------------------------------------------------


@dataclass(frozen=True)
class PushoutCells:
    """The double mapping cylinder of a span with its budgeted factorization."""

    object: FinSSet
    inl: SMap  # B -> object
    inr: SMap  # C -> object
    glue: SMap  # A x interval -> object
    to_base: SMap  # object -> Gamma
    cyl: object = field(compare=False, default=None)
    fac: CellFactorization = field(compare=False, default=None)


def pushout_cells(
    f: SMap,
    g: SMap,
    to_base_b: SMap,
    to_base_c: SMap,
    family: GeneratorFamily,
    budget: int,
) -> PushoutCells:
    """B U_A C presented as A x I glued onto B and C, factored over the base."""
    if f.source != g.source:
        raise ModelError("pushout_cells: span legs must share a domain")
    if compose(to_base_b, f) != compose(to_base_c, g):
        raise ModelError("pushout_cells: base maps disagree on the span")
    a = f.source
    interval = std_simplex(1)
    cyl = product(a, interval)
    i0 = cyl.pair(identity(a), constant_map(a, interval, "0"))
    i1 = cyl.pair(identity(a), constant_map(a, interval, "1"))
    aa = coproduct(a, a)
    m1 = aa.induce(i0, i1)
    d = coproduct(f.target, g.target)
    m2 = aa.induce(compose(d.inl, f), compose(d.inr, g))
    po = pushout(m1, m2)
    glue = po.inl
    inl = compose(po.inr, d.inl)
    inr = compose(po.inr, d.inr)
    to_cyl_base = compose(compose(to_base_b, f), cyl.proj1)
    to_base = po.induce(to_cyl_base, d.induce(to_base_b, to_base_c))
    try:
        fac = factor_soa(to_base, family, budget)
    except BudgetExhausted as exc:
        # fibrant replacement over the base can be an infinite cell complex;
        # keep the partial factorization so callers see how far it got
        fac = exc.partial
    return PushoutCells(po.sset, inl, inr, glue, to_base, cyl, fac)
