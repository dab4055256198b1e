"""Eliminators commute with substitution: a former's record is reindexed by subst.

For each former T with a term t and a substitution sigma,
``elim(subst(T, sigma), subst_term(t, sigma)) == subst_term(elim(T, t), sigma)``.
"""

import pytest

from ssetkit.corpus import discrete
from ssetkit.kernel import boundary, constant_map, pullback, std_simplex, terminal, terminal_map
from ssetkit.model import (
    Binder,
    FibClassSpec,
    LUTerm,
    LUType,
    ModelError,
    constant_type,
    ctx_extend,
    dep_coprod,
    dep_coprod_elim,
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
    pi_app_var,
    pi_lam,
    pi_type,
    q_map,
    sigma_pair,
    sigma_proj1,
    sigma_proj2,
    sigma_type,
    subst,
    subst_term,
)

SPEC = FibClassSpec("kan", 2)
BASE_SPEC = FibClassSpec("inner", 2)
GAMMA = std_simplex(1)
SIGMA = constant_map(terminal(), GAMMA, "0")


def point(ty: LUType, name: str) -> LUTerm:
    return LUTerm(ty, constant_map(ty.ctx, discrete(2), name))


def family(a: LUType) -> Binder:
    """The constant two-point family over the chosen extension by a."""
    pb = ctx_extend(a).pb
    return Binder(a, pb, constant_type(pb.sset, discrete(2), SPEC))


K = constant_type(GAMMA, discrete(2), SPEC)
P0 = point(K, "p0")


def _sigma():
    bd = family(K)
    s = sigma_type(bd)
    return s, sigma_pair(s, P0, point(bd.at(P0.section), "p1"))


def _pi():
    bd = family(K)
    pi = pi_type(bd)
    return pi, pi_lam(pi, point(bd.b, "p0"))


def _hom():
    pi, f = _pi()
    hom = hom_type(pi, BASE_SPEC)
    return hom, hom_lam(hom, f)


def _coprod(variant):
    c = dep_coprod(family(constant_type(GAMMA, discrete(2), BASE_SPEC)), 300, variant=variant)
    return c, _coprod_intro(c, None)


def _coprod_intro(c, t, j="p0"):
    """(j, b) into the coproduct, with j and b the vertex named j of the base and the fiber."""
    j_sec = constant_map(c.ctx, discrete(2), j)
    return dep_coprod_intro(c, j_sec, point(c.former.binder.at(j_sec), j))


def _coprod_elim(c, t):
    d_type = constant_type(ctx_extend(c).ctx, discrete(2), SPEC)
    b = c.former.binder.b
    d_sec = constant_map(pullback(b.r, b.p).sset, discrete(2), "p1")
    return dep_coprod_elim(c, d_type, d_sec, t)


def _path():
    bd = family(constant_type(GAMMA, std_simplex(1), BASE_SPEC))
    u, j = boundary(1)
    partial = constant_map(pullback(terminal_map(GAMMA), terminal_map(u)).sset, discrete(2), "p0")
    e = extension_type(bd, j, partial)
    return e, extension_lam(e, constant_map(bd.pb.sset, discrete(2), "p0"))


CASES = {
    "sigma-proj1": (_sigma, sigma_proj1),
    "sigma-proj2": (_sigma, sigma_proj2),
    "pi-app": (_pi, lambda s, f: pi_app(s, f, LUTerm(s.former.binder.a, constant_map(s.ctx, discrete(2), "p1")))),
    "hom-app": (_hom, hom_app),
    "id-refl": (
        lambda: (id_type(K, P0, P0, 300), P0),
        lambda idt, t: id_refl(idt, LUTerm(idt.former.a, t.section)),
    ),
    "coprod-intro": (lambda: _coprod("stable"), _coprod_intro),
    "unstable-coprod-intro": (lambda: _coprod("unstable"), lambda c, t: _coprod_intro(c, t, "p1")),
    "coprod-elim": (lambda: _coprod("stable"), _coprod_elim),
    "extension-app": (_path, lambda e, f: extension_app(e, f, constant_map(e.ctx, std_simplex(1), "1"))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_eliminator_commutes_with_substitution(name):
    build, elim = CASES[name]
    ty, t = build()
    assert elim(subst(ty, SIGMA), subst_term(t, SIGMA)) == subst_term(elim(ty, t), SIGMA)


def test_pi_app_var_commutes_with_q():
    pi, f = _pi()
    pi_d = subst(pi, SIGMA)
    q = q_map(SIGMA, pi.former.binder.pb, ctx_extend(subst(K, SIGMA)).pb)
    assert pi_app_var(pi_d, subst_term(f, SIGMA)) == subst_term(pi_app_var(pi, f), q)


def test_pi_lam_rejects_a_body_over_another_context():
    pi, _ = _pi()
    body_over_gamma = point(pi.former.binder.b, "p0")
    with pytest.raises(ModelError):
        pi_lam(subst(pi, SIGMA), body_over_gamma)
