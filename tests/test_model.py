"""Semantic layer: contexts, types-as-spans, formers, and the axiom audit."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ssetkit.acceptance import split_substitution_suite
from ssetkit.corpus import discrete, random_map, random_ssets
from ssetkit.kernel import (
    compose,
    constant_map,
    enumerate_maps,
    identity,
    product,
    std_simplex,
    terminal,
    terminal_map,
)
from ssetkit.model import (
    Binder,
    FibClassSpec,
    Former,
    LUTerm,
    LUType,
    ModelError,
    SemifibCorpus,
    audit_semifib,
    constant_type,
    ctx_extend,
    dep_coprod,
    enumerate_terms,
    factor_through,
    hom_type,
    id_type,
    pi_type,
    sigma_pair,
    sigma_proj1,
    sigma_proj2,
    sigma_type,
    subst,
    subst_term,
    unit_term,
    unit_type,
    weaken,
)

SPEC = FibClassSpec("kan", 2)


# -- strict structure ----------------------------------------------------------


def test_type_equality_ignores_aux():
    a = constant_type(terminal(), discrete(2), SPEC)
    b = LUType(a.r, a.p, SPEC, former=Former())
    assert a.former is None and a == b


def test_type_rejects_misaligned_span():
    with pytest.raises(ModelError, match="share the universe"):
        LUType(identity(std_simplex(1)), terminal_map(discrete(2)), SPEC)


def test_term_must_live_over_classifier():
    gamma = std_simplex(1)
    a = constant_type(gamma, discrete(2), SPEC)
    good = LUTerm(a, constant_map(gamma, discrete(2), "p0"))
    assert compose(a.p, good.section) == a.r
    with pytest.raises(ModelError):
        LUTerm(a, constant_map(terminal(), discrete(2), "p0"))


def test_subst_is_strictly_functorial():
    gamma = std_simplex(1)
    delta = terminal()
    a = constant_type(gamma, discrete(2), SPEC)
    sigma = constant_map(delta, gamma, "0")
    assert subst(a, identity(gamma)) == a
    assert subst(subst(a, sigma), identity(delta)) == subst(a, sigma)
    tau = terminal_map(std_simplex(2))
    assert subst(subst(a, sigma), tau) == subst(a, compose(sigma, tau))


def test_unit_type_is_the_constant_type_with_the_point_as_fiber():
    for gamma in (terminal(), std_simplex(1), std_simplex(2)):
        u = unit_type(gamma, SPEC)
        assert constant_type(gamma, terminal(), SPEC) == u
        assert u.ctx == gamma and u.p == identity(terminal())


@pytest.mark.parametrize("fiber", [terminal(), discrete(2), std_simplex(1)], ids=["point", "two", "interval"])
def test_constant_type_is_stable_under_substitution(fiber):
    """On split_substitution_suite's contexts Γ = Δ^1 and Δ = Δ^0, along its
    vertex substitution σ: Δ -> Γ and τ: Δ^2 -> Γ."""
    gamma, delta = std_simplex(1), terminal()
    for sigma in (constant_map(delta, gamma, "0"), constant_map(std_simplex(2), gamma, "1")):
        assert subst(constant_type(gamma, fiber, SPEC), sigma) == constant_type(sigma.source, fiber, SPEC)


def test_extension_projection_and_variable():
    gamma = std_simplex(1)
    a = constant_type(gamma, discrete(2), SPEC)
    ext = ctx_extend(a)
    assert ext.proj.source == ext.ctx
    assert ext.proj.target == gamma
    # the generic variable is a section of the weakened type
    weak = ext.var.type
    assert weak.ctx == ext.ctx
    assert weak.r == compose(a.r, ext.proj)
    assert compose(weak.p, ext.var.section) == weak.r


# -- factoring through a monomorphism ---------------------------------------------


def _unique_factorization(f, eps):
    """The one g with eps . g == f, searched over every map, or None."""
    found = [g for g in enumerate_maps(f.source, eps.source) if compose(eps, g) == f]
    assert len(found) <= 1
    return found[0] if found else None


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_factor_through_matches_the_map_search(seed):
    rng = random.Random(seed)
    a, b, c = random_ssets(3, seed, max_dim=2, max_cells=5)
    cells = [x for level in b.cells for x in level]
    _, incl = b.subcomplex(rng.sample(cells, rng.randint(1, len(cells))))
    for eps in (incl, random_map(rng, c, b)):
        f = random_map(rng, a, b)
        if eps is None or f is None:
            continue
        if reference.is_mono(eps):
            assert factor_through(f, eps) == _unique_factorization(f, eps)
        else:
            with pytest.raises(ModelError):
                factor_through(f, eps)


# -- individual formers ---------------------------------------------------------


def test_unit_has_exactly_one_term():
    gamma = std_simplex(1)
    u = unit_type(gamma, SPEC)
    terms = enumerate_terms(u)
    assert len(terms) == 1
    assert terms[0] == unit_term(u)


def test_sigma_projections_invert_pairing():
    gamma = terminal()
    a = constant_type(gamma, discrete(2), SPEC)
    ext = ctx_extend(a)
    b = constant_type(ext.ctx, discrete(2), SPEC)
    s = sigma_type(Binder(a, ext.pb, b))
    at = LUTerm(a, constant_map(gamma, discrete(2), "p0"))
    sa = ext.pb.pair(identity(gamma), at.section)
    bt = LUTerm(subst(b, sa), constant_map(gamma, discrete(2), "p1"))
    pair = sigma_pair(s, at, bt)
    assert sigma_proj1(s, pair) == at
    assert sigma_proj2(s, pair).section == bt.section
    assert sigma_pair(s, sigma_proj1(s, pair), sigma_proj2(s, pair)) == pair


# -- one depth: a type's depth is its class's depth ---------------------------


def test_binder_refuses_mixed_depths():
    gamma = terminal()
    a = constant_type(gamma, discrete(2), SPEC)
    ext = ctx_extend(a)
    deeper = constant_type(ext.ctx, discrete(2), FibClassSpec("kan", 3))
    with pytest.raises(ModelError, match="depth"):
        Binder(a, ext.pb, deeper)


def test_hom_refuses_a_base_class_of_another_depth():
    gamma = terminal()
    a = constant_type(gamma, discrete(2), SPEC)
    ext = ctx_extend(a)
    pi = pi_type(Binder(a, ext.pb, subst(a, ext.proj)))
    assert hom_type(pi, FibClassSpec("inner", 2)).spec.depth == 2
    with pytest.raises(ModelError, match="depth"):
        hom_type(pi, FibClassSpec("inner", 3))


@pytest.mark.parametrize(
    "spec, fiber",
    [(FibClassSpec("cat", 2), std_simplex(1)), (FibClassSpec("inner", 2), std_simplex(1)), (SPEC, discrete(2))],
    ids=["cat", "inner", "kan"],
)
def test_id_and_coproduct_factor_in_their_type_class(spec, fiber):
    """Both factor against the class of the type they return, so its spec
    certifies their fibration: an Id over a fiber with an edge lifts in its
    own class, not only in the class it was factored in."""
    gamma = terminal()
    a = constant_type(gamma, fiber, spec)
    p0 = LUTerm(a, constant_map(gamma, fiber, fiber.cells[0][0]))
    ext = ctx_extend(a)
    for t in (id_type(a, p0, p0, 300), dep_coprod(Binder(a, ext.pb, subst(a, ext.proj)), 300)):
        assert t.spec == spec
        assert spec.check(t.p)[0]


def test_id_refuses_endpoints_over_another_context():
    """Id's classifier is the pair of its endpoints, so they fix its context."""
    a = constant_type(std_simplex(1), discrete(2), SPEC)
    p0 = LUTerm(constant_type(terminal(), discrete(2), SPEC), constant_map(terminal(), discrete(2), "p0"))
    with pytest.raises(ModelError):
        id_type(a, p0, p0, 300)


def test_audit_refuses_a_depth_other_than_the_class_depth():
    with pytest.raises(ModelError, match="depth"):
        audit_semifib(SPEC, SemifibCorpus(), budget=300, depth=3)


def test_term_substitution_is_precomposition():
    gamma = std_simplex(1)
    delta = terminal()
    sigma = constant_map(delta, gamma, "1")
    a = constant_type(gamma, discrete(2), SPEC)
    t = LUTerm(a, constant_map(gamma, discrete(2), "p1"))
    assert subst_term(t, sigma).section == compose(t.section, sigma)


def test_weaken_is_substitution_along_the_projection():
    gamma = std_simplex(1)
    a = constant_type(gamma, discrete(2), SPEC)
    ext = ctx_extend(a)
    t = LUTerm(a, constant_map(gamma, discrete(2), "p0"))
    w = weaken(t, ext)
    assert w.type.ctx == ext.ctx
    assert w == subst_term(t, ext.proj)
    assert w.section == compose(t.section, ext.proj)


# -- the full substitution/equation suite ----------------------------------------


def test_split_substitution_suite_holds():
    judgments = split_substitution_suite(depth=2, budget=300)
    assert len(judgments) == 33
    failures = [name for name, holds in judgments if not holds]
    for name, holds in judgments:
        print(f"[{'ok' if holds else 'FAIL'}] {name}")
    assert failures == []


# -- semantic-axiom audit ---------------------------------------------------------


def test_audit_passes_on_discrete_corpus():
    pt = terminal()
    pts2 = discrete(2)
    interval = std_simplex(1)
    corpus = SemifibCorpus(
        objects=(pt, pts2, interval),
        maps=(
            identity(pt),
            identity(pts2),
            identity(interval),
            terminal_map(pts2),
            constant_map(pt, pts2, "p0"),
            product(pts2, pts2).proj1,
        ),
    )
    report = audit_semifib(FibClassSpec("kan", 2), corpus, budget=300, depth=2)
    assert report.ok
    assert all(v.status == "pass" for v in report.verdicts)
    assert len(report.verdicts) >= 4
