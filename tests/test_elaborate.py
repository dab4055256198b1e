"""Semantic interpretation of closed checked programs."""

import inspect

import pytest

from ssetkit import joyal
from ssetkit.corpus import discrete
from ssetkit.kernel import closed, constant_map, identity, terminal, terminal_map
from ssetkit.lifting import cat_family, kan_family
from ssetkit.model import (
    FibClassSpec,
    LUContext,
    LUTerm,
    LUType,
    ModelError,
    UnsupportedConstruction,
    ctx_extend,
    sigma_proj1,
    sigma_proj2,
    subst,
)
from ssetkit.model import formers
from ssetkit.tt import syntax as S
from ssetkit.tt.checker import check_source
from ssetkit.tt.elaborate import Elaborator, ModelEnv, elaborate_term, elaborate_type
from ssetkit.tt.parser import parse_term, parse_type


def make_env(depth: int = 2, **kw) -> ModelEnv:
    spec = FibClassSpec("kan", depth)
    env = ModelEnv(spec, FibClassSpec("inner", depth), kan_family(depth), budget=300, **kw)
    pt = LUContext(terminal())
    k = LUType(pt, terminal_map(terminal()), terminal_map(discrete(2)), spec)
    env.types["K"] = k
    env.terms["k0"] = LUTerm(k, constant_map(terminal(), discrete(2), "p0"))
    env.base_types["J"] = discrete(2)
    env.base_terms["j0"] = constant_map(terminal(), discrete(2), "p0")
    return env


def test_unit_round_trip():
    env = make_env()
    u = elaborate_type(env, S.TUnit())
    u.validate_fibration()
    t = elaborate_term(env, S.One(), S.TUnit())
    assert t.type == u


def test_constant_binding_is_used():
    env = make_env()
    k = elaborate_type(env, parse_type("K"))
    assert k.p == terminal_map(discrete(2))
    t = elaborate_term(env, parse_term("k0"), parse_type("K"))
    assert t.section == constant_map(terminal(), discrete(2), "p0")


def test_sigma_elaborates_and_projects():
    env = make_env()
    s = elaborate_type(env, parse_type("Sigma (x : K) One"))
    s.validate_fibration()
    pair = elaborate_term(env, parse_term("spair(k0, one)"), parse_type("Sigma (x : K) One"))
    first = elaborate_term(env, parse_term("fst(spair(k0, one))"), parse_type("K"))
    assert first.section == constant_map(terminal(), discrete(2), "p0")
    assert pair.type == s


def test_hom_identity_elaborates():
    env = make_env()
    h = elaborate_type(env, parse_type("Hom(K, K)"))
    h.validate_fibration()
    f = elaborate_term(env, parse_term("\\x . x"), parse_type("Hom(K, K)"))
    assert f.type == h


def test_pi_over_base_fiber():
    env = make_env()
    p = elaborate_type(env, parse_type("Pi (i : J) K"))
    p.validate_fibration()
    f = elaborate_term(env, parse_term("\\i . k0"), parse_type("Pi (i : J) K"))
    assert f.type == p


def test_coprod_over_base_fiber():
    env = make_env(stable_coproducts=True)
    c = elaborate_type(env, parse_type("Coprod (i : J) K"))
    c.validate_fibration()


def test_path_type_elaborates():
    env = make_env()
    p = elaborate_type(env, parse_type("Path(K, k0, k0)"))
    p.validate_fibration()


def test_id_type_elaborates():
    env = make_env()
    i = elaborate_type(env, parse_type("Id(K, k0, k0)"))
    i.validate_fibration()


def test_nested_sigma_pair_elaborates():
    """The inner pair is checked against the family reindexed to the outer context."""
    src = (
        "postulate A () | () : Type\n"
        "postulate B () | () : Type\n"
        "postulate a0 () | () : A\n"
        "postulate b0 () | () : B\n"
        "def ns () | () : Sigma (x : A) Sigma (y : B) A := spair(a0, spair(b0, a0))\n"
    )
    env = make_env()
    pt = LUContext(terminal())
    for ty, term in (("A", "a0"), ("B", "b0")):
        env.types[ty] = LUType(pt, terminal_map(terminal()), terminal_map(discrete(2)), env.spec)
        env.terms[term] = LUTerm(env.types[ty], constant_map(terminal(), discrete(2), "p0"))
    pair = Elaborator(env).elab_decl(check_source(src).decls["ns"])
    assert sigma_proj1(pair.type, pair) == env.terms["a0"]
    inner = sigma_proj2(pair.type, pair)
    assert sigma_proj1(inner.type, inner).section == env.terms["b0"].section
    assert sigma_proj2(inner.type, inner).section == env.terms["a0"].section


def test_hom_app_uses_the_innermost_indexed_variable():
    """f () applies f to the innermost indexed variable, whatever its name.

    The checker accepts ``\\y. h ()`` for h : Hom((x : A) . B), since the
    innermost indexed variable y has the telescope's type A.
    """
    src = (
        "postulate A () | () : Type\n"
        "postulate B () | () : Type\n"
        "postulate a0 () | () : A\n"
        "postulate b0 () | () : B\n"
        "def h () : Hom((x : A) . B) := lam(b0)\n"
        "def g1 () : Hom(A, B) := \\x. h ()\n"
        "def g2 () : Hom(A, B) := \\y. h ()\n"
    )
    env = make_env()
    pt = LUContext(terminal())
    for ty, term in (("A", "a0"), ("B", "b0")):
        env.types[ty] = LUType(pt, terminal_map(terminal()), terminal_map(discrete(2)), env.spec)
        env.terms[term] = LUTerm(env.types[ty], constant_map(terminal(), discrete(2), "p0"))
    decls = check_source(src).decls
    el = Elaborator(env)
    env.terms["h"] = el.elab_decl(decls["h"])
    g1 = el.elab_decl(decls["g1"])
    assert el.elab_decl(decls["g2"]).section == g1.section


def test_rebound_indexed_name_becomes_innermost():
    env = make_env()
    el = Elaborator(env)
    ctx = el.closed_ctx()
    for name in ("x", "y", "x"):
        k = subst(env.types["K"], terminal_map(ctx.gamma.sset))
        ctx = el._bind_ind(ctx, ctx_extend(ctx.gamma, k), name)
    assert list(ctx.ind_vars) == ["y", "x"]


# -- one depth -------------------------------------------------------------------


ONE_DEPTH = (
    "postulate K () | () : Type\n"
    "postulate k0 () | () : K\n"
    "def h () : Hom(K, K) := \\y. y\n"
    "def p () | () : Pi (i : I1) K := \\i. k0\n"
    "def s () | () : Sigma (y : K) K := spair(k0, k0)\n"
    "def e () | () : Id(K, k0, k0) := refl(k0)\n"
)


@pytest.mark.parametrize("depth", [2, 3])
def test_every_core_and_pushforward_is_at_the_run_depth(depth, monkeypatch):
    """A Hom, a Pi over I1, a Sigma and an Id definition elaborate with
    every core and every pushforward at the environment's depth."""
    levels, depths = [], []
    core_G = joyal.core_G

    def recording_core(*args, **kw):
        levels.append(inspect.signature(core_G).bind(*args, **kw).arguments["level"])
        return core_G(*args, **kw)

    init = closed.Pushforward.__init__

    def recording_init(self, f, g, depth):
        depths.append(depth)
        init(self, f, g, depth)

    monkeypatch.setattr(joyal, "core_G", recording_core)
    monkeypatch.setattr(formers, "core_G", recording_core)
    monkeypatch.setattr(closed.Pushforward, "__init__", recording_init)
    el = Elaborator(make_env(depth))
    decls = check_source(ONE_DEPTH).decls
    for name in "hpse":
        el.elab_decl(decls[name])
    assert levels and depths
    assert set(levels) == set(depths) == {depth}


def test_model_env_refuses_mixed_depths():
    spec = FibClassSpec("kan", 3)
    with pytest.raises(ModelError, match="depth"):
        ModelEnv(spec, FibClassSpec("inner", 2), kan_family(3))
    with pytest.raises(ModelError, match="depth"):
        ModelEnv(spec, FibClassSpec("inner", 3), kan_family(2))
    assert ModelEnv(spec, FibClassSpec("inner", 3), kan_family(3)).spec.depth == 3


def test_model_env_refuses_a_family_other_than_its_class_family():
    with pytest.raises(ModelError, match="not the kan class's family"):
        ModelEnv(FibClassSpec("kan", 2), FibClassSpec("inner", 2), cat_family(2))


# -- declared-out-of-scope constructions ----------------------------------------


def test_pushout_terms_are_out_of_scope():
    env = make_env()
    with pytest.raises(UnsupportedConstruction):
        elaborate_term(env, parse_term("pinl(k0)"), parse_type("K"))


def test_applied_type_constant_is_out_of_scope():
    env = make_env()
    with pytest.raises(UnsupportedConstruction):
        elaborate_type(env, parse_type("(P j0)"))


def test_interval_has_no_indexed_reading():
    env = make_env()
    with pytest.raises(UnsupportedConstruction):
        elaborate_type(env, S.TInterval())


def test_unbound_constant_reports():
    env = make_env()
    with pytest.raises(UnsupportedConstruction):
        elaborate_type(env, parse_type("Missing"))


# -- whole-declaration interpretation ---------------------------------------------


def test_elab_decl_on_checked_program():
    src = (
        "postulate K () | () : Type\n"
        "postulate k0 () | () : K\n"
        "def u () | () : One := one\n"
    )
    ck = check_source(src)
    env = make_env()
    el = Elaborator(env)
    t = el.elab_decl(ck.decls["u"])
    assert isinstance(t, LUTerm)
    with pytest.raises(UnsupportedConstruction):
        el.elab_decl(ck.decls["K"])
