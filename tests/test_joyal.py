"""Edge invertibility, cores, the free-groupoid interval glueing, and lemmas."""

import random
from pathlib import Path

import pytest

import reference
from ssetkit import joyal
from ssetkit.joyal import (
    b_functor,
    b_map,
    composite_invertibility_check,
    core_G,
    core_of_map,
    factor_g_kan,
    g_fib_check,
    invertible_edge,
    lemma_four_conditions,
)
from ssetkit.kernel import (
    SSetError,
    boundary,
    compose,
    find_isomorphism,
    horn,
    interval_groupoid_skeleton,
    load_smap,
    nerve_j,
    nondeg,
    std_simplex,
    terminal,
    terminal_map,
)
from ssetkit.corpus import catfib_corpus, discrete, gkan_corpus, random_map, random_ssets


# -- single-edge verdicts ------------------------------------------------------


def test_interval_edge_is_not_invertible():
    v = invertible_edge(std_simplex(1), nondeg("0_1"), "skeletal", level=2)
    assert v.is_no


def test_groupoid_edge_is_invertible():
    x = nerve_j(2)
    edge = next(iter(x.nondegenerate(1)))
    v = invertible_edge(x, nondeg(edge), "skeletal", level=2)
    assert v.is_yes
    assert v.witness is not None
    assert v.witness.validate() == []


def test_degenerate_edge_is_invertible():
    x = std_simplex(1)
    v = invertible_edge(x, x.degen(nondeg("0"), 0), "skeletal", level=2)
    assert v.is_yes


def test_qcat_mode_agrees_on_simplex():
    v = invertible_edge(std_simplex(2), nondeg("0_1"), "qcat", level=2)
    assert v.is_no


def test_qcat_core_checks_the_object_once(monkeypatch):
    """One inner-horn scan of x per core, not one per edge; a lone
    invertible_edge still makes its own."""
    x = std_simplex(2)
    calls = []
    scan = joyal.has_rlp
    monkeypatch.setattr(joyal, "has_rlp", lambda f, family: calls.append(f) or scan(f, family))
    joyal._edge_verdicts.cache_clear()
    res = core_G(x, "qcat", level=2)
    assert len(calls) == 1 and calls[0] == terminal_map(x)
    edges = sorted(x.nondegenerate(1))
    assert sorted(res.verdicts) == edges and len(edges) == 3
    for c in edges:
        assert res.verdicts[c] == invertible_edge(x, nondeg(c), "qcat", level=2)
    assert len(calls) == 1 + len(edges)


def test_qcat_core_refuses_an_object_without_inner_fillers():
    joyal._edge_verdicts.cache_clear()
    with pytest.raises(SSetError, match="qcat mode requires inner-horn lifting at depth 3"):
        core_G(horn(2, 1)[0], "qcat", level=2)
    assert core_G(terminal(), "qcat", level=2).verdicts == {}


# -- cores ---------------------------------------------------------------------


def test_core_of_interval_is_its_boundary():
    res = core_G(std_simplex(1), "skeletal", level=2)
    assert find_isomorphism(res.core, boundary(1)[0]) is not None
    assert res.inclusion.is_mono()


def test_core_of_point_is_point():
    res = core_G(terminal(), "skeletal", level=2)
    assert find_isomorphism(res.core, terminal()) is not None


def test_core_of_groupoid_is_everything():
    x = nerve_j(2)
    res = core_G(x, "skeletal", level=2)
    assert set(res.core.nondegenerate()) == set(x.nondegenerate())


def test_core_of_map_restricts():
    p = terminal_map(std_simplex(1))
    gp = core_of_map(p, "skeletal", level=2)
    assert find_isomorphism(gp.source, boundary(1)[0]) is not None
    assert gp.target == terminal()


# -- the edge-inverting completion ----------------------------------------------


@pytest.mark.parametrize("level", [1, 2, 3])
def test_b_of_interval_is_the_skeletal_groupoid_interval(level):
    res = b_functor(std_simplex(1), level)
    sk, _ = interval_groupoid_skeleton(level)
    assert find_isomorphism(res.sset, sk) is not None
    assert res.unit.validate() == []


def test_b_of_discrete_is_identity_shape():
    res = b_functor(discrete(2), 2)
    assert res.edges == ()
    assert res.sset == discrete(2)


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (2, 1), (3, 1)])
def test_b_preserves_horn_inclusion_monos(n, k):
    _, incl = horn(n, k)
    bf = b_map(incl, 2)
    assert bf.validate() == []
    assert bf.is_mono()


def test_b_unit_naturality():
    _, incl = horn(2, 1)
    bf = b_map(incl, 2)
    bx = b_functor(incl.source, 2)
    by = b_functor(incl.target, 2)
    assert compose(bf, bx.unit) == compose(by.unit, incl)


def _b_map_maps():
    """Corpus maps, horn and boundary inclusions, the g-Kan corpus, catfib
    maps and 150 random maps between small random objects."""
    maps = [load_smap(p) for p in sorted((Path(__file__).parents[1] / "corpus" / "maps").glob("*.smap"))]
    maps += [horn(n, k)[1] for n in range(1, 4) for k in range(n + 1)]
    maps += [boundary(n)[1] for n in range(1, 4)]
    maps += gkan_corpus() + catfib_corpus(30)
    rng = random.Random(5)
    objects = random_ssets(40, 11, max_dim=2, max_cells=5)
    drawn = []
    while len(drawn) < 150:
        f = random_map(rng, rng.choice(objects), rng.choice(objects))
        if f is not None:
            drawn.append(f)
    return maps + drawn


def _b_map_outcome(b_map, f, level):
    try:
        return b_map(f, level)
    except SSetError as exc:  # a truncated leg: the oracle must raise alike
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_b_map_matches_the_pushout_replay(level):
    """Maps out of b(X) agree with the old b(X), which replayed its pushouts."""
    for f in _b_map_maps():
        assert _b_map_outcome(b_map, f, level) == _b_map_outcome(reference.b_map, f, level)


# -- equivalent invertibility conditions -----------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [(nerve_j(2), True), (std_simplex(1), False), (terminal(), True)],
    ids=["groupoid", "interval", "point"],
)
def test_lemma_conditions_agree(x, expected):
    rep = lemma_four_conditions(x, 2)
    assert rep.agree
    assert rep.unknown_edges == ()
    assert rep.rlp_interval_edge is expected


# -- factorization and fibration checks ------------------------------------------


def test_factor_g_kan_on_groupoid_collapse():
    rep = factor_g_kan(terminal_map(nerve_j(2)), level=2, budget=500)
    assert rep.factorization.complete
    assert rep.factorization.left.is_mono()
    assert rep.right_is_kan
    assert rep.middle_all_invertible
    assert rep.ok


def test_g_fib_check_on_inner_collapse():
    rep = g_fib_check(terminal_map(std_simplex(1)), 2)
    assert rep.kan_ok
    assert rep.counterexample is None


def test_g_fib_check_refuses_a_non_categorical_fibration():
    with pytest.raises(SSetError, match="not a categorical-type fibration"):
        g_fib_check(terminal_map(horn(2, 1)[0]), 2)


def test_composite_invertibility_on_simplex():
    rep = composite_invertibility_check(std_simplex(2), 2)
    assert rep.ok
    assert rep.failures == ()


def test_composite_invertibility_on_groupoid():
    rep = composite_invertibility_check(nerve_j(2), 2)
    assert rep.ok
    assert rep.unknowns == ()
