"""The Joyal layer by stored faces, against the vertex restrictions it replaced.

``core_G`` builds the core from stored faces (an edge by its verdict, any
other cell by its faces' bases), ``_qcat_verdict`` and
``composite_invertibility_check`` read a 2-cell's faces, ``factor_g_kan``
reads the table of edge verdicts, ``yoneda`` is the one classifying map
(``edge_classifier`` and the cell loop of ``simplex_space_map`` are gone),
and ``corpus._edges_between`` is one face lookup.  ``reference`` keeps the
code they replaced; both must give the same results, in the same order,
and raise the same ``SSetError`` messages (``corpus/ssets`` holds truncated
objects, and random objects are also marked truncated at every bound from
their dimension to 3).
"""

import random
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ssetkit import corpus, joyal
from ssetkit.corpus import gkan_corpus, lemma_corpus, qcat_corpus, random_map, random_ssets
from ssetkit.kernel import FinSSet, SSetError, load_smap, load_sset, nondeg, simplex_space_map, yoneda
from ssetkit.lifting import BudgetExhausted

seeds = st.integers(min_value=0, max_value=10**6)
ROOT = Path(__file__).resolve().parents[1]
SSETS = [load_sset(p) for p in sorted((ROOT / "corpus" / "ssets").glob("*.sset"))]
MAPS = [load_smap(p) for p in sorted((ROOT / "corpus" / "maps").glob("*.smap"))]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SSetError as exc:
        return type(exc).__name__, str(exc)


def _gkan_outcome(factor_g_kan, f, level: int, budget: int):
    try:
        return factor_g_kan(f, level, budget)
    except BudgetExhausted as exc:  # the partial factorizations must agree too
        return str(exc), exc.partial
    except SSetError as exc:
        return type(exc).__name__, str(exc)


def _same_core(x: FinSSet, mode: str, level: int) -> None:
    new = _outcome(joyal.core_G, x, mode, level=level)
    old = _outcome(reference.core_G, x, mode, level=level)
    if isinstance(old, tuple):
        assert new == old
        return
    assert new.core.cells == old.core.cells
    assert list(new.core.faces.items()) == list(old.core.faces.items())
    assert new.core.dim_bound == old.core.dim_bound
    assert list(new.inclusion.assignment.items()) == list(old.inclusion.assignment.items())
    assert new.inclusion.target is x and old.inclusion.target is x
    assert new.verdicts == old.verdicts
    assert new == old


def _same_composite(x: FinSSet, level: int) -> None:
    assert _outcome(joyal.composite_invertibility_check, x, level) == _outcome(
        reference.composite_invertibility_check, x, level
    )


def _truncations(x: FinSSet) -> list[FinSSet]:
    """x marked truncated at each bound from its dimension to 3."""
    return [FinSSet(x.cells, x.faces, bound) for bound in range(max(x.dim, 0), 4)]


# -- cores, qcat verdicts and the composite check ------------------------------------


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("mode", ["skeletal", "qcat"])
def test_core_of_the_corpora_matches_the_vertex_restrictions(mode, level):
    for x in lemma_corpus(120) + qcat_corpus() + SSETS:
        _same_core(x, mode, level)


@given(seed=seeds, level=st.integers(1, 3), mode=st.sampled_from(["skeletal", "qcat"]))
@settings(max_examples=60, deadline=None)
def test_core_of_random_and_truncated_objects_matches_the_vertex_restrictions(seed, level, mode):
    for x in random_ssets(3, seed, max_dim=3, max_cells=7):
        for y in [x] + _truncations(x):
            _same_core(y, mode, level)


def test_qcat_verdicts_read_faces_as_the_restrictions_did():
    objects = qcat_corpus() + SSETS + lemma_corpus(60) + random_ssets(40, 3, max_dim=3, max_cells=7)
    for x in objects:
        for c in x.nondegenerate(1):
            assert joyal._qcat_verdict(x, nondeg(c)) == reference._qcat_verdict(x, nondeg(c))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_composite_check_of_the_corpora_matches_the_vertex_restrictions(level):
    for x in lemma_corpus(120) + qcat_corpus() + SSETS:
        _same_composite(x, level)


@given(seed=seeds, level=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_composite_check_of_random_and_truncated_objects_matches(seed, level):
    for x in random_ssets(3, seed, max_dim=3, max_cells=7):
        for y in [x] + _truncations(x):
            _same_composite(y, level)


# -- the g-Kan factorization ------------------------------------------------------


@pytest.mark.parametrize("level", [1, 2, 3])
def test_factor_g_kan_matches_the_lemma_based_check(level):
    for f in gkan_corpus(20) + MAPS:
        assert _gkan_outcome(joyal.factor_g_kan, f, level, 500) == _gkan_outcome(reference.factor_g_kan, f, level, 500)


@given(seed=seeds, level=st.integers(1, 3), budget=st.integers(0, 40))
@settings(max_examples=30, deadline=None)
def test_factor_g_kan_on_random_maps_matches_the_lemma_based_check(seed, level, budget):
    rng = random.Random(seed)
    x, y = random_ssets(2, seed, max_dim=2, max_cells=5)
    f = random_map(rng, x, y)
    if f is not None:
        new = _gkan_outcome(joyal.factor_g_kan, f, level, budget)
        assert new == _gkan_outcome(reference.factor_g_kan, f, level, budget)


# -- yoneda, the one classifying map ------------------------------------------------


def _same_map(new, old) -> None:
    assert new.source == old.source and new.target == old.target
    assert list(new.assignment.items()) == list(old.assignment.items())


def test_yoneda_of_every_edge_is_the_old_edge_classifier():
    for x in SSETS + qcat_corpus() + lemma_corpus(60) + random_ssets(40, 9, max_dim=3, max_cells=7):
        for e in x.simplices(1):
            _same_map(yoneda(x, e), reference.edge_classifier(x, e))


def test_simplex_space_map_is_yoneda_of_the_simplex_it_names():
    for m in range(5):
        for n in range(5):
            for vmap in combinations_with_replacement(range(n + 1), m + 1):
                _same_map(simplex_space_map(m, n, vmap), reference.simplex_space_map(m, n, vmap))


# -- the random corpus's edge lookups -------------------------------------------------


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_edges_between_is_one_face_lookup(seed):
    for x in random_ssets(3, seed, max_dim=3, max_cells=8):
        for u in x.nondegenerate(0):
            for w in x.nondegenerate(0):
                assert corpus._edges_between(x, u, w) == reference._edges_between(x, u, w)
