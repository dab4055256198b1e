"""Cell attachment in place and the resumed scan, against the code they replaced.

``pushout`` builds a pushout along a monomorphism directly, and
``factor_soa`` passes over the tops that an earlier scan already found
solved.  ``reference.pushout`` realizes every pushout through
``kernel/build.Built``, and ``reference.factor_soa`` rescans from the first
generator's first top after each attachment.  Both pairs must agree
exactly: the same cells, faces and legs, and the same attachments.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ssetkit import lifting
from ssetkit.corpus import catfib_corpus, random_map, random_sset, random_ssets
from ssetkit.kernel import (
    FinSSet,
    SSetError,
    Simplex,
    compose,
    constant_map,
    nondeg,
    pushout,
    std_simplex,
    terminal_map,
)
from ssetkit.kernel.homs import search_plan
from ssetkit.lifting import BudgetExhausted, factor_soa, family_by_name, kan_family

seeds = st.integers(min_value=0, max_value=10**6)
FAMILIES = ("kan", "inner", "trivial", "cat")
GENERATORS = list({
    id(gen): gen for name in FAMILIES for depth in (1, 2, 3) for gen in family_by_name(name, depth).generators
}.values())
CATFIB = catfib_corpus()


# -- pushouts ---------------------------------------------------------------------


def _pushout_outcome(build, f, g):
    try:
        po = build(f, g)
    except SSetError as e:
        return "raises", str(e)
    return po


def _same_pushout(f, g, rng):
    new, old = _pushout_outcome(pushout, f, g), _pushout_outcome(reference.pushout, f, g)
    if isinstance(old, tuple):
        assert new == old
        return
    assert new.sset.cells == old.sset.cells
    assert list(new.sset.faces.items()) == list(old.sset.faces.items())
    assert new.sset.dim_bound == old.sset.dim_bound
    assert list(new.inl.assignment.items()) == list(old.inl.assignment.items())
    assert list(new.inr.assignment.items()) == list(old.inr.assignment.items())
    cocones = [(old.inl, old.inr)]
    z = random_sset(rng, max_dim=3, max_cells=6)
    h = random_map(rng, old.sset, z)
    if h is not None:
        cocones.append((compose(h, old.inl), compose(h, old.inr)))
    for u, v in cocones:
        assert list(new.induce(u, v).assignment.items()) == list(old.induce(u, v).assignment.items())


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_pushout_along_every_generator_matches_the_realizer(seed):
    rng = random.Random(seed)
    for gen in GENERATORS:
        top = random_map(rng, gen.source, random_sset(rng, max_dim=3, max_cells=8))
        if top is not None:
            assert gen.preimages() is not None
            _same_pushout(gen, top, rng)


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_pushout_along_a_random_map_matches_the_realizer(seed):
    rng = random.Random(seed)
    a, b, c = random_ssets(3, seed, max_dim=2, max_cells=5)
    f, g = random_map(rng, a, b), random_map(rng, a, c)
    if f is None or g is None:
        return
    assert (f.preimages() is not None) == reference.is_mono(f)
    _same_pushout(f, g, rng)


def test_pushout_along_a_map_that_is_not_mono_takes_the_realizer():
    interval = std_simplex(1)
    f = terminal_map(interval)  # Δ^1 -> Δ^0 sends the edge to a degenerate one
    g = constant_map(interval, interval, "0")
    assert f.preimages() is None
    _same_pushout(f, g, random.Random(0))


# -- the small object argument --------------------------------------------------


def _factor_outcome(factor, f, family, budget):
    try:
        fac, exhausted = factor(f, family, budget), False
    except BudgetExhausted as exc:
        fac, exhausted = exc.partial, True
    except SSetError as e:
        return "raises", str(e)
    return (
        exhausted,
        fac.complete,
        [(a.generator_index, a.attaching) for a in fac.attachments],
        fac.left,
        fac.right,
        fac.middle.cells,
    )


def _same_factorization(f, family, budget):
    new = _factor_outcome(factor_soa, f, family, budget)
    assert new == _factor_outcome(reference.factor_soa, f, family, budget)


@given(seed=seeds, name=st.sampled_from(FAMILIES), depth=st.integers(1, 3), budget=st.integers(0, 15))
@settings(max_examples=60, deadline=None)
def test_factor_matches_the_rescan_on_random_and_terminal_maps(seed, name, depth, budget):
    rng = random.Random(seed)
    x, y = random_ssets(2, seed, max_dim=3, max_cells=6)
    family = family_by_name(name, depth)
    f = random_map(rng, x, y)
    if f is not None:
        _same_factorization(f, family, budget)
    _same_factorization(terminal_map(x), family, budget)


@given(seed=seeds, name=st.sampled_from(FAMILIES), depth=st.integers(1, 3), budget=st.integers(0, 15))
@settings(max_examples=30, deadline=None)
def test_factor_matches_the_rescan_on_catfib_maps(seed, name, depth, budget):
    _same_factorization(random.Random(seed).choice(CATFIB), family_by_name(name, depth), budget)


def _two_loops():
    """A point over a vertex with two loops: the top at that point has two
    bottoms of the first horn without a filler."""
    loop = [nondeg("y"), nondeg("y")]
    y = FinSSet.make([["y"], ["e1", "e2"]], {"e1": loop, "e2": loop})
    return constant_map(std_simplex(0), y, "y")


def _solved_at_or_before(k, top, step):
    """The unsound resume test: it passes over the attached top as well."""
    old = {s.base: c for c, s in step.assignment.items()}
    cells = search_plan(top.source).cells
    before = tuple(top.assignment[c] for c in cells)

    def solved(idx, u):
        images = [u.assignment[c] for c in search_plan(u.source).cells]
        if idx > k or not all(s.base in old for s in images):
            return False
        return idx < k or tuple(Simplex(s.word, old[s.base]) for s in images) <= before

    return solved


def test_the_attached_top_is_scanned_again(monkeypatch):
    f, family = _two_loops(), kan_family(1)
    expected = _factor_outcome(reference.factor_soa, f, family, 3)
    with pytest.raises(BudgetExhausted) as one:
        reference.factor_soa(f, family, 1)
    (k, top), again = expected[2][:2]
    assert again == (k, compose(one.value.partial.left, top))  # attached at twice in a row
    assert _factor_outcome(factor_soa, f, family, 3) == expected
    monkeypatch.setattr(lifting, "_solved_before", _solved_at_or_before)
    assert _factor_outcome(factor_soa, f, family, 3) != expected


# -- the constant map --------------------------------------------------------------


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_constant_map_matches_the_degeneracy_loop(seed):
    rng = random.Random(seed)
    x, y = random_ssets(2, seed, max_dim=3, max_cells=8)
    vertex = rng.choice(y.cells[0])
    new, old = constant_map(x, y, vertex), reference.constant_map(x, y, vertex)
    assert list(new.assignment.items()) == list(old.assignment.items())
    assert new.validate() == []
