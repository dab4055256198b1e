"""One pushout for every span, and the resumed scan, against the code they replaced.

``pushout`` glues every span, along a monomorphism or not, from its legs'
cells, and ``factor_soa`` passes over the tops that an earlier scan
already found solved.  ``reference.pushout`` realizes every pushout
through ``reference.Built``, and ``reference.factor_soa`` rescans from
the first generator's first top after each attachment.  Both pairs must
agree exactly: the same cells, faces and legs, the same ``Truncated``
messages, and the same attachments.  ``b_functor`` and ``leibniz``, whose
spans need not be monomorphisms, must give what they give with
``reference.pushout`` in place of ``pushout``.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ssetkit import joyal, lifting
from ssetkit.corpus import catfib_corpus, random_map, random_sset, random_ssets
from ssetkit.kernel import (
    FinSSet,
    SMap,
    SSetError,
    Simplex,
    Truncated,
    compose,
    constant_map,
    coproduct,
    initial_map,
    load_smap,
    nerve_j,
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
MAPS = sorted((Path(__file__).resolve().parents[1] / "corpus" / "maps").glob("*.smap"))


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


def test_pushout_along_a_map_that_is_not_mono_matches_the_realizer():
    interval = std_simplex(1)
    f = terminal_map(interval)  # Δ^1 -> Δ^0 sends the edge to a degenerate one
    g = constant_map(interval, interval, "0")
    assert f.preimages() is None
    _same_pushout(f, g, random.Random(0))


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_pushout_in_both_leg_orders_matches_the_realizer(seed):
    rng = random.Random(seed)
    a, b, c = random_ssets(3, seed, max_dim=3, max_cells=6)
    f, g = random_map(rng, a, b), random_map(rng, a, c)
    if f is not None and g is not None:
        _same_pushout(f, g, rng)
        _same_pushout(g, f, rng)


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_pushout_where_both_legs_collapse_matches_the_realizer(seed):
    """Both legs send every cell of A above level 0 to a degenerate simplex,
    so every class above level 0 that meets f(A) is degenerate."""
    rng = random.Random(seed)
    a, b, c = random_ssets(3, seed, max_dim=3, max_cells=6)
    f = constant_map(a, b, rng.choice(b.cells[0]))
    g = constant_map(a, c, rng.choice(c.cells[0]))
    assert a.dim < 1 or f.preimages() is None
    _same_pushout(f, g, rng)
    _same_pushout(g, f, rng)


@given(seed=seeds, which=st.integers(0, 2), bound=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_pushout_of_truncated_legs_matches_the_realizer(seed, which, bound):
    """A truncated A, B or C bounds the pushout, and a bound below B or C
    raises the realizer's ``Truncated``."""
    rng = random.Random(seed)
    a, b, c = random_ssets(3, seed, max_dim=3, max_cells=6)
    f, g = random_map(rng, a, b), random_map(rng, a, c)
    if f is None or g is None:
        return
    objs = [a, b, c]
    objs[which] = FinSSet(objs[which].cells, objs[which].faces, bound)
    a, b, c = objs
    f, g = SMap(a, b, f.assignment), SMap(a, c, g.assignment)
    _same_pushout(f, g, rng)
    _same_pushout(g, f, rng)


def test_b_functor_on_a_loop_edge_matches_the_realizer(monkeypatch):
    """The classifier of a loop edge sends both ends of Δ^1 to one vertex,
    so it is not mono."""
    v, w = nondeg("v"), nondeg("w")
    x = FinSSet.make([["v", "w"], ["loop", "e"]], {"loop": [v, v], "e": [w, v]})
    levels = (1, 2, 3)
    new = [joyal.b_functor(x, level) for level in levels]
    monkeypatch.setattr(joyal, "pushout", reference.pushout)
    for level, bx in zip(levels, new):
        old = joyal.b_functor(x, level)
        assert bx.sset.cells == old.sset.cells
        assert list(bx.sset.faces.items()) == list(old.sset.faces.items())
        assert bx.sset.dim_bound == old.sset.dim_bound
        assert list(bx.unit.assignment.items()) == list(old.unit.assignment.items())
        assert {e: list(m.assignment.items()) for e, m in bx.copies.items()} == {
            e: list(m.assignment.items()) for e, m in old.copies.items()
        }
        assert bx.induce(bx.unit, bx.copies) == old.induce(old.unit, old.copies)


COLLAPSES = [p for p in MAPS if p.stem.endswith("_collapse")]


@pytest.mark.parametrize("j", COLLAPSES, ids=lambda p: p.stem)
def test_leibniz_with_a_collapse_matches_the_realizer(j, monkeypatch):
    """With j a collapse the span A x U -> A x V, B x U is not mono."""
    j = load_smap(j)
    maps = [load_smap(p) for p in MAPS]
    new = [lifting.leibniz(i, j)[0] for i in maps]
    monkeypatch.setattr(lifting, "pushout", reference.pushout)
    for i, induced in zip(maps, new):
        old = lifting.leibniz(i, j)[0]
        assert induced.source == old.source and induced.target == old.target
        assert list(induced.assignment.items()) == list(old.assignment.items())


def test_coproduct_refuses_a_truncated_summand_as_pushout_does():
    """A summand above the other's bound has nowhere to go, as in pushout."""
    x, y = nerve_j(2), std_simplex(3)
    assert x.dim_bound == 2
    with pytest.raises(Truncated, match="pushout truncated at 2, below leg dimension 3"):
        pushout(initial_map(x), initial_map(y))
    for left, right in ((x, y), (y, x)):
        with pytest.raises(Truncated, match="coproduct truncated at 2, below summand dimension 3"):
            coproduct(left, right)


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
