"""The face-indexed, iterative map search against the naive one it replaced.

``reference.enumerate_maps`` scans every simplex of the target and recurses
once per cell; ``ssetkit.kernel.enumerate_maps`` looks candidates up by
their faces and backtracks on an explicit stack.  Both must yield the same
maps in the same order, with their assignments in the same cell order, so
that fillers and counterexamples do not change.
"""

import random
from itertools import islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ssetkit.corpus import catfib_corpus, discrete, random_sset, random_ssets
from ssetkit.kernel import (
    FinSSet,
    SSetError,
    boundary,
    count_maps,
    enumerate_maps,
    find_isomorphism,
    horn,
    identity,
    nerve_j,
    nondeg,
    std_simplex,
    terminal,
)
from ssetkit.lifting import has_rlp, kan_family

seeds = st.integers(min_value=0, max_value=10**6)
CAP = 300  # maps compared per search; both sides stop at the same point


def _listed(search, source, target, **kw):
    return [list(m.assignment.items()) for m in islice(search(source, target, **kw), CAP)]


def _variants(rng, source, target):
    """Keyword sets for one pair: plain, forced, constrained, mono."""
    out = [{}]
    cells = [c for level in source.cells for c in level]
    some = next(enumerate_maps(source, target), None)
    if cells and some is not None:
        pinned = rng.sample(cells, rng.randint(1, len(cells)))
        out.append({"forced": {c: some.assignment[c] for c in pinned}})
        # a pin drawn freely usually clashes with the faces
        c = rng.choice(cells)
        pool = target.simplices(source.cell_dim(c))
        if pool:
            out.append({"forced": {c: rng.choice(pool)}})
    banned = {
        (c, s)
        for c in cells
        for s in target.simplices(source.cell_dim(c))
        if rng.random() < 0.25
    }
    out.append({"constraint": lambda c, s: (c, s) not in banned})
    out.append({"mono": True})
    return out


def _naive(source, target, *, mono=False, **kw):
    """The naive search; with ``mono``, its maps that are levelwise injective."""
    maps = reference.enumerate_maps(source, target, **kw)
    return (m for m in maps if reference.is_mono(m)) if mono else maps


def _agree(rng, source, target):
    for kw in _variants(rng, source, target):
        assert _listed(enumerate_maps, source, target, **kw) == _listed(_naive, source, target, **kw)


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_search_matches_naive_on_random_pairs(seed):
    x, y = random_ssets(2, seed, max_dim=3, max_cells=6)
    _agree(random.Random(seed), x, y)


CATFIB = catfib_corpus()
PROBES = [terminal(), std_simplex(1), boundary(1)[0], horn(2, 1)[0], std_simplex(2)]


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_search_matches_naive_on_catfib_maps(seed):
    rng = random.Random(seed)
    f = rng.choice(CATFIB)
    _agree(rng, f.source, f.target)
    _agree(rng, rng.choice(PROBES), f.source)


# -- the early lookup ------------------------------------------------------------
#
# A cell's candidates are looked up as soon as the last of its face bases is
# assigned.  Horns and boundaries have cells whose faces are all fixed long
# before their turn, and a target with many vertices and few edges kills most
# vertex tuples at that early lookup.

SHAPES = [horn(n, k)[0] for n in range(1, 4) for k in range(n + 1)]
SHAPES += [boundary(n)[0] for n in range(1, 4)]


def _padded(rng, y):
    """y with isolated vertices and stray edges added."""
    levels = [list(level) for level in y.cells]
    levels += [[] for _ in range(2 - len(levels))]
    faces = dict(y.faces)
    levels[0] += [f"z{i}" for i in range(rng.randint(1, 3))]
    for i in range(rng.randint(0, 2)):
        levels[1].append(f"s{i}")
        faces[f"s{i}"] = (nondeg(rng.choice(levels[0])), nondeg(rng.choice(levels[0])))
    return FinSSet.make(dict(enumerate(levels)), faces).assert_valid()


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_search_matches_naive_from_horns_and_boundaries(seed):
    rng = random.Random(seed)
    shape = rng.choice(SHAPES)
    source = FinSSet(shape.cells, shape.faces)  # a copy with empty caches
    key, digest = source.key(), hash(source)
    _agree(rng, source, _padded(rng, random_sset(rng, max_dim=3, max_cells=6)))
    # the cached plan is not part of the object's identity
    assert source._search_plan
    assert source.key() == key and hash(source) == digest
    assert source == shape and repr(source) == repr(FinSSet(shape.cells, shape.faces))


def _count_lookups(monkeypatch) -> list[int]:
    """Count ``simplices_with_faces`` calls from here on, in the list's item."""
    calls = [0]
    lookup = FinSSet.simplices_with_faces

    def counted(self, n, wants):
        calls[0] += 1
        return lookup(self, n, wants)

    monkeypatch.setattr(FinSSet, "simplices_with_faces", counted)
    return calls


def test_early_lookup_cuts_dead_vertex_tuples(monkeypatch):
    # 9 vertices and no nondegenerate edge: assigning all four vertices of
    # the horn before looking any edge up made 7,425 lookups here
    source, target = horn(3, 0)[0], CATFIB[28].source
    expected = _listed(reference.enumerate_maps, source, target)
    calls = _count_lookups(monkeypatch)
    assert _listed(enumerate_maps, source, target) == expected
    assert len(expected) == 9
    assert calls[0] < 750


def test_each_face_tuple_is_looked_up_once_per_search(monkeypatch):
    # without the per-search memo this made 2,718 lookups; the squares of a
    # horn repeat the same face tuples for the tops and for the fillers
    calls = _count_lookups(monkeypatch)
    assert has_rlp(CATFIB[28], kan_family(3)) == (True, None)
    assert calls[0] <= 1000


def test_constraint_filters_after_the_shared_lookup():
    # a and b have the same faces, so one search looks their tuple up once;
    # the constraint, which depends on the cell, must still see both
    source = FinSSet.make(
        {0: ["x", "y"], 1: ["a", "b"]},
        {"a": (nondeg("y"), nondeg("x")), "b": (nondeg("y"), nondeg("x"))},
    ).assert_valid()
    target = FinSSet.make(
        {0: ["p", "q"], 1: ["e1", "e2", "e3"]},
        {e: (nondeg("q"), nondeg("p")) for e in ("e1", "e2", "e3")},
    ).assert_valid()
    banned = {("a", nondeg("e1")), ("b", nondeg("e2")), ("b", nondeg("e3"))}
    kw = {"constraint": lambda c, s: (c, s) not in banned}
    expected = _listed(reference.enumerate_maps, source, target, **kw)
    assert _listed(enumerate_maps, source, target, **kw) == expected
    edges = [(m[2][1].base, m[3][1].base) for m in expected if m[2][1].word == ()]
    assert edges == [("e2", "e1"), ("e3", "e1")]


ISO_NERVE = nerve_j(2)


@given(seed=seeds, extra=st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_search_matches_naive_on_truncated_targets(seed, extra):
    rng = random.Random(seed)
    x, y = random_ssets(2, seed, max_dim=3, max_cells=6)
    for target in (FinSSet(y.cells, y.faces, max(y.dim, 0) + extra), ISO_NERVE):
        if x.dim > target.dim_bound:
            with pytest.raises(SSetError):
                list(enumerate_maps(x, target))
            with pytest.raises(SSetError):
                list(reference.enumerate_maps(x, target))
        else:
            _agree(rng, x, target)


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_face_lookup_is_the_face_filter(seed):
    rng = random.Random(seed)
    y = random_sset(rng)
    for n in range(1, 4):
        below = y.simplices(n - 1)
        wanted = [tuple(y.face(s, i) for i in range(n + 1)) for s in y.simplices(n)]
        wanted += [tuple(rng.choice(below) for _ in range(n + 1)) for _ in range(5)]
        for wants in wanted:
            naive = [
                s for s in y.simplices(n)
                if all(y.face(s, i) == wants[i] for i in range(n + 1))
            ]
            assert y.simplices_with_faces(n, wants) == naive


def test_face_lookup_refuses_unrepresented_levels():
    wants = tuple(ISO_NERVE.simplices(2)[:1] * 4)
    with pytest.raises(SSetError):
        ISO_NERVE.simplices_with_faces(3, wants)


# -- deep and degenerate searches ------------------------------------------------


def test_search_is_not_recursive():
    maps = list(enumerate_maps(discrete(1500), terminal()))
    assert len(maps) == 1
    assert len(maps[0].assignment) == 1500


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("m", range(4))
def test_maps_between_simplices_are_monotone_maps(n, m):
    # most of these maps hit degenerate simplices of the target
    assert count_maps(std_simplex(n), std_simplex(m)) == comb(n + m + 1, n + 1)


def test_find_isomorphism_is_not_recursive():
    iso = find_isomorphism(discrete(1500), discrete(1500))
    assert iso == identity(discrete(1500))


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_find_isomorphism_matches_recursive_search(seed):
    rng = random.Random(seed)
    x = random_sset(rng)
    shuffled = tuple(tuple(rng.sample(level, len(level))) for level in x.cells)
    y = FinSSet(shuffled, x.faces).rename(lambda c: f"y_{c}")
    for a, b in ((x, y), (y, x), (x, random_sset(rng))):
        fast, naive = find_isomorphism(a, b), reference.find_isomorphism(a, b)
        assert (fast is None) == (naive is None)
        if fast is not None:
            first = next(_naive(a, b, mono=True))
            assert list(fast.assignment.items()) == list(first.assignment.items())
