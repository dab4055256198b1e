"""``classify`` against four independent ``has_rlp`` calls.

``classify`` scans each distinct generator of the four families once and
reads every family's verdict off those scans.  It must give the verdicts,
the counterexample squares and the exceptions that one ``has_rlp`` call per
family, in the order kan, inner, trivial, cat, gives; make no scan twice;
and leave nothing behind on the map it classifies.
"""

import gc
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssetkit import lifting
from ssetkit.corpus import catfib_corpus, random_map, random_sset
from ssetkit.kernel import SMap, SSetError, load_smap, terminal_map
from ssetkit.lifting import classify, family_by_name, has_rlp

ROOT = Path(__file__).resolve().parents[1]
MAPS = sorted((ROOT / "corpus" / "maps").glob("*.smap"))
FAMILIES = ("kan", "inner", "trivial", "cat")
DEPTHS = (1, 2, 3)


def _distinct(maps):
    out = []
    for f in maps:
        if f not in out:
            out.append(f)
    return out


CATFIB = _distinct(catfib_corpus(50))


def _square(ce):
    return ce.left, ce.top, ce.bottom


def _by_has_rlp(p, depth):
    """One ``has_rlp`` call per family, stopping at the first that raises."""
    out = {}
    for name in FAMILIES:
        try:
            ok, ce = has_rlp(p, family_by_name(name, depth))
        except SSetError as e:
            return "raises", type(e), str(e)
        assert ok == (ce is None)
        out[name] = None if ce is None else _square(ce)
    return out


def _by_classify(p, depth):
    try:
        c = classify(p, depth)
    except SSetError as e:
        return "raises", type(e), str(e)
    assert c.depth == depth
    out = {}
    for name in FAMILIES:
        ce = c.counterexamples.get(name)
        assert getattr(c, f"{name}_fib") == (ce is None), name
        if ce is not None:
            assert ce.right is p
        out[name] = None if ce is None else _square(ce)
    assert set(c.counterexamples) <= set(FAMILIES)
    return out


def _agree(p, depth):
    assert _by_classify(p, depth) == _by_has_rlp(p, depth)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("index", range(len(CATFIB)))
def test_classify_matches_has_rlp_on_catfib_maps(index, depth):
    _agree(CATFIB[index], depth)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("path", MAPS, ids=lambda p: p.stem)
def test_classify_matches_has_rlp_on_corpus_maps(path, depth):
    _agree(load_smap(path), depth)


def test_a_corpus_map_raises_in_both():
    # groupoid_collapse's target is truncated at 2, so depth 3 raises
    f = load_smap(ROOT / "corpus" / "maps" / "groupoid_collapse.smap")
    outcome = _by_classify(f, 3)
    assert outcome[0] == "raises" and issubclass(outcome[1], SSetError)
    assert outcome == _by_has_rlp(f, 3)


def _fibcheck_map(seed):
    """A random map drawn as the fibcheck benchmark draws one."""
    rng = random.Random(seed)
    x = random_sset(rng, max_dim=3, max_cells=6)
    y = random_sset(rng, max_dim=3, max_cells=6)
    return random_map(rng, x, y), x


@given(seed=st.integers(min_value=0, max_value=10**6), depth=st.sampled_from(DEPTHS))
@settings(max_examples=80, deadline=None)
def test_classify_matches_has_rlp_on_random_maps(seed, depth):
    f, x = _fibcheck_map(seed)
    if f is not None:
        _agree(f, depth)
    _agree(terminal_map(x), depth)


# -- the scans ------------------------------------------------------------------


def _spy(monkeypatch):
    """Record the (left, right) pairs that ``classify`` scans."""
    scanned = []
    first_unsolved = lifting._first_unsolved

    def recording(pairs, solved=None):
        pairs = list(pairs)
        scanned.extend(pairs)
        return first_unsolved(pairs, solved)

    monkeypatch.setattr(lifting, "_first_unsolved", recording)
    return scanned


def _expected_scans(p, depth):
    """The distinct generators four ``has_rlp`` calls scan, in order: each
    family's generators up to and including its first failing one."""
    out = []
    for name in FAMILIES:
        family = family_by_name(name, depth)
        _, ce = has_rlp(p, family)
        stop = len(family.generators) if ce is None else family.generators.index(ce.left) + 1
        out += [g for g in family.generators[:stop] if not any(g is h for h in out)]
    return out


@pytest.mark.parametrize("index", range(0, len(CATFIB), 3))
def test_each_generator_is_scanned_once(monkeypatch, index):
    p = CATFIB[index]
    expected = _expected_scans(p, 3)
    scanned = _spy(monkeypatch)
    classify(p, 3)
    assert all(right is p for _, right in scanned)
    lefts = [left for left, _ in scanned]
    assert len({id(left) for left in lefts}) == len(lefts)
    assert [id(left) for left in lefts] == [id(g) for g in expected]


def test_a_map_passing_every_family_makes_14_scans_at_depth_3(monkeypatch):
    p = CATFIB[0]
    c = classify(p, 3)
    assert (c.kan_fib, c.inner_fib, c.trivial_fib, c.cat_fib) == (True, True, True, True)
    assert sum(len(family_by_name(name, 3).generators) for name in FAMILIES) == 20
    scanned = _spy(monkeypatch)
    classify(p, 3)
    assert len(scanned) == 14


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_random_maps_scan_each_generator_once(seed):
    f, x = _fibcheck_map(seed)
    p = f or terminal_map(x)
    expected = _expected_scans(p, 3)
    with pytest.MonkeyPatch.context() as mp:
        scanned = _spy(mp)
        classify(p, 3)
    assert [id(left) for left, _ in scanned] == [id(g) for g in expected]


# -- nothing outlives the call ----------------------------------------------------


def _fresh(f):
    return SMap(f.source, f.target, dict(f.assignment))


@pytest.mark.parametrize("index", [0, 5, 17])
def test_classify_leaves_the_map_unchanged(index):
    f = _fresh(CATFIB[index])
    before = dict(vars(f))
    classify(f, 3)
    assert vars(f) == before


@pytest.fixture
def no_gc():
    """Reference counting alone frees what holds no cycle."""
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_classify_leaves_no_cycle_through_the_map(no_gc, seed):
    f, x = _fibcheck_map(seed)
    f = _fresh(f or terminal_map(x))
    c = classify(f, 3)
    ref = weakref.ref(f)
    del f, c
    assert ref() is None


def test_classify_leaves_no_cycle_through_a_passing_map(no_gc):
    f = _fresh(CATFIB[0])
    ref = weakref.ref(f)
    assert classify(f, 3).cat_fib
    del f
    assert ref() is None
