"""The face-lookup lifting path against the general path it replaced.

For a horn or boundary inclusion A -> Δ^n, ``ssetkit.lifting`` decides the
squares by looking fillers and bottoms up by their faces;
``reference.has_rlp`` searches maps for every bottom and sections for every
filler.  Both must give the same verdict, the same first counterexample
square, and an ``SSetError`` in the same cases, with the same message.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ssetkit import lifting
from ssetkit.corpus import catfib_corpus, discrete, random_map, random_ssets
from ssetkit.kernel import (
    FinSSet,
    SMap,
    SSetError,
    boundary,
    horn,
    nerve_j,
    std_simplex,
    terminal_map,
)
from ssetkit.lifting import (
    BudgetExhausted,
    classify,
    factor_soa,
    family_by_name,
    has_llp,
    has_rlp,
    kan_family,
    point_to_interval_groupoid,
)

seeds = st.integers(min_value=0, max_value=10**6)
depths = st.integers(min_value=1, max_value=3)
FAMILIES = ("kan", "inner", "trivial", "cat")
CATFIB = catfib_corpus()


def _outcome(check, p, family):
    try:
        ok, ce = check(p, family)
    except SSetError as e:
        return "raises", str(e)
    if ce is None:
        return ok, None
    assert ce.right is p
    return ok, [list(m.assignment.items()) for m in (ce.left, ce.top, ce.bottom)]


def _agree(p, depth):
    for name in FAMILIES:
        family = family_by_name(name, depth)
        assert _outcome(has_rlp, p, family) == _outcome(reference.has_rlp, p, family), name


def _random_pair(seed):
    rng = random.Random(seed)
    x, y = random_ssets(2, seed, max_dim=3, max_cells=6)
    return rng, x, y


@given(seed=seeds, depth=depths)
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_naive_on_random_maps(seed, depth):
    rng, x, y = _random_pair(seed)
    f = random_map(rng, x, y)
    if f is not None:
        _agree(f, depth)
    _agree(terminal_map(x), depth)


@given(seed=seeds, depth=depths)
@settings(max_examples=25, deadline=None)
def test_fast_path_matches_naive_on_catfib_maps(seed, depth):
    _agree(random.Random(seed).choice(CATFIB), depth)


@given(seed=seeds, budget=st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_fast_path_matches_naive_on_factor_right_legs(seed, budget):
    rng, x, y = _random_pair(seed)
    f = random_map(rng, x, y) or terminal_map(x)
    try:
        right = factor_soa(f, kan_family(2), budget).right
    except BudgetExhausted as exc:
        right = exc.partial.right
    _agree(right, rng.randint(1, 3))


def _truncated(x, extra):
    return FinSSet(x.cells, x.faces, max(x.dim, 0) + extra)


@given(seed=seeds, depth=depths, extra=st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_fast_path_raises_where_naive_raises(seed, depth, extra):
    rng, x, y = _random_pair(seed)
    f = random_map(rng, x, y) or terminal_map(x)
    x_cut, y_cut = _truncated(f.source, extra), _truncated(f.target, extra)
    _agree(SMap(f.source, y_cut, f.assignment), depth)
    _agree(SMap(x_cut, f.target, f.assignment), depth)
    _agree(SMap(x_cut, y_cut, f.assignment), depth)
    _agree(terminal_map(nerve_j(2)), depth)
    if x.dim <= 2:
        into_nerve = random_map(rng, x, nerve_j(2))
        if into_nerve is not None:
            _agree(into_nerve, depth)


def test_empty_source_and_target():
    empty = FinSSet((), {})
    for p in (terminal_map(empty), SMap(empty, _truncated(empty, 0), {})):
        _agree(p, 3)


# -- which path each left leg takes -----------------------------------------------


def _record(monkeypatch):
    """Record the left legs that reach the general path."""
    lefts = []
    problems, solve = lifting.lifting_problems, lifting.solve_lift

    def recording_problems(gen, p, tops=None):
        lefts.append(gen)
        return problems(gen, p, tops)

    def recording_solve(problem, **kw):
        lefts.append(problem.left)
        return solve(problem, **kw)

    monkeypatch.setattr(lifting, "lifting_problems", recording_problems)
    monkeypatch.setattr(lifting, "solve_lift", recording_solve)
    return lefts


def test_horn_and_boundary_squares_skip_the_map_search(monkeypatch):
    lefts = _record(monkeypatch)
    for f in CATFIB[:4] + CATFIB[14:18]:
        classify(f, 3)
    cat_generator = point_to_interval_groupoid(3)
    assert lefts
    assert all(left is cat_generator for left in lefts)


def test_other_left_legs_take_the_general_path(monkeypatch):
    lefts = _record(monkeypatch)
    collapse = terminal_map(std_simplex(1))  # into Δ^0, not mono
    tests = [terminal_map(discrete(2))]
    ok, ce = has_llp(collapse, tests)
    assert (ok, ce) == (True, None)
    assert lefts and all(left is collapse for left in lefts)
    assert reference._first_unsolved((collapse, p) for p in tests) is None

    lefts.clear()
    has_rlp(terminal_map(discrete(2)), family_by_name("cat", 2))
    assert point_to_interval_groupoid(2) in lefts


@pytest.mark.parametrize("left", [horn(2, 0)[1], horn(1, 1)[1], boundary(0)[1], boundary(2)[1]])
def test_copies_of_the_generators_take_the_general_path(monkeypatch, left):
    # only the cached horn and boundary inclusions are known to be ones
    lefts = _record(monkeypatch)
    copy = SMap(left.source, left.target, dict(left.assignment))
    p = terminal_map(std_simplex(1))
    assert has_llp(copy, [p])[1] == has_llp(left, [p])[1]
    assert lefts and all(leg is copy for leg in lefts)
