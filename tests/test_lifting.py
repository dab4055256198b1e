"""Lifting problems, fibration classes, and the by-need cell factorization."""

import pytest

from ssetkit.corpus import discrete
from ssetkit.kernel import (
    boundary,
    compose,
    constant_map,
    horn,
    identity,
    nerve_j,
    product,
    pullback,
    std_simplex,
    terminal,
    terminal_map,
)
from ssetkit.lifting import (
    BudgetExhausted,
    LiftingProblem,
    classify,
    factor_soa,
    has_llp,
    has_rlp,
    identity_closure_check,
    inner_family,
    kan_family,
    leibniz,
    lifting_problems,
    quasifibration_check,
    solve_lift,
)


# -- single lifting problems --------------------------------------------------


def test_solve_inner_horn_in_simplex():
    sub, incl = horn(2, 1)
    problem = LiftingProblem(
        left=incl,
        right=terminal_map(std_simplex(2)),
        top=incl,
        bottom=terminal_map(std_simplex(2)),
    )
    assert problem.validate() == []
    filler = solve_lift(problem)
    assert filler is not None
    assert compose(filler, problem.left) == problem.top
    assert compose(problem.right, filler) == problem.bottom


def test_no_filler_for_retracting_interval_onto_boundary():
    sub, incl = boundary(1)
    problem = LiftingProblem(
        left=incl,
        right=terminal_map(sub),
        top=identity(sub),
        bottom=terminal_map(std_simplex(1)),
    )
    assert problem.validate() == []
    assert solve_lift(problem) is None


def test_lifting_problems_enumeration():
    _, incl = horn(2, 1)
    probs = list(lifting_problems(incl, terminal_map(std_simplex(2))))
    assert probs
    for p in probs:
        assert p.validate() == []


# -- rlp/llp and the classifier -----------------------------------------------


def test_classify_point_is_kan():
    c = classify(terminal_map(terminal()), depth=3)
    assert c.kan_fib and c.inner_fib and c.cat_fib


def test_classify_interval_collapse():
    c = classify(terminal_map(std_simplex(1)), depth=2)
    assert c.inner_fib
    assert not c.kan_fib
    assert not c.trivial_fib
    assert c.counterexamples["kan"].left.source == horn(2, 0)[0]
    assert c.counterexamples["trivial"].left.source == boundary(1)[0]


def test_nerve_collapse_is_kan_at_depth_2():
    ok, _ = has_rlp(terminal_map(nerve_j(2)), kan_family(2))
    assert ok


def test_horn_inclusion_has_llp_against_kan_targets():
    _, incl = horn(2, 1)
    ok, _ = has_llp(incl, [terminal_map(nerve_j(2))])
    assert ok


# -- rlp closure properties ---------------------------------------------------


def test_rlp_closed_under_composition():
    fam = inner_family(2)
    p = terminal_map(std_simplex(1))
    q = terminal_map(terminal())
    assert has_rlp(p, fam)[0] and has_rlp(q, fam)[0]
    assert has_rlp(compose(q, p), fam)[0]


def test_rlp_closed_under_pullback():
    fam = inner_family(2)
    p = product(std_simplex(1), discrete(2)).proj1
    assert has_rlp(p, fam)[0]
    pb = pullback(p, constant_map(terminal(), std_simplex(1), "0"))
    assert has_rlp(pb.proj2, fam)[0]


# -- leibniz / pushout-product ------------------------------------------------


def test_leibniz_of_monos_is_mono():
    i = boundary(1)[1]
    induced, _ = leibniz(i, i)
    assert induced.is_mono()
    assert induced.validate() == []


# -- by-need small object argument --------------------------------------------


def test_factor_soa_completes():
    f = constant_map(terminal(), std_simplex(1), "0")
    fac = factor_soa(f, inner_family(2), budget=200)
    assert fac.complete
    assert compose(fac.right, fac.left) == f
    assert fac.left.is_mono()
    assert has_rlp(fac.right, inner_family(2))[0]


def test_factor_soa_budget_exhaustion_keeps_partial():
    f = constant_map(terminal(), std_simplex(1), "0")
    with pytest.raises(BudgetExhausted) as exc:
        factor_soa(f, kan_family(2), budget=0)
    partial = exc.value.partial
    assert not partial.complete
    assert compose(partial.right, partial.left) == f


# -- quasifibrations and identity closure -------------------------------------


def test_quasifibration_report_shape():
    f = terminal_map(std_simplex(1))
    rep = quasifibration_check(
        f,
        inner_family(2),
        probes=[identity(f.target)],
        tests=[f],
        budget=200,
    )
    assert rep.factorization.complete
    assert [idx for idx, _ in rep.probe_results] == [0]


def test_identity_closure_detects_budget_failure():
    p = terminal_map(nerve_j(2))
    rep = identity_closure_check([p], kan_family(2), kan_family(2), budget=5)
    assert not rep.ok
    assert rep.failures == (0,)
    assert rep.details


def test_identity_closure_passes_on_discrete_cover():
    p = identity(discrete(2))
    rep = identity_closure_check([p], kan_family(2), inner_family(2), budget=200)
    assert rep.ok
