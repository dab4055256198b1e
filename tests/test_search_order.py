"""Pins the deterministic search order behind counterexamples and fillers.

Verdicts alone do not show a change of search order; these tests fix the
exact first counterexample squares, the least filler and the order in which
the small object argument attaches cells.
"""

import pytest

from ssetkit.kernel import (
    compose,
    enumerate_sections,
    horn,
    load_smap,
    nerve_j,
    std_simplex,
    terminal_map,
)
from ssetkit.lifting import (
    BudgetExhausted,
    LiftingProblem,
    classify,
    factor_soa,
    has_llp,
    kan_family,
    solve_lift,
    trivial_family,
)


def _show(m):
    return {c: repr(s) for c, s in m.assignment.items()}


HORN20_TO_POINT = {
    "0": "<0>", "1": "<0>", "2": "<0>", "0_1": "<s0 0>", "0_2": "<s0 0>",
    "1_2": "<s0 0>", "0_1_2": "<s1 s0 0>",
}


def test_first_counterexamples_of_interval_to_point():
    c = classify(terminal_map(std_simplex(1)), 3)
    kan = c.counterexamples["kan"]
    assert kan.left == kan_family(3).generators[2] == horn(2, 0)[1]
    assert _show(kan.top) == {"0": "<0>", "1": "<1>", "2": "<0>", "0_1": "<0_1>", "0_2": "<s0 0>"}
    assert _show(kan.bottom) == HORN20_TO_POINT
    trivial = c.counterexamples["trivial"]
    assert trivial.left == trivial_family(3).generators[1]
    assert _show(trivial.top) == {"0": "<1>", "1": "<0>"}
    assert _show(trivial.bottom) == {"0": "<0>", "1": "<0>", "0_1": "<s0 0>"}


def test_all_fillers_of_inner_horn_in_simplex():
    _, incl = horn(2, 1)
    problem = LiftingProblem(
        left=incl,
        right=terminal_map(std_simplex(2)),
        top=incl,
        bottom=terminal_map(std_simplex(2)),
    )
    filler = solve_lift(problem)
    assert _show(filler) == {
        "0": "<0>", "1": "<1>", "2": "<2>", "0_1": "<0_1>", "0_2": "<0_2>",
        "1_2": "<1_2>", "0_1_2": "<0_1_2>",
    }
    sections = enumerate_sections(problem.right, problem.bottom)
    assert [h for h in sections if compose(h, incl) == incl] == [filler]


def test_first_failing_llp_square():
    tests = [terminal_map(std_simplex(1)), terminal_map(nerve_j(2))]
    ok, ce = has_llp(horn(2, 0)[1], tests)
    assert not ok
    assert ce.right == tests[0]
    assert _show(ce.top) == {"0": "<0>", "1": "<1>", "2": "<0>", "0_1": "<0_1>", "0_2": "<s0 0>"}
    assert _show(ce.bottom) == HORN20_TO_POINT


def test_factor_attachment_order(corpus_dir):
    f = load_smap(corpus_dir / "maps" / "inner_horn_include.smap")
    with pytest.raises(BudgetExhausted) as exc:
        factor_soa(f, kan_family(2), 10)
    order = [a.generator_index for a in exc.value.partial.attachments]
    assert order == [0, 1, 1, 0, 1, 1, 0, 1, 1, 0]
