"""Conversion without waste: alpha-equal sides first, and no cyclic garbage.

``equal_types`` and ``equal_terms`` answer ``True`` for alpha-equal sides
before they unfold, normalize or eta-expand; sides that differ still take
the full path, and still run out of fuel.  Substitution and the matching
of extension clauses keep no closure that refers to itself, so checking
and interpreting programs leaves no garbage for the cyclic collector.
"""

import gc
import random
from pathlib import Path

import pytest

from ssetkit import lifting, model
from ssetkit.kernel import Truncated
from ssetkit.tt import equality
from ssetkit.tt import syntax as S
from ssetkit.tt.checker import CheckError, check_source
from ssetkit.tt.elaborate import Elaborator, ModelEnv
from ssetkit.tt.equality import OutOfFuel, equal_terms, equal_types
from ssetkit.tt.parser import ParseError, parse_term, parse_type

ITT_FILES = sorted((Path(__file__).resolve().parents[1] / "corpus" / "itt").glob("*.itt"))

PRELUDE = """\
postulate A () | () : Type
postulate B () | () : Type
postulate a0 () | () : A
postulate b0 () | () : B
postulate j0 () : I1
"""


def _tower(rng: random.Random, depth: int) -> str:
    t = "a0"
    for _ in range(depth):
        t = rng.choice(["fst(spair({}, b0))", "snd(spair(b0, {}))", "idJ(z p. A, x. {}, refl(a0))"]).format(t)
    return t


def generated_program(size: int, seed: int, bad: bool) -> str:
    """``size`` definitions of the sigma, hom, pi, redex-tower and unit
    kinds; a bad program ends in a conversion error."""
    rng = random.Random(seed)
    decls = []
    for i in range(size):
        pick = rng.randrange(5)
        if pick == 0:
            decls += [f"def s{i} () | () : Sigma (x : A) B := spair(a0, b0)",
                      f"def f{i} () | () : A := fst(s{i})"]
        elif pick == 1:
            decls += [f"def h{i} () : Hom(A, A) := \\x. x",
                      f"def e{i} () | () : Id(A, h{i} a0, a0) := refl(a0)"]
        elif pick == 2:
            decls += [f"def p{i} () | () : Pi (k : I1) A := \\k. a0",
                      f"def q{i} () | () : Id(A, p{i} j0, a0) := refl(a0)"]
        elif pick == 3:
            decls.append(f"def r{i} () | () : Id(A, {_tower(rng, rng.randint(1, 6))}, a0) := refl(a0)")
        else:
            decls.append(f"def u{i} () | () : One := one")
    decls = decls[:size]
    if bad:
        decls[-1] = "def bad () | () : A := b0"
    return PRELUDE + "\n".join(decls) + "\n"


def check_and_interpret(src: str) -> str:
    """Check ``src`` and, when it checks, interpret its closed definitions in
    the kan class at depth 2, as ``ssetkit interp`` does; the verdict."""
    try:
        ck = check_source(src)
    except ParseError:
        return "error parse"
    except CheckError as exc:
        return f"error {exc.rule}"
    env = ModelEnv(
        spec=model.FibClassSpec("kan", 2),
        base_spec=model.FibClassSpec("inner", 2),
        family=lifting.kan_family(2),
        budget=300,
        stable_coproducts=ck.stable,
    )
    el = Elaborator(env)
    for decl in ck.decls.values():
        if decl.kind == "term" and decl.body is not None:
            try:
                el.elab_decl(decl)
            except (model.ModelError, Truncated, lifting.BudgetExhausted):
                pass
    return "ok"


# -- no cyclic garbage ----------------------------------------------------------


def test_checking_and_interpreting_leaves_no_cyclic_garbage():
    generated = {
        (size, variant, bad): generated_program(size, 1000 * size + variant, bad)
        for size in (10, 25, 50, 100)
        for variant in range(2)
        for bad in (False, True)
    }
    sources = [p.read_text() for p in ITT_FILES] + list(generated.values())
    gc.collect()
    gc.disable()
    try:
        verdicts = [check_and_interpret(src) for src in sources]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert verdicts[len(ITT_FILES):] == ["error conv" if bad else "ok" for _, _, bad in generated]


def test_matching_an_extension_clause_leaves_no_cyclic_garbage():
    ty = parse_type("<Pi (y : I1) A | (x : I1) x . hA x>")
    t, u = parse_term("app{x. hA x}(ff, j0)"), parse_term("hA j0")
    gc.collect()
    gc.disable()
    try:
        assert equal_terms(t, u, ty)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- alpha-equal sides first ------------------------------------------------------


@pytest.fixture
def spied(monkeypatch):
    """The calls of ``normalize`` and ``unfold`` inside ``equality``."""
    calls = {"normalize": 0, "unfold": 0}
    for fn in calls:
        original = getattr(equality, fn)

        def spy(*args, fn=fn, original=original):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(equality, fn, spy)
    return calls


DEFS = {"two": parse_term("spair(a0, a0)")}


def test_alpha_equal_sides_are_neither_unfolded_nor_normalized(spied):
    assert equal_types(parse_type("Sigma (x : A) (P (fst(two)))"),
                       parse_type("Sigma (y : A) (P (fst(two)))"), defs=DEFS)
    assert equal_types(parse_type("Pi (i : I1) (C (fst(spair(i, b0))))"),
                       parse_type("Pi (k : I1) (C (fst(spair(k, b0))))"))
    assert equal_terms(parse_term("\\x. fst(spair(x, two))"), parse_term("\\y. fst(spair(y, two))"),
                       parse_type("Hom(A, A)"), defs=DEFS)
    assert equal_terms(parse_term("idJ(z p. A, x. x, q)"), parse_term("idJ(w r. A, y. y, q)"))
    assert spied == {"normalize": 0, "unfold": 0}


def test_sides_that_differ_are_unfolded_and_normalized(spied):
    assert equal_types(parse_type("Id(A, fst(two), a0)"), parse_type("Id(A, a0, a0)"), defs=DEFS)
    assert spied["unfold"] == 2 and spied["normalize"] > 0
    spied.update(normalize=0, unfold=0)
    assert not equal_terms(parse_term("fst(two)"), parse_term("b0"), defs=DEFS)
    assert spied["unfold"] == 2 and spied["normalize"] == 2


def tower(n: int, binder: str = "x"):
    t = parse_term("a0")
    for _ in range(n):
        t = S.IdJ("z", "p", parse_type("A"), binder, S.Fst(S.SPair(S.Var(binder), S.Var("b0"))), S.Refl(t))
    return t


def test_alpha_equal_sides_spend_no_fuel(monkeypatch):
    monkeypatch.setattr(equality, "FUEL", 5)
    left, right = tower(6, "x"), tower(6, "y")
    assert left != right
    with pytest.raises(OutOfFuel):
        equality.normalize(left)
    # alpha-equal over a redex tower longer than FUEL: equal, with no fuel spent
    assert equal_terms(left, right)
    assert equal_terms(left, right, parse_type("A"))
    assert equal_types(S.TId(parse_type("A"), left, parse_term("a0")),
                       S.TId(parse_type("A"), right, parse_term("a0")))
    # the same tower against its normal form still runs out
    with pytest.raises(OutOfFuel):
        equal_terms(left, parse_term("a0"))
    with pytest.raises(OutOfFuel):
        equal_types(S.TId(parse_type("A"), left, parse_term("a0")), parse_type("Id(A, a0, a0)"))


def test_equal_terms_is_reflexive_at_an_extension_type():
    # the clause reduces one side only, so the full path compared hA j0
    # with the unreduced application and answered False
    ty = parse_type("<Pi (y : I1) A | (x : I1) x . hA x>")
    t = parse_term("app{x. hA x}(ff, j0)")
    assert equal_terms(t, t, ty)
