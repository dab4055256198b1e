"""Surface language: parsing, printing, conversion, checking, reduction."""

import sys
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as R
from ssetkit.tt import syntax as S
from ssetkit.tt.checker import CheckError, check_source
from ssetkit.tt.equality import equal_terms, equal_types, normalize, step, unfold
from ssetkit.tt.parser import _MAX_NESTING, ParseError, parse_file, parse_term, parse_type

ROOT = Path(__file__).resolve().parents[1]
ITT_DIR = ROOT / "corpus" / "itt"
ITT_FILES = sorted(ITT_DIR.glob("*.itt"))


def expected_verdict(path: Path) -> str:
    first = path.read_text().splitlines()[0]
    return first.split("-- expect:", 1)[1].strip()


# -- golden program corpus -----------------------------------------------------


def test_corpus_is_populated():
    verdicts = [expected_verdict(p) for p in ITT_FILES]
    assert verdicts.count("ok") == 46
    assert sum(1 for v in verdicts if v.startswith("error")) == 52


@pytest.mark.parametrize("path", ITT_FILES, ids=lambda p: p.stem)
def test_corpus_verdict(path):
    expect = expected_verdict(path)
    try:
        check_source(path.read_text())
        verdict = "ok"
    except ParseError:
        verdict = "error parse"
    except CheckError as e:
        verdict = f"error {e.rule}"
    assert verdict == expect


# -- nesting bound ---------------------------------------------------------------


def nested_program(levels: int) -> str:
    """A definition whose body nests ``levels`` terms deep: fst(spair(..))
    pairs add two levels each and parentheses make up the rest."""
    pairs = (levels - 1) // 2
    parens = levels - 1 - 2 * pairs
    inner = "(" * parens + "a0" + ")" * parens
    return PRELUDE + "def x () | () : A := " + "fst(spair(" * pairs + inner + ", a0))" * pairs + "\n"


def nested_type(levels: int, outer: str) -> str:
    """A type nesting ``levels`` deep through an atom: each ``outer`` wraps
    the type so far in an idJ motive, one level per wrap."""
    ty = "A"
    for _ in range(levels - 1):
        ty = outer.format(f"idJ(z p. {ty}, w. w, w)")
    return ty


def fst_chain(levels: int) -> str:
    """A term nesting ``levels`` deep through one keyword form, fst."""
    return "fst(" * (levels - 1) + "a0" + ")" * (levels - 1)


# a type applied to an atom, and an extension type's clause atom
THROUGH_AN_ATOM = ["(C {})", "<Pi (y : V) A | (x : U) {} . a>"]


def test_nesting_at_the_bound_checks():
    ck = check_source(nested_program(_MAX_NESTING))
    assert "x" in ck.decls
    assert parse_type("Sigma (y : A) " * (_MAX_NESTING - 1) + "A") is not None
    for outer in THROUGH_AN_ATOM:
        assert parse_type(nested_type(_MAX_NESTING, outer)) is not None
    assert parse_term(fst_chain(_MAX_NESTING)) is not None
    # an application spine at the bound is checked (and rejected) without a
    # RecursionError
    with pytest.raises(CheckError, match="cannot apply"):
        check_source(PRELUDE + "def y () | () : A := a0" + " a0" * (_MAX_NESTING - 1) + "\n")


def test_nesting_above_the_bound_is_a_parse_error():
    with pytest.raises(ParseError, match="nesting deeper than"):
        check_source(nested_program(_MAX_NESTING + 1))
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_type("Sigma (y : A) " * _MAX_NESTING + "A")
    for outer in THROUGH_AN_ATOM:
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_type(nested_type(_MAX_NESTING + 1, outer))
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_term(fst_chain(_MAX_NESTING + 1))
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_term("\\x. " * 5000 + "x")
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_term("f" + " a" * _MAX_NESTING)


# -- parse/print round trips ----------------------------------------------------


TERM_SOURCES = [
    "one",
    "a0",
    "\\x . spair(x, b0)",
    "lam(spair(a0, b0))",
    "fst(spair(a0, b0))",
    "hA i0",
    "refl(a0)",
    "idJ(z p. A, x. a0, q01)",
    "in(j0, a0)",
    "coprod-elim(z. B, i x. b0, sc)",
    "pinl(a0)",
    "pglue(a0, i1)",
    "pelim(w. D0, y. d0, z. d0, x i. d4, ps)",
    "app{u. a0, u. a0}(pth, i0)",
    "app{x. hA x}(ff, j0)",
    "(fst(s), b0)",
    "(idJ(z p. A, x. x, q)) a0",
]

TYPE_SOURCES = [
    "One",
    "A",
    "(P j0)",
    "(P (fst(s)))",
    "Hom(A, B)",
    "Hom((x : A) . (C x))",
    "Pi (x : A) B",
    "Sigma (x : A) B",
    "Coprod (i : I1) A",
    "Id(A, a0, a1)",
    "Path(A, a0, a0)",
    "<Pi (y : I1) A | (x : I1) x . hA x>",
    "Pushout(hf, hg)",
]

# one source of each keyword form, as the printer writes it
KEYWORD_SOURCES = {
    S.TId: "Id(A, a0, a1)",
    S.TPath: "Path(A, a0, a0)",
    S.TPushout: "Pushout(hf, hg)",
    S.SPair: "spair(a0, fst(s))",
    S.In: "in(j0, a0)",
    S.Pglue: "pglue(a0, i1)",
    S.Fst: "fst(spair(a0, b0))",
    S.Snd: "snd(s)",
    S.Refl: "refl(f a0)",
    S.Pinl: "pinl(a0)",
    S.Pinr: "pinr(hg a0)",
    S.IdJ: "idJ(z p. Id(A, z, a0), x. a0, q01)",
    S.CoprodElim: "coprod-elim(z. B, i x. b0, sc)",
    S.PushElim: "pelim(w. D0, y. d0, z. d0, x i. d4, ps)",
    S.TPi: "Pi (x : A) B",
    S.TCoprod: "Coprod (i : I1) A",
    S.TSigma: "Sigma (x : A) Id(A, x, a0)",
}


def is_type(t) -> bool:
    return type(t) in get_args(S.Type)


def to_src(t) -> str:
    return S.type_to_src(t) if is_type(t) else S.term_to_src(t)


@pytest.mark.parametrize("src", TERM_SOURCES)
def test_term_print_parse_round_trip(src):
    t = parse_term(src)
    assert S.alpha_equal(parse_term(S.term_to_src(t)), t)


@pytest.mark.parametrize("src", TYPE_SOURCES)
def test_type_print_parse_round_trip(src):
    t = parse_type(src)
    assert S.alpha_equal_type(parse_type(S.type_to_src(t)), t)


@pytest.mark.parametrize("node", [*S.KEYWORDS, *S.BINDER_TYPES], ids=lambda node: node.__name__)
def test_keyword_form_print_parse_round_trip(node):
    # every form of the tables has a source here, read as that form and
    # printed back byte for byte
    src = KEYWORD_SOURCES[node]
    t = (parse_type if node in get_args(S.Type) else parse_term)(src)
    assert type(t) is node
    assert to_src(t) == src


def subterms(t):
    """``t`` and every term and type inside it, through clauses, telescopes
    and a constant's arguments."""
    if isinstance(t, tuple):
        for u in t:
            yield from subterms(u)
    elif hasattr(t, "__dataclass_fields__"):
        if not isinstance(t, (S.EAppClause, S.ExtClause)):
            yield t
        for name in t.__dataclass_fields__:
            yield from subterms(getattr(t, name))


def program_syntax(src: str) -> list:
    """Every term and type of a program's declarations; none if it does not parse."""
    try:
        _, decls = parse_file(src)
    except ParseError:
        return []
    return [
        u for d in decls for part in (d.btele, d.itele or (), d.rhs, d.body) for u in subterms(part)
    ]


def generated_programs() -> dict:
    """The typecheck workload's generated programs, good and bad, by name."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import generate_program

    return {
        f"generated-{size}-{'bad' if bad else 'good'}": generate_program(size, 0, bad)[0]
        for size in (10, 25, 50, 100, 200, 400)
        for bad in (False, True)
    }


PROGRAMS = {**{p.stem: p.read_text() for p in ITT_FILES}, **generated_programs()}


@pytest.mark.parametrize("name", PROGRAMS)
def test_printer_prints_as_before(name):
    # the printer over the keyword tables writes every subterm byte for byte
    # as the per-node printer it replaced
    for t in program_syntax(PROGRAMS[name]):
        old = R.type_to_src(t) if is_type(t) else R.term_to_src(t)
        assert to_src(t) == old


def test_parse_rejects_unbalanced():
    with pytest.raises(ParseError):
        parse_term("fst(spair(a0, b0)")
    with pytest.raises(ParseError):
        parse_type("Pi (x : A")


# -- conversion ------------------------------------------------------------------


def test_beta_reduction():
    t = parse_term("(\\x . spair(x, x)) a0")
    assert equal_terms(t, parse_term("spair(a0, a0)"))


def test_projection_reductions():
    assert equal_terms(parse_term("fst(spair(a0, b0))"), parse_term("a0"))
    assert equal_terms(parse_term("snd(spair(a0, b0))"), parse_term("b0"))


def test_id_elim_on_refl():
    t = parse_term("idJ(z p. A, x. x, refl(a0))")
    assert equal_terms(t, parse_term("a0"))


def test_eta_for_functions_is_type_directed():
    f = parse_term("\\x . hA x")
    g = parse_term("hA")
    ty = parse_type("Pi (i : I1) A")
    assert equal_terms(f, g, ty=ty)
    assert not equal_terms(f, g)  # untyped comparison has no eta


def test_extension_application_restricts():
    # applying at a point of the restriction shape computes via the clause
    ty = parse_type("<Pi (y : I1) A | (x : I1) x . hA x>")
    t = parse_term("app{x. hA x}(ff, j0)")
    assert equal_terms(t, parse_term("hA j0"), ty=ty)


@pytest.mark.parametrize("flip", [False, True], ids=["in-order", "flipped"])
def test_extension_application_restricts_on_both_sides(flip):
    # both sides are redexes of the type's piece, one only after normalizing
    ty = parse_type("<Pi (y : I1) A | (x : I1) x . hA x>")
    t = parse_term("app{x. hA x}(ff, j0)")
    same = parse_term("app{x. hA x}(ff, fst(spair(j0, b0)))")
    other = parse_term("app{x. hA x}(ff, fst(spair(j1, b0)))")
    order = (lambda a, b: (b, a)) if flip else (lambda a, b: (a, b))
    assert equal_terms(*order(t, same), ty=ty)
    assert not equal_terms(*order(t, other), ty=ty)


def test_path_application_hits_endpoints():
    ty = parse_type("Path(A, a0, a1)")
    assert equal_terms(
        parse_term("app{u. a0, u. a1}(pth, i0)"), parse_term("a0"), ty=ty
    )
    assert equal_terms(
        parse_term("app{u. a0, u. a1}(pth, i1)"), parse_term("a1"), ty=ty
    )


TWO_PIECES = """\
postulate B () : Base
postulate A () | () : Type
postulate a0 () | () : A
postulate a1 () | () : A
postulate e () | () : <Pi (y : I1) A | {pieces}>
def d () | () : Id(A, app{{x. {c0}, x. {c1}}}(e, i0), {c0}) := refl({c0})
"""


@pytest.mark.parametrize(
    "pieces, c0, c1",
    [
        ("(x : I1) i1 . a1, (x : I1) i0 . a0", "a1", "a0"),  # the i1 piece first
        ("(x : I1) i0 . a0, (x : I1) i0 . a1", "a0", "a1"),  # no i1 piece
        ("(x : B) i0 . a0, (x : I1) i1 . a1", "a0", "a1"),  # B may be empty
    ],
)
def test_two_clause_application_needs_the_endpoint_pieces(pieces, c0, c1):
    # the endpoint rule of ``step`` reads app{c0, c1}(e, i0) as c0 whatever
    # the pieces say, so the checker admits only the pieces it is sound for
    with pytest.raises(CheckError) as exc:
        check_source(TWO_PIECES.format(pieces=pieces, c0=c0, c1=c1))
    assert exc.value.rule == "ext-app"


def test_two_clause_application_at_the_endpoint_pieces_checks():
    check_source(TWO_PIECES.format(pieces="(x : I1) i0 . a0, (x : I1) i1 . a1", c0="a0", c1="a1"))


def test_pushout_glue_endpoints():
    ty = parse_type("Pushout(hf, hg)")
    assert equal_terms(
        parse_term("pglue(a0, i0)"), parse_term("pinl(hf a0)"), ty=ty
    )
    assert equal_terms(
        parse_term("pglue(a0, i1)"), parse_term("pinr(hg a0)"), ty=ty
    )


def test_delta_unfolding_respects_definitions():
    defs = {"two": parse_term("spair(a0, a0)")}
    assert equal_terms(parse_term("fst(two)"), parse_term("a0"), defs=defs)
    assert not equal_terms(parse_term("fst(two)"), parse_term("a0"))
    assert unfold(parse_term("two"), defs) == defs["two"]


small_terms = st.recursive(
    st.sampled_from([S.One(), S.Var("a0"), S.Var("b0"), S.I0(), S.I1()]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: S.SPair(p[0], p[1])),
        inner.map(S.Fst),
        inner.map(S.Snd),
        inner.map(S.Refl),
    ),
    max_leaves=12,
)


@given(t=small_terms)
@settings(max_examples=80, deadline=None)
def test_normalize_is_idempotent(t):
    n = normalize(t)
    assert normalize(n) == n


@given(t=small_terms)
@settings(max_examples=80, deadline=None)
def test_equal_terms_is_reflexive(t):
    assert equal_terms(t, t)


@given(t=small_terms, u=small_terms)
@settings(max_examples=80, deadline=None)
def test_equal_terms_is_symmetric(t, u):
    assert equal_terms(t, u) == equal_terms(u, t)


@given(t=small_terms)
@settings(max_examples=80, deadline=None)
def test_step_preserves_meaning(t):
    reduct = step(t)
    if reduct is not None:
        assert equal_terms(t, reduct)


def test_type_conversion_unfolds_components():
    assert equal_types(
        parse_type("Sigma (x : A) B"), parse_type("Sigma (y : A) B")
    )
    assert not equal_types(parse_type("A"), parse_type("B"))


# -- checker diagnostics -----------------------------------------------------------


PRELUDE = "postulate A () | () : Type\npostulate a0 () | () : A\n"


def test_check_source_records_declarations():
    ck = check_source(PRELUDE + "def d () | () : A := a0\n")
    assert "A" in ck.decls and "a0" in ck.decls and "d" in ck.decls
    assert "d" in ck.defs


def test_check_error_carries_rule():
    with pytest.raises(CheckError) as exc:
        check_source(PRELUDE + "def d () | () : A := one\n")
    assert exc.value.rule == "conv"


def test_pair_type_names_its_binder_apart():
    # spair(a0, refl(_)) infers Sigma (_' : A) Id(A, _, _): a binder named
    # _ would capture the global _, and snd would give Id(A, a0, a0), at
    # which the normal form refl(_) does not check
    src = PRELUDE + "postulate _ () | () : A\n"
    with pytest.raises(CheckError) as exc:
        check_source(src + "def bad () | () : Id(A, a0, a0) := snd(spair(a0, refl(_)))\n")
    assert "inferred Id(A, _, _)" in str(exc.value)
    check_source(src + "def ok () | () : Id(A, _, _) := snd(spair(a0, refl(_)))\n")


def test_unknown_constant_is_reported():
    with pytest.raises(CheckError) as exc:
        check_source("def d () | () : Missing := one\n")
    assert exc.value.rule in ("type-const", "var")
