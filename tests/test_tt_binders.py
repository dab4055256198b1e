"""The walkers derived from the binder table of ``ssetkit.tt.syntax``.

Capture-avoiding substitution renames every binder, one regression per
binder form; free names, alpha-equivalence and substitution agree with the
per-node walkers kept in ``reference.py`` on random terms and types of
every node kind; ``unfold`` substitutes only the definitions free in its
input; and ``normalize`` raises ``OutOfFuel`` instead of returning a term
that is not normal, which the CLI reports with exit 3.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as R
from ssetkit import cli
from ssetkit.tt import equality
from ssetkit.tt import syntax as S
from ssetkit.tt.equality import OutOfFuel, equal_terms, equal_types, normalize, unfold
from ssetkit.tt.parser import parse_term, parse_type

# -- capture under every binder ----------------------------------------------------


@pytest.mark.parametrize(
    "src, name, value, want",
    [
        ("idJ(z p. A, x. y, q)", "y", "x", "idJ(z p. A, x'. x, q)"),
        (
            "idJ(z p. (D z p w), x. (k x w), w)",
            "w",
            "f z p x",
            "idJ(z' p'. (D z' p' (f z p x)), x'. k x' (f z p x), f z p x)",
        ),
        (
            "coprod-elim(z. (D z w), i x. (k i x w), w)",
            "w",
            "f z i x",
            "coprod-elim(z'. (D z' (f z i x)), i' x'. k i' x' (f z i x), f z i x)",
        ),
        ("idJ(x x. (D x y x'), x. a0, q)", "y", "x", "idJ(x'' x'''. (D x''' x x'), x'. a0, q)"),
        ("pelim(w. D0, y. v, z. v, x i. v, s)", "v", "x", "pelim(w. D0, y. x, z. x, x' i. x, s)"),
        (
            "pelim(w. (D w v), y. (k y v), z. (k z v), x i. (h x i v), v)",
            "v",
            "f w y z x i",
            "pelim(w'. (D w' (f w y z x i)), y'. k y' (f w y z x i), z'. k z' (f w y z x i), "
            "x' i'. h x' i' (f w y z x i), f w y z x i)",
        ),
    ],
    ids=["idJ-x", "idJ-z-p-x", "coprod-elim", "idJ-same-names", "pelim-x", "pelim-all"],
)
def test_term_binders_are_renamed_not_captured(src, name, value, want):
    got = S.subst(parse_term(src), name, parse_term(value))
    assert S.term_to_src(got) == want


def test_extension_type_binders_are_renamed_not_captured():
    ty = S.TExt("y", S.TInterval(), S.TConst("B", (S.Var("w"),)), ())
    assert S.type_to_src(S.subst_type(ty, "w", S.Var("y"))) == "<Pi (y' : I1) (B y) | >"
    ty = parse_type("<Pi (y : I1) (B y w) | (x : I1) (g x w) . (h x w)>")
    got = S.subst_type(ty, "w", parse_term("f x y"))
    assert S.type_to_src(got) == (
        "<Pi (y' : I1) (B y' (f x y)) | (x' : I1) (g x' (f x y)) . h x' (f x y)>"
    )


def test_telescope_binders_are_renamed_not_captured():
    ty = parse_type("Hom((x : A) (y : (B x w)) . (C x y w))")
    got = S.subst_type(ty, "w", parse_term("f x y"))
    assert S.type_to_src(got) == "Hom((x' : A) (y' : (B x' (f x y))) . (C x' y' (f x y)))"
    # a later telescope entry of the same name shadows the first
    ty = parse_type("Hom((x : A) (x : (B x)) . (C x w))")
    assert S.type_to_src(S.subst_type(ty, "w", S.Var("x"))) == (
        "Hom((x' : A) (x' : (B x')) . (C x' x))"
    )


def test_type_walkers_are_the_term_walkers():
    assert S.subst_type is S.subst
    assert S.free_vars_type is S.free_vars
    assert S.alpha_equal_type is S.alpha_equal


# -- agreement with the per-node walkers ---------------------------------------------

POOL = ["x", "y", "x'", "z"]
names = st.sampled_from(POOL)
TERM_LEAVES = st.one_of(
    names.map(S.Var), st.sampled_from([S.One(), S.I0(), S.I1(), S.Var("a0")])
)
TYPE_LEAVES = st.sampled_from([S.TConst("A"), S.TUnit(), S.TInterval()])

# the arguments of each constructor: n a name, t a term, T a type, k a
# constant's name, and tuples of up to two or three: a terms, C clauses of
# EApp, E clauses of TExt, L telescope entries
TERM_FORMS = {
    S.Lam: "nt", S.App: "tt", S.HomLam: "t", S.HomApp: "t", S.EApp: "Ctt", S.SPair: "tt",
    S.Fst: "t", S.Snd: "t", S.Refl: "t", S.IdJ: "nnTntt", S.In: "tt", S.CPair: "tt",
    S.CoprodElim: "nTnntt", S.Pinl: "t", S.Pinr: "t", S.Pglue: "tt",
    S.PushElim: "nTntntnntt",
}
TYPE_FORMS = {
    S.TConst: "ka", S.THom: "TT", S.TDepHom: "LT", S.TPi: "nTT", S.TCoprod: "nTT",
    S.TSigma: "nTT", S.TId: "Ttt", S.TPath: "Ttt", S.TExt: "nTTE", S.TPushout: "tt",
}


# the forms whose binders the reference substitution renames, and the others
RENAMED_FORMS = (S.Lam, S.EAppClause, S.TPi, S.TCoprod, S.TSigma)
KEPT_FORMS = (S.IdJ, S.CoprodElim, S.PushElim, S.TExt, S.TDepHom)


def _arg(code: str, depth: int, kept: bool):
    def sub(sort):
        return syntax(sort, depth, kept)

    tuples = {
        "a": lambda: sub("t"),
        "C": lambda: st.builds(S.EAppClause, names, sub("t")),
        "E": lambda: st.builds(S.ExtClause, names, sub("T"), sub("t"), sub("t")),
        "L": lambda: st.tuples(names, sub("T")),
    }
    if code in tuples:
        return st.lists(tuples[code](), max_size=3 if code == "L" else 2).map(tuple)
    if code == "n":
        return names
    if code == "k":
        return st.sampled_from(["A", "B"])
    return sub(code)


@st.composite
def syntax(draw, sort: str, depth: int = 4, kept: bool = True):
    """A term (sort "t") or a type (sort "T") of every node kind, nested at
    most ``depth`` constructors deep; without the ``KEPT_FORMS`` unless
    ``kept``."""
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        return draw(TERM_LEAVES if sort == "t" else TYPE_LEAVES)
    forms = TERM_FORMS if sort == "t" else TYPE_FORMS
    cls = draw(st.sampled_from([c for c in forms if kept or c not in KEPT_FORMS]))
    return cls(*(draw(_arg(code, depth - 1, kept)) for code in forms[cls]))


either = st.one_of(syntax("t"), syntax("T"))
values = st.one_of(names.map(S.Var), syntax("t", 2))


def _ref(t, term_fn, type_fn):
    return term_fn if type(t) not in S._TYPES else type_fn


def _show(t) -> str:
    return S.type_to_src(t) if type(t) in S._TYPES else S.term_to_src(t)


def _binders(t, renamed: bool) -> set:
    """Binder names in ``t`` of the forms the reference substitution renames
    (``renamed``) or does not."""
    out = set()
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, tuple):
            todo.extend(u)
            continue
        if not hasattr(u, "__dataclass_fields__"):
            continue
        if type(u) is S.TDepHom:
            if not renamed:
                out.update(n for n, _ in u.tele)
            todo.extend(ty for _, ty in u.tele)
            todo.append(u.b)
            continue
        if (type(u) in RENAMED_FORMS) == renamed:
            for binders, _ in S.BINDERS.get(type(u), ()):
                out.update(getattr(u, b) for b in binders)
        todo.extend(getattr(u, f) for f in u.__dataclass_fields__)
    return out


def _old_code_is_safe(t, value) -> bool:
    """The reference misses a capture only at a binder of a form it does not
    rename that meets a free name of the value, or a name that renaming
    builds by priming a binder it does rename."""
    bases = {b.rstrip("'") for b in _binders(t, renamed=True)}
    return not any(
        n in S.free_vars(value) or (n.endswith("'") and n.rstrip("'") in bases)
        for n in _binders(t, renamed=False)
    )


@given(t=either)
@settings(max_examples=300, deadline=None)
def test_free_vars_agrees_with_the_reference(t):
    assert S.free_vars(t) == _ref(t, R.free_vars, R.free_vars_type)(t)


@given(t=either)
@settings(max_examples=300, deadline=None)
def test_printer_agrees_with_the_reference(t):
    assert _show(t) == _ref(t, R.term_to_src, R.type_to_src)(t)


@given(
    sort=st.sampled_from("tT"),
    data=st.data(),
    env=st.lists(st.tuples(names, names), max_size=2).map(tuple),
)
@settings(max_examples=300, deadline=None)
def test_alpha_equal_agrees_with_the_reference(sort, data, env):
    t, u = data.draw(syntax(sort)), data.draw(syntax(sort))
    # renaming binders only (w is in no pool) gives alpha-equivalent copies
    v = S.subst(t, "w", S.Var("x"))
    for a, b in ((t, u), (t, t), (t, v)):
        assert S.alpha_equal(a, b, env) == _ref(t, R.alpha_equal, R.alpha_equal_type)(a, b, env)
    assert S.alpha_equal(t, v)


@given(t=either, name=names, value=values)
@settings(max_examples=400, deadline=None)
def test_subst_agrees_with_the_reference_and_avoids_capture(t, name, value):
    got = S.subst(t, name, value)
    fv = S.free_vars(t)
    assert S.free_vars(got) == (fv - {name}) | (S.free_vars(value) if name in fv else frozenset())
    if _old_code_is_safe(t, value):
        assert _show(got) == _show(_ref(t, R.subst, R.subst_type)(t, name, value))


@given(
    t=st.one_of(syntax("t", kept=False), syntax("T", kept=False)),
    name=names,
    value=st.one_of(names.map(S.Var), syntax("t", 2, kept=False)),
)
@settings(max_examples=300, deadline=None)
def test_subst_picks_the_reference_names_where_it_renames(t, name, value):
    # only binders the reference renames: it captures nothing, and the
    # fresh names, which error messages print, must not change
    assert _show(S.subst(t, name, value)) == _show(_ref(t, R.subst, R.subst_type)(t, name, value))


@given(t=either)
@settings(max_examples=200, deadline=None)
def test_map_children_with_identity_rebuilds_an_equal_node(t):
    assert S.map_children(t, lambda u: u, lambda u: u) == t
    seen = []
    S.map_children(t, lambda u: seen.append(u) or u)
    assert all(type(u) not in S._TYPES for u in seen)


def test_type_equality_normalizes_the_terms_in_nested_types():
    assert equal_types(
        parse_type("Pi (i : I1) Sigma (x : A) (P (fst(spair(a0, b0))))"),
        parse_type("Pi (j : I1) Sigma (y : A) (P a0)"),
    )
    assert not equal_types(parse_type("Sigma (x : A) (P a0)"), parse_type("Sigma (x : A) (P b0)"))


# -- unfold ---------------------------------------------------------------------------


def test_unfold_substitutes_only_free_definitions_into_types():
    defs = {"d": parse_term("spair(a0, y)"), "e": parse_term("a0")}
    ty = parse_type("Pi (y : A) (C e)")
    assert unfold(ty, defs) == parse_type("Pi (y : A) (C a0)")
    # no definition is free: nothing is substituted, so no binder is renamed
    ty = parse_type("Pi (y : A) (C y)")
    assert unfold(ty, defs) is ty
    assert S.type_to_src(unfold(parse_type("Pi (y : A) (C d)"), defs)) == (
        "Pi (y' : A) (C spair(a0, y))"
    )


# -- fuel -------------------------------------------------------------------------------


def tower(n: int):
    t = parse_term("a0")
    for _ in range(n):
        t = S.Fst(S.SPair(t, S.Var("b0")))
    return t


def test_running_out_of_fuel_raises(monkeypatch):
    monkeypatch.setattr(equality, "FUEL", 5)
    assert normalize(tower(5)) == S.Var("a0")
    with pytest.raises(OutOfFuel):
        normalize(tower(6))
    # nested redexes under a normal root get the fuel that is left
    with pytest.raises(OutOfFuel):
        normalize(S.SPair(tower(6), S.Var("b0")))
    with pytest.raises(OutOfFuel):
        equal_terms(tower(6), S.Var("a0"))


PROGRAM = """\
postulate A () | () : Type
postulate B () | () : Type
postulate a0 () | () : A
postulate b0 () | () : B
def x () | () : A := fst(spair(fst(spair(fst(spair(a0, b0)), b0)), b0))
"""


@pytest.mark.parametrize("verb", ["check", "interp"])
def test_cli_reports_running_out_of_fuel_as_exit_3(verb, tmp_path, capsys, monkeypatch):
    path = tmp_path / "fuel.itt"
    path.write_text(PROGRAM)
    assert cli.main([verb, str(path), "--json"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(equality, "FUEL", 2)
    assert cli.main([verb, str(path), "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ssetkit: normalization ran out of fuel after 2 beta steps\n"
