"""The twelve-point verification suite shared by the CLI and the test gate.

Each criterion function takes no parameters and returns a
:class:`CriterionResult`; ``run_all`` runs them in order.  The functions are
deterministic, so the suite is a fixture: the CLI ``suite`` verb and
``tests/test_acceptance.py`` both call into here.

Each criterion runs at its own fixed depth:

1. random-validation: none (validation only; objects of dimension <= 3);
2. hom-adjunctions: exponentials and pushforwards at depth 2;
3. condition-agreement: level 3;
4. core-and-b-values: cores at level 3, b at levels 1, 2 and 3, b of the
   horn inclusions at level 2;
5. fibration-core-check: depth 3;
6. kan-factorization: level 2, budget ``BUDGET``;
7. composite-invertibility: level 3;
8. classifier-truths: depth 3;
9. strict-substitution: depth 2 and budget 300 (``split_substitution_suite``'s
   defaults);
10. program-corpus: none (type checking only);
11. localized-homs: depth 2, budget ``BUDGET``;
12. identity-closure: depth 2, budget ``BUDGET``.

The suite's document records ``DEPTH``, the highest of these, and ``BUDGET``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .corpus import (
    adjunction_pairs,
    catfib_corpus,
    discrete,
    gkan_corpus,
    groupoid_cover_corpus,
    lemma_corpus,
    qcat_corpus,
    random_ssets,
    small_objects,
)
from .joyal import (
    b_map,
    b_functor,
    composite_invertibility_check,
    core_G,
    core_kan_check,
    factor_g_kan,
    lemma_four_conditions,
)
from .kernel import (
    FinSSet,
    boundary,
    compose,
    constant_map,
    count_maps,
    enumerate_sections,
    exponential,
    find_isomorphism,
    horn,
    identity,
    initial_map,
    interval_groupoid_skeleton,
    product,
    pullback,
    pushforward,
    std_simplex,
    terminal,
    terminal_map,
)
from .lifting import cat_family, classify, has_rlp, identity_closure_check, inner_family, kan_family
from .model import (
    Binder,
    FibClassSpec,
    LUContext,
    LUTerm,
    LUType,
    ctx_extend,
    dep_coprod,
    dep_coprod_elim,
    dep_coprod_intro,
    extension_app,
    extension_lam,
    extension_type,
    hom_app,
    hom_lam,
    hom_type,
    id_refl,
    id_type,
    pi_app,
    pi_app_var,
    pi_lam,
    pi_type,
    q_map,
    sigma_pair,
    sigma_proj1,
    sigma_proj2,
    sigma_type,
    subst,
    subst_term,
    unit_term,
    unit_type,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA", "DEPTH", "BUDGET", "itt_corpus_dir"]

DEPTH = 3  # the highest depth any criterion runs at
BUDGET = 500  # the factorization budget of criteria 6, 11 and 12


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str


def itt_corpus_dir() -> Optional[Path]:
    """Locate corpus/itt next to an installed or checked-out package."""
    here = Path(__file__).resolve()
    for base in [here.parents[2], *here.parents]:
        cand = base / "corpus" / "itt"
        if cand.is_dir():
            return cand
    return None


# ---------------------------------------------------------------- 1: validation


def criterion_1() -> CriterionResult:
    """1000 seeded random simplicial sets of dim <= 3 all validate, in < 60s."""
    t0 = time.monotonic()
    objs = random_ssets(1000, seed=11, max_dim=3, max_cells=8)
    bad = 0
    for x in objs:
        problems = x.validate()
        if problems:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 60.0
    bound = "under the 60s bound" if elapsed < 60.0 else "over the 60s bound"
    return CriterionResult(1, "random-validation", ok, f"1000 objects, {bad} invalid, {bound}")


# ---------------------------------------------------- 2: hom-counting adjunctions


def criterion_2() -> CriterionResult:
    checks = 0
    fails = []
    # representable homs count simplices
    for x in small_objects():
        for n in range(3):
            if x.dim_bound is not None and n > x.dim_bound:
                continue
            got = count_maps(std_simplex(n), x)
            want = len(x.simplices(n))
            checks += 1
            if got != want:
                fails.append(f"yoneda dim {n}: {got} != {want}")
    # product/exponential transposition
    targets = [std_simplex(1), discrete(2)]
    for a, b in adjunction_pairs():
        for c in targets:
            lhs = count_maps(product(a, b).sset, c)
            rhs = count_maps(a, exponential(c, b, depth=2).sset)
            checks += 1
            if lhs != rhs:
                fails.append(f"exp transpose: {lhs} != {rhs}")
    # pullback/pushforward transposition
    instances = [
        # (f: A -> B, g: E -> A, w_map: W -> B)
        (
            terminal_map(discrete(2)),
            product(discrete(2), discrete(2)).proj1,
            terminal_map(std_simplex(1)),
        ),
        (
            constant_map(terminal(), std_simplex(1), "0"),
            identity(terminal()),
            identity(std_simplex(1)),
        ),
        (
            terminal_map(std_simplex(1)),
            identity(std_simplex(1)),
            terminal_map(discrete(2)),
        ),
    ]
    for f, g, w_map in instances:
        push = pushforward(f, g, depth=2)
        pb = pullback(w_map, f)
        lhs = sum(1 for _ in enumerate_sections(g, pb.proj2))
        rhs = sum(1 for _ in enumerate_sections(push.struct, w_map))
        checks += 1
        if lhs != rhs:
            fails.append(f"pushforward transpose: {lhs} != {rhs}")
    ok = not fails
    return CriterionResult(
        2, "hom-adjunctions", ok, f"{checks} bijections; " + (fails[0] if fails else "all exact")
    )


# ------------------------------------------------- 3: invertibility conditions


def criterion_3() -> CriterionResult:
    disagreements = 0
    unknowns = 0
    objs = lemma_corpus(200)
    for x in objs:
        rep = lemma_four_conditions(x, level=3)
        if rep.unknown_edges:
            unknowns += 1
        elif not rep.agree:
            disagreements += 1
    ok = disagreements == 0 and unknowns == 0
    return CriterionResult(
        3,
        "condition-agreement",
        ok,
        f"200 objects at level 3: {disagreements} disagreements, {unknowns} with unknowns",
    )


# ---------------------------------------------------------- 4: core and b values


def criterion_4() -> CriterionResult:
    fails = []
    core1 = core_G(std_simplex(1), level=3).core
    if find_isomorphism(core1, boundary(1)[0]) is None:
        fails.append("core of the 1-simplex is not its endpoints")
    core0 = core_G(terminal(), level=3).core
    if find_isomorphism(core0, terminal()) is None:
        fails.append("core of the point is not the point")
    for level in (1, 2, 3):
        bx = b_functor(std_simplex(1), level=level).sset
        sk, _ = interval_groupoid_skeleton(level)
        if find_isomorphism(bx, sk) is None:
            fails.append(f"b(interval) at level {level} is not the free-inversion skeleton")
    for n in range(1, 4):
        for k in range(n + 1):
            bf = b_map(horn(n, k)[1], level=2)
            if not bf.is_mono():
                fails.append(f"b(horn({n},{k}) incl) is not mono")
    ok = not fails
    return CriterionResult(4, "core-and-b-values", ok, fails[0] if fails else "all values match")


# ----------------------------------------------------- 5: fibration core check


def criterion_5() -> CriterionResult:
    maps = catfib_corpus(50)
    fails = 0
    for f in maps:
        ok_cat, _ = has_rlp(f, cat_family(3))
        if not ok_cat:
            fails += 1
            continue
        rep = core_kan_check(f, level=3)
        if not rep.kan_ok:
            fails += 1
    ok = fails == 0
    return CriterionResult(5, "fibration-core-check", ok, f"50 maps at depth 3, {fails} failures")


# ----------------------------------------------------------- 6: factorization


def criterion_6() -> CriterionResult:
    maps = gkan_corpus(20)
    fails = []
    for idx, f in enumerate(maps):
        rep = factor_g_kan(f, level=2, budget=BUDGET)
        fac = rep.factorization
        if not fac.complete:
            fails.append(f"map {idx}: budget exhausted")
        elif not fac.left.is_mono():
            fails.append(f"map {idx}: left leg not mono")
        elif not rep.right_is_kan:
            fails.append(f"map {idx}: right leg fails Kan lifting")
        elif not rep.middle_all_invertible:
            fails.append(f"map {idx}: middle object has non-invertible edges")
    ok = not fails
    return CriterionResult(6, "kan-factorization", ok, fails[0] if fails else "20 maps factored")


# -------------------------------------------------- 7: composite invertibility


def criterion_7() -> CriterionResult:
    fails = 0
    unknowns = 0
    for x in qcat_corpus():
        rep = composite_invertibility_check(x, level=3)
        fails += len(rep.failures)
        unknowns += len(rep.unknowns)
    ok = fails == 0
    return CriterionResult(
        7, "composite-invertibility", ok, f"{fails} violations, {unknowns} unknowns"
    )


# ------------------------------------------------------ 8: classifier truths


def criterion_8() -> CriterionResult:
    fails = []
    c_empty = classify(initial_map(terminal()), depth=3)
    if not c_empty.kan_fib:
        fails.append("empty -> point should be a Kan-type fibration")
    c_int = classify(terminal_map(std_simplex(1)), depth=3)
    if not c_int.inner_fib:
        fails.append("interval -> point should be an inner fibration")
    if c_int.kan_fib:
        fails.append("interval -> point should fail Kan lifting")
    else:
        ce = c_int.counterexamples.get("kan")
        if ce is None or find_isomorphism(ce.left.source, horn(2, 0)[0]) is None:
            fails.append("kan counterexample should be an outer-horn square")
    if c_int.trivial_fib:
        fails.append("interval -> point should fail trivial-fibration lifting")
    else:
        ce = c_int.counterexamples.get("trivial")
        if ce is None or find_isomorphism(ce.left.source, boundary(1)[0]) is None:
            fails.append("trivial counterexample should be an endpoints square")
    ok = not fails
    return CriterionResult(8, "classifier-truths", ok, fails[0] if fails else "all verdicts match")


# --------------------------------------- 9: strict substitution and equations


def _constant_type(gamma: LUContext, fiber: FinSSet, spec: FibClassSpec) -> LUType:
    return LUType(gamma, terminal_map(gamma.sset), terminal_map(fiber), spec)


def split_substitution_suite(depth: int = 2, budget: int = 300) -> list[tuple[str, bool]]:
    """Strictness and equation judgments for the type formers.

    Each entry is (name, holds); substitution judgments compare types and
    terms with the strict dataclass equality (context, classifier, fibration),
    and the beta/eta judgments compare sections on the nose.
    """
    spec = FibClassSpec("kan", depth)
    base_spec = FibClassSpec("inner", depth)
    out: list[tuple[str, bool]] = []

    gamma = LUContext(std_simplex(1))
    delta = LUContext(terminal())
    sigma = constant_map(delta.sset, gamma.sset, "0")  # vertex substitution
    tau = constant_map(std_simplex(2), gamma.sset, "1")

    # unit
    u_g = unit_type(gamma, spec)
    u_d = unit_type(delta, spec)
    out.append(("unit-subst", subst(u_g, sigma) == u_d))
    out.append(("unit-term-subst", subst_term(unit_term(u_g), sigma) == unit_term(u_d)))
    out.append(
        ("subst-compose", subst(u_g, compose(sigma, terminal_map(delta.sset))) == subst(subst(u_g, sigma), terminal_map(delta.sset)))
    )

    # a constant two-point type and its extension
    k_g = _constant_type(gamma, discrete(2), spec)
    k_d = _constant_type(delta, discrete(2), spec)
    out.append(("const-subst", subst(k_g, sigma) == k_d))
    ext_g = ctx_extend(gamma, k_g)
    ext_d = ctx_extend(delta, k_d)
    sig_ext = q_map(sigma, ext_g.pb, ext_d.pb)
    out.append(("ext-proj-natural", compose(sigma, ext_d.proj) == compose(ext_g.proj, sig_ext)))
    out.append(("ext-var-strict", subst_term(ext_g.var, sig_ext) == ext_d.var))

    # terms of the constant type
    p0_g = LUTerm(k_g, constant_map(gamma.sset, discrete(2), "p0"))
    p0_d = LUTerm(k_d, constant_map(delta.sset, discrete(2), "p0"))
    p1_g = LUTerm(k_g, constant_map(gamma.sset, discrete(2), "p1"))
    out.append(("term-subst", subst_term(p0_g, sigma) == p0_d))

    # sigma
    b_g = _constant_type(ext_g.ctx, discrete(2), spec)
    b_d = _constant_type(ext_d.ctx, discrete(2), spec)
    s_g = sigma_type(bd_g := Binder(k_g, ext_g.pb, b_g))
    s_d = sigma_type(bd_d := Binder(k_d, ext_d.pb, b_d))
    out.append(("sigma-subst", subst(s_g, sigma) == s_d))
    sa = ext_g.pb.pair(identity(gamma.sset), p0_g.section)
    bt = LUTerm(subst(b_g, sa), constant_map(gamma.sset, discrete(2), "p1"))
    pair = sigma_pair(s_g, p0_g, bt)
    out.append(("sigma-beta-1", sigma_proj1(s_g, pair) == p0_g))
    out.append(("sigma-beta-2", sigma_proj2(s_g, pair).section == bt.section))
    out.append(
        ("sigma-eta", sigma_pair(s_g, sigma_proj1(s_g, pair), sigma_proj2(s_g, pair)) == pair)
    )
    out.append(("sigma-pair-subst", subst_term(pair, sigma) == sigma_pair(s_d, subst_term(p0_g, sigma), LUTerm(subst(bt.type, sigma), compose(bt.section, sigma)))))

    # identity types
    id_g = id_type(k_g, p0_g, p0_g, budget)
    id_d = id_type(k_d, p0_d, p0_d, budget)
    out.append(("id-subst", subst(id_g, sigma) == id_d))
    out.append(("id-refl-subst", subst_term(id_refl(id_g, p0_g), sigma) == id_refl(id_d, p0_d)))

    # pi and hom
    pi_g = pi_type(bd_g)
    pi_d = pi_type(bd_d)
    out.append(("pi-subst", subst(pi_g, sigma) == pi_d))
    body = LUTerm(b_g, constant_map(ext_g.ctx.sset, discrete(2), "p0"))
    f_g = pi_lam(pi_g, body)
    out.append(("pi-beta", pi_app(pi_g, f_g, p1_g).section == compose(body.section, sa1 := ext_g.pb.pair(identity(gamma.sset), p1_g.section))))
    out.append(("pi-eta", pi_lam(pi_g, pi_app_var(pi_g, f_g)) == f_g))
    out.append(("pi-lam-subst", subst_term(f_g, sigma) == pi_lam(pi_d, LUTerm(b_d, compose(body.section, sig_ext)))))

    hom_g = hom_type(pi_g, base_spec)
    hom_d = hom_type(pi_d, base_spec)
    out.append(("hom-subst", subst(hom_g, sigma) == hom_d))
    h_g = hom_lam(hom_g, f_g)
    out.append(("hom-beta", hom_app(hom_g, h_g) == f_g))
    out.append(("hom-eta", hom_lam(hom_g, hom_app(hom_g, h_g)) == h_g))
    out.append(("hom-lam-subst", subst_term(h_g, sigma) == hom_lam(hom_d, subst_term(f_g, sigma))))

    # dependent product over a base type: Pi over the base type reindexed to the context
    i_type = LUType(LUContext(terminal()), identity(terminal()), terminal_map(discrete(2)), base_spec)
    i_g = subst(i_type, terminal_map(gamma.sset))
    i_d = subst(i_type, terminal_map(delta.sset))
    pb_g = ctx_extend(gamma, i_g).pb
    pb_d = ctx_extend(delta, i_d).pb
    fam_g = Binder(i_g, pb_g, _constant_type(LUContext(pb_g.sset), discrete(2), spec))
    fam_d = Binder(i_d, pb_d, _constant_type(LUContext(pb_d.sset), discrete(2), spec))
    dp_g = pi_type(fam_g)
    dp_d = pi_type(fam_d)
    out.append(("dep-prod-subst", subst(dp_g, sigma) == dp_d))
    dbody = LUTerm(fam_g.b, constant_map(pb_g.sset, discrete(2), "p1"))
    df = pi_lam(dp_g, dbody)
    j_sec = constant_map(gamma.sset, discrete(2), "p0")
    sj = pb_g.pair(identity(gamma.sset), j_sec)
    out.append(("dep-prod-beta", pi_app(dp_g, df, LUTerm(i_g, j_sec)).section == compose(dbody.section, sj)))
    out.append(("dep-prod-eta", pi_lam(dp_g, pi_app_var(dp_g, df)) == df))
    sig_pb = q_map(sigma, pb_g, pb_d)
    out.append(("dep-prod-lam-subst", subst_term(df, sigma) == pi_lam(dp_d, LUTerm(fam_d.b, compose(dbody.section, sig_pb)))))

    # dependent coproduct (stable variant, so the eliminator is available)
    dc_g = dep_coprod(fam_g, budget, variant="stable")
    dc_d = dep_coprod(fam_d, budget, variant="stable")
    out.append(("dep-coprod-subst", subst(dc_g, sigma) == dc_d))
    cb = LUTerm(subst(fam_g.b, sj), constant_map(gamma.sset, discrete(2), "p0"))
    intro = dep_coprod_intro(dc_g, j_sec, cb)
    out.append(
        ("dep-coprod-intro-subst", subst_term(intro, sigma) == dep_coprod_intro(dc_d, compose(j_sec, sigma), LUTerm(subst(cb.type, sigma), compose(cb.section, sigma))))
    )
    ext_c = ctx_extend(LUContext(gamma.sset), dc_g)
    d_type = _constant_type(ext_c.ctx, discrete(2), spec)
    ext_b = pullback(fam_g.b.r, fam_g.b.p)
    d_sec = constant_map(ext_b.sset, discrete(2), "p1")
    elim = dep_coprod_elim(dc_g, d_type, d_sec, intro)
    out.append(("dep-coprod-beta", elim.section == constant_map(gamma.sset, discrete(2), "p1")))

    # extension (path) types: y : I binds through the chosen extension by the constant type
    interval = std_simplex(1)
    u, j_incl = boundary(1)

    def path_type(ctx: LUContext) -> LUType:
        v = _constant_type(ctx, interval, base_spec)
        pb_v = ctx_extend(ctx, v).pb
        partial = constant_map(pullback(v.r, terminal_map(u)).sset, discrete(2), "p0")
        a_over = _constant_type(LUContext(pb_v.sset), discrete(2), spec)
        return extension_type(Binder(v, pb_v, a_over), j_incl, partial)

    pth_g = path_type(gamma)
    out.append(("extension-subst", subst(pth_g, sigma) == path_type(delta)))
    pb_gv = pth_g.former.binder.pb
    total_sec = constant_map(pb_gv.sset, discrete(2), "p0")
    lam = extension_lam(pth_g, total_sec)
    v_pt = constant_map(gamma.sset, interval, "0")
    app_sec = extension_app(pth_g, lam, v_pt).section
    out.append(("extension-beta", app_sec == compose(total_sec, pb_gv.pair(identity(gamma.sset), v_pt))))

    # weakening is substitution along the chosen projection
    out.append(("weaken-as-subst", subst(k_g, ext_g.proj) == LUType(ext_g.ctx, compose(k_g.r, ext_g.proj), k_g.p, spec)))
    out.append(("tau-subst", subst(subst(u_g, tau), identity(std_simplex(2))) == subst(u_g, tau)))
    return out


def criterion_9() -> CriterionResult:
    suite = split_substitution_suite()
    bad = [name for name, holds in suite if not holds]
    ok = not bad and len(suite) >= 30
    return CriterionResult(
        9,
        "strict-substitution",
        ok,
        f"{len(suite)} judgments; " + (f"failed: {bad[0]}" if bad else "all strict"),
    )


# ----------------------------------------------- 10: program corpus and fuzz


def _leftmost_step(t):
    """One beta step at the leftmost-outermost redex, or None in normal form."""
    from .tt.equality import step
    from .tt.syntax import map_children

    red = step(t)
    if red is not None:
        return red
    found = False

    def first(u):
        nonlocal found
        if not found:
            red = _leftmost_step(u)
            if red is not None:
                found = True
                return red
        return u

    out = map_children(t, first)
    return out if found else None


def _random_redex_term(rng: random.Random):
    """A well-typed term of the postulated type A, wrapped in random redexes."""
    from .tt import syntax as S

    t: object = S.Var("a0")
    for _ in range(rng.randint(1, 6)):
        pick = rng.randrange(3)
        if pick == 0:
            t = S.Fst(S.SPair(t, S.Var("b0")))
        elif pick == 1:
            t = S.Snd(S.SPair(S.Var("b0"), t))
        else:
            t = S.IdJ("z", "p", S.TConst("A", ()), "x", t, S.Refl(S.Var("a0")))
    return t


_FUZZ_PRELUDE = """\
postulate A () | () : Type
postulate B () | () : Type
postulate a0 () | () : A
postulate b0 () | () : B
"""


def subject_reduction_fuzz(steps: int = 500, seed: int = 23) -> tuple[int, int]:
    """Take >= ``steps`` single reduction steps on checked terms; re-check each."""
    from .tt import check_source
    from .tt import syntax as S
    from .tt.checker import Ctx

    ck = check_source(_FUZZ_PRELUDE)
    a_ty = S.TConst("A", ())
    rng = random.Random(seed)
    taken = 0
    violations = 0
    while taken < steps:
        t = _random_redex_term(rng)
        ck.check_term(Ctx(), t, a_ty)
        while True:
            red = _leftmost_step(t)
            if red is None:
                break
            try:
                ck.check_term(Ctx(), red, a_ty)
            except Exception:
                violations += 1
            t = red
            taken += 1
    return taken, violations


def criterion_10() -> CriterionResult:
    from .tt import CheckError, check_source
    from .tt.parser import ParseError

    cdir = itt_corpus_dir()
    if cdir is None:
        return CriterionResult(10, "program-corpus", False, "corpus/itt not found")
    good = bad = mismatched = 0
    for path in sorted(cdir.glob("*.itt")):
        src = path.read_text()
        first = src.splitlines()[0]
        expect = first.split("-- expect:", 1)[1].strip()
        try:
            check_source(src)
            verdict = "ok"
        except ParseError:
            verdict = "error parse"
        except CheckError as e:
            verdict = f"error {e.rule}"
        if verdict != expect:
            mismatched += 1
        elif expect == "ok":
            good += 1
        else:
            bad += 1
    steps, violations = subject_reduction_fuzz(500)
    ok = mismatched == 0 and good >= 40 and bad >= 40 and violations == 0
    return CriterionResult(
        10,
        "program-corpus",
        ok,
        f"{good} well-typed, {bad} ill-typed, {mismatched} mismatches; "
        f"{steps} reduction steps, {violations} violations",
    )


# -------------------------------------------------------- 11: localized homs


def criterion_11() -> CriterionResult:
    fine = FibClassSpec("kan", 2)
    coarse = FibClassSpec("inner", 2)
    gamma = LUContext(terminal())
    suite: list[LUType] = [
        unit_type(gamma, fine),
        _constant_type(gamma, discrete(2), fine),
    ]
    k = suite[1]
    ext = ctx_extend(gamma, k)
    suite.append(sigma_type(Binder(k, ext.pb, unit_type(ext.ctx, fine))))
    p0 = LUTerm(k, constant_map(gamma.sset, discrete(2), "p0"))
    suite.append(id_type(k, p0, p0, BUDGET))
    fails = []
    for idx, a in enumerate(suite):
        accepted, ce = coarse.check(a.p)
        if not accepted:
            fails.append(f"type {idx}: rejected by the coarser class")
            continue
        ext_a = ctx_extend(gamma, a)
        pi = pi_type(Binder(a, ext_a.pb, subst(a, ext_a.proj)))
        hom = hom_type(pi, coarse)
        try:
            hom.validate_fibration()
        except Exception as e:  # noqa: BLE001 - report, don't crash the suite
            fails.append(f"type {idx}: hom fibration rejected: {e}")
            continue
        f = pi_lam(pi, ext_a.var)
        h = hom_lam(hom, f)
        if hom_app(hom, h) != f:
            fails.append(f"type {idx}: hom transposition is not a section inverse")
    ok = not fails
    return CriterionResult(
        11, "localized-homs", ok, fails[0] if fails else f"{len(suite)} types localize"
    )


# ------------------------------------------------------- 12: identity closure


def criterion_12() -> CriterionResult:
    rep = identity_closure_check(
        groupoid_cover_corpus(), kan_family(2), inner_family(2), budget=BUDGET
    )
    ok = rep.ok
    detail = "closed under the finer class" if ok else f"failures: {rep.failures}"
    return CriterionResult(12, "identity-closure", ok, detail)


CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
