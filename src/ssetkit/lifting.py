"""Lifting problems, generator families, classifiers, and the bounded
by-need small object argument.

Depth semantics: every check is relative to a family of generating maps cut
off at a declared dimension.  A failed lift is a sound refutation; a passed
check certifies the property "up to depth".

Squares against horn and boundary inclusions are decided by face lookups.
When the left leg i: A -> Δ^n is ``horn(n, k)[1]`` or ``boundary(n)[1]``
(the generators of the kan, inner and trivial families), a map Δ^n -> Y is
an n-simplex y of Y by Yoneda, and a filler of the square (u, y) against
p: X -> Y is an n-simplex x of X with x|A = u and p x = y.  A is the union
of the facets d_i ι it contains, so x|A = u says d_i x = u(d_i ι) for those
i: the matching-set form of the Kan condition (Goerss and Jardine,
*Simplicial Homotopy Theory*, I.3).  For each u, in ``enumerate_maps``
order, ``_first_unmatched`` looks the bottoms y up with
``FinSSet.simplices_with_faces`` by the faces p u gives them, in the order
``enumerate_maps(Δ^n, Y, forced=...)`` yields them: the missing facet of a
horn first, then the top cell, each level-0 cell by a scan of
``simplices(0)``.  It looks the fillers x up the same way, by the faces u
gives them, lazily.  The first y that is no p x gives the counterexample
(u, ``yoneda(Y, y)``), the square the general path reports first.  The
lookups into X and into Y go through one ``face_lookup`` each per call, so
a face tuple that recurs across the tops u is looked up once.  Nothing is
built per object or over a level, and the truncation checks fall where the
general path's searches make them.
Every other left leg, such as the vertex inclusion of ``cat_family`` or a
map given to ``has_llp``, takes the general path: ``lifting_problems``
searches maps for each bottom and ``solve_lift`` a section for each filler.

The families share generators: the inner horns are kan horns, and
``cat_family`` is the inner horns plus {0} -> J.  ``classify`` scans each
distinct generator against p once per call, 14 scans at depth 3 where the
four families list 20 generators.  The sharing is per call, not per
object: see ``classify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .kernel import (
    FinSSet,
    SMap,
    SSetError,
    Simplex,
    boundary,
    check_represented,
    compose,
    enumerate_maps,
    enumerate_sections,
    face_lookup,
    horn,
    identity,
    interval_groupoid_skeleton,
    nondeg,
    pushout,
    std_simplex,
    yoneda,
)
from .kernel.homs import search_plan

__all__ = [
    "LiftingProblem",
    "solve_lift",
    "GeneratorFamily",
    "kan_family",
    "inner_family",
    "trivial_family",
    "cat_family",
    "point_to_interval_groupoid",
    "lifting_problems",
    "has_rlp",
    "has_llp",
    "Classification",
    "classify",
    "CellAttachment",
    "CellFactorization",
    "factor_soa",
    "BudgetExhausted",
    "leibniz",
    "QuasifibrationReport",
    "quasifibration_check",
    "identity_closure_check",
]


@dataclass(frozen=True)
class LiftingProblem:
    """A commuting square: left leg i, right leg p, top and bottom maps."""

    left: SMap  # i: A -> B
    right: SMap  # p: X -> Y
    top: SMap  # A -> X
    bottom: SMap  # B -> Y

    def validate(self) -> list[str]:
        problems = []
        if compose(self.right, self.top) != compose(self.bottom, self.left):
            problems.append("square does not commute")
        return problems


def _forced_images(i: SMap, along: SMap) -> Optional[dict[str, Simplex]]:
    """Images a map out of i.target must give the cells i hits nondegenerately
    to restrict to ``along`` along i; None when two cells of A clash."""
    forced: dict[str, Simplex] = {}
    for c in i.source.nondegenerate():
        img = i.apply_cell(c)
        if not img.word:
            want = along.apply_cell(c)
            if forced.setdefault(img.base, want) != want:
                return None
    return forced


def solve_lift(problem: LiftingProblem):
    """Find the lexicographically least filler B -> X, or None."""
    i, p, top, bottom = problem.left, problem.right, problem.top, problem.bottom
    forced = _forced_images(i, top)
    if forced is None:
        return None
    # the pins fix h on every cell of i(A), nondegenerate or not (a base of
    # i(A) is hit nondegenerately), so the first section decides; the
    # re-check is for a left leg that is not mono, whose degenerate images
    # may disagree with the top whatever h is
    h = next(enumerate_sections(p, bottom, forced=forced), None)
    if h is None or any(h.apply(i.apply_cell(c)) != top.apply_cell(c) for c in i.source.nondegenerate()):
        return None
    return h


@dataclass(frozen=True)
class GeneratorFamily:
    """A named family of generating maps with its depth."""

    name: str
    generators: tuple[SMap, ...]
    depth: int


@lru_cache(maxsize=None)
def kan_family(depth: int) -> GeneratorFamily:
    gens = tuple(horn(n, k)[1] for n in range(1, depth + 1) for k in range(n + 1))
    return GeneratorFamily("kan", gens, depth)


@lru_cache(maxsize=None)
def inner_family(depth: int) -> GeneratorFamily:
    gens = tuple(horn(n, k)[1] for n in range(2, depth + 1) for k in range(1, n))
    return GeneratorFamily("inner", gens, depth)


@lru_cache(maxsize=None)
def trivial_family(depth: int) -> GeneratorFamily:
    gens = tuple(boundary(n)[1] for n in range(0, depth + 1))
    return GeneratorFamily("trivial", gens, depth)


@lru_cache(maxsize=None)
def point_to_interval_groupoid(depth: int) -> SMap:
    """The vertex inclusion {0} -> skeleton of the classifying interval."""
    sk, _ = interval_groupoid_skeleton(depth)
    return SMap(std_simplex(0), sk, {"0": nondeg("n_a")})


@lru_cache(maxsize=None)
def cat_family(depth: int) -> GeneratorFamily:
    """Surrogate for categorical fibrations: inner horns plus the vertex
    inclusion into the (truncated) classifying interval."""
    gens = inner_family(depth).generators + (point_to_interval_groupoid(depth),)
    return GeneratorFamily("cat", gens, depth)


def family_by_name(name: str, depth: int) -> GeneratorFamily:
    table = {
        "kan": kan_family,
        "inner": inner_family,
        "trivial": trivial_family,
        "cat": cat_family,
    }
    if name not in table:
        raise SSetError(f"unknown generator family {name!r}")
    return table[name](depth)


def lifting_problems(
    gen: SMap, p: SMap, tops: Optional[Iterable[SMap]] = None
) -> Iterator[LiftingProblem]:
    """All commuting squares from a generator to p, in deterministic order.

    ``tops``, when given, are the tops u: gen.source -> p.source to take,
    in ``enumerate_maps`` order; by default every one.
    """
    for u in enumerate_maps(gen.source, p.source) if tops is None else tops:
        want = compose(p, u)
        forced = _forced_images(gen, want)
        if forced is None:
            continue
        for v in enumerate_maps(gen.target, p.target, forced=forced):
            if compose(v, gen) == want:
                yield LiftingProblem(gen, p, u, v)


def has_rlp(p: SMap, family: GeneratorFamily) -> tuple[bool, Optional[LiftingProblem]]:
    """Right lifting property against every generator; returns a
    counterexample square on failure."""
    found = _first_unsolved((gen, p) for gen in family.generators)
    return (True, None) if found is None else (False, found[1])


def has_llp(i: SMap, tests: Sequence[SMap]) -> tuple[bool, Optional[LiftingProblem]]:
    """Left lifting property of i against a finite family of test maps."""
    found = _first_unsolved((i, p) for p in tests)
    return (True, None) if found is None else (False, found[1])


def _first_unsolved(pairs, solved=None) -> Optional[tuple[int, LiftingProblem]]:
    """The index of the first (left, right) pair with a square that has no
    filler, and that square; None when every square is filled.

    ``solved(idx, u)``, when given, is true of a top u of pair idx whose
    squares are known to be filled; such a top is passed over before any
    of its bottoms is searched.  Only ``factor_soa`` gives it.
    """
    for idx, (left, right) in enumerate(pairs):
        tops = enumerate_maps(left.source, right.source)
        if solved is not None:
            tops = (u for u in tops if not solved(idx, u))
        free = _free_cells(left)
        if free is None:
            unsolved = (prob for prob in lifting_problems(left, right, tops) if solve_lift(prob) is None)
            prob = next(unsolved, None)
        else:
            prob = _first_unmatched(left, right, free, tops)
        if prob is not None:
            return idx, prob
    return None


def _free_cells(i: SMap) -> Optional[tuple[str, ...]]:
    """The cells of Δ^n outside A, in ``enumerate_maps`` order, when i is
    ``horn(n, k)[1]`` or ``boundary(n)[1]``; None for every other map."""
    delta = i.target
    n = delta.dim
    # the size test keeps std_simplex from being built for large targets
    if n < 0 or delta.size() != 2 ** (n + 1) - 1 or delta is not std_simplex(n):
        return None
    top = delta.cells[n][0]
    if i is boundary(n)[1]:
        return (top,)
    for k in range(n + 1 if n else 0):
        if i is horn(n, k)[1]:
            return (delta.faces[top][k].base, top)
    return None


def _first_unmatched(
    i: SMap, p: SMap, free: tuple[str, ...], tops: Iterable[SMap]
) -> Optional[LiftingProblem]:
    """The first unfilled square on ``tops`` (maps i.source -> p.source, in
    ``enumerate_maps`` order) from a horn or boundary inclusion i to p,
    found by face lookups; see the module docstring."""
    delta, x, y = i.target, p.source, p.target
    x_lookup, y_lookup = face_lookup(x), face_lookup(y)
    for u in tops:
        check_represented(y, delta.dim)
        fills, seen = None, set()
        pu = {c: p.apply(s) for c, s in u.assignment.items()}
        for bottom in _top_images(y, y_lookup, delta, pu, free):
            if fills is None:
                check_represented(x, delta.dim)
                fills = map(p.apply, _top_images(x, x_lookup, delta, dict(u.assignment), free))
            while bottom not in seen:
                filled = next(fills, None)
                if filled is None:
                    return LiftingProblem(i, p, u, yoneda(y, bottom))
                seen.add(filled)
    return None


def _top_images(
    target: FinSSet, lookup, delta: FinSSet, image: dict, free: tuple[str, ...]
) -> Iterator[Simplex]:
    """The images of the top cell of Δ^n under the maps Δ^n -> target that
    extend ``image`` (given on A) over the free cells, in ``enumerate_maps``
    order.  ``lookup`` is ``face_lookup(target)``.  ``image`` gets the free
    facet's image written into it."""

    def candidates(c: str):
        if delta.cell_dim(c) == 0:
            return target.simplices(0)
        return lookup(tuple(image[f.base] for f in delta.faces[c]))

    if len(free) == 1:
        yield from candidates(free[0])
        return
    facet, top = free
    for z in candidates(facet):
        image[facet] = z
        yield from candidates(top)


@dataclass(frozen=True)
class Classification:
    kan_fib: bool
    inner_fib: bool
    trivial_fib: bool
    cat_fib: bool
    depth: int
    counterexamples: dict = field(default_factory=dict, compare=False)


def classify(p: SMap, depth: int) -> Classification:
    """The verdicts of the kan, inner, trivial and cat families on p at
    ``depth``, each with the counterexample ``has_rlp`` would report.

    The families share generators: the inner horns are kan horns, and cat
    is the inner horns plus {0} -> J.  A generator's first unfilled square
    depends only on (generator, p), so each distinct generator is scanned
    at most once per call (14 scans at depth 3, not 20) and the result is
    looked up by the generator's identity; the families' ``lru_cache``
    keeps the generators alive for the call.  Families are walked in the
    order above and each stops at its first failing generator, as
    ``has_rlp`` does, so every counterexample and every exception is the
    one four ``has_rlp`` calls give.

    The table dies with the call, and nothing is stored on p or in the
    module.  A square's right leg is p itself, so a table kept on p is a
    reference cycle that holds p's source and target until a full
    collection (kept that way, the fibcheck benchmark's peak read 38-40 MiB
    against about 31), and a module-level table holds every map it saw.
    So ``joyal.g_fib_check``, a separate call, scans cat again; a caller
    that holds the cat verdict calls ``joyal.core_kan_check`` instead.
    """
    scans: dict[int, Optional[LiftingProblem]] = {}

    def scan(gen: SMap) -> Optional[LiftingProblem]:
        if id(gen) not in scans:
            found = _first_unsolved([(gen, p)])
            scans[id(gen)] = None if found is None else found[1]
        return scans[id(gen)]

    counter = {}
    for name in ("kan", "inner", "trivial", "cat"):
        ce = next(filter(None, map(scan, family_by_name(name, depth).generators)), None)
        if ce is not None:
            counter[name] = ce
    return Classification(
        kan_fib="kan" not in counter,
        inner_fib="inner" not in counter,
        trivial_fib="trivial" not in counter,
        cat_fib="cat" not in counter,
        depth=depth,
        counterexamples=counter,
    )


class BudgetExhausted(RuntimeError):
    """The by-need small object argument ran out of cell budget."""

    def __init__(self, message: str, partial: "CellFactorization"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class CellAttachment:
    generator_index: int
    attaching: SMap  # generator source -> current middle object


@dataclass(frozen=True)
class CellFactorization:
    """Witness of f = right . left with left a relative cell map."""

    left: SMap
    right: SMap
    attachments: tuple[CellAttachment, ...]
    complete: bool  # True when no unsolved lifting problem remains at depth

    @property
    def middle(self) -> FinSSet:
        return self.left.target


def factor_soa(f: SMap, family: GeneratorFamily, budget: int) -> CellFactorization:
    """Factor f as (relative cell map, map with RLP up to depth), by need.

    Attaches one generator cell per unsolved lifting problem, in deterministic
    order, until none remain or the budget runs out (raising BudgetExhausted
    with the partial factorization attached).  Each attachment is the first
    unsolved square of the scan ``has_rlp`` makes: generators in order, and
    each generator's tops in ``enumerate_maps`` order.

    The scan resumes.  Let an attachment be made at (generator k, top u_k)
    by the pushout M -> M' along generator k.  A square stays solved after
    a cobase change: if l fills (u, v) against the old right map, then
    inr . l fills (inr . u, v) against the new one, whose composite with
    inr is the old right map, and the bottoms of inr . u are those of u.
    Every square of the tops the scan passed before u_k was filled, so a
    top of M' that avoids the new cells, and so is inr . u, has every
    square filled when its generator is below k, or is k and u comes
    strictly before u_k.  The next scan passes over those tops.  The order
    is strict: only the square (u_k, v_k) was filled, and u_k's other
    bottoms may have no filler yet.  Tops on the old middle are compared as
    ``enumerate_maps`` orders them, lexicographically in their images of
    ``search_plan(generator source).cells``.
    """
    left = identity(f.source)
    right = f
    attachments: list[CellAttachment] = []
    solved = None
    while True:
        found = _first_unsolved(((gen, right) for gen in family.generators), solved)
        if found is None:
            return CellFactorization(left, right, tuple(attachments), True)
        if len(attachments) >= budget:
            partial = CellFactorization(left, right, tuple(attachments), False)
            raise BudgetExhausted(
                f"cell budget {budget} exhausted with unsolved problems remaining", partial
            )
        idx, prob = found
        gen = family.generators[idx]
        po = pushout(gen, prob.top)
        step = po.inr  # middle -> new middle (cobase change of the generator)
        left = compose(step, left)
        right = po.induce(prob.bottom, right)
        attachments.append(CellAttachment(idx, prob.top))
        solved = _solved_before(idx, prob.top, step)


def _solved_before(k: int, top: SMap, step: SMap):
    """The test of ``factor_soa``'s resumed scan after attaching at
    (generator k, ``top``) along ``step``: whether a top u of generator idx
    on the new middle is known to have every square filled."""
    old = {s.base: c for c, s in step.assignment.items()}  # new name -> old name
    cells = search_plan(top.source).cells
    before = tuple(top.assignment[c] for c in cells)

    def solved(idx: int, u: SMap) -> bool:
        if idx > k:
            return False
        if idx < k:
            return all(s.base in old for s in u.assignment.values())
        images = [u.assignment[c] for c in cells]
        if not all(s.base in old for s in images):
            return False
        return tuple(Simplex(s.word, old[s.base]) for s in images) < before

    return solved


def leibniz(i: SMap, j: SMap) -> tuple[SMap, "object"]:
    """Pushout-product of i: A -> B and j: U -> V.

    Returns (the induced map P -> B x V, the pushout structure), where P is
    the pushout of A x V <- A x U -> B x U.
    """
    from .kernel import product

    a, b = i.source, i.target
    u, v = j.source, j.target
    av = product(a, v)
    au = product(a, u)
    bu = product(b, u)
    bv = product(b, v)
    # A x U -> A x V and A x U -> B x U
    au_to_av = av.pair(au.proj1, compose(j, au.proj2))
    au_to_bu = bu.pair(compose(i, au.proj1), au.proj2)
    po = pushout(au_to_av, au_to_bu)
    # cocone into B x V
    av_to_bv = bv.pair(compose(i, av.proj1), av.proj2)
    bu_to_bv = bv.pair(bu.proj1, compose(j, bu.proj2))
    induced = po.induce(av_to_bv, bu_to_bv)
    return induced, po


@dataclass(frozen=True)
class QuasifibrationReport:
    ok: bool
    probe_results: tuple[tuple[int, bool], ...]
    factorization: CellFactorization
    detail: str = ""


def quasifibration_check(
    f: SMap,
    family: GeneratorFamily,
    probes: Sequence[SMap],
    tests: Sequence[SMap],
    budget: int,
) -> QuasifibrationReport:
    """Check f is a quasifibration relative to the given probes.

    Factors f = p . i with p having RLP up to depth; then for each probe
    z': Z' -> Z pulls the factorization back and demands the pulled-back left
    leg keep the left lifting property against the test fibrations.
    """
    from .kernel import pullback

    fac = factor_soa(f, family, budget)
    results = []
    all_ok = True
    for idx, probe in enumerate(probes):
        if probe.target != f.target:
            raise SSetError(f"probe {idx} does not land in the codomain of f")
        pb_y = pullback(fac.right, probe)  # Y xZ Z' -> Y
        pb_x = pullback(fac.left, pb_y.proj1)  # X xY Y' over the middle
        i_pulled = pb_x.proj2  # X' -> Y'
        ok, _ = has_llp(i_pulled, tests)
        results.append((idx, ok))
        all_ok = all_ok and ok
    return QuasifibrationReport(all_ok, tuple(results), fac)


@dataclass(frozen=True)
class IdentityClosureReport:
    ok: bool
    failures: tuple[int, ...]
    details: tuple[str, ...] = ()


def identity_closure_check(
    fibrations: Sequence[SMap],
    fine_family: GeneratorFamily,
    coarse_family: GeneratorFamily,
    budget: int,
) -> IdentityClosureReport:
    """For each fine-family fibration p: Y -> G, factor the relative diagonal
    Y -> Y xG Y over the coarse family and demand the right factor be a
    fine-family fibration again."""
    from .kernel import product, pullback

    failures = []
    details = []
    for idx, p in enumerate(fibrations):
        pb = pullback(p, p)
        diag = pb.pair(identity(p.source), identity(p.source))
        try:
            fac = factor_soa(diag, coarse_family, budget)
        except BudgetExhausted as exc:
            failures.append(idx)
            details.append(f"fibration {idx}: {exc}")
            continue
        ok, ce = has_rlp(fac.right, fine_family)
        if not ok:
            failures.append(idx)
            details.append(f"fibration {idx}: right factor fails fine-family RLP: {ce}")
    return IdentityClosureReport(not failures, tuple(failures), tuple(details))
