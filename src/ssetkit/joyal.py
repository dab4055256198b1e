"""Invertible edges, cores, and the interval-completion functor b.

An edge is invertible when its classifying map ``yoneda(x, e)`` extends
along the edge of the classifying interval (the nerve of the walking
isomorphism).  Since that interval is infinite-dimensional, verdicts are
tri-state: a failed extension at a skeleton level is a sound refutation,
while a successful one certifies "up to level".  An object's verdicts form
one table, ``_edge_verdicts``.  The core of a complex collects the
simplices all of whose edges are invertible; each edge of an n-simplex,
n >= 2, lies in one of its facets, so the core is read off stored faces.
b(X) freely inverts every edge by gluing a copy of the (truncated)
classifying interval onto each nondegenerate edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional

from .kernel import (
    FinSSet,
    SMap,
    SSetError,
    Simplex,
    compose,
    constant_map,
    find_isomorphism,
    horn,
    identity,
    interval_groupoid_skeleton,
    nondeg,
    pushout,
    terminal_map,
    yoneda,
)
from .lifting import (
    CellFactorization,
    GeneratorFamily,
    LiftingProblem,
    cat_family,
    factor_soa,
    has_rlp,
    inner_family,
    kan_family,
    solve_lift,
)

__all__ = [
    "InvertVerdict",
    "invertible_edge",
    "CoreResult",
    "core_G",
    "core_of_map",
    "BResult",
    "b_functor",
    "b_map",
    "b_horn_family",
    "LemmaReport",
    "lemma_four_conditions",
    "GKanReport",
    "factor_g_kan",
    "GFibReport",
    "g_fib_check",
    "core_kan_check",
    "CompositeReport",
    "composite_invertibility_check",
]

def _retag(x: FinSSet, bound: Optional[int]) -> FinSSet:
    return FinSSet(x.cells, x.faces, bound)


@dataclass(frozen=True)
class InvertVerdict:
    """Tri-state invertibility verdict for a single edge.

    ``status`` is "yes", "no", or "unknown".  ``level`` records the skeleton
    level the evidence lives at: a "no" is a sound refutation at that level,
    a "yes" carries a witness extension (skeletal mode) or a pair of
    inverse-witness 2-simplices (qcat mode, stored in ``evidence``).
    """

    status: str
    level: int
    witness: Optional[SMap] = None
    evidence: tuple = ()

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"

    @property
    def is_no(self) -> bool:
        return self.status == "no"


def _skeletal_verdict(x: FinSSet, e: Simplex, level: int) -> InvertVerdict:
    sk, edge = interval_groupoid_skeleton(level)
    problem = LiftingProblem(
        left=edge,
        right=terminal_map(x),
        top=yoneda(x, e),
        bottom=terminal_map(sk),
    )
    filler = solve_lift(problem)
    if filler is None:
        # any full extension would restrict to this skeleton, so this refutes
        return InvertVerdict("no", level)
    # the evidence saturates at the representable level of a truncated object
    threshold = x.dim + 1
    if x.dim_bound is not None:
        threshold = min(threshold, x.dim_bound)
    if level >= threshold:
        return InvertVerdict("yes", level, witness=filler)
    return InvertVerdict("unknown", level, witness=filler)


def _require_qcat(x: FinSSet) -> None:
    ok, _ = has_rlp(terminal_map(x), inner_family(3))
    if not ok:
        raise SSetError("qcat mode requires inner-horn lifting at depth 3")


def _qcat_verdict(x: FinSSet, e: Simplex) -> InvertVerdict:
    """The inverse witnesses of e, on an x that passed ``_require_qcat``."""
    u, v = x.face(e, 1), x.face(e, 0)
    linv = rinv = None
    for t in x.simplices(2):
        e12, e02, e01 = x.face(t, 0), x.face(t, 1), x.face(t, 2)
        if linv is None and e01 == e and e02 == x.degen(u, 0):
            linv = t  # e followed by the 12-edge is the identity on u
        if rinv is None and e12 == e and e02 == x.degen(v, 0):
            rinv = t  # the 01-edge followed by e is the identity on v
        if linv is not None and rinv is not None:
            return InvertVerdict("yes", 2, evidence=(linv, rinv))
    return InvertVerdict("no", 2)


def invertible_edge(x: FinSSet, e: Simplex, mode: str = "skeletal", *, level: int) -> InvertVerdict:
    """Decide invertibility of an edge value of x.

    ``mode`` is "skeletal" (extension search along the level-skeleton of the
    classifying interval; sound "no", "yes" when the level clears dim(x)+1)
    or "qcat" (2-simplex inverse witnesses; total on inner-fibrant objects).
    """
    if x.simplex_dim(e) != 1:
        raise SSetError("invertible_edge expects a 1-simplex")
    if x.dim_bound is not None:
        level = min(level, x.dim_bound)
    if e.word:
        # degenerate edges extend through the point
        sk, _ = interval_groupoid_skeleton(level)
        witness = constant_map(sk, x, e.base)
        return InvertVerdict("yes", level, witness=witness)
    if mode == "skeletal":
        return _skeletal_verdict(x, e, level)
    if mode == "qcat":
        _require_qcat(x)
        return _qcat_verdict(x, e)
    raise SSetError(f"unknown invertibility mode {mode!r}")


@lru_cache(maxsize=None)
def _edge_verdicts(x: FinSSet, mode: str, level: int) -> Mapping[str, InvertVerdict]:
    """The verdict of each nondegenerate edge, the one table of them that
    the cores and the checks below read; qcat mode checks x once."""
    edges = tuple(x.nondegenerate(1))
    if mode != "qcat":
        return {c: invertible_edge(x, nondeg(c), mode, level=level) for c in edges}
    if edges:
        _require_qcat(x)
    return {c: _qcat_verdict(x, nondeg(c)) for c in edges}


@dataclass(frozen=True)
class CoreResult:
    """The largest subcomplex all of whose edges are invertible."""

    core: FinSSet
    inclusion: SMap  # the monomorphism into the ambient complex
    verdicts: Mapping[str, InvertVerdict] = field(compare=False)
    warnings: tuple[str, ...] = ()  # always empty; the core --json document reports it


def core_G(x: FinSSet, mode: str = "skeletal", *, level: int) -> CoreResult:
    """Compute the core: simplices whose edges all carry a "yes" verdict.

    "Unknown" edges are excluded, so the core never includes an edge that
    was not shown invertible.
    """
    verdicts = _edge_verdicts(x, mode, level)
    inside: set[str] = set()  # filled level by level, so a cell's faces are decided first
    for c in x.nondegenerate():
        # an edge by its verdict; any other cell by its faces, which hold all its edges
        ok = verdicts[c].is_yes if c in verdicts else all(f.base in inside for f in x.faces.get(c, ()))
        if ok:
            inside.add(c)
    core, incl = x.subcomplex(c for c in x.nondegenerate() if c in inside)
    if x.dim_bound is not None:
        core = _retag(core, x.dim_bound)
        incl = SMap(core, x, incl.assignment)
    return CoreResult(core, incl, verdicts)


def core_of_map(f: SMap, mode: str = "skeletal", *, level: int) -> SMap:
    """The restriction of f to cores (functorial action of the core)."""
    src = core_G(f.source, mode, level=level)
    tgt = core_G(f.target, mode, level=level)
    assign: dict[str, Simplex] = {}
    for c in src.core.nondegenerate():
        img = f.apply_cell(c)
        if not tgt.core.has_cell(img.base):
            raise SSetError(
                f"image of core cell {c!r} left the target core at {img.base!r} "
                "(an unknown verdict downstream; retry with a higher level)"
            )
        assign[c] = img
    return SMap(src.core, tgt.core, assign)


# -- the interval-completion functor b --------------------------------------


@dataclass(frozen=True)
class BResult:
    """b(X): every nondegenerate edge glued to a classifying interval.

    ``copies`` records, per inverted edge, the inclusion of its interval
    copy.  Every cell of b(X) is the image of a cell of X under the unit or
    of a cell of the interval under a copy.
    """

    sset: FinSSet
    unit: SMap  # X -> b(X)
    edges: tuple[str, ...]
    copies: Mapping[str, SMap] = field(compare=False)

    def induce(self, on_base: SMap, on_copies: Mapping[str, SMap]) -> SMap:
        """The map b(X) -> Z from a cocone: a map on X and one per copy.

        Where the unit and the copies meet, the cocone agrees, so each cell
        takes the image of the first cell that hits it.
        """
        image: dict[str, Simplex] = {}
        legs = [(self.unit, on_base)] + [(self.copies[e], on_copies[e]) for e in self.edges]
        for leg, to in legs:
            for c in leg.source.nondegenerate():
                s = leg.assignment[c]
                if not s.word:
                    image.setdefault(s.base, to.apply_cell(c))
        return SMap(self.sset, on_base.target, {c: image[c] for c in self.sset.nondegenerate()})


@lru_cache(maxsize=None)
def b_functor(x: FinSSet, level: int) -> BResult:
    """Glue a truncated classifying interval onto every nondegenerate edge.

    Levels <= ``level`` of the result agree with the untruncated completion;
    the result is marked truncated accordingly (unless nothing was glued).
    """
    sk, edge = interval_groupoid_skeleton(level)
    edges = tuple(x.nondegenerate(1)) if x.dim >= 1 else ()
    current = x
    unit = identity(x)
    copies: dict[str, SMap] = {}
    for e in edges:
        classifier = compose(unit, yoneda(x, nondeg(e)))
        po = pushout(classifier, edge)
        for prev in copies:
            copies[prev] = compose(po.inl, copies[prev])
        copies[e] = po.inr
        unit = compose(po.inl, unit)
        current = po.sset
    if edges:
        bound = level if x.dim_bound is None else min(level, x.dim_bound)
        current = _retag(current, bound)
        unit = SMap(x, current, unit.assignment)
        copies = {e: SMap(sk, current, m.assignment) for e, m in copies.items()}
    return BResult(current, unit, edges, copies)


def b_map(f: SMap, level: int) -> SMap:
    """The induced map b(f): b(X) -> b(Y)."""
    bx = b_functor(f.source, level)
    by = b_functor(f.target, level)
    sk, _ = interval_groupoid_skeleton(level)
    on_base = compose(by.unit, f)
    on_copies: dict[str, SMap] = {}
    for e in bx.edges:
        img = f.apply_cell(e)
        if img.word:
            # the edge collapses: route its interval copy through the vertex
            vertex = by.unit.apply(nondeg(img.base))
            on_copies[e] = constant_map(sk, by.sset, vertex.base)
        else:
            on_copies[e] = by.copies[img.base]
    return bx.induce(on_base, on_copies)


@lru_cache(maxsize=None)
def b_horn_family(level: int) -> GeneratorFamily:
    """Generators b(horn(n,k)) -> b(std(n)) for 1 <= n <= level."""
    gens = []
    for n in range(1, level + 1):
        for k in range(n + 1):
            gens.append(b_map(horn(n, k)[1], level))
    return GeneratorFamily("bkan", tuple(gens), level)


# -- the four equivalent conditions ------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    """Agreement report for the equivalent all-edges-invertible conditions."""

    rlp_interval_edge: bool
    core_is_all: bool
    iso_to_core: bool
    unknown_edges: tuple[str, ...]

    @property
    def agree(self) -> bool:
        return self.rlp_interval_edge == self.core_is_all == self.iso_to_core


def lemma_four_conditions(x: FinSSet, level: int) -> LemmaReport:
    """Evaluate: RLP of x -> pt against the interval edge inclusion; core = x;
    x isomorphic to its core.  Unknown verdicts are reported, not silently
    resolved."""
    sk, edge = interval_groupoid_skeleton(level)
    fam = GeneratorFamily("interval-edge", (edge,), level)
    rlp, _ = has_rlp(terminal_map(x), fam)
    result = core_G(x, level=level)
    core_is_all = set(result.core.nondegenerate()) == set(x.nondegenerate())
    iso = find_isomorphism(x, result.core) is not None
    unknowns = tuple(
        c for c, v in sorted(result.verdicts.items()) if v.status == "unknown"
    )
    return LemmaReport(rlp, core_is_all, iso, unknowns)


# -- factorization through the freely-inverted generators --------------------


@dataclass(frozen=True)
class GKanReport:
    factorization: CellFactorization
    right_is_kan: bool
    middle_all_invertible: bool

    @property
    def ok(self) -> bool:
        return self.right_is_kan and self.middle_all_invertible


def _all_edges_invertible(x: FinSSet, level: int) -> bool:
    """Whether every edge of x has a "yes" verdict, that is, whether its
    skeletal core is all of x."""
    return all(v.is_yes for v in _edge_verdicts(x, "skeletal", level).values())


def factor_g_kan(f: SMap, level: int, budget: int) -> GKanReport:
    """Factor f over the freely-inverted horn inclusions and re-verify.

    Requires every edge of the source and target to be invertible; the right
    leg is re-checked for Kan lifting and the middle object for
    all-edges-invertible, both at the given level.
    """
    for side, x in (("source", f.source), ("target", f.target)):
        if not _all_edges_invertible(x, level):
            raise SSetError(f"{side} has a non-invertible edge")
    fac = factor_soa(f, b_horn_family(level), budget)
    kan_ok, _ = has_rlp(fac.right, kan_family(level))
    return GKanReport(fac, kan_ok, _all_edges_invertible(fac.middle, level))


@dataclass(frozen=True)
class GFibReport:
    core_map: SMap
    kan_ok: bool
    counterexample: Optional[LiftingProblem] = None


def g_fib_check(p: SMap, level: int) -> GFibReport:
    """Check that the core of a categorical-type fibration is Kan-type.

    The cat check is scanned again here, whatever the caller has already
    checked; a caller that holds the cat verdict, such as one that has
    called ``lifting.classify``, calls ``core_kan_check``, as criterion 5
    does."""
    ok, ce = has_rlp(p, cat_family(level))
    if not ok:
        raise SSetError(f"input is not a categorical-type fibration at {level}: {ce}")
    return core_kan_check(p, level)


def core_kan_check(p: SMap, level: int) -> GFibReport:
    """The Kan check of ``g_fib_check`` on the core of p, for a p already
    known to be a categorical-type fibration at ``level``."""
    gp = core_of_map(p, level=level)
    kan_ok, counter = has_rlp(gp, kan_family(level))
    return GFibReport(gp, kan_ok, counter)


@dataclass(frozen=True)
class CompositeReport:
    ok: bool
    failures: tuple[str, ...]
    unknowns: tuple[str, ...]


def composite_invertibility_check(x: FinSSet, level: int) -> CompositeReport:
    """On every 2-simplex: if the 01- and 12-edges are invertible, so is 02."""
    ok, _ = has_rlp(terminal_map(x), inner_family(max(level, 2)))
    if not ok:
        raise SSetError("composite check requires inner-horn lifting")
    verdicts = _edge_verdicts(x, "skeletal", level)

    def status(e: Simplex) -> str:
        return "yes" if e.word else verdicts[e.base].status

    failures: list[str] = []
    unknowns: list[str] = []
    for c in x.nondegenerate(2):
        second, outcome, first = map(status, x.faces[c])  # d0, d1, d2: the 12-, 02- and 01-edges
        if first == "yes" and second == "yes":
            if outcome == "no":
                failures.append(c)
            elif outcome == "unknown":
                unknowns.append(c)
        elif "unknown" in (first, second):
            unknowns.append(c)
    return CompositeReport(not failures, tuple(failures), tuple(unknowns))
