"""Naive reference implementations that the fast paths are tested against.

``enumerate_maps`` is the scan-and-recurse search that the face-indexed,
iterative ``ssetkit.kernel.homs.enumerate_maps`` replaced, kept verbatim:
each cell's candidates are every simplex of the target of its dimension,
filtered by comparing faces.  ``find_isomorphism`` is the recursive form of
``ssetkit.kernel.sset.find_isomorphism``, also kept verbatim.

``has_rlp`` is the general lifting path that the face-lookup path of
``ssetkit.lifting`` replaced for horn and boundary inclusions, kept
verbatim: ``lifting_problems`` searches maps for every square's bottom and
``solve_lift`` searches sections for its filler.  It runs on the kernel's
``enumerate_maps`` and ``enumerate_sections``, which are tested against the
naive search above.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ssetkit import kernel
from ssetkit.kernel.simplex import Simplex, nondeg
from ssetkit.kernel.sset import FinSSet, SMap, SSetError, compose
from ssetkit.lifting import GeneratorFamily, LiftingProblem


def enumerate_maps(
    source: FinSSet,
    target: FinSSet,
    *,
    forced: Optional[dict[str, Simplex]] = None,
    constraint: Optional[Callable[[str, Simplex], bool]] = None,
    limit: Optional[int] = None,
) -> Iterator[SMap]:
    """Yield all simplicial maps source -> target.

    ``forced`` pins images of particular cells; ``constraint`` filters
    candidate images cell by cell.  The target must be represented at least
    up to the dimension of the source.
    """
    if target.dim_bound is not None and source.dim > target.dim_bound:
        raise SSetError(
            f"target truncated at {target.dim_bound}, below source dimension {source.dim}"
        )
    cells: list[str] = []
    for n in range(source.dim + 1):
        cells.extend(sorted(source.cells[n]))
    forced = forced or {}

    assign: dict[str, Simplex] = {}
    count = 0

    def candidates(c: str) -> Iterator[Simplex]:
        n = source.cell_dim(c)
        if c in forced:
            options: tuple[Simplex, ...] = (forced[c],)
        else:
            options = target.simplices(n)
        for cand in options:
            if n > 0:
                ok = True
                for i in range(n + 1):
                    f = source.faces[c][i]
                    want = assign[f.base]
                    for w in reversed(f.word):
                        want = target.degen(want, w)
                    if target.face(cand, i) != want:
                        ok = False
                        break
                if not ok:
                    continue
            if constraint is not None and not constraint(c, cand):
                continue
            yield cand

    def search(idx: int) -> Iterator[SMap]:
        nonlocal count
        if limit is not None and count >= limit:
            return
        if idx == len(cells):
            count += 1
            yield SMap(source, target, dict(assign))
            return
        c = cells[idx]
        for cand in candidates(c):
            assign[c] = cand
            yield from search(idx + 1)
            if limit is not None and count >= limit:
                del assign[c]
                return
            del assign[c]

    yield from search(0)


def find_isomorphism(x: FinSSet, y: FinSSet) -> Optional[SMap]:
    """Search for an isomorphism by matching nondegenerate cells per dimension."""
    if [len(l) for l in x.cells] != [len(l) for l in y.cells]:
        return None
    assign: dict[str, Simplex] = {}
    levels = [list(level) for level in x.cells]
    ylevels = [list(level) for level in y.cells]

    def extend(n: int, idx: int, used: set[str]) -> bool:
        if n > x.dim:
            return True
        if idx == len(levels[n]):
            return extend(n + 1, 0, set())
        c = levels[n][idx]
        for cand in ylevels[n]:
            if cand in used:
                continue
            if n > 0:
                ok = True
                for i in range(n + 1):
                    f = x.faces[c][i]
                    expect = Simplex(f.word, assign[f.base].base)
                    if y.face(nondeg(cand), i) != expect:
                        ok = False
                        break
                if not ok:
                    continue
            assign[c] = nondeg(cand)
            used.add(cand)
            if extend(n, idx + 1, used):
                return True
            used.discard(cand)
            del assign[c]
        return False

    if extend(0, 0, set()):
        return SMap(x, y, dict(assign))
    return None


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


def solve_lift(problem: LiftingProblem, *, all_fillers: bool = False):
    """Find the lexicographically least filler B -> X, or None.

    With ``all_fillers`` returns the full list instead.
    """
    i, p, top, bottom = problem.left, problem.right, problem.top, problem.bottom
    forced = _forced_images(i, top)
    if forced is None:
        return [] if all_fillers else None
    gen = kernel.enumerate_sections(p, bottom, forced=forced, limit=None if all_fillers else 1)
    # degenerate images of cells of A also constrain the filler, but only
    # through their bases, which the forced dict above already pins; cells of
    # A hitting degenerate simplices of B constrain nothing extra beyond
    # commutativity of the found map, so re-check.
    fillers = []
    for h in gen:
        if all(h.apply(i.apply_cell(c)) == top.apply_cell(c) for c in i.source.nondegenerate()):
            if not all_fillers:
                return h
            fillers.append(h)
    return fillers if all_fillers else None


def lifting_problems(gen: SMap, p: SMap) -> Iterator[LiftingProblem]:
    """All commuting squares from a generator to p, in deterministic order."""
    for u in kernel.enumerate_maps(gen.source, p.source):
        want = compose(p, u)
        forced = _forced_images(gen, want)
        if forced is None:
            continue
        for v in kernel.enumerate_maps(gen.target, p.target, forced=forced):
            if compose(v, gen) == want:
                yield LiftingProblem(gen, p, u, v)


def _first_unsolved(pairs) -> Optional[tuple[int, LiftingProblem]]:
    """The index of the first (left, right) pair with a square that has no
    filler, and that square; None when every square is filled."""
    for idx, (left, right) in enumerate(pairs):
        for prob in lifting_problems(left, right):
            if solve_lift(prob) is None:
                return idx, prob
    return None


def has_rlp(p: SMap, family: GeneratorFamily) -> tuple[bool, Optional[LiftingProblem]]:
    """Right lifting property against every generator; returns a
    counterexample square on failure."""
    found = _first_unsolved((gen, p) for gen in family.generators)
    return (True, None) if found is None else (False, found[1])
