"""Naive reference implementations that the fast paths are tested against.

``enumerate_maps`` is the scan-and-recurse search that the face-indexed,
iterative ``ssetkit.kernel.homs.enumerate_maps`` replaced, kept verbatim:
each cell's candidates are every simplex of the target of its dimension,
filtered by comparing faces.  ``find_isomorphism`` is the recursive form of
``ssetkit.kernel.sset.find_isomorphism``, also kept verbatim.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ssetkit.kernel.simplex import Simplex, nondeg
from ssetkit.kernel.sset import FinSSet, SMap, SSetError


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
