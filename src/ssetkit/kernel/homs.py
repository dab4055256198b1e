"""Enumeration of simplicial maps by constrained backtracking.

Maps are determined by images of nondegenerate cells subject to face
compatibility, so the search assigns cells dimension by dimension.  Results
come out in a deterministic (lexicographic) order, which the lifting engine
relies on for reproducible fillers.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .simplex import Simplex
from .sset import FinSSet, SMap, SSetError


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


def count_maps(source: FinSSet, target: FinSSet) -> int:
    return sum(1 for _ in enumerate_maps(source, target))


def enumerate_sections(p: SMap, over: SMap, **kw) -> Iterator[SMap]:
    """Maps s: over.source -> p.source with p . s == over."""
    if p.target is not over.target and p.target != over.target:
        raise SSetError("section enumeration: codomain mismatch")

    def fiber(c: str, cand: Simplex) -> bool:
        return p.apply(cand) == over.apply_cell(c)

    yield from enumerate_maps(over.source, p.source, constraint=fiber, **kw)
