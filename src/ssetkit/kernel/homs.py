"""Enumeration of simplicial maps by constrained backtracking.

Maps are determined by images of nondegenerate cells subject to face
compatibility, so the search assigns cells dimension by dimension.  Results
come out in a deterministic (lexicographic) order, which the lifting engine
relies on for reproducible fillers.

Once a cell's faces are assigned, its image must have exactly those faces,
so its candidates are looked up by face tuple
(``FinSSet.simplices_with_faces``): forward checking in the sense of
Haralick and Elliott (1980).  The backtracking keeps one candidate iterator
per depth on an explicit stack, so large sources do not hit the recursion
limit.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .simplex import Simplex
from .sset import FinSSet, SMap, SSetError


def check_represented(target: FinSSet, dim: int) -> None:
    """Raise unless the target is represented up to dimension ``dim``."""
    if target.dim_bound is not None and dim > target.dim_bound:
        raise SSetError(f"target truncated at {target.dim_bound}, below source dimension {dim}")


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
    check_represented(target, source.dim)
    cells: list[str] = []
    for n in range(source.dim + 1):
        cells.extend(sorted(source.cells[n]))
    forced = forced or {}
    if limit is not None and limit <= 0:
        return
    if not cells:
        yield SMap(source, target, {})
        return

    assign: dict[str, Simplex] = {}

    def image(f: Simplex) -> Simplex:
        want = assign[f.base]
        for w in reversed(f.word):
            want = target.degen(want, w)
        return want

    def candidates(c: str) -> Iterator[Simplex]:
        n = source.cell_dim(c)
        if n == 0:
            options = (forced[c],) if c in forced else target.simplices(0)
        else:
            wants = tuple(image(f) for f in source.faces[c])
            if c in forced:
                cand = forced[c]
                # a nondegenerate pin of the cell's dimension has its faces stored
                if not cand.word and target.cell_dim(cand.base) == n:
                    ok = target.faces[cand.base] == wants
                else:
                    ok = all(target.face(cand, i) == w for i, w in enumerate(wants))
                options = (cand,) if ok else ()
            else:
                options = target.simplices_with_faces(n, wants)
        if constraint is None:
            return iter(options)
        return (cand for cand in options if constraint(c, cand))

    # stack[k] iterates the candidates for cells[k]; a deeper entry of
    # ``assign`` left over from an abandoned branch is overwritten before it
    # is read, and its key keeps its place, so yielded dicts are in cell order
    count = 0
    stack = [candidates(cells[0])]
    while stack:
        k = len(stack) - 1
        cand = next(stack[k], None)
        if cand is None:
            stack.pop()
            continue
        assign[cells[k]] = cand
        if k + 1 < len(cells):
            stack.append(candidates(cells[k + 1]))
            continue
        count += 1
        yield SMap(source, target, dict(assign))
        if limit is not None and count >= limit:
            return


def count_maps(source: FinSSet, target: FinSSet) -> int:
    return sum(1 for _ in enumerate_maps(source, target))


def enumerate_sections(p: SMap, over: SMap, **kw) -> Iterator[SMap]:
    """Maps s: over.source -> p.source with p . s == over."""
    if p.target is not over.target and p.target != over.target:
        raise SSetError("section enumeration: codomain mismatch")

    def fiber(c: str, cand: Simplex) -> bool:
        return p.apply(cand) == over.apply_cell(c)

    yield from enumerate_maps(over.source, p.source, constraint=fiber, **kw)
