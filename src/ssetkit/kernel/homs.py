"""Enumeration of simplicial maps by constrained backtracking.

Maps are determined by images of nondegenerate cells subject to face
compatibility, so the search assigns cells dimension by dimension.  Results
come out in a deterministic (lexicographic) order, which the lifting engine
relies on for reproducible fillers.

Once a cell's faces are assigned, its image must have exactly those faces,
so its candidates are looked up by face tuple
(``FinSSet.simplices_with_faces``).  The lookup is made at the step where
the last of the cell's face bases is assigned, not when the cell's own turn
comes, and an empty lookup cuts the branch at once: forward checking in the
sense of Haralick and Elliott (1980).  A later cell's candidates depend only
on cells already fixed, so this cuts only branches that yield no map, and
the order of the maps does not change.  The cell order and, for each step,
the later cells it fixes are the search plan, computed once per source
(``search_plan``).  The backtracking keeps one candidate iterator per depth
on an explicit stack, so large sources do not hit the recursion limit.

With ``mono`` the same search yields only the monomorphisms, in the same
order: each candidate iterator is filtered as it is pushed, to
nondegenerate candidates whose base no earlier cell holds.  This is the
Eilenberg-Zilber test of ``SMap.preimages``, applied cell by cell, and it
is the whole of ``find_isomorphism``.  It is the one map search of the
kernel.

One search asks for the same face tuple many times.  ``face_lookup``
memoizes the lookups by face tuple for one search, and dies with it; on the
``catfib_classify`` workload of ``tools/bench_search.py`` it cuts them from
102,260 to 33,834.  The memo is not kept on the target for its lifetime,
because ``factor_soa`` keeps every middle object alive: a prototype that
kept it on the ``FinSSet`` raised ``peak_rss_mb`` by 18% on ``fibcheck``
and by 10% on ``factor-audit``, at equal rounds.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional

from .simplex import Simplex
from .sset import FinSSet, SMap, SSetError, Truncated


def check_represented(target: FinSSet, dim: int) -> None:
    """Raise ``Truncated`` unless the target is represented up to dimension ``dim``."""
    if target.dim_bound is not None and dim > target.dim_bound:
        raise Truncated(f"target truncated at {target.dim_bound}, below source dimension {dim}")


def face_lookup(target: FinSSet) -> Callable[[tuple[Simplex, ...]], list[Simplex]]:
    """``target.simplices_with_faces`` memoized by face tuple for one search.

    The level is ``len(wants) - 1``.  The lists returned are shared between
    calls, so callers must not change them.
    """
    memo: dict[tuple[Simplex, ...], list[Simplex]] = {}

    def lookup(wants: tuple[Simplex, ...]) -> list[Simplex]:
        found = memo.get(wants)
        if found is None:
            found = memo[wants] = target.simplices_with_faces(len(wants) - 1, wants)
        return found

    return lookup


class SearchPlan(NamedTuple):
    """The order in which a map search from one source assigns its cells.

    ``cells`` lists the nondegenerate cells by dimension, then by name.
    ``due[m]`` lists the positions j > m of the cells whose last face base
    is ``cells[m - 1]`` (m = 0 for vertices): their candidates are looked up
    as soon as the first m cells are assigned.  Cell m itself, like every
    cell whose last face base is the cell just before it, is looked up at
    its own turn.
    """

    cells: tuple[str, ...]
    due: tuple[tuple[int, ...], ...]


def search_plan(source: FinSSet) -> SearchPlan:
    """The search plan of ``source``, computed once and cached on it."""
    cache = source._search_plan
    if not cache:
        cells = [c for level in source.cells for c in sorted(level)]
        position = {c: k for k, c in enumerate(cells)}
        due: list[list[int]] = [[] for _ in range(len(cells) + 1)]
        for j, c in enumerate(cells):
            last = max((position[f.base] for f in source.faces.get(c, ())), default=-1)
            if last < j - 1:
                due[last + 1].append(j)
        cache.append(SearchPlan(tuple(cells), tuple(map(tuple, due))))
    return cache[0]


def enumerate_maps(
    source: FinSSet,
    target: FinSSet,
    *,
    forced: Optional[dict[str, Simplex]] = None,
    constraint: Optional[Callable[[str, Simplex], bool]] = None,
    mono: bool = False,
) -> Iterator[SMap]:
    """Yield all simplicial maps source -> target.

    ``forced`` pins images of particular cells; ``constraint`` filters
    candidate images cell by cell; ``mono`` yields only the monomorphisms.
    The target must be represented at least up to the dimension of the
    source.
    """
    check_represented(target, source.dim)
    cells, due = search_plan(source)
    forced = forced or {}
    if not cells:
        yield SMap(source, target, {})
        return

    assign: dict[str, Simplex] = {}
    lookup = face_lookup(target)

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
                options = lookup(wants)
        if constraint is None:
            return iter(options)
        return (cand for cand in options if constraint(c, cand))

    # early[j] holds the candidates of cells[j] when they are looked up ahead
    # of its turn; the step that assigns its last face base refreshes them on
    # every branch that reaches cells[j]
    early: list[Optional[list[Simplex]]] = [None] * len(cells)

    def look_ahead(assigned: int) -> bool:
        """Look up the cells due once ``assigned`` cells are; False when one has none."""
        for j in due[assigned]:
            found = early[j] = list(candidates(cells[j]))
            if not found:
                return False
        return True

    if not look_ahead(0):
        return
    # stack[k] iterates the candidates for cells[k]; a deeper entry of
    # ``assign`` left over from an abandoned branch is overwritten before it
    # is read, and its key keeps its place, so yielded dicts are in cell order
    stack: list[Iterator[Simplex]] = []
    push = append = stack.append
    if mono:
        # a map is mono exactly when it sends the nondegenerate cells to
        # distinct nondegenerate cells (``SMap.preimages``); a candidate's
        # base stays held until its iterator moves on, and an iterator
        # resumes only after every deeper one is exhausted
        held: set[str] = set()

        def injective(options: Iterator[Simplex]) -> Iterator[Simplex]:
            for cand in options:
                if not cand.word and cand.base not in held:
                    held.add(cand.base)
                    yield cand
                    held.discard(cand.base)

        def push(options: Iterator[Simplex]) -> None:
            append(injective(options))

    push(candidates(cells[0]))
    while stack:
        k = len(stack) - 1
        cand = next(stack[k], None)
        if cand is None:
            stack.pop()
            continue
        assign[cells[k]] = cand
        if due[k + 1] and not look_ahead(k + 1):
            continue
        if k + 1 < len(cells):
            found = early[k + 1]
            push(candidates(cells[k + 1]) if found is None else iter(found))
            continue
        yield SMap(source, target, dict(assign))


def count_maps(source: FinSSet, target: FinSSet) -> int:
    return sum(1 for _ in enumerate_maps(source, target))


def enumerate_sections(p: SMap, over: SMap, **kw) -> Iterator[SMap]:
    """Maps s: over.source -> p.source with p . s == over."""
    if p.target != over.target:
        raise SSetError("section enumeration: codomain mismatch")

    def fiber(c: str, cand: Simplex) -> bool:
        return p.apply(cand) == over.apply_cell(c)

    yield from enumerate_maps(over.source, p.source, constraint=fiber, **kw)
