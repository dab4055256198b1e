"""Deterministic corpora: seeded random objects and curated map suites.

Random simplicial sets are grown by cell attachment, so every generated
object satisfies the simplicial identities by construction; the curated
suites package the objects and maps that the checking routines and the
acceptance runner consume.  Everything here is deterministic for a fixed
seed.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Optional

from .kernel import (
    EMPTY,
    FinSSet,
    SMap,
    boundary,
    constant_map,
    coproduct,
    enumerate_maps,
    horn,
    identity,
    nerve_j,
    nondeg,
    product,
    std_simplex,
    terminal,
    terminal_map,
)
from .kernel.simplex import Simplex

__all__ = [
    "random_sset",
    "random_ssets",
    "random_map",
    "small_objects",
    "adjunction_pairs",
    "lemma_corpus",
    "catfib_corpus",
    "gkan_corpus",
    "qcat_corpus",
    "groupoid_cover_corpus",
    "discrete",
]


def discrete(k: int) -> FinSSet:
    """The discrete simplicial set on k points."""
    verts = tuple(f"p{i}" for i in range(k))
    return FinSSet((verts,), {}) if k else EMPTY


# -- random generation -----------------------------------------------------------


def _attach_edge(rng: random.Random, cells, faces) -> None:
    verts = cells[0]
    u, w = rng.choice(verts), rng.choice(verts)
    name = f"e{len(cells[1])}"
    cells[1].append(name)
    faces[name] = (nondeg(w), nondeg(u))


def _edges_between(x: FinSSet, u: str, w: str) -> list[Simplex]:
    """All 1-simplices (degenerate included) from vertex u to vertex w."""
    return x.simplices_with_faces(1, (nondeg(w), nondeg(u)))


def _attach_triangle(rng: random.Random, x: FinSSet, cells, faces) -> bool:
    verts = cells[0]
    v0, v1, v2 = (rng.choice(verts) for _ in range(3))
    e01 = _edges_between(x, v0, v1)
    e02 = _edges_between(x, v0, v2)
    e12 = _edges_between(x, v1, v2)
    if not (e01 and e02 and e12):
        return False
    name = f"t{len(cells[2])}"
    cells[2].append(name)
    faces[name] = (rng.choice(e12), rng.choice(e02), rng.choice(e01))
    return True


def _attach_parallel(rng: random.Random, x: FinSSet, cells, faces, dim: int) -> bool:
    """Attach a cell parallel to an existing ``dim``-simplex (faces inherited)."""
    pool = x.simplices(dim)
    if not pool:
        return False
    s = rng.choice(pool)
    name = f"c{dim}_{len(cells[dim])}"
    cells[dim].append(name)
    faces[name] = tuple(x.face(s, i) for i in range(dim + 1))
    return True


def random_sset(
    rng: random.Random, max_dim: int = 3, max_cells: int = 8
) -> FinSSet:
    """A random simplicial set grown by valid cell attachments."""
    n_verts = rng.randint(1, min(3, max_cells))
    cells = [[f"v{i}" for i in range(n_verts)], [], [], []]
    faces: dict = {}
    budget = rng.randint(0, max_cells - n_verts)
    for _ in range(budget):
        x = FinSSet.make({n: lv for n, lv in enumerate(cells)}, faces)
        dim = rng.randint(1, max_dim)
        if dim == 1:
            _attach_edge(rng, cells, faces)
        elif dim == 2:
            if rng.random() < 0.5:
                if not _attach_triangle(rng, x, cells, faces):
                    _attach_edge(rng, cells, faces)
            else:
                if not _attach_parallel(rng, x, cells, faces, 2):
                    _attach_edge(rng, cells, faces)
        else:
            if not _attach_parallel(rng, x, cells, faces, dim):
                _attach_edge(rng, cells, faces)
    return FinSSet.make({n: lv for n, lv in enumerate(cells)}, faces)


def random_ssets(
    count: int, seed: int, max_dim: int = 3, max_cells: int = 8
) -> list[FinSSet]:
    rng = random.Random(seed)
    return [random_sset(rng, max_dim, max_cells) for _ in range(count)]


def random_map(rng: random.Random, x: FinSSet, y: FinSSet, cap: int = 64) -> Optional[SMap]:
    """A random map x -> y, drawn from the first ``cap`` in canonical order."""
    pool = list(islice(enumerate_maps(x, y), cap))
    if not pool:
        return None
    return rng.choice(pool)


# -- curated object corpora -------------------------------------------------------


def small_objects() -> list[FinSSet]:
    """Objects with <= 6 nondegenerate cells for the hom/adjunction oracles."""
    return [
        terminal(),
        std_simplex(1),
        boundary(1)[0],
        horn(2, 1)[0],
        horn(2, 0)[0],
        discrete(2),
        coproduct(terminal(), std_simplex(1)).sset,
        std_simplex(2),
        boundary(2)[0],
        nerve_j(1),
    ]


def adjunction_pairs() -> list[tuple[FinSSet, FinSSet]]:
    """Pairs small enough for exact product/exponential bijection checks."""
    objs = [terminal(), std_simplex(1), boundary(1)[0], discrete(2), horn(2, 1)[0]]
    return [(a, b) for a in objs for b in objs]


def lemma_corpus(count: int = 200, seed: int = 7) -> list[FinSSet]:
    """Objects of dimension <= 2 so level-3 invertibility verdicts are total."""
    curated = [
        terminal(),
        discrete(2),
        discrete(3),
        std_simplex(1),
        std_simplex(2),
        boundary(2)[0],
        horn(2, 1)[0],
        nerve_j(3),
        coproduct(nerve_j(3), terminal()).sset,
        coproduct(std_simplex(1), std_simplex(1)).sset,
    ]
    rng = random.Random(seed)
    out = list(curated)
    while len(out) < count:
        out.append(random_sset(rng, max_dim=2, max_cells=6))
    return out[:count]


# -- curated map corpora ------------------------------------------------------------


def catfib_corpus(count: int = 50) -> list[SMap]:
    """Maps passing the categorical-fibration lifting check at depth 3."""
    nj = nerve_j(3)
    objects = [
        terminal(),
        std_simplex(1),
        std_simplex(2),
        std_simplex(3),
        discrete(2),
        discrete(3),
        nj,
        coproduct(nj, terminal()).sset,
        product(std_simplex(1), std_simplex(1)).sset,
        coproduct(std_simplex(2), discrete(2)).sset,
        horn(2, 1)[0],
        boundary(2)[0],
        coproduct(std_simplex(1), discrete(2)).sset,
        product(discrete(2), std_simplex(1)).sset,
    ]
    maps: list[SMap] = [identity(x) for x in objects]
    # groupoid-type objects fiber over the point
    for x in (terminal(), discrete(2), discrete(3), nj):
        maps.append(terminal_map(x))
    # projections with groupoid-type fibers
    for base in (std_simplex(1), std_simplex(2), nj):
        for fib in (discrete(2), nj):
            prod = product(base, fib)
            maps.append(prod.proj1)
    # fold maps of groupoid-type objects over themselves
    for x in (terminal(), nj):
        cop = coproduct(x, x)
        maps.append(cop.induce(identity(x), identity(x)))
    # vertex inclusions composed with identities give more identities; pad with
    # products over the point and projections of discrete squares
    for k in (2, 3):
        prod = product(discrete(k), discrete(k))
        maps.append(prod.proj1)
        maps.append(prod.proj2)
    extra = [
        constant_map(std_simplex(n), terminal(), "0") for n in range(0, 4)
    ]
    maps.extend(extra)
    while len(maps) < count:
        maps.append(identity(std_simplex(len(maps) % 3)))
    return maps[:count]


def gkan_corpus(count: int = 20) -> list[SMap]:
    """Maps between all-invertible-edge objects for the factorization check."""
    nj = nerve_j(2)
    pts2, pts3 = discrete(2), discrete(3)
    maps: list[SMap] = [
        identity(terminal()),
        identity(pts2),
        identity(pts3),
        identity(nj),
        terminal_map(pts2),
        terminal_map(pts3),
        terminal_map(nj),
        coproduct(terminal(), terminal()).induce(
            identity(terminal()), identity(terminal())
        ),
        SMap(terminal(), nj, {"0": nondeg("n_a")}),
        SMap(terminal(), nj, {"0": nondeg("n_b")}),
        SMap(pts2, nj, {"p0": nondeg("n_a"), "p1": nondeg("n_b")}),
        SMap(pts2, pts3, {"p0": nondeg("p0"), "p1": nondeg("p2")}),
        SMap(pts3, pts2, {"p0": nondeg("p0"), "p1": nondeg("p1"), "p2": nondeg("p1")}),
        product(nj, pts2).proj1,
        product(pts2, pts2).proj1,
        identity(coproduct(nj, terminal()).sset),
        identity(product(pts2, pts2).sset),
        terminal_map(coproduct(pts2, terminal()).sset),
        SMap(terminal(), pts2, {"0": nondeg("p0")}),
        SMap(terminal(), pts3, {"0": nondeg("p1")}),
    ]
    return maps[:count]


def qcat_corpus() -> list[FinSSet]:
    """Quasicategory-verified objects for the composite-invertibility sweep."""
    return [
        terminal(),
        std_simplex(1),
        std_simplex(2),
        std_simplex(3),
        nerve_j(3),
        discrete(3),
        coproduct(nerve_j(3), std_simplex(2)).sset,
        product(std_simplex(1), std_simplex(1)).sset,
        coproduct(std_simplex(1), nerve_j(3)).sset,
    ]


def groupoid_cover_corpus() -> list[SMap]:
    """Covering-type fibrations over groupoid nerves for identity closure."""
    nj = nerve_j(2)
    fold = coproduct(nj, nj).induce(identity(nj), identity(nj))
    return [
        identity(nj),
        product(nj, discrete(2)).proj1,
        terminal_map(discrete(2)),
        fold,
        identity(discrete(3)),
    ]
