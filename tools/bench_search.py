"""Time the map search, the small object argument and pushouts, and count their work; stdlib only.

Usage, from the root of a checkout:

    python3 tools/bench_search.py --column NAME [--src DIR]
    python3 tools/bench_search.py --column parent --src OLD/src \
        --column change --src NEW/src

Each workload runs five times per tree, each time in a fresh interpreter
that imports ssetkit from that tree's ``DIR`` (default, for a single
column: this checkout's ``src``), and once more with
``FinSSet.simplices_with_faces`` and ``FinSSet.face`` wrapped to count their
calls, a machine-independent measure of the search.  With two trees the
timed runs alternate, A, B, A, B, ..., so that drift of the host over the
invocation falls on both alike.  The median wall seconds, the single runs
and the counts are stored under each ``NAME`` in each workload of
``BENCH_search.json``; other columns in that file are kept.  Inputs are
built before the clock starts.

Workloads:

- ``horn_into_vertices``: ``enumerate_maps(horn(3, 0)[0], S)`` where S is
  the source of ``catfib_corpus()[28]`` (9 vertices, no nondegenerate edge).
- ``has_rlp_kan``: ``has_rlp(catfib_corpus()[28], kan_family(3))``.
- ``catfib_classify``: ``classify(f, 3)``, then ``g_fib_check(f, 3)`` when f
  is a categorical fibration, over the distinct ``catfib_corpus(50)`` maps
  but the four heaviest (distinct indices 20, 22, 27 and 28, 4-10 s each).
- ``classify_random``: ``classify(f, 3)``, then ``g_fib_check(f, 3)`` when
  f is a categorical fibration, over the first 128 random maps that the
  fibcheck benchmark draws (``random.Random(50_000 + k)``, two
  ``random_sset(rng, max_dim=3, max_cells=6)`` and ``random_map``, skipping
  the k that give no map).  Most fail early; ``catfib_classify`` has none.
- ``find_isomorphism``: ``find_isomorphism(x, core_G(x, level=3).core)``
  over ``lemma_corpus(400)``, then ``b_functor(Δ^1, level=l).sset`` against
  ``interval_groupoid_skeleton(l)`` for l = 1, 2, 3: the calls that
  ``lemma_four_conditions`` and criterion 4 make.
- ``boundary_include/B``: ``factor_soa`` of
  ``corpus/maps/boundary_include.smap`` against ``kan_family(2)`` at budget
  B = 20, 40, 80, 120, which completes or exhausts its budget.
- ``coprod_z/B``: ``factor_soa`` against ``kan_family(2)`` of the map
  Z -> 1 that ``dep_coprod`` factors for ``Coprod (i : I1) A``, with A the
  constant fibration discrete(2) -> Δ^0 and both types in the kan class at
  depth 2 (Z has 4 vertices and 2 edges), at budget B = 25, 50, 100, 200.
- ``pushout``: every pushout that the ``boundary_include`` and ``coprod_z``
  rows make, and those of ``leibniz(i, j)`` over the pairs of
  ``corpus/maps`` whose span is not a monomorphism, recorded before the
  clock starts and then built again.  A smaller budget's pushouts are the
  first ones of the larger budget's, so each map is recorded once, at its
  largest budget.

The factor rows also store the cells they attach and ``pushout`` the cells
it builds, counted in every timed run, which must agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_search.json"
MAPS = ROOT / "corpus" / "maps"
HEAVY = (20, 22, 27, 28)
RANDOM_BASE, RANDOM_MAPS = 50_000, 128
RUNS = 5

WORKLOADS = {
    "horn_into_vertices": "list(enumerate_maps(horn(3, 0)[0], catfib_corpus()[28].source))",
    "has_rlp_kan": "has_rlp(catfib_corpus()[28], kan_family(3))",
    "catfib_classify": "classify(f, 3) and g_fib_check(f, 3) over 28 distinct catfib_corpus(50) maps",
    "classify_random": "classify(f, 3) and g_fib_check(f, 3) over the first 128 fibcheck random maps",
    "find_isomorphism": "find_isomorphism(x, core_G(x, level=3).core) over lemma_corpus(400), "
                        "and b(Δ^1) against the interval groupoid skeleton at levels 1-3",
    **{f"boundary_include/{b}": f"factor_soa(boundary_include, kan_family(2), {b})" for b in (20, 40, 80, 120)},
    **{f"coprod_z/{b}": f"factor_soa(Z -> 1 of Coprod (i : I1) A, kan_family(2), {b})" for b in (25, 50, 100, 200)},
    "pushout": "pushout(f, g) over the spans of boundary_include/120, coprod_z/200 "
               "and the corpus leibniz pairs whose span is not mono",
}


def _factor_map(name: str):
    """The map a factor row factors."""
    from ssetkit.corpus import discrete
    from ssetkit.kernel import compose, load_smap, std_simplex, terminal, terminal_map
    from ssetkit.model import Binder, FibClassSpec, LUContext, LUType, ctx_extend
    from ssetkit.model.formers import _pi_universe

    if name == "boundary_include":
        return load_smap(MAPS / "boundary_include.smap")
    spec = FibClassSpec("kan", 2)
    gamma = LUContext(terminal())
    a = LUType(gamma, terminal_map(gamma.sset), terminal_map(std_simplex(1)), spec)
    pb = ctx_extend(gamma, a).pb
    b = LUType(LUContext(pb.sset), terminal_map(pb.sset), terminal_map(discrete(2)), spec)
    _, pb_u, _, z = _pi_universe(Binder(a, pb, b))
    return compose(pb_u.proj1, z.proj1)


def _attached(f, budget: int) -> int:
    """Cells ``factor_soa`` attaches to f against ``kan_family(2)`` within the budget."""
    from ssetkit.lifting import BudgetExhausted, factor_soa, kan_family

    try:
        fac = factor_soa(f, kan_family(2), budget)
    except BudgetExhausted as exc:
        fac = exc.partial
    return len(fac.attachments)


def _spans() -> list:
    """The spans the pushout workload builds, recorded through ``lifting``."""
    from ssetkit import lifting
    from ssetkit.kernel import load_smap

    spans, build = [], lifting.pushout

    def record(f, g):
        spans.append((f, g))
        return build(f, g)

    lifting.pushout = record
    try:
        _attached(_factor_map("boundary_include"), 120)
        _attached(_factor_map("coprod_z"), 200)
        factored = len(spans)
        maps = [load_smap(p) for p in sorted(MAPS.glob("*.smap"))]
        for i in maps:
            for j in maps:
                lifting.leibniz(i, j)
    finally:
        lifting.pushout = build
    return spans[:factored] + [(f, g) for f, g in spans[factored:] if f.preimages() is None]


def _inputs(name: str):
    """The workload's inputs and a function running it on them."""
    from ssetkit.corpus import catfib_corpus, lemma_corpus, random_map, random_sset
    from ssetkit.joyal import b_functor, core_G, g_fib_check
    from ssetkit.kernel import enumerate_maps, find_isomorphism, horn, interval_groupoid_skeleton, std_simplex
    from ssetkit.kernel import pushout
    from ssetkit.lifting import classify, has_rlp, kan_family

    if "/" in name:
        row, budget = name.split("/")
        f = _factor_map(row)
        kan_family(2)  # cached, so the generators are built before the clock starts
        return lambda: {"attachments": _attached(f, int(budget))}
    if name == "pushout":
        spans = _spans()
        return lambda: {"cells": sum(pushout(f, g).sset.size() for f, g in spans)}
    if name == "horn_into_vertices":
        source, target = horn(3, 0)[0], catfib_corpus()[28].source
        return lambda: list(enumerate_maps(source, target))
    if name == "has_rlp_kan":
        f, family = catfib_corpus()[28], kan_family(3)
        return lambda: has_rlp(f, family)
    if name == "find_isomorphism":
        pairs = [(x, core_G(x, level=3).core) for x in lemma_corpus(400)]
        pairs += [
            (b_functor(std_simplex(1), level=level).sset, interval_groupoid_skeleton(level)[0])
            for level in (1, 2, 3)
        ]
        return lambda: [find_isomorphism(x, y) for x, y in pairs]
    if name == "classify_random":
        maps, k = [], 0
        while len(maps) < RANDOM_MAPS:
            rng = random.Random(RANDOM_BASE + k)
            x = random_sset(rng, max_dim=3, max_cells=6)
            y = random_sset(rng, max_dim=3, max_cells=6)
            f = random_map(rng, x, y)
            if f is not None:
                maps.append(f)
            k += 1
    else:
        distinct = []
        for f in catfib_corpus(50):
            if f not in distinct:
                distinct.append(f)
        maps = [f for i, f in enumerate(distinct) if i not in HEAVY]

    def run():
        for f in maps:
            if classify(f, 3).cat_fib:
                g_fib_check(f, 3)

    return run


def child(name: str, count: bool) -> dict:
    """One measurement in this interpreter: seconds, or the call counts."""
    from ssetkit.kernel import FinSSet

    run = _inputs(name)
    if not count:
        start = time.perf_counter()
        work = run()
        seconds = time.perf_counter() - start
        # the factor rows and pushout count their work; the other workloads return no counts
        return {"seconds": seconds, **(work if isinstance(work, dict) else {})}
    calls = {"simplices_with_faces": 0, "face": 0}

    def counted(method: str):
        original = getattr(FinSSet, method)

        def wrapper(self, *args):
            calls[method] += 1
            return original(self, *args)

        setattr(FinSSet, method, wrapper)

    counted("simplices_with_faces")
    counted("face")
    run()
    return calls


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _spawn(src: Path, name: str, count: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, __file__, "--child", name] + (["--count"] if count else [])
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def measure(trees: dict[str, Path]) -> dict:
    """Each tree's results per workload, the trees' timed runs alternated."""
    columns: dict = {column: {} for column in trees}
    for name in WORKLOADS:
        runs: dict = {column: [] for column in trees}
        for _ in range(RUNS):
            for column, src in trees.items():
                runs[column].append(_spawn(src, name, False))
        for column, src in trees.items():
            seconds = [r.pop("seconds") for r in runs[column]]
            work = {json.dumps(r, sort_keys=True) for r in runs[column]}
            if len(work) != 1:
                raise RuntimeError(f"{name} [{column}]: work differs between runs: {sorted(work)}")
            calls = _spawn(src, name, True)
            columns[column][name] = {
                "median_s": round(statistics.median(seconds), 6),
                "runs_s": [round(s, 6) for s in seconds],
                "simplices_with_faces_calls": calls["simplices_with_faces"],
                "face_calls": calls["face"],
                **json.loads(work.pop()),
            }
            print(f"{name} [{column}]: {columns[column][name]['median_s']:.4f} s, "
                  f"{calls['simplices_with_faces']} lookups, {calls['face']} face calls, "
                  f"{runs[column][0] or 'no other counts'}", file=sys.stderr)
    return columns


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--column", action="append", default=[],
                    help="name to store a tree's results under; give twice to compare two trees")
    ap.add_argument("--src", type=Path, action="append", default=[],
                    help="directory holding ssetkit, one per --column (default for one column: this checkout's src)")
    ap.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.count)))
        return 0
    if not args.column:
        ap.error("--column is required")
    srcs = args.src or ([ROOT / "src"] if len(args.column) == 1 else [])
    if len(srcs) != len(args.column) or len(set(args.column)) != len(args.column):
        ap.error("give one --src per --column, and distinct column names")
    columns = measure({column: src.resolve() for column, src in zip(args.column, srcs)})
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["about"] = __doc__.splitlines()[0]
    machine = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": _cpu(),
        "nproc": os.cpu_count(),
    }
    doc.setdefault("machine", {}).update({column: machine for column in columns})
    doc["runs"] = RUNS
    workloads = doc.setdefault("workloads", {})
    for name, what in WORKLOADS.items():
        entry = workloads.setdefault(name, {})
        entry["what"] = what
        for column, results in columns.items():
            entry[column] = results[name]
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
