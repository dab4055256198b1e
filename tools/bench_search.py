"""Time the map search, the small object argument, the Joyal layer, (co)limits, pushforwards, the .itt front end and interp, and count their work; stdlib only.

Usage, from the root of a checkout:

    python3 tools/bench_search.py --column NAME [--src DIR]
    python3 tools/bench_search.py --column parent --src OLD/src \
        --column change --src NEW/src

Each workload runs in rounds, one timed run per tree a round, each run in a
fresh interpreter that imports ssetkit from that tree's ``DIR`` (default,
for a single column: this checkout's ``src``).  Round k runs every tree
with ``PYTHONHASHSEED=k``, so set and dict orders vary between rounds but
never between the trees of one round.  With two trees the rounds
alternate which tree runs first, A B, B A, A B, ..., so that drift of the
host over the invocation falls on both alike, and they go on until the
interquartile ranges of the trees' seconds are disjoint, at least
``MIN_ROUNDS`` and at most ``MAX_ROUNDS`` rounds; a single tree runs
``MIN_ROUNDS``.  Each tree then runs once more, with ``PYTHONHASHSEED=0``,
with ``FinSSet.simplices_with_faces`` and ``FinSSet.face`` wrapped to count
their calls, a machine-independent measure of the search.  The median wall
seconds with their interquartile range, the rounds in which the tree was
fastest, the single runs and the counts are stored under each ``NAME`` in
each workload of ``BENCH_search.json``; other columns in that file are
kept.  Inputs are built, and their garbage collected, before the clock
starts.  The file's ``method`` records how each column was measured: the
columns from before ``56195ca`` took five runs per tree with no collection
before the clock, and those without a ``hash_seed`` gave each run a random
one, so compare columns only when their methods agree.

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
- ``joyal``: ``core_G(x, level=3)`` over ``lemma_corpus(400)``;
  ``core_G(x, "qcat", level=2)`` and ``composite_invertibility_check(x,
  level=3)`` over ``qcat_corpus()``; and ``factor_g_kan(f, level=2,
  budget=500)`` over ``gkan_corpus(20)``, with ``b_horn_family(2)`` and
  ``kan_family(2)`` built before the clock starts.
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

- ``pullback``: every ``limits._pullback`` call, products included, that
  criteria 2, 9 (``split_substitution_suite()``) and 11 make, recorded
  before the clock starts and then built again.
- ``pushforward``: every ``closed.Pushforward`` that criterion 2 builds (its
  50 exponentials and 3 pushforwards) and that ``audit_semifib`` builds on
  the ``audit`` verb's corpus for each family at depth 2, recorded before
  the clock starts and then built again.

- ``parse``: ``parse_file`` over the 248 sources of rounds 0-3 of the
  perfbench ``typecheck`` workload at seed 1 (768 KB; generated by
  ``perfbench.workloads.generate_program`` or read from ``corpus/itt``),
  counting the tokens (read through the tree's tokenizer before the clock
  starts), the declarations and the sources that do not parse.
- ``check``: the checker over the same sources, parsed before the clock
  starts, as ``check_source`` checks them, counting the declarations
  checked and the sources rejected.
- ``interp``: the elaborator over the interp items of the same rounds, as
  the workload interprets them in the kan class at depth 2, checked before
  the clock starts, counting the definitions interpreted, skipped and
  failed.

``joyal`` stores the cells of its cores, the 2-cells its composite checks
report (violations and unknowns) and the cells its factorizations attach.
The factor rows also store the cells they attach, ``pushout``, ``pullback``
and ``pushforward`` the cells they build, and ``parse``, ``check`` and
``interp`` what they count, in every timed run; these must agree between
the runs and between the trees.  The counting run of ``check`` and
``interp`` also counts the calls of ``equality.normalize``, rebound
wherever ssetkit imported it, and the objects that ``gc.collect()`` frees
after the run, which runs with the cyclic collector disabled: the
``normalize_calls`` and ``cyclic_garbage`` of those rows.  These two differ
between trees that change the checker.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_search.json"
MAPS = ROOT / "corpus" / "maps"
HEAVY = (20, 22, 27, 28)
RANDOM_BASE, RANDOM_MAPS = 50_000, 128
TYPECHECK_SEED, TYPECHECK_ROUNDS = 1, 4
MIN_ROUNDS, MAX_ROUNDS = 10, 15

WORKLOADS = {
    "horn_into_vertices": "list(enumerate_maps(horn(3, 0)[0], catfib_corpus()[28].source))",
    "has_rlp_kan": "has_rlp(catfib_corpus()[28], kan_family(3))",
    "catfib_classify": "classify(f, 3) and g_fib_check(f, 3) over 28 distinct catfib_corpus(50) maps",
    "classify_random": "classify(f, 3) and g_fib_check(f, 3) over the first 128 fibcheck random maps",
    "find_isomorphism": "find_isomorphism(x, core_G(x, level=3).core) over lemma_corpus(400), "
                        "and b(Δ^1) against the interval groupoid skeleton at levels 1-3",
    "joyal": "core_G over lemma_corpus(400) at level 3 and qcat_corpus() in qcat mode at level 2, "
             "composite_invertibility_check over qcat_corpus() at level 3, "
             "and factor_g_kan over gkan_corpus(20) at level 2, budget 500",
    **{f"boundary_include/{b}": f"factor_soa(boundary_include, kan_family(2), {b})" for b in (20, 40, 80, 120)},
    **{f"coprod_z/{b}": f"factor_soa(Z -> 1 of Coprod (i : I1) A, kan_family(2), {b})" for b in (25, 50, 100, 200)},
    "pushout": "pushout(f, g) over the spans of boundary_include/120, coprod_z/200 "
               "and the corpus leibniz pairs whose span is not mono",
    "pullback": "limits._pullback over the calls of criteria 2, 9 and 11",
    "pushforward": "closed.Pushforward over the calls of criterion 2 and audit_semifib for each family at depth 2",
    "parse": "parse_file over the 248 sources of typecheck seed 1, rounds 0-3",
    "check": "the checker over the 248 parsed sources of typecheck seed 1, rounds 0-3",
    "interp": "the elaborator over the checked interp items of typecheck seed 1, rounds 0-3",
}


def _factor_map(name: str):
    """The map a factor row factors."""
    from ssetkit.corpus import discrete
    from ssetkit.kernel import compose, load_smap, std_simplex, terminal
    from ssetkit.model import Binder, FibClassSpec, constant_type, ctx_extend
    from ssetkit.model.formers import _pi_universe

    if name == "boundary_include":
        return load_smap(MAPS / "boundary_include.smap")
    spec = FibClassSpec("kan", 2)
    a = constant_type(terminal(), std_simplex(1), spec)
    pb = ctx_extend(a).pb
    _, pb_u, _, z = _pi_universe(Binder(a, pb, constant_type(pb.sset, discrete(2), spec)))
    return compose(pb_u.proj1, z.proj1)


def _attached(f, budget: int) -> int:
    """Cells ``factor_soa`` attaches to f against ``kan_family(2)`` within the budget."""
    from ssetkit.lifting import BudgetExhausted, factor_soa, kan_family

    try:
        fac = factor_soa(f, kan_family(2), budget)
    except BudgetExhausted as exc:
        fac = exc.partial
    return len(fac.attachments)


def _recorded(owner, attr: str, run) -> list[tuple]:
    """The arguments of every call of ``owner.attr`` that ``run()`` makes."""
    calls, original = [], getattr(owner, attr)

    def record(*args):
        calls.append(args)
        return original(*args)

    setattr(owner, attr, record)
    try:
        run()
    finally:
        setattr(owner, attr, original)
    return calls


def _spans() -> list:
    """The spans the pushout workload builds, recorded through ``lifting``."""
    from ssetkit import lifting
    from ssetkit.kernel import load_smap

    def factor():
        _attached(_factor_map("boundary_include"), 120)
        _attached(_factor_map("coprod_z"), 200)

    maps = [load_smap(p) for p in sorted(MAPS.glob("*.smap"))]
    factored = _recorded(lifting, "pushout", factor)
    leibniz = _recorded(lifting, "pushout", lambda: [lifting.leibniz(i, j) for i in maps for j in maps])
    return factored + [(f, g) for f, g in leibniz if f.preimages() is None]


def _limit_inputs(name: str):
    """The ``pullback`` or ``pushforward`` workload's function over its recorded calls."""
    from ssetkit import acceptance, cli
    from ssetkit.kernel import closed, limits
    from ssetkit.model import FibClassSpec, audit_semifib

    if name == "pullback":
        calls = _recorded(limits, "_pullback", lambda: [
            acceptance.criterion_2(), acceptance.criterion_9(), acceptance.criterion_11()
        ])
        return lambda: {"cells": sum(limits._pullback(*args).sset.size() for args in calls)}

    def build():
        acceptance.criterion_2()
        for family in ("kan", "inner", "trivial", "cat"):
            audit_semifib(FibClassSpec(family, 2), cli._default_audit_corpus(), budget=300, depth=2)

    calls = _recorded(closed.Pushforward, "__init__", build)  # (self, f, g, depth)
    return lambda: {"cells": sum(closed.Pushforward(*args[1:]).sset.size() for args in calls)}


def _typecheck_items() -> list[tuple[str, str]]:
    """The kind and source of each item of the first rounds of the perfbench ``typecheck`` workload."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import choose_round, generate_program, load_pool

    pool = load_pool("typecheck")
    items = []
    for round_no in range(TYPECHECK_ROUNDS):
        for iid in choose_round(pool, TYPECHECK_SEED, round_no):
            spec = pool["items"][iid]["spec"]
            if spec["kind"] == "generated":
                items.append((spec["kind"], generate_program(spec["size"], spec["variant"], spec["bad"])[0]))
            else:
                items.append((spec["kind"], (ROOT / spec["file"]).read_text()))
    return items


def _tokens(src: str) -> int:
    """The tokens of ``src``, read through the tree's tokenizer; 0 when it refuses them."""
    from ssetkit.tt.parser import ParseError, _Tokens

    try:
        ts = _Tokens(src)
    except ParseError:
        return 0
    count = 0
    while ts.peek() is not None:
        ts.next()
        count += 1
    return count


def _tt_inputs(name: str):
    """The ``parse`` or ``check`` workload's function over its inputs."""
    from ssetkit.tt import CheckError, Checker, ParseError, parse_file

    sources = [src for _, src in _typecheck_items()]
    if name == "parse":
        tokens = sum(map(_tokens, sources))

        def parse():
            declarations = errors = 0
            for src in sources:
                try:
                    declarations += len(parse_file(src)[1])
                except ParseError:
                    errors += 1
            return {"tokens": tokens, "declarations": declarations, "parse_errors": errors}

        return parse
    parsed = []
    for src in sources:
        try:
            parsed.append(parse_file(src))
        except ParseError:
            pass

    def check():
        declarations = rejected = 0
        for pragmas, decls in parsed:
            ck = Checker(stable_coproducts="stable-coproducts" in pragmas)
            try:
                if set(pragmas) - {"stable-coproducts"}:
                    raise CheckError("pragma", "unknown pragma")
                for d in decls:
                    ck.check_decl(d)
                    declarations += 1
            except CheckError:
                rejected += 1
        return {"declarations": declarations, "rejected": rejected}

    return check


def _interp_inputs():
    """The ``interp`` workload's function over its checked sources."""
    from ssetkit import lifting, model, tt

    checked = [tt.check_source(src) for kind, src in _typecheck_items() if kind == "interp"]
    family = lifting.kan_family(2)

    def interp():
        counts = {"interpreted": 0, "skipped": 0, "failed": 0}
        for ck in checked:
            env = tt.ModelEnv(
                spec=model.FibClassSpec("kan", 2),
                base_spec=model.FibClassSpec("inner", 2),
                family=family,
                budget=300,
                stable_coproducts=ck.stable,
            )
            el = tt.Elaborator(env)
            for decl in ck.decls.values():
                if decl.kind != "term" or decl.body is None:
                    counts["skipped"] += 1
                    continue
                try:
                    el.elab_decl(decl)
                    counts["interpreted"] += 1
                except model.UnsupportedConstruction:
                    counts["skipped"] += 1
                except model.ModelError:
                    counts["failed"] += 1
        return counts

    return interp


def _joyal_inputs():
    """The ``joyal`` workload's function over its corpora."""
    from ssetkit.corpus import gkan_corpus, lemma_corpus, qcat_corpus
    from ssetkit.joyal import b_horn_family, composite_invertibility_check, core_G, factor_g_kan
    from ssetkit.lifting import kan_family

    lemma, qcats, maps = lemma_corpus(400), qcat_corpus(), gkan_corpus(20)
    b_horn_family(2), kan_family(2)  # cached, so the generators are built before the clock starts

    def run():
        cells = sum(core_G(x, level=3).core.size() for x in lemma)
        cells += sum(core_G(x, "qcat", level=2).core.size() for x in qcats)
        reports = [composite_invertibility_check(x, level=3) for x in qcats]
        attached = sum(len(factor_g_kan(f, level=2, budget=500).factorization.attachments) for f in maps)
        return {
            "core_cells": cells,
            "violations": sum(len(r.failures) for r in reports),
            "unknowns": sum(len(r.unknowns) for r in reports),
            "attachments": attached,
        }

    return run


def _inputs(name: str):
    """The workload's inputs and a function running it on them."""
    from ssetkit.corpus import catfib_corpus, lemma_corpus, random_map, random_sset
    from ssetkit.joyal import b_functor, core_G, g_fib_check
    from ssetkit.kernel import enumerate_maps, find_isomorphism, horn, interval_groupoid_skeleton, std_simplex
    from ssetkit.kernel import pushout
    from ssetkit.lifting import classify, has_rlp, kan_family

    if name in ("parse", "check"):
        return _tt_inputs(name)
    if name == "interp":
        return _interp_inputs()
    if name in ("pullback", "pushforward"):
        return _limit_inputs(name)
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
    if name == "joyal":
        return _joyal_inputs()
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
        # the garbage of building the inputs is set-up, not the workload's: left
        # pending, it can start a full collection inside the timed section
        gc.collect()
        start = time.perf_counter()
        work = run()
        seconds = time.perf_counter() - start
        # every row from the factor rows on counts its work; the rows before it return no counts
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
    if name not in ("check", "interp"):
        run()
        return calls
    from ssetkit.tt import equality

    calls["normalize_calls"] = 0
    normalize = equality.normalize

    def counted_normalize(*args):
        calls["normalize_calls"] += 1
        return normalize(*args)

    # rebound wherever ssetkit imported it, so the checker's and the elaborator's own calls count too
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "ssetkit"]:
        for attr, value in list(vars(module).items()):
            if value is normalize:
                setattr(module, attr, counted_normalize)
    # the cyclic garbage of the whole run: none of it is freed before the collection after it
    gc.collect()
    gc.disable()
    try:
        run()
        calls["cyclic_garbage"] = gc.collect()
    finally:
        gc.enable()
    return calls


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _spawn(src: Path, name: str, count: bool, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, __file__, "--child", name] + (["--count"] if count else [])
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _quartiles(seconds: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return q1, q3


def _separated(seconds: dict) -> bool:
    """Whether no two trees' interquartile ranges of seconds overlap."""
    ranges = [_quartiles(s) for s in seconds.values()]
    return all(a[1] < b[0] or b[1] < a[0] for a, b in combinations(ranges, 2))


def measure(trees: dict[str, Path]) -> dict:
    """Each tree's results per workload, from rounds that alternate which tree runs first."""
    columns: dict = {column: {} for column in trees}
    order = list(trees.items())
    for name in WORKLOADS:
        runs: dict = {column: [] for column in trees}
        seconds: dict = {column: [] for column in trees}
        wins = dict.fromkeys(trees, 0)
        for k in range(MAX_ROUNDS):
            for column, src in order if k % 2 == 0 else order[::-1]:
                run = _spawn(src, name, False, k)
                seconds[column].append(run.pop("seconds"))
                runs[column].append(run)
            times = {column: s[-1] for column, s in seconds.items()}
            fastest = min(times.values())
            if list(times.values()).count(fastest) == 1:
                wins[min(times, key=times.get)] += 1
            if k + 1 >= MIN_ROUNDS and (len(trees) == 1 or _separated(seconds)):
                break
        works = {column: {json.dumps(r, sort_keys=True) for r in runs[column]} for column in trees}
        for column, work in works.items():
            if len(work) != 1:
                raise RuntimeError(f"{name} [{column}]: work differs between runs: {sorted(work)}")
        if len(set.union(*works.values())) != 1:
            raise RuntimeError(f"{name}: work differs between trees: {works}")
        for column, src in trees.items():
            calls = _spawn(src, name, True, 0)
            q1, q3 = _quartiles(seconds[column])
            columns[column][name] = {
                "median_s": round(statistics.median(seconds[column]), 6),
                "iqr_s": round(q3 - q1, 6),
                "wins": wins[column],
                "runs_s": [round(s, 6) for s in seconds[column]],
                "simplices_with_faces_calls": calls["simplices_with_faces"],
                "face_calls": calls["face"],
                **{count: calls[count] for count in ("normalize_calls", "cyclic_garbage") if count in calls},
                **runs[column][0],
            }
            print(f"{name} [{column}]: {columns[column][name]['median_s']:.4f} s "
                  f"(IQR {q3 - q1:.4f} s, fastest in {wins[column]} of {len(seconds[column])}), "
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
    method = {"min_rounds": MIN_ROUNDS, "max_rounds": MAX_ROUNDS, "collect_before_clock": True,
              "hash_seed": "the round number, the same for every tree; 0 for the counting run"}
    doc.setdefault("method", {}).update({column: method for column in columns})
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
