"""Time the map search and count its face lookups; stdlib only.

Usage, from the root of a checkout:

    python3 tools/bench_search.py --column NAME [--src DIR]

Each workload runs five times, each time in a fresh interpreter that
imports ssetkit from ``DIR`` (default: this checkout's ``src``), and once
more with ``FinSSet.simplices_with_faces`` and ``FinSSet.face`` wrapped to
count their calls, a machine-independent measure of the search.  The median
wall seconds, the single runs and the counts are stored under ``NAME`` in
each workload of ``BENCH_search.json``; other columns in that file are
kept, so two checkouts measured one after the other sit side by side.
Inputs are built before the clock starts.

Workloads:

- ``horn_into_vertices``: ``enumerate_maps(horn(3, 0)[0], S)`` where S is
  the source of ``catfib_corpus()[28]`` (9 vertices, no nondegenerate edge).
- ``has_rlp_kan``: ``has_rlp(catfib_corpus()[28], kan_family(3))``.
- ``catfib_classify``: ``classify(f, 3)``, then ``g_fib_check(f, 3)`` when f
  is a categorical fibration, over the distinct ``catfib_corpus(50)`` maps
  but the four heaviest (distinct indices 20, 22, 27 and 28, 4-10 s each).
- ``find_isomorphism``: ``find_isomorphism(x, core_G(x, level=3).core)``
  over ``lemma_corpus(400)``, then ``b_functor(Δ^1, level=l).sset`` against
  ``interval_groupoid_skeleton(l)`` for l = 1, 2, 3: the calls that
  ``lemma_four_conditions`` and criterion 4 make.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_search.json"
HEAVY = (20, 22, 27, 28)
RUNS = 5

WORKLOADS = {
    "horn_into_vertices": "list(enumerate_maps(horn(3, 0)[0], catfib_corpus()[28].source))",
    "has_rlp_kan": "has_rlp(catfib_corpus()[28], kan_family(3))",
    "catfib_classify": "classify(f, 3) and g_fib_check(f, 3) over 28 distinct catfib_corpus(50) maps",
    "find_isomorphism": "find_isomorphism(x, core_G(x, level=3).core) over lemma_corpus(400), "
                        "and b(Δ^1) against the interval groupoid skeleton at levels 1-3",
}


def _inputs(name: str):
    """The workload's inputs and a function running it on them."""
    from ssetkit.corpus import catfib_corpus, lemma_corpus
    from ssetkit.joyal import b_functor, core_G, g_fib_check
    from ssetkit.kernel import enumerate_maps, find_isomorphism, horn, interval_groupoid_skeleton, std_simplex
    from ssetkit.lifting import classify, has_rlp, kan_family

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
        run()
        return {"seconds": time.perf_counter() - start}
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


def measure(src: Path) -> dict:
    column = {}
    for name in WORKLOADS:
        seconds = [_spawn(src, name, False)["seconds"] for _ in range(RUNS)]
        calls = _spawn(src, name, True)
        column[name] = {
            "median_s": round(statistics.median(seconds), 6),
            "runs_s": [round(s, 6) for s in seconds],
            "simplices_with_faces_calls": calls["simplices_with_faces"],
            "face_calls": calls["face"],
        }
        print(f"{name}: {column[name]['median_s']:.4f} s, "
              f"{calls['simplices_with_faces']} lookups, {calls['face']} face calls", file=sys.stderr)
    return column


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--column", help="name to store this checkout's results under")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding ssetkit")
    ap.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.count)))
        return 0
    if not args.column:
        ap.error("--column is required")
    column = measure(args.src.resolve())
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["about"] = __doc__.splitlines()[0]
    doc.setdefault("machine", {}).update({
        args.column: {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu": _cpu(),
            "nproc": os.cpu_count(),
        },
    })
    doc["runs"] = RUNS
    workloads = doc.setdefault("workloads", {})
    for name, what in WORKLOADS.items():
        entry = workloads.setdefault(name, {})
        entry["what"] = what
        entry[args.column] = column[name]
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
