"""Time the by-need small object argument and count its attachments; stdlib only.

Usage, from the root of a checkout:

    python3 tools/bench_factor.py --column NAME [--src DIR]

Each row runs five times, each time in a fresh interpreter that imports
ssetkit from ``DIR`` (default: this checkout's ``src``).  The row's map is
built before the clock starts; the clock covers one ``factor_soa`` call,
which completes or exhausts its budget.  The median wall seconds, the
single runs and the number of cells attached, a machine-independent
measure of the work, are stored under ``NAME`` in each row of
``BENCH_factor.json``; other columns in that file are kept, so two
checkouts measured one after the other sit side by side.

Rows, all against ``kan_family(2)``:

- ``boundary_include/B``: ``corpus/maps/boundary_include.smap`` at budget
  B = 20, 40, 80, 120.
- ``coprod_z/B``: the map Z -> 1 that ``dep_coprod`` factors for
  ``Coprod (i : I1) A``, with A the constant fibration discrete(2) -> Δ^0
  and both types in the kan class at depth 2 (Z has 4 vertices and 2
  edges), at budget B = 25, 50, 100, 200.
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
OUT = ROOT / "BENCH_factor.json"
RUNS = 5

ROWS = [f"boundary_include/{b}" for b in (20, 40, 80, 120)] + [
    f"coprod_z/{b}" for b in (25, 50, 100, 200)
]


def _map(name: str):
    """The map a row factors."""
    from ssetkit.kernel import compose, load_smap, std_simplex, terminal, terminal_map
    from ssetkit.corpus import discrete
    from ssetkit.model import Binder, FibClassSpec, LUContext, LUType, ctx_extend
    from ssetkit.model.formers import _pi_universe

    if name == "boundary_include":
        return load_smap(ROOT / "corpus" / "maps" / "boundary_include.smap")
    spec = FibClassSpec("kan", 2)
    gamma = LUContext(terminal())
    a = LUType(gamma, terminal_map(gamma.sset), terminal_map(std_simplex(1)), spec)
    pb = ctx_extend(gamma, a).pb
    b = LUType(LUContext(pb.sset), terminal_map(pb.sset), terminal_map(discrete(2)), spec)
    _, pb_u, _, z = _pi_universe(Binder(a, pb, b))
    return compose(pb_u.proj1, z.proj1)


def child(row: str) -> dict:
    """One measurement in this interpreter: seconds and attachments."""
    from ssetkit.lifting import BudgetExhausted, factor_soa, kan_family

    name, budget = row.split("/")
    f, family = _map(name), kan_family(2)
    start = time.perf_counter()
    try:
        fac = factor_soa(f, family, int(budget))
    except BudgetExhausted as exc:
        fac = exc.partial
    return {"seconds": time.perf_counter() - start, "attachments": len(fac.attachments)}


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _spawn(src: Path, row: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, __file__, "--child", row]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def measure(src: Path) -> dict:
    column = {}
    for row in ROWS:
        runs = [_spawn(src, row) for _ in range(RUNS)]
        attached = {r["attachments"] for r in runs}
        if len(attached) != 1:
            raise RuntimeError(f"{row}: attachments differ between runs: {sorted(attached)}")
        seconds = [r["seconds"] for r in runs]
        column[row] = {
            "median_s": round(statistics.median(seconds), 6),
            "runs_s": [round(s, 6) for s in seconds],
            "attachments": attached.pop(),
        }
        print(f"{row}: {column[row]['median_s']:.4f} s, "
              f"{column[row]['attachments']} attachments", file=sys.stderr)
    return column


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--column", help="name to store this checkout's results under")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding ssetkit")
    ap.add_argument("--child", choices=ROWS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.child)))
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
    rows = doc.setdefault("rows", {})
    for row in ROWS:
        rows.setdefault(row, {})[args.column] = column[row]
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
