"""Benchmark entry point: one run of one workload, measured from outside.

    python3 perfbench/run.py --workload fibcheck --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It starts fresh interpreters for the
workload (``worker.py``): four that only set up, for the median set-up
time, and one that sets up and runs rounds of items for ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
one round untraced and the same round traced, and prints the per-layer
metrics.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record, with
the environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CLI_VERBS, ROOT, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 4  # set-up-only children besides the measuring one
DEADLINE_S = 170.0  # the whole run, children included

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("kernel.face.calls", "count"), ("kernel.face.self_s", "s"),
    ("kernel.simplices.calls", "count"), ("kernel.simplices.self_s", "s"),
    ("kernel.enumerate_maps.calls", "count"), ("kernel.enumerate_maps.maps", "count"),
    ("kernel.enumerate_maps.self_s", "s"),
    ("kernel.compose.calls", "count"), ("kernel.compose.self_s", "s"),
    ("kernel.smap_eq.calls", "count"), ("kernel.smap_eq.self_s", "s"),
    ("kernel.sset_key.calls", "count"),
    ("kernel.limits.calls", "count"), ("kernel.limits.self_s", "s"),
    ("kernel.limits.cells_out", "count"),
    ("kernel.closed.self_s", "s"),
    ("kernel.find_isomorphism.calls", "count"), ("kernel.find_isomorphism.self_s", "s"),
    ("kernel.serialize.self_s", "s"),
    ("lifting.lifting_problems.squares", "count"), ("lifting.lifting_problems.self_s", "s"),
    ("lifting.solve_lift.calls", "count"), ("lifting.solve_lift.fill_ratio", "ratio"),
    ("lifting.solve_lift.self_s", "s"),
    ("lifting.has_rlp.calls", "count"), ("lifting.has_rlp.distinct_ratio", "ratio"),
    ("lifting.has_rlp.self_s", "s"),
    ("lifting.has_llp.calls", "count"), ("lifting.has_llp.self_s", "s"),
    ("lifting.factor_soa.attachments", "count"), ("lifting.factor_soa.budget_exhausted", "count"),
    ("lifting.factor_soa.self_s", "s"),
    ("joyal.core_G.self_s", "s"), ("joyal.core_of_map.self_s", "s"),
    ("joyal.b_functor.self_s", "s"), ("joyal.lemma_four_conditions.self_s", "s"),
    ("joyal.invertible_edge.calls", "count"),
    ("model.audit_semifib.self_s", "s"),
    ("model.formers.calls", "count"), ("model.formers.self_s", "s"),
    ("tt.parse.self_s", "s"), ("tt.parse.bytes_per_s", "B/s"),
    ("tt.check.self_s", "s"), ("tt.check.decls", "count"), ("tt.check.rejected", "count"),
    ("tt.equal_types.calls", "count"),
    ("tt.normalize.calls", "count"), ("tt.normalize.self_s", "s"),
    ("tt.elaborate.self_s", "s"), ("tt.elaborate.decls", "count"),
    ("cli.python_ms", "ms"), ("cli.import_ms", "ms"),
] + [(f"cli.{verb}.p50_ms", "ms") for verb in CLI_VERBS] + [
    ("trace.overhead_ratio", "ratio"),
]


class RunError(Exception):
    """The run cannot produce a result."""


def spawn_worker(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    cmd += ["--spawned-at", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise RunError("the workload child ran past the run's deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"the workload child failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def interpreter_ms(code: str, repeats: int = 5) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit, "src_sha256": src.hexdigest()[:16],
    }


def end_to_end(report: dict, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "items_per_s": report["round_items"] / report["round_items_s"],
        "item_p50_ms": report["p50_s"] * 1000.0,
        "item_tail_ms": report["tail_s"] * 1000.0,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ssetkit" / "__init__.py").is_file():
        print(f"perfbench: no ssetkit source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = environment(args)
    try:
        setups = [spawn_worker(args, deadline, True)["setup_s"] for _ in range(SETUP_REPEATS)]
        layer = {}
        if args.trace:
            layer["cli.python_ms"] = interpreter_ms("pass")
            layer["cli.import_ms"] = interpreter_ms("import ssetkit.cli") - layer["cli.python_ms"]
        report = spawn_worker(args, deadline, False)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])
    setup_s = statistics.median(setups)

    if args.trace:
        if report["blind"]:
            print("perfbench: the tracer recorded nothing for "
                  + ", ".join(report["blind"]), file=sys.stderr)
            return 1
        layer.update(report.pop("metrics"))
        values = {name: layer.get(name, 0) for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        spans = report.pop("spans")
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        values = end_to_end(report, setup_s)
        units = dict(END_TO_END)
    failed_ratio = report["failed"] / report["attempted"]

    record = dict(env, setup_runs_s=setups, failed_ratio=failed_ratio, **report, metrics=values)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"{args.workload} seed {args.seed}: {report['attempted']} items attempted, "
          f"{report['failed']} failed; nproc {env['nproc']}, python {env['python']}, "
          f"commit {env['commit'][:12]}, src {env['src_sha256']}")
    for p in report["problems"]:
        print(f"  problem: {p}")
    if not args.trace:
        print(f"  {report['rounds']} round(s) of {report['round_items']} items; each metric is "
              f"the median over rounds; item_tail_ms is the p{report['tail_percentile']:.1f} item")
    for key, value in values.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    print(f"  {'failed_ratio':40s} {failed_ratio:14.6g} -")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
