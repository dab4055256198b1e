"""One benchmark child process: set up, run rounds, check, report.

``run.py`` starts this script in a fresh interpreter per run, so the
ssetkit caches start cold as they do for a CLI user.  It prints one JSON
object on its last line of output.  Usage (normally through ``run.py``):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at T [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import time

import workloads as W

clock = time.perf_counter
ITEM_CAP_S = 120  # wall-clock cap on one in-process item

# per-layer metrics that must record activity on each workload in a traced run
REQUIRED = {
    "fibcheck": [
        "kernel.face.calls", "kernel.simplices.calls", "kernel.enumerate_maps.calls",
        "kernel.enumerate_maps.maps", "kernel.compose.calls", "kernel.smap_eq.calls",
        "kernel.sset_key.calls", "lifting.lifting_problems.squares", "lifting.solve_lift.calls",
        "lifting.has_rlp.calls", "joyal.core_of_map.self_s", "joyal.invertible_edge.calls",
    ],
    "factor-audit": [
        "kernel.face.calls", "kernel.enumerate_maps.calls", "kernel.compose.calls",
        "kernel.smap_eq.calls", "kernel.limits.calls", "kernel.limits.cells_out",
        "kernel.closed.self_s", "kernel.find_isomorphism.calls", "kernel.serialize.self_s",
        "lifting.solve_lift.calls", "lifting.has_rlp.calls", "lifting.has_llp.calls",
        "lifting.factor_soa.attachments", "lifting.factor_soa.budget_exhausted",
        "joyal.core_G.self_s", "joyal.b_functor.self_s", "joyal.lemma_four_conditions.self_s",
        "joyal.invertible_edge.calls", "model.audit_semifib.self_s", "model.formers.calls",
    ],
    "typecheck": [
        "tt.parse.self_s", "tt.parse.bytes_per_s", "tt.check.self_s", "tt.check.decls",
        "tt.check.rejected", "tt.equal_types.calls", "tt.normalize.calls", "tt.elaborate.decls",
    ],
    "cli": [f"cli.{verb}.p50_ms" for verb in W.CLI_VERBS],
}


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout(f"item exceeded {ITEM_CAP_S}s")


def run_round(wl, pool: dict, ids: list[str], inputs: dict, tracer=None) -> list[dict]:
    """Run the items of one round back to back; one caller, closed loop."""
    results = []
    for iid in ids:
        spec = pool["items"][iid]["spec"]
        error = None
        out = evidence = None
        span = tracer.span("item") if tracer is not None else None
        if wl.in_process:
            signal.alarm(ITEM_CAP_S)
        t0 = clock()
        try:
            if span is not None:
                with span:
                    out, evidence = wl.run(spec, inputs[iid])
            else:
                out, evidence = wl.run(spec, inputs[iid])
        except Exception as exc:  # noqa: BLE001 -- a failed item is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        if wl.in_process:
            signal.alarm(0)
        results.append({"id": iid, "s": dt, "out": out, "evidence": evidence, "error": error})
    return results


def verify(wl, pool: dict, results: list[dict], inputs: dict) -> None:
    """Mark each result ok or not against the frozen answer and the checks."""
    for r in results:
        item = pool["items"][r["id"]]
        problems = []
        if r["error"] is not None:
            problems.append(r["error"])
        else:
            if W.canonical(r["out"]) != W.canonical(item["expect"]):
                problems.append("output differs from the frozen answer")
            try:
                problems += wl.check(item["spec"], r["evidence"])
            except Exception as exc:  # noqa: BLE001 -- a crashing check fails the item
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        want = item.get("input")
        if want and wl.input_print(item["spec"], inputs[r["id"]]) != want:
            problems.append("input differs from the frozen pool")
        r["problems"] = problems
        r["evidence"] = None


def build_round(wl, pool, seed, round_no):
    ids = W.choose_round(pool, seed, round_no)
    inputs = wl.build({iid: pool["items"][iid]["spec"] for iid in ids})
    return ids, inputs


def tail_of(times: list[float]) -> tuple[float, float]:
    """The item time with exactly 10 items beyond it, and its percentile."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(wl, pool, args, ids, inputs) -> dict:
    """Rounds until the next one would end past ``--seconds``."""
    rounds, spent, last = [], 0.0, 0.0
    while not rounds or spent + last <= args.seconds:
        if rounds:
            if wl.in_process:
                W.reset_caches()
            ids, inputs = build_round(wl, pool, args.seed, len(rounds))
        t0 = clock()
        results = run_round(wl, pool, ids, inputs)
        last = clock() - t0
        spent += last
        verify(wl, pool, results, inputs)
        rounds.append(results)
    items = [r for rnd in rounds for r in rnd]
    times = [[r["s"] for r in rnd] for rnd in rounds]
    tails = [tail_of(ts) for ts in times]
    # every round has the same cost profile, so each metric is the median of
    # its per-round values: a round that met a slow spell of the host counts once
    return {
        "rounds": len(rounds),
        "round_items": len(rounds[0]),
        "attempted": len(items),
        "failed": sum(1 for r in items if r["problems"]),
        "problems": sorted({p for r in items for p in r["problems"]})[:20],
        "round_items_s": statistics.median(sum(ts) for ts in times),
        "section_s": spent,
        "p50_s": statistics.median(statistics.median(ts) for ts in times),
        "tail_s": statistics.median(t for t, _ in tails),
        "tail_percentile": statistics.median(p for _, p in tails),
        "outputs_digest": W.digest([[r["id"], r["out"]] for r in rounds[0]]),
        "peak_rss_mb": peak_rss_mb(wl.in_process),
    }


def traced(wl, pool, args, ids, inputs) -> dict:
    """Round 0 untraced, then round 0 again from cold caches, traced."""
    plain = run_round(wl, pool, ids, inputs)
    verify(wl, pool, plain, inputs)
    if wl.in_process:
        from tracer import Tracer

        W.reset_caches()
        tracer = Tracer()
        tracer.install()
        try:
            ids, inputs = build_round(wl, pool, args.seed, 0)
            again = run_round(wl, pool, ids, inputs, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        spans = tracer.spans
    else:
        again = run_round(wl, pool, ids, inputs)
        metrics, spans = {}, []
        by_verb: dict = {}
        for r in plain:
            verb = W.verb_of(pool["items"][r["id"]]["spec"]["argv"])
            by_verb.setdefault(verb, []).append(r["s"])
        for verb, times in by_verb.items():
            metrics[f"cli.{verb}.p50_ms"] = statistics.median(times) * 1000.0
    verify(wl, pool, again, inputs)
    metrics["trace.overhead_ratio"] = sum(r["s"] for r in again) / sum(r["s"] for r in plain)
    items = plain + again
    missing = [m for m in REQUIRED[args.workload] if not metrics.get(m)]
    return {
        "attempted": len(items),
        "failed": sum(1 for r in items if r["problems"]),
        "problems": sorted({p for r in items for p in r["problems"]})[:20],
        "outputs_digest": W.digest([[r["id"], r["out"]] for r in plain]),
        "metrics": metrics,
        "blind": missing,
        "spans": spans,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, _alarm)
    wl = W.make(args.workload)
    pool = W.load_pool(args.workload)
    ids, inputs = build_round(wl, pool, args.seed, 0)
    setup_s = clock() - args.spawned_at
    report = {"setup_s": setup_s}
    if not args.setup_only:
        run = traced if args.trace else untraced
        report.update(run(wl, pool, args, ids, inputs))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
