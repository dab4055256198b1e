"""Write the frozen item pools under ``perfbench/data/``.

Run at the commit whose answers become the known answers:

    PYTHONPATH=src python3 perfbench/freeze.py [WORKLOAD ...]

For every pool item it records the spec, the output ssetkit gives, the
structural-check result (which must be clean), a fingerprint of the input
where ssetkit's corpus module builds it, and the seconds the item took.  It
then groups items of one kind and similar cost into slots.  Rerunning it
overwrites the known answers, so do it only on purpose.
"""

from __future__ import annotations

import json
import sys
import time

import workloads as W

CORPUS = W.ROOT / "corpus"
SSETS = sorted(p.stem for p in (CORPUS / "ssets").glob("*.sset"))
MAPS = sorted(p.stem for p in (CORPUS / "maps").glob("*.smap"))
ITT = sorted(p.name for p in (CORPUS / "itt").glob("*.itt"))
FAMILIES = ("kan", "inner", "trivial", "cat")

# Left out of the pools: each took 4-10s at the seed commit.  One of them
# makes a round longer than a third of the run, and then the run has too few
# rounds for the per-round medians to absorb the host's speed swings.
HEAVY_CATFIB = (20, 22, 27, 28)  # indices into the distinct catfib_corpus(50) maps

# kind -> (largest slot, cost ratio and absolute slack within one slot)
GROUPING = {
    "catfib": (2, 1.35, 0.02),
    "random": (4, 1.5, 0.003),
    "factor": (2, 1.3, 0.005),
    "gkan": (2, 1.3, 0.005),
    "lemma": (4, 1.5, 0.002),
    "composite": (2, 1.3, 0.005),
    "core": (2, 1.3, 0.003),
    "bfun": (2, 1.3, 0.003),
    "corpus": (4, 1.5, 0.002),
    "interp": (4, 1.5, 0.002),
    # a CLI invocation costs about 0.2s of start-up whatever its verb; one
    # slot per verb (two for check and factor) keeps a round near 4s
    "sset": (10, 1.5, 0.1),
    "classify": (9, 1.5, 0.1),
    "core_skeletal": (10, 1.5, 0.1),
    "core_qcat": (10, 1.5, 0.1),
    "bfun_cli": (10, 1.5, 0.1),
    "lemma6": (10, 1.5, 0.1),
    "gkan_cli": (9, 1.5, 0.1),
    "factor_cli": (36, 1.5, 0.1),
    "quasifib": (18, 1.5, 0.1),
    "check": (49, 1.5, 0.1),
    "interp_cli": (46, 1.5, 0.1),
    "audit_cli": (4, 1.5, 0.1),
    "audit": (1, 1.0, 0.0),
    "split_subst": (1, 1.0, 0.0),
    "idclosure": (1, 1.0, 0.0),
}


def fibcheck_specs(wl) -> dict:
    specs = {f"catfib-{i}": {"kind": "catfib", "index": i}
             for i in range(len(wl.catfib_maps())) if i not in HEAVY_CATFIB}
    k = 0
    while sum(1 for s in specs.values() if s["kind"] == "random") < 512:
        if wl.random_map(k) is not None:
            specs[f"random-{k}"] = {"kind": "random", "k": k}
        k += 1
    return specs


def factor_audit_specs(wl) -> dict:
    specs = {}
    for m in MAPS:
        for fam in FAMILIES:
            for budget in (5, 10, 20):
                specs[f"factor-{m}-{fam}-{budget}"] = {
                    "kind": "factor", "map": m, "family": fam, "depth": 2, "budget": budget}
    # the top of the budget ladder, where the cost turns superlinear; budget 80
    # (about 10s) is left out for the reason HEAVY_CATFIB is
    specs["factor-boundary_include-kan-40"] = {
        "kind": "factor", "map": "boundary_include", "family": "kan", "depth": 2, "budget": 40}
    specs.update({f"gkan-{i}": {"kind": "gkan", "index": i} for i in range(20)})
    specs.update({f"lemma-{i}": {"kind": "lemma", "index": i} for i in range(wl.LEMMA_POOL)})
    specs.update({f"composite-{i}": {"kind": "composite", "index": i} for i in range(9)})
    for s in SSETS:
        specs[f"core-{s}-skeletal"] = {"kind": "core", "sset": s, "mode": "skeletal"}
        specs[f"core-{s}-qcat"] = {"kind": "core", "sset": s, "mode": "qcat"}
        specs[f"bfun-{s}"] = {"kind": "bfun", "sset": s}
    for fam in FAMILIES:
        for depth in (2, 3):
            specs[f"audit-{fam}-{depth}"] = {"kind": "audit", "family": fam, "depth": depth}
    specs["split_subst"] = {"kind": "split_subst"}
    specs["idclosure"] = {"kind": "idclosure"}
    return specs


def typecheck_specs(wl) -> dict:
    specs = {}
    for name in ITT:
        specs[f"corpus-{name}"] = {"kind": "corpus", "file": f"corpus/itt/{name}"}
        if name.startswith("good_"):
            specs[f"interp-{name}"] = {"kind": "interp", "file": f"corpus/itt/{name}"}
    for size in (10, 25, 50, 100, 200, 400):
        for variant in range(8):
            specs[f"gen-{size}-{variant}"] = {
                "kind": "generated", "size": size, "variant": variant, "bad": variant % 4 == 3}
    return specs


def cli_specs(wl) -> dict:
    specs = {}

    def add(kind, argv):
        specs[f"{kind}:{' '.join(argv)}"] = {"kind": kind, "argv": argv + ["--json"]}

    for s in SSETS:
        path = f"corpus/ssets/{s}.sset"
        add("sset", ["sset", path])
        add("core_skeletal", ["core", path, "--mode", "skeletal"])
        add("core_qcat", ["core", path, "--mode", "qcat"])
        add("bfun_cli", ["bfun", path])
        add("lemma6", ["lemma6", path])
    for m in MAPS:
        path = f"corpus/maps/{m}.smap"
        add("classify", ["classify", path])
        add("gkan_cli", ["gkan", path])
        for fam in FAMILIES:
            for budget in ("5", "10"):
                add("factor_cli", ["factor", path, "--family", fam, "--budget", budget])
        for budget in ("5", "10"):
            add("quasifib", ["quasifib", path, "--budget", budget])
    for name in ITT:
        add("check", ["check", f"corpus/itt/{name}"])
        if name.startswith("good_"):
            add("interp_cli", ["interp", f"corpus/itt/{name}"])
    for fam in FAMILIES:
        add("audit_cli", ["audit", "--family", fam])
    return specs


SPECS = {"fibcheck": fibcheck_specs, "factor-audit": factor_audit_specs,
         "typecheck": typecheck_specs, "cli": cli_specs}


def slots_of(items: dict) -> list[list[str]]:
    """Group items of one kind whose frozen costs are close."""
    by_kind: dict = {}
    for iid, item in items.items():
        spec = item["spec"]
        kind = spec["kind"]
        if kind == "generated":  # four slots per size, of two variants each
            kind = f"gen-{spec['size']}-{spec['variant'] // 2}"
        by_kind.setdefault(kind, []).append(iid)
    slots = []
    for kind, ids in sorted(by_kind.items()):
        if kind.startswith("gen-"):
            slots.append(sorted(ids))  # variants of one size cost alike by construction
            continue
        size, ratio, slack = GROUPING[kind]
        ids.sort(key=lambda i: (items[i]["cost_s"], i))
        group: list[str] = []
        for iid in ids:
            first = items[group[0]]["cost_s"] if group else 0.0
            if group and (len(group) == size or items[iid]["cost_s"] > max(first * ratio, first + slack)):
                slots.append(group)
                group = []
            group.append(iid)
        slots.append(group)
    return slots


def freeze(name: str) -> dict:
    wl = W.make(name)
    specs = SPECS[name](wl)
    inputs = wl.build(specs)
    items = {}
    for iid, spec in specs.items():
        x = inputs[iid]
        t0 = time.perf_counter()
        try:
            out, evidence = wl.run(spec, x)
        except Exception as exc:  # noqa: BLE001 -- report the item and leave it out
            print(f"  skip {iid}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        cost = time.perf_counter() - t0
        problems = wl.check(spec, evidence)
        if problems:
            raise SystemExit(f"{iid}: structural check fails at freeze time: {problems}")
        if name == "typecheck" and spec["kind"] == "generated":
            built_in = W.generate_program(spec["size"], spec["variant"], spec["bad"])[1]
            if out != built_in:
                raise SystemExit(f"{iid}: checker says {out!r}, generator built {built_in!r}")
        if name == "typecheck" and spec["kind"] == "corpus":
            header = x.splitlines()[0].split("-- expect:", 1)[1].strip()
            if out != header:
                raise SystemExit(f"{iid}: checker says {out!r}, header says {header!r}")
        item = {"spec": spec, "expect": out, "cost_s": round(cost, 6)}
        fp = wl.input_print(spec, x)
        if fp:
            item["input"] = fp
        items[iid] = item
    return {"workload": name, "items": items, "slots": slots_of(items)}


def dump_pool(pool: dict) -> str:
    """The pool as JSON with one item and one slot per line."""
    items = ",\n".join(f"  {json.dumps(k)}: {W.canonical(v)}" for k, v in sorted(pool["items"].items()))
    slots = ",\n".join(f"  {json.dumps(s)}" for s in pool["slots"])
    return (f'{{"workload": {json.dumps(pool["workload"])},\n"items": {{\n{items}\n}},\n'
            f'"slots": [\n{slots}\n]}}\n')


def main() -> None:
    names = sys.argv[1:] or list(W.WORKLOADS)
    W.DATA.mkdir(exist_ok=True)
    for name in names:
        t0 = time.perf_counter()
        pool = freeze(name)
        path = W.DATA / f"{name}.json"
        path.write_text(dump_pool(pool))
        cost = sum(pool["items"][s[0]]["cost_s"] for s in pool["slots"])
        print(f"{name}: {len(pool['items'])} items, {len(pool['slots'])} slots, "
              f"about {cost:.1f}s per round; froze in {time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
