"""Batch command-line interface.

Verbs operate on serialized objects (.sset), maps (.smap), and programs
(.itt).  Exit codes: 0 the check passed, 1 it failed, 2 usage or input
error, 3 a cell/lift budget was exhausted, normalization ran out of fuel, or
an interpreted declaration needs a level above ``--depth``, so the verdict
is unknown.  ``--json`` emits a single versioned JSON
document (sorted keys, fixed layout) instead of text.

Every verb but ``suite`` takes ``--depth`` and ``--budget``.  ``suite``
takes only ``--json``: each criterion runs at its own fixed depth, and the
document records the highest of them, 3, and the budget the criteria read,
500.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .joyal import (
    b_functor,
    composite_invertibility_check,
    core_G,
    factor_g_kan,
    invertible_edge,
    lemma_four_conditions,
)
from .kernel import SSetError, Truncated, identity, load_smap, load_sset, nondeg
from .lifting import (
    BudgetExhausted,
    LiftingProblem,
    classify,
    factor_soa,
    family_by_name,
    leibniz,
    quasifibration_check,
    solve_lift,
)
from .model import FibClassSpec, ModelError, SemifibCorpus, UnsupportedConstruction, audit_semifib

SCHEMA = "ssetkit.cli/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class InputError(Exception):
    """A missing, malformed, or mismatched input file."""


def _emit(args, payload: dict, ok: bool) -> int:
    payload = {"depth": args.depth, "budget": args.budget, **payload,
               "schema": SCHEMA, "verb": args.verb, "ok": ok}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        status = "PASS" if ok else "FAIL"
        rest = " ".join(
            f"{k}={payload[k]}" for k in sorted(payload) if k not in ("schema", "verb", "ok")
        )
        print(f"{args.verb}: {status} {rest}".rstrip())
    return EXIT_PASS if ok else EXIT_FAIL


def _read_sset(path: str):
    try:
        return load_sset(path)
    except (OSError, KeyError, ValueError, SSetError) as e:
        raise InputError(f"cannot load simplicial set {path}: {e}") from None


def _read_smap(path: str):
    try:
        return load_smap(path)
    except (OSError, KeyError, ValueError, SSetError) as e:
        raise InputError(f"cannot load map {path}: {e}") from None


def _cells_by_dim(x) -> dict:
    return {str(n): len(level) for n, level in enumerate(x.cells)}


# ------------------------------------------------------------------ verbs


def cmd_sset(args) -> int:
    x = _read_sset(args.file)
    problems = x.validate()
    payload = {
        "file": args.file,
        "cells": _cells_by_dim(x),
        "dim": x.dim,
        "problems": sorted(problems),
    }
    return _emit(args, payload, not problems)


def cmd_lift(args) -> int:
    prob = LiftingProblem(
        left=_read_smap(args.left),
        right=_read_smap(args.right),
        top=_read_smap(args.top),
        bottom=_read_smap(args.bottom),
    )
    issues = prob.validate()
    if issues:
        raise InputError("; ".join(issues))
    filler = solve_lift(prob)
    return _emit(args, {"filler_found": filler is not None}, filler is not None)


def cmd_classify(args) -> int:
    f = _read_smap(args.map)
    c = classify(f, depth=args.depth)
    payload = {
        "kan": c.kan_fib,
        "inner": c.inner_fib,
        "trivial": c.trivial_fib,
        "cat": c.cat_fib,
        "counterexamples": sorted(c.counterexamples),
    }
    return _emit(args, payload, True)


def cmd_factor(args) -> int:
    f = _read_smap(args.map)
    family = family_by_name(args.family, args.depth)
    fac = factor_soa(f, family, args.budget)
    payload = {
        "family": args.family,
        "attachments": len(fac.attachments),
        "middle_cells": _cells_by_dim(fac.middle),
        "complete": fac.complete,
    }
    return _emit(args, payload, fac.complete)


def cmd_leibniz(args) -> int:
    i = _read_smap(args.i)
    j = _read_smap(args.j)
    induced, _ = leibniz(i, j)
    payload = {
        "mono": induced.is_mono(),
        "source_cells": _cells_by_dim(induced.source),
        "target_cells": _cells_by_dim(induced.target),
    }
    return _emit(args, payload, True)


def cmd_quasifib(args) -> int:
    f = _read_smap(args.map)
    family = family_by_name(args.family, args.depth)
    probes = [_read_smap(p) for p in args.probe] or [identity(f.target)]
    tests = [_read_smap(t) for t in args.test] or [f]
    rep = quasifibration_check(f, family, probes, tests, args.budget)
    payload = {
        "family": args.family,
        "probes": len(probes),
        "results": [[idx, ok] for idx, ok in rep.probe_results],
    }
    return _emit(args, payload, rep.ok)


def cmd_core(args) -> int:
    x = _read_sset(args.file)
    res = core_G(x, mode=args.mode, level=args.depth)
    payload = {
        "mode": args.mode,
        "core_cells": _cells_by_dim(res.core),
        "ambient_cells": _cells_by_dim(x),
        "warnings": list(res.warnings),
    }
    return _emit(args, payload, True)


def cmd_bfun(args) -> int:
    x = _read_sset(args.file)
    res = b_functor(x, level=args.depth)
    payload = {
        "input_cells": _cells_by_dim(x),
        "output_cells": _cells_by_dim(res.sset),
        "inverted_edges": len(res.copies),
    }
    return _emit(args, payload, True)


def cmd_invert(args) -> int:
    x = _read_sset(args.file)
    if args.edge not in x.nondegenerate() or x.cell_dim(args.edge) != 1:
        raise InputError(f"{args.edge} is not a nondegenerate edge of the object")
    v = invertible_edge(x, nondeg(args.edge), mode=args.mode, level=args.depth)
    payload = {"edge": args.edge, "status": v.status, "level": v.level}
    return _emit(args, payload, v.status == "yes")


def cmd_gkan(args) -> int:
    f = _read_smap(args.map)
    rep = factor_g_kan(f, level=args.depth, budget=args.budget)
    payload = {
        "left_mono": rep.factorization.left.is_mono(),
        "right_is_kan": rep.right_is_kan,
        "middle_all_invertible": rep.middle_all_invertible,
        "complete": rep.factorization.complete,
    }
    ok = (
        rep.factorization.complete
        and rep.factorization.left.is_mono()
        and rep.right_is_kan
        and rep.middle_all_invertible
    )
    return _emit(args, payload, ok)


def cmd_lemma6(args) -> int:
    x = _read_sset(args.file)
    rep = lemma_four_conditions(x, level=args.depth)
    comp = composite_invertibility_check(x, level=args.depth)
    payload = {
        "rlp_interval_edge": rep.rlp_interval_edge,
        "core_is_all": rep.core_is_all,
        "iso_to_core": rep.iso_to_core,
        "unknown_edges": len(rep.unknown_edges),
        "composite_violations": len(comp.failures),
    }
    ok = rep.agree and not rep.unknown_edges and comp.ok
    return _emit(args, payload, ok)


def _check_program(path: str):
    from .tt import CheckError, check_source
    from .tt.parser import ParseError

    try:
        src = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None
    try:
        return check_source(src), None
    except ParseError as e:
        return None, {"rule": "parse", "message": str(e)}
    except CheckError as e:
        return None, {"rule": e.rule, "message": e.args[0]}


def _interp_decls(ck, depth: int, budget: int) -> dict:
    from .lifting import kan_family
    from .tt import Elaborator, ModelEnv

    env = ModelEnv(
        spec=FibClassSpec("kan", depth),
        base_spec=FibClassSpec("inner", depth),
        family=kan_family(depth),
        budget=budget,
        stable_coproducts=ck.stable,
    )
    el = Elaborator(env)
    interpreted, skipped, failed, unknown = [], [], [], []
    for name, decl in ck.decls.items():
        if decl.kind != "term" or decl.body is None:
            skipped.append(name)
            continue
        try:
            el.elab_decl(decl)
            interpreted.append(name)
        except UnsupportedConstruction:
            skipped.append(name)
        except ModelError as e:
            failed.append([name, str(e)])
        except Truncated as e:
            unknown.append([name, str(e)])
        except BudgetExhausted as e:
            unknown.append([name, f"budget exhausted: {e}"])
    report = {"interpreted": interpreted, "skipped": skipped, "failed": failed}
    # only when non-empty, so reports without an unknown keep their layout
    if unknown:
        report["unknown"] = unknown
    return report


def cmd_check(args) -> int:
    from .tt.equality import OutOfFuel

    try:
        ck, err = _check_program(args.file)
        report = None
        if err is None and args.interp:
            report = _interp_decls(ck, args.depth, args.budget)
    except OutOfFuel as e:
        print(f"ssetkit: {e}", file=sys.stderr)
        return EXIT_BUDGET
    if err is not None:
        return _emit(args, {"file": args.file, "error": err}, False)
    payload = {"file": args.file, "declarations": len(ck.decls)}
    if report is not None:
        payload["interpretation"] = report
    code = _emit(args, payload, report is None or not report["failed"])
    if code == EXIT_PASS and report is not None and "unknown" in report:
        return EXIT_BUDGET
    return code


def cmd_interp(args) -> int:
    args.interp = True
    return cmd_check(args)


def _default_audit_corpus() -> SemifibCorpus:
    from .corpus import discrete
    from .kernel import constant_map, product, std_simplex, terminal, terminal_map

    pt, pts2, interval = terminal(), discrete(2), std_simplex(1)
    objects = (pt, pts2, interval)
    maps = (
        identity(pt),
        identity(pts2),
        identity(interval),
        terminal_map(pts2),
        constant_map(pt, pts2, "p0"),
        product(pts2, pts2).proj1,
    )
    return SemifibCorpus(objects=objects, maps=maps)


def cmd_audit(args) -> int:
    spec = FibClassSpec(args.family, args.depth)
    rep = audit_semifib(spec, _default_audit_corpus(), budget=args.budget, depth=args.depth)
    if any(v.status == "exhausted" for v in rep.verdicts):
        raise BudgetExhausted("audit factorization budget exhausted", None)
    payload = {
        "family": args.family,
        "verdicts": [[v.name, v.status] for v in rep.verdicts],
    }
    return _emit(args, payload, rep.ok)


def cmd_suite(args) -> int:
    from .acceptance import BUDGET, DEPTH, run_all

    results = run_all()
    if args.json:
        payload = {
            "schema": SCHEMA,
            "verb": "suite",
            "depth": DEPTH,
            "budget": BUDGET,
            "ok": all(r.ok for r in results),
            "criteria": [
                {"number": r.number, "name": r.name, "ok": r.ok, "detail": r.detail}
                for r in results
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            print(f"criterion {r.number:2d} {r.name:24s} {'PASS' if r.ok else 'FAIL'}  {r.detail}")
    return EXIT_PASS if all(r.ok for r in results) else EXIT_FAIL


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ssetkit", description="finite simplicial sets and indexed type theory"
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, depth=2, budget=300):
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.add_argument("--depth", type=int, default=depth, help="skeleton depth for verdicts")
        p.add_argument(
            "--budget", type=int, default=budget,
            help="cell budget of the by-need factorization; read by factor, quasifib, "
            "gkan, check --interp, interp and audit, echoed by the other verbs",
        )

    p = sub.add_parser("sset", help="validate a serialized simplicial set")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_sset)

    p = sub.add_parser("lift", help="solve a lifting square")
    for leg in ("left", "right", "top", "bottom"):
        p.add_argument(f"--{leg}", required=True)
    common(p)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("classify", help="fibration-class verdicts for a map")
    p.add_argument("map")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("factor", help="cell factorization against a generator family")
    p.add_argument("map")
    p.add_argument("--family", default="kan", choices=("kan", "inner", "trivial", "cat"))
    common(p)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("leibniz", help="pushout-product of two maps")
    p.add_argument("--i", required=True)
    p.add_argument("--j", required=True)
    common(p)
    p.set_defaults(fn=cmd_leibniz)

    p = sub.add_parser("quasifib", help="probe-relative quasifibration check")
    p.add_argument("map")
    p.add_argument("--family", default="kan", choices=("kan", "inner", "trivial", "cat"))
    p.add_argument("--probe", action="append", default=[], help="probe map (.smap), repeatable")
    p.add_argument("--test", action="append", default=[], help="test fibration (.smap), repeatable")
    common(p)
    p.set_defaults(fn=cmd_quasifib)

    p = sub.add_parser("core", help="largest all-invertible-edges subcomplex")
    p.add_argument("file")
    p.add_argument("--mode", default="skeletal", choices=("skeletal", "qcat"))
    common(p)
    p.set_defaults(fn=cmd_core)

    p = sub.add_parser("bfun", help="glue classifying intervals onto every edge")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_bfun)

    p = sub.add_parser("invert", help="invertibility verdict for one edge")
    p.add_argument("file")
    p.add_argument("--edge", required=True)
    p.add_argument("--mode", default="skeletal", choices=("skeletal", "qcat"))
    common(p)
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("gkan", help="factor over freely-inverted horns and re-verify")
    p.add_argument("map")
    common(p, budget=500)
    p.set_defaults(fn=cmd_gkan)

    p = sub.add_parser("lemma6", help="agreement of the invertibility conditions")
    p.add_argument("file")
    common(p, depth=3)
    p.set_defaults(fn=cmd_lemma6)

    p = sub.add_parser("check", help="typecheck an .itt program")
    p.add_argument("file")
    p.add_argument("--interp", action="store_true", help="also interpret closed definitions")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("interp", help="typecheck and interpret an .itt program")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_interp)

    p = sub.add_parser("audit", help="semi-fibration-category axioms on a stock corpus")
    p.add_argument("--family", default="kan", choices=("kan", "inner", "trivial", "cat"))
    common(p)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("suite", help="run the twelve-point verification suite")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(fn=cmd_suite)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    if "depth" in args and (args.depth < 1 or args.budget < 0):  # suite has neither
        print("ssetkit: --depth must be >= 1 and --budget >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except BudgetExhausted as e:
        print(f"ssetkit: budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, SSetError, OSError) as e:
        print(f"ssetkit: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
