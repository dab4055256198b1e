"""The four workloads: their frozen item pools, inputs, runs and checks.

A pool file ``data/<workload>.json`` holds every item the workload can run,
each with its spec, its expected output (frozen at the seed commit by
``freeze.py``) and the seconds it took then.  ``slots`` groups items of
similar cost; a round takes one item from each slot, chosen by the seed, in
a seeded order.  So every round has the same cost profile, and the seed only
decides which of the near-equal items run and in what order.

Items return ``(output, evidence)``.  ``output`` is JSON data compared with
the frozen answer; ``evidence`` holds live objects for the structural checks
that do not trust ssetkit's own verdict.  Checks run outside the timed
section and, in a traced run, after the tracer is removed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("fibcheck", "factor-audit", "typecheck", "cli")

CLI_CAP_S = 60.0  # wall-clock cap on one CLI invocation
CLI_VERBS = ("sset", "classify", "core_skeletal", "core_qcat", "bfun", "lemma6", "gkan",
             "factor", "quasifib", "check", "interp", "audit")


def load_pool(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def choose_round(pool: dict, seed: int, round_no: int) -> list[str]:
    """The item ids of one round: one per slot, in a seeded order."""
    rng = random.Random(seed * 1_000_003 + round_no)
    ids = [rng.choice(slot) for slot in pool["slots"]]
    rng.shuffle(ids)
    return ids


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data) -> str:
    return hashlib.sha256(canonical(data).encode()).hexdigest()[:16]


def reset_caches() -> None:
    """Clear every functools cache in ssetkit, as a fresh interpreter has."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "ssetkit" or mod is None:
            continue
        for value in list(vars(mod).values()):
            for fn in (value, getattr(value, "__wrapped__", None)):
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def _cells(x) -> dict:
    return {str(n): len(level) for n, level in enumerate(x.cells)}


def fingerprint(obj) -> str:
    """A digest of an input object in the public serialization format."""
    from ssetkit.kernel import FinSSet, sset_to_dict

    if isinstance(obj, FinSSet):
        return digest(sset_to_dict(obj))
    return digest({
        "source": sset_to_dict(obj.source),
        "target": sset_to_dict(obj.target),
        "assignment": {c: [list(s.word), s.base] for c, s in sorted(obj.assignment.items())},
    })


# --------------------------------------------------------------- fibcheck


class FibCheck:
    """classify(f, 3) over all four families, then g_fib_check(f, 3) when
    the cat verdict passes (repeating the cat check, as criterion 5 does)."""

    in_process = True
    RANDOM_BASE = 50_000

    def __init__(self):
        from ssetkit import corpus, joyal, lifting

        self.corpus, self.joyal, self.lifting = corpus, joyal, lifting

    def catfib_maps(self) -> list:
        distinct = []
        for f in self.corpus.catfib_corpus(50):
            if f not in distinct:
                distinct.append(f)
        return distinct

    def random_map(self, k: int):
        rng = random.Random(self.RANDOM_BASE + k)
        x = self.corpus.random_sset(rng, max_dim=3, max_cells=6)
        y = self.corpus.random_sset(rng, max_dim=3, max_cells=6)
        return self.corpus.random_map(rng, x, y)

    def build(self, specs: dict) -> dict:
        catfib = None
        out = {}
        for iid, spec in specs.items():
            if spec["kind"] == "catfib":
                catfib = catfib or self.catfib_maps()
                out[iid] = catfib[spec["index"]]
            else:
                out[iid] = self.random_map(spec["k"])
        return out

    def run(self, spec, f):
        c = self.lifting.classify(f, 3)
        g = self.joyal.g_fib_check(f, 3) if c.cat_fib else None
        out = {
            "verdicts": [c.kan_fib, c.inner_fib, c.trivial_fib, c.cat_fib],
            "counterexamples": sorted(c.counterexamples),
            "gfib_kan": None if g is None else g.kan_ok,
        }
        return out, (f, c, g)

    def check(self, spec, evidence) -> list[str]:
        f, c, g = evidence
        problems = []
        cases = [(name, ce, self.lifting.family_by_name(name, 3), f)
                 for name, ce in c.counterexamples.items()]
        if g is not None and g.counterexample is not None:
            cases.append(("core kan", g.counterexample, self.lifting.kan_family(3), g.core_map))
        for name, ce, family, right in cases:
            if ce.validate():
                problems.append(f"{name} counterexample does not commute")
            if not any(ce.left == gen for gen in family.generators):
                problems.append(f"{name} counterexample's left leg is not a generator")
            if ce.right != right:
                problems.append(f"{name} counterexample's right leg is not the checked map")
        if c.cat_fib != (g is not None):
            problems.append("g_fib_check ran without a passing cat verdict")
        return problems

    def input_print(self, spec, f) -> str:
        return fingerprint(f)


# ----------------------------------------------------------- factor-audit


class FactorAudit:
    """By-need factorizations, g-Kan factorizations, invertibility
    conditions, cores, b, the semi-fibration audit and the model suites."""

    in_process = True
    LEMMA_POOL = 400

    def __init__(self):
        from ssetkit import acceptance, corpus, joyal, kernel, lifting, model

        self.acceptance, self.corpus, self.joyal = acceptance, corpus, joyal
        self.kernel, self.lifting, self.model = kernel, lifting, model

    def audit_corpus(self):
        k, model = self.kernel, self.model
        pt, pts2, interval = k.terminal(), self.corpus.discrete(2), k.std_simplex(1)
        maps = (
            k.identity(pt),
            k.identity(pts2),
            k.identity(interval),
            k.terminal_map(pts2),
            k.constant_map(pt, pts2, "p0"),
            k.product(pts2, pts2).proj1,
        )
        return model.SemifibCorpus(objects=(pt, pts2, interval), maps=maps)

    def build(self, specs: dict) -> dict:
        k, c = self.kernel, self.corpus
        cache: dict = {}

        def once(key, make):
            if key not in cache:
                cache[key] = make()
            return cache[key]

        out = {}
        for iid, spec in specs.items():
            kind = spec["kind"]
            if kind == "factor":
                out[iid] = k.load_smap(ROOT / "corpus" / "maps" / f"{spec['map']}.smap")
            elif kind in ("core", "bfun"):
                out[iid] = k.load_sset(ROOT / "corpus" / "ssets" / f"{spec['sset']}.sset")
            elif kind == "gkan":
                out[iid] = once("gkan", lambda: c.gkan_corpus(20))[spec["index"]]
            elif kind == "lemma":
                out[iid] = once("lemma", lambda: c.lemma_corpus(self.LEMMA_POOL))[spec["index"]]
            elif kind == "composite":
                out[iid] = once("qcat", c.qcat_corpus)[spec["index"]]
            elif kind == "audit":
                out[iid] = once("audit", self.audit_corpus)
            elif kind == "idclosure":
                out[iid] = once("covers", c.groupoid_cover_corpus)
            else:
                out[iid] = None
        return out

    def run(self, spec, x):
        kind, lf, jo = spec["kind"], self.lifting, self.joyal
        if kind == "factor":
            family = lf.family_by_name(spec["family"], spec["depth"])
            try:
                fac = lf.factor_soa(x, family, spec["budget"])
                exhausted = False
            except lf.BudgetExhausted as exc:
                fac, exhausted = exc.partial, True
            out = {"attachments": len(fac.attachments), "complete": fac.complete,
                   "exhausted": exhausted, "middle": _cells(fac.middle)}
            return out, (x, fac)
        if kind == "gkan":
            rep = jo.factor_g_kan(x, level=2, budget=500)
            fac = rep.factorization
            out = [len(fac.attachments), fac.complete, rep.right_is_kan, rep.middle_all_invertible]
            return out, (x, fac)
        if kind == "lemma":
            rep = jo.lemma_four_conditions(x, level=3)
            return [rep.rlp_interval_edge, rep.core_is_all, rep.iso_to_core,
                    list(rep.unknown_edges)], None
        if kind == "composite":
            rep = jo.composite_invertibility_check(x, level=3)
            return [rep.ok, list(rep.failures), list(rep.unknowns)], None
        if kind == "core":
            res = jo.core_G(x, mode=spec["mode"], level=2)
            return {"core": _cells(res.core), "warnings": list(res.warnings)}, ("mono", res.inclusion)
        if kind == "bfun":
            res = jo.b_functor(x, level=2)
            return {"cells": _cells(res.sset), "inverted": len(res.copies)}, ("mono", res.unit)
        if kind == "audit":
            spec_ = self.model.FibClassSpec(spec["family"], spec["depth"])
            rep = self.model.audit_semifib(spec_, x, budget=300, depth=spec["depth"])
            return [[v.name, v.status, list(v.details)] for v in rep.verdicts], None
        if kind == "split_subst":
            return [[name, holds] for name, holds in self.acceptance.split_substitution_suite()], None
        if kind == "idclosure":
            rep = lf.identity_closure_check(x, lf.kan_family(2), lf.inner_family(2), budget=500)
            return [rep.ok, list(rep.failures), list(rep.details)], None
        raise ValueError(f"unknown factor-audit item kind {kind!r}")

    def check(self, spec, evidence) -> list[str]:
        if evidence is None:
            return []
        if evidence[0] == "mono":
            m = evidence[1]
            problems = [f"inclusion invalid: {p}" for p in m.validate()]
            return problems + ([] if m.is_mono() else ["inclusion is not mono"])
        f, fac = evidence
        problems = []
        if fac.left.source != f.source or fac.right.target != f.target:
            problems.append("factorization has the wrong endpoints")
        elif self.kernel.compose(fac.right, fac.left) != f:
            problems.append("right . left is not the input map")
        if not fac.left.is_mono():
            problems.append("left factor is not mono")
        return problems

    def input_print(self, spec, x) -> str:
        if spec["kind"] in ("gkan", "lemma", "composite"):
            return fingerprint(x)
        return ""


# -------------------------------------------------------------- typecheck

PRELUDE = """\
postulate A () | () : Type
postulate B () | () : Type
postulate a0 () | () : A
postulate b0 () | () : B
postulate j0 () : I1
"""


def _tower(rng: random.Random, depth: int) -> str:
    """a0 wrapped in ``depth`` redexes that all reduce back to a0."""
    t = "a0"
    for _ in range(depth):
        pick = rng.randrange(3)
        if pick == 0:
            t = f"fst(spair({t}, b0))"
        elif pick == 1:
            t = f"snd(spair(b0, {t}))"
        else:
            t = f"idJ(z p. A, x. {t}, refl(a0))"
    return t


def generate_program(size: int, variant: int, bad: bool) -> tuple[str, str]:
    """A program of ``size`` definitions and the verdict it was built with.

    Every template is well-typed; a bad program ends in one conversion
    error, so the checker still walks every definition before rejecting.
    """
    rng = random.Random(size * 1000 + variant)
    decls: list[str] = []
    i = 0
    while len(decls) < size:
        i += 1
        pick = rng.randrange(5)
        if pick == 0:
            decls.append(f"def s{i} () | () : Sigma (x : A) B := spair(a0, b0)")
            decls.append(f"def f{i} () | () : A := fst(s{i})")
        elif pick == 1:
            decls.append(f"def h{i} () : Hom(A, A) := \\x. x")
            decls.append(f"def e{i} () | () : Id(A, h{i} a0, a0) := refl(a0)")
        elif pick == 2:
            decls.append(f"def p{i} () | () : Pi (k : I1) A := \\k. a0")
            decls.append(f"def q{i} () | () : Id(A, p{i} j0, a0) := refl(a0)")
        elif pick == 3:
            t = _tower(rng, rng.randint(1, 6))
            decls.append(f"def r{i} () | () : Id(A, {t}, a0) := refl(a0)")
        else:
            decls.append(f"def u{i} () | () : One := one")
    decls = decls[:size]
    expect = "ok"
    if bad:
        decls[-1] = f"def bad{i} () | () : A := b0"
        expect = "error conv"
    return PRELUDE + "\n".join(decls) + "\n", expect


class TypeCheck:
    """The .itt corpus against its headers, a generated size sweep with
    verdicts known by construction, and interpretation in the model."""

    in_process = True

    def __init__(self):
        from ssetkit import lifting, model, tt
        from ssetkit.tt.parser import ParseError

        self.lifting, self.model, self.tt, self.ParseError = lifting, model, tt, ParseError

    def build(self, specs: dict) -> dict:
        out = {}
        for iid, spec in specs.items():
            if spec["kind"] == "generated":
                out[iid] = generate_program(spec["size"], spec["variant"], spec["bad"])[0]
            else:
                out[iid] = (ROOT / spec["file"]).read_text()
        return out

    def verdict(self, src: str):
        try:
            return "ok", self.tt.check_source(src)
        except self.ParseError:
            return "error parse", None
        except self.tt.CheckError as exc:
            return f"error {exc.rule}", None

    def run(self, spec, src):
        verdict, ck = self.verdict(src)
        if spec["kind"] != "interp":
            return verdict, None
        env = self.tt.ModelEnv(
            spec=self.model.FibClassSpec("kan", 2),
            base_spec=self.model.FibClassSpec("inner", 2),
            family=self.lifting.kan_family(2),
            budget=300,
            stable_coproducts=ck.stable,
        )
        el = self.tt.Elaborator(env)
        done, skipped, failed = [], [], []
        for name, decl in ck.decls.items():
            if decl.kind != "term" or decl.body is None:
                skipped.append(name)
                continue
            try:
                el.elab_decl(decl)
                done.append(name)
            except self.model.UnsupportedConstruction:
                skipped.append(name)
            except self.model.ModelError as exc:
                failed.append([name, str(exc)])
        return {"interpreted": done, "skipped": skipped, "failed": failed}, None

    def check(self, spec, evidence) -> list[str]:
        return []

    def input_print(self, spec, src) -> str:
        return ""


# -------------------------------------------------------------------- cli


def child_env() -> dict:
    """The environment of every child: ssetkit from ``src/``, fixed hashing
    so that set and dict orders, and with them the counts, repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Cli:
    """``python -m ssetkit.cli ... --json`` as one subprocess at a time."""

    in_process = False

    def __init__(self):
        self.env = child_env()

    def build(self, specs: dict) -> dict:
        return {iid: spec["argv"] for iid, spec in specs.items()}

    def run(self, spec, argv):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ssetkit.cli", *argv], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=CLI_CAP_S,
            )
        except subprocess.TimeoutExpired:
            return {"exit": "timeout", "stdout": ""}, None
        return {"exit": proc.returncode, "stdout": proc.stdout}, None

    def check(self, spec, evidence) -> list[str]:
        return []

    def input_print(self, spec, argv) -> str:
        return ""


def verb_of(argv: list[str]) -> str:
    if argv[0] == "core":
        return "core_" + argv[argv.index("--mode") + 1]
    return argv[0]


def make(name: str):
    return {"fibcheck": FibCheck, "factor-audit": FactorAudit,
            "typecheck": TypeCheck, "cli": Cli}[name]()
