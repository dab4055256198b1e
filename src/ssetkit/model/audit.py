"""Constructive audit of the semi-fibration-category axioms on a finite corpus.

The five audited conditions, for a named fibration class:

1. fibrations are exponentiable (witnessed by computing a pushforward);
2. the class contains identities and is closed under composition and
   chosen pullback;
3. pullbacks of trivial cofibrations along fibrations remain trivial
   cofibrations (relative to the probe fibrations);
4. every map between fibrant objects factors as a trivial cofibration
   followed by a fibration (budgeted; exhaustion is reported, not failed);
5. trivial cofibrations over a base are stable under arbitrary base change
   (again relative to the probes).

Trivial cofibrations cannot be recognized absolutely on a finite corpus, so
conditions 3 and 5 quantify over the probe fibrations, the corpus objects'
terminal maps that are fibrations: a candidate is audited when it has the
left lifting property against every probe, and the pulled-back map is
required to keep that property.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel import SMap, compose, identity, pullback, pushforward, terminal_map
from .core import FibClassSpec, ModelError
from ..lifting import BudgetExhausted, factor_soa, has_llp

__all__ = ["AxiomVerdict", "SemifibReport", "SemifibCorpus", "audit_semifib"]


@dataclass(frozen=True)
class AxiomVerdict:
    """One audited axiom: pass / fail / exhausted, with per-instance notes."""

    name: str
    status: str
    details: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class SemifibCorpus:
    """Objects and maps for the audit.

    The probe fibrations are the objects' terminal maps that are fibrations,
    and each map i: A -> B is audited as a map over the terminal object, as
    the triple (i, A -> 1, B -> 1).
    """

    objects: tuple = ()
    maps: tuple = ()

    def over_triples(self):
        for i in self.maps:
            yield (i, terminal_map(i.source), terminal_map(i.target))


@dataclass(frozen=True)
class SemifibReport:
    spec: FibClassSpec
    verdicts: tuple

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def __str__(self) -> str:
        lines = [f"semifib audit [{self.spec.name} depth {self.spec.depth}]:"]
        for v in self.verdicts:
            lines.append(f"  ({v.name}) {v.status}" + (f" -- {'; '.join(v.details)}" if v.details else ""))
        return "\n".join(lines)


def audit_semifib(
    spec: FibClassSpec,
    corpus: SemifibCorpus,
    budget: int,
    depth: int,
) -> SemifibReport:
    """Audit the five axioms of the fibration class on the corpus, at the
    class's depth, which ``depth`` must repeat."""
    if depth != spec.depth:
        raise ModelError(f"audit: depth {depth} is not the class's depth {spec.depth}")
    # a lifting verdict depends only on the map, and the same map recurs as
    # a probe, a corpus map, an identity, a composite or a chosen pullback;
    # likewise a verdict against this call's probes, for the trivial-cofibration checks
    verdicts_of: dict[SMap, tuple] = {}
    llp_of: dict[SMap, tuple] = {}

    def check(p: SMap) -> tuple:
        found = verdicts_of.get(p)
        if found is None:
            found = verdicts_of[p] = spec.check(p)
        return found

    def llp(i: SMap) -> tuple:
        found = llp_of.get(i)
        if found is None:
            found = llp_of[i] = has_llp(i, probes)
        return found

    probes = [terminal_map(x) for x in corpus.objects if check(terminal_map(x))[0]]
    fibs = [f for f in corpus.maps if check(f)[0]]
    verdicts = []

    # (1) exponentiability: compute Pi_p(id) for every corpus fibration
    notes = []
    ok = True
    for idx, p in enumerate(fibs):
        try:
            pf = pushforward(p, identity(p.source), depth)
            notes.append(f"Pi along fibration {idx}: {sum(1 for _ in pf.sset.nondegenerate())} cells")
        except Exception as exc:  # noqa: BLE001 -- audit must report, not crash
            ok = False
            notes.append(f"pushforward failed: {exc}")
    verdicts.append(AxiomVerdict("1 exponentiable", "pass" if ok else "fail", tuple(notes)))

    # (2) identities, composition, chosen pullback
    notes = []
    ok = True
    for x in corpus.objects:
        if not check(identity(x))[0]:
            ok = False
            notes.append("an identity map fails the lifting check")
    for p in fibs:
        for q in fibs:
            if p.target == q.source and not check(compose(q, p))[0]:
                ok = False
                notes.append("a composite of fibrations fails the lifting check")
    for p in fibs:
        for g in corpus.maps:
            if g.target == p.target and not check(pullback(g, p).proj1)[0]:
                ok = False
                notes.append("a chosen pullback of a fibration fails the lifting check")
    verdicts.append(AxiomVerdict("2 identity/composition/pullback closure", "pass" if ok else "fail", tuple(notes)))

    # (3) pullback of a trivial cofibration along a fibration stays one
    notes = []
    ok = True
    # whether each corpus map lifts against the probes, shared with (5)
    lifts = [llp(i)[0] for i in corpus.maps]
    for i, lifted in zip(corpus.maps, lifts):
        if not lifted:
            continue
        for p in fibs:
            if p.target != i.target:
                continue
            pulled = pullback(p, i).proj1  # p*(A) -> domain of p
            good, ce = llp(pulled)
            if not good:
                ok = False
                notes.append(f"pullback along a fibration loses LLP: {ce}")
    verdicts.append(AxiomVerdict("3 trivial-cofib pullback along fibrations", "pass" if ok else "fail", tuple(notes)))

    # (4) budgeted factorization of every map between fibrant objects
    notes = []
    status = "pass"
    for i, a, b in corpus.over_triples():
        try:
            fac = factor_soa(i, spec.family, budget)
            if not llp(fac.left)[0]:
                status = "fail"
                notes.append("left factor is not a trivial cofibration vs probes")
        except BudgetExhausted:
            if status != "fail":
                status = "exhausted"
            notes.append(f"budget {budget} exhausted on one instance")
    verdicts.append(AxiomVerdict("4 factorization", status, tuple(notes)))

    # (5) trivial cofibrations over a base are stable under base change
    notes = []
    ok = True
    for (i, a, b), lifted in zip(corpus.over_triples(), lifts):
        if not lifted:
            continue
        for r in corpus.maps:
            if r.target != a.target:
                continue
            pa, pb = pullback(r, a), pullback(r, b)
            pulled = pb.pair(pa.proj1, compose(i, pa.proj2))
            good, ce = llp(pulled)
            if not good:
                ok = False
                notes.append(f"base change loses LLP: {ce}")
    verdicts.append(AxiomVerdict("5 trivial-cofib base-change stability", "pass" if ok else "fail", tuple(notes)))
    return SemifibReport(spec, tuple(verdicts))
