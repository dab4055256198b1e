"""Definitional equality: beta-normalization plus type-directed eta.

``normalize`` performs the beta-rules of every eliminator on untyped terms;
``equal_terms`` compares normal forms up to alpha, eta-expanding at the four
function-like formers (Hom, dependent Hom, Pi, extension types) when the
type at the comparison boundary is known.  The extension-type equation
``app(f, j u) = a[u/x]`` needs the comparison maps j from the type, so it
also fires inside ``equal_terms`` (and inside ``normalize`` for the built-in
path-type pieces i0/i1).

Both comparisons first ask whether the two sides are alpha-equal, and
answer ``True`` at once if they are, before unfolding a definition,
normalizing or eta-expanding: definitional equality is reflexive and
invariant under alpha, so only work is skipped.  Nearly every conversion the
checker asks about is of this kind.  One consequence is visible: a
comparison of alpha-equal sides spends no fuel, so it never raises
``OutOfFuel``, even over a redex tower longer than ``FUEL``.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    App,
    CoprodElim,
    CPair,
    EApp,
    EAppClause,
    Fst,
    HomApp,
    HomLam,
    I0,
    I1,
    IdJ,
    In,
    Lam,
    One,
    Pglue,
    Pinl,
    Pinr,
    PushElim,
    Refl,
    SPair,
    Snd,
    TDepHom,
    TExt,
    THom,
    TPath,
    TPi,
    TPushout,
    Term,
    Type,
    Var,
    alpha_equal,
    free_vars,
    fresh,
    map_children,
    subst,
    subst_type,
)

__all__ = ["FUEL", "OutOfFuel", "normalize", "equal_terms", "equal_types", "step", "unfold"]

Defs = Optional[dict]

#: beta steps ``normalize`` may take along one path of reductions
FUEL = 10000


class OutOfFuel(Exception):
    """``normalize`` used up its ``FUEL`` steps with a redex left: the
    verdict is unknown, not "different"."""


def unfold(t, defs: Defs):
    """Replace the global definitions free in a term or a type by their
    bodies, which are stored pre-unfolded; in name order, so the result
    does not depend on set order."""
    if not defs:
        return t
    for name in sorted(defs.keys() & free_vars(t)):
        t = subst(t, name, defs[name])
    return t


def step(t: Term) -> Optional[Term]:
    """One beta step at the root, or None if the root is not a redex."""
    if isinstance(t, App) and isinstance(t.f, Lam):
        return subst(t.f.body, t.f.x, t.a)
    if isinstance(t, HomApp) and isinstance(t.f, HomLam):
        return t.f.body
    if isinstance(t, EApp):
        if isinstance(t.f, Lam):
            return subst(t.f.body, t.f.x, t.v)
        # built-in path pieces: app at an endpoint picks the matching clause
        if isinstance(t.v, I0) and len(t.clauses) == 2:
            return subst(t.clauses[0].body, t.clauses[0].x, One())
        if isinstance(t.v, I1) and len(t.clauses) == 2:
            return subst(t.clauses[1].body, t.clauses[1].x, One())
        return None
    if isinstance(t, Fst) and isinstance(t.t, SPair):
        return t.t.a
    if isinstance(t, Snd) and isinstance(t.t, SPair):
        return t.t.b
    if isinstance(t, IdJ) and isinstance(t.q, Refl):
        return subst(t.d, t.x, t.q.t)
    if isinstance(t, CoprodElim) and isinstance(t.scrut, (CPair, In)):
        return subst(subst(t.d, t.i, t.scrut.j), t.x, t.scrut.b)
    if isinstance(t, PushElim):
        s = t.scrut
        if isinstance(s, Pinl):
            return subst(t.d1, t.y, s.t)
        if isinstance(s, Pinr):
            return subst(t.d2, t.z, s.t)
        if isinstance(s, Pglue):
            return subst(subst(t.d3, t.x, s.t), t.i, s.r)
    return None


def normalize(t: Term, fuel: Optional[int] = None) -> Term:
    """Full beta-normal form (the calculus is terminating on checked terms).

    Each path of reductions may take ``FUEL`` steps; ``OutOfFuel`` is
    raised when a redex is left after them.
    """
    if fuel is None:
        fuel = FUEL
    while True:
        red = step(t)
        if red is None:
            # normalize subterms, then retry the root (an inner step may expose one)
            t = map_children(t, lambda u: normalize(u, fuel))
            red = step(t)
            if red is None:
                return t
        if fuel == 0:
            raise OutOfFuel(f"normalization ran out of fuel after {FUEL} beta steps")
        t, fuel = red, fuel - 1


def _match_one_hole(pattern: Term, hole: str, value: Term) -> Optional[Term]:
    """Match ``value`` against ``pattern`` with ``hole`` as a linear variable."""
    found: list[Term] = []
    if _match(pattern, value, hole, found) and len(found) == 1:
        return found[0]
    return None


def _match(p: Term, v: Term, hole: str, found: list) -> bool:
    """Whether ``v`` matches ``p``, appending to ``found`` what ``hole`` meets."""
    if isinstance(p, Var) and p.name == hole:
        found.append(v)
        return True
    if type(p) is not type(v):
        return False
    if isinstance(p, Var):
        return p.name == v.name
    if isinstance(p, (One, I0, I1)):
        return True
    if isinstance(p, App):
        return _match(p.f, v.f, hole, found) and _match(p.a, v.a, hole, found)
    if isinstance(p, HomApp):
        return _match(p.f, v.f, hole, found)
    if isinstance(p, (Pinl, Pinr, Fst, Snd, Refl)):
        return _match(p.t, v.t, hole, found)
    if isinstance(p, (In, CPair)):
        return _match(p.j, v.j, hole, found) and _match(p.b, v.b, hole, found)
    if isinstance(p, Pglue):
        return _match(p.t, v.t, hole, found) and _match(p.r, v.r, hole, found)
    return alpha_equal(p, v)


def _ext_beta(ty: TExt, t: EApp) -> Optional[Term]:
    """app_{x.a}(f, j u) = a[u/x], matching v against the type's pieces."""
    for c in ty.clauses:
        u = _match_one_hole(normalize(c.j), c.x, t.v)
        if u is not None:
            return subst(c.body, c.x, u)
    return None


def _glue_endpoint(ty: "TPushout", t: Term) -> Term:
    if isinstance(t, Pglue):
        if isinstance(t.r, I0):
            return normalize(Pinl(App(ty.f, t.t)))
        if isinstance(t.r, I1):
            return normalize(Pinr(App(ty.g, t.t)))
    return t


def equal_types(t: Type, u: Type, defs: Defs = None) -> bool:
    """Type equality: alpha after normalizing all embedded terms."""
    if alpha_equal(t, u):
        return True
    return alpha_equal(_normal_type(unfold(t, defs)), _normal_type(unfold(u, defs)))


def _normal_type(ty: Type) -> Type:
    return map_children(ty, normalize, _normal_type)


def equal_terms(t: Term, u: Term, ty: Optional[Type] = None, defs: Defs = None) -> bool:
    """Definitional equality at a type: normalize, eta-expand, alpha-compare."""
    if alpha_equal(t, u):
        return True
    if defs:
        t, u = unfold(t, defs), unfold(u, defs)
        ty = unfold(ty, defs) if ty is not None else None
    t, u = normalize(t), normalize(u)
    if ty is not None:
        avoid = free_vars(t) | free_vars(u)
        if isinstance(ty, THom):
            x = fresh("x", avoid)
            return equal_terms(App(t, Var(x)), App(u, Var(x)), ty.b)
        if isinstance(ty, TDepHom):
            return equal_terms(HomApp(t), HomApp(u), ty.b)
        if isinstance(ty, TPi):
            i = fresh("i", avoid)
            return equal_terms(
                App(t, Var(i)), App(u, Var(i)), subst_type(ty.body, ty.i, Var(i))
            )
        if isinstance(ty, TExt):
            # resolve app(f, j u) redexes visible only with the type in hand
            if isinstance(t, EApp):
                red = _ext_beta(ty, t)
                if red is not None:
                    return equal_terms(red, u, None)
            if isinstance(u, EApp):
                red = _ext_beta(ty, u)
                if red is not None:
                    return equal_terms(t, red, None)
            y = fresh("y", avoid)
            cl = tuple(EAppClause(c.x, c.body) for c in ty.clauses)
            ta = subst_type(ty.a, ty.y, Var(y))
            return equal_terms(EApp(cl, t, Var(y)), EApp(cl, u, Var(y)), ta)
        if isinstance(ty, TPath):
            y = fresh("y", avoid)
            cl = (EAppClause("u0", ty.left), EAppClause("u1", ty.right))
            return equal_terms(EApp(cl, t, Var(y)), EApp(cl, u, Var(y)), ty.a)
        if isinstance(ty, TPushout):
            # glue at an endpoint is the corresponding injection of the span leg
            t = _glue_endpoint(ty, t)
            u = _glue_endpoint(ty, u)
    if isinstance(t, EApp) and not isinstance(u, EApp):
        return False
    return alpha_equal(t, u)
