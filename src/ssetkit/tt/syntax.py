"""AST for the two-zone type theory, with printing and substitution.

Terms and types are named (not de Bruijn), and the printer is the inverse
of the parser on ASTs.  The binding structure is declared once, in
``BINDERS``: for each node with binders, its scopes, each a pair (binder
fields, child fields those binders scope over); every other child is in no
scope.  Free names, capture-avoiding substitution, alpha-equivalence and
the child map (``free_vars``, ``subst``, ``alpha_equal``, ``map_children``)
are each written once over that table and serve terms and types alike;
``free_vars_type``, ``subst_type`` and ``alpha_equal_type`` are the same
functions.  The telescope of ``TDepHom``, where each name scopes over the
rest of the telescope and the body, is the one binder form they handle by
hand.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import repeat
from operator import is_not
from typing import Union, get_args

__all__ = [
    "Type",
    "Term",
    "TConst",
    "TUnit",
    "TInterval",
    "THom",
    "TDepHom",
    "TPi",
    "TCoprod",
    "TSigma",
    "TId",
    "TPath",
    "TExt",
    "ExtClause",
    "TPushout",
    "Var",
    "Lam",
    "App",
    "HomLam",
    "HomApp",
    "EApp",
    "EAppClause",
    "One",
    "I0",
    "I1",
    "SPair",
    "Fst",
    "Snd",
    "Refl",
    "IdJ",
    "In",
    "CPair",
    "CoprodElim",
    "Pinl",
    "Pinr",
    "Pglue",
    "PushElim",
    "type_to_src",
    "term_to_src",
    "subst",
    "subst_type",
    "free_vars",
    "free_vars_type",
    "alpha_equal",
    "alpha_equal_type",
    "fresh",
]


# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class TConst:
    """A declared type constant, possibly applied to telescope arguments."""

    name: str
    args: tuple = ()


@dataclass(frozen=True)
class TUnit:
    pass


@dataclass(frozen=True)
class TInterval:
    pass


@dataclass(frozen=True)
class THom:
    a: "Type"
    b: "Type"


@dataclass(frozen=True)
class TDepHom:
    """Hom((x1 : A1) ... . B): dependent Hom over an indexed telescope."""

    tele: tuple  # of (name, Type)
    b: "Type"


@dataclass(frozen=True)
class TPi:
    i: str
    itype: "Type"
    body: "Type"


@dataclass(frozen=True)
class TCoprod:
    i: str
    itype: "Type"
    body: "Type"


@dataclass(frozen=True)
class TSigma:
    x: str
    xtype: "Type"
    body: "Type"


@dataclass(frozen=True)
class TId:
    a: "Type"
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class TPath:
    a: "Type"
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class ExtClause:
    """One piece of the index decomposition: (x : U) j . a."""

    x: str
    u: "Type"
    j: "Term"  # comparison map, a term of V with x free
    body: "Term"  # a, a term of A[j x / y] with x free


@dataclass(frozen=True)
class TExt:
    """<Pi (y : V) A | (x1 : U1) j1 . a1, ...>: the extension type."""

    y: str
    v: "Type"
    a: "Type"
    clauses: tuple  # of ExtClause


@dataclass(frozen=True)
class TPushout:
    """Pushout(f, g) of a span given by two Hom-terms with a common domain."""

    f: "Term"
    g: "Term"


Type = Union[
    TConst, TUnit, TInterval, THom, TDepHom, TPi, TCoprod, TSigma, TId, TPath, TExt, TPushout
]


# ---------------------------------------------------------------- terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    """\\x. b -- introduction for Hom, Pi, and extension types."""

    x: str
    body: "Term"


@dataclass(frozen=True)
class App:
    """f a -- elimination for Hom (indexed argument) and Pi (base argument)."""

    f: "Term"
    a: "Term"


@dataclass(frozen=True)
class HomLam:
    """lam(b): dependent-Hom introduction."""

    body: "Term"


@dataclass(frozen=True)
class HomApp:
    """f (): dependent-Hom elimination."""

    f: "Term"


@dataclass(frozen=True)
class EAppClause:
    x: str
    body: "Term"


@dataclass(frozen=True)
class EApp:
    """app{x1.a1, ...}(f, v): clause-annotated extension application."""

    clauses: tuple  # of EAppClause
    f: "Term"
    v: "Term"


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class I0:
    pass


@dataclass(frozen=True)
class I1:
    pass


@dataclass(frozen=True)
class SPair:
    a: "Term"
    b: "Term"


@dataclass(frozen=True)
class Fst:
    t: "Term"


@dataclass(frozen=True)
class Snd:
    t: "Term"


@dataclass(frozen=True)
class Refl:
    t: "Term"


@dataclass(frozen=True)
class IdJ:
    """idJ(z p. D, x. d, q): the standard identity eliminator."""

    z: str
    p: str
    dtype: "Type"
    x: str
    d: "Term"
    q: "Term"


@dataclass(frozen=True)
class In:
    """in(j, x): unstable coproduct introduction (x must be a variable)."""

    j: "Term"
    b: "Term"


@dataclass(frozen=True)
class CPair:
    """(j, b): stable coproduct introduction."""

    j: "Term"
    b: "Term"


@dataclass(frozen=True)
class CoprodElim:
    """coprod-elim(z. D, i x. d, t): eliminate the coproduct term t."""

    z: str
    dtype: "Type"
    i: str
    x: str
    d: "Term"
    scrut: "Term"


@dataclass(frozen=True)
class Pinl:
    t: "Term"


@dataclass(frozen=True)
class Pinr:
    t: "Term"


@dataclass(frozen=True)
class Pglue:
    t: "Term"
    r: "Term"


@dataclass(frozen=True)
class PushElim:
    """pelim(w. D, y. d1, z. d2, x i. d3, t)."""

    w: str
    dtype: "Type"
    y: str
    d1: "Term"
    z: str
    d2: "Term"
    x: str
    i: str
    d3: "Term"
    scrut: "Term"


Term = Union[
    Var, Lam, App, HomLam, HomApp, EApp, One, I0, I1, SPair, Fst, Snd, Refl, IdJ,
    In, CPair, CoprodElim, Pinl, Pinr, Pglue, PushElim,
]


# ---------------------------------------------------------------- printing


def _tele_src(tele) -> str:
    return " ".join(f"({n} : {type_to_src(t)})" for n, t in tele)


def type_to_src(t: Type) -> str:
    if isinstance(t, TConst):
        if t.args:
            return "(" + t.name + " " + " ".join(_atom_src(a) for a in t.args) + ")"
        return t.name
    if isinstance(t, TUnit):
        return "One"
    if isinstance(t, TInterval):
        return "I1"
    if isinstance(t, THom):
        return f"Hom({type_to_src(t.a)}, {type_to_src(t.b)})"
    if isinstance(t, TDepHom):
        return f"Hom({_tele_src(t.tele)} . {type_to_src(t.b)})"
    if isinstance(t, TPi):
        return f"Pi ({t.i} : {type_to_src(t.itype)}) {type_to_src(t.body)}"
    if isinstance(t, TCoprod):
        return f"Coprod ({t.i} : {type_to_src(t.itype)}) {type_to_src(t.body)}"
    if isinstance(t, TSigma):
        return f"Sigma ({t.x} : {type_to_src(t.xtype)}) {type_to_src(t.body)}"
    if isinstance(t, TId):
        return f"Id({type_to_src(t.a)}, {term_to_src(t.left)}, {term_to_src(t.right)})"
    if isinstance(t, TPath):
        return f"Path({type_to_src(t.a)}, {term_to_src(t.left)}, {term_to_src(t.right)})"
    if isinstance(t, TExt):
        cl = ", ".join(
            f"({c.x} : {type_to_src(c.u)}) {_atom_src(c.j)} . {term_to_src(c.body)}"
            for c in t.clauses
        )
        return f"<Pi ({t.y} : {type_to_src(t.v)}) {type_to_src(t.a)} | {cl}>"
    if isinstance(t, TPushout):
        return f"Pushout({term_to_src(t.f)}, {term_to_src(t.g)})"
    raise TypeError(f"not a type node: {t!r}")


def _atom_src(t: Term) -> str:
    s = term_to_src(t)
    if isinstance(t, (Var, One, I0, I1, HomApp)) or s.startswith("("):
        return s
    if isinstance(t, (SPair, CPair)):
        return s
    return f"({s})"


def term_to_src(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lam):
        return f"\\{t.x}. {term_to_src(t.body)}"
    if isinstance(t, App):
        return f"{_head_src(t.f)} {_atom_src(t.a)}"
    if isinstance(t, HomLam):
        return f"lam({term_to_src(t.body)})"
    if isinstance(t, HomApp):
        return f"{_head_src(t.f)} ()"
    if isinstance(t, EApp):
        cl = ", ".join(f"{c.x}. {term_to_src(c.body)}" for c in t.clauses)
        return f"app{{{cl}}}({term_to_src(t.f)}, {term_to_src(t.v)})"
    if isinstance(t, One):
        return "one"
    if isinstance(t, I0):
        return "i0"
    if isinstance(t, I1):
        return "i1"
    if isinstance(t, SPair):
        return f"spair({term_to_src(t.a)}, {term_to_src(t.b)})"
    if isinstance(t, Fst):
        return f"fst({term_to_src(t.t)})"
    if isinstance(t, Snd):
        return f"snd({term_to_src(t.t)})"
    if isinstance(t, Refl):
        return f"refl({term_to_src(t.t)})"
    if isinstance(t, IdJ):
        return (
            f"idJ({t.z} {t.p}. {type_to_src(t.dtype)}, {t.x}. {term_to_src(t.d)}, "
            f"{term_to_src(t.q)})"
        )
    if isinstance(t, In):
        return f"in({term_to_src(t.j)}, {term_to_src(t.b)})"
    if isinstance(t, CPair):
        return f"({term_to_src(t.j)}, {term_to_src(t.b)})"
    if isinstance(t, CoprodElim):
        return (
            f"coprod-elim({t.z}. {type_to_src(t.dtype)}, {t.i} {t.x}. {term_to_src(t.d)}, "
            f"{term_to_src(t.scrut)})"
        )
    if isinstance(t, Pinl):
        return f"pinl({term_to_src(t.t)})"
    if isinstance(t, Pinr):
        return f"pinr({term_to_src(t.t)})"
    if isinstance(t, Pglue):
        return f"pglue({term_to_src(t.t)}, {term_to_src(t.r)})"
    if isinstance(t, PushElim):
        return (
            f"pelim({t.w}. {type_to_src(t.dtype)}, {t.y}. {term_to_src(t.d1)}, "
            f"{t.z}. {term_to_src(t.d2)}, {t.x} {t.i}. {term_to_src(t.d3)}, "
            f"{term_to_src(t.scrut)})"
        )
    raise TypeError(f"not a term node: {t!r}")


def _head_src(t: Term) -> str:
    # heads of applications: lambdas and eliminators need parentheses
    s = term_to_src(t)
    if isinstance(t, (Lam, HomLam, CoprodElim, IdJ, PushElim, In, CPair, EApp)):
        return f"({s})"
    return s


# ---------------------------------------------------------------- binders

#: node -> scopes (binder fields in field order, child fields they scope over)
BINDERS = {
    Lam: ((("x",), ("body",)),),
    EAppClause: ((("x",), ("body",)),),
    IdJ: ((("z", "p"), ("dtype",)), (("x",), ("d",))),
    CoprodElim: ((("z",), ("dtype",)), (("i", "x"), ("d",))),
    PushElim: ((("w",), ("dtype",)), (("y",), ("d1",)), (("z",), ("d2",)), (("x", "i"), ("d3",))),
    TPi: ((("i",), ("body",)),),
    TCoprod: ((("i",), ("body",)),),
    TSigma: ((("x",), ("body",)),),
    TExt: ((("y",), ("a",)),),
    ExtClause: ((("x",), ("j", "body")),),
}

_TYPES = frozenset(get_args(Type))
_CLAUSES = frozenset((EAppClause, ExtClause))
# substitution renames a lambda or clause binder away from the lambda and
# clause binders around it too, up to the nearest other binder or type; the
# names it picks there show in error messages, which tests/golden/check pins
_LEXICAL = frozenset((Lam, EAppClause))
_EMPTY: frozenset = frozenset()


def _shape(cls) -> tuple:
    """(field names, data fields, scopes, child fields): a ``str`` field that
    binds nothing is data (a variable's or a constant's name), every other
    field that is not a binder is a child, and the children that no binder
    scopes over make one more scope, with no binders."""
    names = tuple(f.name for f in fields(cls))
    strs = {f.name for f in fields(cls) if f.type == "str"}
    scopes = BINDERS.get(cls, ())
    children = tuple(n for n in names if n not in strs)
    free = tuple(n for n in children if all(n not in kids for _, kids in scopes))
    data = tuple(n for n in names if n in strs and all(n not in bs for bs, _ in scopes))
    return names, data, (((), free), *scopes) if free else scopes, children


# every node but TDepHom, whose telescope the walkers handle by hand
_SHAPES = {cls: _shape(cls) for cls in (*get_args(Term), *_TYPES, *_CLAUSES) if cls is not TDepHom}


def free_vars(t) -> frozenset:
    """The free names of a term or a type."""
    cls = type(t)
    if cls is Var:
        return frozenset((t.name,))
    if cls is TDepHom:
        out = free_vars(t.b)
        for n, ty in reversed(t.tele):
            out = (out - {n}) | free_vars(ty)
        return out
    out = _EMPTY
    for binders, kids in _SHAPES[cls][2]:
        inner = _EMPTY
        for k in kids:
            v = getattr(t, k)
            if type(v) is tuple:
                for e in v:
                    inner |= free_vars(e)
            else:
                inner |= free_vars(v)
        out |= inner.difference([getattr(t, b) for b in binders]) if binders else inner
    return out


free_vars_type = free_vars


def fresh(base: str, avoid) -> str:
    """A name not in ``avoid``, derived from ``base`` by priming."""
    name = base
    while name in avoid:
        name += "'"
    return name


# ---------------------------------------------------------------- substitution


def subst(t, name: str, value: Term):
    """Capture-avoiding substitution of the term ``value`` for ``name`` in a
    term or a type.

    A binder that is free in ``value`` is renamed by priming, away from the
    free names of ``value`` and of its scope, from ``name`` and from the
    other binders of its scope (and, for lambda and clause binders, from the
    lambda and clause binders around it).

    The walk is the module-level ``_subst``, which gets ``name``, ``value``
    and the free names of ``value`` as an explicit ``_Subst`` state.  A
    nested walker that calls itself would refer to itself through a cell,
    and that cycle, with every node it captured, would live until the cyclic
    collector ran; without one, reference counting frees a substitution's
    garbage at once.
    """
    return _subst(t, _EMPTY, _Subst(name, value))


class _Subst:
    """What one substitution carries down: the name, the value, and the
    free names of the value, computed at the first binder met."""

    __slots__ = ("name", "value", "_fv")

    def __init__(self, name: str, value: Term):
        self.name, self.value, self._fv = name, value, None

    @property
    def fv(self) -> frozenset:
        if self._fv is None:
            self._fv = free_vars(self.value)
        return self._fv


def _rename(b, kids: list, avoid, shadowed: bool = False) -> tuple:
    """A fresh name for the binder b, and the kids of its scope with it put
    for b, unless a later binder of the scope shadows b there."""
    nb = fresh(b, avoid.union(*map(free_vars, kids)))
    return nb, kids if shadowed else [subst(k, b, Var(nb)) for k in kids]


def _subst(t, bound: frozenset, s: _Subst):
    cls = type(t)
    if cls is Var:
        return s.value if t.name == s.name else t
    name = s.name
    if cls is TDepHom:
        if not t.tele:
            return TDepHom((), _subst(t.b, _EMPTY, s))
        (n, ty), rest = t.tele[0], TDepHom(t.tele[1:], t.b)
        if n != name:
            fv = s.fv
            if n in fv:
                n, (rest,) = _rename(n, [rest], fv | {name})
            rest = _subst(rest, _EMPTY, s)
        return TDepHom(((n, _subst(ty, _EMPTY, s)),) + rest.tele, rest.b)
    names, _, scopes, _ = _SHAPES[cls]
    new = {}  # the fields that change
    for binders, kids in scopes:
        inner = bound
        if binders:
            bs = [getattr(t, b) for b in binders]
            if name in bs:
                continue  # shadowed
            fv = s.fv
            if not fv.isdisjoint(bs):
                sub = [getattr(t, k) for k in kids]
                for j, b in enumerate(bs):
                    if b in fv:
                        avoid = fv | bound | {name, *bs}
                        bs[j], sub = _rename(b, sub, avoid, b in bs[j + 1:])
                        new[binders[j]] = bs[j]
                new.update(zip(kids, sub))
            inner = bound.union(bs) if cls in _LEXICAL else _EMPTY
        for k in kids:
            old = getattr(t, k)
            v = new.get(k, old)
            if type(v) is tuple:
                v = tuple([_subst(e, inner, s) for e in v])
                if any(map(is_not, v, old)):
                    new[k] = v
            elif (v := _subst(v, inner, s)) is not old:
                new[k] = v
    return cls(*[new.get(f, getattr(t, f)) for f in names]) if new else t


subst_type = subst


def map_children(t, on_term, on_type=None):
    """``t`` with ``on_term`` applied to each term child and ``on_type`` to
    each type child, in field order, walking through tuples and clauses; the
    type children are kept when ``on_type`` is None."""
    cls = type(t)
    if cls is TDepHom:
        if on_type is None:
            return t
        return TDepHom(tuple((n, on_type(ty)) for n, ty in t.tele), on_type(t.b))
    names, _, _, children = _SHAPES[cls]
    if not children:
        return t
    vals = {}
    for k in children:
        v = getattr(t, k)
        if type(v) is tuple:
            vals[k] = tuple(
                map_children(e, on_term, on_type) if type(e) in _CLAUSES else on_term(e)
                for e in v
            )
        elif type(v) not in _TYPES:
            vals[k] = on_term(v)
        elif on_type is not None:
            vals[k] = on_type(v)
    return cls(*[vals.get(f, getattr(t, f)) for f in names])


# ---------------------------------------------------------------- alpha


def _look(env: tuple, n: str, side: int) -> object:
    for i, pair in enumerate(reversed(env)):
        if pair[side] == n:
            return ("b", i)
    return ("f", n)


def alpha_equal(t, u, env: tuple = ()) -> bool:
    """Alpha-equivalence of terms or of types; env pairs bound names
    left-to-right."""
    cls = type(t)
    if cls is not type(u):
        return False
    if cls is Var:
        return _look(env, t.name, 0) == _look(env, u.name, 1)
    if cls is TDepHom:
        if len(t.tele) != len(u.tele):
            return False
        for (n1, t1), (n2, t2) in zip(t.tele, u.tele):
            if not alpha_equal(t1, t2, env):
                return False
            env = env + ((n1, n2),)
        return alpha_equal(t.b, u.b, env)
    _, data, scopes, _ = _SHAPES[cls]
    for k in data:
        if getattr(t, k) != getattr(u, k):
            return False
    for binders, kids in scopes:
        e = env
        for b in binders:
            e = e + ((getattr(t, b), getattr(u, b)),)
        for k in kids:
            a, b = getattr(t, k), getattr(u, k)
            if type(a) is not tuple:
                if not alpha_equal(a, b, e):
                    return False
            elif len(a) != len(b) or not all(map(alpha_equal, a, b, repeat(e))):
                return False
    return True


alpha_equal_type = alpha_equal
