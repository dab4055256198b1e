"""Recursive-descent parser for the ``.itt`` surface syntax.

Grammar sketch::

    file  := pragma* decl*
    pragma:= '#stable-coproducts'
    decl  := ('def' | 'postulate') name btele ['|' itele] ':' rhs [':=' term]
    rhs   := 'Type' | 'Base' | type
    tele  := ('(' name ':' type ')')*
    type  := 'One' | 'I1' | 'Hom(A, B)' | 'Hom((x : A) ... . B)'
           | 'Pi (i : I) B' | 'Coprod (i : I) B' | 'Sigma (x : A) B'
           | 'Id(A, a, b)' | 'Path(A, a, b)' | 'Pushout(f, g)'
           | '<Pi (y : V) A | (x : U) j . a, ...>' | name | '(' name term* ')'
    term  := application of atoms; '\\x. b'; 'lam(b)'; 'f ()';
             'app{x.a, ...}(f, v)'; '(j, b)'; 'in(j, x)';
             'coprod-elim(z. D, i x. d, t)'; 'spair/fst/snd/refl/idJ';
             'pinl/pinr/pglue/pelim'; 'one', 'i0', 'i1'

Comments run from ``--`` to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    App,
    CoprodElim,
    CPair,
    EApp,
    EAppClause,
    ExtClause,
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
    TConst,
    TCoprod,
    TDepHom,
    TExt,
    THom,
    TId,
    TInterval,
    TPath,
    TPi,
    TPushout,
    TSigma,
    TUnit,
    Term,
    Type,
    Var,
)

__all__ = ["ParseError", "RawDecl", "parse_file", "parse_term", "parse_type"]


class ParseError(Exception):
    """A positioned syntax error."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class RawDecl:
    """One parsed declaration, before checking."""

    keyword: str  # "def" | "postulate"
    name: str
    btele: tuple  # of (name, Type)
    itele: Optional[tuple]  # None when the declaration has no indexed zone
    rhs: object  # "Type" | "Base" | a Type node
    body: Optional[Term]
    line: int = field(default=0, compare=False)


_TOKEN = re.compile(
    r"""(?P<ws>\s+|--[^\n]*)
      | (?P<sym>:=|\(\)|[()<>{}|,.:\\#])
      | (?P<name>[A-Za-z_][A-Za-z0-9_'-]*)
    """,
    re.VERBOSE,
)

# Deepest nesting of terms and types the parser accepts.  Each level costs at
# most three Python frames here, so a program at the bound parses (and
# checks) well inside the default recursion limit; deeper input is a
# ParseError rather than a RecursionError.
_MAX_NESTING = 256

_TERM_KEYWORDS = {
    "one", "i0", "i1", "lam", "app", "spair", "fst", "snd", "refl", "idJ",
    "in", "coprod-elim", "pinl", "pinr", "pglue", "pelim",
}
_TYPE_KEYWORDS = {
    "One", "I1", "Hom", "Pi", "Coprod", "Sigma", "Id", "Path", "Pushout",
}
_RESERVED = _TYPE_KEYWORDS | {"def", "postulate", "Type", "Base"}


class _Tokens:
    def __init__(self, src: str):
        self.toks: list[tuple[str, str, int, int]] = []
        line, bol = 1, 0
        pos = 0
        while pos < len(src):
            m = _TOKEN.match(src, pos)
            if m is None:
                raise ParseError(f"unexpected character {src[pos]!r}", line, pos - bol + 1)
            text = m.group(0)
            if m.lastgroup != "ws":
                self.toks.append((m.lastgroup, text, line, pos - bol + 1))
            line += text.count("\n")
            if "\n" in text:
                bol = pos + text.rindex("\n") + 1
            pos = m.end()
        self.idx = 0
        self.depth = 0

    def peek(self, k: int = 0) -> Optional[tuple]:
        if self.idx + k < len(self.toks):
            return self.toks[self.idx + k]
        return None

    def next(self) -> tuple:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else (None, "", 1, 1)
            raise ParseError("unexpected end of input", last[2], last[3])
        self.idx += 1
        return t

    def expect(self, text: str) -> tuple:
        t = self.next()
        if t[1] != text:
            raise ParseError(f"expected {text!r}, found {t[1]!r}", t[2], t[3])
        return t

    def at(self, text: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t is not None and t[1] == text

    def err(self, message: str) -> ParseError:
        t = self.peek() or (None, "", 1, 1)
        return ParseError(message, t[2], t[3])

    def deeper(self) -> None:
        """Go one level deeper in the syntax tree, refusing to pass _MAX_NESTING."""
        if self.depth >= _MAX_NESTING:
            raise self.err(f"nesting deeper than {_MAX_NESTING} levels")
        self.depth += 1


def _nested(parse):
    """Count each ``parse`` call as one level of nesting, for its duration."""

    def nested(ts: _Tokens):
        depth = ts.depth
        ts.deeper()
        try:
            return parse(ts)
        finally:
            ts.depth = depth

    return nested


def _parse_name(ts: _Tokens) -> str:
    t = ts.next()
    if t[0] != "name":
        raise ParseError(f"expected a name, found {t[1]!r}", t[2], t[3])
    return t[1]


# ---------------------------------------------------------------- types


def _parse_tele_entry(ts: _Tokens) -> tuple:
    ts.expect("(")
    names = [_parse_name(ts)]
    while not ts.at(":"):
        names.append(_parse_name(ts))
    ts.expect(":")
    ty = _parse_type(ts)
    ts.expect(")")
    return tuple((n, ty) for n in names)


def _parse_tele(ts: _Tokens) -> tuple:
    if ts.at("()"):  # an explicitly empty telescope
        ts.next()
        return ()
    out: list = []
    while ts.at("(") and ts.peek(1) is not None and ts.peek(1)[0] == "name":
        # lookahead: a telescope entry is '(' names ':' ...
        save = ts.idx
        try:
            out.extend(_parse_tele_entry(ts))
        except ParseError:
            ts.idx = save
            break
    return tuple(out)


def _parse_binder_head(ts: _Tokens) -> tuple:
    ts.expect("(")
    n = _parse_name(ts)
    ts.expect(":")
    ty = _parse_type(ts)
    ts.expect(")")
    return n, ty


@_nested
def _parse_type(ts: _Tokens) -> Type:
    t = ts.peek()
    if t is None:
        raise ts.err("expected a type")
    kind, text = t[0], t[1]
    if text == "One":
        ts.next()
        return TUnit()
    if text == "I1":
        ts.next()
        return TInterval()
    if text == "Hom":
        ts.next()
        ts.expect("(")
        if ts.at("("):
            tele: list = []
            while ts.at("("):
                tele.extend(_parse_tele_entry(ts))
            ts.expect(".")
            b = _parse_type(ts)
            ts.expect(")")
            return TDepHom(tuple(tele), b)
        a = _parse_type(ts)
        ts.expect(",")
        b = _parse_type(ts)
        ts.expect(")")
        return THom(a, b)
    if text in ("Pi", "Coprod", "Sigma"):
        ts.next()
        n, ty = _parse_binder_head(ts)
        body = _parse_type(ts)
        if text == "Pi":
            return TPi(n, ty, body)
        if text == "Coprod":
            return TCoprod(n, ty, body)
        return TSigma(n, ty, body)
    if text in ("Id", "Path"):
        ts.next()
        ts.expect("(")
        a = _parse_type(ts)
        ts.expect(",")
        left = _parse_term(ts)
        ts.expect(",")
        right = _parse_term(ts)
        ts.expect(")")
        return TId(a, left, right) if text == "Id" else TPath(a, left, right)
    if text == "Pushout":
        ts.next()
        ts.expect("(")
        f = _parse_term(ts)
        ts.expect(",")
        g = _parse_term(ts)
        ts.expect(")")
        return TPushout(f, g)
    if text == "<":
        ts.next()
        ts.expect("Pi")
        y, v = _parse_binder_head(ts)
        a = _parse_type(ts)
        ts.expect("|")
        clauses = []
        while True:
            x, u = _parse_binder_head(ts)
            j = _parse_atom(ts)
            ts.expect(".")
            body = _parse_term(ts)
            clauses.append(ExtClause(x, u, j, body))
            if ts.at(","):
                ts.next()
                continue
            break
        ts.expect(">")
        return TExt(y, v, a, tuple(clauses))
    if text == "(":
        ts.next()
        name = _parse_name(ts)
        args = []
        while not ts.at(")"):
            args.append(_parse_atom(ts))
        ts.expect(")")
        return TConst(name, tuple(args))
    if kind == "name":
        ts.next()
        return TConst(text)
    raise ts.err(f"expected a type, found {text!r}")


# ---------------------------------------------------------------- terms


@_nested
def _parse_term(ts: _Tokens) -> Term:
    if ts.at("\\"):
        ts.next()
        x = _parse_name(ts)
        ts.expect(".")
        return Lam(x, _parse_term(ts))
    t = _parse_atom(ts)
    while True:
        # each application wraps the spine built so far one level deeper
        if ts.at("()"):
            ts.deeper()
            ts.next()
            t = HomApp(t)
            continue
        nxt = ts.peek()
        if nxt is not None and (
            nxt[1] == "("
            or (nxt[0] == "name" and nxt[1] not in _RESERVED)
            or nxt[1] == "\\"
        ):
            ts.deeper()
            if nxt[1] == "\\":
                ts.next()
                x = _parse_name(ts)
                ts.expect(".")
                t = App(t, Lam(x, _parse_term(ts)))
                return t
            t = App(t, _parse_atom(ts))
            continue
        return t


def _parse_atom(ts: _Tokens) -> Term:
    t = ts.peek()
    if t is None:
        raise ts.err("expected a term")
    kind, text = t[0], t[1]
    if text == "one":
        ts.next()
        return One()
    if text == "i0":
        ts.next()
        return I0()
    if text == "i1":
        ts.next()
        return I1()
    if text == "\\":
        ts.next()
        x = _parse_name(ts)
        ts.expect(".")
        return Lam(x, _parse_term(ts))
    if text == "lam":
        ts.next()
        ts.expect("(")
        body = _parse_term(ts)
        ts.expect(")")
        return HomLam(body)
    if text == "app":
        ts.next()
        ts.expect("{")
        clauses = []
        while True:
            x = _parse_name(ts)
            ts.expect(".")
            body = _parse_term(ts)
            clauses.append(EAppClause(x, body))
            if ts.at(","):
                ts.next()
                continue
            break
        ts.expect("}")
        ts.expect("(")
        f = _parse_term(ts)
        ts.expect(",")
        v = _parse_term(ts)
        ts.expect(")")
        return EApp(tuple(clauses), f, v)
    if text in ("spair", "in", "pglue"):
        ts.next()
        ts.expect("(")
        a = _parse_term(ts)
        ts.expect(",")
        b = _parse_term(ts)
        ts.expect(")")
        return {"spair": SPair, "in": In, "pglue": Pglue}[text](a, b)
    if text in ("fst", "snd", "refl", "pinl", "pinr"):
        ts.next()
        ts.expect("(")
        inner = _parse_term(ts)
        ts.expect(")")
        return {"fst": Fst, "snd": Snd, "refl": Refl, "pinl": Pinl, "pinr": Pinr}[text](inner)
    if text == "idJ":
        ts.next()
        ts.expect("(")
        z = _parse_name(ts)
        p = _parse_name(ts)
        ts.expect(".")
        dtype = _parse_type(ts)
        ts.expect(",")
        x = _parse_name(ts)
        ts.expect(".")
        d = _parse_term(ts)
        ts.expect(",")
        q = _parse_term(ts)
        ts.expect(")")
        return IdJ(z, p, dtype, x, d, q)
    if text == "coprod-elim":
        ts.next()
        ts.expect("(")
        z = _parse_name(ts)
        ts.expect(".")
        dtype = _parse_type(ts)
        ts.expect(",")
        i = _parse_name(ts)
        x = _parse_name(ts)
        ts.expect(".")
        d = _parse_term(ts)
        ts.expect(",")
        scrut = _parse_term(ts)
        ts.expect(")")
        return CoprodElim(z, dtype, i, x, d, scrut)
    if text == "pelim":
        ts.next()
        ts.expect("(")
        w = _parse_name(ts)
        ts.expect(".")
        dtype = _parse_type(ts)
        ts.expect(",")
        y = _parse_name(ts)
        ts.expect(".")
        d1 = _parse_term(ts)
        ts.expect(",")
        z = _parse_name(ts)
        ts.expect(".")
        d2 = _parse_term(ts)
        ts.expect(",")
        x = _parse_name(ts)
        i = _parse_name(ts)
        ts.expect(".")
        d3 = _parse_term(ts)
        ts.expect(",")
        scrut = _parse_term(ts)
        ts.expect(")")
        return PushElim(w, dtype, y, d1, z, d2, x, i, d3, scrut)
    if text == "(":
        ts.next()
        a = _parse_term(ts)
        if ts.at(","):
            ts.next()
            b = _parse_term(ts)
            ts.expect(")")
            return CPair(a, b)
        ts.expect(")")
        return a
    if kind == "name" and text not in _RESERVED:
        ts.next()
        return Var(text)
    raise ts.err(f"expected a term, found {text!r}")


# ---------------------------------------------------------------- files


def parse_file(src: str) -> tuple[tuple, tuple]:
    """Parse a ``.itt`` source: returns (pragmas, declarations)."""
    ts = _Tokens(src)
    pragmas = []
    while ts.at("#"):
        ts.next()
        pragmas.append(_parse_name(ts))
    decls = []
    while ts.peek() is not None:
        t = ts.next()
        if t[1] not in ("def", "postulate"):
            raise ParseError(f"expected a declaration, found {t[1]!r}", t[2], t[3])
        name = _parse_name(ts)
        btele = _parse_tele(ts)
        itele = None
        if ts.at("|"):
            ts.next()
            itele = _parse_tele(ts)
        ts.expect(":")
        if ts.at("Type"):
            ts.next()
            rhs: object = "Type"
        elif ts.at("Base"):
            ts.next()
            rhs = "Base"
        else:
            rhs = _parse_type(ts)
        body = None
        if ts.at(":="):
            ts.next()
            body = _parse_term(ts)
        decls.append(RawDecl(t[1], name, btele, itele, rhs, body, line=t[2]))
    return tuple(pragmas), tuple(decls)


def parse_term(src: str) -> Term:
    ts = _Tokens(src)
    t = _parse_term(ts)
    if ts.peek() is not None:
        raise ts.err("trailing input after term")
    return t


def parse_type(src: str) -> Type:
    ts = _Tokens(src)
    t = _parse_type(ts)
    if ts.peek() is not None:
        raise ts.err("trailing input after type")
    return t
