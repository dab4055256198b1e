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

No token spans a line, so the tokenizer is ``_TOKEN.findall`` over each
line, which skips the whitespace and comments before each token and keeps
only the token texts: no position is kept per token.  The parser reads the
texts as plain strings (a token is a name unless it is one of ``_SYMBOLS``)
and dispatches a type or an atom on its first token through a table.  A
position is computed only when it is needed, for ``RawDecl.line`` and for a
``ParseError``: the line by bisecting the index of each line's first token,
and the column by scanning that one line again.

The keyword forms are declared in ``syntax.KEYWORDS`` and
``syntax.BINDER_TYPES``, which the printer reads too.  Each entry's rule is
built by one function, ``_keyword_rule`` or ``_type_binder``, and the type
keywords are the names among the type rules.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from typing import Callable, Optional, get_args

from .syntax import (
    BINDER_TYPES,
    KEYWORD_SLOTS,
    KEYWORDS,
    App,
    CPair,
    EApp,
    EAppClause,
    ExtClause,
    HomApp,
    HomLam,
    I0,
    I1,
    Lam,
    One,
    TConst,
    TDepHom,
    TExt,
    THom,
    TInterval,
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
    """One parsed declaration; the checker keeps it as it checks it."""

    keyword: str  # "def" | "postulate"
    name: str
    btele: tuple  # of (name, Type)
    itele: Optional[tuple]  # None when the declaration has no indexed zone
    rhs: object  # "Type" | "Base" | a Type node
    body: Optional[Term]
    line: int = field(default=0, compare=False)

    @property
    def kind(self) -> str:
        """The declaration's kind: "ind-type" or "base-type" for a type
        constant (rhs ``Type`` or ``Base``), else "term"."""
        if self.rhs == "Type":
            return "ind-type"
        return "base-type" if self.rhs == "Base" else "term"


_SYMBOLS = frozenset({":=", "()", "(", ")", "<", ">", "{", "}", "|", ",", ".", ":", "\\", "#"})

# A token, after the whitespace and comments before it on its line.  ``.``
# catches a character that starts no token, and ``\Z`` ends the line with one
# or two empty tokens.
_TOKEN = re.compile(r"(?:\s+|--[^\n]*)*(:=|\(\)|[()<>{}|,.:\\#]|[A-Za-z_][A-Za-z0-9_'-]*|.|\Z)")

# The one-character tokens that ``.`` does not catch.
_ONE_CHAR = frozenset(s for s in _SYMBOLS if len(s) == 1).union(string.ascii_letters + "_")

# Deepest nesting of terms and types the parser accepts.  Each level costs at
# most three Python frames here (which is why the type rules that read an
# atom call ``_atom_rule(ts)(ts)`` rather than ``_parse_atom``), so a program
# at the bound parses (and checks) well inside the default recursion limit;
# deeper input is a ParseError rather than a RecursionError.
_MAX_NESTING = 256

# What is not a name: the symbols and the end of input (None).
_NOT_NAME = _SYMBOLS | {None}


class _Tokens:
    """The token texts of a source, then None, and a cursor over them."""

    def __init__(self, src: str):
        self.lines = src.split("\n")
        # the token texts of each line, without the empty ones at its end
        self.per_line = [list(filter(None, found)) for found in map(_TOKEN.findall, self.lines)]
        self.toks: list[Optional[str]] = list(chain.from_iterable(self.per_line))
        self.firsts: Optional[list] = None  # the index of each line's first token
        stray = [t for t in set(self.toks) if len(t) == 1 and t not in _ONE_CHAR]
        self.toks.append(None)
        if stray:
            i = min(self.toks.index(t) for t in stray)
            raise ParseError(f"unexpected character {self.toks[i]!r}", *self.position(i))
        self.idx = 0
        self.depth = 0

    def line(self, i: int) -> int:
        """The line of token i."""
        if self.firsts is None:
            self.firsts = [0, *accumulate(map(len, self.per_line))]
        return bisect_right(self.firsts, i)

    def position(self, i: int) -> tuple:
        """Line and column of token i, or 1:1 for the end of input."""
        if self.toks[i] is None:
            return 1, 1
        line = self.line(i)
        matches = _TOKEN.finditer(self.lines[line - 1])
        match = next(islice(matches, i - self.firsts[line - 1], None))
        return line, match.start(1) + 1

    def peek(self, k: int = 0) -> Optional[str]:
        """The token k ahead; k = 1 only when the next token is not None."""
        return self.toks[self.idx + k]

    def next(self) -> str:
        t = self.toks[self.idx]
        if t is None:
            raise ParseError("unexpected end of input", *self.position(self.idx - 1))
        self.idx += 1
        return t

    def expect(self, text: str) -> None:
        if self.toks[self.idx] == text:
            self.idx += 1
            return
        t = self.next()
        raise self.err(f"expected {text!r}, found {t!r}", self.idx - 1)

    def at(self, text: str) -> bool:
        return self.toks[self.idx] == text

    def err(self, message: str, i: Optional[int] = None) -> ParseError:
        """A ParseError at token i, by default the next one."""
        return ParseError(message, *self.position(self.idx if i is None else i))

    def deeper(self) -> None:
        """Go one level deeper in the syntax tree, refusing to pass _MAX_NESTING."""
        if self.depth >= _MAX_NESTING:
            raise self.err(f"nesting deeper than {_MAX_NESTING} levels")
        self.depth += 1


def _parse_name(ts: _Tokens) -> str:
    t = ts.next()
    if t in _SYMBOLS:
        raise ts.err(f"expected a name, found {t!r}", ts.idx - 1)
    return t


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
        ts.idx += 1
        return ()
    out: list = []
    while ts.at("(") and ts.peek(1) not in _NOT_NAME:
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


def _parse_type(ts: _Tokens) -> Type:
    depth = ts.depth
    ts.deeper()
    try:
        t = ts.peek()
        rule = _TYPE_RULES.get(t)
        if rule is not None:
            ts.idx += 1
            return rule(ts)
        if t in _NOT_NAME:
            raise ts.err("expected a type" if t is None else f"expected a type, found {t!r}")
        ts.idx += 1
        return TConst(t)
    finally:
        ts.depth = depth


def _type_hom(ts: _Tokens) -> Type:
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


def _type_binder(node) -> Callable:
    """The rule of a type of ``BINDER_TYPES``: a binder head, then the body type."""

    def rule(ts: _Tokens) -> Type:
        n, ty = _parse_binder_head(ts)
        return node(n, ty, _parse_type(ts))

    return rule


def _type_ext(ts: _Tokens) -> Type:
    ts.expect("Pi")
    y, v = _parse_binder_head(ts)
    a = _parse_type(ts)
    ts.expect("|")
    clauses = []
    while True:
        x, u = _parse_binder_head(ts)
        j = _atom_rule(ts)(ts)
        ts.expect(".")
        body = _parse_term(ts)
        clauses.append(ExtClause(x, u, j, body))
        if ts.at(","):
            ts.idx += 1
            continue
        break
    ts.expect(">")
    return TExt(y, v, a, tuple(clauses))


def _type_applied(ts: _Tokens) -> Type:
    name = _parse_name(ts)
    args = []
    while not ts.at(")"):
        args.append(_atom_rule(ts)(ts))
    ts.expect(")")
    return TConst(name, tuple(args))


# ---------------------------------------------------------------- terms


def _parse_term(ts: _Tokens) -> Term:
    depth = ts.depth
    ts.deeper()
    try:
        t = _parse_atom(ts)
        toks = ts.toks
        while True:
            # each application wraps the spine built so far one level deeper
            nxt = toks[ts.idx]
            if nxt == "()":
                ts.deeper()
                ts.idx += 1
                t = HomApp(t)
                continue
            if nxt in _NOT_ARGUMENT:
                return t
            ts.deeper()
            if nxt == "\\":
                ts.idx += 1
                return App(t, _term_lam(ts))
            t = App(t, _parse_atom(ts))
    finally:
        ts.depth = depth


def _parse_atom(ts: _Tokens) -> Term:
    t = ts.peek()
    rule = _ATOM_RULES.get(t)
    if rule is not None:
        ts.idx += 1
        return rule(ts)
    if t in _NOT_VARIABLE:
        raise ts.err("expected a term" if t is None else f"expected a term, found {t!r}")
    ts.idx += 1
    return Var(t)


def _atom_rule(ts: _Tokens) -> Callable:
    """The rule that parses the next atom, its keyword consumed: ``_parse_atom``
    for a variable or an error.  Calling the rule from the caller's frame
    saves the frame ``_parse_atom`` would cost."""
    rule = _ATOM_RULES.get(ts.peek())
    if rule is None:
        return _parse_atom
    ts.idx += 1
    return rule


def _term_lam(ts: _Tokens) -> Term:
    x = _parse_name(ts)
    ts.expect(".")
    return Lam(x, _parse_term(ts))


def _term_hom_lam(ts: _Tokens) -> Term:
    ts.expect("(")
    body = _parse_term(ts)
    ts.expect(")")
    return HomLam(body)


def _term_ext_app(ts: _Tokens) -> Term:
    ts.expect("{")
    clauses = []
    while True:
        x = _parse_name(ts)
        ts.expect(".")
        body = _parse_term(ts)
        clauses.append(EAppClause(x, body))
        if ts.at(","):
            ts.idx += 1
            continue
        break
    ts.expect("}")
    ts.expect("(")
    f = _parse_term(ts)
    ts.expect(",")
    v = _parse_term(ts)
    ts.expect(")")
    return EApp(tuple(clauses), f, v)


def _keyword_rule(node) -> Callable:
    """The rule of a form of ``KEYWORDS``: its slots in parentheses, split by
    commas, each its binder names and a '.' when it has binders, then its
    child, a type or a term."""
    slots = tuple(
        ("," if k else "(", len(binders), _parse_type if is_type else _parse_term)
        for k, (binders, _, is_type) in enumerate(KEYWORD_SLOTS[node])
    )

    def rule(ts: _Tokens):
        args = []
        for opener, binders, parse in slots:
            ts.expect(opener)
            if binders:
                for _ in range(binders):
                    args.append(_parse_name(ts))
                ts.expect(".")
            args.append(parse(ts))
        ts.expect(")")
        return node(*args)

    return rule


def _term_paren(ts: _Tokens) -> Term:
    a = _parse_term(ts)
    if ts.at(","):
        ts.idx += 1
        b = _parse_term(ts)
        ts.expect(")")
        return CPair(a, b)
    ts.expect(")")
    return a


_TYPE_RULES = {
    "One": lambda ts: TUnit(),
    "I1": lambda ts: TInterval(),
    "Hom": _type_hom,
    "<": _type_ext,
    "(": _type_applied,
    **{keyword: _type_binder(node) for node, keyword in BINDER_TYPES.items()},
    **{kw: _keyword_rule(node) for node, kw in KEYWORDS.items() if node in get_args(Type)},
}

_ATOM_RULES = {
    "one": lambda ts: One(),
    "i0": lambda ts: I0(),
    "i1": lambda ts: I1(),
    "\\": _term_lam,
    "lam": _term_hom_lam,
    "app": _term_ext_app,
    "(": _term_paren,
    **{kw: _keyword_rule(node) for node, kw in KEYWORDS.items() if node not in get_args(Type)},
}

_TYPE_KEYWORDS = _TYPE_RULES.keys() - _SYMBOLS
_RESERVED = _TYPE_KEYWORDS | {"def", "postulate", "Type", "Base"}

# What is no variable, and what ends an application spine: anything but '(',
# '\' and a variable.
_NOT_VARIABLE = _NOT_NAME | _RESERVED
_NOT_ARGUMENT = _NOT_VARIABLE - {"(", "\\"}


# ---------------------------------------------------------------- files


def parse_file(src: str) -> tuple[tuple, tuple]:
    """Parse a ``.itt`` source: returns (pragmas, declarations)."""
    ts = _Tokens(src)
    pragmas = []
    while ts.at("#"):
        ts.idx += 1
        pragmas.append(_parse_name(ts))
    decls = []
    while ts.peek() is not None:
        start = ts.idx
        keyword = ts.next()
        if keyword != "def" and keyword != "postulate":
            raise ts.err(f"expected a declaration, found {keyword!r}", start)
        name = _parse_name(ts)
        btele = _parse_tele(ts)
        itele = None
        if ts.at("|"):
            ts.idx += 1
            itele = _parse_tele(ts)
        ts.expect(":")
        if ts.at("Type"):
            ts.idx += 1
            rhs: object = "Type"
        elif ts.at("Base"):
            ts.idx += 1
            rhs = "Base"
        else:
            rhs = _parse_type(ts)
        body = None
        if ts.at(":="):
            ts.idx += 1
            body = _parse_term(ts)
        decls.append(RawDecl(keyword, name, btele, itele, rhs, body, line=ts.line(start)))
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
