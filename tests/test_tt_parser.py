"""The tokenizer and parser of ``.itt`` against the ones they replaced.

``reference.tokens`` and ``reference.parse_file``/``parse_term``/``parse_type``
keep a position for every token.  ``ssetkit.tt.parser`` keeps only the token
texts and computes a line and column on demand.  On every corpus program, and
on programs mutated by insertions, deletions and truncations over the
characters and tokens where the two could part (``$``, ``λ``, tabs, carriage
returns, a lone ``-``, comments, ``:=``, ``()``), both give the same tokens
at the same positions, or the same error, and the same parse results.
``RawDecl.line`` is compared on its own, because declarations compare equal
without it.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ssetkit.tt import parser
from ssetkit.tt.parser import ParseError, parse_file, parse_term, parse_type

PROGRAMS = sorted((Path(__file__).resolve().parents[1] / "corpus" / "itt").glob("*.itt"))
PIECES = ("$", "λ", "\t", "\r", "\n", " ", "-", "--", ":=", "()", "(", ")", ":", ",", ".",
          "\\", "#", "<", "|", "x", "0", "'", "def ", "lam")


def tokens(src: str) -> list:
    """``reference.tokens``'s tuples, from the package's tokenizer."""
    ts = parser._Tokens(src)
    texts = ts.toks[:-1]
    return [("sym" if t in parser._SYMBOLS else "name", t, *ts.position(i)) for i, t in enumerate(texts)]


def outcome(parse, src: str):
    """What ``parse`` makes of ``src``: its result, or its error and position."""
    try:
        return "ok", parse(src)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col


def fragments(src: str):
    """The type and the term of each declaration line, roughly cut."""
    for line in src.splitlines():
        head, _, body = line.partition(":=")
        yield parse_type, reference.parse_type, head.partition(":")[2]
        yield parse_term, reference.parse_term, body


def assert_parses_as_before(src: str) -> None:
    assert outcome(tokens, src) == outcome(reference.tokens, src)
    new, old = outcome(parse_file, src), outcome(reference.parse_file, src)
    assert new == old
    if new[0] == "ok":
        assert [d.line for d in new[1][1]] == [d.line for d in old[1][1]]
    for parse, parse_before, fragment in fragments(src):
        assert outcome(parse, fragment) == outcome(parse_before, fragment), fragment


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_corpus_parses_as_before(path):
    assert_parses_as_before(path.read_text())


@pytest.mark.parametrize("src", ["", " \n\t", "-- only a comment", "-", "$", "a\n  $", "def", "x y", "(", "a\r\nb $"])
def test_edges_parse_as_before(src):
    assert_parses_as_before(src)


EDITS = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "truncate")), st.integers(0, 4096),
              st.sampled_from(PIECES), st.integers(1, 6)),
    max_size=4,
)


def mutate(src: str, edits) -> str:
    for kind, at, piece, width in edits:
        at %= len(src) + 1
        if kind == "insert":
            src = src[:at] + piece + src[at:]
        elif kind == "delete":
            src = src[:at] + src[at + width:]
        else:
            src = src[:at]
    return src


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PROGRAMS), EDITS)
def test_mutants_parse_as_before(path, edits):
    assert_parses_as_before(mutate(path.read_text(), edits))
