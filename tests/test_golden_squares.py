"""The first counterexample square per family is byte-identical to its golden.

``ssetkit classify`` prints only which families have a counterexample, so
``golden/classify/`` does not show which square is reported.  The goldens in
``golden/classify_squares/`` pin it: for each map in ``corpus/maps`` and each
of the four families at depth 3, the generator's index in its family and the
top and bottom maps of the first unfilled square, ``null`` when every square
fills, or the message of the ``SSetError`` the check raises.  They were
recorded with the general lifting path, which searches maps for every square.
``classify(f, 3)`` must report the same squares as its ``counterexamples``,
or, where a family's check raises, the first such family's message.

Regenerate with ``PYTHONPATH=src python tests/test_golden_squares.py``.
"""

import json
from pathlib import Path

import pytest

from ssetkit.kernel import SSetError, load_smap
from ssetkit.lifting import classify, family_by_name, has_rlp

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "classify_squares"
MAPS = sorted((ROOT / "corpus" / "maps").glob("*.smap"))
FAMILIES = ("kan", "inner", "trivial", "cat")


def _show(m):
    return {c: repr(s) for c, s in m.assignment.items()}


def squares(f, depth=3):
    out = {}
    for name in FAMILIES:
        family = family_by_name(name, depth)
        try:
            _, ce = has_rlp(f, family)
        except SSetError as e:
            out[name] = {"error": str(e)}
            continue
        out[name] = ce and {
            "generator": family.generators.index(ce.left),
            "top": _show(ce.top),
            "bottom": _show(ce.bottom),
        }
    return json.dumps(out, indent=1) + "\n"


def classified(f, depth=3):
    """``classify``'s squares in the goldens' form, or ``{"error": ...}``."""
    try:
        c = classify(f, depth)
    except SSetError as e:
        return {"error": str(e)}
    out = {}
    for name in FAMILIES:
        ce = c.counterexamples.get(name)
        assert getattr(c, f"{name}_fib") == (ce is None)
        out[name] = ce and {
            "generator": family_by_name(name, depth).generators.index(ce.left),
            "top": _show(ce.top),
            "bottom": _show(ce.bottom),
        }
    return out


def first_error(golden):
    """The golden with its first family's error in place of the whole."""
    errors = [v for v in golden.values() if v and "error" in v]
    return errors[0] if errors else golden


def test_every_corpus_map_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [p.stem for p in MAPS]


@pytest.mark.parametrize("path", MAPS, ids=lambda p: p.stem)
def test_first_squares_match_golden(path):
    assert squares(load_smap(path)) == (GOLDEN / f"{path.stem}.json").read_text()


@pytest.mark.parametrize("path", MAPS, ids=lambda p: p.stem)
def test_classify_squares_match_golden(path):
    golden = json.loads((GOLDEN / f"{path.stem}.json").read_text())
    assert classified(load_smap(path)) == first_error(golden)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path in MAPS:
        (GOLDEN / f"{path.stem}.json").write_text(squares(load_smap(path)))
