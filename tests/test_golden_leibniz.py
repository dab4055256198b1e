"""``ssetkit leibniz --i I --j J --json`` prints exactly the goldens in
``golden/leibniz/``.

The goldens hold the stdout of that command for each ordered pair of maps
in ``corpus/maps``, as ``I--J.json``, recorded while ``limits.pushout``
still realized every span that is not a monomorphism through the
generic realizer, kept as ``reference.Built``.  Every pair exits 0.  The verb runs in-process,
from the repository root.
"""

from pathlib import Path

import pytest

from ssetkit import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "leibniz"
MAPS = sorted((ROOT / "corpus" / "maps").glob("*.smap"))
PAIRS = [(i, j) for i in MAPS for j in MAPS]


def test_every_corpus_pair_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(f"{i.stem}--{j.stem}" for i, j in PAIRS)


@pytest.mark.parametrize("i, j", PAIRS, ids=[f"{i.stem}--{j.stem}" for i, j in PAIRS])
def test_leibniz_json_matches_golden(i, j, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(["leibniz", "--i", f"corpus/maps/{i.name}", "--j", f"corpus/maps/{j.name}", "--json"])
    assert capsys.readouterr().out == (GOLDEN / f"{i.stem}--{j.stem}.json").read_text()
    assert code == 0
