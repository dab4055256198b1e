"""``ssetkit check`` and ``ssetkit interp`` with ``--json`` print exactly the
goldens in ``golden/check/`` and exit with their codes.

The goldens hold, for each program in ``corpus/itt``, the stdout and the
exit code of both verbs, recorded with the per-node ``.itt`` walkers that
the binder table of ``ssetkit.tt.syntax`` replaced.  The verbs run
in-process, from the repository root, as ``ssetkit <verb> corpus/itt/<file>
--json``.
"""

import json
from pathlib import Path

import pytest

from ssetkit import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "check"
PROGRAMS = sorted((ROOT / "corpus" / "itt").glob("*.itt"))


def test_every_corpus_program_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [p.stem for p in PROGRAMS]


@pytest.mark.parametrize("verb", ["check", "interp"])
@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_check_json_matches_golden(path, verb, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads((GOLDEN / f"{path.stem}.json").read_text())[verb]
    code = cli.main([verb, f"corpus/itt/{path.name}", "--json"])
    assert capsys.readouterr().out == golden["stdout"]
    assert code == golden["exit"]
