"""``ssetkit suite --json`` prints exactly the golden in ``golden/suite/``.

The golden holds the stdout and the exit code of ``ssetkit suite --json``,
recorded while the criteria still took ``depth`` and ``budget`` parameters
and the verb still registered ``--depth`` and ``--budget``.  The document
records the fixed depth 3 and budget 500.
"""

import json
from pathlib import Path

import pytest

from ssetkit import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "suite" / "suite.json"


def test_suite_json_matches_golden(capsys):
    golden = json.loads(GOLDEN.read_text())
    code = cli.main(["suite", "--json"])
    assert capsys.readouterr().out == golden["stdout"]
    assert code == golden["exit"]


@pytest.mark.parametrize("option", [["--depth", "2"], ["--budget", "10"]], ids=lambda o: o[0])
def test_suite_takes_no_depth_or_budget(option, capsys):
    assert cli.main(["suite", *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err
