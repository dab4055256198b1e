"""``ssetkit classify <map> --depth 3 --json`` is byte-identical to its golden.

The goldens in ``golden/classify/`` are the stdout of that command for each
map in ``corpus/maps``, recorded with the naive map search of
``reference.py``.  ``groupoid_collapse`` has a target truncated at 2, so at
depth 3 the CLI refuses it: its golden is empty and the exit code is 2.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "classify"
MAPS = sorted((ROOT / "corpus" / "maps").glob("*.smap"))


def test_every_corpus_map_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [p.stem for p in MAPS]


@pytest.mark.parametrize("path", MAPS, ids=lambda p: p.stem)
def test_classify_json_matches_golden(path):
    r = subprocess.run(
        [sys.executable, "-m", "ssetkit.cli", "classify", str(path), "--depth", "3", "--json"],
        capture_output=True,
        cwd=ROOT,
    )
    golden = (GOLDEN / f"{path.stem}.json").read_bytes()
    assert r.stdout == golden
    assert r.returncode == (0 if golden else 2)
