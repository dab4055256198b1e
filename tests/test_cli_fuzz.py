"""Malformed input files exit 2 with one ``ssetkit:`` line, never a traceback.

Truncated and byte-flipped copies of every file in ``corpus/ssets``,
``corpus/maps`` and ``corpus/itt`` go through ``ssetkit sset``, ``ssetkit
classify --depth 1``, ``ssetkit check`` and ``ssetkit interp`` in-process, so
an exception that escapes ``cli.main`` fails the test.  A copy that the
loader refuses must exit 2; a copy that still loads may pass or fail (0 or
1), and a ``.itt`` copy that no longer parses keeps exit 1 with
``{"rule": "parse"}``.  Every other verb but ``suite`` runs once on each
unmangled corpus file it takes, at ``--depth 1 --budget 10``, and must exit
0, 1, 2 or 3.  The reproductions of the crashes this guards against also run
as subprocesses, to check stderr for a traceback.
"""

import json
import random
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from ssetkit import cli
from ssetkit.kernel import SSetError, load_smap, load_sset
from ssetkit.tt.parser import ParseError, parse_file

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
SSETS = sorted((CORPUS / "ssets").glob("*.sset"))
MAPS = sorted((CORPUS / "maps").glob("*.smap"))
PROGRAMS = sorted((CORPUS / "itt").glob("*.itt"))


def mutants(data: bytes, seed: int, count: int = 8):
    """``count`` truncations and ``count`` single-byte flips of ``data``."""
    rng = random.Random(seed)
    for _ in range(count):
        yield data[: rng.randrange(len(data))]
    for _ in range(count):
        k = rng.randrange(len(data))
        yield data[:k] + bytes([data[k] ^ rng.randrange(1, 256)]) + data[k + 1:]


def loads(loader, path) -> bool:
    try:
        loader(path)
    except (SSetError, ValueError, KeyError, OSError):
        return False
    return True


def run(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    err = capsys.readouterr().err
    return code, err


@pytest.mark.parametrize("path", SSETS, ids=lambda p: p.stem)
def test_mangled_ssets_exit_2_when_refused(path, tmp_path, capsys):
    for n, data in enumerate(mutants(path.read_bytes(), seed=zlib.crc32(path.name.encode()))):
        copy = tmp_path / f"{n}.sset"
        copy.write_bytes(data)
        code, err = run(["sset", str(copy), "--json"], capsys)
        if loads(load_sset, copy):
            assert code in (0, 1), data
        else:
            assert code == 2, data
            assert err.startswith("ssetkit: cannot load simplicial set"), err


@pytest.mark.parametrize("path", MAPS, ids=lambda p: p.stem)
def test_mangled_maps_exit_2_when_refused(path, tmp_path, capsys):
    shutil.copytree(CORPUS / "ssets", tmp_path / "ssets")
    (tmp_path / "maps").mkdir()
    for n, data in enumerate(mutants(path.read_bytes(), seed=zlib.crc32(path.name.encode()))):
        copy = tmp_path / "maps" / f"{n}.smap"
        copy.write_bytes(data)
        code, err = run(["classify", str(copy), "--depth", "1", "--json"], capsys)
        if loads(load_smap, copy):
            assert code in (0, 1), data
        else:
            assert code == 2, data
            assert err.startswith("ssetkit: cannot load map"), err


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_mangled_programs_never_crash(path, tmp_path, capsys):
    for n, data in enumerate(mutants(path.read_bytes(), seed=zlib.crc32(path.name.encode()), count=2)):
        copy = tmp_path / f"{n}.itt"
        copy.write_bytes(data)
        for verb in ("check", "interp"):
            code = cli.main([verb, str(copy), "--json"])
            out, err = capsys.readouterr()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                assert code == 2 and out == "", data
                assert err.startswith("ssetkit: cannot read"), err
                continue
            doc = json.loads(out)
            assert code in (0, 1) and doc["ok"] is (code == 0), (verb, data)
            try:
                parse_file(data.decode("utf-8"))
            except ParseError:
                assert code == 1 and doc["error"]["rule"] == "parse", (verb, data)


def _first_edge(path: Path) -> str:
    """A nondegenerate edge of the object in ``path``, or a name that is none."""
    x = load_sset(path)
    return next((c for c in sorted(x.nondegenerate()) if x.cell_dim(c) == 1), "e")


def _other_verbs():
    """Each verb that the mangled-file tests do not drive, on each corpus file it takes."""
    for f in map(str, MAPS):
        yield ["factor", f]
        yield ["quasifib", f]
        yield ["gkan", f]
        yield ["leibniz", "--i", f, "--j", f]
        yield ["lift", "--left", f, "--right", f, "--top", f, "--bottom", f]
    for path in SSETS:
        x = str(path)
        yield ["core", x, "--mode", "skeletal"]
        yield ["core", x, "--mode", "qcat"]
        yield ["bfun", x]
        yield ["lemma6", x]
        yield ["invert", x, "--edge", _first_edge(path)]
    for path in PROGRAMS:
        yield ["interp", str(path)]
    yield ["audit"]


@pytest.mark.parametrize(
    "argv", _other_verbs(), ids=lambda argv: "-".join(Path(a).stem for a in argv if not a.startswith("--"))
)
def test_other_verbs_exit_cleanly_on_the_corpus(argv, capsys):
    code = cli.main(argv + ["--depth", "1", "--budget", "10", "--json"])
    capsys.readouterr()
    assert code in (0, 1, 2, 3), argv


@pytest.mark.parametrize(
    "verb, name, content",
    [
        ("sset", "list.sset", b"[]"),
        ("sset", "cells.sset", b'{"cells": 5}'),
        ("sset", "level.sset", b'{"cells": {"0": 5}}'),
        ("sset", "face.sset", b'{"cells": {"0": ["a"], "1": ["e"]}, "faces": {"e": [3, 4]}}'),
        ("classify", "source.smap", b'{"source": 3}'),
        ("classify", "image.smap", b'{"source": "p.sset", "target": "p.sset", "assignment": {"a": 1}}'),
        ("check", "latin1.itt", b"postulate A () | () : Type -- \xe9\n"),
    ],
)
def test_malformed_files_exit_2_without_a_traceback(verb, name, content, tmp_path):
    (tmp_path / "p.sset").write_text('{"cells": {"0": ["a"]}}')
    (tmp_path / name).write_bytes(content)
    r = subprocess.run(
        [sys.executable, "-m", "ssetkit.cli", verb, str(tmp_path / name)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert r.returncode == 2
    assert r.stderr.startswith("ssetkit: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "content, problem",
    [
        ('{"cells": {"-1": ["a"], "0": ["v"]}, "faces": {}}', "malformed file: expected cell levels >= 0"),
        (
            '{"cells": {"0": ["v"], "1": ["e"]}, "faces": {"e": [{"degen": [], "base": "v"},'
            ' {"degen": [], "base": "v"}], "ghost": [{"degen": [], "base": "v"}]}}',
            "faces listed for 'ghost', a cell in no level",
        ),
    ],
    ids=["negative-level", "ghost-face"],
)
def test_cells_outside_every_level_are_refused(content, problem, tmp_path, capsys):
    """A cell at a negative level, or a face entry for a cell in no level,
    is refused: the loader used to drop the first and keep the second, in
    the object's key and in what ``save_sset`` writes."""
    path = tmp_path / "bad.sset"
    path.write_text(content)
    code, err = run(["sset", str(path), "--json"], capsys)
    assert code == 2
    assert err == f"ssetkit: cannot load simplicial set {path}: {problem}\n"
