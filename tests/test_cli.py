"""Command-line interface: exit codes and stable JSON output."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SSETS = ROOT / "corpus" / "ssets"
MAPS = ROOT / "corpus" / "maps"
ITT = ROOT / "corpus" / "itt"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ssetkit.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


# -- exit codes -----------------------------------------------------------------


def test_sset_validates():
    r = run_cli("sset", str(SSETS / "triangle.sset"))
    assert r.returncode == 0
    assert "PASS" in r.stdout


def test_missing_file_is_usage_error():
    r = run_cli("sset", str(SSETS / "no_such_object.sset"))
    assert r.returncode == 2


def test_unknown_verb_is_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_bad_depth_is_usage_error():
    r = run_cli("sset", str(SSETS / "point.sset"), "--depth", "0")
    assert r.returncode == 2


def test_classify_collapse():
    r = run_cli("classify", str(MAPS / "interval_collapse.smap"))
    assert r.returncode == 0


def test_invert_non_invertible_edge_fails():
    r = run_cli("invert", str(SSETS / "interval.sset"), "--edge", "0_1")
    assert r.returncode == 1


def test_invert_unknown_edge_is_usage_error():
    r = run_cli("invert", str(SSETS / "interval.sset"), "--edge", "01")
    assert r.returncode == 2


def test_invert_groupoid_edge_passes():
    r = run_cli("invert", str(SSETS / "interval_groupoid_2.sset"), "--edge", "n_a__f")
    assert r.returncode == 0


def test_check_well_typed_program():
    r = run_cli("check", str(ITT / "good_unit_intro.itt"))
    assert r.returncode == 0


def test_check_ill_typed_program():
    r = run_cli("check", str(sorted(ITT.glob("bad_*.itt"))[0]))
    assert r.returncode == 1


def test_factor_completes():
    r = run_cli("factor", str(MAPS / "vertex_include.smap"), "--family", "inner")
    assert r.returncode == 0


def test_factor_budget_exhaustion_exit_code():
    r = run_cli("factor", str(MAPS / "vertex_include.smap"), "--family", "kan", "--budget", "0")
    assert r.returncode == 3


def test_core_and_lemma_verbs():
    assert run_cli("core", str(SSETS / "interval.sset")).returncode == 0
    assert run_cli("lemma6", str(SSETS / "point.sset")).returncode == 0


def test_leibniz_verb():
    r = run_cli(
        "leibniz",
        "--i", str(MAPS / "endpoints_include.smap"),
        "--j", str(MAPS / "endpoints_include.smap"),
    )
    assert r.returncode == 0


def test_quasifib_verb():
    r = run_cli("quasifib", str(MAPS / "interval_collapse.smap"), "--family", "inner")
    assert r.returncode == 0


def test_audit_verb():
    r = run_cli("audit", "--family", "kan", "--depth", "2")
    assert r.returncode == 0


# -- json output ------------------------------------------------------------------


def test_json_is_byte_identical_and_schema_tagged():
    a = run_cli("classify", str(MAPS / "interval_collapse.smap"), "--json")
    b = run_cli("classify", str(MAPS / "interval_collapse.smap"), "--json")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["schema"] == "ssetkit.cli/1"
    assert doc["verb"] == "classify"
    assert "depth" in doc and "budget" in doc


def test_check_json_reports_rule():
    path = str(ITT / "bad_conv_mismatch.itt")
    r = run_cli("check", path, "--json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["ok"] is False


def test_deep_nesting_is_a_parse_error_not_a_crash(tmp_path):
    path = tmp_path / "deep.itt"
    path.write_text(
        "postulate A () | () : Type\npostulate a0 () | () : A\n"
        "def x () | () : A := " + "fst(spair(" * 300 + "a0" + ", a0))" * 300 + "\n"
    )
    r = run_cli("check", str(path), "--json")
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["rule"] == "parse"
    assert "Traceback" not in r.stderr


TRUNCATED = "def p () | () : Pi (i : I1) Pi (k : I1) One := \\i. \\k. one\n"


def test_truncated_interp_is_unknown_not_an_input_error(tmp_path):
    # p's section is a search from a 3-dimensional source into a target
    # truncated at --depth 2: unknown at that depth, and the report goes on
    path = tmp_path / "truncated.itt"
    path.write_text(TRUNCATED)
    r = run_cli("interp", str(path), "--json")
    assert r.returncode == 3
    doc = json.loads(r.stdout)
    assert doc["declarations"] == 1 and doc["ok"] is True
    assert doc["interpretation"] == {
        "interpreted": [],
        "skipped": [],
        "failed": [],
        "unknown": [["p", "target truncated at 2, below source dimension 3"]],
    }
    path.write_text(TRUNCATED + "def q () | () : One := one\n")
    r = run_cli("check", "--interp", str(path), "--json")
    assert r.returncode == 3
    report = json.loads(r.stdout)["interpretation"]
    assert report["interpreted"] == ["q"]
    assert [name for name, _ in report["unknown"]] == ["p"]


def test_interp_depth_reaches_the_unit_type(tmp_path):
    # the unit type is built at --depth, so the search truncates there, not at 2
    path = tmp_path / "truncated.itt"
    path.write_text(TRUNCATED)
    r = run_cli("interp", str(path), "--json", "--depth", "3")
    assert r.returncode == 3
    assert json.loads(r.stdout)["interpretation"]["unknown"] == [
        ["p", "target truncated at 3, below source dimension 4"]
    ]


def test_exhausted_budget_is_reported_per_declaration(tmp_path, capsys, monkeypatch):
    from ssetkit import cli
    from ssetkit.lifting import BudgetExhausted
    from ssetkit.tt import Elaborator

    elab_decl = Elaborator.elab_decl

    def exhausted_on_q(self, decl):
        if decl.name == "q":
            raise BudgetExhausted("factorization used 300 cells", None)
        return elab_decl(self, decl)

    monkeypatch.setattr(Elaborator, "elab_decl", exhausted_on_q)
    path = tmp_path / "three.itt"
    path.write_text("".join(f"def {n} () | () : One := one\n" for n in "pqr"))
    assert cli.main(["interp", str(path), "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["interpretation"] == {
        "interpreted": ["p", "r"],
        "skipped": [],
        "failed": [],
        "unknown": [["q", "budget exhausted: factorization used 300 cells"]],
    }


# -- every depth on every committed object ----------------------------------------


SSET_VERBS = (["core"], ["core", "--mode", "qcat"], ["bfun"], ["lemma6"])


@pytest.mark.parametrize("path", sorted(SSETS.glob("*.sset")), ids=lambda p: p.stem)
def test_sset_verbs_exit_cleanly_at_every_depth(path, capsys):
    """core, core --mode qcat, bfun and lemma6 at --depth 1 to 4 exit 0 to 3;
    an object truncated below what a verb needs is a usage error with one
    ``ssetkit:`` line, not a traceback."""
    from ssetkit import cli

    for depth in range(1, 5):
        for verb, *opts in SSET_VERBS:
            code = cli.main([verb, str(path), *opts, "--depth", str(depth), "--json"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (verb, opts, depth)
            if code == 2:
                assert err.startswith("ssetkit: ") and err.count("\n") == 1, err


def test_bfun_above_a_truncation_is_a_usage_error():
    r = run_cli("bfun", str(SSETS / "interval_groupoid_2.sset"), "--depth", "3")
    assert r.returncode == 2
    assert r.stderr == "ssetkit: pushout truncated at 2, below leg dimension 3\n"
