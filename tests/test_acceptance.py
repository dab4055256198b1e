"""Acceptance gate: one pass/fail line per top-level criterion."""

import pytest

from ssetkit.acceptance import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    res = criterion()
    status = "PASS" if res.ok else "FAIL"
    line = f"[{status}] criterion {res.number} {res.name}: {res.detail}"
    print(line)
    assert res.ok, line


def test_criterion_5_checks_each_map_against_cat_once(monkeypatch):
    from ssetkit import acceptance, joyal, lifting

    families = []

    def recording(p, family):
        families.append(family.name)
        return lifting.has_rlp(p, family)

    monkeypatch.setattr(acceptance, "has_rlp", recording)
    monkeypatch.setattr(joyal, "has_rlp", recording)
    res = acceptance.criterion_5()
    assert res.detail == "50 maps at depth 3, 0 failures"
    assert families.count("cat") == 50
