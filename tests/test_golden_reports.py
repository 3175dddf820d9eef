"""Byte-for-byte comparison of CLI JSON reports against recorded payloads.

The files under ``tests/golden/`` are the JSON stdout of ``finmot`` for every
verify suite at its default grid (seeds 0 and 7), the surface suite at
k = 6, the sample surface model and one Schur query.  Any change to the
arithmetic core must reproduce them exactly.  To regenerate a payload, run
the argv listed below through the ``finmot`` console script from the
repository root.
"""

import os

import pytest

from finmot.cli import SUITES, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

CASES = {
    f"verify-{suite}-seed{seed}.json":
        ["--out", "json", "--seed", str(seed), "verify", suite]
    for suite in sorted(SUITES) for seed in (0, 7)
}
CASES["surface-sample.json"] = ["--out", "json", "surface",
                                "scripts/sample_surface.spec"]
CASES["schur-2.1-p2q1.json"] = ["--out", "json", "schur", "--lam", "2,1",
                                "--p", "2", "--q", "1"]
# at k = 6 the seeded family unit exp(eps S) has every eps order
CASES["verify-surface-seed7-k6.json"] = ["--out", "json", "--seed", "7", "--k", "6",
                                         "verify", "surface"]


def test_every_golden_file_has_a_case():
    assert sorted(os.listdir(GOLDEN)) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        want = fh.read()
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == want
