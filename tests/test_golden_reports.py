"""Byte-for-byte comparison of CLI JSON reports against recorded payloads.

The files under ``tests/golden/`` are the JSON stdout of ``finmot`` for every
verify suite at its default grid (seeds 0 and 7), the surface suite and
the calculus grids of the benchmark at k = 6, the vanishing suite on the
(6|0), (0|6), (6|1) and (7|0) grids, the sample surface model and the
Schur queries that the benchmark and CI run.  Any change to the arithmetic core
must reproduce them exactly.  To regenerate a payload, run the argv listed below through
the ``finmot`` console script from the repository root.
"""

import json
import math
import os

import pytest

from finmot.cli import SUITES, main
from finmot.karoubi import KaroubiObject, schur_super_dimension
from finmot.supercat import SuperSpace
from finmot.symgroup import Partition, hook_dimension, hook_schur

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

CASES = {
    f"verify-{suite}-seed{seed}.json":
        ["--out", "json", "--seed", str(seed), "verify", suite]
    for suite in sorted(SUITES) for seed in (0, 7)
}
CASES["surface-sample.json"] = ["--out", "json", "surface",
                                "scripts/sample_surface.spec"]
# the benchmark's irregular surface shape at k = 5, whose seeded family unit
# has every eps order below 5
CASES["surface-irregular-k5.json"] = ["--out", "json", "surface",
                                      "scripts/irregular_surface.spec"]
CASES["schur-2.1-p2q1.json"] = ["--out", "json", "schur", "--lam", "2,1",
                                "--p", "2", "--q", "1"]
# the benchmark's Schur queries in both orientations (perfbench/workloads.py),
# then Sym^6 of (0|4), Lambda^6 of (2|2) and S_(2,2,1,1) of (2|2) at the cap,
# Lambda^7 of (2|1), Sym^6 of (0|6) and S_(3,2,1) of (3|3), whose tensor
# powers exceed the cap but whose 462 orbits do not, Sym^12 of (2|0) and
# Lambda^7 of (7|0), and S_(3,3) of (4|4) and S_(4,4) of (3|3) at 1,716 and
# 1,287 orbits: every partition reads strip counts, so the degree bound on
# the n!-term group-algebra idempotent meets none of them
SCHUR_CASES = {
    "schur-2.1.1.1-p1q3-k3.json": "--k 3 schur --lam 2,1,1,1 --p 1 --q 3",
    "schur-4.1-p3q1-k3.json": "--k 3 schur --lam 4,1 --p 3 --q 1",
    "schur-3.1-p2q6-k3.json": "--k 3 schur --lam 3,1 --p 2 --q 6",
    "schur-2.1.1-p6q2-k3.json": "--k 3 schur --lam 2,1,1 --p 6 --q 2",
    "schur-1.1.1.1.1-p4q0-k3.json": "--k 3 schur --lam 1,1,1,1,1 --p 4 --q 0",
    "schur-5-p0q4-k3.json": "--k 3 schur --lam 5 --p 0 --q 4",
    "schur-6-p0q4-k3.json": "--k 3 schur --lam 6 --p 0 --q 4",
    "schur-1.1.1.1.1.1-p2q2-k3.json": "--k 3 schur --lam 1,1,1,1,1,1 --p 2 --q 2",
    "schur-1.1.1.1.1.1.1-p2q1.json": "schur --lam 1,1,1,1,1,1,1 --p 2 --q 1",
    "schur-2.2.1.1-p2q2-k3.json": "--k 3 schur --lam 2,2,1,1 --p 2 --q 2",
    "schur-6-p0q6-k3.json": "--k 3 schur --lam 6 --p 0 --q 6",
    "schur-3.2.1-p3q3-k3.json": "--k 3 schur --lam 3,2,1 --p 3 --q 3",
    "schur-12-p2q0.json": "schur --lam 12 --p 2 --q 0",
    "schur-1.1.1.1.1.1.1-p7q0.json": "schur --lam 1,1,1,1,1,1,1 --p 7 --q 0",
    "schur-3.3-p4q4.json": "schur --lam 3,3 --p 4 --q 4",
    "schur-4.4-p3q3.json": "schur --lam 4,4 --p 3 --q 3",
}
CASES.update({name: ["--out", "json", *argv.split()] for name, argv in SCHUR_CASES.items()})
# SLambda^7 of (6|0) and (0|6), read off the survivors of its terms: C(12, 7)
# orbits are within the cap, the 6**6 tensor power is not; SLambda^8 of (6|1)
# asks for Lambda^8 of (6|0), whose group-algebra idempotent has 8! terms, and
# (7|0) for Lambda^7 and Lambda^8 of (7|0)
VANISHING_GRIDS = ((6, 0), (0, 6), (6, 1), (7, 0))
CASES.update({f"verify-vanishing-p{p}q{q}k1.json": ["--out", "json", "verify", "vanishing",
                                                   "--grid", f"p={p},q={q},k=1"]
              for p, q in VANISHING_GRIDS})
# at k = 6 the seeded family unit exp(eps S) has every eps order
CASES["verify-surface-seed7-k6.json"] = ["--out", "json", "--seed", "7", "--k", "6",
                                         "verify", "surface"]
# the calculus grids of the benchmark at k = 6, whose entries are the widest
# packed products of the morphism suites
CASES.update({f"verify-{suite}-seed7-k6.json": ["--out", "json", "--seed", "7", "verify",
                                                suite, "--grid", "k=6"]
              for suite in ("uniqueness", "lifting", "nilpotency")})
CASES["verify-summand-assembly-seed7-k6.json"] = ["--out", "json", "--seed", "7", "--k", "6",
                                                  "verify", "summand-assembly"]


def test_every_golden_file_has_a_case():
    assert sorted(os.listdir(GOLDEN)) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        want = fh.read()
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("schur-")))
def test_schur_golden_matches_hook_schur_and_the_character_sum(name):
    # rank f^lam hs_lam(1^p | 1^q) by the super Jacobi-Trudi determinant, and
    # the super dimension by the character sum, both independent of the
    # strip counts
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    lam, p, q = Partition(results["lam"]), results["p"], results["q"]
    rank = hook_dimension(lam) * hook_schur(lam, p, q)
    assert (results["classical_rank"], results["is_zero"]) == (rank, rank == 0)
    assert results["super_dimension"] == schur_super_dimension(
        lam, KaroubiObject.full(SuperSpace.standard(p, q)))


@pytest.mark.parametrize("pmax, qmax", VANISHING_GRIDS)
def test_vanishing_golden_matches_the_hook_rule_and_binomials(pmax, qmax):
    # one check per (p, q) of the grid, passed exactly when Lambda^(p+1) X+
    # and S^(q+1) X- lie outside the hook (hook_schur = 0), and SLambda^n X,
    # of rank sum_i C(p, i) C(q, n - i) = C(p + q, n), vanishes at
    # n = p + q + 1 but not at n = p + q
    with open(os.path.join(GOLDEN, f"verify-vanishing-p{pmax}q{qmax}k1.json"),
              encoding="utf-8") as fh:
        checks = {c["id"]: c["passed"] for c in json.load(fh)["checks"]}
    want = {}
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            def s_wedge_rank(n):
                return sum(math.comb(p, i) * math.comb(q, n - i) for i in range(n + 1))

            want[f"vanishing/p{p}q{q}k1"] = (
                hook_schur(Partition((1,) * (p + 1)), p, 0) == 0
                and hook_schur(Partition((q + 1,)), 0, q) == 0
                and s_wedge_rank(p + q + 1) == 0 and s_wedge_rank(p + q) == 1)
    assert checks == want and all(want.values())
