import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmot.cli import (
    _MODEL_KEYS,
    SUITES,
    RunConfig,
    main,
    parse_args,
    parse_model_text,
)
from finmot.errors import ModelFileError
from finmot.lifting import CornerReport
from finmot.motives import KINDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- chars ------------------------------------------------------------------------


def test_chars_n2_table(capsys):
    code, out, _ = run(capsys, "--out", "json", "chars", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "finmot-report/1"
    assert payload["results"]["table"] == [[1, 1], [1, -1]]


def test_chars_n3_row_2_1(capsys):
    code, out, _ = run(capsys, "--out", "json", "chars", "3")
    assert code == 0
    payload = json.loads(out)
    rows = payload["results"]["rows"]
    table = payload["results"]["table"]
    assert rows[1] == [2, 1]
    assert table[1] == [2, 0, -1]
    # identity class first
    assert payload["results"]["columns"][0] == [1, 1, 1]


def test_chars_size_error_exit_code(capsys):
    code, out, err = run(capsys, "chars", "13")
    assert code == 3
    assert "size cap" in err


# --- schur -------------------------------------------------------------------------


def test_schur_wedge_above_dimension_is_zero(capsys):
    code, out, _ = run(capsys, "--out", "json", "schur",
                       "--lam", "1,1,1,1", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["is_zero"] is True
    assert payload["results"]["super_dimension"] == 0


def test_schur_sym_of_odd_line_is_zero(capsys):
    code, out, _ = run(capsys, "--out", "json", "schur", "--lam", "2", "--q", "1")
    assert code == 0
    assert json.loads(out)["results"]["is_zero"] is True


def test_schur_wedge_dimension(capsys):
    code, out, _ = run(capsys, "--out", "json", "schur", "--lam", "1,1", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["super_dimension"] == 3
    assert payload["results"]["is_zero"] is False


def test_schur_seeded_matches_unseeded(capsys):
    _, out1, _ = run(capsys, "--out", "json", "--seed", "5", "schur",
                     "--lam", "2", "--p", "2")
    _, out2, _ = run(capsys, "--out", "json", "schur", "--lam", "2", "--p", "2")
    r1 = json.loads(out1)["results"]
    r2 = json.loads(out2)["results"]
    assert r1["super_dimension"] == r2["super_dimension"] == 3


def test_schur_refuses_an_object_past_the_cap_before_building_it(capsys, monkeypatch):
    # a (1|10**8) object would fill memory; the cap refuses p + q first,
    # also for Lambda^0, whose one orbit the orbit count would admit
    from finmot import cli

    def refused(*args):
        raise AssertionError("SuperSpace.standard called")

    monkeypatch.setattr(cli.SuperSpace, "standard", refused)
    code, out, err = run(capsys, "schur", "--lam", "1", "--p", "1", "--q", str(10**8))
    assert (code, out) == (3, "")
    assert "object dimension 1 + 100000000 exceeds cap 4096" in err
    code, _, err = run(capsys, "--cap", "4999", "schur", "--lam", "0", "--p", "5000")
    assert code == 3 and "object dimension 5000 + 0 exceeds cap 4999" in err


# --- verify ------------------------------------------------------------------------


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in SUITES:
        assert name in err


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, "--out", "json", "verify", "nilpotency",
                       "--grid", "k=3,seeds=5")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_uniqueness_reports_statistics(capsys):
    code, out, _ = run(capsys, "--out", "json", "verify", "uniqueness",
                       "--grid", "k=3,seeds=4")
    assert code == 0
    payload = json.loads(out)
    stats = payload["results"]["exact_equality_by_k"]
    assert stats["2"] == "16/16"  # square-zero ideal: always exact


def test_verify_csv_one_row_per_check(capsys):
    code, out, _ = run(capsys, "--out", "csv", "verify", "abelian", "--grid", "g=2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check_id,passed,detail"
    assert len(lines) == 3  # header + one check per g


def test_reports_are_byte_identical_across_runs(capsys):
    args = ["--out", "json", "--seed", "42", "verify", "uniqueness",
            "--grid", "k=3,seeds=3"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_bad_grid_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nilpotency", "--grid", "k=two"])
    assert exc.value.code == 2


def test_config_invariants_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cap", "0", "chars", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["--seed", str(2**64), "chars", "2"])
    assert exc2.value.code == 2


def _pairing_blind_family(spec):
    """The weight projectors of ``spec`` conjugated by a plain 1 + eps N.

    The unit ignores the weight pairing, so the family is complete and
    orthogonal but generally breaks the surface transpose formula.
    """
    from finmot.lifting import ProjectorFamily, seeded_rng, seeded_unit
    from finmot.motives import build_realization, weight_projector
    from finmot.supercat import invert_unit

    space = build_realization(spec)
    u = seeded_unit(space, seeded_rng(21))
    uinv = invert_unit(u)
    return ProjectorFamily(space, tuple(
        uinv.compose(weight_projector(space, w)).compose(u) for w in range(5)))


def test_defect_rendering_is_deterministic():
    from finmot.cli import _defect_string
    from finmot.motives import MotiveSpec, surface_projector_relations

    spec = MotiveSpec(kind="surface", q=2, pg=1, b2=10, rho=8, k=3, seed=21)
    fam = _pairing_blind_family(spec)  # not pairing-orthogonal: relations fail
    rep = surface_projector_relations(spec, family=fam)
    failed = [c for c in rep.checks if not c.passed]
    assert failed
    rendered = [_defect_string(c.defect) for c in failed]
    assert all(r.startswith("defect (") for r in rendered)
    assert rendered == [_defect_string(c.defect) for c in failed]


# --- surface -------------------------------------------------------------------------


GOOD_SPEC = """\
# all weight-2 classes algebraic
kind = surface
q = 0
pg = 0
b2 = 9
rho = 9
t = 0
k = 2
seed = 11
"""


def test_parse_model_text_round_trip():
    spec = parse_model_text(GOOD_SPEC)
    assert spec.kind == "surface" and spec.b2 == 9 and spec.seed == 11


def test_parse_model_text_errors_carry_line_numbers():
    with pytest.raises(ModelFileError) as exc:
        parse_model_text("kind = surface\nwibble\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ModelFileError) as exc2:
        parse_model_text("kind = surface\nq = yes\n")
    assert "line 2" in str(exc2.value)
    with pytest.raises(ModelFileError) as exc3:
        parse_model_text("kind = surface\nnope = 3\n")
    assert "line 2" in str(exc3.value)


def test_surface_command_consistent_model(tmp_path, capsys):
    path = tmp_path / "model.spec"
    path.write_text(GOOD_SPEC)
    code, out, _ = run(capsys, "--out", "json", "surface", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["pg_zero_verdict"] == "consistent"
    assert payload["results"]["motive_shape"] == "1 + 9L + L^2"
    assert payload["results"]["graded_dims"] == [1, 0, 0]


def test_surface_command_gradeds(tmp_path, capsys):
    path = tmp_path / "model.spec"
    path.write_text("kind = surface\nq = 2\npg = 1\nb2 = 10\nrho = 8\nt = 2\nk = 2\n")
    code, out, _ = run(capsys, "--out", "json", "surface", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["graded_dims"] == [1, 2, 2]
    assert payload["results"]["pg_zero_verdict"] == "not-applicable"


def test_surface_command_inconsistent_kernel(tmp_path, capsys):
    path = tmp_path / "model.spec"
    path.write_text("kind = surface\nq = 0\npg = 0\nb2 = 4\nrho = 4\nt = 2\n")
    code, out, _ = run(capsys, "--out", "json", "surface", str(path))
    assert code == 1  # verification failure, not a parse error


def test_surface_command_malformed_file(tmp_path, capsys):
    path = tmp_path / "model.spec"
    path.write_text("kind = surface\nq == 0\n")
    code, _, err = run(capsys, "surface", str(path))
    assert code == 2
    assert "line 2" in err


def test_surface_command_missing_file(capsys):
    code, _, err = run(capsys, "surface", "/nonexistent/model.spec")
    assert code == 2


def test_surface_command_refuses_oversized_models_before_building(tmp_path, capsys,
                                                                  monkeypatch):
    # a b2 = 10**8 realization or a t = 10**6 Chow model would fill memory;
    # the cap refuses both dimensions before any projector or model is built
    from finmot import cli

    def refused(name):
        def wrapper(*args):
            raise AssertionError(f"{name} called")
        return wrapper

    monkeypatch.setattr(cli, "chow_kunneth", refused("chow_kunneth"))
    monkeypatch.setattr(cli, "murre_filtration", refused("murre_filtration"))
    path = tmp_path / "model.spec"
    path.write_text(GOOD_SPEC.replace("pg = 0", "pg = 1")
                    .replace("b2 = 9", f"b2 = {10**8}").replace("rho = 9", "rho = 1"))
    code, out, err = run(capsys, "surface", str(path))
    assert (code, out) == (3, "")
    assert "realization dimension 2 + 4q + b2 = 100000002 exceeds cap 4096" in err
    path.write_text(GOOD_SPEC.replace("t = 0", f"t = {10**6}"))
    code, out, err = run(capsys, "surface", str(path))
    assert (code, out) == (3, "")
    assert "Chow model dimension 1 + q + t = 1000001 exceeds cap 4096" in err
    path.write_text(GOOD_SPEC)
    code, _, err = run(capsys, "--cap", "10", "surface", str(path))
    assert code == 3 and "realization dimension 2 + 4q + b2 = 11 exceeds cap 10" in err


def test_report_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", "json", "--file", str(out_path),
                       "chars", "2")
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["results"]["table"] == [[1, 1], [1, -1]]


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
def test_unwritable_report_file_is_usage_error(where, tmp_path, capsys):
    # a path under a missing directory, and a directory itself
    target = tmp_path / where
    code, out, err = run(capsys, "--file", str(target), "chars", "3")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"cannot write the report to {target}: ")


def test_parser_exists_for_all_documented_flags():
    cfg = parse_args(["--out", "csv", "--seed", "9", "--cap", "100",
                      "--k", "3", "--file", "x", "chars", "4"])
    assert cfg.out_format == "csv" and cfg.seed == 9 and cfg.cap == 100 and cfg.k == 3


_USAGE_ERRORS = {
    "no command": [],
    "unknown command": ["bogus"],
    "unknown option": ["--bogus", "chars", "2"],
    "missing value": ["--seed"],
    "seed not an int": ["--seed", "x", "chars", "2"],
    "k outside 1..6": ["--k", "7", "chars", "2"],
    "unknown format": ["--out", "xml", "chars", "2"],
    "unknown suite": ["verify", "no-such-suite"],
    "extra positional": ["chars", "2", "3"],
    "global option after the command": ["verify", "lifting", "--seed", "3"],
    "grid on schur": ["schur", "--lam", "1", "--grid", "k=1"],
}


@pytest.mark.parametrize("argv", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS)
def test_usage_errors_print_usage_and_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: finmot")
    assert lines[-1].startswith("finmot: error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([command, "-h"] for command in (
    "chars", "schur", "verify", "surface"))], ids=" ".join)
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith(f"usage: finmot {argv[0] if len(argv) > 1 else ''}")
    assert "-h, --help" in captured.out and captured.err == ""


def test_options_take_the_equals_form_and_unique_prefixes():
    # as --seed 5: a unique prefix of a long option, and --opt=value
    for argv in (["--seed", "5", "--out", "json", "schur", "--lam", "2,1", "--p", "1"],
                 ["--seed=5", "--out=json", "schur", "--lam=2,1", "--p=1"],
                 ["--se", "5", "--o", "json", "schur", "--p", "1", "--l", "2,1"]):
        cfg = parse_args(argv)
        assert (cfg.seed, cfg.out_format, cfg.params["lam"].parts, cfg.params["p"],
                cfg.params["q"]) == (5, "json", (2, 1), 1, 0)
    # after "--" a token that starts with "-" is the positional
    assert parse_args(["surface", "--", "-model.spec"]).params == {"path": "-model.spec"}


# --- input validation: bad values exit 2 without a traceback ----------------------


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    return err


def test_chars_negative_degree_is_usage_error(capsys):
    assert "nonnegative" in _usage_error(capsys, "chars", "-1")


def test_schur_negative_p_is_usage_error(capsys):
    assert "--p" in _usage_error(capsys, "schur", "--lam", "2", "--p", "-1", "--q", "1")
    assert "--q" in _usage_error(capsys, "schur", "--lam", "2", "--q", "-2")


def test_unknown_grid_key_is_usage_error(capsys):
    err = _usage_error(capsys, "verify", "vanishing", "--grid", "bogus=3,p=1")
    assert "bogus" in err
    _usage_error(capsys, "verify", "surface", "--grid", "k=1")
    # the Schur suites check the one full (p|q) object per (p, q, k): no seed enters
    for suite in ("vanishing", "kimura-dim"):
        err = _usage_error(capsys, "verify", suite, "--grid", "seeds=5")
        assert "unknown grid key(s) seeds" in err


class _RecordingGrid(dict):
    """A grid that records every key a suite reads from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


TINY_GRID = {"n": 2, "p": 1, "q": 1, "k": 2, "seeds": 1, "g": 1}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_suite_reads_exactly_its_declared_grid(suite):
    runner, defaults = SUITES[suite]
    grid = _RecordingGrid({key: TINY_GRID[key] for key in defaults})
    _, checks = runner(RunConfig(command="verify"), grid)
    assert checks
    assert grid.read == set(defaults)


def _exit_code(capsys, *argv):
    """Exit code of a run that may stop in the parser or return from main."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_negative_seed_count_is_usage_error(capsys):
    code, err = _exit_code(capsys, "verify", "lifting", "--grid", "seeds=-3")
    assert code == 2 and "seeds=-3" in err


def test_zero_seed_count_is_usage_error(capsys):
    code, err = _exit_code(capsys, "verify", "lifting", "--grid", "seeds=0")
    assert code == 2 and "seeds=0" in err


def test_negative_grid_bounds_are_usage_errors(capsys):
    code, err = _exit_code(capsys, "verify", "vanishing", "--grid", "p=-1,q=-1")
    assert code == 2 and "p=-1" in err


def test_grid_without_checks_is_usage_error(capsys):
    code, err = _exit_code(capsys, "--out", "json", "verify", "vanishing", "--grid", "k=0")
    assert code == 2 and "k=0" in err and "no checks" in err


def test_nilpotency_grid_without_checks_is_usage_error(capsys):
    code, err = _exit_code(capsys, "verify", "nilpotency", "--grid", "k=1")
    assert code == 2 and "k=1" in err and "no checks" in err


@pytest.mark.parametrize("k", [0, 7, 40])
def test_model_file_truncation_order_out_of_range(tmp_path, capsys, k):
    path = tmp_path / "model.spec"
    path.write_text(GOOD_SPEC.replace("k = 2", f"k = {k}"))
    code, err = _exit_code(capsys, "surface", str(path))
    assert code == 2 and f"got {k}" in err
    with pytest.raises(ModelFileError):
        parse_model_text(GOOD_SPEC.replace("k = 2", f"k = {k}"))


def test_model_file_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "model.spec"
    path.write_bytes(GOOD_SPEC.encode().replace(b"t = 0", b"t = \xff0"))
    code, err = _exit_code(capsys, "surface", str(path))
    assert code == 2 and "line 7" in err and "UTF-8" in err


def test_model_file_repeated_key_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "model.spec"
    path.write_text(GOOD_SPEC + "rho = 8\n")
    code, err = _exit_code(capsys, "surface", str(path))
    assert code == 2 and "line 10" in err and "rho" in err
    with pytest.raises(ModelFileError):
        parse_model_text("kind = surface\nkind = curve\n")


@pytest.mark.parametrize("seed", [2**64, 2**70])
def test_model_file_seed_beyond_u64_is_a_parse_error(tmp_path, capsys, seed):
    path = tmp_path / "model.spec"
    path.write_text(GOOD_SPEC.replace("seed = 11", f"seed = {seed}"))
    code, err = _exit_code(capsys, "surface", str(path))
    assert code == 2 and "line 9" in err and f"got {seed}" in err
    path.write_text(GOOD_SPEC.replace("seed = 11", f"seed = {2**64 - 1}"))
    code, _ = _exit_code(capsys, "surface", str(path))
    assert code == 0


def test_model_file_splits_lines_on_newline_only(tmp_path, capsys):
    # a form feed inside a comment ends no line, and a CRLF file parses
    spec = parse_model_text(GOOD_SPEC)
    form_feed = GOOD_SPEC.replace("# all weight-2", "# all\fweight-2")
    assert form_feed != GOOD_SPEC and parse_model_text(form_feed) == spec
    assert parse_model_text(GOOD_SPEC.replace("\n", "\r\n")) == spec
    # the line a parse error names is the line a non-UTF-8 error names
    path = tmp_path / "model.spec"
    bad = "kind = surface  # note\f more\nq = 0\nbogus = 1\n"
    path.write_text(bad)
    code, err = _exit_code(capsys, "surface", str(path))
    assert code == 2 and "line 3" in err and "bogus" in err
    path.write_bytes(bad.replace("bogus = 1", "pg = \xff").encode("latin-1"))
    code, err = _exit_code(capsys, "surface", str(path))
    assert code == 2 and "line 3" in err and "UTF-8" in err


def test_permutation_enumeration_beyond_bound_is_a_size_error(capsys):
    # on a (1|0) space the d^n cap never fires, so S_8 must be refused
    started = time.monotonic()
    code, err = _exit_code(capsys, "verify", "supertrace", "--grid", "n=8,p=1,q=0")
    assert code == 3 and "S_8" in err
    assert time.monotonic() - started < 1.0


def test_symmetrizers_degree_beyond_bound_is_refused_before_any_check(capsys, monkeypatch):
    # every product of Young idempotents raises, so a refusal after the
    # degrees up to 7 would surface as a traceback instead of exit 3
    from finmot.symgroup import GroupAlgebraElement

    def refused(self, other):
        raise AssertionError("group-algebra product computed")

    monkeypatch.setattr(GroupAlgebraElement, "__mul__", refused)
    code, err = _exit_code(capsys, "verify", "symmetrizers", "--grid", "n=8")
    assert code == 3 and "size cap exceeded" in err and "S_8" in err


def test_repeated_grid_key_is_usage_error(capsys):
    err = _usage_error(capsys, "verify", "lifting", "--grid", "k=2,k=3")
    assert "grid key 'k' is repeated" in err
    err = _usage_error(capsys, "verify", "lifting", "--grid", "seeds=2,k=2,seeds=2")
    assert "'seeds'" in err


def test_grid_k_beyond_the_truncation_orders_is_usage_error(capsys):
    code, err = _exit_code(capsys, "verify", "uniqueness", "--grid", "k=7,seeds=1")
    assert code == 2 and "k=7" in err and "1..6" in err


def test_invariant_error_in_a_suite_is_a_failed_check(capsys, monkeypatch):
    from finmot import cli
    from finmot.errors import InvariantError

    def broken(cfg, grid):
        raise InvariantError("corner defect at (0,1): 2*eps")

    _, defaults = cli.SUITES["abelian"]
    monkeypatch.setitem(cli.SUITES, "abelian", (broken, defaults))
    code, out, err = run(capsys, "--out", "json", "verify", "all")
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads(out)
    checks = {c["id"]: c for c in payload["checks"]}
    assert checks["abelian/invariant"] == {
        "id": "abelian/invariant", "passed": False,
        "detail": "corner defect at (0,1): 2*eps"}
    assert payload["results"]["abelian"]["passed"] is False
    assert payload["results"]["vanishing"]["passed"] is True
    assert checks["vanishing/p2q2k3"]["passed"] is True


@pytest.mark.parametrize("argv, target", [
    (("schur", "--lam", "2", "--p", "1"), "schur_apply"),
    (("surface", str(Path(__file__).parents[1] / "scripts" / "sample_surface.spec")),
     "classify"),
])
def test_invariant_error_outside_verify_is_one_line(capsys, monkeypatch, argv, target):
    from finmot import cli
    from finmot.errors import InvariantError

    def broken(*args, **kwargs):
        raise InvariantError("hook rule disagrees")

    monkeypatch.setattr(cli, target, broken)
    code, err = _exit_code(capsys, *argv)
    assert code == 1
    assert err.splitlines() == ["invariant violated: hook rule disagrees"]


def test_verify_all_rejects_a_grid(capsys):
    code, err = _exit_code(capsys, "verify", "all", "--grid", "k=1")
    assert code == 2 and "all" in err


def test_verify_all_is_every_suite_in_one_report(capsys):
    code, out, _ = run(capsys, "--out", "json", "--seed", "7", "verify", "all")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["results"]) == sorted(SUITES)
    want_checks = []
    for suite in sorted(SUITES):
        code, single, _ = run(capsys, "--out", "json", "--seed", "7", "verify", suite)
        assert code == 0
        single = json.loads(single)
        assert payload["results"][suite] == single["results"]
        want_checks.extend(single["checks"])
    assert payload["checks"] == sorted(want_checks, key=lambda c: c["id"])


def test_verify_all_fails_when_a_suite_fails(capsys, monkeypatch):
    from finmot import cli

    _, defaults = cli.SUITES["abelian"]
    monkeypatch.setitem(cli.SUITES, "abelian", (
        lambda cfg, grid: ({}, [cli.Check("abelian/broken", False)]), defaults))
    code, out, _ = run(capsys, "--out", "json", "verify", "all")
    assert code == 1
    payload = json.loads(out)
    assert payload["results"]["abelian"]["passed"] is False
    assert payload["results"]["vanishing"]["passed"] is True


def test_schur_suites_check_the_full_object_once(capsys, monkeypatch):
    # the Schur checks run once per (p, q, k) on the full (p|q) object: 27
    # parity splits in vanishing, and no idempotent is lifted in either suite
    from finmot import cli

    calls = {"split_parity": 0, "lift_idempotent": 0}

    def counting(name):
        original = getattr(cli, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    code, _, _ = run(capsys, "--out", "json", "verify", "vanishing")
    assert code == 0
    assert calls == {"split_parity": 27, "lift_idempotent": 0}
    calls.update(split_parity=0, lift_idempotent=0)
    code, _, _ = run(capsys, "--out", "json", "verify", "kimura-dim")
    assert code == 0
    assert calls == {"split_parity": 0, "lift_idempotent": 0}


@pytest.mark.parametrize("grid", ["p=6,q=0,k=1", "p=0,q=6,k=1"])
def test_vanishing_cap_bounds_the_orbit_count(capsys, grid):
    # SLambda^7 of (6|0) and (0|6) is read off its terms' survivors, so the
    # cap bounds the orbit count C(12, 7) = 792, not the 6**6 tensor power
    code, out, _ = run(capsys, "--out", "json", "verify", "vanishing", "--grid", grid)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 7 and all(check["passed"] for check in checks)
    code, _, err = run(capsys, "--cap", "791", "verify", "vanishing", "--grid", grid)
    assert code == 3 and "orbit count C(12, 7) = 792 exceeds cap 791" in err


def test_lifting_family_error_is_a_failed_check(capsys, monkeypatch):
    from finmot import cli

    def broken(*args, **kwargs):
        raise ValueError("members do not sum to the identity")

    monkeypatch.setattr(cli, "lift_family", broken)
    code, out, err = run(capsys, "--out", "json", "verify", "lifting",
                         "--grid", "k=2,seeds=1")
    assert code == 1
    assert "Traceback" not in err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["lifting/family-k2"] == {
        "id": "lifting/family-k2", "passed": False,
        "detail": "seed 1: members do not sum to the identity"}
    assert checks["lifting/family-k1"]["passed"] is False
    assert checks["lifting/newton-k2"]["passed"] is True


def test_newton_non_convergence_is_a_failed_check(capsys, monkeypatch):
    # with the round bound cut to one, a k=5 Newton lift stops at a defect
    # of order eps^4, which is nonzero below eps^5 = 0
    from finmot import lifting

    monkeypatch.setattr(lifting, "_newton_rounds", lambda k: 1)
    code, out, err = run(capsys, "--out", "json", "verify", "lifting",
                         "--grid", "k=5,seeds=1")
    assert code == 1
    assert "Traceback" not in err
    assert json.loads(out)["checks"] == [{
        "id": "lifting/invariant", "passed": False,
        "detail": "Newton iteration did not converge in 2 rounds at k=5"}]


def _patch(name, make):
    """A monkeypatch of the cli's ``name`` by ``make(original)``."""
    def apply(monkeypatch):
        from finmot import cli
        monkeypatch.setattr(cli, name, make(getattr(cli, name)))
    return apply


def _spoil_call(nth, spoil):
    """A ``make`` for ``_patch``: the result of the ``nth`` call goes through ``spoil``."""
    def make(original):
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(args)
            out = original(*args, **kwargs)
            return spoil(out) if len(calls) == nth else out
        return wrapped
    return make


def _shift_degree(original):
    """A Schur functor taken one degree higher."""
    return lambda n, *args, **kwargs: original(n + 1, *args, **kwargs)


def _identity_like(f):
    from finmot.supercat import SuperMorphism
    return SuperMorphism.identity(f.source)


def _abelian_fails_at_n2(original):
    def wrapped(g, n, k=1):
        report = original(g, n, k=k)
        if n != 2:
            return report
        return report._replace(holds=False, failures=("nstar . pi_1 != n^1 pi_1",))
    return wrapped


def _rigidity_claims_the_hypotheses(monkeypatch):
    # seed 1 draws the zero map, which no report has to flag; every report
    # then claims the hypotheses, so seed 2 is the first violation
    _patch("random_hom_trivial", _spoil_call(1, lambda f: f - f))(monkeypatch)
    _patch("murre_rigidity", lambda original: lambda family, q: original(
        family, q)._replace(within_hypotheses=True))(monkeypatch)


#: per folded suite: a grid, a monkeypatch that breaks one case, the check
#: that must fail and the detail naming that case
FOLDED_FAILURES = {
    "vanishing": ("p=1,q=1,k=2", _patch("s_wedge", _shift_degree),
                  "vanishing/p1q1k2", "n=2: SLambda^2 X is zero"),
    "kimura-dim": ("p=2,q=0,k=1", _patch("sym", _shift_degree),
                   "kimura-dim/even-d2-k1", "n=1: dim S^1 = 3, expected 2"),
    "supertrace": ("n=2,p=1,q=0",
                   _patch("permutation_action", lambda original: (
                       lambda sigma, *args, **kwargs: original(sigma, *args, **kwargs)
                       if sigma.images == (0, 1) else -original(sigma, *args, **kwargs))),
                   "supertrace/p1q0n2", "sigma=(1, 0): supertrace -1, expected 1"),
    "lifting": ("k=1,seeds=3", _patch("lift_idempotent", _spoil_call(2, _identity_like)),
                "lifting/newton-k1", "seed 2: lift realization differs from the base"),
    "uniqueness": ("k=2,seeds=2", _patch("corner_unit_check", _spoil_call(
                       6, lambda rep: CornerReport(rep.e, rep.defect, False, rep.corner_inverse,
                                                   rep.iso_to, rep.iso_from))),
                   "uniqueness/k2", "seed 2, member 1: nonzero corner defect at k=2"),
    "nilpotency": ("k=2,seeds=3", _patch("random_hom_trivial", _spoil_call(2, _identity_like)),
                   "nilpotency/k2", "seed 2: f is not nilpotent of index <= 2"),
    "rigidity": ("seeds=2", _rigidity_claims_the_hypotheses, "rigidity/violations-reported",
                 "seed 2: a nonzero hom-trivial endomorphism is within the hypotheses"),
    "summand-assembly": ("seeds=3", _patch("_random_summand_instance", _spoil_call(
                             3, lambda fge: (*fge[:2], fge[2].scale(2)))),
                         "summand-assembly/identity-round-trip",
                         "seed 3: the assembled e = f . g is not idempotent"),
    "abelian": ("g=1", _patch("abelian_multiplication_action", _abelian_fails_at_n2),
                "abelian/eigenrelations-g1", "n=2: nstar . pi_1 != n^1 pi_1"),
    "symmetrizers": ("n=2", _patch("character", lambda original: (
                         lambda lam, ct: original(lam, ct) + (lam.parts == (1, 1)))),
                     "symmetrizers/column-orthogonality-n2",
                     "lam=(2,), mu=(1, 1): sum 2 != 0"),
}


@pytest.mark.parametrize("suite", sorted(FOLDED_FAILURES))
def test_folded_check_names_its_first_failing_case(suite, capsys, monkeypatch):
    grid, breaks, check_id, detail = FOLDED_FAILURES[suite]
    breaks(monkeypatch)
    code, out, err = run(capsys, "--out", "json", "verify", suite, "--grid", grid)
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads(out)
    checks = {c["id"]: c for c in payload["checks"]}
    assert checks[check_id] == {"id": check_id, "passed": False, "detail": detail}
    if suite == "uniqueness":
        # the exact count still covers the cases after the first failure
        assert payload["results"]["exact_equality_by_k"] == {"2": "7/8"}


def test_surface_suite_reads_the_family_under_test(capsys, monkeypatch):
    # a valid family that breaks the transpose formula must turn the
    # relations check red, and its detail names the failing relations
    from finmot import cli

    monkeypatch.setattr(cli, "chow_kunneth", _pairing_blind_family)
    code, out, err = run(capsys, "--out", "json", "--seed", "21", "--k", "3",
                         "verify", "surface")
    assert code == 1
    assert "Traceback" not in err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    relations = checks["surface/irregular/projector-relations"]
    assert relations["passed"] is False
    assert relations["detail"].startswith("failed: ")
    assert "albanese_matches_family" in relations["detail"]
    assert checks["surface/irregular/family-valid"]["passed"] is True
    assert checks["surface/irregular/kernel-classification"]["passed"] is True


@pytest.mark.parametrize("argv, eliminations", [
    *((("surface", str(path)), 3)
      for path in sorted((Path(__file__).parents[1] / "scripts").glob("*.spec"))),
    (("verify", "surface"), 6),
], ids=lambda v: Path(v[-1]).stem if isinstance(v, tuple) else None)
def test_surface_runs_eliminate_each_kernel_chain_once(capsys, monkeypatch, argv,
                                                       eliminations):
    # three eliminations per surface model, read by every check and result
    from finmot import motives

    calls = []
    original = motives.fraction_free_reduce

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(motives, "fraction_free_reduce", counted)
    code, _, _ = run(capsys, "--out", "json", *argv)
    assert code == 0
    assert len(calls) == eliminations


# --- fuzzing ----------------------------------------------------------------------


_SMALL = st.integers(min_value=-1, max_value=3)


def _rarely(strategy):
    """A draw of ``strategy`` about one time in four, else an empty list."""
    return st.integers(0, 3).flatmap(lambda i: strategy if i == 0 else st.just([]))


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


@st.composite
def _grids(draw, suite):
    # the suite's own keys with values -1..3, and rarely a key it does not
    # read, a repeat or a malformed item
    own = [*SUITES.get(suite, ({}, {}))[1]]
    items = draw(st.lists(st.builds("{}={}".format, st.sampled_from(own), _SMALL),
                          max_size=len(own), unique_by=lambda item: item.split("=")[0])
                 if own else st.just([]))
    items += draw(_rarely(st.lists(st.sampled_from(
        ["seeds=2", "x=1", *(f"{key}=1" for key in own), "", "k", "=1", "p=x"]),
        min_size=1, max_size=2)))
    return ["--grid", ",".join(draw(st.permutations(items)))] if items else []


@st.composite
def _model_texts(draw):
    # a surface model, with any kind and with keys set to -1..3 or dropped,
    # and rarely unknown, repeated or non-integer lines
    kind = draw(st.one_of(st.just("surface"), st.sampled_from([*KINDS, "torus"])))
    rho, d = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    model = {"kind": kind, "q": draw(st.integers(0, 2)), "b2": rho + d, "rho": rho,
             "pg": draw(st.integers(1, 2)) if d else 0, "t": draw(st.integers(0, 3)),
             "k": draw(st.integers(1, 3))}
    model.update(draw(st.dictionaries(st.sampled_from(_MODEL_KEYS[1:]),
                                      st.one_of(_SMALL, st.none()), max_size=2)))
    lines = [f"{key} = {val}" for key, val in model.items() if val is not None]
    lines += draw(_rarely(st.lists(st.one_of(
        st.builds("{} = {}".format, st.sampled_from([*_MODEL_KEYS, "genus"]),
                  st.one_of(_SMALL, st.sampled_from(["x", "1.5", "", "2**3"]))),
        st.sampled_from(["# comment", "q", "= 1"])), min_size=1, max_size=2)))
    return "\n".join(draw(st.permutations(lines)))


@st.composite
def _argvs(draw, workdir):
    argv = []
    argv += draw(_flag("--out", st.sampled_from(["json", "csv", "pretty"])))
    argv += draw(_flag("--seed", st.integers(0, 3)))
    argv += draw(_flag("--k", st.integers(1, 3)))
    argv += draw(_rarely(st.sampled_from([
        ["--cap", "3"], ["--cap", "0"], ["--cap", "-1"], ["--out", "xml"],
        ["--seed", "-1"], ["--seed", str(2**64)], ["--k", "0"], ["--k", "7"],
        ["--file", str(workdir / "report.txt")],
        ["--file", str(workdir / "missing" / "report.txt")], ["--bogus"]])))
    command = draw(st.sampled_from(["chars", "schur", "verify", "surface", "bogus"]))
    if command == "chars":
        argv += ["chars", str(draw(st.one_of(_SMALL, st.just(13))))]
    elif command == "schur":
        # Schur degrees n <= 4, with malformed partitions among them
        lam = draw(st.sampled_from(["0", "", "1", "2", "1,1", "3", "2,1", "1,1,1", "4",
                                    "3,1", "2,2", "2,1,1", "1,1,1,1", "1,2", "x", "-1"]))
        argv += ["schur", "--lam", lam, *draw(_flag("--p", _SMALL)),
                 *draw(_flag("--q", _SMALL))]
    elif command == "verify":
        suite = draw(st.sampled_from([*sorted(SUITES), "all", "bogus"]))
        argv += ["verify", suite, *draw(_grids(suite))]
    elif command == "surface":
        path = workdir / "model.txt"
        path.write_text(draw(_model_texts()), encoding="utf-8")
        absent = draw(st.integers(0, 7)) == 0
        argv += ["surface", str(workdir / "absent.txt" if absent else path)]
    else:
        argv.append(command)
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_with_a_documented_code(fuzz_dir, data):
    # whatever the argv and the model file, main returns or exits with one of
    # the documented codes, and no other exception escapes
    argv = data.draw(_argvs(fuzz_dir))
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
