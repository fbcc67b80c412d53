import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subsum
from subsum import cli, cyclotomic, intpoly, reduction, verify
from subsum.partitions import PartitionClass

import oracles


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_compute_num_json_golden(capsys):
    code, out = run(capsys, ["compute", "--class", "ordinary", "--n", "4", "--what", "num", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "polynomial"
    assert record["coeffs"] == ["5", "8", "15", "14", "24", "20", "24", "14", "15", "8", "5"]


def test_compute_num_n0_convention(capsys):
    code, out = run(capsys, ["compute", "--class", "ordinary", "--n", "0", "--what", "num", "--format", "json"])
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1"]


def test_compute_binary_g_is_one(capsys):
    code, out = run(capsys, ["compute", "--class", "binary", "--n", "4", "--what", "g", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "factored"
    assert record["factors"] == []


def test_compute_den_star_factored_and_expanded(capsys):
    code, out = run(capsys, ["compute", "--class", "ordinary", "--n", "4", "--what", "den-star", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["base"] == "binomial"
    assert record["factors"] == [[1, 4], [2, 2], [3, 1], [4, 1]]

    code, out = run(
        capsys,
        ["compute", "--class", "ordinary", "--n", "4", "--what", "den-star", "--format", "json", "--expand"],
    )
    record = json.loads(out)
    assert record["kind"] == "polynomial"
    assert len(record["coeffs"]) == 16  # degree 15


def test_compute_g_text(capsys):
    code, out = run(capsys, ["compute", "--class", "ordinary", "--n", "4", "--what", "g"])
    assert code == 0
    assert out.strip() == "g(4, ordinary) = Phi_2"


def test_compute_num_text_ascending(capsys):
    code, out = run(capsys, ["compute", "--class", "ordinary", "--n", "4", "--what", "num"])
    assert code == 0
    assert out.strip().endswith("= 5 + 8x + 15x^2 + 14x^3 + 24x^4 + 20x^5 + 24x^6 + 14x^7 + 15x^8 + 8x^9 + 5x^10")


def test_compute_spol_list(capsys):
    code, out = run(capsys, ["compute", "--class", "ordinary", "--n", "4", "--what", "spol-list", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "polynomial-list"
    assert [item["partition"] for item in record["items"]] == [
        [4],
        [3, 1],
        [2, 2],
        [2, 1, 1],
        [1, 1, 1, 1],
    ]
    assert record["items"][0]["coeffs"] == ["1", "0", "0", "0", "1"]


def test_verify_conjecture9_json(capsys):
    code, out = run(capsys, ["verify", "--conjecture", "9", "--max-n", "9", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "report"
    assert record["verdict"] == "AllHold"
    assert record["n_range"] == [1, 9]


def test_verify_conjecture2_max_n_1(capsys):
    code, out = run(capsys, ["verify", "--conjecture", "2", "--max-n", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "AllHold"


def test_verify_conjecture6_witness(capsys):
    code, out = run(capsys, ["verify", "--conjecture", "6", "--max-n", "10", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "WitnessOnly"
    n4 = [w for w in record["witnesses"] if w["n"] == 4][0]
    assert n4["log_concave"] is False and n4["index"] == 3


def test_verify_conjecture5_and_7_print_one_report_each(capsys):
    for cid in ("5", "7"):
        code, out = run(capsys, ["verify", "--conjecture", cid, "--max-n", "8", "--format", "json"])
        assert code == 0
        record = json.loads(out)
        assert record["conjecture"] == cid
        assert record["verdict"] == "AllHold"
        assert [w["n"] for w in record["witnesses"]] == list(range(2, 9))


def test_verify_all_small(capsys):
    code, out = run(capsys, ["verify", "--conjecture", "all", "--max-n", "5", "--format", "json"])
    assert code == 0
    records = json.loads(out)
    ids = [r["conjecture"] for r in records]
    assert ids == ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "lemma4"]


@pytest.mark.parametrize("cid", ["5", "6", "7"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_single_conjecture_below_its_lowest_n_exits_2(capsys, cid, fmt):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--conjecture", cid, "--max-n", "1", "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--conjecture {cid} needs --max-n >= 2" in captured.err


SKIP_WARNINGS = [f"WARNING subsum: skipping conjecture {cid}: needs max-n >= 2" for cid in ("5", "6", "7")]


def test_all_below_a_lowest_n_warns_and_skips(capsys):
    assert cli.main(["verify", "--conjecture", "all", "--max-n", "1", "--format", "json"]) == 0
    captured = capsys.readouterr()
    ids = [r["conjecture"] for r in json.loads(captured.out)]
    assert ids == ["1", "2", "3", "4", "8", "9", "10", "lemma4"]
    assert captured.err.splitlines() == SKIP_WARNINGS


def _spy_run(monkeypatch):
    """Replaces verify.run with a stub that records (cid, max_n) and returns an empty passing report."""
    calls = []

    def spy(cid, max_n, *, engine, jobs):
        calls.append((cid, max_n))
        return verify.ConjectureReport(cid, (1, max_n), verify.ALL_HOLD, [], [], 0.0)

    monkeypatch.setattr(verify, "run", spy)
    return calls


@pytest.mark.parametrize("cid", ["2", "5", "7", "lemma4"])
def test_max_n_past_the_old_ceiling_reaches_run(capsys, monkeypatch, cid):
    # d = 1's least prime, 1000003, serves n <= 500001 only; past that a higher floor serves.
    calls = _spy_run(monkeypatch)
    assert cli.main(["verify", "--conjecture", cid, "--max-n", "500002"]) == 0
    assert calls == [(cid, 500002)]
    assert capsys.readouterr().err == ""


def test_all_past_the_old_ceiling_runs_every_conjecture(capsys, monkeypatch):
    calls = _spy_run(monkeypatch)
    assert cli.main(["verify", "--conjecture", "all", "--max-n", "500002"]) == 0
    assert calls == [(cid, 500002) for cid in verify.CONJECTURES]
    assert capsys.readouterr().err == ""


def test_table_t(capsys):
    code, out = run(capsys, ["table", "--sequence", "t", "--max-n", "4"])
    assert code == 0
    assert out.splitlines() == ["n,t", "0,1", "1,1", "2,1", "3,5", "4,5"]


def test_table_s(capsys):
    code, out = run(capsys, ["table", "--sequence", "s", "--max-n", "2"])
    assert code == 0
    assert out.splitlines() == ["n,s", "1,1", "2,1"]


def test_table_o_part(capsys):
    code, out = run(capsys, ["table", "--sequence", "o-part", "--max-n", "4", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [(r["n"], r["value"]) for r in rows] == [(1, "1"), (2, "1"), (3, "3"), (4, "3")]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit in this Python")
def test_table_prints_integers_past_the_str_digit_limit(capsys):
    # o(400!) has 750 digits; at the lowest limit, 640, str() of it raises
    # unless the CLI lifts the limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(capsys, ["table", "--sequence", "o-part", "--max-n", "400"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    last = out.splitlines()[-1]
    assert last == f"400,{verify.odd_factorial_part(400)}"
    assert len(last) == len("400,") + 750


def test_table_g_degree(capsys):
    code, out = run(capsys, ["table", "--sequence", "g-degree", "--max-n", "4"])
    assert code == 0
    assert out.splitlines() == ["n,g-degree", "1,0", "2,0", "3,1", "4,1"]


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--class", "decimal", "--n", "4", "--what", "num"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--conjecture", "11", "--max-n", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--class", "ordinary", "--n", "-3", "--what", "num"])
    assert exc.value.code == 2
    # The streaming fold runs only as the reference of engine "both".
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--class", "ordinary", "--n", "4", "--what", "num", "--engine", "enumerate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--conjecture", "2", "--max-n", "4", "--engine", "enumerate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--conjecture", "2", "--max-n", "4", "--bogus", "1"], "unrecognized argument '--bogus'"),
        (["verify", "--conjecture", "2", "--max-n"], "--max-n expects a value"),
        (["verify", "--conjecture", "2", "--max-n", "--format", "json"], "--max-n expects a value"),
        (["verify", "--conjecture", "2"], "required: --max-n"),
        ([], "a command is required"),
        (["check", "--conjecture", "2", "--max-n", "4"], "unknown command 'check'"),
        (["table", "--sequence", "t", "--max-n", "4", "extra"], "unrecognized argument 'extra'"),
        # A prefix stands for no flag.
        (["verify", "--conjecture", "2", "--max", "4"], "unrecognized argument '--max'"),
        (["compute", "--class", "odd", "--n", "3", "--what", "g", "--expand=yes"], "--expand takes no value"),
        # A bad token before -h is reported first, and -h as a value is a value.
        (["check", "-h"], "unknown command 'check'"),
        (["verify", "--bogus", "-h"], "unrecognized argument '--bogus'"),
        (["compute", "--class", "odd", "--n", "-h", "--what", "g"], "--n: expected an integer >= 0, got '-h'"),
        (["compute", "--class", "odd", "--n=-h", "--what", "g"], "--n: expected an integer >= 0, got '-h'"),
    ],
    ids=["unknown-flag", "no-value-at-end", "flag-for-value", "missing-required", "no-command",
         "unknown-command", "stray-positional", "prefix", "switch-with-value",
         "unknown-command-before-help", "unknown-flag-before-help", "help-as-value", "help-as-equals-value"],
)
def test_malformed_command_lines_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: subsum ")
    assert message in captured.err.splitlines()[-1]


def test_flag_equals_value_and_repeated_flags(capsys):
    def report(argv):
        code, out = run(capsys, argv)
        assert code == 0
        return {k: v for k, v in json.loads(out).items() if k != "elapsed_seconds"}

    spaced = report(["verify", "--conjecture", "9", "--max-n", "4", "--format", "json"])
    assert spaced["n_range"] == [1, 4]
    assert report(["verify", "--conjecture", "9", "--max-n=4", "--format=json"]) == spaced
    assert report(["verify", "--conjecture", "9", "--max-n", "7", "--format", "json", "--max-n", "4"]) == spaced


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"], ["verify", "--conjecture", "2", "-h"]])
def test_help_names_every_flag_and_conjecture_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    commands = ["verify"] if "verify" in argv else list(cli._COMMANDS)
    for command in commands:
        assert f"usage: subsum {command} " in out
        assert all(flag in out for flag in cli._COMMANDS[command][2])
    assert "{" + ",".join([*verify.CONJECTURES, "all"]) + "}" in out


@pytest.mark.parametrize("spelling", [["--out", "-h"], ["--out=-h"]], ids=["spaced", "equals"])
def test_help_as_the_value_of_out_names_a_file(tmp_path, capsys, monkeypatch, spelling):
    # -h asks for help only where a flag stands; as a value it is the file name -h.
    monkeypatch.chdir(tmp_path)
    argv = ["table", "--sequence", "t", "--max-n", "3"]
    _, want = run(capsys, argv)
    assert run(capsys, [*argv, *spelling]) == (0, "")
    assert (tmp_path / "-h").read_text() == want


@pytest.mark.parametrize(
    "argv",
    [
        *(["compute", "--class", "ordinary", "--n", "4", "--what", w, "--engine", "both"]
          for w in ("den", "g", "den-star", "spol-list")),
        *(["compute", "--class", "ordinary", "--n", "4", "--what", w, "--expand"]
          for w in ("num", "num-star", "spol-list")),
        ["verify", "--conjecture", "4", "--max-n", "4", "--engine", "both"],
    ],
)
def test_flags_that_would_be_ignored_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_engine_both_on_all_skips_no_conjecture(capsys):
    code, out = run(capsys, ["verify", "--conjecture", "all", "--max-n", "4", "--engine", "both", "--format", "json"])
    assert code == 0
    assert [r["conjecture"] for r in json.loads(out)] == list(verify.CONJECTURES)


def test_mutated_numerator_forces_exit_1(capsys, monkeypatch):
    real = reduction.num

    def mutated(n, pclass, engine):
        num = real(n, pclass, engine)
        return oracles.naive_mul(num, (1, 1)) if n == 3 and pclass is PartitionClass.ORDINARY else num

    monkeypatch.setattr(reduction, "num", mutated)
    # Engine "dp" certifies at a root of unity and reads no num; "both"
    # also takes the full remainder of the corrupted num.
    code, out = run(capsys, ["verify", "--conjecture", "2", "--max-n", "4", "--engine", "both", "--format", "json"])
    assert code == 1
    record = json.loads(out)
    assert record["verdict"] == "FailuresFound"


def test_witness_only_failure_does_not_gate_exit(capsys, monkeypatch):
    real = reduction.num

    def mutated(n, pclass, engine):
        if n == 2 and pclass is PartitionClass.ORDINARY:
            # force a fake non-unimodal even part: 1 + 0x^2 + x^4
            return (1, 0, 0, 0, 1)
        return real(n, pclass, engine)

    monkeypatch.setattr(reduction, "num", mutated)
    code, out = run(capsys, ["verify", "--conjecture", "3", "--max-n", "3", "--format", "json"])
    assert code == 0  # open conjectures never gate
    record = json.loads(out)
    assert record["verdict"] == "WitnessOnly"
    assert any(f.get("kind") == "finding" for f in record["failures"])


def test_wrong_special_value_prints_its_failure_and_exits_1(capsys, monkeypatch):
    # num* + G is G * (num + 1): num_T(5,-1) one larger.
    real = reduction.num_star

    def mutated(n, pclass, engine="dp"):
        star = real(n, pclass, engine)
        if n == 5 and pclass is PartitionClass.TERNARY:
            return oracles.naive_add(star, cyclotomic.expand_cyclotomics(reduction.big_g(n, pclass)))
        return star

    monkeypatch.setattr(reduction, "num_star", mutated)
    code, out = run(capsys, ["verify", "--conjecture", "9", "--max-n", "6"])
    assert code == 1
    assert "  FAIL n=5: num_T(5,-1) = 4 != 3^v3(5!) = 3" in out.splitlines()


def _den_2_without_its_middle(monkeypatch):
    real = cyclotomic.expand_cyclotomics
    den_2 = reduction.den(2, PartitionClass.ORDINARY)
    monkeypatch.setattr(cyclotomic, "expand_cyclotomics", lambda e: (1, 0, 1) if e == den_2 else real(e))


def _binary_num_6_without_its_middle(monkeypatch):
    real = reduction.num

    def mutated(n, pclass, engine):
        return (1, 0, 1) if n == 6 and pclass is PartitionClass.BINARY else real(n, pclass, engine)

    monkeypatch.setattr(reduction, "num", mutated)


@pytest.mark.parametrize(
    "cid, max_n, patch, findings",
    [
        (
            "4",
            3,
            lambda mp: mp.setattr(intpoly, "is_log_concave", lambda a: (True, None)),
            [{"n": 3, "kind": "finding", "detail": "expected counterexample n=3 is log-concave"}],
        ),
        (
            "4",
            2,
            _den_2_without_its_middle,
            [
                {
                    "n": 2,
                    "kind": "finding",
                    "index": 1,
                    "detail": "den(2,x) unexpectedly fails log-concavity at index 1: 0^2 < 1*1",
                }
            ],
        ),
        (
            "6",
            6,
            _binary_num_6_without_its_middle,
            [
                {"n": 6, "kind": "finding", "detail": "num_B(6,x) not unimodal (corrected conjecture)"},
                {
                    "n": 6,
                    "kind": "finding",
                    "index": 1,
                    "detail": "num_B(6,x) unexpectedly fails log-concavity at index 1",
                },
            ],
        ),
    ],
    ids=["4-expected-exception-holds", "4-unexpected-failure", "6-shape"],
)
def test_open_conjecture_findings_are_recorded_and_exit_0(capsys, monkeypatch, cid, max_n, patch, findings):
    patch(monkeypatch)
    code, out = run(capsys, ["verify", "--conjecture", cid, "--max-n", str(max_n), "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "WitnessOnly"
    assert record["failures"] == findings


def test_engine_disagreement_forces_exit_1(capsys, monkeypatch):
    real_dp = reduction._num_star_dp

    def corrupted(n, pclass):
        star = real_dp(n, pclass)
        return oracles.naive_add(star, (1,)) if n == 2 else star

    monkeypatch.setattr(reduction, "_num_star_dp", corrupted)
    reduction.num.cache_clear()
    try:
        code = cli.main(["verify", "--conjecture", "2", "--max-n", "4", "--engine", "both", "--format", "json"])
    finally:
        reduction.num.cache_clear()
    captured = capsys.readouterr()
    assert code == 1
    assert "internal error" not in captured.err
    record = json.loads(captured.out)
    assert [f["n"] for f in record["failures"] if f.get("kind") == "engine-mismatch"] == [2]


@pytest.mark.parametrize("engine", ["_num_star_dp", "_num_star_enumerate"])
@pytest.mark.parametrize("what", ["num", "num-star"])
def test_compute_engine_disagreement_exits_1(capsys, monkeypatch, what, engine):
    real = getattr(reduction, engine)

    def corrupted(n, pclass):
        # G(3,x) = 1 + x does not divide the corrupted num*, so only a
        # comparison made before that division reports the disagreement.
        star = real(n, pclass)
        return oracles.naive_add(star, (1,)) if n == 3 else star

    monkeypatch.setattr(reduction, engine, corrupted)
    reduction.num.cache_clear()
    try:
        code = cli.main(["compute", "--class", "ordinary", "--n", "3", "--what", what, "--engine", "both"])
    finally:
        reduction.num.cache_clear()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "engine disagreement: num* engines disagree at n=3, ordinary" in captured.err


def test_engine_both_clean_run(capsys):
    reduction.num.cache_clear()
    code, out = run(capsys, ["verify", "--conjecture", "2", "--max-n", "8", "--engine", "both", "--format", "json"])
    assert code == 0


def test_engine_both_agreement_all_classes_to_15(capsys):
    # conjectures 2, 7, 8, 9 touch the ordinary, binary, odd and ternary
    # pipelines respectively
    for cid in ("2", "7", "8", "9"):
        code, _ = run(capsys, ["verify", "--conjecture", cid, "--max-n", "15", "--engine", "both", "--format", "json"])
        assert code == 0, cid


def test_verify_lemma4(capsys):
    code, out = run(capsys, ["verify", "--conjecture", "lemma4", "--max-n", "8", "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "AllHold"


def test_jobs_output_matches_serial(capsys):
    code1, out1 = run(capsys, ["verify", "--conjecture", "8", "--max-n", "8", "--format", "json"])
    code2, out2 = run(capsys, ["verify", "--conjecture", "8", "--max-n", "8", "--jobs", "2", "--format", "json"])
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_seconds")
    r2.pop("elapsed_seconds")
    assert r1 == r2


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "num.json"
    code, out = run(
        capsys,
        ["compute", "--class", "ordinary", "--n", "4", "--what", "num", "--format", "json", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["coeffs"][0] == "5"


def _python(args, **kwargs):
    """Run a fresh interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(Path(subsum.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)


def _cli_process(argv, stdout):
    return _python(["-m", "subsum.cli", *argv], stdout=stdout, stderr=subprocess.PIPE)


# Paths under a directory that is not there, written as strings: a Path
# would drop the trailing separator.  "afile" is a regular file.
MISSING_DIRECTORIES = [
    os.path.join("missing", "x"),
    "missing" + os.sep,
    "afile" + os.sep,
    os.path.join("afile", os.curdir),
    os.path.join("missing", os.curdir),
    os.path.join("missing", os.pardir),
]


@pytest.mark.parametrize("command", ["compute", "verify", "table"])
@pytest.mark.parametrize("out", [*MISSING_DIRECTORIES, os.curdir, "", "a\0b"])
def test_bad_out_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, out):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("num", "t_values", "big_g"):
        monkeypatch.setattr(reduction, name, no_work)
    monkeypatch.setattr(verify, "run", no_work)
    argv = {
        "compute": ["compute", "--class", "ordinary", "--n", "3", "--what", "num"],
        "verify": ["verify", "--conjecture", "9", "--max-n", "3"],
        "table": ["table", "--sequence", "t", "--max-n", "3"],
    }[command]
    (tmp_path / "afile").write_text("")
    # An empty path is passed as it is: under tmp_path it would name the directory.
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path) + os.sep + out if out else out])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err


def test_out_path_resolved_through_a_parent_directory_writes(tmp_path, capsys, monkeypatch):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    for out in ["ok.txt", str(tmp_path / "ok2.txt"), os.path.join("sub", os.pardir, "ok3.txt")]:
        code, _ = run(capsys, ["table", "--sequence", "t", "--max-n", "2", "--out", out])
        assert code == 0
        assert (tmp_path / os.path.basename(out)).read_text() == "n,t\n0,1\n1,1\n2,1\n"


# sha256 of `subsum verify --conjecture all --max-n 12 --format json` with
# the elapsed_seconds lines dropped; the same on Python 3.10 to 3.13.
ALL_12_REPORT_SHA256 = "5389a932f50cc292c2b37e4b07299a358539110d060517b507f275eaa2f5c7df"


def test_verify_all_report_is_pinned():
    argv = ["-m", "subsum.cli", "verify", "--conjecture", "all", "--max-n", "12", "--format", "json"]
    proc = _python(argv, capture_output=True, check=True)
    kept = "".join(line for line in proc.stdout.splitlines(keepends=True) if "elapsed_seconds" not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == ALL_12_REPORT_SHA256


# The same digest for conjecture 1 alone to n = 30, where the pin above
# reaches the irreducibility witness only up to n = 12.
CONJECTURE_1_30_REPORT_SHA256 = "40cd4c5e8600b310d901c22af1df219717d874db183d2e1f114d4279f0417d23"


def test_verify_conjecture_1_report_is_pinned():
    argv = ["-m", "subsum.cli", "verify", "--conjecture", "1", "--max-n", "30", "--format", "json"]
    proc = _python(argv, capture_output=True, check=True)
    kept = "".join(line for line in proc.stdout.splitlines(keepends=True) if "elapsed_seconds" not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == CONJECTURE_1_30_REPORT_SHA256


def test_write_to_closed_pipe_exits_1_with_one_line():
    # The help is a payload like any other.
    for argv in (["compute", "--class", "ordinary", "--n", "3", "--what", "num"], ["compute", "--class", "ordinary", "-h"]):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to write_end now fails with EPIPE
        try:
            proc = _cli_process(argv, write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, argv
        assert proc.stderr.splitlines() == ["cannot write output: [Errno 32] Broken pipe"], argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_write_to_full_device_exits_1_with_one_line():
    with open("/dev/full", "w") as full:
        proc = _cli_process(["compute", "--class", "ordinary", "--n", "3", "--what", "num"], full)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["cannot write output: [Errno 28] No space left on device"]


def test_import_loads_neither_the_process_pool_nor_fractions():
    code = (
        "import sys, subsum.cli; "
        "print([m for m in ('concurrent.futures.process', 'fractions', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    out = _python(["-c", code], capture_output=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_does_not_load_logging():
    # -I ignores PYTHONPATH, so the checkout's sources go on sys.path by hand.
    # Runs through main, stdout swapped out, cover parsing too: no argparse
    # and so no gettext or locale.  The second run prints warnings.
    src = str(Path(subsum.__file__).parents[1])
    code = (
        f"import io, sys; sys.path.insert(0, {src!r}); import subsum.cli; "
        "out, sys.stdout = sys.stdout, io.StringIO(); "
        "subsum.cli.main(['verify', '--conjecture', '9', '--max-n', '1', '--format', 'json']); "
        "subsum.cli.main(['verify', '--conjecture', 'all', '--max-n', '1', '--format', 'json']); "
        "sys.stdout = out; "
        "print([m for m in ('argparse', 'gettext', 'locale', 'logging', 'numbers') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert out.stderr.splitlines() == SKIP_WARNINGS


@pytest.mark.parametrize("setup", ["logging.basicConfig(stream=io.StringIO())", "pass"], ids=["host-handler", "none"])
def test_log_lines_go_to_stderr_whatever_the_host_logging_setup(setup):
    # A root handler installed first does not catch the warnings, and main
    # adds no handler to the root logger.
    code = (
        f"import io, logging, sys; from subsum import cli; {setup}; "
        "before = list(logging.getLogger().handlers); "
        "out, sys.stdout = sys.stdout, io.StringIO(); "
        "code = cli.main(['verify', '--conjecture', 'all', '--max-n', '1', '--format', 'json']); "
        "sys.stdout = out; "
        "assert logging.getLogger().handlers == before, logging.getLogger().handlers; "
        "sys.exit(code)"
    )
    proc = _python(["-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == SKIP_WARNINGS


def test_subsum_log_info_reports_each_conjecture_on_stderr(monkeypatch):
    argv = ["-m", "subsum.cli", "verify", "--conjecture", "8", "--max-n", "3"]
    assert _python(argv, capture_output=True).stderr == ""
    monkeypatch.setenv("SUBSUM_LOG", "info")
    proc = _python(argv, capture_output=True)
    assert proc.returncode == 0
    assert proc.stderr.startswith("INFO subsum: conjecture 8: AllHold in ")


def test_json_round_trip(capsys):
    for argv in (
        ["compute", "--class", "ordinary", "--n", "4", "--what", "num", "--format", "json"],
        ["compute", "--class", "ordinary", "--n", "4", "--what", "g", "--format", "json"],
        ["table", "--sequence", "t", "--max-n", "3", "--format", "json"],
        ["verify", "--conjecture", "9", "--max-n", "3", "--format", "json"],
    ):
        _, out = run(capsys, argv)
        parsed = json.loads(out)
        assert json.loads(json.dumps(parsed)) == parsed


def test_mutated_numerator_breaks_division_exit_1(capsys, monkeypatch):
    # A numerator that is not divisible by G must surface as exit 1 with
    # a diagnostic, not a traceback.
    def corrupted(n, pclass, engine):
        raise intpoly.NotDivisibleError("injected")

    monkeypatch.setattr(reduction, "num", corrupted)
    code = cli.main(["compute", "--class", "ordinary", "--n", "4", "--what", "num"])
    err = capsys.readouterr().err
    assert code == 1
    assert "pipeline bug" in err


def test_internal_value_error_exits_1(capsys, monkeypatch):
    # A library consistency error is a bug, not a bad flag: exit 1, never 2.
    def broken(seq):
        raise intpoly.NegativeCoefficientError("injected")

    monkeypatch.setattr(intpoly, "is_log_concave", broken)
    code = cli.main(["verify", "--conjecture", "4", "--max-n", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "internal error" in err and "NegativeCoefficientError" in err


def test_bad_jobs_exit_2():
    for jobs in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--conjecture", "8", "--max-n", "4", "--jobs", jobs])
        assert exc.value.code == 2, jobs


def test_conjecture_choices_come_from_registry():
    parse, default = cli._COMMANDS["verify"][2]["--conjecture"]
    assert parse.choices == [*verify.CONJECTURES, "all"]
    assert default is cli._REQUIRED


def test_engine_enumerate_reaches_every_pair(capsys, monkeypatch):
    real = reduction.num
    engines = set()

    def recording(n, pclass, engine):
        engines.add(engine)
        return real(n, pclass, engine)

    monkeypatch.setattr(reduction, "num", recording)
    # Engine "both" runs the streaming fold beside the DP at every pair.
    for cid in ("1", "lemma4"):
        code, _ = run(capsys, ["verify", "--conjecture", cid, "--max-n", "6", "--engine", "both", "--format", "json"])
        assert code == 0, cid
    assert engines == {"both"}


def test_engine_both_checks_conjecture1(capsys, monkeypatch):
    real_enum = reduction._num_star_enumerate

    def corrupted(n, pclass):
        star = real_enum(n, pclass)
        return oracles.naive_add(star, (1,)) if n == 2 else star

    monkeypatch.setattr(reduction, "_num_star_enumerate", corrupted)
    reduction.num.cache_clear()
    try:
        code, out = run(capsys, ["verify", "--conjecture", "1", "--max-n", "4", "--engine", "both", "--format", "json"])
    finally:
        reduction.num.cache_clear()
    assert code == 1
    record = json.loads(out)
    assert [f["n"] for f in record["failures"] if f.get("kind") == "engine-mismatch"] == [2]


def test_lemma4_builds_num_star_once_per_n(capsys, monkeypatch):
    real = reduction.num_star
    calls = []

    def counting(n, pclass, engine="dp"):
        calls.append((n, engine))
        return real(n, pclass, engine)

    monkeypatch.setattr(reduction, "num_star", counting)
    reduction.num.cache_clear()
    verify._nondivides_at_remainder.cache_clear()
    try:
        code, _ = run(capsys, ["verify", "--conjecture", "lemma4", "--max-n", "8", "--format", "json"])
        assert code == 0
        # n is certified at a root of unity; n mod d = 0..3 is decided by the full remainder.
        assert sorted(calls) == [(r, "dp") for r in range(0, 4)]
        calls.clear()
        code, _ = run(capsys, ["verify", "--conjecture", "lemma4", "--max-n", "8", "--engine", "both", "--format", "json"])
        assert code == 0
    finally:
        reduction.num.cache_clear()
    assert sorted(calls) == [(n, "both") for n in range(0, 9)]


def test_den_readers_build_no_num_star(capsys, monkeypatch):
    # den and G depend on (n, class) alone, so reading them builds no num*.
    real = reduction.num_star
    calls = []

    def counting(n, pclass, engine="dp"):
        calls.append((n, pclass))
        return real(n, pclass, engine)

    monkeypatch.setattr(reduction, "num_star", counting)
    reduction.num.cache_clear()
    try:
        code, out = run(capsys, ["verify", "--conjecture", "4", "--max-n", "8", "--format", "json"])
        assert code == 0
        assert len(json.loads(out)["witnesses"]) == 8
        for pclass in PartitionClass:
            for what in ("den", "g"):
                for expand in ([], ["--expand"]):
                    argv = ["compute", "--class", pclass.value, "--n", "9", "--what", what, *expand]
                    assert run(capsys, argv)[0] == 0, argv
    finally:
        reduction.num.cache_clear()
    assert calls == []
