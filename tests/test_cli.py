"""Command-line surface: parsing, payload shapes, determinism, exit codes."""

import csv
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mplparity import cli, evaluate
from oracles import mp_polylog


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys, expect=0):
    code, out, err = run_cli(argv, capsys)
    assert code == expect, (code, err, out[:400])
    return json.loads(out)


# --- token parsing ----------------------------------------------------------------


def test_parse_complex_token_forms():
    assert cli.parse_complex_token("-2") == -2
    assert cli.parse_complex_token("−2") == -2  # unicode minus
    assert cli.parse_complex_token("1.5+2i") == 1.5 + 2j
    assert cli.parse_complex_token("1.5+2j") == 1.5 + 2j
    assert cli.parse_complex_token("3") == 3


def test_parse_root_shorthands_exact():
    assert cli.parse_complex_token("ru:4:1") == 1j
    assert cli.parse_complex_token("(4,3)") == -1j
    assert cli.parse_complex_token("ru:2:1") == -1
    assert cli.parse_complex_token("ru:8:2") == 1j
    w = cli.parse_complex_token("ru:8:1")
    assert w == pytest.approx(complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))


def test_root_of_unity_quarter_table():
    assert cli.root_of_unity(4, 0) == 1
    assert cli.root_of_unity(4, 2) == -1
    assert cli.root_of_unity(12, 9) == -1j
    assert cli.root_of_unity(3, 3) == 1


def test_bad_tokens_raise():
    with pytest.raises(cli.CliError):
        cli.parse_complex_token("ru:4")
    with pytest.raises(cli.CliError):
        cli.parse_complex_token("zzz")


def test_split_top_level():
    assert cli._split_top_level("a,(b,c),d") == ["a", "(b,c)", "d"]
    assert cli._split_top_level("(4,1),(2,1)") == ["(4,1)", "(2,1)"]


def test_parse_index_and_args_specs():
    assert cli.parse_index_spec("2,1") == (2, 1)
    assert cli.parse_index_spec([2, 1]) == (2, 1)
    assert cli.parse_args_spec("ru:4:1,-2") == (1j, -2)
    assert cli.parse_args_spec([[0.0, 1.0], "-2", 3]) == (1j, -2, 3)
    with pytest.raises(cli.CliError):
        cli.parse_index_spec("2,0")


# --- eval -------------------------------------------------------------------------


def test_eval_series_point(capsys):
    payload = run_json(["eval", "-k", "2", "-z", "0.5"], capsys)
    assert payload["schema"] == 1
    rec = payload["record"]
    want = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
    assert rec["value"][0] == pytest.approx(want, abs=1e-12)
    assert rec["value"][1] == 0
    assert rec["method"] == "series"
    assert payload["config"]["index"] == [2]


def test_eval_regularized_point(capsys):
    payload = run_json(["eval", "-k", "1,1", "-z", "1,1", "--mode", "stuffle"], capsys)
    rec = payload["record"]
    assert rec["method"] == "regularized"
    assert rec["value"][0] == pytest.approx(-math.pi ** 2 / 12, abs=1e-12)


def test_eval_human_note_on_stderr(capsys):
    code, out, err = run_cli(["eval", "-k", "1", "-z", "0.5"], capsys)
    assert code == 0
    json.loads(out)  # stdout is pure JSON
    assert "value" in err


def test_eval_domain_error(capsys):
    code, out, err = run_cli(["eval", "-k", "2,1", "-z", "3,0.5"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "DomainError"
    assert payload["error"]["violations"] == [[1, 2, [1.5, 0.0]]]


def test_eval_panel_budget_exhausted(capsys, monkeypatch):
    # a step of 0.001 times the distance to the nearest form needs about
    # ln(1/0.001)/0.001 panels near t = 1, and the budget grows with it: this
    # point marches 9,945 panels and matches mpmath
    argv = ["eval", "k=2", "z=0.99+0.01j", "--panel-safety", "0.001"]
    payload = run_json(argv, capsys)
    value = complex(*payload["record"]["value"])
    assert abs(value - mp_polylog(2, 0.99 + 0.01j)) <= 1e-12 * abs(value)
    # a budget that runs out (here at most 10 MAX_PANELS) is an
    # EvaluationError naming the forms, exit 2
    monkeypatch.setattr(evaluate, "MAX_PANELS", 100)
    evaluate.clear_caches()
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "panel budget exhausted after 1001 panels" in err
    assert "forms [(1.0099979596000817-0.010201999591920018j), 0j]" in err


@pytest.mark.parametrize("argv,want", [
    (["eval", "k=1", "z=nan"], "argument entry 'nan' is not finite"),
    (["eval", "k=1", "z=inf"], "argument entry 'inf' is not finite"),
    (["check", "--theorem", "main", "-k", "1", "-z", "nan"], "argument entry 'nan' is not finite"),
    (["eval", "--config", '{"index": [1], "args": [[NaN, 0]]}'],   # json reads NaN
     "argument entry [nan, 0] is not finite"),
    (["eval", "--config", '{"index": [1], "args": [["a", 0]]}'],
     "cannot parse argument entry ['a', 0]"),
], ids=["eval-nan", "eval-inf", "check-nan", "config-nan", "config-pair-not-a-number"])
def test_bad_argument_entries_rejected_before_evaluation(argv, want, tmp_path, monkeypatch,
                                                         capsys):
    # NaN passes the domain check (it compares false) and would march the
    # whole panel budget before failing
    if argv[1] == "--config":
        path = tmp_path / "run.json"
        path.write_text(argv[2])
        argv = argv[:2] + [str(path)]

    def no_evaluation(*args, **kw):
        raise AssertionError("evaluated a bad argument")

    monkeypatch.setattr(cli, "li", no_evaluation)
    monkeypatch.setattr(cli, "_sides", no_evaluation)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {want}")


BAD_INDEX = "error: index must be a nonempty list of positive integers"


@pytest.mark.parametrize("argv,want", [
    (["eval", "k=x", "z=0.5"], BAD_INDEX),
    (["eval", "k=1.5", "z=0.5"], BAD_INDEX),
    (["eval", "k=true", "z=0.5"], BAD_INDEX),
    (["eval", "k=1", "z=ru:x:1"], "error: bad root-of-unity token 'ru:x:1', want ru:N:j"),
    (["eval", "k=1", "z=(3,x)"], "error: bad root-of-unity token '(3,x)', want (N,j)"),
    (["eval", "--config", '{"index": "1,x", "args": [0.5]}'], BAD_INDEX),
    (["eval", "--config", '{"index": [1.5], "args": [0.5]}'], BAD_INDEX),
    (["eval", "--config", '{"index": [true, 2], "args": [0.5, 0.5]}'], BAD_INDEX),
], ids=["k-letter", "k-float", "k-bool-word", "ru-letter", "pair-letter",
        "config-string-letter", "config-float", "config-bool"])
def test_malformed_index_or_root_literal_exits_2(argv, want, tmp_path, capsys):
    # int() would take 1.5 and True as 1, and raise a bare ValueError on 'x'
    if argv[1] == "--config":
        path = tmp_path / "run.json"
        path.write_text(argv[2])
        argv = argv[:2] + [str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(want)


def test_index_spec_takes_ints_and_decimal_tokens_only():
    assert cli.parse_index_spec(["2", 1]) == (2, 1)
    assert all(type(p) is int for p in cli.parse_index_spec(" 2 , 1"))
    for bad in ([1.0], [True], [2, False], "2,+1", "1e1", [[1]]):
        with pytest.raises(cli.CliError):
            cli.parse_index_spec(bad)


# --- check ------------------------------------------------------------------------


def test_check_main_passes(capsys):
    payload = run_json(["check", "--theorem", "main", "-k", "2", "--args=-2"], capsys)
    assert payload["schema"] == 1
    rec = payload["record"]
    assert rec["theorem"] == "main"
    assert rec["status"] == "pass"
    assert payload["summary"]["n_pass"] == 1
    assert payload["summary"]["max_residual"] < 1e-8


def test_check_main_star_is_one_route(capsys):
    # the star at z is one value by one route; here panels, and the value at
    # 1/z, inside the unit polydisk, comes by series
    payload = run_json(["check", "--theorem", "main", "-k", "1,2,1",
                        "--args=-1.3+0.7j,0.9-1.1j,-0.6-1.7j"], capsys)
    rec = payload["record"]
    assert rec["status"] == "pass"
    assert rec["star_methods"] == ["panels"] and rec["inv_method"] == "series"
    assert rec["routes_independent"] is True


def test_check_fails_at_tiny_tol(capsys):
    code, out, _ = run_cli(
        ["check", "--theorem", "hirose", "-k", "1,2", "--tol", "1e-30"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["record"]["status"] == "fail"


def test_check_hirose_forbids_z(capsys):
    code, _, err = run_cli(["check", "--theorem", "hirose", "-k", "2", "-z", "1"],
                           capsys)
    assert code == 2 and "argument" in err


def test_check_main_mode_validation(capsys):
    code, _, _ = run_cli(
        ["check", "--theorem", "main", "-k", "2", "--args=-2", "--mode", "stuffle"],
        capsys)
    assert code == 2


@pytest.mark.parametrize("theorem,mode", [("hirose", "shuffle"), ("hirose", "plain"),
                                          ("reg", "plain"), ("main", "stuffle")])
def test_sweep_rejects_a_mode_as_check_does(theorem, mode, capsys):
    # sweep and check share one theorem/mode rule, message included
    args = [] if theorem == "hirose" else ["--args=-2"]
    check = run_cli(["check", "--theorem", theorem, "--mode", mode, "-k", "2", *args], capsys)
    sweep = run_cli(["sweep", "--theorem", theorem, "--mode", mode], capsys)
    assert check[0] == sweep[0] == 2
    assert check[1] == sweep[1] == ""
    assert sweep[2] == check[2] and sweep[2].startswith(f"error: --theorem {theorem} ")


def test_check_domain_guard(capsys):
    code, out, _ = run_cli(["check", "--theorem", "main", "-k", "1", "-z", "2"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_check_reg_each_branch(capsys):
    for branch in ("1", "-1"):
        payload = run_json(
            ["check", "--theorem", "reg", "-k", "1,1", "-z", "ru:4:1,(4,3)",
             "--branch", branch], capsys)
        rec = payload["record"]
        assert rec["branch"] == int(branch)
        assert rec["residual"] < 1e-7


# --- sweep ------------------------------------------------------------------------


def test_sweep_main_small(tmp_path, capsys):
    out = tmp_path / "main.json"
    code, _, _ = run_cli(
        ["sweep", "--theorem", "main", "--depth-max", "1", "--weight-max", "2",
         "--points", "3", "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["summary"]["n_fail"] == 0
    assert payload["summary"]["n_error"] == 0
    assert payload["summary"]["max_residual"] < 1e-8
    assert payload["summary"]["routes_independent"] is True
    ks = {tuple(rec["k"]) for rec in payload["records"]}
    assert ks == {(1,), (2,)}


def test_sweep_determinism_and_workers(tmp_path, capsys):
    argv = ["sweep", "--theorem", "reg", "--depth-max", "1", "--weight-max", "2",
            "--seed", "3"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert cli.main(argv + ["--out", str(c), "--workers", "2"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def _canonical_hashes():
    path = Path(__file__).resolve().parent.parent / "scripts" / "canonical_hashes.py"
    spec = importlib.util.spec_from_file_location("canonical_hashes", path)
    hashes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hashes)
    return hashes


def test_canonical_hashes_sweep_drift(capsys):
    # the drift line of scripts/canonical_hashes.py --against, on one sweep
    # report and a copy with one rhs moved by 1e-13 relative
    hashes = _canonical_hashes()
    code, out, _ = run_cli(["sweep", "--theorem", "main", "--depth-max", "1",
                            "--weight-max", "2", "--points", "2"], capsys)
    assert code == 0
    moved = json.loads(out)
    rec = moved["records"][1]
    scale = max(1.0, abs(complex(*rec["rhs"])))
    rec["rhs"][0] += 1e-13 * scale
    rec["residual"] = 0.5
    line = hashes.sweep_drift(json.dumps(moved).encode(), out.encode())
    head, res = line.split(", max residual ")
    assert head.startswith("4 records, max rel change lhs 0 rhs ")
    assert float(head.rsplit(" ", 1)[1]) == pytest.approx(1e-13, rel=1e-2)
    assert res.startswith("0.5 vs ")
    del moved["records"][0]
    assert hashes.sweep_drift(json.dumps(moved).encode(), out.encode()) \
        == "record counts differ: 3 vs 4"


def test_canonical_hashes_eval_drift(capsys):
    # the eval drift line: relative change of value and of est_error
    hashes = _canonical_hashes()
    code, out, _ = run_cli(["eval", "k=2,1", "z=-1.5,2j"], capsys)
    assert code == 0
    moved = json.loads(out)
    rec = moved["record"]
    rec["value"][1] += 1e-13 * max(1.0, abs(complex(*rec["value"])))
    est = rec["est_error"]
    rec["est_error"] = 2 * est
    line = hashes.eval_drift(json.dumps(moved).encode(), out.encode())
    head, tail = line.split(", est_error ")
    assert head.startswith("rel change value ")
    assert float(head.rsplit(" ", 1)[1]) == pytest.approx(1e-13, rel=1e-2)
    assert tail == f"0.5 ({2 * est:.3g} vs {est:.3g})"
    assert hashes.eval_drift(out.encode(), out.encode()) \
        == f"rel change value 0, est_error 0 ({est:.3g} vs {est:.3g})"


def test_canonical_hashes_selftest_drift(capsys):
    # the selftest drift line names the invariants whose pass flag or case count moved
    hashes = _canonical_hashes()
    code, out, _ = run_cli(["selftest", "--only", "oracle,probe"], capsys)
    assert code == 0
    assert hashes.selftest_drift(out.encode(), out.encode()) \
        == "invariants differing in pass flag or case count: none"
    moved = json.loads(out)
    oracle, probe = moved["records"]
    oracle["passed"] = False
    oracle["witnesses"] = ["a gap"]
    probe["n_cases"] += 1
    line = hashes.selftest_drift(json.dumps(moved).encode(), out.encode())
    assert line == ("invariants differing in pass flag or case count: "
                    f"oracle/series-vs-panels passed False vs True, cases 12 vs 12; "
                    f"probe/small-argument passed True vs True, "
                    f"cases {probe['n_cases']} vs {probe['n_cases'] - 1}")


def test_canonical_hashes_exit_status(monkeypatch, capsys):
    # --against exits 1 when any of the canonical outputs differ; canned runs, no subprocesses
    hashes = _canonical_hashes()
    report = {"records": [{"point": 0, "k": [1], "z": [[-2.0, 0.0]], "branch": 1,
                           "mode": "plain", "lhs": [1.0, 0.0], "rhs": [1.0, 0.0],
                           "residual": 0.0}]}

    reports = {"sweep": report,
               "eval": {"record": {"value": [1.0, 0.0], "est_error": 1e-15}},
               "selftest": {"records": [{"group": "oracle", "invariant": "series-vs-panels",
                                         "passed": True, "n_cases": 12}]}}

    def canned(differ):
        def run(src, argv):
            out = json.dumps(reports[argv[0]])
            if str(src) == "other" and argv[0] in differ:
                out += " "
            return subprocess.CompletedProcess(argv, 0, out.encode(), b"")
        return run

    for argv, differ, want in (
            (["--against", "other"], (), 0),
            (["--against", "other"], ("selftest",), 1),
            (["--against", "other"], ("eval",), 1),
            (["--against", "other"], ("sweep",), 1),
            ([], ("sweep",), 0)):
        monkeypatch.setattr(hashes, "run", canned(differ))
        monkeypatch.setattr(sys, "argv", ["canonical_hashes.py", *argv])
        assert hashes.main() == want, (argv, differ)
        lines = capsys.readouterr().out.splitlines()
        drift = [line for line in lines if line.startswith("    ")]
        assert len(lines) == len(hashes.RUNS) + len(drift)
        # one drift line per run that differs, sweep, eval or selftest
        assert len(drift) == (sum(run[0] in differ for run in hashes.RUNS) if argv else 0)


def test_sweep_hirose_enumerates(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _, _ = run_cli(
        ["sweep", "--theorem", "hirose", "--depth-max", "2", "--weight-max", "3",
         "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    ks = [tuple(rec["k"]) for rec in payload["records"]]
    assert ks == [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1)]
    assert payload["summary"]["max_residual"] < 1e-7


def test_sweep_reg_branch_gap(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        ["sweep", "--theorem", "reg", "--depth-max", "1", "--weight-max", "2",
         "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["max_branch_gap"] < 1e-9
    branches = {rec["branch"] for rec in payload["records"]}
    assert branches == {1, -1}


def test_sweep_fail_exit(tmp_path, capsys):
    out = tmp_path / "f.json"
    code, _, _ = run_cli(
        ["sweep", "--theorem", "main", "--depth-max", "1", "--weight-max", "1",
         "--points", "2", "--tol", "1e-30", "--out", str(out)], capsys)
    assert code == 1
    assert json.loads(out.read_text())["summary"]["n_fail"] > 0


def test_sweep_records_evaluation_error_per_point(capsys, monkeypatch):
    argv = ["sweep", "--theorem", "reg", "--region", "roots:2", "--depth-max", "1",
            "--weight-max", "2", "--branch", "1", "--panel-safety", "0.001"]
    payload = run_json(argv, capsys)
    status = {(tuple(r["k"]), r["z"][0][0]): r["status"] for r in payload["records"]}
    assert status == {((1,), 1.0): "pass", ((1,), -1.0): "pass",
                      ((2,), 1.0): "pass", ((2,), -1.0): "pass"}
    # with the budget cut to 1,000 panels, far below the 6,912-12,718 that
    # the k = (2,) points need, each becomes an error record and the rest run on
    monkeypatch.setattr(evaluate, "MAX_PANELS", 100)
    evaluate.clear_caches()
    payload = run_json(argv, capsys, expect=1)
    status = {(tuple(r["k"]), r["z"][0][0]): r["status"] for r in payload["records"]}
    assert status == {((1,), 1.0): "pass", ((1,), -1.0): "pass",
                      ((2,), 1.0): "error", ((2,), -1.0): "error"}
    assert payload["summary"]["n_error"] == 2
    for rec in payload["records"]:
        if rec["status"] == "error":
            assert rec["message"].startswith("EvaluationError: panel budget exhausted after 1001 panels")


def test_enumerate_indices_matches_product_filter():
    # the pruned enumeration returns what filtering the full product did, in order
    for d in range(1, 6):
        for w in range(1, 6):
            ref = [parts for depth in range(1, d + 1)
                   for parts in itertools.product(range(1, w + 1), repeat=depth)
                   if sum(parts) <= w]
            assert cli._enumerate_indices(d, w) == ref, (d, w)


def test_enumerate_indices_deep_is_fast():
    # filtering all w^d tuples would walk 4^12 of them here, about 5 s
    start = time.perf_counter()
    assert len(cli._enumerate_indices(12, 4)) == 15
    assert time.perf_counter() - start < 0.5


def test_sweep_unsamplable_annulus(capsys):
    # every point of this annulus lies within the sampler's margin of the
    # nonnegative real axis, so no argument can be drawn
    code, out, err = run_cli(
        ["sweep", "--theorem", "main", "--region", "annulus:0.01:0.02",
         "--depth-max", "1", "--weight-max", "2", "--points", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "annulus:0.01:0.02" in err and "depth 1" in err


@pytest.mark.parametrize("flag,key", [("--depth-max", "depth_max"),
                                      ("--weight-max", "weight_max")])
def test_sweep_rejects_empty_index_range(flag, key, tmp_path, capsys):
    # a bound below 1 leaves no index to check; a sweep over nothing must not pass
    code, out, err = run_cli(["sweep", "--theorem", "hirose", flag, "0"], capsys)
    assert code == 2 and out == ""
    assert f"{flag} must be an integer >= 1" in err
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"theorem": "hirose", key: 0}))
    code, out, err = run_cli(["sweep", "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert f"{flag} must be an integer >= 1" in err


@pytest.mark.parametrize("key", ["workers", "points", "depth_max", "weight_max"])
def test_config_count_must_be_an_integer(key, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"theorem": "hirose", key: "3"}))
    code, out, err = run_cli(["sweep", "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert f"--{key.replace('_', '-')} must be an integer >= 1" in err


@pytest.mark.parametrize("cfg,want", [
    ({"branch": 2}, "--branch must be one of [1, -1], got 2"),
    ({"theorem": "nosuch"}, "--theorem must be one of ['main', 'reg', 'hirose'], got 'nosuch'"),
    ({"seed": "3"}, "--seed must be an integer, got '3'"),
])
def test_config_values_are_checked_like_their_flags(cfg, want, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["check", "-k", "2", "--args=-2", "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert want in err


_KNOBS = [("panel_order", 3, "panel_order too small"),
          ("series_truncation", 4, "series_truncation too small"),
          ("panel_safety", 0.9, "panel_safety must sit in (0, 0.8)")]


@pytest.mark.parametrize("key,value,want", _KNOBS)
@pytest.mark.parametrize("argv", [
    ["check", "-k", "2", "--args=-2"],
    ["eval", "k=2", "z=0.5"],
    ["sweep", "--theorem", "reg", "--region", "roots:2", "--depth-max", "1", "--weight-max", "2"],
    ["selftest"],
], ids=["check", "eval", "sweep-both-branches", "selftest"])
def test_out_of_range_eval_knob_exits_2(argv, key, value, want, tmp_path, capsys):
    # EvalConfig rejects the value; the CLI reports it as a usage error
    flag = ["--" + key.replace("_", "-"), str(value)]
    code, out, err = run_cli(argv + flag, capsys)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: {want}"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: value}))
    code, out, err = run_cli(argv + ["--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: {want}"


def test_nonfinite_panel_value_exits_2(capsys):
    # the form 1/z lies 1e-8 from the path: the Taylor coefficients overflow
    code, out, err = run_cli(["eval", "k=1", "z=2-4e-8i"], capsys)
    assert code == 2 and out == ""
    assert "non-finite panel value" in err


def test_nonfinite_panel_value_is_the_only_stderr_line():
    # a fresh interpreter, where numpy would warn once per source line: the
    # overflowing march ends in the typed error alone
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "mplparity.cli", "eval", "k=1", "z=2-4e-8i"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: non-finite panel value")


def test_sweep_records_a_nonfinite_point_as_an_error():
    case = {"k": (1,), "z": (2 - 4e-8j,), "point": 0}
    [rec] = cli._run_sweep_case(cli.RunConfig(command="sweep"), "plain", (1,), case)
    assert rec["status"] == "error"
    assert rec["message"].startswith("EvaluationError: non-finite panel value")


# --- config files -------------------------------------------------------------------


def test_config_file_round_trip(tmp_path, capsys):
    cfg = {"command": "check", "theorem": "reg", "mode": "stuffle",
           "index": [1, 1], "args": ["ru:4:1", "(4,3)"], "branch": 1}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    payload = run_json(["check", "--config", str(path)], capsys)
    assert payload["config"]["theorem"] == "reg"
    assert payload["record"]["z"] == [[0.0, 1.0], [0.0, -1.0]]


def test_config_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"theorem": "main", "speed": "fast"}))
    code, _, err = run_cli(["check", "--config", str(path), "-k", "1", "--args=-2"],
                           capsys)
    assert code == 2 and "speed" in err


def test_flag_beats_config(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"index": [2], "args": ["-2"]}))
    payload = run_json(["eval", "--config", str(path), "-k", "3"], capsys)
    assert payload["config"]["index"] == [3]
    assert payload["config"]["args"] == [[-2.0, 0.0]]


def test_positional_specs(capsys):
    # leading-dash argument values go through k=/z= positionals
    payload = run_json(["eval", "k=2", "z=-2"], capsys)
    assert payload["config"]["index"] == [2]
    assert payload["config"]["args"] == [[-2.0, 0.0]]


# --- formats ------------------------------------------------------------------------


def test_csv_output(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        ["check", "--theorem", "main", "k=2,1", "z=-1.5,2i",
         "--format", "csv", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["point", "theorem", "mode", "branch"]
    assert len(lines) == 2
    assert "pass" in lines[1]


def test_csv_stdout_matches_json_values(capsys):
    base = ["check", "--theorem", "main", "-k", "2", "--args=-2"]
    payload = run_json(base, capsys)
    code, out, _ = run_cli(base + ["--format", "csv"], capsys)
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["residual"]) == payload["record"]["residual"]


# --- selftest -----------------------------------------------------------------------


def test_selftest_clean(capsys):
    payload = run_json(["selftest", "--seed", "1", "--format", "json"], capsys)
    assert payload["schema"] == 1
    assert payload["summary"]["n_fail"] == 0
    groups = {rec["group"] for rec in payload["records"]}
    assert groups == {"wordalg", "rho", "oracle", "deriv", "probe"}
    assert all(rec["passed"] for rec in payload["records"])


def test_selftest_only_filter(capsys):
    payload = run_json(["selftest", "--only", "wordalg,rho"], capsys)
    groups = {rec["group"] for rec in payload["records"]}
    assert groups == {"wordalg", "rho"}


def test_selftest_unknown_group(capsys):
    code, _, _ = run_cli(["selftest", "--only", "nosuch"], capsys)
    assert code == 2


def test_selftest_corrupt_zeta_trips(capsys):
    code, out, _ = run_cli(["selftest", "--corrupt-zeta", "--only", "rho"], capsys)
    assert code == 1
    payload = json.loads(out)
    failed = [rec for rec in payload["records"] if not rec["passed"]]
    assert failed and all(rec["witnesses"] for rec in failed)
