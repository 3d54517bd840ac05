"""scripts/sweep_table.py: per-index table of a sweep report."""

import importlib.util
import io
import json
import sys
from pathlib import Path

from mplparity import cli, evaluate

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "sweep_table.py"
_spec = importlib.util.spec_from_file_location("sweep_table", _PATH)
sweep_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_table)


def _rows(out: str) -> dict:
    lines = out.splitlines()
    rows = {}
    for line in lines[1:lines.index("")]:
        k, _, rest = line.partition(")")
        rows[k + ")"] = rest.split()
    return rows


def test_main_report_from_a_file(tmp_path, capsys):
    report = tmp_path / "main.json"
    assert cli.main(["sweep", "--theorem", "main", "--depth-max", "1", "--weight-max", "2",
                     "--points", "3", "--out", str(report)]) == 0
    capsys.readouterr()
    assert sweep_table.main([str(report)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["index", "records", "max", "residual", "median",
                                           "skip", "error"]
    payload = json.loads(report.read_text())
    rows = _rows(out)
    assert list(rows) == ["(1,)", "(2,)"]
    for k, row in rows.items():
        residuals = sorted(r["residual"] for r in payload["records"] if str(tuple(r["k"])) == k)
        assert row == ["3", f"{residuals[-1]:.3e}", f"{residuals[1]:.3e}", "0", "0"]
    assert out.splitlines()[-1] == (
        f"summary: max_residual {payload['summary']['max_residual']:.3e}, n_error 0, n_fail 0, "
        "n_pass 6, n_points 6, n_records 6, n_skip 0, routes_independent True, tol 1.000e-08")


def test_reg_report_with_errors_from_stdin(tmp_path, monkeypatch, capsys):
    # with the panel budget cut to 1,000 panels the k = (2,) values at this
    # panel safety exhaust it, so the report holds error records, which carry
    # no residual
    monkeypatch.setattr(evaluate, "MAX_PANELS", 100)
    evaluate.clear_caches()
    report = tmp_path / "reg.json"
    assert cli.main(["sweep", "--theorem", "reg", "--region", "roots:2", "--depth-max", "1",
                     "--weight-max", "2", "--panel-safety", "0.001", "--out", str(report)]) == 1
    capsys.readouterr()
    payload = json.loads(report.read_text())
    monkeypatch.setattr(sys, "stdin", io.StringIO(report.read_text()))
    assert sweep_table.main(["-"]) == 0
    out = capsys.readouterr().out
    assert "max branch gap" in out.splitlines()[0]
    rows = _rows(out)
    gap = max(r["branch_gap"] for r in payload["records"] if r["k"] == [1])
    assert rows["(1,)"][0] == "4" and rows["(1,)"][3:] == [f"{gap:.3e}", "0", "0"]
    assert rows["(2,)"] == ["4", "-", "-", "-", "0", "4"]
    assert "n_error 4" in out.splitlines()[-1]
