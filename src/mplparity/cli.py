"""Command-line front end: single evaluations, single identity checks, seeded
verification sweeps, and the reduced invariant suite.

Reports are deterministic: a fixed run configuration (seed included) produces
byte-identical JSON, so reports can be diffed across code revisions.  Wall
clock timing therefore never enters the canonical payload, and the
presentation knobs (--out, --format, --workers) are excluded from the echoed
config: they do not change what was verified.  Human-oriented progress lines
go to stderr.

Argument syntax accepted by -z/--args (comma separated at the top level):
plain complex literals ("-2", "1.5+2j", "0.3i"), and the root-of-unity
shorthands "ru:N:j" and "(N,j)" for exp(2*pi*i*j/N).  Roots with 4j % N == 0
come from an exact table so that products of them stay exactly on the lattice
{1, i, -1, -i}; the regularized checks rely on exact ones to classify
divergent trailing pairs.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass, fields, replace
from functools import partial

from .numcore import DEFAULT_CONFIG, DomainError, EvalConfig, EvaluationError, domain_check, zeta
from .words import ArgVector, Index
from .evaluate import li
from .regularize import reg_value
from .parity import ParityReport, main_sides, mzv_sides, reg_sides
from .selftest import GROUPS, run_selftest

SCHEMA = 1

_THEOREM_MODE = {"main": "plain", "reg": "stuffle", "hirose": "stuffle"}
_THEOREM_TOL = {"main": 1e-8, "reg": 1e-7, "hirose": 1e-7}
_THEOREM_REGION = {"main": "annulus:1.3:3.0", "reg": "roots:2,4", "hirose": "none"}

# sampler geometry: keep every consecutive product clear of the closure of
# the positive real axis, otherwise panel integration starves near the path
_ANGLE_MARGIN = 0.15
_RAY_MARGIN = 0.1


class CliError(Exception):
    """Usage or configuration error; reported on stderr with exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    theorem: str = "main"
    mode: str | None = None
    branch: int | None = None
    index: tuple[int, ...] | None = None
    args: tuple[complex, ...] | None = None
    region: str | None = None
    depth_max: int = 2
    weight_max: int = 4
    points: int = 20
    seed: int = 0
    tol: float | None = None
    out: str | None = None
    format: str = "json"
    workers: int = 1
    only: tuple[str, ...] = ()
    corrupt_zeta: bool = False
    series_truncation: int | None = None
    panel_order: int | None = None
    panel_safety: float | None = None


# --- argument parsing ---------------------------------------------------------


def root_of_unity(n: int, j: int) -> complex:
    if n < 1:
        raise CliError(f"root order must be >= 1, got {n}")
    j %= n
    if (4 * j) % n == 0:
        return ((1 + 0j), 1j, (-1 + 0j), -1j)[(4 * j // n) % 4]
    return cmath.exp(2j * math.pi * j / n)


def _root_token(tok: str, parts: list[str], want: str) -> complex:
    """The root of unity named by the two integers of a ru:N:j or (N,j) token."""
    try:
        n, j = map(int, parts)
    except ValueError:
        raise CliError(f"bad root-of-unity token {tok!r}, want {want}")
    return root_of_unity(n, j)


def parse_complex_token(tok: str) -> complex:
    s = tok.strip().replace("−", "-")
    if s.startswith("ru:"):
        return _root_token(tok, s.split(":")[1:], "ru:N:j")
    if s.startswith("(") and s.endswith(")"):
        return _root_token(tok, s[1:-1].split(","), "(N,j)")
    for cand in (s, s.replace("i", "j")):
        try:
            return complex(cand)
        except ValueError:
            continue
    raise CliError(f"cannot parse complex number {tok!r}")


def _split_top_level(s: str) -> list[str]:
    out, cur, depth = [], [], 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [t.strip() for t in out if t.strip()]


def parse_args_spec(v) -> tuple[complex, ...]:
    """Argument entries from a -z string or a config-file list of strings,
    numbers and [re, im] pairs; CliError for an entry that is not finite."""
    out = []
    for item in _split_top_level(v) if isinstance(v, str) else v:
        if isinstance(item, str):
            w = parse_complex_token(item)
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            try:
                w = complex(float(item[0]), float(item[1]))
            except (TypeError, ValueError):
                raise CliError(f"cannot parse argument entry {item!r}")
        elif isinstance(item, (int, float)):
            w = complex(item)
        else:
            raise CliError(f"cannot parse argument entry {item!r}")
        if not cmath.isfinite(w):
            raise CliError(f"argument entry {item!r} is not finite")
        out.append(w)
    return tuple(out)


def parse_index_spec(v) -> tuple[int, ...]:
    """Index parts from a -k string or a config-file list; each part is an int
    or a decimal token, never a float or a bool."""
    items = [t for t in (x.strip() for x in v.split(",")) if t] if isinstance(v, str) else v
    parts = tuple(int(p) if isinstance(p, str) and p.strip().isdecimal() else p for p in items)
    if not parts or any(type(p) is not int or p < 1 for p in parts):
        raise CliError(f"index must be a nonempty list of positive integers, got {v!r}")
    return parts


_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}


# The options every subcommand takes: (flags, argparse keywords).  A --config
# value is checked against the same type and choices as its flag.
_FLAGS = (
    (("--theorem",), {"choices": ("main", "reg", "hirose")}),
    (("--mode",), {"choices": ("plain", "stuffle", "shuffle")}),
    (("--branch",), {"type": int, "choices": (1, -1),
                     "help": "log(-1) branch sign at argument exactly 1"}),
    (("-k", "--index"), {"dest": "index", "help": "index, e.g. 2,1"}),
    (("-z", "--args"), {"dest": "args",
                        "help": "arguments, e.g. -2,1.5+2j or ru:4:1,ru:4:3"}),
    (("--region",), {"help": "sweep argument region: annulus:LO:HI | roots:N1,N2 | none"}),
    (("--depth-max",), {"dest": "depth_max", "type": int}),
    (("--weight-max",), {"dest": "weight_max", "type": int}),
    (("--points",), {"type": int, "help": "samples per index (random regions only)"}),
    (("--seed",), {"type": int}),
    (("--tol",), {"type": float, "help": "pass/fail residual threshold"}),
    (("--out",), {"help": "write the report here instead of stdout"}),
    (("--format",), {"choices": ("json", "csv")}),
    (("--workers",), {"type": int}),
    (("--only",), {"action": "append", "help": "selftest group filter, repeatable"}),
    (("--corrupt-zeta",), {"dest": "corrupt_zeta", "action": "store_true",
                           "help": "negative-control hook: corrupt the constant table "
                                   "and demand the selftest notices"}),
    (("--series-truncation",), {"dest": "series_truncation", "type": int}),
    (("--panel-order",), {"dest": "panel_order", "type": int}),
    (("--panel-safety",), {"dest": "panel_safety", "type": float}),
)
_FLAG_OF = {kw.get("dest", flags[-1].lstrip("-")): (flags[-1], kw) for flags, kw in _FLAGS}
_COUNTS = ("workers", "points", "depth_max", "weight_max")   # integers >= 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplparity",
        description="evaluate multiple polylogarithms and verify their parity identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("eval", "evaluate one value"),
        ("check", "check one identity instance"),
        ("sweep", "seeded verification sweep over indices and arguments"),
        ("selftest", "run the reduced invariant suite"),
    ):
        p = sub.add_parser(name, help=blurb, argument_default=argparse.SUPPRESS)
        p.add_argument("params", nargs="*", metavar="k=..|z=..",
                       help="positional shorthand for --index / --args")
        p.add_argument("--config", help="JSON file mirroring the run configuration")
        for flags, kw in _FLAGS:
            p.add_argument(*flags, **kw)
    return parser


def _check_value(key: str, value):
    """value of run-config key `key` checked against the type and choices of its
    flag, whether it came from the command line or from --config; counts must
    also be >= 1.  Returns it (an int given for a float flag as a float)."""
    flag, kw = _FLAG_OF[key]
    kind, action = kw.get("type"), kw.get("action")
    if value is None and _DEFAULTS[key] is None:
        return value
    if kind is int:
        ok = type(value) is int and (key not in _COUNTS or value >= 1)
        want = "an integer >= 1" if key in _COUNTS else "an integer"
    elif kind is float:
        ok = type(value) in (int, float)
        want = "a number"
        value = float(value) if ok else value
    elif action == "store_true":
        ok, want = type(value) is bool, "true or false"
    elif action == "append":
        ok = isinstance(value, str) or (
            isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value))
        want = "a string or a list of strings"
    elif key in ("index", "args"):
        ok, want = isinstance(value, (str, list)), "a string or a list"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise CliError(f"{flag} must be {want}, got {value!r}")
    if "choices" in kw and value not in kw["choices"]:
        raise CliError(f"{flag} must be one of {list(kw['choices'])}, got {value!r}")
    return value


def parse_cli(argv=None) -> RunConfig:
    ns = vars(_build_parser().parse_args(argv))
    command = ns.pop("command")
    params = ns.pop("params", [])

    merged = dict(_DEFAULTS)
    config_path = ns.pop("config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(f"cannot read config file {config_path}: {e}")
        if not isinstance(file_cfg, dict):
            raise CliError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(_DEFAULTS) - {"command"}
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        file_cfg.pop("command", None)
        merged.update(file_cfg)
    for tok in params:
        if "=" not in tok:
            raise CliError(f"positional parameter {tok!r} must look like k=... or z=...")
        key, _, val = tok.partition("=")
        if key == "k":
            merged.setdefault("_pos_index", val)
        elif key == "z":
            merged.setdefault("_pos_args", val)
        else:
            raise CliError(f"unknown positional parameter {key!r}")
    pos_index = merged.pop("_pos_index", None)
    pos_args = merged.pop("_pos_args", None)
    # precedence: explicit flag > positional k=/z= > config file > defaults
    if pos_index is not None:
        merged["index"] = pos_index
    if pos_args is not None:
        merged["args"] = pos_args
    merged.update(ns)
    merged = {key: _check_value(key, value) for key, value in merged.items()}

    if merged["index"] is not None:
        merged["index"] = parse_index_spec(merged["index"])
    if merged["args"] is not None:
        merged["args"] = parse_args_spec(merged["args"])
    only = merged["only"] or ()
    if isinstance(only, str):
        only = (only,)
    merged["only"] = tuple(itertools.chain.from_iterable(
        t.split(",") for t in only))
    return RunConfig(command=command, **merged)


# --- shared plumbing ------------------------------------------------------------


def _overrides(rc: RunConfig) -> dict:
    """The evaluation knobs the run sets; the others keep their defaults."""
    return {key: getattr(rc, key) for key in ("series_truncation", "panel_order", "panel_safety")
            if getattr(rc, key) is not None}


def _mk_cfg(rc: RunConfig, branch: int | None = None) -> EvalConfig:
    """The run's evaluation config at branch, by default --branch or else +1;
    CliError if a knob is out of range."""
    if branch is None:
        branch = 1 if rc.branch is None else rc.branch
    try:
        return replace(DEFAULT_CONFIG, branch_at_one=branch, **_overrides(rc))
    except ValueError as e:
        raise CliError(str(e))


def _pair(w: complex) -> list[float]:
    return [w.real, w.imag]


def _config_echo(rc: RunConfig, theorem: str | None, mode: str | None,
                 tol: float | None, region: str | None) -> dict:
    return {
        "command": rc.command,
        "theorem": theorem,
        "mode": mode,
        "branch": rc.branch,
        "index": list(rc.index) if rc.index else None,
        "args": [_pair(w) for w in rc.args] if rc.args else None,
        "region": region,
        "depth_max": rc.depth_max,
        "weight_max": rc.weight_max,
        "points": rc.points,
        "seed": rc.seed,
        "tol": tol,
        "only": list(rc.only),
        "corrupt_zeta": rc.corrupt_zeta,
        "eval_overrides": _overrides(rc),
    }


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n",
                            extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buf.getvalue()


def _emit(rc: RunConfig, payload: dict, rows: list[dict], columns: list[str]) -> None:
    text = canonical_json(payload) if rc.format == "json" else _csv_text(rows, columns)
    if rc.out:
        with open(rc.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fmt_complex(re: float, im: float) -> str:
    return str(complex(re, im))


def _flat_check_row(rec: dict) -> dict:
    row = {
        "point": rec.get("point", 0),
        "theorem": rec.get("theorem", ""),
        "mode": rec.get("mode", ""),
        "branch": rec.get("branch", ""),
        "k": ",".join(str(p) for p in rec.get("k", [])),
        "z": ";".join(_fmt_complex(*w) for w in rec.get("z", [])),
        "residual": rec.get("residual", ""),
        "status": rec.get("status", ""),
        "star_methods": ";".join(rec.get("star_methods", [])),
        "inv_method": rec.get("inv_method", ""),
        "routes_independent": rec.get("routes_independent", ""),
        "branch_gap": rec.get("branch_gap", ""),
        "message": rec.get("message", ""),
    }
    for side in ("lhs", "rhs"):
        val = rec.get(side)
        row[f"{side}_re"] = val[0] if val else ""
        row[f"{side}_im"] = val[1] if val else ""
    return row


_CHECK_COLUMNS = ["point", "theorem", "mode", "branch", "k", "z",
                  "lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual", "status",
                  "star_methods", "inv_method", "routes_independent",
                  "branch_gap", "message"]


def _domain_error(rc: RunConfig, theorem: str | None, mode: str | None,
                  exc: Exception, family: str, bad: str) -> int:
    """Emit the error payload, with the products of the arguments that lie in
    the bad set, and note it on stderr; returns exit code 2."""
    violations = domain_check(rc.args or (), family, bad)
    payload = {
        "schema": SCHEMA,
        "config": _config_echo(rc, theorem, mode, rc.tol, None),
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "violations": [[i, j, _pair(w)] for i, j, w in violations],
        },
    }
    _emit(rc, payload, [{"error": str(exc)}], ["error"])
    _note(f"domain error: {exc}")
    return 2


# --- eval -----------------------------------------------------------------------


def cmd_eval(rc: RunConfig) -> int:
    if rc.index is None or rc.args is None:
        raise CliError("eval needs an index (-k) and arguments (-z)")
    if len(rc.index) != len(rc.args):
        raise CliError(f"index depth {len(rc.index)} != argument count {len(rc.args)}")
    mode = rc.mode or "plain"
    cfg = _mk_cfg(rc)
    k, z = Index(rc.index), ArgVector.of(rc.args)
    try:
        if mode == "plain":
            res = li(k, z, cfg)
            value, est, method = res.value, res.est_error, res.method
        else:
            value = reg_value(k, z, mode, cfg)
            est, method = None, "regularized"
    except DomainError as e:
        return _domain_error(rc, None, mode, e, "tails", "real_gt1")
    record = {
        "k": list(rc.index),
        "z": [_pair(w) for w in rc.args],
        "mode": mode,
        "branch": cfg.branch_at_one,
        "value": _pair(value),
        "est_error": est,
        "method": method,
    }
    payload = {"schema": SCHEMA,
               "config": _config_echo(rc, None, mode, None, None),
               "record": record}
    row = {"k": ",".join(map(str, rc.index)),
           "z": ";".join(_fmt_complex(*_pair(w)) for w in rc.args),
           "mode": mode, "branch": cfg.branch_at_one,
           "value_re": value.real, "value_im": value.imag,
           "est_error": "" if est is None else est, "method": method}
    _emit(rc, payload, [row],
          ["k", "z", "mode", "branch", "value_re", "value_im", "est_error", "method"])
    _note(f"value = {value} ({method})")
    return 0


# --- check ----------------------------------------------------------------------


def _theorem_domain(theorem: str) -> tuple[str, str]:
    return ("consecutive", "nonneg") if theorem == "main" else ("consecutive", "nonneg_not_one")


def _theorem_mode(rc: RunConfig) -> str:
    """--mode, or the theorem's default mode; CliError if the theorem is not
    defined in it."""
    mode = rc.mode or _THEOREM_MODE[rc.theorem]
    if rc.theorem == "main" and mode != "plain":
        raise CliError("--theorem main is an identity between plain values")
    if rc.theorem == "reg" and mode == "plain":
        raise CliError("--theorem reg needs --mode stuffle or shuffle")
    if rc.theorem == "hirose" and mode != "stuffle":
        raise CliError("--theorem hirose is defined with stuffle regularization")
    return mode


def _sides(theorem: str, mode: str, k: Index, entries, cfg: EvalConfig) -> ParityReport:
    """Both sides of the theorem's identity at (k, entries); hirose takes no entries."""
    if theorem == "main":
        return main_sides(k, ArgVector.of(entries), cfg)
    if theorem == "reg":
        return reg_sides(k, ArgVector.of(entries), mode, cfg)
    return mzv_sides(k, cfg)


def cmd_check(rc: RunConfig) -> int:
    theorem = rc.theorem
    if rc.index is None:
        raise CliError("check needs an index (-k)")
    mode = _theorem_mode(rc)
    if theorem == "hirose":
        if rc.args is not None:
            raise CliError("--theorem hirose takes no arguments (all equal 1)")
    elif rc.args is None:
        raise CliError(f"--theorem {theorem} needs arguments (-z)")
    elif len(rc.index) != len(rc.args):
        raise CliError(f"index depth {len(rc.index)} != argument count {len(rc.args)}")
    tol = rc.tol if rc.tol is not None else _THEOREM_TOL[theorem]
    domain = _theorem_domain(theorem)
    if theorem != "hirose" and domain_check(rc.args, *domain):
        exc = DomainError(f"arguments violate the {theorem} identity domain")
        return _domain_error(rc, theorem, mode, exc, *domain)
    try:
        rep = _sides(theorem, mode, Index(rc.index), rc.args, _mk_cfg(rc))
    except DomainError as e:
        return _domain_error(rc, theorem, mode, e, *domain)

    record = rep.to_record()
    record["status"] = "pass" if rep.residual < tol else "fail"
    payload = {"schema": SCHEMA,
               "config": _config_echo(rc, theorem, mode, tol, None),
               "record": record,
               "summary": {"n_points": 1,
                           "n_pass": int(record["status"] == "pass"),
                           "n_fail": int(record["status"] == "fail"),
                           "n_skip": 0,
                           "max_residual": rep.residual,
                           "tol": tol}}
    _emit(rc, payload, [_flat_check_row(record)], _CHECK_COLUMNS)
    _note(f"{theorem} k={rc.index} residual {rep.residual:.3e} [{record['status']}]")
    return 0 if record["status"] == "pass" else 1


# --- sweep ----------------------------------------------------------------------


def _enumerate_indices(depth_max: int, weight_max: int) -> list[tuple[int, ...]]:
    """Every index of depth <= depth_max and weight <= weight_max, by depth,
    lexicographic within a depth."""
    def of_depth(d: int, budget: int) -> list[tuple[int, ...]]:
        # d parts >= 1 summing to at most budget; each part leaves room for the rest
        if d == 0:
            return [()]
        return [(p,) + rest for p in range(1, budget - d + 2)
                for rest in of_depth(d - 1, budget - p)]

    return [parts for d in range(1, depth_max + 1) for parts in of_depth(d, weight_max)]


def _parse_region(region: str):
    if region == "none":
        return ("none",)
    kind, _, rest = region.partition(":")
    if kind == "annulus":
        lo, _, hi = rest.partition(":")
        try:
            lo_f, hi_f = float(lo), float(hi)
        except ValueError:
            raise CliError(f"bad annulus region {region!r}")
        if not (0 < lo_f <= hi_f):
            raise CliError(f"bad annulus region {region!r}")
        return ("annulus", lo_f, hi_f)
    if kind == "roots":
        try:
            ns = tuple(sorted({int(t) for t in rest.split(",") if t}))
        except ValueError:
            raise CliError(f"bad roots region {region!r}")
        if not ns or any(n < 1 for n in ns):
            raise CliError(f"bad roots region {region!r}")
        return ("roots", ns)
    raise CliError(f"unknown region {region!r}")


def _sample_annulus(d: int, rng: random.Random, lo: float, hi: float) -> tuple[complex, ...]:
    # sample the tail products, then divide out; legality is checked on every
    # consecutive product, with a margin so that panel steps stay bounded below
    for _ in range(1000):
        tails = [cmath.rect(rng.uniform(lo, hi),
                            rng.uniform(_ANGLE_MARGIN, 2 * math.pi - _ANGLE_MARGIN))
                 for _ in range(d)]
        entries = tuple(tails[i] / tails[i + 1] for i in range(d - 1)) + (tails[-1],)
        if domain_check(entries, "consecutive", "nonneg", margin=_RAY_MARGIN):
            continue
        return entries
    raise CliError(f"region annulus:{lo:g}:{hi:g} cannot be sampled at depth {d}: no draw "
                   f"kept every consecutive product more than {_RAY_MARGIN:g} from the "
                   f"nonnegative real axis")


def _roots_pool(ns: tuple[int, ...]) -> list[complex]:
    pool: list[complex] = []
    for n in ns:
        for j in range(n):
            w = root_of_unity(n, j)
            if w not in pool:
                pool.append(w)
    return pool


def _sweep_cases(rc: RunConfig, theorem: str, region) -> list[dict]:
    """Deterministic, execution-order-independent case list."""
    indices = _enumerate_indices(rc.depth_max, rc.weight_max)
    cases = []
    if theorem == "hirose" or region[0] == "none":
        for parts in indices:
            cases.append({"k": parts, "z": ()})
    elif region[0] == "annulus":
        _, lo, hi = region
        for parts in indices:
            for p in range(rc.points):
                rng = random.Random(f"{rc.seed}:{parts}:{p}")
                cases.append({"k": parts, "z": _sample_annulus(len(parts), rng, lo, hi)})
    else:
        pool = _roots_pool(region[1])
        for parts in indices:
            for combo in itertools.product(pool, repeat=len(parts)):
                cases.append({"k": parts, "z": combo})
    for i, case in enumerate(cases):
        case["point"] = i
    return cases


def _run_sweep_case(rc: RunConfig, mode: str, branches: tuple[int, ...], case: dict) -> list[dict]:
    """One sweep point; returns one record per branch (pure, picklable)."""
    theorem, parts, entries = rc.theorem, case["k"], case["z"]
    base = {"point": case["point"], "theorem": theorem, "mode": mode,
            "k": list(parts), "z": [_pair(w) for w in entries]}
    if theorem != "hirose":
        violations = domain_check(entries, *_theorem_domain(theorem))
        if violations:
            return [dict(base, status="skip",
                         violations=[[i, j, _pair(w)] for i, j, w in violations])]
    records = []
    for branch in branches:
        cfg = _mk_cfg(rc, branch)
        try:
            rep = _sides(theorem, mode, Index(parts), entries, cfg)
            records.append(dict(base, **rep.to_record()))
        except Exception as e:  # record and keep sweeping
            records.append(dict(base, branch=branch, status="error",
                                message=f"{type(e).__name__}: {e}"))
    if len(records) == 2 and all("residual" in r for r in records):
        gap = abs(records[0]["residual"] - records[1]["residual"])
        for rec in records:
            rec["branch_gap"] = gap
    return records


def cmd_sweep(rc: RunConfig) -> int:
    theorem = rc.theorem
    mode = _theorem_mode(rc)
    tol = rc.tol if rc.tol is not None else _THEOREM_TOL[theorem]
    region_spec = rc.region or _THEOREM_REGION[theorem]
    region = _parse_region(region_spec)
    if region[0] == "none" and theorem != "hirose":
        raise CliError(f"--theorem {theorem} needs an argument region")
    branches: tuple[int, ...] = (_mk_cfg(rc).branch_at_one,)
    if theorem == "reg" and rc.branch is None:
        branches = (1, -1)  # run both and report the gap

    cases = _sweep_cases(rc, theorem, region)
    run_case = partial(_run_sweep_case, rc, mode, branches)
    if rc.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(cases) // (rc.workers * 4))
        with ProcessPoolExecutor(max_workers=rc.workers) as pool:
            per_case = list(pool.map(run_case, cases, chunksize=chunk))
    else:
        per_case = [run_case(case) for case in cases]

    records = [rec for group in per_case for rec in group]
    max_residual = 0.0
    max_branch_gap = 0.0
    n_pass = n_fail = n_skip = n_error = 0
    routes_independent = True
    for rec in records:
        if rec.get("status") == "skip":
            n_skip += 1
            continue
        if rec.get("status") == "error":
            n_error += 1
            continue
        resid = rec["residual"]
        max_residual = max(max_residual, resid)
        max_branch_gap = max(max_branch_gap, rec.get("branch_gap", 0.0))
        rec["status"] = "pass" if resid < tol else "fail"
        if rec["status"] == "pass":
            n_pass += 1
        else:
            n_fail += 1
        if theorem == "main" and not rec.get("routes_independent", False):
            routes_independent = False

    summary = {
        "n_points": len(cases),
        "n_records": len(records),
        "n_pass": n_pass,
        "n_fail": n_fail,
        "n_skip": n_skip,
        "n_error": n_error,
        "max_residual": max_residual,
        "tol": tol,
    }
    if theorem == "main":
        summary["routes_independent"] = routes_independent
    if theorem == "reg" and len(branches) == 2:
        summary["max_branch_gap"] = max_branch_gap
    payload = {"schema": SCHEMA,
               "config": _config_echo(rc, theorem, mode, tol, region_spec),
               "records": records,
               "summary": summary}
    _emit(rc, payload, [_flat_check_row(r) for r in records], _CHECK_COLUMNS)
    _note(f"sweep {theorem}: {summary['n_records']} records over {summary['n_points']} points, "
          f"max residual {max_residual:.3e}, {n_fail} failed, {n_error} errors, {n_skip} skipped")
    return 0 if n_fail == 0 and n_error == 0 else 1


# --- selftest -------------------------------------------------------------------


def _corrupted_zeta(k: int) -> float:
    # deliberately wrong value at k = 2; the suite must notice
    return zeta(k) + (0.25 if k == 2 else 0.0)


def cmd_selftest(rc: RunConfig) -> int:
    try:
        results = run_selftest(only=rc.only, seed=rc.seed,
                               cfg=_mk_cfg(rc),
                               zeta_fn=_corrupted_zeta if rc.corrupt_zeta else None)
    except ValueError as e:
        raise CliError(str(e))
    records = [r.to_record() for r in results]
    n_fail = sum(not r.passed for r in results)
    payload = {"schema": SCHEMA,
               "config": _config_echo(rc, None, None, None, None),
               "records": records,
               "summary": {"n_invariants": len(records),
                           "n_pass": len(records) - n_fail,
                           "n_fail": n_fail,
                           "groups": list(GROUPS)}}
    rows = [{"group": r["group"], "invariant": r["invariant"], "module": r["module"],
             "n_cases": r["n_cases"], "passed": r["passed"],
             "witnesses": " | ".join(r["witnesses"])} for r in records]
    _emit(rc, payload, rows,
          ["group", "invariant", "module", "n_cases", "passed", "witnesses"])
    for r in results:
        tag = "ok " if r.passed else "FAIL"
        _note(f"{tag} {r.group}/{r.name} ({r.n_cases} cases)")
        for w in r.witnesses:
            _note(f"     {w}")
    _note(f"selftest: {len(records) - n_fail}/{len(records)} invariants passed")
    return 0 if n_fail == 0 else 1


_DISPATCH = {"eval": cmd_eval, "check": cmd_check, "sweep": cmd_sweep,
             "selftest": cmd_selftest}


def main(argv=None) -> int:
    try:
        rc = parse_cli(argv)
        return _DISPATCH[rc.command](rc)
    except (CliError, EvaluationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
