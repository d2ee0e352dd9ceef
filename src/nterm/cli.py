"""Command-line front end.

Commands: norm, profile, aspace, democracy, experiment. Global flags --seed,
--out-dir, --format. Each command returns its stdout text and output files;
main writes them and a manifest (parameters, seed, versions, input hashes,
outputs, wall time); rerunning a manifest's command reproduces byte-identical
CSV output. Exit codes: 0 ok, 2 parse error, 3 feasibility/cap, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .democracy import democracy_profile, property_h_check
from .errors import FeasibilityError, InputFileError, NumericError, ParseError, finite
from .experiments import (
    bernstein_verifier,
    cor72_schedule,
    cor73_schedule,
    embedding_verifier,
    jackson_verifier,
    nonlinearity_demo,
    prop71_witness,
    rate_fit,
    standard_test_set,
    stechkin_check,
)
from .greedy import METHODS, aspace_norm, gamma_profile, sigma_profile
from .indices import format_index
from .lorentz import lorentz_norm
from .sequences import Sequence
from .spaces import parse_space, space_norm
from .weights import parse_weight


def _parse_q(text):
    text = str(text)
    q = math.inf if text in ("inf", "infinity", "oo") else finite(text, "q")
    if not q > 0:
        raise ParseError("q must be positive")
    return q


def _parse_n_list(text):
    """N lists: "1,2,3", ranges "1..8", geometric ellipses "2,4,...,1024";
    every N must be at least 1."""
    text = str(text).strip()
    try:
        parts = [p.strip() for p in text.split(",")]
        if ".." in text and "..." not in text:
            lo, hi = text.split("..")
            out = list(range(int(lo), int(hi) + 1))
        elif "..." in parts:
            i = parts.index("...")
            head = [int(p) for p in parts[:i]]
            last = int(parts[i + 1])
            if len(head) < 2:
                raise ParseError("ellipsis needs two leading terms")
            if head[1] <= head[0]:
                raise ParseError("ellipsis needs increasing leading terms")
            out = list(head)
            ratio = head[1] / head[0] if head[0] else 0.0
            diff = head[1] - head[0]
            geometric = ratio >= 2 and ratio == int(ratio)
            while out[-1] < last:
                nxt = out[-1] * ratio if geometric else out[-1] + diff
                out.append(int(round(nxt)))
            out = [n for n in out if n <= last]
        else:
            out = [int(p) for p in parts]
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad N list {text!r}: {exc}") from exc
    if any(n < 1 for n in out):
        raise ParseError(f"bad N list {text!r}: every N must be at least 1")
    return out


def _atomic_write(path, data):
    """Write data to path through a temporary file in the same directory; on
    any error the temporary file is removed and the error re-raised."""
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
        )
    return buf.getvalue()


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if hasattr(o, "__dict__"):
        return o.__dict__
    return str(o)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def _json_text(obj):
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True, default=_json_default) + "\n"


class Run:
    """Collects parameters and outputs and writes the manifest."""

    def __init__(self, args, command):
        self.command = command
        self.args = args
        self.t0 = time.monotonic()
        self.params = {}
        self.input_hashes = {}
        self.outputs = []

    def manifest_hash(self):
        core = {"command": self.command, "params": self.params, "seed": self.args.seed}
        return hashlib.sha256(
            json.dumps(core, sort_keys=True, default=_json_default).encode()
        ).hexdigest()

    def emit(self, name, text):
        path = os.path.join(self.args.out_dir, name)
        _atomic_write(path, text)
        self.outputs.append(path)

    def finish(self):
        manifest = {
            "command": self.command,
            "params": self.params,
            "seed": self.args.seed,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "nterm": __version__,
            },
            "input_hashes": self.input_hashes,
            "outputs": self.outputs,
            "manifest_hash": self.manifest_hash(),
            "wall_time_s": round(time.monotonic() - self.t0, 3),
        }
        if self.args.out_dir:
            self.emit(f"{self.command.replace(' ', '_')}_manifest.json", _json_text(manifest))


def _load_sequence(path, kind, run):
    try:
        with open(path, "rb") as fh:
            run.input_hashes[path] = hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from exc
    return Sequence.from_csv(path, kind)


# ---------------------------------------------------------------------------
# commands: each returns (stdout text, [(output file name, text), ...])
# ---------------------------------------------------------------------------

def _table(args, header, rows):
    """(stdout, CSV text) of a table: stdout is the CSV, or JSON rows under --format json."""
    text = _csv_text(header, rows)
    if args.format == "json":
        return _json_text([dict(zip(header, row)) for row in rows]), text
    return text, text


def _value_report(args, run, value):
    value = float(value)
    summary = _json_text({"value": value, "manifest_hash": run.manifest_hash()})
    out = summary if args.format == "json" else repr(value) + "\n"
    return out, [(f"{args.cmd}_summary.json", summary)]


def _summary_report(run, stem, res, csv_name, header, rows):
    """An experiment result printed as JSON, with its rows as a CSV file."""
    res["manifest_hash"] = run.manifest_hash()
    summary = _json_text(res)
    return summary + "\n", [(csv_name, _csv_text(header, rows)),
                            (f"{stem}_summary.json", summary)]


def _democracy_report(args, run, spec, n_list, strategy):
    prof = democracy_profile(spec, n_list, strategy=strategy)
    header = ["N", "h_ell", "h_r", "method", "bound_direction"]
    out, text = _table(args, header, [[getattr(r, k) for k in header] for r in prof.rows])
    summary = {"checks": prof.checks, "rho": prof.rho, "manifest_hash": run.manifest_hash()}
    if len(prof.rows) >= 4:
        for k in ("h_ell", "h_r"):
            summary[f"{k}_fit"] = rate_fit([(r.N, getattr(r, k)) for r in prof.rows],
                                           drop_first_decade=False)
    return out, [("democracy.csv", text), ("democracy_summary.json", _json_text(summary))] + [
        (f"attaining_N{r.N}_{side}.csv", _csv_text(
            ["index", "coefficient"], [(format_index(i), 1.0) for i in r.attaining[side]]))
        for r in prof.rows if r.method == "exhaustive" for side in ("min", "max")]


def cmd_norm(args, run):
    if args.space == "lorentz-seq":
        if len(args.rest) != 3:
            raise ParseError("norm lorentz-seq needs: <weight> <q> <sequence.csv>")
        w = parse_weight(args.rest[0])
        q = _parse_q(args.rest[1])
        seq = _load_sequence(args.rest[2], "integer", run)
        value = lorentz_norm(seq, w, q)
        run.params = {"weight": args.rest[0], "q": args.rest[1], "sequence": args.rest[2]}
    else:
        spec = parse_space(args.space)
        if len(args.rest) != 1:
            raise ParseError("norm needs: norm <space> <sequence.csv>")
        seq = _load_sequence(args.rest[0], spec.universe, run)
        value = space_norm(spec, seq)
        run.params = {"space": args.space, "sequence": args.rest[0]}
    return _value_report(args, run, value)


def cmd_profile(args, run):
    spec = parse_space(args.space)
    seq = _load_sequence(args.sequence, spec.universe, run)
    run.params = {"space": args.space, "sequence": args.sequence,
                  "kind": args.kind, "n_max": args.n_max, "method": args.method}
    prof = (sigma_profile(seq, spec, method=args.method) if args.kind == "sigma"
            else gamma_profile(seq, spec))
    rows = [(N, v, f) for N, v, f in prof.rows() if args.n_max is None or N <= args.n_max]
    out, text = _table(args, ["N", "value", "exact_flag"], rows)
    return out, [("profile.csv", text)]


def cmd_aspace(args, run):
    spec = parse_space(args.space)
    seq = _load_sequence(args.sequence, spec.universe, run)
    run.params = {"space": args.space, "sequence": args.sequence, "alpha": args.alpha,
                  "q": args.q, "kind": args.kind, "form": args.form}
    return _value_report(args, run, aspace_norm(seq, args.alpha, _parse_q(args.q), spec,
                                                error_kind=args.kind, form=args.form))


def cmd_democracy(args, run):
    spec = parse_space(args.space)
    n_list = _parse_n_list(args.N)
    run.params = {"space": args.space, "N": n_list, "strategy": args.strategy}
    return _democracy_report(args, run, spec, n_list, args.strategy)


# experiment flags and their argparse types; --config and --set give the same
# keys as text
EXPERIMENT_FLAGS = {"space": str, "weight": str, "q": str, "direction": str, "schedule": str,
                    "N": str, "alpha": float, "p": float, "K": int, "support": int,
                    "trials": int, "samples": int, "n": int}
# least accepted value of the integer keys
LEAST = {"K": 1, "support": 2, "trials": 1, "samples": 1, "n": 1}


def _experiment_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputFileError(f"{args.config}: {exc.strerror or exc}") from exc
        try:
            loaded = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"bad config {args.config!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParseError(f"config {args.config!r} must be a JSON object")
        cfg.update(loaded)
    for item in args.set or []:
        key, _, val = item.partition("=")
        cfg[key] = val
    for key in EXPERIMENT_FLAGS:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _cfg(cfg, key, conv=str, default=None):
    """conv of the configured value (or of the default; None: the key is
    required; a float must be finite); a missing, malformed or out-of-range
    value is a ParseError."""
    if key not in cfg and default is None:
        raise ParseError(f"experiment needs --{key}")
    value = cfg.get(key, default)
    try:
        out = finite(value, key) if conv is float else conv(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad {key} {value!r}: {exc}") from exc
    if key in LEAST and out < LEAST[key]:
        raise ParseError(f"{key} must be at least {LEAST[key]}, got {value!r}")
    return out


def _parse_schedule(value):
    kind, _, params = str(value).partition(":")
    if kind not in ("cor72", "cor73"):
        raise ParseError(f"unknown schedule {value!r} (expected cor72:s,r or cor73:a,b)")
    a, b = (int(x) for x in params.split(","))
    return cor72_schedule(a, b) if kind == "cor72" else cor73_schedule(a, b)


# Runners look the engine functions up as module globals at call time, so a
# rebinding of nterm.cli.<engine> (a tracer, a test's monkeypatch) reaches them.

def _verifier(args, run, cfg):
    spec = parse_space(_cfg(cfg, "space"))
    w = parse_weight(_cfg(cfg, "weight", str, "pow:0.5,0"))
    alpha = _cfg(cfg, "alpha", float, 0.5)
    q = _cfg(cfg, "q", _parse_q, "inf")
    if args.name == "bernstein":
        res = bernstein_verifier(spec, w, alpha, q, _cfg(cfg, "N", _parse_n_list, "1..32"),
                                 seed=args.seed, trials=_cfg(cfg, "trials", int, 20))
    else:
        seqs = standard_test_set(spec, _cfg(cfg, "support", int, 64), args.seed,
                                 critical=alpha + 0.5)
        if args.name == "jackson":
            res = jackson_verifier(spec, w, alpha, q, seqs)
        else:
            res = embedding_verifier(_cfg(cfg, "direction", str, "lorentz-into-G"),
                                     spec, w, alpha, q, seqs)
    rows = res.pop("rows")
    header = sorted(rows[0]) if rows else []
    return _summary_report(run, args.name, res, f"{args.name}_rows.csv", header,
                           [[r[k] for k in header] for r in rows])


def _stechkin(args, run, cfg):
    res = stechkin_check(_cfg(cfg, "alpha", float, 0.5), _cfg(cfg, "q", _parse_q, 1),
                         trials=_cfg(cfg, "trials", int, 100),
                         support_cap=_cfg(cfg, "support", int, 64), seed=args.seed)
    rows = res.pop("rows")
    return _summary_report(run, "stechkin", res, "stechkin_rows.csv", ["support", "ratio"],
                           [[r["support"], r["ratio"]] for r in rows])


def _property_h(args, run, cfg):
    spec = parse_space(_cfg(cfg, "space"))
    res = property_h_check(spec, _cfg(cfg, "n", int, 8),
                           samples=_cfg(cfg, "samples", int, 200),
                           rng=np.random.default_rng(args.seed))
    values = res.pop("values")
    return _summary_report(run, "property_h", res, "property_h_values.csv",
                           ["subset", "value"], list(enumerate(values)))


def _democracy(args, run, cfg):
    return _democracy_report(args, run, parse_space(_cfg(cfg, "space")),
                             _cfg(cfg, "N", _parse_n_list, "2,4,...,1024"),
                             _cfg(cfg, "strategy", str, "auto"))


def _prop71(args, run, cfg):
    spec = parse_space(_cfg(cfg, "space"))
    schedule = _cfg(cfg, "schedule", _parse_schedule, "cor72:2,1")
    n_list = _cfg(cfg, "N", _parse_n_list, "2..12")
    rows = prop71_witness(spec, _cfg(cfg, "alpha", float, 1.0), math.inf,
                          schedule, n_list, seed=args.seed)
    header = ["N", "p_N", "q_N", "family_left", "family_right", "g_norm", "a_norm", "ratio"]
    text = _csv_text(header, [[r[k] for k in header] for r in rows])
    return text, [("prop71.csv", text), ("prop71_summary.json", _json_text(
        {"rows": rows, "manifest_hash": run.manifest_hash()}))]


def _nonlinear(args, run, cfg):
    res = nonlinearity_demo(_cfg(cfg, "p", float), _cfg(cfg, "q", float),
                            _cfg(cfg, "alpha", float, 1.0), _cfg(cfg, "K", int))
    points_x, points_sum = res.pop("points_x"), res.pop("points_sum")
    summary = dict(res, manifest_hash=run.manifest_hash())
    brief = {k: summary[k] for k in ("fit_x", "fit_sum", "expected_slope_x",
                                     "expected_slope_sum", "counts_match_inequality",
                                     "insufficient_range")}
    return _json_text(brief) + "\n", [
        ("nonlinear_x.csv", _csv_text(["N", "gamma_x"], points_x)),
        ("nonlinear_sum.csv", _csv_text(["N_J", "gamma_sum"], points_sum)),
        ("nonlinear_summary.json", _json_text(summary)),
    ]


EXPERIMENTS = {"jackson": _verifier, "bernstein": _verifier, "stechkin": _stechkin,
               "embedding": _verifier, "democracy": _democracy, "property-h": _property_h,
               "prop71": _prop71, "nonlinear": _nonlinear}


def cmd_experiment(args, run):
    cfg = _experiment_config(args)
    run.params = dict(cfg, name=args.name)
    if args.name not in EXPERIMENTS:
        raise ParseError(
            f"unknown experiment {args.name!r}; choose from {', '.join(EXPERIMENTS)}")
    return EXPERIMENTS[args.name](args, run, cfg)


COMMANDS = {"norm": cmd_norm, "profile": cmd_profile, "aspace": cmd_aspace,
            "democracy": cmd_democracy, "experiment": cmd_experiment}


@functools.cache
def build_parser():
    """The argument parser, built once per process: main is also the in-process
    entry point, and argparse.parse_args leaves the parser unchanged."""
    ap = argparse.ArgumentParser(prog="nterm", description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("norm", help="space or weighted-Lorentz norm of a sequence")
    p.add_argument("space")
    p.add_argument("rest", nargs="+")

    p = sub.add_parser("profile", help="sigma/gamma error profile as CSV")
    p.add_argument("space")
    p.add_argument("sequence")
    p.add_argument("kind", choices=("sigma", "gamma"))
    p.add_argument("n_max", type=int, nargs="?")
    p.add_argument("--method", choices=METHODS, default="auto")

    p = sub.add_parser("aspace", help="approximation-space quasi-norm")
    p.add_argument("space")
    p.add_argument("sequence")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--kind", choices=("sigma", "gamma"), default="sigma")
    p.add_argument("--form", choices=("full", "dyadic"), default="full")

    p = sub.add_parser("democracy", help="democracy profile as CSV")
    p.add_argument("--space", required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--strategy", choices=("auto", "exhaustive", "structured"),
                   default="auto")

    p = sub.add_parser("experiment", help="named experiment with config/flags")
    p.add_argument("name")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    for flag, conv in EXPERIMENT_FLAGS.items():
        p.add_argument(f"--{flag}", type=conv)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run = Run(args, args.cmd if args.cmd != "experiment" else f"experiment {args.name}")
    try:
        out, files = COMMANDS[args.cmd](args, run)
        sys.stdout.write(out)
        if args.out_dir:
            for name, text in files:
                run.emit(name, text)
        run.finish()
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InputFileError as exc:
        print(f"cannot read input file {exc}", file=sys.stderr)
        return 2
    except FeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
