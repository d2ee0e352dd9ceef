"""Output checks of the benchmark jobs and the golden-value comparison.

A check is called after the pass as ``check(output, outputs)``, where
``outputs`` maps every job id of the pass to its output (or to the exception
it raised), and raises ``CheckError`` when the output is wrong. Checks call the
program (e.g. ``ambient_norm``) only after the timed loop, with tracing off.

Tolerances:
    RTOL_TIE = 1e-9      gamma_0 == sigma_0 == ambient_norm (batch layer vs
                         scalar layer; the worst case measured is below 1e-10, orlicz)
    RTOL_ORDER = 1e-12   sigma_N <= gamma_N (1 + RTOL_ORDER)
    RTOL_CLOSED = 1e-12  exact l^p sigma against the sorted-tail closed form
    RTOL_BAND = 1e-9     1 - RTOL_BAND <= h_ell <= h_r <= N^(1/rho) (1 + RTOL_BAND)
    GOLDEN_RTOL = 1e-9   every golden value, at the default seed and, for jobs
                         whose inputs do not depend on the seed, at every seed
"""
from __future__ import annotations

import csv
import glob
import json
import math
import os

import numpy as np

from nterm.sequences import Sequence
from nterm.spaces import ambient_norm

RTOL_TIE = 1e-9
RTOL_ORDER = 1e-12
RTOL_CLOSED = 1e-12
RTOL_BAND = 1e-9
GOLDEN_RTOL = 1e-9
TEXT_COLUMNS = {"exact_flag", "method", "bound_direction", "family_left",
                "family_right", "index"}
ROW_FLAGS = {"exact", "greedy", "sampled"}


class CheckError(Exception):
    """A job's output failed a check."""


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _finite(values, what="value"):
    arr = np.asarray(values, dtype=float)
    bad = ~np.isfinite(arr)
    _require(not bad.any(), f"{what} not finite: {arr[bad][:3].tolist()}")


def _close(a, b, rtol, what):
    _require(math.isclose(a, b, rel_tol=rtol), f"{what}: {a!r} != {b!r} (rtol {rtol})")


def _band(h_ell, h_r, N, rho):
    _require(1.0 - RTOL_BAND <= h_ell, f"h_ell {h_ell!r} below 1")
    _require(h_ell <= h_r * (1.0 + RTOL_ORDER), f"h_ell {h_ell!r} > h_r {h_r!r}")
    top = N ** (1.0 / rho) * (1.0 + RTOL_BAND)
    _require(h_r <= top, f"h_r {h_r!r} above N^(1/rho) = {top!r}")


# ---------------------------------------------------------------------------
# library-call jobs
# ---------------------------------------------------------------------------

def ambient(spec, seq):
    """A positive finite norm that does not grow when half the support is
    dropped (every space here is a lattice)."""
    def check(value, outputs):
        _finite([value])
        _require(value > 0, f"value {value!r} not positive")
        items = list(seq.entries.items())
        half = ambient_norm(spec, Sequence(dict(items[: len(items) // 2]), seq.kind))
        _require(half <= value * (1.0 + RTOL_ORDER), f"half support {half!r} > {value!r}")

    return check


def democracy_value(N, rho):
    def check(value, outputs):
        _finite([value])
        _band(value, value, N, rho)

    return check


def property_h(rho):
    def check(res, outputs):
        _finite(res["values"], "half-subset norm")
        for v in res["values"]:
            _band(v, v, res["set_size"] // 2, rho)
        _require(res["passed"], f"spread {res['spread']!r} outside the band")

    return check


def exhaustive(N, rho):
    def check(res, outputs):
        h_ell, h_r, arg_min, arg_max = res
        _finite([h_ell, h_r])
        _band(h_ell, h_r, N, rho)
        _require(len(arg_min) == len(arg_max) == N, "attaining sets of wrong size")

    return check


def lp_sorted_tail(seq, p):
    """sigma_N of an l^p vector: the l^p norm of all but its N largest entries."""
    mags = sorted((abs(v) for v in seq.entries.values() if v != 0.0), reverse=True)
    return [math.fsum(m**p for m in mags[N:]) ** (1.0 / p) for N in range(len(mags) + 1)]


def profile(spec, seq, closed_form=False, sigma_id=None):
    """Checks of an exact sigma or a gamma Profile on a tie-free input; the
    gamma job (sigma_id set) also checks the pair: gamma_0 == sigma_0 and
    sigma_N <= gamma_N."""

    def check(prof, outputs):
        vals = np.asarray(prof.values, dtype=float)
        _finite(vals, f"{prof.kind} profile")
        _close(float(vals[0]), ambient_norm(spec, seq), RTOL_TIE,
               f"{prof.kind}_0 vs ambient_norm")
        _require(vals[-1] == 0.0, f"{prof.kind} at the full support is {vals[-1]!r}")
        _require(set(prof.flags) == {"exact"}, f"flags {set(prof.flags)} not exact")
        if closed_form:
            tail = lp_sorted_tail(seq, spec.p)
            for N, (got, want) in enumerate(zip(vals, tail)):
                _close(float(got), want, RTOL_CLOSED, f"sigma_{N} vs sorted tail")
        if sigma_id is not None:
            sigma = outputs[sigma_id]
            _require(not isinstance(sigma, BaseException), "paired sigma job failed")
            _profile_order(np.asarray(sigma.values, dtype=float), vals)

    return check


def _profile_order(sigma, gamma):
    _require(len(sigma) == len(gamma), "sigma/gamma lengths differ")
    _close(float(sigma[0]), float(gamma[0]), RTOL_TIE, "sigma_0 vs gamma_0")
    over = sigma > gamma * (1.0 + RTOL_ORDER)
    _require(not over.any(), f"sigma_N > gamma_N at N = {np.nonzero(over)[0][:5].tolist()}")


def scalar(value):
    return [float(value)]


def profile_values(prof):
    return [float(v) for v in prof.values]


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

def read_csv(path):
    """Header and rows of an output CSV; every non-text cell must parse as a
    finite float."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0], f"{os.path.basename(path)}: empty CSV")
    header = rows[0]
    out = []
    for row in rows[1:]:
        _require(len(row) == len(header), f"{os.path.basename(path)}: ragged row {row}")
        rec = {}
        for name, cell in zip(header, row):
            if name in TEXT_COLUMNS:
                rec[name] = cell
                continue
            try:
                rec[name] = float(cell)
            except ValueError:
                raise CheckError(f"{os.path.basename(path)}: {name}={cell!r} "
                                 "does not parse") from None
            _finite([rec[name]], f"{os.path.basename(path)}:{name}")
        out.append(rec)
    return header, out


def _csv_files(out):
    return sorted(glob.glob(os.path.join(out.out_dir, "*.csv")))


def _cli_ok(out):
    _require(out.rc == 0, f"exit {out.rc}: {out.stderr.strip()[:200]}")
    for path in _csv_files(out):
        read_csv(path)


def _json(out, name):
    with open(os.path.join(out.out_dir, name)) as fh:
        return json.load(fh)


def _stdout_float(out):
    try:
        return float(out.stdout.strip())
    except ValueError:
        raise CheckError(f"stdout {out.stdout.strip()[:80]!r} is not a number") from None


def _profile_csv(out):
    _, rows = read_csv(os.path.join(out.out_dir, "profile.csv"))
    return rows


def cli_profile(kind, gamma_id):
    def check(out, outputs):
        _cli_ok(out)
        rows = _profile_csv(out)
        _require([r["N"] for r in rows] == list(range(len(rows))), "N column not 0..n")
        _require({r["exact_flag"] for r in rows} <= ROW_FLAGS, "unknown row flag")
        _require(rows[-1]["value"] == 0.0, "error at the full support is not 0")
        if kind == "sigma":
            gamma = outputs[gamma_id]
            _require(not isinstance(gamma, BaseException), "paired gamma job failed")
            g = np.array([r["value"] for r in _profile_csv(gamma)])
            _profile_order(np.array([r["value"] for r in rows]), g)

    return check


def cli_aspace(gamma_id):
    def check(out, outputs):
        _cli_ok(out)
        value = _stdout_float(out)
        _finite([value])
        gamma = outputs[gamma_id]
        _require(not isinstance(gamma, BaseException), "paired gamma job failed")
        base = _profile_csv(gamma)[0]["value"]
        _require(value >= base * (1.0 - RTOL_ORDER),
                 f"aspace norm {value!r} below the ambient norm {base!r}")

    return check


def cli_norm(out, outputs):
    _cli_ok(out)
    value = _stdout_float(out)
    _finite([value])
    _require(value > 0, f"norm {value!r} not positive")


def cli_experiment(name):
    def check(out, outputs):
        _cli_ok(out)
        _require(_csv_files(out), "no CSV written")
        if name == "democracy":
            summary = _json(out, "democracy_summary.json")
            _require(summary["checks"]["bounds_ok"], "democracy bounds check failed")
            rho = summary["rho"]
            for r in read_csv(os.path.join(out.out_dir, "democracy.csv"))[1]:
                _band(r["h_ell"], r["h_r"], r["N"], rho)
        elif name == "nonlinear":
            summary = _json(out, "nonlinear_summary.json")
            _require(summary["counts_match_inequality"], "block counts disagree")
        elif name == "stechkin":
            band = _json(out, "stechkin_summary.json")["band"]
            _require(math.isfinite(band) and band >= 1.0, f"band {band!r}")
        elif name == "jackson":
            const = _json(out, "jackson_summary.json")["constant"]
            _require(math.isfinite(const) and const > 0, f"constant {const!r}")
        elif name == "prop71":
            rows = read_csv(os.path.join(out.out_dir, "prop71.csv"))[1]
            _require(rows and all(r["ratio"] > 0 for r in rows), "ratio not positive")

    return check


def cli_stdout_value(out):
    return [_stdout_float(out)]


def cli_csv_values(name, column):
    def digest(out):
        return [r[column] for r in read_csv(os.path.join(out.out_dir, name))[1]]

    return digest


def cli_all_csv_values(out):
    vals = []
    for path in _csv_files(out):
        for rec in read_csv(path)[1]:
            vals.extend(v for v in rec.values() if isinstance(v, float))
    return vals


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------

def compare_golden(got, want):
    _require(len(got) == len(want), f"{len(got)} values, golden has {len(want)}")
    for i, (a, b) in enumerate(zip(got, want)):
        _close(a, b, GOLDEN_RTOL, f"golden value {i}")
