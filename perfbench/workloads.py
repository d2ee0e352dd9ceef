"""Seeded job lists of the three benchmark workloads.

Each builder takes the seed and a scratch directory and returns a list of
``Job``. All inputs (sequences, CSV files) are generated here, before any job
is timed, and the program sees only those generated inputs. A job's ``run``
looks its engine function up on the module at call time, so the tracer's
rebinding of module attributes is seen by the benchmark's own calls too.

Job ids are stable across seeds; only the input values and layouts change.
"""
from __future__ import annotations

import io
import itertools
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nterm import cli, democracy, greedy, spaces
from nterm.errors import FeasibilityError
from nterm.experiments import attach
from nterm.indices import Cube
from nterm.sequences import Sequence

import checks


@dataclass
class Job:
    """One timed call into the program.

    run: the timed call; its return value is the job's output.
    check: (output, outputs of all jobs by id) -> None, raising
        checks.CheckError when the output is wrong. Runs after the pass.
    digest: output -> list of floats compared with the golden values.
    expect: exception type the job must raise (an expected typed outcome).
    known_defect: why this job is recorded as failing at the baseline.
    fixed_input: the inputs do not depend on the seed, so the golden values
        apply at every seed, not only at the default one.
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]
    digest: Callable[[object], list] | None = None
    expect: type | None = None
    known_defect: str | None = None
    fixed_input: bool = False


# ---------------------------------------------------------------------------
# deep-scalar: structured families and deep cube sets through the scalar path
# ---------------------------------------------------------------------------

DEEP_SPACES = ("lpq:2,4", "lpq:4,2", "orlicz:ulogu", "fpr:0,2,2,1", "bmo:2", "hyp:4,2")
DEEP_N = tuple(2**k for k in range(1, 10))
# rectangles deeper than spaces.MAX_RECT_LEVEL are refused with a typed error
EXPECTED_ERRORS = {("hyp:4,2", "different-sizes", 512): FeasibilityError}
AMBIENT_SPACES = ("lpq:2,4", "lpq:4,2", "fpr:0,2,2,1", "bmo:2")
AMBIENT_SETS = 6
AMBIENT_SIZE = 64
AMBIENT_MAX_LEVEL = {"cube": 1000, "interval": 900}  # bmo measures stay normal
DESCENDANT_GAP_MAX = 8
# 1 s and 0.41M Cube.ancestor calls; n = 8 takes 4.7 s (1.66M calls), which
# would leave room for only 2 passes per run
PROPERTY_H_N = 7


def deep_cube_set(rnd: random.Random, n, d, max_level):
    """n distinct dyadic cubes: a chain of equal gaps down to ~max_level plus
    descendants hung off its members in turn, so the set nests deeply.

    Descendant i hangs off chain member i mod len(chain), 1 + i mod
    DESCENDANT_GAP_MAX levels below it. The seed picks only the positions, so
    the levels of the set, and with them the cost of a norm on it, are the
    same for every seed."""
    chain_len = n // 3
    j0 = 2
    gap = (max_level - j0 - DESCENDANT_GAP_MAX) // (chain_len - 1)
    chain = [Cube(j0, tuple(rnd.getrandbits(j0) for _ in range(d)))]
    while len(chain) < chain_len:
        chain.append(_descendant(rnd, chain[-1], gap))
    cubes = chain + [_descendant(rnd, chain[i % chain_len], 1 + i % DESCENDANT_GAP_MAX)
                     for i in range(n - chain_len)]
    if len(set(cubes)) != n:
        raise ValueError("deep cube set has a repeated cube")
    return cubes


def _descendant(rnd, cube, gap):
    return Cube(cube.j + gap, tuple((k << gap) | rnd.getrandbits(gap) for k in cube.k))


def deep_scalar(seed, tmp):
    jobs = []
    for sp in DEEP_SPACES:
        spec = spaces.parse_space(sp)
        for fam in democracy.family_catalog(spec):
            for N in DEEP_N:
                jobs.append(Job(
                    f"h_structured/{sp}/{fam}/{N}",
                    lambda spec=spec, N=N, fam=fam: democracy.h_structured(spec, N, fam),
                    checks.democracy_value(N, spec.rho),
                    checks.scalar,
                    expect=EXPECTED_ERRORS.get((sp, fam, N)),
                    fixed_input=True,
                ))
    rnd = random.Random(seed)
    rng = np.random.default_rng(seed)
    for sp in AMBIENT_SPACES:
        spec = spaces.parse_space(sp)
        for i in range(AMBIENT_SETS):
            d = 1 if spec.universe == "interval" or i % 2 == 0 else 2
            cubes = deep_cube_set(rnd, AMBIENT_SIZE, d, AMBIENT_MAX_LEVEL[spec.universe])
            coef = spread_values(rng, len(cubes), 3.0)
            seq = Sequence(dict(zip(cubes, coef)), spec.universe)
            jobs.append(Job(
                f"ambient_norm/{sp}/set{i}",
                lambda spec=spec, seq=seq: spaces.ambient_norm(spec, seq),
                checks.ambient(spec, seq),
                checks.scalar,
            ))
    spec = spaces.parse_space("lpq:4,2")
    jobs.append(Job(
        f"property_h_check/lpq:4,2/n{PROPERTY_H_N}",
        lambda: democracy.property_h_check(spec, PROPERTY_H_N),
        checks.property_h(spec.rho),
        lambda res: res["values"],
        fixed_input=True,
    ))
    return jobs


# ---------------------------------------------------------------------------
# exact-sweep: exact profiles, exhaustive democracy scans, deep towers
# ---------------------------------------------------------------------------

SWEEP_SPACES = ("lp:1.5", "lplq:1,2", "fpr:0,2,2,1", "lpq:2,4", "orlicz:ulogu",
                "hyp:4,2", "bmo:2")
SWEEP_N = {sp: range(10, 19) for sp in SWEEP_SPACES}
SWEEP_N["lp:1.5"] = range(10, 23)  # the l^p path runs the 2^n subset kernels
SWEEP_N["orlicz:ulogu"] = range(10, 17)  # one bisection per subset: 4 s at n = 18
# (space, universe size argument of default_universe): 63 cubes, 63 intervals,
# 129 rectangles, 32+32 pairs
EXHAUSTIVE = (("lpq:2,4", 63), ("fpr:0,2,2,1", 63), ("bmo:2", 5), ("hyp:4,2", 4),
              ("lplq:1,2", None))
TOWER_SPACES = ("lpq:2,4", "lpq:4,2", "fpr:0,2,2,1", "fpr:0,4,2,1")
TOWER_SIZE = 6
TOWER_GAP = 120
TOWER_DEFECT = ("batch evaluator overflows on a level-gap-120 tower and returns "
                "{} silently (scalar ambient_norm is finite)")
KNOWN_TOWER_DEFECTS = {
    "lpq:2,4": {"sigma": TOWER_DEFECT.format("inf"), "gamma": TOWER_DEFECT.format("NaN")},
}


def spread_values(rng, n, log_range):
    """n distinct magnitudes exp(-log_range .. log_range) in seeded order. The
    multiset is the same for every seed, so a job's cost hardly depends on it."""
    return rng.permutation(np.exp(np.linspace(-log_range, log_range, n))).tolist()


def _profile_pair(jobs, name, spec, seq, closed_form=False, defects=None):
    """An exact sigma_profile job and a gamma_profile job on the same input;
    defects maps "sigma"/"gamma" to a known-defect reason."""
    defects = defects or {}
    sid = f"{name}/sigma"
    jobs.append(Job(
        sid,
        lambda: greedy.sigma_profile(seq, spec, method="exact"),
        checks.profile(spec, seq, closed_form=closed_form),
        checks.profile_values,
        known_defect=defects.get("sigma"),
    ))
    jobs.append(Job(
        f"{name}/gamma",
        lambda: greedy.gamma_profile(seq, spec),
        checks.profile(spec, seq, sigma_id=sid),
        checks.profile_values,
        known_defect=defects.get("gamma"),
    ))


def exact_sweep(seed, tmp):
    jobs = []
    rng = np.random.default_rng(seed)
    for sp in SWEEP_SPACES:
        spec = spaces.parse_space(sp)
        for n in SWEEP_N[sp]:
            seq = attach(spec, spread_values(rng, n, 2.0))
            _profile_pair(jobs, f"profile/{sp}/n{n}", spec, seq,
                          closed_form=spec.tag == "lp")
    for sp, size in EXHAUSTIVE:
        spec = spaces.parse_space(sp)
        uni = democracy.default_universe(spec, size)
        for N in (2, 3):
            jobs.append(Job(
                f"h_exhaustive/{sp}/U{len(uni)}/N{N}",
                lambda spec=spec, uni=uni, N=N: democracy.h_exhaustive(spec, uni, N),
                checks.exhaustive(N, spec.rho),
                lambda res: [res[0], res[1]],
                fixed_input=True,
            ))
    for sp in TOWER_SPACES:
        spec = spaces.parse_space(sp)
        coef = spread_values(rng, TOWER_SIZE, 1.0)
        seq = Sequence({Cube(TOWER_GAP * i, (0,)): c for i, c in enumerate(coef)}, "cube")
        _profile_pair(jobs, f"tower/{sp}/gap{TOWER_GAP}", spec, seq,
                      defects=KNOWN_TOWER_DEFECTS.get(sp))
    return jobs


# ---------------------------------------------------------------------------
# cli-greedy: README commands in process on tie-heavy CSVs
# ---------------------------------------------------------------------------

CLI_SPACES = ("lp:2", "lplq:1,2", "lpq:2,4", "fpr:0,2,2,1", "orlicz:ulogu", "bmo:2",
              "hyp:4,2")
CLI_N = (24, 28, 32, 36, 40)
# per support size: sizes of the tie classes, top magnitude first
TIE_CLASSES = {24: (12, 12), 28: (10, 9, 9), 32: (11, 11, 10), 36: (12, 12, 12),
               40: (14, 13, 13)}
# A class of 16 is the smallest whose tie families exceed greedy.TIE_FAMILY_CAP
# = 10000 (C(16, 8) = 12870 > C(15, 7) = 6435): these spaces get it at n = 40,
# so their greedy rows at N = 7..9 are sampled.
SAMPLED = {"lpq:2,4": (16, 12, 12), "bmo:2": (16, 12, 12)}
TIE_MAGNITUDES = (1.0, 0.55, 0.3)
ORLICZ_N_MAX = 32  # its bisection evaluator takes 0.5 s per command at n = 40
NP_REPR_DEFECT = ("Sequence.from_values(ndarray).to_csv writes 'np.float64(...)', "
                  "which `nterm norm` rejects with exit 2 (parse error)")
README_EXPERIMENTS = (
    ("stechkin", ["experiment", "stechkin", "--alpha", "0.5", "--q", "1"]),
    ("nonlinear", ["experiment", "nonlinear", "--p", "2", "--q", "1", "--alpha", "1",
                   "--K", "200000"]),
    ("prop71", ["experiment", "prop71", "--space", "lpq:1.2,6", "--alpha", "0.4",
                "--schedule", "cor72:2,1", "--N", "2..6"]),
    # to 256, not 1024: the larger rows repeat deep-scalar's N = 512 families
    ("democracy", ["democracy", "--space", "lpq:2,4", "--N", "2,4,...,256"]),
    ("jackson", ["experiment", "jackson", "--space", "lpq:2,4", "--support", "12"]),
)


def tie_heavy(rng, sizes):
    """Magnitudes in tie classes of the given sizes, in seeded order."""
    vals = np.repeat(TIE_MAGNITUDES[:len(sizes)], sizes)
    return rng.permutation(vals).tolist()


@dataclass
class CliOutput:
    rc: int
    stdout: str
    stderr: str
    out_dir: str


def cli_job(argv, out_dir):
    full = ["--out-dir", out_dir] + argv

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(full)
        return CliOutput(rc, out.getvalue(), err.getvalue(), out_dir)

    return run


def cli_greedy(seed, tmp):
    jobs = []
    rng = np.random.default_rng(seed)
    counter = itertools.count()

    def out_dir():
        return os.path.join(tmp, "out", str(next(counter)))

    for sp in CLI_SPACES:
        spec = spaces.parse_space(sp)
        for n in CLI_N:
            if spec.tag == "orlicz" and n > ORLICZ_N_MAX:
                continue
            sizes = SAMPLED[sp] if n == CLI_N[-1] and sp in SAMPLED else TIE_CLASSES[n]
            seq = attach(spec, tie_heavy(rng, sizes))
            path = os.path.join(tmp, f"{spec.tag}-n{n}.csv")
            seq.to_csv(path)
            name = f"{sp}/n{n}"
            for kind in ("gamma", "sigma"):
                jobs.append(Job(
                    f"profile-{kind}/{name}",
                    cli_job(["profile", sp, path, kind], out_dir()),
                    checks.cli_profile(kind, f"profile-gamma/{name}"),
                    checks.cli_csv_values("profile.csv", "value"),
                ))
            jobs.append(Job(
                f"aspace/{name}",
                cli_job(["aspace", sp, path, "--alpha", "0.5", "--q", "1"], out_dir()),
                checks.cli_aspace(f"profile-gamma/{name}"),
                checks.cli_stdout_value,
            ))
            jobs.append(Job(
                f"norm/{name}",
                cli_job(["norm", sp, path], out_dir()),
                checks.cli_norm,
                checks.cli_stdout_value,
            ))
            if spec.tag == "lp":
                jobs.append(Job(
                    f"norm-lorentz/{name}",
                    cli_job(["norm", "lorentz-seq", "pow:0.5,0", "1", path], out_dir()),
                    checks.cli_norm,
                    checks.cli_stdout_value,
                ))
    # the known defect: the library's own writer fed a numpy array
    vals = np.asarray(tie_heavy(rng, TIE_CLASSES[CLI_N[0]]))
    path = os.path.join(tmp, "np-values.csv")
    Sequence.from_values(vals).to_csv(path)
    jobs.append(Job(
        "norm/lp:2/np-values",
        cli_job(["norm", "lp:2", path], out_dir()),
        checks.cli_norm,
        checks.cli_stdout_value,
        known_defect=NP_REPR_DEFECT,
    ))
    for name, argv in README_EXPERIMENTS:
        jobs.append(Job(
            f"readme/{name}",
            cli_job(argv, out_dir()),
            checks.cli_experiment(name),
            checks.cli_all_csv_values,
            fixed_input=True,
        ))
    return jobs


BUILDERS = {"deep-scalar": deep_scalar, "exact-sweep": exact_sweep,
            "cli-greedy": cli_greedy}


def run_order(jobs):
    """The jobs in the order a pass runs them: a golden-ratio stride through
    the list, the same for every seed and pass.

    Neighbours in a job list are often of similar cost (one family at growing
    N, the six sets of one space). Run back to back, they would share one
    burst of host load, and the percentiles they set would move with it."""
    n = len(jobs)
    step = max(1, round(n * 0.618))
    while math.gcd(step, n) != 1:
        step += 1
    return [jobs[i * step % n] for i in range(n)]
