"""nterm benchmark: closed loop, one client, one job in flight.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Workloads (job lists are built from --seed; see perfbench/README.md):
    deep-scalar   structured families and deep cube sets, scalar path only
    exact-sweep   exact sigma/gamma profiles, exhaustive democracy scans
    cli-greedy    README commands through cli.main on tie-heavy CSVs

Each pass runs the whole job list once in a fresh interpreter
(perfbench/worker.py), so every pass pays the import and fills the program's
caches itself, as every CLI run does. A run makes up to 5 passes, fewer if the
next would overrun --seconds (at least one; with --trace 1 the passes alternate
untraced and traced, at least one of each). Extra import-only interpreters
sample the set-up time.

Untraced (--trace 0) the last stdout line reports the end-to-end metrics:
    wall_s       seconds for one pass over the job list, median over passes
    job_p50_ms   median job latency, each job's latency its median over passes
    job_p90_ms   90th percentile job latency, likewise
    setup_s      import of nterm, nterm.cli, nterm.greedy, nterm.democracy and
                 nterm.experiments in a fresh interpreter, median of samples
    peak_rss_mb  peak resident set size of the pass process, median over passes
    ok_frac      jobs passing every output check over jobs attempted
Traced (--trace 1) it reports the per-layer metrics of tracer.py, plus
trace.overhead_s (traced minus untraced wall_s) and failed_frac.

Every job's output is checked (checks.py). "correct" is false when a job fails
that is not a recorded known defect, or when the traced run's layer-coverage
check fails. Full results, with the environment, go to
.perfbench/results/<workload>-seed<N>-trace<T>.json.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracer import unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("deep-scalar", "exact-sweep", "cli-greedy")
SETUP_PROBES = 3
PASSES = 5
PASS_TIMEOUT_S = 120  # a hung pass still ends the run within 180 s


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the program's source files (the checkout may not be a git
    repository)."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nterm")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def worker(tag, *extra):
    """Run one worker interpreter and return its JSON result."""
    out = os.path.join(OUT, "work", f"{tag}.json")
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--out", out, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def run_pass(args, traced, index):
    tag = f"{args.workload}-{index}"
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--trace", str(int(traced)), "--tmp", os.path.join(OUT, "work", tag)]
    if traced:
        extra += ["--spans", os.path.join(OUT, "results",
                                          f"spans-{args.workload}-seed{args.seed}.jsonl.gz")]
    res = worker(tag, *extra)
    steal = res["host_steal_s"]
    print(f"pass {index} {'traced' if traced else 'untraced'}: wall {res['wall_s']:.3f} s, "
          f"setup {res['setup_s']:.3f} s, rss {res['peak_rss_mb']:.1f} MB, "
          f"host steal {'n/a' if steal is None else f'{steal:.2f} s'}, "
          f"{res['failed']}/{res['attempted']} jobs failed", flush=True)
    return res


def quantile(values, q):
    """Linear-interpolation quantile of a sample (q in [0, 1])."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median_wall(passes):
    return statistics.median(p["wall_s"] for p in passes)


def end_to_end(passes, setup_samples):
    # a job's latency is its median over the passes, which a burst of host load
    # in one pass does not move; with 3 to 5 passes its best time is no steadier
    samples = {}
    for p in passes:
        for job in p["jobs"]:
            samples.setdefault(job["id"], []).append(job["latency_s"] * 1e3)
    lat_ms = [statistics.median(v) for v in samples.values()]
    ok = min(sum(j["status"] != "failed" for j in p["jobs"]) / p["attempted"]
             for p in passes)
    return {
        "wall_s": (median_wall(passes), "s"),
        "job_p50_ms": (quantile(lat_ms, 0.5), "ms"),
        "job_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": (ok, "frac"),
    }


def per_layer(traced, untraced):
    metrics = {name: (statistics.median(p["layer"][name] for p in traced), unit_of(name))
               for name in traced[0]["layer"]}
    overhead = median_wall(traced) - median_wall(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    failed = max(p["failed"] / p["attempted"] for p in traced)
    metrics["failed_frac"] = (failed, "frac")
    return metrics


def measure(args):
    """Setup probes, then PASSES passes (alternating untraced and traced with
    --trace 1), fewer if the next one would overrun --seconds."""
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    t_start = time.monotonic()
    setup_samples = [worker(f"setup-{i}", "--setup-only")["setup_s"]
                     for i in range(SETUP_PROBES)]
    passes = []
    minimum = 2 if args.trace else 1
    longest = 0.0
    while len(passes) < PASSES:
        t_pass = time.monotonic()
        res = run_pass(args, bool(args.trace) and len(passes) % 2 == 1, len(passes))
        passes.append(res)
        setup_samples.append(res["setup_s"])
        now = time.monotonic()
        longest = max(longest, now - t_pass)
        if len(passes) >= minimum and now - t_start + longest > args.seconds:
            break
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    return untraced, traced, setup_samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="write perfbench/golden.json from one pass per workload at seed 0")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "nterm", "__init__.py")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        ap.error("--workload is required")

    untraced, traced, setup_samples = measure(args)
    passes = traced if args.trace else untraced
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(
        untraced, setup_samples)
    unexpected = sorted({j for p in untraced + traced for j in p["unexpected_failures"]})
    coverage = sorted({c for p in traced for c in p["coverage_failures"]})
    known = sorted({(j["id"], j["known_defect"]) for p in untraced + traced
                    for j in p["jobs"] if j["status"] == "failed" and j["known_defect"]})
    env = dict(untraced[0]["environment"], git_sha=git_sha(), source_sha256=source_digest(),
               seed=args.seed, workload=args.workload, jobs=untraced[0]["attempted"],
               passes=len(untraced) + len(traced),
               golden_checked=untraced[0]["golden_checked"])
    shown = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "environment": env,
        "metrics": shown,
        "setup_samples_s": setup_samples,
        "known_defect_failures": [{"id": i, "defect": d} for i, d in known],
        "unexpected_failures": unexpected,
        "coverage_failures": coverage,
        "passes": untraced + traced,
    }
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(env, sort_keys=True))
    for i, d in known:
        print(f"known defect reproduced: {i}: {d}")
    for p in untraced + traced:
        for j in p["jobs"]:
            if j["status"] == "failed" and not j["known_defect"]:
                print(f"UNEXPECTED FAILURE {j['id']}: {j['reason']}", file=sys.stderr)
    for c in coverage:
        print(f"COVERAGE FAILURE {c}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected and not coverage,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": shown,
    }))
    return 0


def record_golden():
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    golden = {}
    for name in WORKLOADS:
        res = worker(f"golden-{name}", "--workload", name, "--seed", "0", "--record-golden",
                     "--tmp", os.path.join(OUT, "work", f"golden-{name}"))
        if res["unexpected_failures"]:
            print(f"{name}: unexpected failures {res['unexpected_failures']}",
                  file=sys.stderr)
            return 1
        golden[name] = res["digests"]
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        # one job per line, values with all their digits
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {{\n" + ",\n".join(
                f"  {json.dumps(job)}: {json.dumps(vals)}"
                for job, vals in sorted(golden[name].items())) + "\n}"
            for name in sorted(golden)) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
