"""One benchmark pass in a fresh interpreter.

Usage (from the repository root, with src on PYTHONPATH):

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out FILE
    python3 perfbench/worker.py --setup-only --out FILE

The first thing the pass does is import the program; that import is the
pass's setup time. It then builds the workload's inputs, runs every job once
in the fixed order of workloads.run_order (timing each), and only afterwards
checks the outputs, with tracing off. The result is written as JSON to --out.
"""
import time

_t0 = time.perf_counter()
import nterm  # noqa: E402
import nterm.cli  # noqa: E402,F401
import nterm.democracy  # noqa: E402,F401
import nterm.experiments  # noqa: E402,F401
import nterm.greedy  # noqa: E402,F401

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from nterm import _kernels, spaces  # noqa: E402

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def openblas_threads():
    """Thread count of the OpenBLAS numpy loaded (None if not found)."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_steal_s():
    """CPU time the hypervisor took from this machine's CPUs so far (the
    steal column of /proc/stat), or None where it is not reported."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nterm": nterm.__version__,
        "kernels_backend": _kernels.BACKEND,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def describe(exc):
    return f"{type(exc).__name__}: {str(exc)[:300]}"


def run_pass(args):
    import checks
    import tracer as tracing
    import workloads

    tmp = args.tmp
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    jobs = workloads.run_order(workloads.BUILDERS[args.workload](args.seed, tmp))
    ids = [job.id for job in jobs]
    fixed = {job.id for job in jobs if job.fixed_input}
    if len(set(ids)) != len(ids):
        raise RuntimeError("duplicate job ids")

    tr = tracing.Tracer() if args.trace else None
    if tr:
        tr.install()
    outputs, latencies = {}, []
    steal0 = host_steal_s()
    t_pass = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        try:
            outputs[job.id] = tr.run_job(job.id, job.run) if tr else job.run()
        except Exception as exc:  # a failing job is an outcome; the pass goes on
            outputs[job.id] = exc
        latencies.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - t_pass
    steal1 = host_steal_s()
    steal_s = steal1 - steal0 if steal0 is not None and steal1 is not None else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer = None
    if tr:
        tr.uninstall()
        layer = tr.layer_metrics(spaces._element_norm_cached.cache_info())
        if args.spans:
            tr.write_spans(args.spans)

    golden = {}
    if os.path.exists(GOLDEN) and not args.record_golden:
        with open(GOLDEN) as fh:
            golden = {job_id: vals for job_id, vals in json.load(fh)[args.workload].items()
                      if args.seed == DEFAULT_SEED or job_id in fixed}
    results, digests = [], {}
    for job, lat in zip(jobs, latencies):
        out = outputs[job.id]
        status, reason = "ok", ""
        try:
            if job.expect is not None:
                if type(out) is not job.expect:
                    raise checks.CheckError(
                        f"expected {job.expect.__name__}, got "
                        + (describe(out) if isinstance(out, BaseException) else "a value"))
                status = "expected-error"
            elif isinstance(out, BaseException):
                raise checks.CheckError(f"raised {describe(out)}\n" + "".join(
                    traceback.format_exception(out, limit=-3)))
            else:
                job.check(out, outputs)
                if job.digest is not None:
                    digests[job.id] = job.digest(out)
                    if job.id in golden:
                        checks.compare_golden(digests[job.id], golden[job.id])
        except checks.CheckError as exc:
            status, reason = "failed", str(exc)
        except Exception as exc:  # a crashing check is a failed job, not a crash
            status, reason = "failed", f"check crashed: {describe(exc)}\n" + \
                traceback.format_exc(limit=3)
        results.append({
            "id": job.id,
            "latency_s": lat,
            "status": status,
            "reason": reason[:2000],
            "known_defect": job.known_defect,
        })
    shutil.rmtree(tmp, ignore_errors=True)

    failed = [r for r in results if r["status"] == "failed"]
    unexpected = [r["id"] for r in failed if not r["known_defect"]]
    res = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "host_steal_s": steal_s,
        "peak_rss_mb": peak_rss_mb,
        "jobs": results,
        "attempted": len(results),
        "failed": len(failed),
        "unexpected_failures": unexpected,
        "golden_checked": len(golden),
        "environment": environment(),
        "layer": layer,
        "coverage_failures": (tracing.coverage_failures(args.workload, layer)
                              if layer is not None else []),
    }
    if args.record_golden:
        res["digests"] = digests
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tmp")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        res = {"setup_s": SETUP_S}
    else:
        res = run_pass(args)
    with open(args.out, "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main()
