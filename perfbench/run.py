"""rigidkit benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload grid-analyze --seed 1 --seconds 30 --trace 0

Run from the root of a rigidkit checkout.  Repeats whole rounds of the
workload's ops until --seconds have passed, checks every output, and prints
as its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
(from a separate traced measurement) with --trace 1.  See README.md.
"""

import argparse
import collections
import os
import sys

# The BLAS thread count is part of the workload (the k = 20 spherical grid
# fails with 2 OpenBLAS threads and passes with 1), so it is fixed here,
# before numpy is imported, at the number of CPUs this process may use.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".bench_run")
SETUP_REPEATS = 9

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
                    "peak_rss_mb": "MB"}


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import rigidkit from this checkout's src/ and the test oracles."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "rigidkit")):
        fail("no rigidkit sources under %s; run from the root of a checkout" % src)
    sys.path.insert(0, src)
    import rigidkit

    if os.path.dirname(os.path.dirname(os.path.abspath(rigidkit.__file__))) != src:
        fail("imported rigidkit from %s, not from this checkout" % rigidkit.__file__)
    path = os.path.join(ROOT, "tests", "oracles.py")
    if not os.path.isfile(path):
        fail("missing %s (exact rational oracles)" % path)
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def blas_record():
    """numpy/BLAS versions and the thread count OpenBLAS actually uses."""
    cfg = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and line.split()[-1].startswith("/")}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (cfg.get("name"), cfg.get("version")),
            "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blas_threads_in_use": threads, "nproc": NPROC}


class Record:
    """One attempted op: its input, time, raw outputs and outcome."""

    __slots__ = ("inp", "seconds", "out", "error", "wrong", "traced")

    def __init__(self, inp, seconds, out, error, traced):
        self.inp, self.seconds, self.out, self.error = inp, seconds, out, error
        self.wrong = None  # set when an output check disagreed
        self.traced = traced


def run_round(workload, inputs, workdir, records, traced=False):
    """One pass over the inputs; returns its wall time."""
    t_round = time.perf_counter()
    for inp in inputs:
        tag = len(records)
        t0 = time.perf_counter()
        error = out = None
        try:
            out = workload.run(inp, workdir, tag)
        except Exception as exc:  # an op boundary: record the failure, keep going
            error = "%s: %s" % (type(exc).__name__, exc)
        records.append(Record(inp, time.perf_counter() - t0, out, error, traced))
    return time.perf_counter() - t_round


def done(t_begin, rounds, seconds):
    """Stop at the round boundary nearest to `seconds` after `t_begin`."""
    return time.perf_counter() - t_begin + statistics.median(rounds) / 2 >= seconds


def op_times(records):
    """Per input, the median time of its ops that did not fail.

    Percentiles over these per-input medians sit at the same place in the
    fixed schedule however many rounds fit into a run.
    """
    by_input = {}
    for r in records:
        if r.error is None and not r.traced:
            by_input.setdefault(r.inp.name, []).append(r.seconds)
    return [statistics.median(v) for v in by_input.values()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    oracles = import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans as span_trace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]()
    env = blas_record()

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK_ROOT)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.make_inputs(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        workload.run(workload.warmup_input(workdir), workdir, "warmup")

        records, rounds, traced_rounds = [], [], []
        tracer = None
        t_begin = time.perf_counter()
        if args.trace:
            # untraced rounds for half the time, as the reference for the
            # tracing overhead, then traced rounds for the other half
            while True:
                rounds.append(run_round(workload, inputs, workdir, records))
                if done(t_begin, rounds, args.seconds / 2):
                    break
            tracer = span_trace.Tracer()
            tracer.install()
            t_traced = time.perf_counter()
            try:
                while True:
                    traced_rounds.append(run_round(workload, inputs, workdir, records, True))
                    if done(t_traced, traced_rounds, args.seconds / 2):
                        break
            finally:
                tracer.uninstall()
        else:
            while True:
                rounds.append(run_round(workload, inputs, workdir, records))
                if done(t_begin, rounds, args.seconds):
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for rec in records:
            if rec.error is None:
                rec.error, rec.wrong = workloads.check(workload, rec.inp, rec.out, oracles)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.error is not None]
    times = op_times(records)
    print("# env %s" % json.dumps(env, sort_keys=True))
    print("# %s seed %d: %d rounds of %d ops, attempted %d, failed %d"
          % (workload.name, args.seed, len(rounds) + len(traced_rounds), len(inputs),
             len(records), len(failed)))
    by_reason = collections.Counter((r.inp.name, r.error) for r in failed)
    for (name, reason), count in sorted(by_reason.items()):
        print("# failed op %s (x%d): %s" % (name, count, reason[:300]))

    if args.trace:
        traced_ops = sum(1 for r in records if r.traced)
        metrics = span_trace.layer_metrics(tracer, traced_ops)
        untraced = statistics.median(rounds)
        overhead = statistics.median(traced_rounds) - untraced
        metrics["trace.overhead_s"] = overhead / len(inputs)
        metrics["trace.overhead_pct"] = 100.0 * overhead / untraced
        tracer.save(os.path.join(WORK_ROOT, "spans-%s-seed%d.npz" % (workload.name, args.seed)))
        units = {name: span_trace.unit_of(name) for name in metrics}
    else:
        if not times:  # every op failed: time them anyway rather than report nothing
            times = [r.seconds for r in records]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(rounds),
            "op_p50_s": statistics.median(times),
            "op_p90_s": float(np.percentile(times, 90)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
