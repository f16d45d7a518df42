"""Benchmark of polarbounds' four verification paths.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 22 --trace 0

Workloads: campaign, oracle, witness, bounds-report (see workloads.py and
README.md). One process, one BLAS thread, closed loop: each pass starts when
the previous one ends, and every pass repeats the same seeded inputs.

--trace 0 reports the end-to-end metrics: ops_per_s (median over passes),
setup_s (median over fresh interpreters that import polarbounds and
polarbounds.cli and run one operation) and peak_rss_mb. Rates and set-up
times are scaled to the host's reference speed, from a fixed reference loop
run around each measurement (see README.md). --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of layers.py,
plus the tracing overhead. The last line of standard output is one JSON
object; details and spans go to .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import os

# one BLAS thread; must be set before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3
SELF_TIME_TOLERANCE = 0.03
# reference_loop() duration on an unshared core of the 2-core host the
# benchmark was built on; rates and set-up times are scaled to that speed
REFERENCE_S = 0.021
WORKLOAD_NAMES = ("campaign", "oracle", "witness", "bounds-report")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import polarbounds from this checkout's src/, never from elsewhere."""
    if not (SRC / "polarbounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polarbounds sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polarbounds
    if Path(polarbounds.__file__).resolve().parent != SRC / "polarbounds":
        sys.exit(f"perfbench: imported polarbounds from {polarbounds.__file__}")


def environment(seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "seed": seed}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reference_loop():
    """Seconds taken by fixed work unrelated to polarbounds.

    Small complex SVDs, float arithmetic and JSON encoding: the mix the
    workloads spend their time on.
    """
    a = numpy.arange(49.0).reshape(7, 7) % 5.0 * (1 + 1j) + numpy.eye(7)
    start = time.perf_counter()
    for i in range(500):
        numpy.linalg.svd(a)
        x = 0.0
        for k in range(100):
            x += math.sqrt(k + i)
        json.dumps({"x": x, "v": [x, i]})
    return time.perf_counter() - start


def slowdown(before, after):
    """How many times slower than its unshared speed the host ran, from two reference loops."""
    return (before + after) / (2.0 * REFERENCE_S)


def setup_code(workload, seed):
    """Python source for a fresh interpreter: import polarbounds, run one operation.

    It prints perf_counter() when the operation ends; CLOCK_MONOTONIC is
    shared by all processes, so the parent's polling for the child's exit
    is not timed.
    """
    return (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
            "import polarbounds, polarbounds.cli\n"
            "import time, workloads\n"
            "try:\n"
            f"    workloads.WORKLOADS[{workload!r}].setup_op({seed}, "
            f"workloads.Path({str(OUT)!r}))\n"
            "except Exception as exc:  # the timed passes count the failure\n"
            "    print(f'set-up operation raised {exc!r}', file=sys.stderr)\n"
            "print(time.perf_counter())\n")


def time_setup(code):
    """(set-up seconds, wall seconds the measurement took)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                          timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - start, time.perf_counter() - start


def run_passes(wl, seconds, tracer, code=None):
    """Closed loop of passes for `seconds`.

    Each pass, and each set-up measurement, sits between two runs of the
    reference loop; its rate is scaled by their slowdown. With a tracer
    every second pass is traced. With set-up code, SETUP_REPEATS set-up
    measurements are spread between the passes; their time does not count
    against `seconds`.
    """
    from layers import layer_metrics

    setup_times = []
    before = None

    def measure_setup():
        nonlocal before
        setup, spent = time_setup(code)
        after = reference_loop()
        setup_times.append(setup / slowdown(before, after))
        before = after
        return spent

    if code:
        time_setup(code)   # fills the file caches; not kept
    ref_elapsed, ref_out = wl.run()
    ref_digest = wl.digest(ref_out)
    ref_failed, notes = wl.check(ref_out)
    every = max(1, int(seconds / ref_elapsed / SETUP_REPEATS))
    passes = {"untraced": [], "traced": [], "untraced_raw": [], "traced_raw": []}
    layer = []
    self_check = []
    attempted = failed = 0
    before = reference_loop()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes["untraced"]) < MIN_PASSES:
        traced = tracer is not None and len(passes["untraced"]) > len(passes["traced"])
        if traced:
            with tracer:
                (elapsed, out), stats = tracer.run_pass(wl.run)
        else:
            elapsed, out = wl.run()
        after = reference_loop()
        kind = "traced" if traced else "untraced"
        passes[kind + "_raw"].append(wl.ops / elapsed)
        passes[kind].append(wl.ops / elapsed * slowdown(before, after))
        before = after
        attempted += wl.ops
        failed += ref_failed if wl.digest(out) == ref_digest else wl.ops
        if traced:
            layer.append((layer_metrics(stats, wl.ops, wl.sizes(out), tracer.absent_names),
                          dict(stats.calls)))
            self_check.append(stats.self_sum() / elapsed)
        if code and len(setup_times) < SETUP_REPEATS and len(passes["untraced"]) % every == 0:
            deadline += measure_setup()
    while code and len(setup_times) < SETUP_REPEATS:
        measure_setup()
    return {"passes": passes, "layer": layer, "self_time_ratio": self_check,
            "attempted": attempted, "failed": failed, "digest": ref_digest,
            "check_notes": notes, "setup_s": setup_times}


def summarize_layers(res, tracer):
    """Median per-layer metrics over traced passes, plus the trace self-checks."""
    from layers import PER_LAYER

    per_pass = [m for m, _ in res["layer"]]
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in PER_LAYER if name in per_pass[0]}
    untraced = statistics.median(res["passes"]["untraced"])
    traced = statistics.median(res["passes"]["traced"])
    metrics["trace.overhead_frac"] = untraced / traced - 1.0
    ratios = res["self_time_ratio"]
    counts = [c for _, c in res["layer"]]
    checks = {
        "absent_names": tracer.absent,
        "self_time_over_wall": [min(ratios), max(ratios)],
        "self_time_ok": all(abs(r - 1.0) <= SELF_TIME_TOLERANCE for r in ratios),
        "counts_repeat": all(c == counts[0] for c in counts),
        "counts": counts[0],
    }
    return metrics, checks


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads
    from layers import PER_LAYER, targets
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tracer = Tracer(targets()) if args.trace else None
    code = setup_code(args.workload, args.seed) if args.trace == 0 else None
    res = run_passes(wl, args.seconds, tracer, code)
    probe = wl.probe() if hasattr(wl, "probe") else None

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    untraced = res["passes"]["untraced"]
    q1, ops_per_s, q3 = quartiles(untraced)
    raw_q1, raw_median, raw_q3 = quartiles(res["passes"]["untraced_raw"])
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}: {wl.ops} ops per pass, {len(untraced)} untraced "
          f"passes, closed loop, 1 process")
    print(f"ops_per_s      {ops_per_s:.6g} 1/s  at reference speed (q1 {q1:.6g}, q3 {q3:.6g}); "
          f"as timed: median {raw_median:.6g} (q1 {raw_q1:.6g}, q3 {raw_q3:.6g})")
    print(f"fail_frac      {res['failed'] / res['attempted']:.6g}  "
          f"({res['failed']} of {res['attempted']} ops)")
    for note in res["check_notes"][:10]:
        print(f"  check: {note}")
    print(f"digest         sha256 {res['digest']}")
    if probe is not None:
        print(f"scale_probe    {len(probe[1])} of {probe[0]} extreme-scale probes failed")
        for note in probe[1]:
            print(f"  probe: {note}")

    result = {"env": env, "args": vars(args), "ops_per_pass": wl.ops, "passes": res["passes"],
              "digest": res["digest"], "check_notes": res["check_notes"],
              "scale_probe": probe and {"probes": probe[0], "failures": probe[1]}}
    if args.trace == 0:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(res["setup_s"])
        print(f"setup_s        {setup_s:.6g} s  (median of {SETUP_REPEATS} fresh interpreters, "
              f"at reference speed)")
        print(f"peak_rss_mb    {peak_rss_mb:.6g} MB")
        metrics = {"ops_per_s": (ops_per_s, "1/s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        result["setup_s"] = res["setup_s"]
    else:
        layer, checks = summarize_layers(res, tracer)
        layer["cli.scale_probe_failures"] = float(len(probe[1])) if probe else 0.0
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        units.update({"trace.overhead_frac": "frac", "cli.scale_probe_failures": "count"})
        metrics = {name: (value, units[name]) for name, value in layer.items()}
        for name in units:
            print(f"{name:42s} " + (f"{layer[name]:.6g} {units[name]}" if name in layer
                                    else "absent"))
        print(f"trace self-check: {json.dumps(checks)}")
        result["trace_checks"] = checks
        tracer.write_spans(OUT / f"{tag}-spans.csv")
    result["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
