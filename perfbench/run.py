"""Scorer benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload score-2d --seed 0 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each workload is a closed loop with one caller in one process
(``cli-pipeline`` starts one child process at a time), pinned to one CPU,
with BLAS pinned to one thread.  The run renders its inputs from ``--seed``
(set-up), then runs ops until ``--seconds`` have passed, checks every op's
output, prints a summary and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``),
measured with no wrapper installed; op times are divided by the run's median
time of a reference computation timed before every op (``CALIBRATOR``), so
that the shared host's speed drift cancels; set-up time is divided by it
too and kept in seconds by multiplying with a fixed reference time
(``REF_HOST_S``).  With ``--trace 1`` the public
functions of each layer are wrapped from outside (``spans.py``), ops rotate
between traced, untraced and allocation-traced, and the metrics are the
per-layer ones (``PER_LAYER``).  The full record (environment, every op,
spans) goes to ``perfbench/out/``.  The exit code is 1 when any op failed its
check and 3 when the memory guard skipped the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("score-2d", "score-3d", "cli-pipeline", "kernels")
BLAS_THREADS = "1"
SETUP_PROBES = 5
# The median calibration time on the host the baseline was recorded on
# (2 cores, Python 3.11.7).  setup_s is reported as set-up time in units of
# the run's median calibration time, times this constant: seconds at that
# host's speed.
REF_HOST_S = 0.064
# Skip a workload whose estimated peak exceeds this share of physical memory.
MEMORY_SHARE = 0.5
TAIL_BEYOND = 10
TRACE_KINDS = ("spans", None, "alloc")

# Op times are in units of the run's median calibration time ("ref");
# setup_s is rescaled to REF_HOST_S.
END_TO_END = (
    ("ops_per_kref", "op/kref"),
    ("op_p50_ref", "ref"),
    ("op_tail_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, unit, span name, how).  "self", "calls" and "fact" are per traced
# op; "mean" is the fact per call; "peak" the largest allocation peak of one
# call; "setup_*" are totals over input rendering.
PER_LAYER = (
    ("tensor.windowed_moments.self_s", "s", "tensor.windowed_moments", "self"),
    ("tensor.windowed_moments.calls", "count", "tensor.windowed_moments", "calls"),
    ("tensor.windowed_moments.peak_alloc_mb", "MB", "tensor.windowed_moments", "peak"),
    ("metrics.distance_transform.self_s", "s", "metrics.distance_transform", "self"),
    ("metrics.distance_transform.peak_alloc_mb", "MB", "metrics.distance_transform", "peak"),
    ("metrics.ssim.self_s", "s", "metrics.ssim", "self"),
    ("metrics.ms_ssim.self_s", "s", "metrics.ms_ssim", "self"),
    ("metrics.cw_ssim.self_s", "s", "metrics.cw_ssim", "self"),
    ("metrics.psnr.self_s", "s", "metrics.psnr", "self"),
    ("metrics.detect_ce.self_s", "s", "metrics.detect_ce", "self"),
    ("metrics.evaluate_triple.self_s", "s", "metrics.evaluate_triple", "self"),
    ("metrics.ms_ssim.scales_used", "count", "metrics.ms_ssim", "mean"),
    ("metrics.detect_ce.ce_voxels", "count", "metrics.detect_ce", "mean"),
    ("phantom.generate.self_s", "s", "phantom.generate", "setup_self"),
    ("phantom.generate.calls", "count", "phantom.generate", "setup_calls"),
    ("phantom.make_triple.self_s", "s", "phantom.make_triple", "setup_self"),
    ("io.read_tensor.self_s", "s", "io.read_tensor", "self"),
    ("io.read_tensor.bytes", "B", "io.read_tensor", "fact"),
    ("io.write_tensor.self_s", "s", "io.write_tensor", "self"),
    ("io.write_tensor.bytes", "B", "io.write_tensor", "fact"),
    ("io.write_report.self_s", "s", "io.write_report", "self"),
    ("io.read_report.self_s", "s", "io.read_report", "self"),
    ("io.merge_reports.self_s", "s", "io.merge_reports", "self"),
    ("io.canonical_bytes.self_s", "s", "io.canonical_bytes", "self"),
    ("cli.import_s", "s", None, "import"),
    ("cli.main.self_s", "s", "cli.main", "self"),
    ("tensor.conv.self_s", "s", "tensor.conv", "self"),
    ("tensor.conv.calls", "count", "tensor.conv", "calls"),
    ("kernels.features.self_s", "s", "kernels.features", "self"),
    ("kernels.features.calls", "count", "kernels.features", "calls"),
    ("kernels.grad_check.self_s", "s", "kernels.grad_check", "self"),
    ("kernels.convlstm_cell.self_s", "s", "kernels.convlstm_cell", "self"),
    ("kernels.convlstm_cell.calls", "count", "kernels.convlstm_cell", "calls"),
    ("trace.overhead_s", "s", None, "overhead"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "cpu": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }


def probe(workload, seed: int) -> int:
    """Child side of a set-up sample: render the inputs, print the wall clock."""
    workload.setup(seed)
    print(repr(time.time()), flush=True)
    workload.teardown()
    return 0


def setup_sample(args) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are rendered."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--probe"]
    spawned = time.time()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - spawned


def own_peak_rss_mb() -> float:
    """This process's peak RSS since exec (VmHWM), not inherited from its parent."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kib / 1024.0


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile (at least the median) with TAIL_BEYOND samples above it.

    Uses the nearest-rank percentile; returns (value, percentile, samples beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    best = 50
    for q in range(51, 100):
        rank = -(-q * n // 100)
        if n - rank < TAIL_BEYOND:
            break
        best = q
    rank = max(1, -(-best * n // 100))
    return ordered[rank - 1], best, n - rank


# The reference computation mixes what the workloads spend time on:
# interpreted Python, BLAS, streaming an array larger than L2, and starting a
# bare interpreter.  It runs in a helper process on the same CPU, so its
# arrays stay out of the run's peak RSS.
CALIBRATOR = """
import subprocess, sys, time
import numpy as np
rng = np.random.default_rng(0)
matrix, stream = rng.normal(size=(200, 200)), rng.normal(size=2**20)
for _ in sys.stdin:
    start = time.perf_counter()
    total = 0
    for k in range(150_000):
        total += k * k
    for _ in range(10):
        matrix @ matrix
    for _ in range(3):
        (stream * 1.5).sum()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    print(repr(time.perf_counter() - start), flush=True)
"""


class Calibrator:
    """Times the reference computation on request; one call per op."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", CALIBRATOR], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self()  # warm up

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def run_loop(workload, seconds: float, tracer, spans_dir: Path, calibrate: Calibrator):
    """Closed loop until ``seconds`` pass; whole passes for multi-command ops.

    With a tracer, passes rotate through three kinds: spans only (self times
    and counts), untraced (the base for the tracing overhead) and spans with
    tracemalloc (allocation peaks, whose bookkeeping would distort times).
    """
    per_pass = getattr(workload, "per_pass", 1)
    ops, summaries = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        kind = TRACE_KINDS[(i // per_pass) % 3] if tracer else None
        for _ in range(per_pass):
            cal = calibrate()
            launcher = None
            if kind and per_pass > 1:
                launcher = [sys.executable, str(ROOT / "perfbench" / "launch.py"),
                            str(spans_dir / f"op{i}.json"), str(i), str(int(kind == "alloc"))]
            elif kind:
                tracer.op = i
                tracer.active = True
                if kind == "alloc":
                    tracemalloc.start()
            error = None
            t0 = time.perf_counter()
            try:
                output = workload.op(i, launcher) if launcher else workload.op(i)
            except Exception as e:  # an op that raises counts as failed
                output, error = None, f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            if tracer:
                tracer.active = False
                tracemalloc.stop()
            summaries.append(None if error else workload.summary(i, output))
            ops.append({"i": i, "latency_s": t1 - t0, "cal_s": cal, "kind": kind,
                        "failure": error})
            i += 1
        if t1 >= deadline:
            return ops, summaries, t1 - start


def layer_metrics(rows: dict, alloc_rows: dict, setup_rows: dict, n_traced: int,
                  import_s: float, overhead_s: float) -> dict:
    out = {}
    source = {"peak": alloc_rows, "setup_self": setup_rows, "setup_calls": setup_rows}
    for name, unit, span, how in PER_LAYER:
        row = source.get(how, rows).get(span, {})
        calls = row.get("calls", 0)
        if how == "import":
            value = import_s
        elif how == "overhead":
            value = overhead_s
        elif how == "peak":
            value = row.get("peak_bytes", 0) / 2**20
        elif how == "mean":
            value = row["fact"] / calls if calls else 0.0
        elif how == "setup_self":
            value = row.get("self_s", 0.0)
        elif how == "setup_calls":
            value = calls
        else:
            key = {"self": "self_s", "calls": "calls", "fact": "fact"}[how]
            value = row.get(key, 0) / n_traced
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dcemetrics" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dcemetrics'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # one CPU for the run and its children, so the calibration shares its host
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))

    tracer = None
    import_s = 0.0
    if args.trace:
        start = time.perf_counter()
        import dcemetrics.cli  # noqa: F401  (timed cold import)

        import_s = time.perf_counter() - start
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    import workloads

    workload = workloads.make_workloads(ROOT)[args.workload]
    if args.probe:
        return probe(workload, args.seed)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "env": environment(args.seed)}
    estimate = workload.estimate_bytes()
    budget = MEMORY_SHARE * os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    record["estimated_peak_bytes"] = estimate
    if estimate > budget:
        record["skipped"] = f"skipped: est. {estimate / 2**30:.1f} GB"
        print(record["skipped"])
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
        return 3

    setup_s = [setup_sample(args) for _ in range(0 if tracer else SETUP_PROBES)]
    if tracer:
        tracer.active = True
    workload.setup(args.seed)
    if tracer:
        tracer.active = False
    spans_dir = getattr(workload, "work", OUT)
    spawns = getattr(workload, "per_pass", 1) > 1
    calibrate = Calibrator()
    try:
        ops, summaries, elapsed = run_loop(workload, args.seconds, tracer, spans_dir, calibrate)
        for op, summary in zip(ops, summaries):
            if op["failure"] is None:
                op["failure"] = workload.check(op["i"], summary, summaries)
        commands = []
        if tracer and spawns:
            for op in ops:
                path = spans_dir / f"op{op['i']}.json"
                if op["kind"] and path.is_file():
                    commands.append({"op": op["i"], **json.loads(path.read_text())})
    finally:
        calibrate.close()
        workload.teardown()

    attempted = len(ops)
    failed = sum(op["failure"] is not None for op in ops)
    latencies = [op["latency_s"] for op in ops]
    if tracer is None:
        if spawns:
            peak_rss = max((s["rss_mb"] for s in summaries if s), default=0.0)
        else:
            peak_rss = own_peak_rss_mb()
        tail_s, tail_q, beyond = tail(latencies)
        ref_s = statistics.median(op["cal_s"] for op in ops)
        raw = {"ops_per_s": (attempted - failed) / sum(latencies),
               "op_p50_s": statistics.median(latencies), "op_tail_s": tail_s, "ref_s": ref_s,
               "setup_s": statistics.median(setup_s)}
        values = {
            "ops_per_kref": 1000.0 * raw["ops_per_s"] * ref_s,
            "op_p50_ref": raw["op_p50_s"] / ref_s,
            "op_tail_ref": tail_s / ref_s,
            "peak_rss_mb": peak_rss,
            "setup_s": raw["setup_s"] / ref_s * REF_HOST_S,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record.update(raw_seconds=raw, tail_percentile=tail_q, tail_beyond=beyond,
                      setup_samples_s=setup_s)
        notes = {"op_tail_ref": f"p{tail_q} of {attempted} ops, {beyond} beyond",
                 "setup_s": f"median of {len(setup_s)} fresh processes, in refs"
                            f" times {REF_HOST_S} s"}
    else:
        from spans import summarize

        traced = [op for op in ops if op["kind"] == "spans"]
        untraced = [op["latency_s"] for op in ops if op["kind"] is None]
        timing_ops = {op["i"] for op in traced}
        alloc_ops = {op["i"] for op in ops if op["kind"] == "alloc"}
        rows = summarize(tracer.spans, timing_ops, {})
        alloc_rows = summarize(tracer.spans, alloc_ops, {})
        for c in commands:
            summarize(c["spans"], timing_ops, rows)
            summarize(c["spans"], alloc_ops, alloc_rows)
        if commands:
            import_s = statistics.median(c["import_s"] for c in commands)
        overhead = (statistics.median(op["latency_s"] for op in traced)
                    - statistics.median(untraced)) if untraced else 0.0
        metrics = layer_metrics(rows, alloc_rows, summarize(tracer.spans, {"setup"}, {}),
                                len(traced), import_s, overhead)
        notes = {}
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.dump(spans_path, commands=commands)
        record["spans_file"] = spans_path.name

    record.update(attempted=attempted, failed=failed, elapsed_s=elapsed, metrics=metrics,
                  ops=ops)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  blas_threads {env['blas_threads']}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}"
              + (f"  ({notes[name]})" if name in notes else ""))
    if tracer is None:
        print("raw: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"ops_failed_frac: {failed / attempted:.6g} fraction  ({failed} of {attempted})")
    for op in ops:
        if op["failure"]:
            print(f"op {op['i']} failed: {op['failure']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
