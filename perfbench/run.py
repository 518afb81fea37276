"""nfbist benchmark: one workload per invocation, metrics as a final JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 20 --trace 0

The package is imported from ./src (no install). With --trace 0 the run
times ops untraced and reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced ops and reports the per-layer metrics plus
the tracing overhead (median traced op minus median untraced op). Every op's
output is checked; a failed check counts as a failed op. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}.

Exits 0 after a run, even one with failed ops. Exits non-zero without a
result line when ./src/nfbist is missing or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import ROOT_SPAN, Tracer, accounting_gap, layer_metrics, self_times
from workloads import ROOT, SRC, WORKLOADS, default_config, nominal_nf_db

SETUP_REPEATS = 3
# Op times are reported at reference host speed: raw time multiplied by
# REFERENCE_KERNEL_MS / (median time of reference_kernel in this run). The
# kernel runs between ops, so it sees the same host load as they do; on a
# shared VM whose speed drifted by up to 60% within minutes, this held
# experiment and reanalyze op times to about +-5%. 8.0 ms is a typical
# median on the 2-core Xeon VM the benchmark was defined on.
REFERENCE_KERNEL_MS = 8.0
REFERENCE_KERNEL_REPS = 2
P90_MIN_OPS = 100
# Self times of a traced op must add up to its wall time within this share.
ACCOUNTING_TOLERANCE = 0.01
MAX_ERRORS_SHOWN = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(name: str, seed: int, workdir: Path):
    """Import nfbist from ./src and build the workload's inputs; returns timings."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import nfbist.cli

    import_s = time.perf_counter() - t0
    if Path(nfbist.__file__).resolve().parent != SRC / "nfbist":
        raise SystemExit(f"error: imported nfbist from {nfbist.__file__}, not from {SRC}")
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    return workload, import_s, time.perf_counter() - t0


def probe_setup(args) -> float:
    """Setup time measured in a fresh interpreter, as the first run pays it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu or platform.machine(),
    }


def fingerprint(seed: int) -> dict:
    """SHA-256 of the hot and cold bits at the default config and this seed."""
    from nfbist.pipeline import simulate_bitstreams

    hot, cold = simulate_bitstreams(default_config(seed))
    return {state: hashlib.sha256(b.bits.tobytes()).hexdigest() for state, b in (("hot", hot), ("cold", cold))}


def peak_rss_mb(workload: str) -> float:
    # The cli workload's program runs in child processes; ru_maxrss is in KiB.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def reference_kernel(rng):
    """Fixed numpy work unrelated to nfbist: normal draws, a comparator, an FFT."""
    import numpy as np

    x = rng.standard_normal(250_000)
    bits = np.where(x >= 0.25, 1, -1).astype(np.int8)
    np.fft.rfft(bits.astype(np.float64).reshape(25, 10_000), axis=1)


@dataclass
class Loop:
    """What the timed loop observed. walls[True] lines up with traced_ops."""

    tracer: Tracer | None
    walls: dict = field(default_factory=lambda: {False: [], True: []})
    traced_ops: list = field(default_factory=list)
    failed: set = field(default_factory=set)
    attempted: int = 0
    kernel: list = field(default_factory=list)

    def host_factor(self) -> float:
        """Reference over measured kernel time; below 1 on a slower host."""
        return REFERENCE_KERNEL_MS / (1e3 * statistics.median(self.kernel))


def run(args, workload) -> Loop:
    """Closed loop, one client: the next op starts when the previous one ends.

    Untimed checks do not count towards --seconds. With --trace 1 odd ops are
    traced and even ops are not, so both medians come from the same run.
    """
    import numpy as np

    loop = Loop(Tracer() if args.trace else None)
    tracer, walls, failed = loop.tracer, loop.walls, loop.failed
    rng = np.random.default_rng(0)
    elapsed = 0.0
    while elapsed < args.seconds or (tracer and not (walls[False] and walls[True])):
        for _ in range(REFERENCE_KERNEL_REPS):
            t0 = time.perf_counter()
            reference_kernel(rng)
            loop.kernel.append(time.perf_counter() - t0)
        i = loop.attempted
        loop.attempted += 1
        traced = tracer is not None and i % 2 == 1
        out = None
        if traced:
            tracer.op = i
            loop.traced_ops.append(i)
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = tracer.call(ROOT_SPAN, workload.op, i, tracer) if traced else workload.op(i, None)
        except Exception:
            failed.add(i)
            if len(failed) <= MAX_ERRORS_SHOWN:
                traceback.print_exc()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        elapsed += wall
        walls[traced].append(wall)
        if out is not None:
            problems = workload.check(i, out)
            if problems:
                failed.add(i)
                if len(failed) <= MAX_ERRORS_SHOWN:
                    print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
    gate_failed, summary = workload.finish()
    if summary:
        print(f"gate: {summary}")
    failed.update(gate_failed)
    return loop


def trace_metrics(args, loop: Loop, import_s: float) -> tuple[dict, bool]:
    spans = loop.tracer.spans
    selfs = self_times(spans)
    n = len(loop.traced_ops)
    gaps = [accounting_gap(spans, selfs, op, wall) for op, wall in zip(loop.traced_ops, loop.walls[True])]
    m = layer_metrics(spans, n, nominal_nf_db(), loop.traced_ops[0])
    if args.workload != "cli":
        m["cli.import_ms"] = (1e3 * import_s, "ms")
    untraced, traced = statistics.median(loop.walls[False]), statistics.median(loop.walls[True])
    m["trace.overhead_ms"] = (1e3 * (traced - untraced), "ms")
    m["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    m["trace.self_time_gap_pct"] = (100.0 * max(gaps), "%")
    m["trace.spans_per_op"] = (len(spans) / n, "spans/op")
    ok = max(gaps) <= ACCOUNTING_TOLERANCE
    print(
        f"trace: {n} traced and {len(loop.walls[False])} untraced ops; self times cover "
        f"op wall time within {100 * max(gaps):.4f}% "
        f"(tolerance {100 * ACCOUNTING_TOLERANCE:g}%): {'PASS' if ok else 'FAIL'}"
    )
    return m, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nfbist" / "__init__.py").is_file():
        print(f"error: no nfbist package under {SRC}", file=sys.stderr)
        return 1
    workdir = ROOT / "perfbench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, import_s, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        workload.prepare()
        loop = run(args, workload)
        prints = fingerprint(args.seed)
        env = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    untimed = loop.walls[False]
    factor = loop.host_factor()
    op_ms = [1e3 * w for w in untimed]
    e2e = {
        "ops_per_s": (len(untimed) / sum(untimed) / factor, "1/s"),
        "op_ms_p50": (statistics.median(op_ms) * factor, "ms"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    correct = not loop.failed
    print(f"env: {json.dumps(env)}")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"fingerprint: seed={args.seed} hot_sha256={prints['hot']} cold_sha256={prints['cold']}")
    print(f"setup_s samples: {[round(s, 4) for s in setups]} (import nfbist.cli {import_s:.4f} s in-process)")
    print(
        f"host factor = {factor:.4f} (reference kernel {1e3 * statistics.median(loop.kernel):.3f} ms "
        f"vs {REFERENCE_KERNEL_MS} ms); raw ops_per_s = {len(untimed) / sum(untimed):.6g} 1/s, "
        f"raw op_ms_p50 = {statistics.median(op_ms):.6g} ms"
    )
    if len(op_ms) >= P90_MIN_OPS:
        print(f"op_ms_p90 = {statistics.quantiles(op_ms, n=10)[8] * factor:.4f} ms (n={len(op_ms)} ops)")
    else:
        print(f"op_ms_p90: not reported, n={len(op_ms)} untraced ops < {P90_MIN_OPS}")
    print(f"error_rate = {len(loop.failed)}/{loop.attempted} = {len(loop.failed) / loop.attempted:.6g}")
    for name, (value, unit) in e2e.items():
        print(f"metric {name} = {value:.6g} {unit}")
    metrics = e2e
    if args.trace:
        metrics, trace_ok = trace_metrics(args, loop, import_s)
        correct = correct and trace_ok
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop.attempted,
                "failed": len(loop.failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
