#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run builds kami_perfbench, and the
library from this checkout's sources, under $CARGO_TARGET_DIR (default
.bench_build). Each run then measures the host (FP32/FP64 multiply-add peak
and streaming bandwidth), runs the workload in its own single-threaded
process, and measures the host again.

--trace 0 reports every end-to-end metric of BENCHMARK.json; --trace 1 reports
every per-layer metric, writes the span trace, and validates it with
check_trace.py. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}. The exit status is non-zero
when a check fails or the workload cannot be built or run.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))
import check_trace  # noqa: E402

# Which end-to-end metric on which workload each layer metric should move,
# and where it should stay flat (README.md has the reasoning).
LAYER_PREDICTIONS = {
    "sim.timing_us": "moves throughput_ops_s on tune_grid, latency_p50_ms on serve_fit",
    "sim.ns_per_cycle": "moves throughput_ops_s on tune_grid, latency_p50_ms on serve_fit",
    "core.numerics_gflops": "moves throughput_ops_s, latency_p99_ms on sweep_full; flat elsewhere",
    "core.numerics_peak_pct": "moves throughput_ops_s, latency_p99_ms on sweep_full; flat elsewhere",
    "core.numerics_share_pct": "moves throughput_ops_s, latency_p99_ms on sweep_full; flat elsewhere",
    "core.full_coupling_pct": "moves throughput_ops_s on sweep_full; flat elsewhere",
    "core.batched_us_per_entry": "moves throughput_ops_s on sweep_full; flat elsewhere",
    "baselines.share_pct": "moves throughput_ops_s on sweep_full; flat elsewhere",
    "baselines.reference_ms": "moves throughput_ops_s, latency_p99_ms on serve_burst; "
                              "flat on sweep_full, tune_grid",
    "baselines.reference_share_pct": "moves throughput_ops_s, latency_p99_ms on serve_burst; "
                                     "flat on sweep_full, tune_grid",
    "core.estimate_plan_us": "moves latency_p50_ms on serve_fit; flat on sweep_full",
    "model.trusted_route_pct": "moves slo_attain_pct, sim_p99_kcycles on serve_fit/serve_burst",
    "model.prediction_error_p50_pct": "moves slo_attain_pct, sim_p99_kcycles on "
                                      "serve_fit/serve_burst",
    "model.confident_buckets": "moves slo_attain_pct, sim_p99_kcycles on serve_fit/serve_burst",
    "autotune.pruned_pct": "moves throughput_ops_s on tune_grid (sim_tflops_geomean held); "
                           "flat on sweep_full, serve_fit",
    "autotune.simulated_per_decision": "moves throughput_ops_s on tune_grid; "
                                       "flat on sweep_full, serve_fit",
    "autotune.prescreen_us": "moves throughput_ops_s on tune_grid; flat on sweep_full, serve_fit",
    "cache.hit_pct": "moves throughput_ops_s on tune_grid; flat on sweep_full, serve_fit",
    "cache.evictions": "moves throughput_ops_s on tune_grid; flat on sweep_full, serve_fit",
    "serve.route_us": "moves latency_p50_ms on serve_fit; flat on sweep_full, tune_grid",
    "serve.self_us": "moves latency_p50_ms on serve_fit; flat on sweep_full, tune_grid",
    "serve.hedged_pct": "moves latency_p50_ms on serve_fit, ok_pct on serve_burst",
    "serve.failovers": "moves ok_pct, latency_p99_ms on serve_burst",
    "serve.degraded_pct": "moves ok_pct, latency_p99_ms on serve_burst",
    "serve.rejected_pct": "moves ok_pct on serve_burst",
    "serve.drain_ms": "moves latency_p99_ms on serve_burst",
    "serve.queue_depth_max": "moves ok_pct, latency_p99_ms on serve_burst",
    "obs.histogram_samples": "moves peak_rss_mb on serve_fit and serve_burst",
    "trace.overhead_pct": "traced vs untraced throughput_ops_s, op spans only",
}

CHILD_TIMEOUT_S = 170


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir):
    """Configure once, then build kami_perfbench (incremental after the first run)."""
    if not (ROOT / "src" / "core" / "kami.hpp").is_file():
        raise RuntimeError(f"no KAMI sources under {ROOT / 'src'}")
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "kami_perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True, timeout=850)
    return bdir / "kami_perfbench"


def child_env():
    env = dict(os.environ)
    env.pop("KAMI_THREADS", None)  # one worker: the library's serial path
    return env


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError("no result line in kami_perfbench's output")


def probe(binary):
    out = subprocess.run([str(binary), "--probe"], capture_output=True, text=True,
                         env=child_env(), check=True, timeout=60)
    return last_json_line(out.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}")

    bdir = build_dir()
    binary = build(bdir)

    started = time.monotonic()
    before = probe(binary)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--peak-f32", repr(before["f32_gflops"]), "--peak-f64", repr(before["f64_gflops"])]
    trace_path = None
    if args.trace:
        trace_path = bdir / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    run = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                         timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        raise RuntimeError(f"kami_perfbench exited with {run.returncode}")
    result = last_json_line(run.stdout)
    after = probe(binary)

    problems = result["problems"]
    trace_errors = []
    if trace_path is not None:
        trace_errors = check_trace.check_file(trace_path)
        for e in trace_errors:
            print(f"trace check failed: {e}", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            raise RuntimeError(f"the workload did not report {m['name']}")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}

    print(f"host probe: fp32 {before['f32_gflops']:.2f} -> {after['f32_gflops']:.2f} GFLOP/s, "
          f"fp64 {before['f64_gflops']:.2f} -> {after['f64_gflops']:.2f} GFLOP/s, "
          f"triad {before['triad_gbs']:.2f} -> {after['triad_gbs']:.2f} GB/s", file=sys.stderr)
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:14.4f} {m['unit']:9s} "
                  f"{LAYER_PREDICTIONS.get(name, '')}", file=sys.stderr)

    correct = problems == 0 and not trace_errors
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "wall_s": time.monotonic() - started,
        "probe_before": before, "probe_after": after, "result": result,
    }
    runs = bdir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
