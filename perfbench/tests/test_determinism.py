#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/tests/test_determinism.py [workload ...]

For each workload (default: all four), three short traced runs of
kami_perfbench:

* two with one seed must give identical deterministic end-to-end metrics,
  identical per-layer counts and identical inputs;
* one with a second seed must change the generated inputs and nothing
  else: the same op count and the same deterministic metrics.

Every run must pass its own output checks. Builds through run.py's build
step first; run it from the repository root.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE.parent))
import check_trace  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("sweep_full", "serve_fit", "serve_burst", "tune_grid")
SEED, SECOND_SEED = 4242, 9001

DETERMINISTIC = ("ok_pct", "sim_tflops_geomean", "sim_speedup_err_pct", "slo_attain_pct",
                 "sim_p99_kcycles")
LAYER_COUNTS = ("model.trusted_route_pct", "model.prediction_error_p50_pct",
                "model.confident_buckets", "autotune.pruned_pct",
                "autotune.simulated_per_decision", "cache.hit_pct", "cache.evictions",
                "serve.hedged_pct", "serve.failovers", "serve.degraded_pct",
                "serve.rejected_pct", "serve.queue_depth_max", "obs.histogram_samples")


def traced_run(binary, workload, seed, out_dir):
    trace = out_dir / f"{workload}-seed{seed}.json"
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", "1", "--trace-out", str(trace)],
        capture_output=True, text=True, env=run.child_env(), timeout=run.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = run.last_json_line(proc.stdout)
    errors = check_trace.check_file(trace)
    return result, errors


def check_workload(binary, workload, out_dir):
    failures = []
    a, a_trace = traced_run(binary, workload, SEED, out_dir)
    b, b_trace = traced_run(binary, workload, SEED, out_dir)
    c, c_trace = traced_run(binary, workload, SECOND_SEED, out_dir)
    for name, res, trace_errors in (("first", a, a_trace), ("repeat", b, b_trace),
                                    ("second seed", c, c_trace)):
        if res["problems"]:
            failures.append(f"{name} run failed {res['problems']} output check(s)")
        failures += [f"{name} run trace: {e}" for e in trace_errors]
    if a["input_digest"] != b["input_digest"]:
        failures.append("one seed generated different inputs twice")
    for key in DETERMINISTIC + LAYER_COUNTS:
        if a["metrics"][key] != b["metrics"][key]:
            failures.append(f"{key}: {a['metrics'][key]!r} then {b['metrics'][key]!r}")
    if a["input_digest"] == c["input_digest"]:
        failures.append("a second seed did not change the generated inputs")
    if a["attempted"] != c["attempted"]:
        failures.append(f"a second seed changed the op count: {a['attempted']} vs "
                        f"{c['attempted']}")
    for key in DETERMINISTIC:
        if a["metrics"][key] != c["metrics"][key]:
            failures.append(f"a second seed changed {key}: {a['metrics'][key]!r} vs "
                            f"{c['metrics'][key]!r}")
    return failures


def main(argv):
    workloads = argv[1:] or WORKLOADS
    bdir = run.build_dir()
    binary = run.build(bdir)
    out_dir = bdir / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for w in workloads:
        failures = check_workload(binary, w, out_dir)
        print(f"{w}: {'ok' if not failures else 'FAILED'}")
        for f in failures:
            print(f"  {f}")
        failed += bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
