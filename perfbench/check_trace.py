#!/usr/bin/env python3
"""Validate a span trace written by a traced benchmark run.

    python3 perfbench/check_trace.py <trace.json>

Checks that every span is closed, that children nest inside their parent and
belong to its op, that no span's self time (its duration minus its children's)
is negative, and that the per-layer metrics the run reported agree with the
spans: each layer's share recomputed from span totals, and the workload's
layer shares plus its remainder summing to the op time.
"""

import collections
import json
import sys

# Per workload: the public-call spans whose total is the op time, and the
# share metrics (layers plus the remainder) that must sum to 100 %.
LAYOUT = {
    "sweep_full": (("call.kami", "call.baseline", "call.batched"),
                   ("sim.share_pct", "core.numerics_share_pct", "core.full_coupling_pct",
                    "baselines.share_pct", "core.batched_share_pct")),
    "serve_fit": (("call.serve",),
                  ("serve.route_share_pct", "core.estimate_plan_share_pct", "sim.share_pct",
                   "baselines.reference_share_pct", "serve.self_share_pct")),
    "serve_burst": (("call.submit", "call.drain"),
                    ("serve.route_share_pct", "core.estimate_plan_share_pct", "sim.share_pct",
                     "baselines.reference_share_pct", "serve.self_share_pct")),
    "tune_grid": (("call.autotune",),
                  ("autotune.prescreen_share_pct", "sim.share_pct", "autotune.self_share_pct")),
}


def close(a, b, rel=1e-6, abs_=1e-9):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def check(doc):
    errors = []
    names = doc["names"]
    spans = doc["spans"]
    metrics = doc["metrics"]
    workload = doc["meta"]["workload"]
    if workload not in LAYOUT:
        return [f"unknown workload {workload!r}"]
    if not spans:
        return ["the trace holds no spans"]

    child_ns = [0] * len(spans)
    for i, (name, start, end, parent, op) in enumerate(spans):
        label = f"span {i} ({names[name]})"
        if end < start:
            errors.append(f"{label} is open or ends before it starts")
            continue
        if parent >= 0:
            if parent >= i:
                errors.append(f"{label} names a later span as its parent")
                continue
            _, pstart, pend, _, pop = spans[parent]
            if start < pstart or end > pend:
                errors.append(f"{label} does not nest inside its parent {parent}")
            # A serve_burst slot span groups the requests of one slot.
            if op != pop and names[spans[parent][0]] != "slot" and op >= 0:
                errors.append(f"{label} belongs to op {op}, its parent to op {pop}")
            child_ns[parent] += end - start
        if len(errors) > 20:
            return errors + ["(further errors omitted)"]
    for i, (name, start, end, _, _) in enumerate(spans):
        if end >= start and end - start - child_ns[i] < 0:
            errors.append(f"span {i} ({names[name]}) has negative self time")

    total = collections.Counter()
    count = collections.Counter()
    for name, start, end, _, _ in spans:
        total[names[name]] += end - start
        count[names[name]] += 1

    calls, shares = LAYOUT[workload]
    call_ns = sum(total[c] for c in calls)
    if call_ns <= 0:
        return errors + ["no public-call spans"]

    def expect(metric, value):
        if metric not in metrics:
            errors.append(f"the run did not report {metric}")
        elif not close(metrics[metric], value):
            errors.append(f"{metric} = {metrics[metric]!r}, spans give {value!r}")

    def pct(ns):
        return 100.0 * ns / call_ns

    def mean_us(name):
        return total[name] / count[name] / 1e3 if count[name] else 0.0

    if workload == "sweep_full":
        sim, num = total["replay.sim"], total["replay.numerics"]
        expect("sim.share_pct", pct(sim))
        expect("core.numerics_share_pct", pct(num))
        expect("core.full_coupling_pct", pct(total["call.kami"] - sim - num))
        expect("baselines.share_pct", pct(total["call.baseline"]))
        expect("core.batched_share_pct", pct(total["call.batched"]))
        expect("sim.timing_us", mean_us("replay.sim"))
    elif workload in ("serve_fit", "serve_burst"):
        replays = ("replay.route", "replay.estimate_plan", "replay.sim", "replay.reference")
        requests = count["call.serve"] if workload == "serve_fit" else count["call.submit"]
        expect("serve.route_share_pct", pct(total["replay.route"]))
        expect("core.estimate_plan_share_pct", pct(total["replay.estimate_plan"]))
        expect("sim.share_pct", pct(total["replay.sim"]))
        expect("baselines.reference_share_pct", pct(total["replay.reference"]))
        self_ns = call_ns - sum(total[r] for r in replays)
        expect("serve.self_share_pct", pct(self_ns))
        expect("serve.self_us", self_ns / requests / 1e3)
        expect("serve.route_us", mean_us("replay.route"))
        expect("sim.timing_us", mean_us("replay.sim"))
    else:
        expect("autotune.prescreen_share_pct", pct(total["replay.prescreen"]))
        expect("autotune.prescreen_us", mean_us("replay.prescreen"))
        expect("sim.timing_us", mean_us("replay.sim"))

    if all(s in metrics for s in shares):
        share_sum = sum(metrics[s] for s in shares)
        if not close(share_sum, 100.0, rel=1e-9):
            errors.append(f"layer shares plus remainder sum to {share_sum!r} %, not 100 %")
    return errors


def check_file(path):
    with open(path) as f:
        return check(json.load(f))


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    errors = check_file(argv[1])
    for e in errors:
        print(e)
    print("trace ok" if not errors else f"{len(errors)} error(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
