#!/usr/bin/env python3
"""vcbench host-time benchmark.

Builds the simulator and the `vcb_host` binary from source, runs one named
workload and prints every metric by name with its unit, median, quartiles and
sample count, then one JSON result object as the last line of stdout:

    python3 hostbench/run.py --workload city --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics (untraced). --trace 1 runs the
traced pass instead and prints the per-layer host-time table. The command
exits non-zero when any output check fails. See hostbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hostbench"
BINARY = BUILD / "vcb_host"

WORKLOADS = ("city", "townhall", "qoe")
# Parallel compile jobs for the build; vcb_host picks its own runner threads.
BUILD_JOBS = min(4, os.cpu_count() or 1)
RUN_TIMEOUT_S = 170
TAIL_BEYOND = 10

# End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "participant_s_per_s": "participant_s/s",
    "task_wall_s.p50": "s",
    "task_wall_s.tail": "s",
    "sim_events_per_s": "events/s",
    "setup_s": "s",
    "max_rss_mb": "MiB",
    "task_fail_frac": "ratio",
}

# Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "feeds.frames": "count",
    "feeds.host_s": "s",
    "feeds.share": "ratio",
    "codec.encode_frames": "count",
    "codec.decode_frames": "count",
    "codec.encode_host_s": "s",
    "codec.decode_host_s": "s",
    "codec.share": "ratio",
    "qoe.pairs_scored": "count",
    "qoe.align_calls": "count",
    "qoe.host_s": "s",
    "qoe.share": "ratio",
    "net.events": "count",
    "net.queue_depth_hwm": "count",
    "net.packets_sent": "count",
    "net.packets_lost": "count",
    "net.delivery_batch_mean": "pkts",
    "net.host_s": "s",
    "net.share": "ratio",
    "relay.media_in": "count",
    "relay.media_forwarded": "count",
    "relay.fan_out_mean": "receivers",
    "relay.departure_batch_mean": "pkts",
    "relay.host_s": "s",
    "relay.share": "ratio",
    "fleet.trunk_packets": "count",
    "fleet.trunk_dropped": "count",
    "fleet.host_s": "s",
    "fleet.share": "ratio",
    "client.joins": "count",
    "client.reconnects": "count",
    "client.join_latency_ms.mean": "sim_ms",
    "capture.records": "count",
    "capture.host_s": "s",
    "runner.aggregate_host_s": "s",
    "runner.parallel_efficiency": "ratio",
    "unattributed.host_s": "s",
    "unattributed.share": "ratio",
    "trace_overhead": "ratio",
}

# Host-time terms that, with unattributed.host_s, sum to the traced wall.
HOST_TERMS = (
    "feeds.host_s",
    "codec.encode_host_s",
    "codec.decode_host_s",
    "qoe.host_s",
    "net.host_s",
    "relay.host_s",
    "fleet.host_s",
    "capture.host_s",
    "runner.aggregate_host_s",
)
# Bounds on unattributed.share. Below the floor the layer terms explain more
# than the traced wall (a replay or calibration over-counts); above the
# ceiling the table no longer accounts for most of the run.
UNATTRIBUTED_FLOOR = -0.10
UNATTRIBUTED_CEILING = 0.40


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds vcb_host; raises on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "vcb_host", "-j", str(BUILD_JOBS)],
        check=True, stdout=sys.stderr)


def run_vcb_host(workload, seed, seconds, trace):
    """Runs vcb_host once and returns its raw measurement object."""
    args = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds)), "--mode", "layers" if trace else "e2e"]
    if trace:
        spans = BUILD / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"vcb_host exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_percentile(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (percentile, value): the sample that has exactly `beyond` samples
    ranked after it, and the share of samples at or below it. With `beyond`
    samples or fewer no such percentile exists; the minimum is returned as
    (0.0, min).
    """
    ranked = sorted(values)
    n = len(ranked)
    if n <= beyond:
        return 0.0, ranked[0]
    k = n - beyond - 1
    return 100.0 * (k + 1) / n, ranked[k]


def stat(values, unit, note=""):
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "note": note}


def e2e_metrics(raw):
    """End-to-end metrics from an e2e-mode measurement: name -> stat."""
    e = raw["e2e"]
    rounds = list(zip(e["round_wall_s"], e["round_participant_s"], e["round_sim_events"]))
    pct, tail = tail_percentile(e["task_wall_s"])
    ntask = len(e["task_wall_s"])
    u = END_TO_END
    return {
        "participant_s_per_s": stat([p / w for w, p, _ in rounds], u["participant_s_per_s"],
                                    "median over rounds"),
        "task_wall_s.p50": stat(e["task_wall_s"], u["task_wall_s.p50"], "median over tasks"),
        "task_wall_s.tail": {**stat(e["task_wall_s"], u["task_wall_s.tail"]), "value": tail,
                             "q1": None, "q3": None,
                             "note": f"p{pct:.1f} of n={ntask}, {TAIL_BEYOND} beyond"
                             if pct else f"min of n={ntask} (<={TAIL_BEYOND} samples)"},
        "sim_events_per_s": stat([ev / w for w, _, ev in rounds], u["sim_events_per_s"],
                                 "median over rounds"),
        "setup_s": stat(e["setup_s"], u["setup_s"], "minimal-media task, median of repeats"),
        "max_rss_mb": stat([e["max_rss_mb"]], u["max_rss_mb"], "peak of the process"),
        "task_fail_frac": stat([e["failed"] / e["attempted"]], u["task_fail_frac"],
                               f"{int(e['failed'])} of {int(e['attempted'])}"),
    }


def reconcile(layers, traced_wall):
    """(attributed host seconds, residual share, ok) for the layer table.

    The residual is recomputed here from the layer terms and must match the
    reported unattributed.host_s; its share of the traced wall must lie in
    [UNATTRIBUTED_FLOOR, UNATTRIBUTED_CEILING].
    """
    attributed = sum(layers[k] for k in HOST_TERMS)
    residual = traced_wall - attributed
    share = residual / traced_wall if traced_wall > 0 else 0.0
    ok = (traced_wall > 0
          and math.isclose(residual, layers["unattributed.host_s"], rel_tol=1e-9, abs_tol=1e-9)
          and UNATTRIBUTED_FLOOR <= share <= UNATTRIBUTED_CEILING)
    return attributed, share, ok


def print_e2e(workload, raw, metrics):
    e = raw["e2e"]
    print(f"workload {workload}: {raw['tasks']} tasks x {len(e['round_wall_s'])} rounds "
          f"on {raw['threads']} runner threads (closed loop), seed {raw['seed']:.0f}")
    print(f"{'metric':<22} {'unit':<16} {'median':>14} {'q1':>14} {'q3':>14} {'n':>5}  note")
    for name, s in metrics.items():
        q1, q3 = (f"{s[q]:>14.6g}" if s[q] is not None else f"{'-':>14}" for q in ("q1", "q3"))
        print(f"{name:<22} {s['unit']:<16} {s['value']:>14.6g} {q1} {q3} {s['n']:>5}  "
              f"{s['note']}")
    print(f"output_digest {workload} {e['output_digest']}")
    print(f"checks {json.dumps(e['checks'])}; 1-thread pass {e['serial_wall_s']:.3f} s")
    for f in e["failures"]:
        print(f"FAIL {f}")


def print_layers(workload, raw):
    lay = raw["layers"]
    layers = lay["layers"]
    wall = lay["traced_wall_s"]
    print(f"workload {workload}: traced 1-thread pass {wall:.4f} s, untraced "
          f"{lay['serial_wall_s']:.4f} s, {raw['threads']}-thread pass "
          f"{lay['parallel_wall_s']:.4f} s")
    print(f"{'layer metric':<30} {'unit':<10} {'value':>16}")
    for name, unit in PER_LAYER.items():
        print(f"{name:<30} {unit:<10} {layers[name]:>16.6g}")
    attributed, share, ok = reconcile(layers, wall)
    print(f"reconciliation: layer host_s {attributed:.6f} s + unattributed "
          f"{layers['unattributed.host_s']:.6f} s vs traced wall {wall:.6f} s; unattributed.share "
          f"{share:.3f} (allowed {UNATTRIBUTED_FLOOR:g}..{UNATTRIBUTED_CEILING:g}): "
          f"{'ok' if ok else 'MISMATCH'}; trace_overhead {layers['trace_overhead']:.3f}")
    cal = lay["calibration"]
    print("calibration: " + ", ".join(
        f"{k} {v * 1e9:.1f} ns" if k.endswith("_s") else f"{k} {v:.0f}" for k, v in cal.items()))
    print(f"output_digest {workload} {lay['output_digest']}")
    print(f"checks {json.dumps(lay['checks'])}")
    for f in lay["failures"]:
        print(f"FAIL {f}")
    return ok


def benchmark_metric_names(section):
    """Metric names BENCHMARK.json lists in `section`."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        started = time.monotonic()
        build()
        log(f"build: {time.monotonic() - started:.1f} s")
        raw = run_vcb_host(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as err:
        log(f"hostbench: {err}")
        return 1

    if args.trace:
        ok = print_layers(args.workload, raw)
        body = raw["layers"]
        names = benchmark_metric_names("per_layer")
        metrics = {n: {"value": body["layers"][n], "unit": PER_LAYER[n]} for n in names}
    else:
        stats = e2e_metrics(raw)
        print_e2e(args.workload, raw, stats)
        ok = True
        body = raw["e2e"]
        names = benchmark_metric_names("end_to_end")
        metrics = {n: {"value": stats[n]["value"], "unit": stats[n]["unit"]} for n in names}
    checks_ok = all(v is True for v in body["checks"].values())
    correct = ok and checks_ok and int(body["failed"]) == 0 and not body["failures"]
    print(json.dumps({"correct": correct, "attempted": int(body["attempted"]),
                      "failed": int(body["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
