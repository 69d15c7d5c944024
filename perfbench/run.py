#!/usr/bin/env python3
"""The grid benchmark: builds gridbench from source, runs one workload, and
prints every metric by name and unit plus a correctness verdict.

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 45 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones. The lines before it are a human-readable report (see
perfbench/README.md for what each metric means).

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pingpong", "stream", "control_mix", "lossy_pingpong", "control_barrier")
# Headline operation of each workload: its latency is lat_*.
HEADLINE = {
    "pingpong": "round_trip",
    "lossy_pingpong": "round_trip",
    "stream": "message",
    "control_mix": "run_app",
    "control_barrier": "run_app",
}
PRIMARY_KINDS = {
    "pingpong": ["round_trip"],
    "lossy_pingpong": ["round_trip"],
    "stream": ["message"],
    "control_mix": ["login", "status", "run_app", "job"],
    "control_barrier": ["login", "status", "run_app", "job"],
}
# Connection hops one 64 B cross-site round trip crosses: node -> proxy ->
# proxy -> node and back.
PINGPONG_HOPS = 6
BUILD_DEADLINE_S = 900
RUN_DEADLINE_S = 175
WINDOW_S = 2.0  # gridbench's kWindowUs


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ tree to build (run from a full checkout)")
        return None
    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "perfbench")
    out_dir = os.path.abspath(os.path.join(ROOT, out_dir))
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "gridbench")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps.append(["cmake", "--build", out_dir, "--target", "gridbench",
                  "-j", jobs])
    with open(os.path.join(out_dir, "perfbench-build.log"), "w") as build_log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=build_log,
                                      stderr=subprocess.STDOUT, env=env,
                                      timeout=max(1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                log("perfbench: build timed out")
                return None
            if proc.returncode != 0:
                log("perfbench: build failed; see " + build_log.name)
                return None
    return binary


# ---------------------------------------------------------------- counters

def index_registry(snapshot):
    """{(name, frozenset(labels)): instrument} of one registry snapshot."""
    out = {}
    for m in snapshot["registry"]["metrics"]:
        out[(m["name"], frozenset(m["labels"].items()))] = m
    return out


class Diff:
    """Counter and histogram differences between two snapshots. The
    registry is process-global, so only differences mean anything."""

    def __init__(self, before, after):
        self.before = index_registry(before)
        self.after = index_registry(after)
        self.b, self.a = before, after

    def _matches(self, name, labels):
        for (n, lab), inst in self.after.items():
            if n == name and all((k, v) in lab for k, v in labels.items()):
                yield (n, lab), inst

    def counter(self, name, **labels):
        total = 0
        for key, inst in self._matches(name, labels):
            prev = self.before.get(key)
            total += inst["value"] - (prev["value"] if prev else 0)
        return total

    def histogram_quantile(self, name, q, **labels):
        """Quantile of the observations made between the snapshots, linearly
        interpolated inside its bucket (Prometheus-style)."""
        bounds, counts = None, None
        for key, inst in self._matches(name, labels):
            prev = self.before.get(key)
            cur = [b["count"] for b in inst["buckets"]]
            old = [b["count"] for b in prev["buckets"]] if prev else [0] * len(cur)
            delta = [c - o for c, o in zip(cur, old)]
            if counts is None:
                bounds = [b["le"] for b in inst["buckets"]]
                counts = delta
            else:
                counts = [x + y for x, y in zip(counts, delta)]
        if not counts or sum(counts) == 0:
            return 0.0
        rank = q * sum(counts)
        seen = 0
        for i, c in enumerate(counts):
            if c and seen + c >= rank:
                lo = 0.0 if i == 0 else float(bounds[i - 1])
                hi = bounds[i] if bounds[i] != "+Inf" else lo * 2
                return lo + (float(hi) - lo) * (rank - seen) / c
            seen += c
        return 0.0

    def traffic(self, cls, field):
        return self.a["traffic"][cls][field] - self.b["traffic"][cls][field]

    def traffic_total(self, field):
        return self.traffic("inter_site", field) + self.traffic("intra_site", field)

    def top(self, field):
        return self.a[field] - self.b[field]

    def top_traffic(self, field):
        return self.a["traffic"][field] - self.b["traffic"][field]

    def proxies(self, field):
        """Sum over every proxy's metrics() of `field`."""
        return sum(m[field] - self.b["proxies"][site][field]
                   for site, m in self.a["proxies"].items())


# ---------------------------------------------------------------- metrics

def ratio(num, den):
    return num / den if den else 0.0


def derive(raw):
    """End-to-end metrics, per-layer metrics and the report lines."""
    w = raw["workload"]
    kinds = raw["ops"]["kinds"]
    failures = raw["ops"]["failures"]
    primary = PRIMARY_KINDS[w]
    attempted = sum(kinds.get(k, {}).get("attempted", 0) for k in primary)
    failed = sum(failures.values())
    head = kinds.get(HEADLINE[w], {}).get("untraced", {})
    measure_s = raw["measure_s"]
    # Throughput and mean latency are medians over 2-s windows of the
    # measured phase, so one burst of host contention moves one window only.
    windows = [kinds[k]["windows"] for k in primary if k in kinds]
    ops_per_s = statistics.median(
        sum(w[i][0] for w in windows) / WINDOW_S for i in range(len(windows[0])))
    head_windows = [x for x in kinds.get(HEADLINE[w], {}).get("windows", []) if x[0]]
    lat_mean = statistics.median(x[1] for x in head_windows) if head_windows \
        else head.get("mean", 0.0)
    # Successful ops of the measured phase, the base of per-op ratios.
    completed = sum(kinds[k]["untraced"]["count"] + kinds[k]["traced"]["count"]
                    for k in primary if k in kinds)

    # Every failed op is a wrong output except a missed deadline: the known
    # launch hang (README.md) is counted in `failed` but is not a wrong answer.
    problems = list(raw["problems"]) + [
        "%d x %s" % (v, k) for k, v in failures.items() if "deadline_exceeded" not in k]
    if w == "stream" and raw["verified_bytes"] == 0:
        problems.append("no verified stream bytes")

    e2e = {
        "setup_s": statistics.median(raw["setup_s"]),
        "lat_p50_us": head.get("p50", 0.0),
        "ops_per_s": ops_per_s,
        "peak_threads": float(raw["peak_threads"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }

    # Reported, not gated: tails and the issue's workload-specific names.
    extra = {"lat_mean_us": lat_mean,
             "lat_p90_us": head.get("p90", 0.0), "lat_p99_us": head.get("p99", 0.0),
             "failed_share": ratio(failed, attempted)}
    if w in ("pingpong", "lossy_pingpong"):
        rt = kinds["round_trip"]["untraced"]
        extra.update(rtt_p50_us=rt["p50"], rtt_p99_us=rt["p99"], rtt_mean_us=lat_mean,
                     goodput_mb_s=2 * 64 * ops_per_s / 1e6)
    if w == "stream":
        extra["goodput_mb_s"] = raw["verified_bytes"] / measure_s / 1e6
    if w in ("control_mix", "control_barrier"):
        la, qu = kinds["launch"]["untraced"], kinds["query"]["untraced"]
        extra.update(launch_p50_ms=la["p50"] / 1e3, launch_p99_ms=la["p99"] / 1e3,
                     query_p50_us=qu["p50"], query_p99_us=qu["p99"])

    report = {"e2e": e2e, "extra": extra, "problems": problems,
              "attempted": attempted, "failed": failed, "failures": failures,
              "counts": {k: v.get("attempted", 0) for k, v in kinds.items()}}
    if not raw["trace"]:
        return report

    d = Diff(raw["before"], raw["after"])
    dp = Diff(raw["before"], raw["after_probe"])
    spans = raw["spans"]
    probes = raw["probes"]
    ops = completed
    payload = 0
    if w in ("pingpong", "lossy_pingpong"):
        payload = 2 * 64 * kinds["round_trip"]["attempted"]
    elif w == "stream":
        payload = raw["verified_bytes"] + raw["late_bytes"]
    flushes = d.proxies("mpi_batch_flushes")
    batches_in = d.counter("pg_proxy_ops_received_total", op="mpi_batch")
    retrans = d.counter("pg_mpi_retransmit_total")
    launches = raw["launches"]

    def span_p50(name):
        return spans.get(name, {}).get("self", {}).get("p50", 0.0)

    layer = dict(probes)
    layer.update({
        "mpi.send_us": span_p50("mpi.send"),
        "mpi.recv_wait_us": span_p50("mpi.recv_wait"),
        "net.wakeups_per_op": ratio(d.counter("pg_reactor_io_wakeups_total"), ops),
        "net.frames_per_op": ratio(d.counter("pg_reactor_frames_total"), ops),
        "tls.records_per_op": ratio(d.counter("pg_tls_records_total", op="seal"), ops),
        "tls.crypto_bytes_per_payload_byte": ratio(d.traffic_total("crypto_bytes"), payload),
        "tls.handshakes_full": float(d.counter("pg_handshake_total", kind="full")),
        "tls.handshakes_resumed": float(d.counter("pg_handshake_total", kind="resumed")),
        "proto.envelopes_per_op": ratio(d.traffic_total("messages"), ops),
        "proxy.batch_flushes_per_op": ratio(flushes, ops),
        "proxy.acks_per_op": ratio(
            d.counter("pg_proxy_ops_received_total", op="mpi_batch_ack"), ops),
        "proxy.retransmit_ratio": ratio(retrans, flushes + batches_in),
        "proxy.duplicate_batches": float(d.proxies("mpi_batch_duplicates")),
        "proxy.ack_rtt_p50_us": d.histogram_quantile("pg_mpi_ack_rtt_micros", 0.5),
        "proxy.dispatch_p50_us": d.histogram_quantile("pg_proxy_dispatch_micros", 0.5),
        "proxy.control_calls_per_launch": ratio(dp.top_traffic("control_calls"), launches),
        "proxy.notifies_per_launch": ratio(dp.top_traffic("control_notifies"), launches),
        "proxy.launch_deadline_misses": float(raw["launch_deadline_misses"]),
        "proxy.retransmits_per_drop": ratio(retrans, d.top("intra_dropped")),
        "auth.login_us": span_p50("auth.login"),
        "monitor.status_us": span_p50("monitor.status"),
        "sched.assign_p50_us": dp.histogram_quantile("pg_sched_assign_micros", 0.5),
        "failed_share": extra["failed_share"],
    })
    hk = kinds.get(HEADLINE[w], {})
    layer["trace.overhead_us"] = hk.get("traced", {}).get("p50", 0.0) - hk.get("untraced", {}).get("p50", 0.0)
    if any(v < 0 for k, v in probes.items()):
        problems.append("a layer probe failed its own check")

    human = {}
    if w in ("pingpong", "lossy_pingpong"):
        explained = (PINGPONG_HOPS * probes["net.conn_rtt_us"] / 2
                     + layer["tls.records_per_op"] * probes["tls.seal_open_64_us"]
                     + probes["mpi.local_rtt_us"])
        human["proxy.budget_residual_us"] = head.get("p50", 0.0) - explained
        human["budget.hops_us"] = PINGPONG_HOPS * probes["net.conn_rtt_us"] / 2
        human["budget.records_us"] = layer["tls.records_per_op"] * probes["tls.seal_open_64_us"]
    if w == "lossy_pingpong":
        slow = kinds["round_trip"]["slow"]
        human["proxy.recovery_p50_ms"] = slow["p50"] / 1e3
        human["proxy.recovery_round_trips"] = slow["count"]
        human["lossy.dropped_writes"] = d.top("intra_dropped")
    report.update(layer=layer, human=human, spans=spans,
                  bases={"ops": ops, "launches": launches, "payload_bytes": payload})
    return report


UNITS = {"_us": "us", "_ms": "ms", "_s": "s", "_mb_s": "MB/s", "_mb": "MB",
         "ops_per_s": "1/s", "_per_op": "count", "_per_launch": "count",
         "_share": "ratio", "_ratio": "ratio", "_per_drop": "ratio",
         "_per_payload_byte": "ratio"}


def unit_of(name, bench_units):
    if name in bench_units:
        return bench_units[name]
    for suffix, unit in sorted(UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith(suffix):
            return unit
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_path) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    binary = build(time.time() + BUILD_DEADLINE_S)
    if binary is None:
        return 2
    # The whole grid runs on one CPU. Spread over several vCPUs of a shared
    # host, every hand-off between grid threads waits for another vCPU to
    # wake, which adds millisecond stalls at random and made runs bimodal;
    # on one CPU a run measures the middleware's own CPU path.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        log("perfbench: gridbench did not finish in time")
        return 3
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log("perfbench: gridbench exited with %d" % proc.returncode)
        return 3
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    rep = derive(raw)
    correct = not rep["problems"]

    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    source = rep["layer"] if args.trace else rep["e2e"]
    missing = [n for n in names if n not in source]
    if missing:
        log("perfbench: metrics missing from this run: %s" % ", ".join(missing))
        return 4

    print("workload %s  seed %d  %.1f s measured%s  (in-process memory channels, "
          "not a real network link)" % (args.workload, args.seed, raw["measure_s"],
                                        "  traced" if args.trace else ""))
    print("verdict: %s" % ("correct" if correct else "INVALID: " + "; ".join(rep["problems"])))
    print("ops attempted %d, failed %d %s" % (rep["attempted"], rep["failed"],
                                               json.dumps(rep["failures"])))
    print("ops by kind: %s" % json.dumps(rep["counts"]))
    builds = sorted(raw["setup_s"])
    print("setup_s over %d builds: min %.4f  median %.4f  max %.4f s"
          % (len(builds), builds[0], statistics.median(builds), builds[-1]))
    print("end-to-end:")
    for k, v in list(rep["e2e"].items()) + list(rep["extra"].items()):
        print("  %-36s %14.4f %s" % (k, v, unit_of(k, units)))
    if args.trace:
        print("per-layer (traced run; spans cover the second half of the measured phase;"
              " ratio bases %s):" % json.dumps(rep["bases"]))
        for k in sorted(rep["layer"]):
            print("  %-36s %14.4f %s" % (k, rep["layer"][k], unit_of(k, units)))
        print("span self time (p50 / mean, us; count):")
        for k, s in sorted(rep["spans"].items()):
            print("  %-36s %10.2f %10.2f  %d" % (k, s["self"]["p50"], s["self"]["mean"],
                                                 s["self"]["count"]))
        if rep["human"]:
            print("latency budget:")
            for k, v in rep["human"].items():
                print("  %-36s %14.4f %s" % (k, v, unit_of(k, units)))

    metrics = {n: {"value": source[n], "unit": unit_of(n, units)} for n in names}
    print(json.dumps({"correct": correct, "attempted": max(1, rep["attempted"]),
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
