#!/usr/bin/env python3
"""Benchmark driver for DigitalBridge-RS.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck [--seed <n>]

Run from the repository root. Builds the `perfbench` measurement binary
(a package of its own in this directory, built against the repository's
crates into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload and reduces the binary's raw samples to metrics. Every metric
is printed by name with its unit and sample count; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` its per-layer metrics, with the layer table
and the budget checks. Exits nonzero, after printing the result, on an
oracle mismatch, a budget that does not sum, or an invalid open-loop
run. `--selfcheck` runs every workload twice on one seed and checks the
deterministic values agree. NOTES.md explains the workloads and metrics.
"""

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spec_sweep", "edge_closed_hot", "edge_open_cold")
STRATEGY_SLUGS = ("eh", "dpeh", "dynamic", "static", "direct")
# A budget's parts must sum to its end-to-end time within this share.
BUDGET_RESIDUAL = 0.05
# An open-loop rung is invalid when the generator's p99 lateness exceeds
# this share of the latency limit.
GENERATOR_LATE_SHARE = 0.10
# A rung's backlog grows when its last-quarter median latency exceeds
# twice the first quarter's plus this share of the latency limit.
BACKLOG_SLACK = 0.10
# Seconds the measurement binary may take before it is stopped.
RUN_TIMEOUT_S = 170
# A second seed, never used while the benchmark was tuned; claims made
# with this benchmark must also hold on it.
HELD_OUT_SEED = 7919

# Per-layer metric -> (layer, end-to-end metric it should move, on which
# workload, workload where the layer does little of the work).
LAYER_MAP = {
    "workloads.build_ms": ("workloads", "setup_s/capacity_rps", "spec_sweep/edge_open_cold", "edge_closed_hot"),
    "dbt.profile_program_s": ("x86+dbt.profile", "wall_s", "spec_sweep", "edge_closed_hot"),
    "x86.interp_mips": ("x86+dbt.interp", "wall_s", "spec_sweep", "edge_closed_hot"),
    **{f"dbt.run_s.{s}": ("dbt+sim", "wall_s/sim_mips", "spec_sweep", "edge_closed_hot") for s in STRATEGY_SLUGS},
    "dbt.engine_new_us": ("dbt.engine", "latency_p50_us", "edge_closed_hot", "spec_sweep"),
    "dbt.translate_self_s": ("dbt.translator", "wall_s", "spec_sweep", "-"),
    "dbt.execute_self_s": ("sim", "wall_s", "spec_sweep", "-"),
    "dbt.trap_fixup_self_s": ("dbt.exception", "wall_s", "spec_sweep", "-"),
    "dbt.run_other_s": ("dbt.engine+interp", "wall_s", "spec_sweep", "-"),
    **{f"sim.{k}": ("sim", "sim_gcycles/sim_mips", "spec_sweep", "edge_closed_hot")
       for k in ("host_insns", "unaligned_traps", "icache_misses", "dcache_misses")},
    **{f"dbt.{k}": ("dbt", "sim_gcycles/wall_s", "spec_sweep", "-")
       for k in ("blocks_translated", "guest_insns_interpreted", "os_fixups", "patched_sites",
                 "monitor_exits", "hint_hit_ratio")},
    "serve.run_one_us.p50": ("serve", "latency_p50_us", "edge_closed_hot", "spec_sweep"),
    "serve.run_one_us.p99": ("serve", "latency_p99_us", "edge_closed_hot", "spec_sweep"),
    **{f"serve.{k}_us.{q}": ("serve.edge", "latency_p50_us/latency_p99_us", "edge_*", "spec_sweep")
       for k in ("request", "queue_wait", "dispatch") for q in ("p50", "p99")},
    "edge.socket_us": ("serve.edge wire", "latency_p50_us", "edge_closed_hot", "-"),
    "serve.memo.hit_ratio": ("serve memo", "latency_p50_us/capacity_rps", "edge_*", "-"),
    "dbt.code_cache.hit_ratio": ("dbt.shared", "latency_p50_us/capacity_rps", "edge_*", "-"),
    "dbt.blocks_translated_per_req": ("dbt.translator", "latency_p50_us/capacity_rps", "edge_*", "-"),
    "serve.context_build_ms": ("serve memo", "capacity_rps/latency_p99_us", "edge_open_cold", "edge_closed_hot"),
    "serve.rss_per_context_kb": ("serve memo", "peak_rss_mb", "edge_open_cold", "edge_closed_hot"),
    "serve.memo.misses": ("serve memo", "peak_rss_mb/capacity_rps", "edge_open_cold", "edge_closed_hot"),
    **{f"serve.edge.{k}": ("serve.edge admission", "ok_ratio/capacity_rps", "edge_open_cold", "edge_closed_hot")
       for k in ("admitted", "shed_queue_full", "shed_quota", "shed_deadline", "shed_deadline_queued",
                 "queue_depth_hwm")},
    "bench.generator_late_us": ("load generator", "(run validity)", "edge_open_cold", "-"),
    "bench.trace_overhead": ("trace/metrics", "(traced/untraced)", "all", "-"),
    "bench.budget_residual_pct": ("budget", "(parts vs total)", "all", "-"),
    "host.nproc": ("host", "(context)", "all", "-"),
    "host.scaling_2t": ("host", "(context)", "all", "-"),
}
RUNG_PREFIX = "edge.latency_p99_us.r"
RUNG_ROW = ("serve.edge", "capacity_rps", "edge_open_cold", "-")

# Metric name -> unit, as BENCHMARK.json lists them.
E2E, LAYERS = {}, {}


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    E2E.update((m["name"], m["unit"]) for m in spec["end_to_end"])
    LAYERS.update((m["name"], m["unit"]) for m in spec["per_layer"])


def build():
    """Builds the measurement binary; returns its path."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def measure(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if r.returncode != 0:
        fail(f"{workload} failed (exit {r.returncode})", 1)
    return json.loads(r.stdout)


# ---------------------------------------------------------------- statistics

class Dist:
    """Raw-sample distribution: the median and the highest percentile with
    at least ten samples beyond it (p99 once there are 1000 samples)."""

    def __init__(self, values):
        self.v = sorted(values)
        self.n = len(self.v)

    @property
    def p50(self):
        return self.v[(self.n - 1) // 2] if self.n else 0.0

    @property
    def tail_q(self):
        if self.n >= 1000:
            return 0.99
        return max(0.5, (self.n - 10) / self.n) if self.n else 0.5

    @property
    def tail(self):
        if self.n >= 1000:
            return self.v[-(-99 * self.n // 100) - 1]
        # Index n-11 leaves exactly ten samples beyond.
        return self.v[self.n - 11] if self.n > 20 else self.p50

    def label(self):
        return f"p{100 * self.tail_q:.3g} of n={self.n}"


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


class Result:
    """Metrics of one run, with a printable note (sample count) each."""

    def __init__(self):
        self.values = {}
        self.notes = {}

    def put(self, name, value, note=""):
        self.values[name] = float(value)
        self.notes[name] = note


# ------------------------------------------------------------- edge helpers

def edge_samples(p):
    """Per-request client view of one edge phase."""
    return [dict(due=d, send=s, recv=r, status=int(st), ok=bool(o))
            for d, s, r, st, o in zip(p["due_us"], p["send_us"], p["recv_us"], p["status"], p["ok"])]


def dispatched(spans):
    """Requests that reached a dispatch worker, as (start, end, wait,
    dispatch) in µs: `wait` runs from admission to dispatch start (the
    enqueue and the queue wait), `dispatch` is the dispatch span."""
    return [(a, b, da - a, db - da)
            for a, b, da, db in zip(spans["start_us"], spans["end_us"],
                                    spans["dispatch_start_us"], spans["dispatch_end_us"])
            if da >= 0]


def match_spans(samples, spans, tol):
    """Pairs client requests with their dispatched serve.request spans.
    Span stamps count from the service's span epoch, which lies within
    `tol` µs after the client clock's base, so a request's span starts no
    earlier than send - tol and ends no later than its reply."""
    reqs = sorted(dispatched(spans))
    starts = [r[0] for r in reqs]
    used = set()
    pairs = []
    for s in sorted((s for s in samples if s["ok"]), key=lambda s: s["send"]):
        j = bisect.bisect_left(starts, s["send"] - tol)
        while j < len(starts) and starts[j] <= s["recv"]:
            a, b, wait, disp = reqs[j]
            if j not in used and b <= s["recv"] + tol:
                used.add(j)
                pairs.append((s, b - a, wait, disp))
                break
            j += 1
    return pairs


def edge_budget(res, p, from_due):
    """Latency budget of a traced edge phase: generator lateness (open loop
    only) + socket + queue wait + dispatch against the client latency,
    over requests matched to their spans. Returns the residual share."""
    pairs = match_spans(edge_samples(p), p["spans"], p["epoch_tolerance_us"])
    if not pairs:
        return None
    late = [s["send"] - s["due"] for s, *_ in pairs] if from_due else [0.0] * len(pairs)
    socket = [(s["recv"] - s["send"]) - req for s, req, _, _ in pairs]
    total = [s["recv"] - (s["due"] if from_due else s["send"]) for s, *_ in pairs]
    qw = [q for *_, q, _ in pairs]
    disp = [d for *_, d in pairs]
    parts = {"generator_late": late, "socket": socket, "queue_wait": qw, "dispatch": disp}
    mean_total = statistics.fmean(total)
    print(f"  budget over {len(pairs)} matched requests (means, µs): total {mean_total:.1f}")
    for k, v in parts.items():
        m = statistics.fmean(v)
        print(f"    {k:<15} {m:12.1f}  {100 * ratio(m, mean_total):5.1f}%  p50 {Dist(v).p50:.1f}")
    res.put("edge.socket_us", Dist(socket).p50, f"p50 of n={len(socket)} matched")
    residual = ratio(mean_total - sum(statistics.fmean(v) for v in parts.values()), mean_total)
    return residual


def registry_layers(res, reg):
    c, g = reg["counters"], reg["gauges"]
    hits, misses = c.get("serve.memo.hits", 0), c.get("serve.memo.misses", 0)
    res.put("serve.memo.hit_ratio", ratio(hits, hits + misses), f"{hits}/{hits + misses}")
    cch, ccm = c.get("dbt.code_cache.hits", 0), c.get("dbt.code_cache.misses", 0)
    res.put("dbt.code_cache.hit_ratio", ratio(cch, cch + ccm), f"{cch}/{cch + ccm}")
    res.put("dbt.blocks_translated_per_req",
            ratio(c.get("dbt.blocks_translated", 0), c.get("serve.requests", 0)),
            f"over {c.get('serve.requests', 0)} requests")
    for k in ("admitted", "shed_queue_full", "shed_quota", "shed_deadline", "shed_deadline_queued"):
        res.put(f"serve.edge.{k}", c.get(f"serve.edge.{k}", 0), "registry")
    res.put("serve.edge.queue_depth_hwm",
            g.get("serve.edge.queue.depth", {}).get("high_watermark", 0), "registry")


def serve_span_layers(res, spans):
    """Serve span durations of the requests that were dispatched."""
    reqs = dispatched(spans)
    cols = {"request": [b - a for a, b, _, _ in reqs], "queue_wait": [w for _, _, w, _ in reqs],
            "dispatch": [d for *_, d in reqs]}
    for name, vals in cols.items():
        d = Dist(vals)
        res.put(f"serve.{name}_us.p50", d.p50, f"n={d.n}")
        res.put(f"serve.{name}_us.p99", d.tail, d.label())


def zero_layers(res, names, why):
    for n in names:
        res.put(n, 0.0, why)


# ------------------------------------------------------------ spec_sweep

def sweep_metrics(d, trace):
    res = Result()
    plain = [s for s in d["sweeps"] if not s["traced"]]
    jobs = Dist([u for s in plain for u in s["job_us"]])
    c = d["counts"]
    if not trace:
        res.put("setup_s", median(d["setup_s"]), f"median of n={len(d['setup_s'])} set-ups")
        res.put("wall_s", median([s["wall_s"] for s in plain]), f"median of n={len(plain)} sweeps")
        res.put("sim_mips", median([s["insns"] / sum(s["run_s"]) / 1e6 for s in plain]),
                f"median of n={len(plain)} sweeps")
        res.put("sim_gcycles", c["cycles"] / 1e9, "one sweep, deterministic")
        res.put("paper_error_pct", d["paper_error_pct"],
                "geomeans " + " ".join(f"{g:.3f}" for g in d["geomeans"]))
        res.put("latency_p50_us", jobs.p50, f"per run (train+construct+run), n={jobs.n}")
        res.put("latency_p99_us", jobs.tail, jobs.label())
        per_s = median([len(s["job_us"]) / s["wall_s"] for s in plain])
        res.put("throughput_rps", per_s, "runs per second")
        res.put("capacity_rps", per_s, "sequential: equals throughput")
        res.put("ok_ratio", 1 - ratio(d["failed"], d["attempted"]), f"{d['failed']} failed of {d['attempted']}")
        res.put("peak_rss_mb", d["peak_rss_kb"] / 1024, "VmHWM")
        return res, True

    traced = [s for s in d["sweeps"] if s["traced"]]
    res.put("workloads.build_ms", d["build_ms_median"], "median per input")
    train_s = median([s["train_s"] for s in plain])
    res.put("dbt.profile_program_s", train_s, f"median of n={len(plain)} sweeps")
    res.put("x86.interp_mips", median([s["train_guest_insns"] / s["train_s"] / 1e6 for s in plain]),
            "training guest insns / s")
    for k, slug in enumerate(STRATEGY_SLUGS):
        res.put(f"dbt.run_s.{slug}", median([s["run_s"][k] for s in plain]), f"median of n={len(plain)} sweeps")
    con = Dist([u for s in plain for u in s["construct_us"]])
    res.put("dbt.engine_new_us", con.p50, f"p50 of n={con.n}")
    spans = [median([s["span_self_us"][k] for s in traced]) / 1e6 for k in range(5)]
    for name, v in zip(("translate", "execute", "trap_fixup"), spans):
        res.put(f"dbt.{name}_self_s", v, f"wall spans, median of n={len(traced)} traced sweeps")
    res.put("dbt.run_other_s", spans[3] + spans[4], "run span self time")
    count_layers(res, c)
    zero_layers(res, [n for n in LAYERS if n.startswith(("serve.", "edge."))]
                + ["dbt.code_cache.hit_ratio", "dbt.blocks_translated_per_req"], "no serve work")
    zero_layers(res, ["bench.generator_late_us"], "no open loop")

    # Budget: every traced sweep's parts against its wall time.
    wall = median([s["wall_s"] for s in traced])
    parts = {
        "training": median([s["train_s"] for s in traced]),
        "construction": median([s["construct_s"] for s in traced]),
        "translate": spans[0], "execute": spans[1], "trap_fixup": spans[2],
        "other (run self)": spans[3] + spans[4],
    }
    print(f"  budget of a traced sweep (s): wall {wall:.4f}")
    for k, v in parts.items():
        print(f"    {k:<17} {v:10.4f}  {100 * ratio(v, wall):5.1f}%")
    residual = ratio(wall - sum(parts.values()), wall)
    dropped = sum(s["span_dropped"] for s in traced)
    if dropped:
        print(f"  {dropped} spans dropped: the budget is incomplete")
        residual = 1.0
    overhead = ratio(wall, median([s["wall_s"] for s in plain]))
    return finish_trace(res, d, residual, overhead)


def count_layers(res, c):
    res.put("sim.host_insns", c["insns"], "Stats::insns")
    for k in ("unaligned_traps", "icache_misses", "dcache_misses"):
        res.put(f"sim.{k}", c[k], "Stats")
    for k in ("blocks_translated", "guest_insns_interpreted", "os_fixups", "patched_sites", "monitor_exits"):
        res.put(f"dbt.{k}", c[k], "RunReport")
    res.put("dbt.hint_hit_ratio", ratio(c["hint_hits"], c["hint_hits"] + c["hint_misses"]),
            f"{c['hint_hits']}/{c['hint_hits'] + c['hint_misses']}")


def finish_trace(res, d, residual, overhead):
    ok = residual is not None and abs(residual) <= BUDGET_RESIDUAL
    shown = "n/a" if residual is None else f"{100 * residual:.2f}%"
    print(f"  budget residual {shown} (allowed ±{100 * BUDGET_RESIDUAL:.0f}%): {'ok' if ok else 'FAILED'}")
    print(f"  tracing overhead (traced / untraced median): {overhead:.3f}")
    res.put("bench.budget_residual_pct", 100 * (residual if residual is not None else 1.0), "parts vs total")
    res.put("bench.trace_overhead", overhead, "traced / untraced")
    res.put("host.nproc", d["host"]["nproc"], "available_parallelism")
    res.put("host.scaling_2t", d["host"]["scaling_2t"], "2 spin threads vs 1")
    return res, ok


# ------------------------------------------------------------ edge workloads

def probe_layers(res, d):
    lay = d["layers"]
    res.put("workloads.build_ms", lay["build_ms"], "median KernelSpec::build")
    res.put("dbt.profile_program_s", lay["profile_program_s"], "training of static contexts")
    res.put("x86.interp_mips", ratio(lay["train_guest_insns"], lay["profile_program_s"]) / 1e6, "training")
    for k, slug in enumerate(STRATEGY_SLUGS):
        res.put(f"dbt.run_s.{slug}", lay["run_s"][k], "private engines, distinct requests")
    e = Dist(lay["engine_new_us"])
    res.put("dbt.engine_new_us", e.p50, f"p50 of n={e.n}")
    for name, v in zip(("translate", "execute", "trap_fixup"), lay["span_self_us"]):
        res.put(f"dbt.{name}_self_s", v / 1e6, "wall spans, private engines")
    res.put("dbt.run_other_s", (lay["span_self_us"][3] + lay["span_self_us"][4]) / 1e6, "run span self time")
    cb = Dist(lay["context_build_ms"])
    res.put("serve.context_build_ms", cb.p50, f"p50 of n={cb.n}")
    count_layers(res, d["counts"])


def closed_hot_metrics(d, trace):
    res = Result()
    p = d["phases"][0]
    samples = edge_samples(p)
    good = [s for s in samples if s["ok"]]
    lat = Dist([s["recv"] - s["send"] for s in good])
    if not trace:
        res.put("setup_s", median(p["setup_s"]), f"median of n={len(p['setup_s'])} set-ups")
        res.put("wall_s", p["elapsed_s"], "phase length (closed loop, fixed time)")
        res.put("sim_mips", p["sim_mips"], f"in-process run_one, n={len(p['run_one_us'])}")
        res.put("sim_gcycles", p["stream_cycles"] / 1e9, f"seeded stream of {d['stream_len']}, deterministic")
        res.put("paper_error_pct", d["paper_error_pct"],
                "hot kernels; geomeans " + " ".join(f"{g:.3f}" for g in d["geomeans"]))
        res.put("latency_p50_us", lat.p50, f"round trip, n={lat.n}")
        res.put("latency_p99_us", lat.tail, lat.label())
        rps = len(good) / p["elapsed_s"]
        res.put("throughput_rps", rps, f"{len(good)} replies")
        res.put("capacity_rps", rps, "closed loop: equals throughput")
        res.put("ok_ratio", 1 - ratio(p["failed"], p["attempted"]), f"{p['failed']} failed of {p['attempted']}")
        res.put("peak_rss_mb", p["peak_rss_kb"] / 1024, "VmHWM")
        return res, True

    t = d["phases"][1]
    probe_layers(res, d)
    ro = Dist(t["run_one_us"])
    res.put("serve.run_one_us.p50", ro.p50, f"n={ro.n}")
    res.put("serve.run_one_us.p99", ro.tail, ro.label())
    serve_span_layers(res, t["spans"])
    registry_layers(res, t["registry"])
    res.put("serve.rss_per_context_kb", 0.0, "no context is built while timed")
    res.put("serve.memo.misses", t["memo_misses"], "in-process replay")
    zero_layers(res, [n for n in LAYERS if n.startswith(RUNG_PREFIX)], "closed loop")
    res.put("bench.generator_late_us", 0.0, "closed loop")
    residual = edge_budget(res, t, from_due=False)
    tlat = Dist([s["recv"] - s["send"] for s in edge_samples(t) if s["ok"]])
    share = ratio(res.values.get("edge.socket_us", 0.0), tlat.p50)
    print(f"  edge.socket_us is {100 * share:.1f}% of the traced p50 round trip; "
          f"serve.run_one_us.p50 is {100 * ratio(ro.p50, tlat.p50):.2f}%")
    return finish_trace(res, d, residual, ratio(tlat.p50, lat.p50))


def ladder_rungs(d, p):
    """Per-rung verdicts of one open-loop phase. A rung passes when the
    generator kept to its schedule, the p99 latency from due time (failed
    requests counting as infinitely late) is under the limit, under 1%
    failed, and latency did not grow from the first to the last quarter
    of each pass (no growing backlog)."""
    ladder, limit_us, per = d["ladder"], d["limit_ms"] * 1000.0, d["rung_requests"]
    samples = edge_samples(p)
    rungs = []
    for r, rate in enumerate(ladder):
        rs = [s for s, g in zip(samples, p["rung"]) if int(g) == r]
        passes = [rs[i:i + per] for i in range(0, len(rs), per)]
        ok_lat = [s["recv"] - s["due"] for s in rs if s["ok"]]
        n_fail = len(rs) - len(ok_lat)
        with_fail = Dist(ok_lat + [math.inf] * n_fail)
        late = Dist([s["send"] - s["due"] for s in rs])
        k = per // 4
        first = Dist([s["recv"] - s["due"] for c in passes for s in c[:k] if s["ok"]])
        last = Dist([s["recv"] - s["due"] for c in passes for s in c[-k:] if s["ok"]])
        backlog = first.n > 0 and last.n > 0 and last.p50 > 2 * first.p50 + BACKLOG_SLACK * limit_us
        # Achieved rate: OK replies that arrive while the rung is offering
        # load, per second of offering.
        window = sum(c[-1]["due"] - c[0]["due"] + 1e6 / rate for c in passes)
        in_window = sum(1 for c in passes for s in c
                        if s["ok"] and s["recv"] <= c[-1]["due"] + 1e6 / rate)
        valid = late.tail <= GENERATOR_LATE_SHARE * limit_us
        fail_ratio = ratio(n_fail, len(rs))
        rungs.append(dict(
            rate=rate, n=len(rs), fail=n_fail, dist=with_fail, ok_dist=Dist(ok_lat), late=late,
            backlog=backlog, valid=valid, achieved=ratio(in_window, window / 1e6),
            in_window=in_window, window=window,
            passed=valid and with_fail.tail < limit_us and fail_ratio < 0.01 and not backlog))
    return rungs


def print_rungs(rungs, ref):
    print("  rung      n   fail  p50_us      tail_us      late_p99_us  backlog  valid  pass")
    for i, g in enumerate(rungs):
        tail = "inf" if math.isinf(g["dist"].tail) else f"{g['dist'].tail:.0f}"
        mark = " (reference)" if i == ref else ""
        print(f"  {g['rate']:>6.0f} {g['n']:>5} {g['fail']:>5} {g['ok_dist'].p50:>9.0f} {tail:>10} "
              f"{g['late'].tail:>12.0f}  {str(g['backlog']):>7} {str(g['valid']):>6} {str(g['passed']):>5}{mark}")


def capacity(rungs):
    best = None
    for g in rungs:
        if not g["passed"]:
            break
        best = g
    return best


def open_cold_metrics(d, trace):
    res = Result()
    ref = d["ref_rung"]
    p = d["phases"][0]
    rungs = ladder_rungs(d, p)
    print_rungs(rungs, ref)
    valid = rungs[ref]["valid"]
    if not valid:
        print("  INVALID: the generator fell behind its schedule at the reference rate")
    if not trace:
        best = capacity(rungs)
        samples = edge_samples(p)
        scope = [s for s, g in zip(samples, p["rung"]) if int(g) <= ref]
        n_fail = sum(1 for s in scope if not s["ok"])
        g = rungs[ref]
        res.put("setup_s", median(p["setup_s"]), f"median of n={len(p['setup_s'])} set-ups")
        span = (max(s["recv"] for s in samples) - min(s["due"] for s in samples)) / 1e6
        res.put("wall_s", span, "phase length (open loop, schedule-bound)")
        res.put("sim_mips", p["sim_mips"], f"in-process run_one replay, n={len(p['run_one_us'])}")
        res.put("sim_gcycles", p["stream_cycles"] / 1e9, f"stream of {len(samples)}, deterministic")
        res.put("paper_error_pct", d["paper_error_pct"],
                "fixed cold kernels; geomeans " + " ".join(f"{x:.3f}" for x in d["geomeans"]))
        res.put("latency_p50_us", g["ok_dist"].p50, f"from due time at {g['rate']:.0f}/s, n={g['ok_dist'].n}")
        res.put("latency_p99_us", g["ok_dist"].tail, g["ok_dist"].label())
        within = rungs[:rungs.index(best) + 1] if best else []
        good = sum(g["in_window"] for g in within)
        res.put("throughput_rps", ratio(good, sum(g["window"] for g in within) / 1e6),
                f"{good} replies on the rungs up to capacity")
        res.put("capacity_rps", best["achieved"] if best else 0.0,
                f"achieved at rung {best['rate']:.0f}/s" if best else "no rung passed")
        res.put("ok_ratio", 1 - ratio(n_fail, len(scope)), f"{n_fail} failed of {len(scope)} up to the reference rate")
        res.put("peak_rss_mb", p["peak_rss_kb"] / 1024, "VmHWM")
        return res, valid

    t = d["phases"][1]
    trungs = ladder_rungs(d, t)
    print("  traced phase:")
    print_rungs(trungs, ref)
    probe_layers(res, d)
    ro = Dist(t["run_one_us"])
    res.put("serve.run_one_us.p50", ro.p50, f"n={ro.n}")
    res.put("serve.run_one_us.p99", ro.tail, ro.label())
    serve_span_layers(res, t["spans"])
    registry_layers(res, t["registry"])
    res.put("serve.rss_per_context_kb",
            ratio(t["peak_rss_kb"] - t["rss_before_kb"], t["contexts_built"]),
            f"over {t['contexts_built']} contexts")
    res.put("serve.memo.misses", t["memo_misses"], "in-process replay")
    for g in trungs:
        res.put(f"{RUNG_PREFIX}{g['rate']:.0f}", g["ok_dist"].tail, g["ok_dist"].label())
    late = Dist([s["send"] - s["due"] for s in edge_samples(t)])
    res.put("bench.generator_late_us", late.tail, late.label())
    residual = edge_budget(res, t, from_due=True)
    overhead = ratio(trungs[ref]["ok_dist"].p50, rungs[ref]["ok_dist"].p50)
    res, ok = finish_trace(res, d, residual, overhead)
    return res, ok and valid and trungs[ref]["valid"]


REDUCERS = {"spec_sweep": sweep_metrics, "edge_closed_hot": closed_hot_metrics,
            "edge_open_cold": open_cold_metrics}


def counts_of(d):
    """Requests or runs attempted and failed (oracle, shed, timeout or
    socket error) over every phase; open-loop rungs above the reference
    rate probe capacity, and only their oracle mismatches count."""
    if d["workload"] == "spec_sweep":
        return d["attempted"], d["failed"]
    attempted = failed = 0
    for p in d["phases"]:
        if d["workload"] == "edge_open_cold":
            for st, ok, g in zip(p["status"], p["ok"], p["rung"]):
                if int(g) <= d["ref_rung"]:
                    attempted += 1
                    failed += not ok
                elif int(st) == 0 and not ok:
                    failed += 1
            failed += p["duplicates"]
        else:
            attempted += p["attempted"]
            failed += p["failed"]
    return attempted, failed


def mismatches(d):
    """Oracle mismatches: an `Ok` reply whose outcome differs from the
    in-process run, a duplicate reply, or a sweep run whose state differs
    from the reference interpreter."""
    if d["workload"] == "spec_sweep":
        return d["failed"]
    n = 0
    for p in d["phases"]:
        n += sum(1 for st, ok in zip(p["status"], p["ok"]) if int(st) == 0 and not ok)
        n += p.get("duplicates", 0)
    return n


def run_one(args):
    load_spec()
    binary = build()
    d = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    h = d["host"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={int(args.trace)} "
          f"host: nproc={h['nproc']} two-thread scaling={h['scaling_2t']:.2f}x")
    res, valid = REDUCERS[args.workload](d, args.trace)
    wanted = LAYERS if args.trace else E2E
    if set(res.values) != set(wanted):
        fail(f"metric set differs from BENCHMARK.json: "
             f"{sorted(set(res.values) ^ set(wanted))}")
    if args.trace:
        print(f"  {'metric':<34} {'value':>14} {'unit':<8} {'layer':<20} {'should move':<28} "
              f"{'on':<26} {'little work in':<16} n")
    for name in wanted:
        v = res.values[name]
        if args.trace:
            layer, moves, on, little = LAYER_MAP.get(name, RUNG_ROW)
            print(f"  {name:<34} {v:>14.6g} {wanted[name]:<8} {layer:<20} {moves:<28} {on:<26} "
                  f"{little:<16} {res.notes[name]}")
        else:
            print(f"  {name:<18} {v:>16.6f} {wanted[name]:<8} {res.notes[name]}")
    attempted, failed = counts_of(d)
    bad = mismatches(d)
    correct = bad == 0 and valid
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": res.values[n], "unit": wanted[n]} for n in wanted},
    }))
    if not correct:
        sys.exit(1)


DETERMINISTIC = {
    "spec_sweep": lambda d: {"sim_cycles": d["counts"]["cycles"], "paper_error_pct": d["paper_error_pct"],
                             "dbt.blocks_translated": d["counts"]["blocks_translated"]},
    "edge_closed_hot": lambda d: {"stream_cycles": d["phases"][0]["stream_cycles"],
                                  "paper_error_pct": d["paper_error_pct"],
                                  "dbt.blocks_translated": d["counts"]["blocks_translated"]},
    "edge_open_cold": lambda d: {"stream_cycles": d["phases"][0]["stream_cycles"],
                                 "paper_error_pct": d["paper_error_pct"],
                                 "dbt.blocks_translated": d["counts"]["blocks_translated"],
                                 "serve.memo.misses": d["phases"][0]["memo_misses"]},
}


def selfcheck(args):
    binary = build()
    agree = True
    for w in WORKLOADS:
        a, b = (DETERMINISTIC[w](measure(binary, w, args.seed, args.seconds, False)) for _ in range(2))
        same = a == b
        agree &= same
        print(f"{w}: {'identical' if same else 'DIFFERENT'} {a}" + ("" if same else f" vs {b}"))
    print(json.dumps({"selfcheck": agree, "seed": args.seed}))
    sys.exit(0 if agree else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if args.selfcheck:
        args.seconds = args.seconds or 4.0
        args.seed = HELD_OUT_SEED if args.seed is None else args.seed
        return selfcheck(args)
    if not args.workload or args.seed is None or not args.seconds or args.seconds <= 0:
        ap.error("--workload, --seed and a positive --seconds are required")
    args.trace = bool(args.trace)
    run_one(args)


if __name__ == "__main__":
    main()
