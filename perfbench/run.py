#!/usr/bin/env python3
"""Repository benchmark: cold compile, kernel-suite simulation and
open-loop serving on the 10x10 evaluation fabric.

    python3 perfbench/run.py --workload compile_cold|sim_suite|serve_zipf
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

The script builds perfbench/driver.cc against the library from source
(into .bench_build/ at the repository root), generates the workload's
inputs from the seed, runs the driver, checks every operation it
records and prints the metrics.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Any failed operation makes the exit status nonzero.
See perfbench/README.md for the metric definitions.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
COVERAGE_JSON = os.path.join(ROOT, "ci", "expected_compile_coverage.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("compile_cold", "sim_suite", "serve_zipf")

# The 11 Table-5 kernels that are bit-exact on the 10x10 fabric.
KERNELS = ("VI", "NW", "HT", "CRC", "ADPCM", "SCD", "LDPC", "GEMM", "CO",
           "SI", "GP")
# The PassManager's passes, in pipeline order.
COMPILER_PASSES = ("analyze", "predicate", "structure", "unroll", "assign",
                   "bind", "lower", "place", "route", "emit")

# Set-up repetitions per run; setup_s is their median.
SETUPS = {"compile_cold": 2, "sim_suite": 2, "serve_zipf": 3}
# sim_suite warm-up: each kernel runs this many simulated cycles.
WARMUP_CYCLES = 20000

# serve_zipf: the bench_serving kernels, Zipf(1.1) over 6 tenants.  The
# weights differ from bench_serving's 35/20/10/35 so that the median
# request falls in the middle of one kernel's latency band (CRC) rather
# than on the CRC/SCD boundary, where it jumped 1.5x between seeds.
SERVE_MIX = (("SI", 0.30), ("CRC", 0.40), ("ADPCM", 0.10), ("SCD", 0.20))
SERVE_TENANTS = 6
MIX_DECK = 20
ZIPF_S = 1.1
# Open-loop arrival rate (Poisson), fixed and never re-measured: about a
# fifth of the ~125 req/s closed-loop capacity on a 4-vCPU 2.1 GHz Xeon
# VM.  At 40 req/s lanes overlapped often enough that host contention
# moved the open-loop p50 by up to 1.7x between runs (service under
# overlap 1.23x the serial service); at 25 req/s by 1.28x.
OPEN_RATE_RPS = 25.0
# Shares of --seconds given to the open, closed and serial phases, which
# run in SERVE_ROUNDS rounds so each samples the whole run.
PHASE_SHARES = (0.5, 0.35, 0.15)
SERVE_ROUNDS = 5
# Latency limit the SLO-miss fraction is counted against.
SLO_LIMIT_MS = 250.0
# A run whose generator is later than this at its tail is invalid.
GEN_LATE_LIMIT_MS = 10.0

LAYERS = ("bench", "compiler", "model", "arch", "sim", "workloads", "serve",
          "lane")
# Span name -> layer charged with the span's self time.
SPAN_LAYER = {
    "pass": "bench", "op": "bench",
    "compile": "model", "machine": "arch", "prepare": "arch", "run": "arch",
    "warmup": "arch", "counters": "arch", "validate": "workloads",
    "request": "serve", "submit": "serve", "queue": "serve",
    "service": "lane",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# ------------------------------------------------------------- helpers

def tail_rule(values):
    """The percentile rule: the highest percentile, at most the 99th,
    with at least ten samples beyond it (nearest rank).  Returns
    (q, value); up to 20 samples no percentile above the median
    qualifies, and it returns the median with q = 0.5."""
    n = len(values)
    if n == 0:
        raise BenchError("percentile of no samples")
    if n <= 20:
        return 0.5, statistics.median(values)
    rank = min(n - 10, math.ceil(0.99 * n - 1e-9))
    return min(0.99, rank / n), sorted(values)[rank - 1]


def geomean(values):
    values = list(values)
    if not values or min(values) <= 0:
        raise BenchError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def seeded_orders(tag, seed, kernels, count=64):
    """count seeded permutations of kernels (one per pass)."""
    rng = random.Random("%s:%d" % (tag, seed))
    orders = []
    for _ in range(count):
        order = list(kernels)
        rng.shuffle(order)
        orders.append(order)
    return orders


def serve_schedule(seed, seconds):
    """The serve_zipf inputs for a seed: Poisson open-loop arrivals at
    OPEN_RATE_RPS over the open phase, a closed-loop request list and
    serial pass orders.  Identical for identical arguments."""
    rng = random.Random("serve_zipf:%d" % seed)
    tenant_weights = [1.0 / (t + 1) ** ZIPF_S for t in range(SERVE_TENANTS)]
    kernels = [k for k, _ in SERVE_MIX]
    # Kernels are dealt from shuffled decks of MIX_DECK requests that
    # hold the mix in exact proportion: latency percentiles of a
    # multi-modal mix sit on the boundaries between kernels, and
    # independent draws would move them from run to run.
    deck = [k for k, w in SERVE_MIX for _ in range(round(w * MIX_DECK))]
    hand = []

    def draw():
        tenant = rng.choices(range(SERVE_TENANTS), tenant_weights)[0]
        if not hand:
            hand.extend(deck)
            rng.shuffle(hand)
        return "t%d" % tenant, hand.pop()

    open_s, closed_s, serial_s = (seconds * s / SERVE_ROUNDS
                                  for s in PHASE_SHARES)
    arrivals = []
    for r in range(SERVE_ROUNDS):
        due = rng.expovariate(OPEN_RATE_RPS)
        while due < open_s:
            arrivals.append((r, round(due * 1000.0, 3)) + draw())
            due += rng.expovariate(OPEN_RATE_RPS)
    closed = [draw() for _ in range(4096)]
    return {"open": arrivals, "closed": closed,
            "serial": seeded_orders("serve_zipf.serial", seed, kernels),
            "rounds": SERVE_ROUNDS,
            "closed_seconds": closed_s, "serial_seconds": serial_s}


def write_inputs(path, workload, seed, seconds):
    lines = ["setups %d" % SETUPS[workload]]
    if workload == "serve_zipf":
        sched = serve_schedule(seed, seconds)
        lines.append("rounds %d" % sched["rounds"])
        lines += ["open %d %.3f %s %s" % a for a in sched["open"]]
        lines += ["closed %s %s" % c for c in sched["closed"]]
        lines += ["serial " + " ".join(o) for o in sched["serial"]]
        lines += ["closed_seconds %.6f" % sched["closed_seconds"],
                  "serial_seconds %.6f" % sched["serial_seconds"]]
    else:
        lines.append("warmup_cycles %d" % WARMUP_CYCLES)
        lines += ["order " + " ".join(o)
                  for o in seeded_orders(workload, seed, KERNELS)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def expected_cycles():
    """Per-kernel simulated cycles from the committed coverage file;
    any missing or malformed entry is an error, never a skipped check."""
    try:
        with open(COVERAGE_JSON) as f:
            rows = json.load(f)["kernels"]
        table = {row["kernel"]: row for row in rows}
        out = {}
        for k in KERNELS:
            row = table[k]
            cycles = row["cycles"]
            if row["compiled"] is not True or row["validated"] is not True \
                    or not isinstance(cycles, int) or cycles <= 0:
                raise ValueError("kernel %s is not a validated row" % k)
            out[k] = cycles
        return out
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise BenchError("bad %s: %s" % (COVERAGE_JSON, e))


def benchmark_spec():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def metadata(workload, seed, trace, meta):
    def git_commit():
        try:
            return subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "commit": git_commit(), "source_sha256": digest.hexdigest(),
        "build_type": meta["build_type"], "compiler": meta["cxx"],
        "nproc": len(os.sched_getaffinity(0)),
        "fabric": "%s, %d KiB scratchpad, %d KiB instruction memory" % (
            meta["fabric"], meta["scratchpad_bytes"] // 1024,
            meta["instr_mem_bytes"] // 1024),
        "kernels": list(KERNELS) if workload != "serve_zipf"
        else [k for k, _ in SERVE_MIX],
        "fast_forward_default": meta["fast_forward_default"],
        "workload": workload, "seed": seed, "traced": bool(trace),
    }


# --------------------------------------------------------------- build

def build():
    """Configure and build the driver (incremental after the first
    run).  Returns the driver's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the program sources are missing next to "
                         "perfbench/; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_driver", "-j",
                      str(max(1, min(4, len(os.sched_getaffinity(0)))))])
        with open(log_path, "w") as log:
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=840).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace):
    runs = os.path.join(BUILD_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-s%d-t%d" % (workload, seed, trace))
    write_inputs(stem + ".in", workload, seed, seconds)
    cmd = [driver, "--workload", workload, "--inputs", stem + ".in",
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--out", stem + ".jsonl"]
    proc = subprocess.run(cmd, timeout=seconds + 150)
    if proc.returncode != 0:
        raise BenchError("driver exited with %d" % proc.returncode)
    with open(stem + ".jsonl") as f:
        records = [json.loads(line) for line in f]
    return records, stem + ".jsonl"


# -------------------------------------------------------------- checks

class Checker:
    """Counts operations and fails closed on every miss."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def invariant(self, ok, what):
        if not ok:
            self.failures.append(what)


def check_compiles(records, chk, phases):
    fps = {}
    for r in records:
        if r["t"] != "compile" or r["phase"] not in phases:
            continue
        ok = r["ok"] and r["timed"]
        chk.op(ok, "compile %s pass %d: %s" % (
            r["k"], r["pass"], r.get("error", "no pass timings")))
        if ok:
            fps.setdefault(r["k"], set()).add(r["fp"])
    for k, seen in sorted(fps.items()):
        chk.invariant(len(seen) == 1,
                      "fingerprint of %s drifted: %s" % (k, sorted(seen)))


def cycles_consistent(chk, observed, expected):
    for k, seen in sorted(observed.items()):
        chk.invariant(seen == {expected[k]},
                      "cycles of %s: %s, expected %d" % (
                          k, sorted(seen), expected[k]))


# ------------------------------------------------------------- metrics

def by_kernel(rows, value):
    out = {}
    for r in rows:
        out.setdefault(r["k"], []).append(value(r))
    return out


def kernel_medians(rows, value):
    return {k: statistics.median(v) for k, v in by_kernel(rows, value).items()}


def pass_metrics(medians_ms, passes):
    """compile_cold and sim_suite: the time of one pass, estimated as
    the sum of the per-kernel median operation times (the estimate
    least moved by a noisy host).  A run holds fewer than 20 passes,
    so the percentile rule has no tail above the median and p99_ms
    reports the median too.  capacity_rps counts kernel operations
    per second at one in flight."""
    pass_s = sum(medians_ms.values()) / 1000.0
    return ({"pass_s": pass_s, "p50_ms": pass_s * 1000.0,
             "p99_ms": pass_s * 1000.0,
             "capacity_rps": len(medians_ms) / pass_s},
            {"pass_s": {"samples_per_kernel": passes},
             "p50_ms": {"percentile": 50, "samples": passes},
             "p99_ms": {"percentile": 50, "samples": passes}})


def compile_layer_metrics(compiles):
    m = {}
    med = kernel_medians(compiles, lambda r: r["ms"])
    for k in KERNELS:
        m["compile.ms." + k] = med.get(k, 0.0)
    for p in COMPILER_PASSES:
        per = kernel_medians(compiles, lambda r: r["pass_us"].get(p, 0))
        m["compile.%s_ms" % p] = sum(per.values()) / 1000.0
    residue = kernel_medians(
        compiles, lambda r: r["ms"] - sum(r["pass_us"].values()) / 1000.0)
    m["compile.residue_ms"] = sum(residue.values())
    last = {r["k"]: r for r in compiles if r["ok"]}
    m["compile.sched_cycles_geomean"] = geomean(
        r["sched"] for r in last.values())
    m["compile.program_words"] = sum(r["words"] for r in last.values())
    m["compile.pes_used"] = sum(r["pes"] for r in last.values())
    return m


def run_layer_metrics(runs):
    m = {}
    ms = kernel_medians(runs, lambda r: r["run_ms"])
    cyc = {r["k"]: r["cycles"] for r in runs}
    for k in KERNELS:
        m["run.ms." + k] = ms.get(k, 0.0)
        m["run.cycles." + k] = cyc.get(k, 0)
    total_ms = sum(r["run_ms"] for r in runs)
    cycles = sum(r["cycles"] for r in runs)
    fires = sum(r["fires"] for r in runs)
    m["run.mcyc_per_s"] = cycles / (total_ms * 1000.0)
    m["run.us_per_fire"] = total_ms * 1000.0 / fires
    m["run.fires_per_cycle"] = fires / cycles
    m["run.pe_util"] = statistics.mean(r["util"] for r in runs)
    m["prepare.ms"] = sum(kernel_medians(runs,
                                         lambda r: r["prepare_ms"]).values())
    m["validate.ms"] = sum(kernel_medians(
        runs, lambda r: r["validate_ms"]).values())
    last = {r["k"]: r for r in runs}.values()
    packets = sum(r["net_packets"] for r in last)
    hops = sum(r["net_hops"] for r in last)
    m["net.packets"] = packets
    m["net.hop_traversals"] = hops
    m["net.max_link_load"] = max(r["net_max_link"] for r in last)
    m["net.mean_hops"] = hops / packets if packets else 0.0
    for s in ("operand", "credit", "mem", "gate"):
        m["pe.stall_" + s] = sum(r["stall_" + s] for r in last)
    m["ff.probes"] = sum(r["ff_probes"] for r in last)
    m["ff.declines"] = sum(r["ff_declines"] for r in last)
    m["ff.engagements"] = sum(r["ff_engagements"] for r in last)
    m["ff.cycles_skipped"] = sum(r["ff_cycles_skipped"] for r in last)
    return m


def self_times(records, units):
    """Per-layer self time (ms per pass or per request): each span's
    duration minus what its children cover."""
    spans = [r for r in records if r["t"] == "span"]
    # Set-up and fast-forward-off passes (sim_suite's probe of the sim
    # layer) are not the attributed work.
    setup = set()
    for s in spans:
        if s["name"] in ("setup", "ffoff_pass") or s["p"] in setup:
            setup.add(s["i"])
    spans = [s for s in spans if s["i"] not in setup]
    child_ms = {}
    for s in spans:
        if s["p"] >= 0:
            child_ms[s["p"]] = child_ms.get(s["p"], 0.0) + s["e"] - s["s"]
    totals = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = "compiler" if s["name"].startswith("pass.") \
            else SPAN_LAYER[s["name"]]
        totals[layer] += s["e"] - s["s"] - child_ms.get(s["i"], 0.0)
    return {"self_ms." + layer: t / units for layer, t in totals.items()}


def overhead(traced, untraced):
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def eval_compile_cold(records, trace, chk, e2e, layer, notes):
    check_compiles(records, chk, ("warmup", "timed"))
    passes = [r for r in records if r["t"] == "pass"]
    untraced = {p["pass"] for p in passes if not p["traced"]}
    timed = [r for r in records if r["t"] == "compile"
             and r["phase"] == "timed" and r["ok"]]
    base = [r for r in timed if r["pass"] in untraced]
    if not base:
        raise BenchError("no untraced timed pass")
    chk.invariant({r["k"] for r in base} == set(KERNELS),
                  "not every kernel compiled")
    lat, lat_notes = pass_metrics(
        kernel_medians(base, lambda r: r["ms"]), len(untraced))
    e2e.update(lat)
    notes.update(lat_notes)
    # Nothing is simulated here: the cycles are the route pass's
    # scheduled-cycle estimate for the compiled program.
    e2e["sim_cycles_geomean"] = geomean(
        {r["k"]: r["sched"] for r in base}.values())
    if trace:
        layer.update(compile_layer_metrics(timed))
        traced = [p for p in passes if p["traced"]]
        layer["trace.overhead_frac"] = overhead(
            [p["s"] for p in traced],
            [p["s"] for p in passes if not p["traced"]])
        layer.update(self_times(records, len(traced)))


def eval_sim_suite(records, trace, chk, e2e, layer, notes, expected):
    check_compiles(records, chk, ("setup",))
    runs = [r for r in records if r["t"] == "run"]
    for r in runs:
        chk.op(r["ok"] and r["validation"] == "",
               "run %s pass %d: %s%s" % (r["k"], r["pass"], r["error"],
                                         r["validation"]))
    cycles_consistent(chk, {k: set(v) for k, v in by_kernel(
        runs, lambda r: r["cycles"]).items()}, expected)
    chk.invariant({r["k"] for r in runs} == set(KERNELS),
                  "not every kernel ran")
    ff_on = [r for r in runs if r["phase"] == "timed"]
    base = [r for r in ff_on if not r["traced"]]
    if not base:
        raise BenchError("no untraced timed pass")
    op_ms = kernel_medians(base, lambda r: r["build_ms"] + r["prepare_ms"]
                           + r["run_ms"] + r["validate_ms"])
    lat, lat_notes = pass_metrics(op_ms, len({r["pass"] for r in base}))
    e2e.update(lat)
    notes.update(lat_notes)
    e2e["sim_cycles_geomean"] = geomean(
        {r["k"]: r["cycles"] for r in base}.values())
    if trace:
        passes = [r for r in records if r["t"] == "pass"]
        traced_on = [r for r in ff_on if r["traced"]]
        traced = [p for p in passes if p["traced"] and p["ff"]]
        layer.update(compile_layer_metrics(
            [r for r in records if r["t"] == "compile" and r["ok"]]))
        layer.update(run_layer_metrics(traced_on))
        layer["trace.overhead_frac"] = overhead(
            [p["s"] for p in traced],
            [p["s"] for p in passes if not p["traced"]])
        selfs = self_times(records, len(traced))
        # Fast-forward runs inside MarionetteMachine::run; from outside
        # its net cost is the run time with it on minus with it off.
        on = kernel_medians(traced_on, lambda r: r["run_ms"])
        off = kernel_medians([r for r in runs if r["phase"] == "ffoff"],
                             lambda r: r["run_ms"])
        selfs["self_ms.sim"] = sum(on[k] - off[k] for k in on)
        selfs["self_ms.arch"] -= selfs["self_ms.sim"]
        layer.update(selfs)


def eval_serve_zipf(records, trace, chk, e2e, layer, notes, expected):
    reqs = [r for r in records if r["t"] == "req"]
    for r in reqs:
        ok = not r["rejected"] and r["served"] and r["run_ok"] and \
            r["validation"] == ""
        chk.op(ok, "request %s#%d (%s): %s%s" % (
            r["phase"], r["i"], r["k"], r["error"], r.get("validation", "")))
    served = [r for r in reqs if not r["rejected"] and r["served"]]
    cycles_consistent(chk, {k: set(v) for k, v in by_kernel(
        served, lambda r: r["cycles"]).items()}, expected)
    phases = {}
    for r in records:
        if r["t"] == "phase":
            p = phases.setdefault(r["phase"], {"s": 0.0,
                                               "peak_outstanding": 0})
            p["s"] += r["s"]
            p["peak_outstanding"] = max(p["peak_outstanding"],
                                        r.get("peak_outstanding", 0))
    open_all = [r for r in reqs if r["phase"] == "open"]
    open_ok = [r for r in served if r["phase"] == "open"]
    closed = [r for r in served if r["phase"] == "closed"]
    serial = [r for r in served if r["phase"] == "serial"]
    if not (open_ok and closed and serial and len(phases) == 3):
        raise BenchError("a serve phase is empty")

    # End to end: open-loop latency from the due time (untraced
    # requests only in a traced run), closed-loop capacity, serial
    # pass time.
    lat = [r["ready"] - r["due"] for r in open_ok if not r["traced"]]
    q, tail = tail_rule(lat)
    e2e["p50_ms"] = statistics.median(lat)
    e2e["p99_ms"] = tail
    notes["p50_ms"] = {"percentile": 50, "samples": len(lat)}
    notes["p99_ms"] = {"percentile": round(q * 100, 3), "samples": len(lat)}
    e2e["capacity_rps"] = len(closed) / phases["closed"]["s"]
    serial_ms = kernel_medians(serial, lambda r: r["ready"] - r["sent"])
    e2e["pass_s"] = sum(serial_ms.values()) / 1000.0
    notes["pass_s"] = {"samples_per_kernel": min(
        len(v) for v in by_kernel(serial, lambda r: 0).values())}
    cycles = {r["k"]: r["cycles"] for r in served}
    chk.invariant(set(cycles) == {k for k, _ in SERVE_MIX},
                  "not every kernel was served")
    e2e["sim_cycles_geomean"] = geomean(cycles.values())

    # An open loop whose generator falls behind did not offer the
    # load it claims: the run is invalid.
    late = [r["sent"] - r["due"] for r in open_all]
    q_late, late_tail = tail_rule(late)
    chk.invariant(late_tail <= GEN_LATE_LIMIT_MS,
                  "generator fell behind: p%.1f lateness %.2f ms > %.1f ms"
                  % (q_late * 100, late_tail, GEN_LATE_LIMIT_MS))
    notes["serve.gen_late_ms.p99"] = {"percentile": round(q_late * 100, 3),
                                      "samples": len(late)}
    if not trace:
        return

    for k, c in cycles.items():
        layer["run.cycles." + k] = c
    cores = {r["when"]: r for r in records if r["t"] == "core"}
    start, end = cores["after_setup"], cores["end"]
    delta = {k: end[k] - start[k] for k in ("program_hits", "program_misses",
                                            "snapshot_hits",
                                            "snapshot_misses")}
    lookups = delta["program_hits"] + delta["program_misses"]
    layer["serve.program_cache_hit_ratio"] = delta["program_hits"] / lookups
    layer["serve.snapshot_hits"] = delta["snapshot_hits"]
    layer["serve.snapshot_misses"] = delta["snapshot_misses"]
    timed = [r for r in served if r["phase"] != "warmup"]
    layer["serve.warm_start_ratio"] = sum(r["warm"] for r in timed) / \
        len(timed)
    for name, key in (("queue_ms", "queue_us"), ("service_ms", "service_us")):
        vals = [r[key] / 1000.0 for r in open_ok]
        q_v, tail_v = tail_rule(vals)
        layer["serve.%s.p50" % name] = statistics.median(vals)
        layer["serve.%s.p99" % name] = tail_v
        notes["serve.%s.p99" % name] = {"percentile": round(q_v * 100, 3),
                                        "samples": len(vals)}
    layer["serve.lane_busy_frac"] = sum(r["service_us"] for r in open_ok) / \
        1e6 / (end["lanes"] * phases["open"]["s"])
    layer["serve.rejected"] = sum(r["rejected"] for r in reqs)
    layer["serve.peak_outstanding"] = phases["open"]["peak_outstanding"]
    layer["serve.slo_miss_frac"] = sum(
        1 for r in open_all if r["rejected"] or not r["served"]
        or r["ready"] - r["due"] > SLO_LIMIT_MS) / len(open_all)
    layer["serve.gen_late_ms.p99"] = late_tail
    # Latency depends mostly on the kernel, so compare traced and
    # untraced requests kernel by kernel.
    traced = kernel_medians([r for r in open_ok if r["traced"]],
                            lambda r: r["ready"] - r["due"])
    untraced = kernel_medians([r for r in open_ok if not r["traced"]],
                              lambda r: r["ready"] - r["due"])
    layer["trace.overhead_frac"] = geomean(
        traced[k] / untraced[k] for k in traced if k in untraced) - 1.0
    layer.update(self_times(records, len(
        [r for r in reqs if r["traced"]])))


# Per-layer metrics a workload does not exercise, reported as 0.
NOT_EXERCISED = {
    "compile_cold": ("run.", "prepare.", "validate.", "net.", "pe.", "ff.",
                     "serve."),
    "sim_suite": ("serve.",),
    "serve_zipf": ("compile.", "run.", "prepare.", "validate.", "net.",
                   "pe.", "ff."),
}


def evaluate(workload, records, trace, expected):
    """Check every record and derive the metrics.  Returns (checker,
    metrics, notes on percentiles and sample counts)."""
    chk = Checker()
    e2e, layer, notes = {}, {}, {}
    setups = [r["s"] for r in records if r["t"] == "setup"]
    rss = [r["mb"] for r in records if r["t"] == "rss"]
    if len(setups) != SETUPS[workload] or len(rss) != 1:
        raise BenchError("driver output is incomplete")
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = rss[0]
    notes["setup_s"] = {"samples": len(setups)}
    if workload == "compile_cold":
        eval_compile_cold(records, trace, chk, e2e, layer, notes)
    elif workload == "sim_suite":
        eval_sim_suite(records, trace, chk, e2e, layer, notes, expected)
    else:
        eval_serve_zipf(records, trace, chk, e2e, layer, notes, expected)
    return chk, (layer if trace else e2e), notes


def summarize(workload, records, trace, expected, spec):
    """The result object (and notes) for one run's driver records;
    spec is benchmark_spec()."""
    chk, values, notes = evaluate(workload, records, trace, expected)
    units = spec[1] if trace else spec[0]
    skipped = []
    if trace:
        for name in units:
            if name not in values and name.startswith(
                    NOT_EXERCISED[workload]):
                values[name] = 0
                skipped.append(name)
    if set(values) != set(units):
        raise BenchError("metric set mismatch: missing %s, unexpected %s" % (
            sorted(set(units) - set(values)), sorted(set(values) - set(units))))
    result = {
        "correct": not chk.failures,
        "attempted": chk.attempted,
        "failed": len(chk.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(units)},
    }
    return result, {"percentiles": notes, "not_exercised": skipped}, \
        chk.failures


def run_workload(workload, seed, seconds, trace):
    expected = expected_cycles()
    spec = benchmark_spec()
    driver = build()
    records, path = run_driver(driver, workload, seed, seconds, trace)
    result, notes, failures = summarize(workload, records, trace, expected,
                                        spec)
    meta = next(r for r in records if r["t"] == "meta")
    info = metadata(workload, seed, trace, meta)
    info.update(notes)
    info["records"] = os.path.relpath(path, ROOT)
    return result, info, failures


def print_table(result, info, failures):
    print("# run " + json.dumps(info, sort_keys=True))
    for name, m in result["metrics"].items():
        print("%-36s %18.6f %s" % (name, m["value"], m["unit"]))
    for f in failures[:20]:
        print("FAILED: " + f, file=sys.stderr)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(BENCHMARK_JSON) as f:
            seconds = json.load(f)["run_seconds"]
    if seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if args.workload != "all":
            result, info, failures = run_workload(
                args.workload, args.seed, seconds, args.trace)
            print_table(result, info, failures)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, info, failures = run_workload(
                    workload, args.seed, seconds, trace)
                print_table(result, info, failures)
                print("# %s trace=%d: correct=%s attempted=%d failed=%d" % (
                    workload, trace, result["correct"], result["attempted"],
                    result["failed"]))
                ok = ok and result["correct"]
        return 0 if ok else 1
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
