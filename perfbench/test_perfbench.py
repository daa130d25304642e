#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The fingerprint tests build the driver (as run.py does) the first time.
The other tests need no build: they feed run.py synthetic driver
records.
"""

import copy
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXPECTED = {k: 1000 * (i + 1) for i, k in enumerate(run.KERNELS)}
MIX = [k for k, _ in run.SERVE_MIX]


def span(records, name, ident, start, end, parent=-1):
    index = sum(1 for r in records if r["t"] == "span")
    records.append({"t": "span", "i": index, "name": name, "id": ident,
                    "s": start, "e": end, "p": parent})
    return index


def compile_record(k, phase, pass_, ms=10.0):
    return {"t": "compile", "phase": phase, "pass": pass_, "k": k, "ms": ms,
            "ok": True, "timed": True, "fp": "%016x" % len(k),
            "words": 100, "pes": 10, "sched": 500.0,
            "pass_us": {p: 500 for p in run.COMPILER_PASSES}}


def run_record(k, phase, pass_, traced):
    r = {"t": "run", "phase": phase, "pass": pass_, "k": k,
         "traced": traced, "build_ms": 0.1, "prepare_ms": 0.2,
         "run_ms": 5.0 + len(k), "validate_ms": 0.1, "ok": True,
         "error": "", "validation": "", "cycles": EXPECTED[k],
         "fires": 4 * EXPECTED[k], "util": 0.04}
    if traced:
        r.update({"ff_probes": 2, "ff_declines": 2, "ff_engagements": 0,
                  "ff_cycles_skipped": 0, "net_packets": 50, "net_hops": 90,
                  "net_max_link": 7, "net_mean_hops": 1.8,
                  "stall_operand": 3, "stall_credit": 2, "stall_mem": 1,
                  "stall_gate": 0})
    return r


def fake_records(workload, trace):
    """Driver output of a healthy run, as perfbench_driver writes it."""
    recs = [{"t": "meta"}]
    recs += [{"t": "setup", "s": 1.0 + i / 10}
             for i in range(run.SETUPS[workload])]
    if workload == "compile_cold":
        recs += [compile_record(k, "warmup", 0) for k in run.KERNELS]
        for p in range(4):
            traced = bool(trace) and p % 2 == 0
            root = span(recs, "pass", str(p), 0, 200) if traced else -1
            for k in run.KERNELS:
                recs.append(compile_record(k, "timed", p, 10.0 + p))
                if traced:
                    c = span(recs, "compile", k, 0, 10, root)
                    span(recs, "pass.place", k, 0, 5, c)
            recs.append({"t": "pass", "pass": p, "traced": traced,
                         "s": 0.2})
    elif workload == "sim_suite":
        recs += [compile_record(k, "setup", 0) for k in run.KERNELS]
        for p in range(3 if trace else 2):
            kind = p % 3 if trace else 0
            traced = kind != 1 and bool(trace)
            phase = "ffoff" if kind == 2 else "timed"
            root = span(recs, "ffoff_pass" if kind == 2 else "pass", str(p),
                        0, 100) if traced else -1
            for k in run.KERNELS:
                recs.append(run_record(k, phase, p, traced))
                if traced:
                    op = span(recs, "op", k, 0, 6, root)
                    span(recs, "run", k, 0, 5, op)
                    span(recs, "validate", k, 5, 6, op)
            recs.append({"t": "pass", "pass": p, "traced": traced,
                         "ff": kind != 2, "s": 0.1})
    else:
        def req(phase, i, k, due, traced):
            return {"t": "req", "phase": phase, "i": i, "k": k,
                    "tenant": "t0", "traced": traced, "rejected": False,
                    "due": due, "sent": due + 0.01, "ready": due + 5 + i % 7,
                    "queue_us": 100, "service_us": 4000, "served": True,
                    "error": "", "validation": "", "run_ok": True,
                    "cycles": EXPECTED[k], "warm": phase != "warmup",
                    "lane": i % 3}
        recs += [req("warmup", i, k, 0, False) for i, k in enumerate(MIX)]
        recs.append({"t": "core", "when": "after_setup", "lanes": 3,
                     "program_hits": 0, "program_misses": 4,
                     "snapshot_hits": 0, "snapshot_misses": 4})
        for i in range(200):
            traced = bool(trace) and i % 2 == 0
            recs.append(req("open", i, MIX[i // 2 % 4], 20.0 * i, traced))
            if traced:
                r = span(recs, "request", str(i), 20.0 * i, 20.0 * i + 5)
                span(recs, "service", str(i), 20.0 * i + 1, 20.0 * i + 5, r)
        recs += [req("closed", i, MIX[i % 4], 0, bool(trace))
                 for i in range(40)]
        recs += [req("serial", i, MIX[i % 4], 0, bool(trace))
                 for i in range(40)]
        recs += [{"t": "phase", "phase": "open", "s": 4.0,
                  "peak_outstanding": 3},
                 {"t": "phase", "phase": "closed", "s": 1.0},
                 {"t": "phase", "phase": "serial", "s": 0.5},
                 {"t": "core", "when": "end", "lanes": 3,
                  "program_hits": 280, "program_misses": 4,
                  "snapshot_hits": 270, "snapshot_misses": 14}]
    recs.append({"t": "rss", "mb": 20.5})
    return recs


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        values = list(range(1, 1001))
        q, v = run.tail_rule(values)
        self.assertAlmostEqual(q, 0.99)
        self.assertEqual(v, 990)
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_smaller_runs_report_a_lower_percentile(self):
        for n in (21, 50, 100, 400, 999):
            values = [float(i) for i in range(n)]
            q, v = run.tail_rule(values)
            self.assertLess(q, 0.99)
            self.assertGreaterEqual(sum(1 for x in values if x > v), 10)
            self.assertLess(sum(1 for x in values if x > v), 11)
        self.assertAlmostEqual(run.tail_rule(list(range(100)))[0], 0.9)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_rule([5, 1, 3]), (0.5, 3))
        self.assertEqual(run.tail_rule(list(range(20))), (0.5, 9.5))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.tail_rule([])


class SeededInputs(unittest.TestCase):
    def test_serve_schedule_is_identical_for_a_seed(self):
        a = run.serve_schedule(7, 20)
        self.assertEqual(a, run.serve_schedule(7, 20))
        self.assertNotEqual(a["open"], run.serve_schedule(8, 20)["open"])

    def test_open_loop_arrivals(self):
        sched = run.serve_schedule(3, 20)
        open_ms = 20 * run.PHASE_SHARES[0] * 1000 / run.SERVE_ROUNDS
        for r in range(run.SERVE_ROUNDS):
            dues = [a[1] for a in sched["open"] if a[0] == r]
            self.assertEqual(dues, sorted(dues))
            self.assertLess(dues[-1], open_ms)
        rate = len(sched["open"]) / (20 * run.PHASE_SHARES[0])
        self.assertLess(abs(rate - run.OPEN_RATE_RPS), run.OPEN_RATE_RPS / 4)
        self.assertEqual({a[3] for a in sched["open"]}, set(MIX))

    def test_pass_orders_are_seeded_permutations(self):
        a = run.seeded_orders("sim_suite", 5, run.KERNELS)
        self.assertEqual(a, run.seeded_orders("sim_suite", 5, run.KERNELS))
        self.assertNotEqual(a, run.seeded_orders("sim_suite", 6, run.KERNELS))
        for order in a:
            self.assertEqual(sorted(order), sorted(run.KERNELS))


def fnv1a64_words(words):
    h = 0xcbf29ce484222325
    for w in words:
        for byte in w.to_bytes(4, "little"):
            h = ((h ^ byte) * 0x100000001b3) % (1 << 64)
    return h


class Fingerprint(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()

    def test_matches_fnv1a_over_little_endian_words(self):
        for words in ([], [0x64636261], [1, 2, 3, 0xffffffff]):
            out = subprocess.run(
                [self.driver, "--fingerprint"] + [str(w) for w in words],
                check=True, capture_output=True, text=True).stdout.strip()
            self.assertEqual(out, "%016x" % fnv1a64_words(words))

    def test_same_program_same_fingerprint(self):
        # Compiles SI twice and CRC once: equal programs hash equal,
        # different or bit-flipped programs do not.
        subprocess.run([self.driver, "--selftest"], check=True,
                       capture_output=True)


class Output(unittest.TestCase):
    def setUp(self):
        self.spec = run.benchmark_spec()

    def summarize(self, workload, trace, records=None):
        return run.summarize(workload, records or fake_records(
            workload, trace), trace, EXPECTED, self.spec)

    def test_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                result, _, failures = self.summarize(workload, trace)
                self.assertEqual(failures, [], (workload, trace))
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                units = self.spec[1] if trace else self.spec[0]
                self.assertEqual(set(result["metrics"]), set(units))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in run.WORKLOADS:
            result, _, _ = self.summarize(workload, 0)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, (workload, name))

    def test_cycle_drift_fails_the_run(self):
        recs = fake_records("sim_suite", 0)
        next(r for r in recs if r["t"] == "run")["cycles"] += 1
        result, _, failures = self.summarize("sim_suite", 0, recs)
        self.assertFalse(result["correct"])
        self.assertTrue(any("cycles of" in f for f in failures))

    def test_fingerprint_drift_fails_the_run(self):
        recs = fake_records("compile_cold", 0)
        [r for r in recs if r["t"] == "compile"][-1]["fp"] = "0" * 16
        result, _, _ = self.summarize("compile_cold", 0, recs)
        self.assertFalse(result["correct"])

    def test_validation_mismatch_fails_the_request(self):
        recs = fake_records("serve_zipf", 0)
        bad = copy.deepcopy(recs)
        next(r for r in bad if r["t"] == "req" and r["phase"] == "open")[
            "validation"] = "output 0 word 3 differs"
        result, _, _ = self.summarize("serve_zipf", 0, bad)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"],
                         sum(1 for r in recs if r["t"] == "req"))

    def test_late_generator_invalidates_the_run(self):
        recs = fake_records("serve_zipf", 0)
        for r in recs:
            if r["t"] == "req" and r["phase"] == "open":
                r["sent"] = r["due"] + 2 * run.GEN_LATE_LIMIT_MS
        result, _, failures = self.summarize("serve_zipf", 0, recs)
        self.assertFalse(result["correct"])
        self.assertTrue(any("generator" in f for f in failures))


if __name__ == "__main__":
    unittest.main()
