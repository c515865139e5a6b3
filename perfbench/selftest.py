#!/usr/bin/env python3
"""Self-test of the ehdse benchmark.

    python3 perfbench/selftest.py

Tiny runs of every workload check that:
  * every metric BENCHMARK.json declares is emitted, with its unit, in
    the untraced (end-to-end) and the traced (per-layer) result line;
  * every workload prints its own named metrics, with units;
  * the correctness checks pass (correct, failed == 0);
  * the input stream is a pure function of the seed (same seed, same
    stream and results digests; another seed, another stream digest);
  * the traced run writes a Chrome trace-event file;
  * faults injected through testkit::faulty_evaluator are counted in
    failed_ops_ratio on the in-process workloads;
  * in a directory holding only the benchmark, it fails without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAMED = {
    "paper_flow": {"flow_s_p50": "s", "flow_s_p90": "s", "flow_gain_x": "x",
                   "sim_evals_per_s": "evals/s"},
    "svc_mixed": {"svc_latency_s_p50": "s", "svc_latency_s_p99": "s",
                  "svc_warm_latency_s_p50": "s", "svc_max_rate_rps": "req/s"},
    "transient_sweep": {"eval_s_p50": "s", "eval_s_p90": "s",
                        "sim_evals_per_s": "evals/s", "sim_s_per_host_s": "s/s"},
}
COMMON = {"setup_s": "s", "failed_ops_ratio": "ratio", "peak_rss_mb": "MiB"}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL " + what, flush=True)


def run(workload, seed, trace, *extra, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result(proc, what):
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and lines, what + ": exit %d" % proc.returncode)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, {}
    doc = json.loads(lines[-1])
    shown = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 5 and parts[0] == "metric" and parts[2] == "=":
            shown[parts[1]] = (float(parts[3]), parts[4])
    return doc, shown


def out_dir(workload, seed, suffix=""):
    return os.path.join(ROOT, ".bench_out", workload, "seed-%d%s" % (seed, suffix))


def notes(workload, seed, suffix="-tiny"):
    with open(os.path.join(out_dir(workload, seed, suffix), "results.json")) as f:
        return json.load(f)["notes"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in NAMED:
        doc, shown = result(run(w, 5, 0), w + " untraced")
        if doc is None:
            continue
        expect(set(doc) == {"correct", "attempted", "failed", "metrics"}, w + ": result keys")
        expect(doc["correct"] and doc["failed"] == 0, w + ": correctness checks failed")
        expect({k: v["unit"] for k, v in doc["metrics"].items()} == e2e,
               w + ": end-to-end metric names or units differ from BENCHMARK.json")
        expect(all(math.isfinite(v["value"]) and v["value"] > 0 for v in doc["metrics"].values()),
               w + ": an end-to-end metric is not a positive number")
        for name, unit in {**NAMED[w], **COMMON}.items():
            expect(name in shown and shown[name][1] == unit,
                   "%s: named metric %s [%s] not printed" % (w, name, unit))

        doc, _ = result(run(w, 5, 1), w + " traced")
        if doc is not None:
            expect(doc["correct"] and doc["failed"] == 0, w + ": traced correctness checks failed")
            expect({k: v["unit"] for k, v in doc["metrics"].items()} == layers,
                   w + ": per-layer metric names or units differ from BENCHMARK.json")
            with open(os.path.join(out_dir(w, 5, "-trace-tiny"), "trace.json")) as f:
                events = json.load(f)["traceEvents"]
            expect(events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
                   w + ": trace.json has no complete events")

        first = notes(w, 5)
        result(run(w, 5, 0), w + " repeat")
        again = notes(w, 5)
        result(run(w, 6, 0), w + " other seed")
        other = notes(w, 6)
        expect(first["stream_digest"] == again["stream_digest"] and
               first["results_digest"] == again["results_digest"],
               w + ": the same seed gave another stream or result")
        expect(first["stream_digest"] != other["stream_digest"],
               w + ": another seed gave the same stream")

    for w in ("paper_flow", "transient_sweep"):
        doc, shown = result(run(w, 5, 0, "--fault-rate", "0.5"), w + " with faults")
        if doc is not None:
            expect(not doc["correct"] and doc["failed"] > 0,
                   w + ": injected faults were not counted as failed")
            expect(shown.get("failed_ops_ratio", (0,))[0] > 0,
                   w + ": failed_ops_ratio stayed 0 under injected faults")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = run("paper_flow", 5, 0, cwd=bare, env=env)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and not last.startswith("{"),
           "the benchmark alone (no sources) must fail without a result")
    shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print("selftest: %d failure(s)" % len(failures))
        sys.exit(1)
    print("selftest ok")


if __name__ == "__main__":
    main()
