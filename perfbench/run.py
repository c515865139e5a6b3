#!/usr/bin/env python3
"""Build and run the ehdse benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run it from the repository root. It builds ehdse_perf and ehdsed from
the sources (Release) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs one workload. The last line of standard output is
the JSON result; build output goes to standard error. Per-run files
(inputs, results, fingerprint, trace) land in .bench_out/.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_flow", "svc_mixed", "transient_sweep"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build ehdse_perf and the daemon."""
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the ehdse sources are not next to the benchmark")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "-j", jobs,
            "--target", "ehdse_perf", "ehdsed"]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return (os.path.join(build_dir, "ehdse_perf"),
            os.path.join(build_dir, "ehdse", "tools", "ehdsed"))


def source_digest():
    """sha256 over the sources the benchmark builds, for the fingerprint."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_one(binaries, args, workload):
    program, daemon = binaries
    suffix = "-trace" if args.trace == "1" else ""
    if args.tiny:
        suffix += "-tiny"
    if args.fault_rate:
        suffix += "-faults"
    out_dir = os.path.join(".bench_out", workload, "seed-%d%s" % (args.seed, suffix))
    cmd = [program, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, "--ehdsed", daemon,
           "--git-commit", git_commit(), "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    if args.fault_rate:
        cmd += ["--fault-rate", str(args.fault_rate)]
    # ehdse_perf and any ehdsed it starts share a new process group, so
    # nothing outlives the run, whatever way it ends.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        status = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        status = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every horizon and window (self-test)")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="inject evaluator faults at this per-request rate "
                             "(in-process workloads; self-test)")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    binaries = build()
    sys.stdout.flush()
    status = 0
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        status = run_one(binaries, args, workload) or status
    sys.exit(status)


if __name__ == "__main__":
    main()
