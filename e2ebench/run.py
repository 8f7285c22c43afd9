#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of fit and release (e2ebench).

Run from anywhere inside the repository:

  python3 e2ebench/run.py --workload fit_binary --seed 1 --seconds 25 --trace 0
  python3 e2ebench/run.py --smoke

The first form builds the library and the e2ebench binary from source into
.bench_build/ at the repository root (incremental after the first build;
build output goes to stderr), then runs one workload. The last line of
standard output is the result object: {"correct", "attempted", "failed",
"metrics"}. With --trace 1 the metrics are the per-layer ones and the spans
are written to .bench_build/spans/.

--smoke runs every workload of BENCHMARK.json at tiny sizes, traced and
untraced, and checks the result schema and metric names and units against
BENCHMARK.json. It is the benchmark's own test; it exits non-zero on any
mismatch.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the e2ebench target; raises on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def commit():
    """The git commit of the checkout, or "none" outside a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_sha():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def run_binary(args, capture):
    return subprocess.run([BINARY] + args, capture_output=capture, text=True,
                          timeout=RUN_TIMEOUT_S)


def run_workload(args):
    build()
    extra = ["--commit", commit(), "--source-sha", source_sha()]
    if args.trace == 1:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        extra += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)] + extra, capture=False)
    return proc.returncode


def smoke():
    """Every workload at tiny sizes, traced and untraced; schema checks."""
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            known = len(problems)
            proc = run_binary(["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace),
                               "--smoke"], capture=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d, stderr %r" %
                                (label, proc.returncode, proc.stderr[-500:]))
                continue
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                problems.append("%s: last line is not JSON" % label)
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: keys %s" % (label, sorted(result)))
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%s" %
                                (label, result["correct"], result["failed"]))
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                problems.append("%s: attempted=%r" % (label, result["attempted"]))
            metrics = result["metrics"]
            if sorted(metrics) != sorted(expected[trace]):
                problems.append("%s: metrics differ: missing %s, extra %s" % (
                    label, sorted(set(expected[trace]) - set(metrics)),
                    sorted(set(metrics) - set(expected[trace]))))
            for name, m in metrics.items():
                value = m.get("value")
                if (not isinstance(value, (int, float)) or isinstance(value, bool)
                        or not math.isfinite(value)):
                    problems.append("%s: %s value %r" % (label, name, value))
                if name in expected[trace] and m.get("unit") != expected[trace][name]:
                    problems.append("%s: %s unit %r" % (label, name, m.get("unit")))
            print("smoke %-24s ok=%s attempted=%d" %
                  (label, len(problems) == known, result["attempted"]))
    bad = run_binary(["--workload", "no_such_workload", "--seed", "1",
                      "--seconds", "1", "--trace", "0"], capture=True)
    if bad.returncode == 0 or bad.stdout.strip().endswith("}"):
        problems.append("an unknown workload must fail without a result")
    for p in problems:
        print("smoke problem: " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        return run_workload(args)
    except (OSError, subprocess.SubprocessError) as e:
        print("e2ebench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
