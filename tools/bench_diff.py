#!/usr/bin/env python3
"""Diff google-benchmark JSON files and track the benchmark trajectory.

Two modes:

  bench_diff.py BASELINE.json NEW.json [--threshold 0.20] [--markdown-out F]
                [--gate REGEX]
      Compare one run against a baseline. Regressions beyond the threshold
      are reported as GitHub Actions `::warning::` annotations; the exit
      code is 0 — CI machines are noisy, so the diff informs rather than
      gates — EXCEPT for benchmarks matching --gate (e.g. the serving
      hot path), whose regressions are `::error::` annotations and make
      the script exit 1. When the two files' hosts report different
      `context.num_cpus`, every `threads:N` row with N > 1 is listed as
      "not comparable" and neither diffed nor gated: its number measures
      the host's core count as much as the code.

  bench_diff.py --trajectory RUN1.json RUN2.json ... [--markdown-out F]
      Render a benchmark × run markdown table of throughputs (the ROADMAP's
      BENCH trajectory dashboard). Runs are ordered oldest → newest; column
      labels default to the file names, override with --labels. CI feeds
      this the committed baseline plus the fresh run and appends the table
      to the job summary; pointing it at a directory of archived
      BENCH_core artifacts charts the whole PR history.

Throughput is `items_per_second`, falling back to inverse `real_time`.
"""

import argparse
import json
import os
import re
import sys


def metric(entry):
    """Throughput-like metric: higher is better."""
    if "items_per_second" in entry:
        return float(entry["items_per_second"]), "items/s"
    real_time = float(entry.get("real_time", 0))
    if real_time > 0:
        return 1.0 / real_time, "1/time"
    return None, None


def load(path):
    """({name: (value, kind)}, context dict) for one benchmark JSON."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        value, kind = metric(entry)
        if value is not None:
            out[entry["name"]] = (value, kind)
    return out, data.get("context", {})


THREADS_RE = re.compile(r"/threads:(\d+)")


def multi_threaded(name):
    """True for a `threads:N` row with N > 1."""
    m = THREADS_RE.search(name)
    return bool(m) and int(m.group(1)) > 1


def host(context):
    """'num_cpus=4 simd=avx512' — what the markdown header prints."""
    return (f"num_cpus={context.get('num_cpus', '?')} "
            f"simd={context.get('simd', '?')}")


def human(value):
    """1234567 -> '1.23M' — keeps the markdown table scannable."""
    for cutoff, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= cutoff:
            return f"{value / cutoff:.3g}{suffix}"
    return f"{value:.3g}"


def write_markdown(path, lines):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
        print(f"bench_diff: wrote markdown to {path}")
    else:
        print(text)


def run_trajectory(paths, labels, markdown_out):
    if labels and len(labels) != len(paths):
        print("bench_diff: --labels count must match the number of runs",
              file=sys.stderr)
        return 2
    labels = labels or [os.path.splitext(os.path.basename(p))[0]
                        for p in paths]
    runs = [load(p)[0] for p in paths]
    names = sorted(set().union(*[set(r) for r in runs]))

    lines = ["# Benchmark trajectory", "",
             "Throughput (items/s; higher is better). Runs ordered oldest "
             "to newest.", "",
             "| benchmark | " + " | ".join(labels) + " | last/first |",
             "|---|" + "---:|" * (len(runs) + 1)]
    for name in names:
        cells = [human(run[name][0]) if name in run else "—" for run in runs]
        # Only meaningful when the benchmark exists in BOTH endpoint runs;
        # a benchmark added mid-history must show "—", not a partial ratio.
        ratio = "—"
        if len(runs) >= 2 and name in runs[0] and name in runs[-1]:
            first, last = runs[0][name][0], runs[-1][name][0]
            if first > 0:
                ratio = f"{last / first:.2f}x"
        lines.append(f"| `{name}` | " + " | ".join(cells) + f" | {ratio} |")
    lines += ["", f"{len(names)} benchmarks across {len(runs)} run(s)."]
    write_markdown(markdown_out, lines)
    return 0


def run_diff(baseline_path, new_path, threshold, markdown_out, gate=None):
    base, base_ctx = load(baseline_path)
    new, new_ctx = load(new_path)
    shared = sorted(set(base) & set(new))
    if not shared:
        print("bench_diff: no shared benchmark names; nothing to compare")
        return 0

    # Multi-threaded rows scale with the core count: across hosts with
    # different counts they are reported, never diffed or gated.
    base_cpus = base_ctx.get("num_cpus")
    new_cpus = new_ctx.get("num_cpus")
    cpus_differ = base_cpus != new_cpus
    gate_re = re.compile(gate) if gate else None
    regressions = 0
    gated_failures = 0
    not_comparable = 0
    md = ["# Benchmark diff", "",
          f"`{baseline_path}` ({host(base_ctx)}) → `{new_path}` "
          f"({host(new_ctx)})", "",
          "| benchmark | baseline | new | ratio |", "|---|---:|---:|---:|"]
    print(f"baseline host: {host(base_ctx)}; new host: {host(new_ctx)}")
    print(f"{'benchmark':52s} {'baseline':>12s} {'new':>12s} {'ratio':>7s}")
    for name in shared:
        b, _ = base[name]
        n, _ = new[name]
        if cpus_differ and multi_threaded(name):
            not_comparable += 1
            note = f"not comparable: {base_cpus} cpus vs {new_cpus} cpus"
            print(f"{name:52s} {b:12.4g} {n:12.4g}  {note}")
            md.append(f"| `{name}` | {human(b)} | {human(n)} | {note} |")
            continue
        ratio = n / b if b > 0 else float("inf")
        flag = ""
        if ratio < 1.0 - threshold:
            flag = "  <-- regression"
            regressions += 1
            if gate_re and gate_re.search(name):
                gated_failures += 1
                print(f"::error::gated bench regression: {name} "
                      f"{b:.3g} -> {n:.3g} items/s ({ratio:.2f}x)")
            else:
                print(f"::warning::bench regression: {name} "
                      f"{b:.3g} -> {n:.3g} items/s ({ratio:.2f}x)")
        print(f"{name:52s} {b:12.4g} {n:12.4g} {ratio:6.2f}x{flag}")
        md.append(f"| `{name}` | {human(b)} | {human(n)} | {ratio:.2f}x"
                  f"{' ⚠️' if flag else ''} |")

    dropped = sorted(set(base) - set(new))
    for name in dropped:
        # A gated benchmark must not dodge its gate by vanishing.
        if gate_re and gate_re.search(name):
            gated_failures += 1
            print(f"::error::gated benchmark disappeared from suite: {name}")
        else:
            print(f"::warning::benchmark disappeared from suite: {name}")
    summary = (f"{len(shared) - not_comparable} compared, {regressions} "
               f"regressed beyond {threshold:.0%}, {len(dropped)} dropped")
    if not_comparable:
        summary += (f", {not_comparable} multi-threaded not comparable "
                    f"({base_cpus} vs {new_cpus} cpus)")
    if gate_re:
        summary += f", {gated_failures} gated failure(s) for /{gate}/"
    print(f"bench_diff: {summary}")
    if markdown_out:
        md += ["", summary]
        write_markdown(markdown_out, md)
    return 1 if gated_failures else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline", nargs="?",
                        help="baseline JSON (diff mode)")
    parser.add_argument("new", nargs="?", help="new-run JSON (diff mode)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="warn when throughput drops more than this "
                             "fraction (default 0.20)")
    parser.add_argument("--trajectory", nargs="+", metavar="RUN.json",
                        help="render a benchmark × run markdown table "
                             "instead of diffing")
    parser.add_argument("--labels", nargs="+",
                        help="column labels for --trajectory (default: "
                             "file names)")
    parser.add_argument("--markdown-out", metavar="FILE",
                        help="also write the result as markdown")
    parser.add_argument("--gate", metavar="REGEX",
                        help="escalate regressions of matching benchmarks "
                             "to errors and exit 1 (diff mode)")
    args = parser.parse_args()

    if args.trajectory:
        return run_trajectory(args.trajectory, args.labels, args.markdown_out)
    if not args.baseline or not args.new:
        parser.error("need BASELINE.json NEW.json (or --trajectory)")
    return run_diff(args.baseline, args.new, args.threshold,
                    args.markdown_out, args.gate)


if __name__ == "__main__":
    sys.exit(main())
