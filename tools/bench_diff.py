#!/usr/bin/env python3
"""Compare Google Benchmark runs of a parent and a change, pair by pair.

    tools/bench_diff.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is a `--benchmark_out` JSON of one run. Run the two executables
alternately (parent, change, parent, change, ...) and pass the files in run
order; the i-th parent sample pairs with the i-th change sample. A sample is
one repetition's wall time (`real_time`); a file written with
`--benchmark_report_aggregates_only` gives one sample per benchmark, its
`median`. For every benchmark both sides ran, one row prints:

  parent_ms   median of the parent's samples
  change_ms   median of the change's samples
  parent_iqr  interquartile range of the parent's samples
  ratio       change_ms / parent_ms (below 1: the change is faster)
  wins        pairs in which the change's sample is the faster one
  past_iqr    whether the medians differ by more than the parent's IQR

Both executables must sit in the same directory (each file's
`context.executable`): the checkout's path changes the binary's layout in
memory, and runs from two paths have read a 2% difference with identical
binaries. The tool refuses such a comparison (exit 2), and a pairing whose
sides have different sample counts. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

UNIT_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


class Refusal(Exception):
    pass


def load(path):
    """(executable directory, {benchmark: [samples in ms]}) of one file."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    directory = os.path.dirname(os.path.normpath(data["context"]["executable"]))
    iterations, medians = {}, {}
    for row in data["benchmarks"]:
        name = row.get("run_name", row["name"])
        value = row["real_time"] * UNIT_MS[row["time_unit"]]
        if row.get("run_type", "iteration") == "iteration":
            iterations.setdefault(name, []).append(value)
        elif row.get("aggregate_name") == "median":
            medians.setdefault(name, []).append(value)
    for name, values in medians.items():
        iterations.setdefault(name, values)
    return directory, iterations


def gather(paths):
    """(directories, {benchmark: samples across the files, in order})."""
    directories, samples = set(), {}
    for path in paths:
        directory, rows = load(path)
        directories.add(directory)
        for name, values in rows.items():
            samples.setdefault(name, []).extend(values)
    return directories, samples


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(parent_paths, change_paths):
    """The table's rows: (name, parent_ms, change_ms, iqr, ratio, wins, pairs, past_iqr)."""
    parent_dirs, parent = gather(parent_paths)
    change_dirs, change = gather(change_paths)
    directories = parent_dirs | change_dirs
    if len(directories) != 1:
        raise Refusal("executables in different directories: " +
                      ", ".join(sorted(d or "." for d in directories)) +
                      " (copy both binaries into one directory and rerun)")
    rows = []
    for name in parent:
        if name not in change:
            continue
        p, c = parent[name], change[name]
        if len(p) != len(c):
            raise Refusal(f"{name}: {len(p)} parent samples against {len(c)} change samples")
        p_med, c_med = statistics.median(p), statistics.median(c)
        spread = iqr(p)
        wins = sum(1 for a, b in zip(p, c) if b < a)
        rows.append((name, p_med, c_med, spread, c_med / p_med, wins, len(p),
                     abs(c_med - p_med) > spread))
    return rows


def render(rows):
    width = max([len("benchmark")] + [len(r[0]) for r in rows])
    lines = [f"{'benchmark':<{width}}  parent_ms  change_ms  parent_iqr   ratio   wins  past_iqr"]
    for name, p_med, c_med, spread, ratio, wins, pairs, past in rows:
        lines.append(f"{name:<{width}}  {p_med:9.4f}  {c_med:9.4f}  {spread:10.4f}  "
                     f"{ratio:6.3f}  {wins:>2}/{pairs:<2}  {'yes' if past else 'no'}")
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent runs, in order")
    parser.add_argument("--change", nargs="+", required=True, help="change runs, in order")
    args = parser.parse_args(argv)
    try:
        rows = compare(args.parent, args.change)
    except Refusal as e:
        print(f"bench_diff: refused: {e}", file=sys.stderr)
        return 2
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
