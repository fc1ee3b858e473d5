#!/usr/bin/env python3
"""Smoke test of tools/bench_diff.py on the checked-in fixtures.

    python3 tests/smoke/bench_diff.py

tests/data/bench_diff_{parent,change}.json are two --benchmark_out files of
five repetitions each, from executables in one directory. The table must
read as below; the same change from another directory, and a change with
fewer samples, must be refused with exit code 2.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "bench_diff.py"
PARENT = ROOT / "tests" / "data" / "bench_diff_parent.json"
CHANGE = ROOT / "tests" / "data" / "bench_diff_change.json"

EXPECTED = """\
benchmark                            parent_ms  change_ms  parent_iqr   ratio   wins  past_iqr
BM_CscConstruction/131072/real_time     9.8000     5.9000      0.3000   0.602   5/5   yes
BM_PlantedBuild/131072/real_time       14.0000    13.9000      0.9000   0.993   3/5   no
"""


def run(parent, change):
    return subprocess.run([sys.executable, str(TOOL), "--parent", str(parent),
                           "--change", str(change)], capture_output=True, text=True)


def main():
    failures = []
    result = run(PARENT, CHANGE)
    if result.returncode != 0 or result.stdout != EXPECTED:
        failures.append(f"fixture table (exit {result.returncode}):\n{result.stdout}"
                        f"{result.stderr}")
    with tempfile.TemporaryDirectory() as tmp:
        data = json.loads(CHANGE.read_text())
        data["context"]["executable"] = "elsewhere/build/bench_micro"
        moved = Path(tmp) / "moved.json"
        moved.write_text(json.dumps(data))
        data = json.loads(CHANGE.read_text())
        data["benchmarks"] = [b for b in data["benchmarks"] if b.get("repetition_index") != 4]
        short = Path(tmp) / "short.json"
        short.write_text(json.dumps(data))
        for what, change, reason in (("another directory", moved, "different directories"),
                                     ("fewer samples", short, "change samples")):
            result = run(PARENT, change)
            if result.returncode != 2 or reason not in result.stderr:
                failures.append(f"{what}: exit {result.returncode}, stderr {result.stderr!r}")
    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print("bench_diff smoke ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
