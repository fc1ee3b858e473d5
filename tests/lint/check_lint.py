#!/usr/bin/env python3
"""Golden test for tools/lint/bmh_lint.py, wired into ctest as `lint_fixtures`.

Two assertions:
  1. Fixture mode: linting tests/lint/fixtures/ against fixture_readme.md
     produces exactly expected_output.txt (one finding per rule pattern,
     none from the clean file) and exit status 1.
  2. Self-check mode (--repo, used by the `lint_repo` ctest entry): the
     real tree is clean — bmh_lint.py over the build's compile database
     exits 0 with no output.

Run directly: python3 tests/lint/check_lint.py [--repo <compile_db>]
"""
import argparse
import difflib
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
LINTER = REPO / "tools" / "lint" / "bmh_lint.py"

FIXTURES = [
    "fixtures/bad_bare_allow.cpp",
    "fixtures/bad_failpoint.cpp",
    "fixtures/bad_memory_order.cpp",
    "fixtures/bad_metric_name.cpp",
    "fixtures/bad_omp_alloc.cpp",
    "fixtures/bad_ws_alloc.cpp",
    "fixtures/bad_ws_twin.cpp",
    "fixtures/clean.cpp",
]


def run_fixture_check() -> int:
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--readme", "fixture_readme.md",
         "--files", *FIXTURES],
        cwd=HERE, capture_output=True, text=True)
    expected = (HERE / "expected_output.txt").read_text(encoding="utf-8")
    ok = True
    if proc.returncode != 1:
        print(f"FAIL: fixture lint exited {proc.returncode}, expected 1")
        print(proc.stderr, file=sys.stderr)
        ok = False
    if proc.stdout != expected:
        print("FAIL: fixture findings differ from expected_output.txt:")
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(keepends=True),
            proc.stdout.splitlines(keepends=True),
            fromfile="expected_output.txt", tofile="actual"))
        ok = False
    if ok:
        print(f"OK: fixtures produce the {len(expected.splitlines())} "
              "expected findings")
    return 0 if ok else 1


def run_repo_check(compile_db: Path) -> int:
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--compile-db", str(compile_db),
         "--repo-root", str(REPO)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print("FAIL: the tree has lint findings:")
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        return 1
    print("OK: tree is lint-clean")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repo", type=Path, metavar="COMPILE_DB",
                        help="instead of the fixture check, assert the real "
                             "tree is clean against this compile database")
    args = parser.parse_args()
    if args.repo:
        return run_repo_check(args.repo)
    return run_fixture_check()


if __name__ == "__main__":
    sys.exit(main())
