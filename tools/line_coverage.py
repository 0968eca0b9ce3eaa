#!/usr/bin/env python3
"""Line coverage of src/ from a --coverage build, with a floor.

Usage:
    python3 tools/line_coverage.py BUILD_DIR

BUILD_DIR is a build configured with ``-O0 --coverage`` (compile and
link) after ctest has run in it. Every ``.gcda`` file under BUILD_DIR is
read through ``gcov -j -t`` (JSON on stdout, nothing written beside the
objects), test and tool objects included: tests call many header helpers
that no src/ object does. gcov reports a header once per translation
unit, so counts are merged per (file, line) first; a line counts as
executed when any object ran it.

Prints executed/total lines per src/ file, the totals for src/**/*.cpp
and for src/ with headers, and the src/ functions that no object ever
called. Exits 1 when the src/**/*.cpp total is below FLOOR_PCT.
"""

import collections
import json
import os
import subprocess
import sys

# Executed share of the gcov lines in src/**/*.cpp, in percent, measured
# on a Debug -O0 --coverage build after a full ctest run. Raise it when
# coverage rises; lowering it needs a reason in the change log.
FLOOR_PCT = 91.2

SRC_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


def gcov_reports(gcda_files, cwd):
    """Yield each JSON report gcov prints for @p gcda_files."""
    out = subprocess.run(["gcov", "-j", "-t", *gcda_files], cwd=cwd,
                         check=True, capture_output=True, text=True).stdout
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(out) and out[pos].isspace():
            pos += 1
        if pos >= len(out):
            return
        report, pos = decoder.raw_decode(out, pos)
        yield report


def collect(build_dir):
    """Merged line counts and function call counts for files in src/."""
    by_dir = collections.defaultdict(list)
    for root, _, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                by_dir[root].append(name)
    if not by_dir:
        sys.exit(f"error: no .gcda files under {build_dir}; run ctest in "
                 "a --coverage build first")

    lines = collections.defaultdict(lambda: collections.defaultdict(int))
    calls = collections.defaultdict(int)
    for obj_dir, names in sorted(by_dir.items()):
        for report in gcov_reports(sorted(names), obj_dir):
            cwd = report.get("current_working_directory", obj_dir)
            for entry in report["files"]:
                path = os.path.realpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(SRC_ROOT + os.sep):
                    continue
                rel = os.path.relpath(path, os.path.dirname(SRC_ROOT))
                for line in entry["lines"]:
                    lines[rel][line["line_number"]] += line["count"]
                for fn in entry["functions"]:
                    key = (rel, fn["start_line"], fn["demangled_name"])
                    calls[key] += fn["execution_count"]
    return lines, calls


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: line_coverage.py BUILD_DIR")
    lines, calls = collect(argv[1])

    totals = {"cpp": [0, 0], "all": [0, 0]}
    print(f"{'file':<44} {'executed':>8} {'lines':>6} {'pct':>6}")
    for rel in sorted(lines):
        counts = lines[rel]
        run = sum(1 for c in counts.values() if c > 0)
        print(f"{rel:<44} {run:>8} {len(counts):>6} "
              f"{100.0 * run / len(counts):>6.1f}")
        for kind in ("cpp", "all") if rel.endswith(".cpp") else ("all",):
            totals[kind][0] += run
            totals[kind][1] += len(counts)

    never = sorted(k for k, n in calls.items() if n == 0)
    print(f"\nsrc/ functions never called: {len(never)}")
    for rel, line, name in never:
        print(f"  {rel}:{line} {name}")

    run, total = totals["all"]
    print(f"\nsrc/ with headers: {run} of {total} lines "
          f"({100.0 * run / total:.1f}%)")
    run, total = totals["cpp"]
    pct = 100.0 * run / total
    print(f"src/**/*.cpp: {run} of {total} lines ({pct:.1f}%), "
          f"floor {FLOOR_PCT:.1f}%")
    if pct < FLOOR_PCT:
        print(f"error: src/**/*.cpp line coverage {pct:.1f}% is below "
              f"the floor {FLOOR_PCT:.1f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
