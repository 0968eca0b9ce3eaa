#!/usr/bin/env python3
"""Detection-coverage gate (DESIGN.md, "Safety oracle & coverage matrix").

Compares `lmi_explore coverage --json` output against the golden matrix
tools/coverage_expected.json and fails when any cell's outcome changes:
the oracle verdict, the detected flag, the compile_rejected flag, the
fault kind, or the disagreement string. A non-empty disagreement in the
fresh run fails even if the golden file somehow recorded one — the
matrix must stay disagreement-free, not merely stable. ctest's
lmi_explore_coverage_golden byte-compares the same two files; this
script names the cells that differ. From the repository root:

    build/tools/lmi_explore coverage --json coverage.json
    tools/check_coverage.py coverage.json
"""

import argparse
import json
import sys

PINNED = ("oracle", "detected", "compile_rejected", "fault",
          "disagreement")


def index(doc):
    return {(c["attack"], c["variant"], c["mechanism"], c["tier"]): c
            for c in doc["cells"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("coverage_json",
                    help="output of lmi_explore coverage --json")
    ap.add_argument("--expected", default="tools/coverage_expected.json")
    args = ap.parse_args()

    with open(args.coverage_json) as f:
        got_doc = json.load(f)
    with open(args.expected) as f:
        want_doc = json.load(f)

    failures = 0
    if got_doc.get("schema_version") != want_doc.get("schema_version"):
        print(f"FAIL: schema_version = {got_doc.get('schema_version')!r},"
              f" expected {want_doc.get('schema_version')!r}")
        failures += 1

    got = index(got_doc)
    want = index(want_doc)

    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        print(f"FAIL: cells missing from run: {missing[:5]}"
              f"{' ...' if len(missing) > 5 else ''}")
        failures += len(missing)
    if extra:
        print(f"FAIL: cells absent from golden file: {extra[:5]}"
              f"{' ...' if len(extra) > 5 else ''}")
        failures += len(extra)

    for key in sorted(set(want) & set(got)):
        w, g = want[key], got[key]
        for field in PINNED:
            if g.get(field) != w.get(field):
                print(f"FAIL: {'/'.join(key)}: {field} = "
                      f"{g.get(field)!r}, expected {w.get(field)!r}")
                failures += 1
        if g.get("disagreement"):
            print(f"FAIL: {'/'.join(key)}: oracle/dynamic disagreement: "
                  f"{g['disagreement']}")
            failures += 1

    if failures:
        print(f"FAIL: {failures} coverage mismatches against "
              f"{args.expected}")
        return 1
    print(f"OK: {len(want)} coverage cells match {args.expected} "
          f"(0 disagreements)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
