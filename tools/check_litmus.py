#!/usr/bin/env python3
"""Litmus model-check gate (DESIGN.md, "Memory model").

Compares `lmi_explore check --json` output against the golden verdict
file tools/litmus_expected.json and fails when any test's verdict-level
result changes: the verdict string, the pass flag, the fault bits (uaf,
scope_race), or the explored outcome set. Exploration statistics
(executions, pruned, hit_bound) are deterministic but implementation-
defined, so drift there is printed as a note, never a failure. A
changed schema_version fails too. ctest runs it as
lmi_explore_litmus_golden; by hand, from the repository root:

    build/tools/lmi_explore check --json litmus.json
    tools/check_litmus.py litmus.json
"""

import argparse
import json
import sys

PINNED = ("verdict", "pass", "uaf", "scope_race", "events", "agents",
          "outcomes")
INFORMATIONAL = ("executions", "pruned", "hit_bound")


def index(doc):
    return {t["name"]: t for t in doc["tests"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("litmus_json",
                    help="output of lmi_explore check --json")
    ap.add_argument("--expected", default="tools/litmus_expected.json")
    args = ap.parse_args()

    with open(args.litmus_json) as f:
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
        print(f"FAIL: tests missing from run: {missing}")
        failures += len(missing)
    if extra:
        print(f"FAIL: tests absent from golden file: {extra}")
        failures += len(extra)

    for name in sorted(set(want) & set(got)):
        w, g = want[name], got[name]
        for key in PINNED:
            if g.get(key) != w.get(key):
                print(f"FAIL: {name}: {key} = {g.get(key)!r}, "
                      f"expected {w.get(key)!r}")
                failures += 1
        for key in INFORMATIONAL:
            if key in w and g.get(key) != w.get(key):
                print(f"note: {name}: {key} = {g.get(key)!r} "
                      f"(golden recorded {w.get(key)!r})")

    if failures:
        print(f"FAIL: {failures} litmus mismatches against "
              f"{args.expected}")
        return 1
    print(f"OK: {len(want)} litmus verdicts match {args.expected} "
          f"(bound {got_doc.get('bound')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
