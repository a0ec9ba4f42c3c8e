#!/usr/bin/env python3
"""Project-contract linter: enforce repo invariants no generic tool can.

Rules (see the rule_*.py modules for the full rationale):

  xmacro-contract         single-source X-macro counter layout
  unordered-order         no hash-ordered iteration in result paths
  hexfloat-serialization  doubles cross text boundaries as hex floats
  naked-alloc             no raw new/malloc outside src/common
  timing-clock            wall-time comes from obs::monotonicNs()
  thermal-solve           dense thermal elimination stays in src/thermal

Usage:
  check_contracts.py [--root DIR]   lint the tree (default: repo root)
  check_contracts.py --self-test    run the fixture suite

Exit status 0 = clean, 1 = findings (or a failed self-test).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lint_common import SourceFile  # noqa: E402
import rule_alloc  # noqa: E402
import rule_hexfloat  # noqa: E402
import rule_thermal_solve  # noqa: E402
import rule_timing  # noqa: E402
import rule_unordered  # noqa: E402
import rule_xmacro  # noqa: E402

RULES = (rule_xmacro, rule_unordered, rule_hexfloat, rule_alloc,
         rule_timing, rule_thermal_solve)

SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = (".cc", ".hh", ".cpp", ".hpp", ".h")


def load_tree(root):
    files = {}
    for scan_dir in SCAN_DIRS:
        top = os.path.join(root, scan_dir)
        if not os.path.isdir(top):
            continue
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if not name.endswith(SOURCE_SUFFIXES):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as fh:
                    files[rel] = SourceFile(rel, fh.read())
    return files


def run_rules(files):
    findings = []
    for rule in RULES:
        findings.extend(rule.check(files))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# --------------------------------------------------------------- self-test
#
# Each fixture case is a miniature repo tree under fixtures/<case>/;
# the table says which rules must fire (and how often). The clean case
# exercises every rule's happy path and must produce zero findings.

SELF_TESTS = {
    "xmacro_dup": {"xmacro-contract": 1},
    "xmacro_index_drift": {"xmacro-contract": 1},
    "xmacro_literal_count": {"xmacro-contract": 1},
    "xmacro_schema": {"xmacro-contract": 2},
    "unordered_iter": {"unordered-order": 3},
    "float_serialize": {"hexfloat-serialization": 2},
    "naked_alloc": {"naked-alloc": 2},
    "raw_timing": {"timing-clock": 2},
    "thermal_solve": {"thermal-solve": 4},
    "clean": {},
}


def self_test():
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures")
    failures = 0
    for case, expected in sorted(SELF_TESTS.items()):
        root = os.path.join(fixtures, case)
        if not os.path.isdir(root):
            print("FAIL %-22s fixture directory missing" % case)
            failures += 1
            continue
        findings = run_rules(load_tree(root))
        got = {}
        for f in findings:
            got[f.rule] = got.get(f.rule, 0) + 1
        if got == expected:
            print("ok   %-22s %s" % (case, got or "clean"))
        else:
            failures += 1
            print("FAIL %-22s expected %s, got %s"
                  % (case, expected or "clean", got or "clean"))
            for f in findings:
                print("       " + str(f))
    if failures:
        print("self-test: %d fixture case(s) FAILED" % failures)
        return 1
    print("self-test: all %d fixture cases passed" % len(SELF_TESTS))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="gpusimpow project-contract linter")
    parser.add_argument("--root", default=None,
                        help="tree to lint (default: the repo root "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite instead of "
                             "linting a tree")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    files = load_tree(root)
    if not files:
        print("check_contracts: no sources found under %s" % root,
              file=sys.stderr)
        return 1
    findings = run_rules(files)
    for f in findings:
        print(f)
    if findings:
        print("check_contracts: %d finding(s) in %d files"
              % (len(findings), len({f.path for f in findings})),
              file=sys.stderr)
        return 1
    print("check_contracts: %d files clean" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
