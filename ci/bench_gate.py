#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares a fresh perf_harness document with the committed baseline. The
gate knows no block by name; each document says what to check:

* every baseline block must be present and non-empty in the fresh one;
* every object block of the fresh document must end with a non-empty
  "checks" object whose values are all true (the harness's own verdicts,
  see bench/checks.h);
* each entry of the fresh document's top-level "gated" table compares its
  dotted path with the same path in the baseline. "higher" fails below
  baseline / tolerance; "lower" fails above max(baseline, floor) *
  tolerance, the floor keeping tiny baselines from turning jitter into a
  "4x regression".

Usage: bench_gate.py BASELINE.json FRESH.json
Prints a GitHub-flavoured markdown summary to stdout (pipe it into
$GITHUB_STEP_SUMMARY); exits 1 on any failure, malformed input included,
never with a traceback.
"""

import json
import sys

SCHEMA = "softsched-bench-v2"
BASELINE_SCHEMAS = ("softsched-bench-v1", SCHEMA)


class Malformed(Exception):
    """Input the gate cannot read; reported as a failure, never raised."""


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load(path, schemas):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise Malformed(f"{path}: {e}") from None
    if not isinstance(doc, dict) or doc.get("schema") not in schemas:
        schema = doc.get("schema") if isinstance(doc, dict) else None
        raise Malformed(f"{path}: unexpected schema {schema!r}")
    if not isinstance(doc.get("scenarios"), dict):
        raise Malformed(f"{path}: no scenarios object")
    return doc


def lookup(doc, path, label):
    node = doc["scenarios"]
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise Malformed(f"{label} has no {path}")
        node = node[part]
    if not is_number(node):
        raise Malformed(f"{label} {path} is not a number: {node!r}")
    return node


def block_errors(baseline, fresh):
    blocks = fresh["scenarios"]
    errors = [f"block {name} is missing or empty"
              for name in baseline["scenarios"] if not blocks.get(name)]
    for name, block in blocks.items():
        if isinstance(block, list):
            continue  # array blocks carry no checks
        checks = block.get("checks") if isinstance(block, dict) else None
        if not isinstance(checks, dict) or not checks:
            errors.append(f"block {name} has no checks object")
            continue
        errors += [f"{name}.{check} is {json.dumps(ok)}, not true"
                   for check, ok in checks.items() if ok is not True]
    return errors


def gated_errors(baseline, fresh):
    table = fresh.get("gated")
    if not isinstance(table, dict) or not table:
        return ["fresh document has no gated table"]
    errors = []
    print("| Metric | Better | Baseline | Fresh | Limit | Gate |")
    print("|---|---|---|---|---|---|")
    for path, spec in sorted(table.items()):
        try:
            if not (isinstance(spec, dict) and spec.get("better") in ("higher", "lower")
                    and is_number(spec.get("tolerance")) and spec["tolerance"] > 0
                    and is_number(spec.get("floor"))):
                raise Malformed(f"gated {path} has a bad spec: {spec!r}")
            base = lookup(baseline, path, "baseline")
            now = lookup(fresh, path, "fresh")
        except Malformed as e:
            errors.append(str(e))
            continue
        if spec["better"] == "higher":
            limit = base / spec["tolerance"]
            ok = now >= limit
        else:
            limit = max(base, spec["floor"]) * spec["tolerance"]
            ok = now <= limit
        print(f"| {path} | {spec['better']} | {base:.3g} | {now:.3g} | {limit:.3g} | "
              f"{'ok' if ok else 'FAIL'} |")
        if not ok:
            errors.append(f"{path} regressed past its limit {limit:.3g} "
                          f"({spec['better']} is better): {base:.3g} -> {now:.3g}")
    return errors


def main(argv):
    if len(argv) != 3:
        print("usage: bench_gate.py BASELINE.json FRESH.json", file=sys.stderr)
        return 2
    print("### Benchmark gate\n")
    try:
        baseline = load(argv[1], BASELINE_SCHEMAS)
        fresh = load(argv[2], (SCHEMA,))
        errors = block_errors(baseline, fresh) + gated_errors(baseline, fresh)
    except Malformed as e:
        errors = [f"malformed benchmark document: {e}"]
    if errors:
        print("\n**Gate failed:**")
        for e in errors:
            print(f"- {e}")
            print(f"bench_gate: {e}", file=sys.stderr)
        return 1
    print("\nEvery block's checks are true. Gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
