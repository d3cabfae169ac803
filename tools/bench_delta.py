#!/usr/bin/env python3
"""Compare a fresh benchmark JSON against a checked-in baseline.

Usage: tools/bench_delta.py BASELINE.json FRESH.json

Matches result entries by their identity fields (name + level / layout /
pivots / selectivity / threads / batch -- whatever the entry carries) and
reports the ratio of every shared timing field (...ms, ...qps).  Rows either
file marks "valid": false (more threads than the host had) are skipped.
Baseline rows the fresh run does not produce at all (a deleted bench
section or dispatch level, or one this host cannot run) are listed by
name, so a lost section never reads as "within noise".  The output is a
human-readable delta table for the CI log.

This is a *warn-only* tool: CI hardware is noisy shared infrastructure,
so regressions are reported, never enforced -- the checked-in baselines
(BENCH_scan.json / BENCH_throughput.json) exist to make the perf
trajectory visible across PRs, not to gate them.  The exit code is 0
unless an input file is missing or unparsable (a broken bench emitting
garbage JSON should fail the step).
"""

import json
import sys

IDENTITY_KEYS = ("name", "index", "level", "layout", "pivots",
                 "selectivity", "threads", "batch", "metric", "dataset",
                 "shards", "clients")
WARN_RATIO = 1.15  # flag slowdowns beyond this; below is likely noise


def identity(entry):
    return tuple((k, entry[k]) for k in IDENTITY_KEYS if k in entry)


def timing_fields(entry):
    for key, value in entry.items():
        if not isinstance(value, (int, float)):
            continue
        if key.endswith("ms") or "qps" in key or key.endswith("per_sec"):
            yield key, float(value)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            baseline = json.load(f)
        with open(argv[2]) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_delta: cannot read inputs: {e}", file=sys.stderr)
        return 1

    base_by_id = {identity(e): e for e in baseline.get("results", [])}
    fresh_ids = {identity(e) for e in fresh.get("results", [])}
    missing = [i for i in base_by_id if i not in fresh_ids]
    warned = 0
    compared = 0
    for entry in fresh.get("results", []):
        base = base_by_id.get(identity(entry))
        # Rows that ran more threads than their host had measure the
        # scheduler; the bench marks them "valid": false.
        if base is None or not base.get("valid", True) \
                or not entry.get("valid", True):
            continue
        label = " ".join(f"{k}={v}" for k, v in identity(entry))
        for key, value in timing_fields(entry):
            if key not in base or not isinstance(base[key], (int, float)):
                continue
            old = float(base[key])
            if old <= 0 or value <= 0:
                continue
            compared += 1
            # For *ms lower is better; for qps/per_sec higher is better.
            slower = (value / old) if (key.endswith("ms")) else (old / value)
            flag = ""
            if slower > WARN_RATIO:
                flag = f"  <-- WARNING: {slower:.2f}x slower than baseline"
                warned += 1
            elif slower < 1 / WARN_RATIO:
                flag = f"  ({1 / slower:.2f}x faster)"
            print(f"{label} {key}: baseline={old:.4g} now={value:.4g}{flag}")

    for ident in missing:
        label = " ".join(f"{k}={v}" for k, v in ident)
        print(f"{label}: in baseline, missing from fresh run")

    if missing:
        print(f"bench_delta: {len(missing)} baseline rows missing from the "
              f"fresh run (warn-only, see above)")
    if compared == 0:
        print("bench_delta: no comparable entries (baseline schema changed?)")
    elif warned:
        print(f"bench_delta: {warned}/{compared} timings exceed the "
              f"{WARN_RATIO}x noise threshold (warn-only, see above)")
    else:
        print(f"bench_delta: {compared} timings within noise of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
