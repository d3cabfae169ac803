#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py A/ B/

A and B are directories of run records, as run.py --out writes them (one
JSON file per untraced run).  For every workload and every end-to-end
metric of BENCHMARK.json the script prints each side's median and
quartiles over its runs, each side's spread (third minus first quartile,
over the median), and the change of B's median against A's.  It exits 1
when any pair of medians differs by more than the metric's bound in
BENCHMARK.json, 2 when a side has no runs of a workload, 0 otherwise.
--spreads FILE also writes the spreads as JSON (bench/e2e/spreads.json
holds the ones the bounds were set from).

Two sets of runs of one commit should agree (exit 0); a set run on a
parent commit and one on a change show which metrics moved and how far.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(directory):
    """workload -> metric -> list of values, over untraced runs."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        for name, value in record["metrics"].items():
            runs[record["workload"]][name].append(value)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(q):
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--spreads", type=Path,
                    help="write each side's spreads here as JSON")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_runs(args.a), load_runs(args.b)

    status = 0
    spreads = {}
    print(f"{'workload':<14} {'metric':<20} {'A q1/med/q3':>30} {'spread':>7} "
          f"{'B q1/med/q3':>30} {'spread':>7} {'change':>8} {'bound':>6}")
    for w in (w["name"] for w in spec["workloads"]):
        if not a[w] or not b[w]:
            print(f"{w:<14} missing runs (A: {len(a[w])} metrics, "
                  f"B: {len(b[w])} metrics)")
            status = max(status, 2)
            continue
        spreads[w] = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            qa, qb = quartiles(a[w][name]), quartiles(b[w][name])
            spreads[w][name] = {"A": round(spread(qa), 4),
                                "B": round(spread(qb), 4)}
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            beyond = abs(change) > m["bound"]
            if beyond:
                status = max(status, 1)
            worse = change > 0 if m["better"] == "lower" else change < 0
            flag = ("WORSE" if worse else "better") if beyond else ""
            print(f"{w:<14} {name:<20} "
                  f"{'%.4g/%.4g/%.4g' % qa:>30} {spread(qa):>7.4f} "
                  f"{'%.4g/%.4g/%.4g' % qb:>30} {spread(qb):>7.4f} "
                  f"{change:>+8.2%} {m['bound']:>6.4g} {flag}")
    if args.spreads is not None:
        args.spreads.write_text(json.dumps(spreads, indent=1) + "\n")
    sys.exit(status)


if __name__ == "__main__":
    main()
