#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the sharded service.

Run from the repository root:

    python3 bench/e2e/run.py                       # all four workloads
    python3 bench/e2e/run.py --workload vec-range --seed 3
    python3 bench/e2e/run.py --workload words-knn --trace 1

The first call configures and builds bench/e2e into build-e2e/.  Each
workload runs in a fresh e2e_bench process and measures for run_seconds
of BENCHMARK.json, the window its bounds were set at; --seconds is
accepted only with that value.  The script prints every
metric by name and unit; for one workload, its last stdout line is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).  The
full record, with host context and workload-specific metrics, is written
to --out (default build-e2e/results/).  A traced run also leaves its span
file and a Chrome trace in build-e2e/trace/.  The exit code is non-zero
on any wrong answer, untyped error or build failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import trace_report  # noqa: E402

ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "e2e_bench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds e2e_bench; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return False
    return BINARY.exists()


def commit():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload, seed, seconds, trace, out_dir):
    """Runs one workload in a fresh process; returns (record, ok)."""
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    spans = BUILD / "trace" / f"{workload}-seed{seed}.spans.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--work", str(work), "--commit", commit()]
    if trace:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload}: e2e_bench exited {proc.returncode} without a record")
        return None, False
    record = json.loads(lines[-1])
    if trace:
        chrome = spans.with_name(f"{workload}-seed{seed}.trace.json")
        try:
            layer, table = trace_report.reduce(spans, chrome)
        except ValueError as e:
            log(f"{workload}: trace check failed: {e}")
            return None, False
        record["layer"] = layer
        log(table)
        log(f"chrome trace: {chrome}")
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return record, proc.returncode == 0 and record["correct"]


def contract_metrics(record, spec, trace):
    """The metrics BENCHMARK.json lists for this kind of run, with units."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = record["layer"] if trace else record["metrics"]
    out = {}
    for m in listed:
        value = values.get(m["name"])
        if not isinstance(value, (int, float)):
            raise KeyError(f"metric {m['name']} missing from the record")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    choices=[spec["run_seconds"]])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", type=Path, default=BUILD / "results")
    args = ap.parse_args()

    if not build():
        sys.exit(1)
    ok_all = True
    for workload in names if args.workload == "all" else [args.workload]:
        record, ok = run_one(workload, args.seed, args.seconds,
                             bool(args.trace), args.out)
        ok_all = ok_all and ok
        if record is None:
            continue
        try:
            metrics = contract_metrics(record, spec, bool(args.trace))
        except KeyError as e:
            log(f"{workload}: {e}")
            ok_all = False
            continue
        host = json.dumps(record["host"])
        print(f"# {workload} seed={args.seed} host={host}")
        for name, m in metrics.items():
            print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
        for name, value in record["unbounded_metrics"].items():
            print(f"{workload} ({name}) = {value:.6g}")
        print(json.dumps({"correct": record["correct"],
                          "attempted": record["attempted"],
                          "failed": record["failed"],
                          "metrics": metrics}), flush=True)
    sys.exit(0 if ok_all else 1)


if __name__ == "__main__":
    main()
