#!/usr/bin/env python3
"""Reduces a traced run's span file to per-layer metrics.

    python3 bench/e2e/trace_report.py \
        build-e2e/trace/vec-range-seed1.spans.jsonl [--chrome OUT.json]

The span file (written by e2e_bench --trace 1) starts with one "run" line
holding the per-layer values measured outside the spans, followed by one
line per span.  For each sampled request the spans are:

    service.Query                  the real loaded request (exec_ms = the
                                   service's own QueryResult time)
      service.ReadView.Query       the direct read path, versioned shards only
        api.MetricDB.Query x shard  a replica shard's MetricDB query
          api.ReadView.pin          the replica's pin
          core.index.QueryBatch     the replica index's batch call
        service.MergeShardResults

The children are replays of the request, made after it on replica shards,
so a span's self time is its duration minus its children's durations (not
the part of its interval they cover).  The table splits the service.Query
span into these rows:

    admission wait      service.Query - exec_ms (both from the real request)
    residual            exec_ms - the replayed gather (shard queries + merge)
    merge               MergeShardResults
    api                 shard MetricDB queries - their index calls
    core.verify_est     index compdists x core.dist_ns
    storage.pages_est   index page accesses x storage.cpu_us_per_page
    core.unattributed   the rest of the index time, mostly the filter sweep

The residual is not a layer: it is the real execution minus its replay,
and it absorbs whatever the replay does not reproduce -- the real gather's
own work, lock waits on the real shards, and the difference between real
and replica shards -- so the rows add up to the span by definition.  It is
reported as trace.replay_residual_frac; it goes negative when the replay
ran slower than the request.  What is checked instead: on the workloads
without a writer, where replicas and shards hold the same objects, the
replayed index calls of every request must make exactly the distance
computations the real request made.

storage.cpu_us_per_page is the least-squares slope of (index time - verify
estimate) on page accesses over all shard calls; it is 0 where no call
touches a page.  The Chrome trace lays each request's tree out nested from
its real start time; open it in chrome://tracing or Perfetto.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    header, spans = None, []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["type"] == "run":
                header = rec
            else:
                spans.append(rec)
    if header is None:
        raise ValueError(f"{path}: no run header")
    return header, spans


def dur_ms(span):
    return (span["end_us"] - span["start_us"]) / 1e3


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


class Request:
    """One sampled request's span tree."""

    def __init__(self, spans):
        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append(s)
        self.root = next(s for s in spans if s["name"] == "service.Query")
        self.view = next((s for s in spans
                          if s["name"] == "service.ReadView.Query"), None)
        gather = self.view or self.root
        kids = children[gather["id"]]
        self.merge = next(s for s in kids
                          if s["name"] == "service.MergeShardResults")
        self.shards = sorted((s for s in kids
                              if s["name"] == "api.MetricDB.Query"),
                             key=lambda s: s["shard"])
        self.pins, self.index = [], []
        for m in self.shards:
            sub = {c["name"]: c for c in children[m["id"]]}
            self.pins.append(sub["api.ReadView.pin"])
            self.index.append(sub["core.index.QueryBatch"])

    @property
    def total(self):
        return dur_ms(self.root)

    @property
    def exec_ms(self):
        return self.root["exec_ms"]

    def gather_ms(self):
        return sum(dur_ms(s) for s in self.shards)

    def index_ms(self):
        return sum(dur_ms(s) for s in self.index)


def least_squares_slope(xs, ys):
    if len(xs) < 2:
        return 0.0
    mx, my = mean(xs), mean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


def self_times(reqs, dist_ns, us_per_page):
    """Mean time per request, by row, in ms (see the module docstring)."""
    rows = defaultdict(list)
    for r in reqs:
        merge = dur_ms(r.merge)
        verify = sum(s["compdists"] for s in r.index) * dist_ns / 1e6
        pages = sum(s["pages"] for s in r.index) * us_per_page / 1e3
        rows["service.admission_wait"].append(r.total - r.exec_ms)
        rows["residual.real_minus_replay"].append(
            r.exec_ms - r.gather_ms() - merge)
        rows["service.merge"].append(merge)
        rows["api.shard_self"].append(r.gather_ms() - r.index_ms())
        rows["core.verify_est"].append(verify)
        rows["storage.pages_est"].append(pages)
        rows["core.unattributed"].append(r.index_ms() - verify - pages)
    return {name: mean(v) for name, v in rows.items()}


def chrome_events(reqs):
    events = []

    def ev(name, ts, dur, args=None):
        events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                       "ts": ts, "dur": max(dur, 0.0), "args": args or {}})

    for r in reqs:
        req = r.root["req"]
        t = r.root["start_us"]
        wait = (r.total - r.exec_ms) * 1e3
        ev("service.Query", t, r.total * 1e3,
           {"req": req, "compdists": r.root["compdists"],
            "pages": r.root["pages"], "results": r.root["results"]})
        ev("service.admission_wait", t, wait, {"req": req})
        cursor = t + wait
        ev("service.execute", cursor, r.exec_ms * 1e3, {"req": req})
        if r.view:
            ev("service.ReadView.Query", cursor, dur_ms(r.view) * 1e3,
               {"req": req, "real_start_us": r.view["start_us"]})
        for m, pin, ix in zip(r.shards, r.pins, r.index):
            ev("api.MetricDB.Query", cursor, dur_ms(m) * 1e3,
               {"req": req, "shard": m["shard"],
                "real_start_us": m["start_us"]})
            ev("api.ReadView.pin", cursor, dur_ms(pin) * 1e3,
               {"req": req, "shard": m["shard"], "pinned": pin["ok"]})
            ev("core.index.QueryBatch", cursor + dur_ms(pin) * 1e3,
               dur_ms(ix) * 1e3,
               {"req": req, "shard": m["shard"], "compdists": ix["compdists"],
                "pages": ix["pages"], "results": ix["results"]})
            cursor += dur_ms(m) * 1e3
        ev("service.MergeShardResults", cursor, dur_ms(r.merge) * 1e3,
           {"req": req})
    return events


def reduce(spans_path, chrome_path=None):
    """Returns (per-layer metrics, printable self-time table)."""
    header, spans = load(spans_path)
    layer = dict(header["layer"])
    by_req = defaultdict(list)
    for s in spans:
        by_req[s["req"]].append(s)
    reqs = [Request(v) for _, v in sorted(by_req.items())]
    dist_ns = layer["core.dist_ns"]
    if header["writers"] == 0:
        for r in reqs:
            replayed = sum(ix["compdists"] for ix in r.index)
            if replayed != r.root["compdists"]:
                raise ValueError(
                    f"request {r.root['req']}: the replay made {replayed} "
                    f"distance computations, the request "
                    f"{r.root['compdists']}")

    shard_calls = [(ix["pages"], dur_ms(ix) - ix["compdists"] * dist_ns / 1e6)
                   for r in reqs for ix in r.index]
    us_per_page = 1e3 * least_squares_slope([c[0] for c in shard_calls],
                                            [c[1] for c in shard_calls])
    rows = self_times(reqs, dist_ns, us_per_page)
    compdists = sum(ix["compdists"] for r in reqs for ix in r.index)
    results = sum(ix["results"] for r in reqs for ix in r.index)
    layer.update({
        "service.gather_serial_ms.p50": median([r.gather_ms() for r in reqs]),
        "service.gather_skew": median(
            [max(map(dur_ms, r.shards)) / mean(list(map(dur_ms, r.shards)))
             for r in reqs]),
        "service.merge_ms.p50": median([dur_ms(r.merge) for r in reqs]),
        "api.readview_pin_us.p50": median(
            [dur_ms(p) * 1e3 for r in reqs for p in r.pins]),
        "api.shard_query_ms.p50": median(
            [dur_ms(m) for r in reqs for m in r.shards]),
        "core.index_query_ms.p50": median([r.index_ms() for r in reqs]),
        "core.verify_ms_est": rows["core.verify_est"],
        "core.results_per_compdist": results / compdists if compdists else 0.0,
        "core.unattributed_ms": rows["core.unattributed"],
        "storage.cpu_us_per_page": us_per_page,
        "trace.sampled_requests": len(reqs),
    })
    total = mean([r.total for r in reqs])
    layer["trace.replay_residual_frac"] = (
        rows["residual.real_minus_replay"] / total if total else 0.0)

    lines = [f"{header['workload']}: time per request, mean of "
             f"{len(reqs)} sampled requests",
             f"  {'row':<28}{'ms':>12}{'share':>9}"]
    for name, ms in rows.items():
        share = ms / total if total else 0.0
        lines.append(f"  {name:<28}{ms:>12.4f}{share:>9.1%}")
    lines.append(f"  {'service.Query span':<28}{total:>12.4f}")

    if chrome_path is not None:
        Path(chrome_path).write_text(json.dumps(
            {"traceEvents": chrome_events(reqs), "displayTimeUnit": "ms"}))
    return layer, "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("spans", type=Path)
    ap.add_argument("--chrome", type=Path,
                    help="write a Chrome-trace JSON here")
    args = ap.parse_args()
    layer, table = reduce(args.spans, args.chrome)
    print(table)
    print(json.dumps(layer, indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
