// Throughput benchmark for the parallel execution engine: multi-threaded
// index construction and the concurrent batch-query API
// (MetricIndex::RangeQueryBatch / KnnQueryBatch) on the paper's 20-d
// synthetic workload.
//
// For each index (LAESA, EPT*) and each thread count in a power-of-two
// sweep, the run measures build wall time, batch MRQ and batch MkNNQ wall
// time (best-of repeats), and reports QPS plus speedup vs. the 1-thread
// run.  Before timing, it pins the engine's equivalence contract: per
// -query result sets and total compdists must be identical at every
// thread count.  Exit status reflects the equivalence checks only --
// speedup depends on the hardware (a single-core container measures ~1x
// by construction) and is reported, not asserted.
//
// A second section, batch_blocking, pits the query-major reference (a
// loop of single RangeQuery/KnnQuery calls) against the batch entry
// points across batch sizes {1, 8, 64, 256} on LAESA and EPT*,
// single-threaded so the measured ratio is pure cache blocking.  A
// batch of one runs the query-major loop itself, so its row reads 1.0
// up to noise; larger batches run block-major.  Before timing, it
// asserts the engine's exactness contract: per-query results AND
// per-query compdists must be bit-identical between the two.  The
// acceptance target is >= 1.3x MRQ/kNN QPS at batch >= 64.
//
// A third section, concurrent_mixed, measures the versioned MetricDB
// facade under a mixed workload: N reader threads issue batch MRQ
// queries through MetricDB::Query (each pinning an immutable version by
// a shared_ptr copy) while one writer thread churns remove/insert
// batches through MetricDB::Apply (shadow-copy clone + pointer swap).
// Reported per reader count: aggregate reader QPS, writer batches/s,
// and whether every read succeeded.  Like the thread sweep, the
// absolute numbers are hardware-dependent and warn-only downstream;
// the hard assertion is that no read ever fails mid-churn.
//
// A fourth section, sharded_service, measures the sharded service layer
// (src/service/sharded_service.h) at shard counts {1, 2, 4} with a
// fixed client count.  Per shard count it first pins the tentpole
// contract -- scatter/gather MRQ and MkNN results bit-identical to an
// unsharded MetricDB oracle holding the same data, before AND after a
// deterministic routed-update stream -- then runs a mixed read/write
// workload on separate client pools (writers send a fixed number of
// single-shard apply batches, readers send small batches until the
// writers finish) and reports each pool's rate over its own wall time:
// read QPS and apply batches/s.  The 4-shard vs 1-shard apply speedup
// is the headline number (target >= 1.5x: N shards = N writer streams);
// like every other speedup it is hardware-dependent and warn-only.  A
// final overload pass (1 worker, tiny queue, flooding clients) records
// the rejection rate and asserts every refusal is typed
// kResourceExhausted -- that typedness check, and the oracle
// equivalence, gate the exit status.
//
// A fifth section, chaos_recovery, measures the self-healing loop on a
// durable service behind a fault-injecting Env: reader QPS is sampled
// before a torn-write power-loss fault, during the resulting quarantine
// (reads ride the supervisor's pinned stale view), and after recovery,
// plus the wall-clock latency from healing the env to every shard
// writable again.  The QPS numbers are hardware-dependent and warn-only
// downstream; the hard (exit-gating) checks are that every read in all
// three phases succeeds, the service heals within the cap, and a
// post-recovery retried write commits.
//
// A sixth section, buffer_pool, measures the unified page cache on the
// disk indexes (CPT, SPB-tree): batch MRQ/kNN cold (clean frames
// dropped, every page faulted back through the pool) vs warm (fully
// resident), single-threaded on a pool sized to hold the whole page
// file.  The hard (exit-gating) checks are that warm answers are
// bit-identical to cold and that the warm passes do zero physical
// reads; the cold/warm speedup and the logical PA (which the pool must
// not change) are reported.  A last buffer_pool row runs one SPB-tree
// kNN batch at 1 and at 2 threads on one shared 128 KB pool and reports
// thread time per query and the 2-thread/1-thread ratio: the cost of
// pool-mutex contention between two readers.
//
// Emits one JSON document to stdout (progress chatter on stderr).  Its
// config records the host (bench/host_config.h), and every throughput
// and concurrent_mixed row carries "valid": false when it ran more
// threads than the host has:
//
//   ./bench_throughput --threads 8 | python3 -m json.tool
//
// Environment: PMI_TP_N (cardinality, default 20000), PMI_TP_QUERIES
// (batch size, default 200), PMI_TP_REPEATS (best-of, default 3),
// PMI_TP_THREADS (max thread count, default 4; --threads overrides),
// PMI_TP_BATCH_N (batch_blocking cardinality, default 60000 -- sized so
// the pivot table overflows L2 and the re-streaming cost is visible).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/metric_db.h"

#include "bench/host_config.h"
#include "src/core/counters.h"
#include "src/core/pivot_selection.h"
#include "src/core/rng.h"
#include "src/core/thread_pool.h"
#include "src/data/distribution.h"
#include "src/data/generators.h"
#include "src/harness/registry.h"
#include "src/harness/workload.h"
#include "src/tables/ept.h"
#include "src/tables/laesa.h"
#include "src/service/retry.h"
#include "src/service/sharded_service.h"
#include "src/storage/fault_env.h"

#include <unistd.h>

namespace pmi {
namespace {

struct JsonWriter {
  bool first = true;
  void Begin() { std::printf("{\n  \"results\": [\n"); }
  void Result(const std::string& name, const std::string& fields) {
    std::printf("%s    {\"name\": \"%s\", %s}", first ? "" : ",\n",
                name.c_str(), fields.c_str());
    first = false;
  }
  void End(const std::string& trailer) {
    std::printf("\n  ],\n%s\n}\n", trailer.c_str());
  }
};

std::string Num(const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6g", key, v);
  return buf;
}

void RemoveTree(const std::string& dir) {
  Env* env = Env::Default();
  StatusOr<std::vector<std::string>> names = env->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      const std::string path = JoinPath(dir, name);
      if (env->RemoveFile(path).ok()) continue;
      RemoveTree(path);
    }
  }
  ::rmdir(dir.c_str());
}

bool AllWritable(const ShardedService& svc) {
  for (const Status& s : svc.write_statuses()) {
    if (!s.ok()) return false;
  }
  return true;
}

/// Reference answers (built once at 1 thread) every other thread count
/// must reproduce exactly.
struct Reference {
  std::vector<std::vector<ObjectId>> mrq;  // sorted per query
  std::vector<std::vector<Neighbor>> knn;
  uint64_t build_compdists = 0;
  uint64_t mrq_compdists = 0;
  uint64_t knn_compdists = 0;
};

struct SweepPoint {
  unsigned threads = 1;
  double build_s = 0;
  double mrq_ms = 0;
  double knn_ms = 0;
  bool results_match = true;
  bool compdists_match = true;
};

template <typename MakeIndexFn>
SweepPoint RunAtThreads(MakeIndexFn&& make_index, const BenchDataset& bd,
                        const PivotSet& pivots,
                        const std::vector<ObjectView>& queries, double r,
                        uint32_t k, uint32_t repeats, unsigned threads,
                        Reference* ref) {
  ThreadPool::SetGlobalThreads(threads);
  SweepPoint p;
  p.threads = threads;

  auto index = make_index();
  OpStats build = index->Build(bd.data, *bd.metric, pivots);
  p.build_s = build.seconds;

  std::vector<std::vector<ObjectId>> mrq;
  std::vector<std::vector<Neighbor>> knn;
  OpStats mrq_stats = index->RangeQueryBatch(queries, r, &mrq);
  OpStats knn_stats = index->KnnQueryBatch(queries, k, &knn);
  for (auto& out : mrq) std::sort(out.begin(), out.end());

  if (ref->mrq.empty()) {  // first (1-thread) run defines the reference
    ref->mrq = mrq;
    ref->knn = knn;
    ref->build_compdists = build.dist_computations;
    ref->mrq_compdists = mrq_stats.dist_computations;
    ref->knn_compdists = knn_stats.dist_computations;
  } else {
    p.compdists_match = build.dist_computations == ref->build_compdists &&
                        mrq_stats.dist_computations == ref->mrq_compdists &&
                        knn_stats.dist_computations == ref->knn_compdists;
    p.results_match = mrq == ref->mrq && knn.size() == ref->knn.size();
    for (size_t i = 0; p.results_match && i < knn.size(); ++i) {
      p.results_match = knn[i].size() == ref->knn[i].size();
      for (size_t j = 0; p.results_match && j < knn[i].size(); ++j) {
        p.results_match = knn[i][j].id == ref->knn[i][j].id &&
                          knn[i][j].dist == ref->knn[i][j].dist;
      }
    }
  }

  // Timed passes: best-of to shed scheduler noise.
  std::vector<std::vector<ObjectId>> mrq_sink;
  std::vector<std::vector<Neighbor>> knn_sink;
  double best_mrq = 1e300, best_knn = 1e300;
  for (uint32_t rep = 0; rep < repeats; ++rep) {
    best_mrq = std::min(
        best_mrq, index->RangeQueryBatch(queries, r, &mrq_sink).seconds);
    best_knn = std::min(
        best_knn, index->KnnQueryBatch(queries, k, &knn_sink).seconds);
  }
  p.mrq_ms = best_mrq * 1e3;
  p.knn_ms = best_knn * 1e3;
  return p;
}

/// One batch_blocking measurement: single-query loop vs batch for one
/// (index, batch size) cell, single-threaded.
struct BlockingPoint {
  double mrq_qm_ms = 0, mrq_bm_ms = 0;  // single-query loop / batch
  double knn_qm_ms = 0, knn_bm_ms = 0;
  bool match = true;  // results + per-query compdists identical
};

bool SameResults(const std::vector<std::vector<ObjectId>>& a,
                 const std::vector<std::vector<ObjectId>>& b) {
  return a == b;
}

bool SameResults(const std::vector<std::vector<Neighbor>>& a,
                 const std::vector<std::vector<Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id || a[i][j].dist != b[i][j].dist) {
        return false;
      }
    }
  }
  return true;
}

bool SamePerQuery(const std::vector<OpStats>& a,
                  const std::vector<OpStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dist_computations != b[i].dist_computations ||
        a[i].page_reads != b[i].page_reads ||
        a[i].page_writes != b[i].page_writes) {
      return false;
    }
  }
  return true;
}

/// The query-major reference: one RangeQuery call per query (the
/// RangeImpl calls a batch's query-major loop makes).  Returns the
/// loop's wall time in seconds.
double RangeQueryLoop(const MetricIndex& index,
                      const std::vector<ObjectView>& queries, double r,
                      std::vector<std::vector<ObjectId>>* out,
                      std::vector<OpStats>* per_query) {
  out->assign(queries.size(), {});
  per_query->clear();
  Stopwatch watch;
  for (size_t i = 0; i < queries.size(); ++i) {
    per_query->push_back(index.RangeQuery(queries[i], r, &(*out)[i]));
  }
  return watch.Seconds();
}

/// The MkNNQ counterpart of RangeQueryLoop.
double KnnQueryLoop(const MetricIndex& index,
                    const std::vector<ObjectView>& queries, size_t k,
                    std::vector<std::vector<Neighbor>>* out,
                    std::vector<OpStats>* per_query) {
  out->assign(queries.size(), {});
  per_query->clear();
  Stopwatch watch;
  for (size_t i = 0; i < queries.size(); ++i) {
    per_query->push_back(index.KnnQuery(queries[i], k, &(*out)[i]));
  }
  return watch.Seconds();
}

BlockingPoint RunBlockingPoint(MetricIndex* index,
                               const std::vector<ObjectView>& queries,
                               double r, uint32_t k, uint32_t repeats) {
  BlockingPoint p;
  const std::vector<double> radii(queries.size(), r);
  const std::vector<size_t> ks(queries.size(), k);

  // Equivalence first: the batch and the loop must agree on results and
  // per-query compdists before their timings mean anything.  The table
  // indexes measured here hold no state a query touches, so both run on
  // the one instance.
  std::vector<std::vector<ObjectId>> mrq_qm, mrq_bm;
  std::vector<std::vector<Neighbor>> knn_qm, knn_bm;
  std::vector<OpStats> pq_qm, pq_bm;
  RangeQueryLoop(*index, queries, r, &mrq_qm, &pq_qm);
  index->RangeQueryBatch(queries, radii, &mrq_bm, &pq_bm);
  p.match = SameResults(mrq_qm, mrq_bm) && SamePerQuery(pq_qm, pq_bm);
  KnnQueryLoop(*index, queries, k, &knn_qm, &pq_qm);
  index->KnnQueryBatch(queries, ks, &knn_bm, &pq_bm);
  p.match = p.match && SameResults(knn_qm, knn_bm) && SamePerQuery(pq_qm, pq_bm);

  double best_mrq_qm = 1e300, best_mrq_bm = 1e300;
  double best_knn_qm = 1e300, best_knn_bm = 1e300;
  for (uint32_t rep = 0; rep < repeats; ++rep) {
    // Alternate which side of each pair runs first: a small batch finds
    // the rows its predecessor touched still in cache, and best-of
    // should give both sides that chance.
    for (bool loop : {rep % 2 == 0, rep % 2 != 0}) {
      if (loop) {
        best_mrq_qm = std::min(
            best_mrq_qm, RangeQueryLoop(*index, queries, r, &mrq_qm, &pq_qm));
      } else {
        best_mrq_bm = std::min(
            best_mrq_bm,
            index->RangeQueryBatch(queries, radii, &mrq_bm).seconds);
      }
    }
    for (bool loop : {rep % 2 == 0, rep % 2 != 0}) {
      if (loop) {
        best_knn_qm = std::min(
            best_knn_qm, KnnQueryLoop(*index, queries, k, &knn_qm, &pq_qm));
      } else {
        best_knn_bm = std::min(
            best_knn_bm, index->KnnQueryBatch(queries, ks, &knn_bm).seconds);
      }
    }
  }
  p.mrq_qm_ms = best_mrq_qm * 1e3;
  p.mrq_bm_ms = best_mrq_bm * 1e3;
  p.knn_qm_ms = best_knn_qm * 1e3;
  p.knn_bm_ms = best_knn_bm * 1e3;
  return p;
}

}  // namespace
}  // namespace pmi

int main(int argc, char** argv) {
  using namespace pmi;
  const uint32_t n = std::max(EnvU32("PMI_TP_N", 20000), 512u);
  const uint32_t num_queries = std::max(EnvU32("PMI_TP_QUERIES", 200), 1u);
  const uint32_t repeats = std::max(EnvU32("PMI_TP_REPEATS", 3), 1u);
  const uint32_t k = 10;
  // Same [1, 1024] bound as --threads below: an oversized env value must
  // not drive SetGlobalThreads into exhausting OS threads.
  unsigned max_threads = std::min(EnvU32("PMI_TP_THREADS", 4), 1024u);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      // Same strict parse as the env knobs: whole-string, in range, warn
      // on garbage instead of silently running at a different width.
      const char* v = argv[i + 1];
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(v, &end, 10);
      if (end != v && *end == '\0' && parsed >= 1 && parsed <= 1024) {
        max_threads = static_cast<unsigned>(parsed);
      } else {
        std::fprintf(stderr,
                     "bench_throughput: ignoring --threads '%s' (want an "
                     "integer in [1, 1024]); using %u\n",
                     v, max_threads);
      }
      ++i;
    }
  }
  std::vector<unsigned> sweep;
  for (unsigned t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);

  std::fprintf(stderr,
               "bench_throughput: n=%u queries=%u repeats=%u max_threads=%u "
               "(hardware: %u)\n",
               n, num_queries, repeats, max_threads, HardwareThreads());

  // The acceptance workload: 20-d synthetic integers under L-infinity.
  ThreadPool::SetGlobalThreads(1);  // workload setup is thread-invariant,
                                    // but keep the baseline honest
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, n, 7);
  PivotSelectionOptions po;
  po.sample_size = std::min<uint32_t>(n, 1000);
  po.pair_sample = 400;
  PivotSet pivots = SelectSharedPivots(bd.data, *bd.metric, 5, po);
  DistanceDistribution distribution =
      EstimateDistribution(bd.data, *bd.metric, 4000, 3);
  const double r = distribution.RadiusForSelectivity(0.01);

  Rng rng(99);
  std::vector<uint32_t> qids = SampleDistinct(n, num_queries, rng);
  std::vector<ObjectView> queries;
  queries.reserve(qids.size());
  for (uint32_t q : qids) queries.push_back(bd.data.view(q));

  struct IndexCase {
    const char* name;
    std::function<std::unique_ptr<MetricIndex>()> make;
  };
  const std::vector<IndexCase> cases = {
      {"LAESA", [] { return std::make_unique<Laesa>(); }},
      {"EPT*", [] { return std::make_unique<Ept>(Ept::Variant::kStar); }},
  };

  JsonWriter json;
  json.Begin();
  bool results_match = true, compdists_match = true;
  // Best batch-query speedup at the tracked point: 4 threads when the
  // sweep reaches it (the acceptance metric), else the sweep maximum --
  // never a misleading 0 for "not measured".
  const unsigned tracked_threads = max_threads >= 4 ? 4u : max_threads;
  double tracked_speedup = max_threads == 1 ? 1.0 : 0.0;

  for (const IndexCase& c : cases) {
    Reference ref;
    double base_build_s = 0, base_mrq_ms = 0, base_knn_ms = 0;
    for (unsigned t : sweep) {
      SweepPoint p = RunAtThreads(c.make, bd, pivots, queries, r, k, repeats,
                                  t, &ref);
      results_match &= p.results_match;
      compdists_match &= p.compdists_match;
      if (t == 1) {
        base_build_s = p.build_s;
        base_mrq_ms = p.mrq_ms;
        base_knn_ms = p.knn_ms;
      }
      const double mrq_speedup = p.mrq_ms > 0 ? base_mrq_ms / p.mrq_ms : 0;
      const double knn_speedup = p.knn_ms > 0 ? base_knn_ms / p.knn_ms : 0;
      if (t == tracked_threads) {
        tracked_speedup = std::max({tracked_speedup, mrq_speedup, knn_speedup});
      }
      char extra[512];
      std::snprintf(
          extra, sizeof(extra),
          "\"index\": \"%s\", \"threads\": %u, %s, %s, %s, %s, %s, %s, %s, "
          "%s, %s",
          c.name, t, Num("build_s", p.build_s).c_str(),
          Num("build_speedup", p.build_s > 0 ? base_build_s / p.build_s : 0)
              .c_str(),
          Num("mrq_ms", p.mrq_ms).c_str(),
          Num("mrq_qps", p.mrq_ms > 0 ? num_queries / (p.mrq_ms / 1e3) : 0)
              .c_str(),
          Num("mrq_speedup", mrq_speedup).c_str(),
          Num("knn_ms", p.knn_ms).c_str(),
          Num("knn_qps", p.knn_ms > 0 ? num_queries / (p.knn_ms / 1e3) : 0)
              .c_str(),
          Num("knn_speedup", knn_speedup).c_str(), ValidJson(t).c_str());
      json.Result("throughput", extra);
      std::fprintf(stderr,
                   "  %-6s %u threads: build %.3fs, MRQ %.1f ms (%.2fx), "
                   "kNN %.1f ms (%.2fx)\n",
                   c.name, t, p.build_s, p.mrq_ms, mrq_speedup, p.knn_ms,
                   knn_speedup);
    }
  }
  // ---- batch_blocking: single-query loop vs batch --------------------------
  // Single-threaded on its own, larger dataset: the pivot table must
  // overflow the cache hierarchy levels that a per-query re-stream can
  // hide in before the block-major win is measurable.
  ThreadPool::SetGlobalThreads(1);
  const uint32_t batch_n = std::max(EnvU32("PMI_TP_BATCH_N", 60000), 512u);
  std::fprintf(stderr, "batch_blocking: n=%u (single-threaded)\n", batch_n);
  BenchDataset bbd = MakeBenchDataset(BenchDatasetId::kSynthetic, batch_n, 7);
  PivotSelectionOptions bpo;
  bpo.sample_size = std::min<uint32_t>(batch_n, 1000);
  bpo.pair_sample = 400;
  PivotSet bpivots = SelectSharedPivots(bbd.data, *bbd.metric, 5, bpo);
  DistanceDistribution bdist =
      EstimateDistribution(bbd.data, *bbd.metric, 4000, 3);
  const double br = bdist.RadiusForSelectivity(0.01);
  Rng brng(1234);
  std::vector<uint32_t> bqids = SampleDistinct(batch_n, 256, brng);
  std::vector<ObjectView> bqueries;
  bqueries.reserve(bqids.size());
  for (uint32_t q : bqids) bqueries.push_back(bbd.data.view(q));

  bool blocking_match = true;
  // Per index: best speedup observed at batch >= 64 (the acceptance
  // point); the summary reports the minimum across indexes, i.e. "every
  // index reaches at least this".
  double blocking_speedup = 1e300;
  for (const IndexCase& c : cases) {
    auto index = c.make();
    index->Build(bbd.data, *bbd.metric, bpivots);
    double best64 = 0;
    for (uint32_t batch : {1u, 8u, 64u, 256u}) {
      const std::vector<ObjectView> sub(bqueries.begin(),
                                        bqueries.begin() + batch);
      BlockingPoint p = RunBlockingPoint(index.get(), sub, br, k, repeats);
      blocking_match &= p.match;
      const double mrq_speedup =
          p.mrq_bm_ms > 0 ? p.mrq_qm_ms / p.mrq_bm_ms : 0;
      const double knn_speedup =
          p.knn_bm_ms > 0 ? p.knn_qm_ms / p.knn_bm_ms : 0;
      if (batch >= 64) {
        best64 = std::max({best64, mrq_speedup, knn_speedup});
      }
      char extra[768];
      std::snprintf(
          extra, sizeof(extra),
          "\"index\": \"%s\", \"batch\": %u, %s, %s, %s, %s, %s, %s, %s, %s, "
          "%s, %s",
          c.name, batch, Num("mrq_qm_ms", p.mrq_qm_ms).c_str(),
          Num("mrq_bm_ms", p.mrq_bm_ms).c_str(),
          Num("mrq_bm_qps",
              p.mrq_bm_ms > 0 ? batch / (p.mrq_bm_ms / 1e3) : 0)
              .c_str(),
          Num("mrq_speedup", mrq_speedup).c_str(),
          Num("knn_qm_ms", p.knn_qm_ms).c_str(),
          Num("knn_bm_ms", p.knn_bm_ms).c_str(),
          Num("knn_bm_qps",
              p.knn_bm_ms > 0 ? batch / (p.knn_bm_ms / 1e3) : 0)
              .c_str(),
          Num("knn_speedup", knn_speedup).c_str(),
          Num("n", batch_n).c_str(),
          p.match ? "\"match\": true" : "\"match\": false");
      json.Result("batch_blocking", extra);
      std::fprintf(stderr,
                   "  %-6s batch %3u: MRQ %8.2f -> %8.2f ms (%.2fx), "
                   "kNN %8.2f -> %8.2f ms (%.2fx)%s\n",
                   c.name, batch, p.mrq_qm_ms, p.mrq_bm_ms, mrq_speedup,
                   p.knn_qm_ms, p.knn_bm_ms, knn_speedup,
                   p.match ? "" : "  MISMATCH");
    }
    blocking_speedup = std::min(blocking_speedup, best64);
  }
  ThreadPool::SetGlobalThreads(0);  // back to PMI_THREADS / hardware default

  // ---- concurrent_mixed: versioned readers vs. a churning writer ----
  // The facade path, not the raw engine: every reader batch pins a
  // version through MetricDB::Query while one writer applies
  // remove/insert batches.  Wall time covers the readers' fixed work;
  // the writer churns for the whole window and stops when they finish.
  const uint32_t mixed_rounds = std::max(EnvU32("PMI_TP_MIXED_ROUNDS", 20), 1u);
  const uint32_t mixed_batch = 64;
  std::fprintf(stderr, "concurrent_mixed: n=%u rounds=%u batch=%u\n", n,
               mixed_rounds, mixed_batch);
  const std::vector<ObjectView> mixed_queries(
      queries.begin(),
      queries.begin() + std::min<size_t>(queries.size(), mixed_batch));
  bool concurrent_reads_ok = true;
  for (const IndexCase& c : cases) {
    for (unsigned readers : sweep) {
      auto db = MetricDB::Create(
          MetricDBConfig().WithMetric("Linf").WithIndex(c.name).WithPivots(5),
          bd.data);
      if (!db.ok()) {
        std::fprintf(stderr, "  %-6s: create failed: %s\n", c.name,
                     db.status().ToString().c_str());
        concurrent_reads_ok = false;
        continue;
      }
      std::atomic<bool> stop{false};
      std::atomic<bool> reads_ok{true};
      std::atomic<uint64_t> writer_batches{0};

      const auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> pool;
      pool.reserve(readers);
      for (unsigned t = 0; t < readers; ++t) {
        pool.emplace_back([&] {
          for (uint32_t round = 0; round < mixed_rounds; ++round) {
            auto res = db->Query(QueryRequest::RangeBatch(mixed_queries, r));
            if (!res.ok()) {
              reads_ok.store(false, std::memory_order_relaxed);
              return;
            }
          }
        });
      }
      std::thread writer([&] {
        // Deterministic toggle churn over a coprime stride; each batch
        // removes or re-inserts 8 objects, tracked in a local mirror.
        std::vector<bool> live(bd.data.size(), true);
        uint64_t step = 0;
        while (!stop.load(std::memory_order_acquire)) {
          std::vector<UpdateOp> ops;
          ops.reserve(8);
          for (int i = 0; i < 8; ++i) {
            const ObjectId id =
                static_cast<ObjectId>((++step * 7919) % bd.data.size());
            ops.push_back(live[id] ? UpdateOp::Remove(id)
                                   : UpdateOp::Insert(id));
            live[id] = !live[id];
          }
          if (!db->Apply(ops).ok()) return;  // never expected in-memory
          writer_batches.fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::thread& t : pool) t.join();
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      stop.store(true, std::memory_order_release);
      writer.join();

      concurrent_reads_ok &= reads_ok.load();
      const uint64_t total_queries =
          uint64_t{readers} * mixed_rounds * mixed_queries.size();
      const double reader_qps = wall_s > 0 ? total_queries / wall_s : 0;
      const double writer_bps =
          wall_s > 0 ? writer_batches.load() / wall_s : 0;
      char extra[512];
      std::snprintf(extra, sizeof(extra),
                    "\"index\": \"%s\", \"threads\": %u, %s, %s, %s, %s, %s",
                    c.name, readers, Num("reader_qps", reader_qps).c_str(),
                    Num("writer_batches_per_sec", writer_bps).c_str(),
                    Num("wall_ms", wall_s * 1e3).c_str(),
                    reads_ok.load() ? "\"reads_ok\": true"
                                    : "\"reads_ok\": false",
                    ValidJson(readers).c_str());
      json.Result("concurrent_mixed", extra);
      std::fprintf(stderr,
                   "  %-6s %u readers: %.0f reads/s, %.0f write batches/s "
                   "(%.0f ms)%s\n",
                   c.name, readers, reader_qps, writer_bps, wall_s * 1e3,
                   reads_ok.load() ? "" : "  READ FAILED");
    }
  }

  // ---- sharded_service: scatter/gather + admission over N shards ----------
  // Fixed client count across shard counts {1, 2, 4}: the only variable
  // is how many independent writer streams the service has.  Before any
  // timing, each shard count must answer bit-identically to an
  // unsharded oracle -- fresh AND after a deterministic routed-update
  // stream -- which is the section's hard (exit-gating) check.
  const uint32_t svc_clients = std::max(EnvU32("PMI_TP_SVC_CLIENTS", 4), 1u);
  const uint32_t svc_rounds = std::max(EnvU32("PMI_TP_SVC_ROUNDS", 40), 1u);
  std::fprintf(stderr, "sharded_service: n=%u clients=%u rounds=%u\n", n,
               svc_clients, svc_rounds);
  const MetricDBConfig svc_cfg =
      MetricDBConfig().WithMetric("Linf").WithIndex("LAESA").WithPivots(5);

  // Deterministic toggle stream (global ids -- the service rewrites to
  // shard-local internally) and the liveness it leaves behind, replayed
  // identically into the oracle and every service instance.
  std::vector<std::vector<UpdateOp>> toggle_stream;
  std::vector<uint8_t> post_live(n, 1);
  {
    uint64_t step = 0;
    for (int b = 0; b < 24; ++b) {
      std::vector<UpdateOp> ops;
      for (int i = 0; i < 8; ++i) {
        const ObjectId id = static_cast<ObjectId>((++step * 7919) % n);
        ops.push_back(post_live[id] != 0 ? UpdateOp::Remove(id)
                                         : UpdateOp::Insert(id));
        post_live[id] ^= 1;
      }
      toggle_stream.push_back(std::move(ops));
    }
  }

  auto same_as_oracle = [&](MetricDB& oracle, ShardedService& svc) -> bool {
    auto omrq = oracle.Query(QueryRequest::RangeBatch(queries, r));
    auto smrq = svc.Query(QueryRequest::RangeBatch(queries, r));
    auto oknn = oracle.Query(QueryRequest::KnnBatch(queries, size_t{k}));
    auto sknn = svc.Query(QueryRequest::KnnBatch(queries, size_t{k}));
    if (!omrq.ok() || !smrq.ok() || !oknn.ok() || !sknn.ok()) return false;
    if (smrq->ids.size() != queries.size()) return false;
    for (size_t q = 0; q < queries.size(); ++q) {
      std::vector<ObjectId> want = omrq->ids[q];  // service output is sorted
      std::sort(want.begin(), want.end());
      if (smrq->ids[q] != want) return false;
    }
    return SameResults(oknn->neighbors, sknn->neighbors);
  };

  bool sharded_equiv_match = true;
  bool sharded_mixed_ok = true;
  double apply_bps_at_1 = 0, apply_bps_at_4 = 0;
  for (uint32_t num_shards : {1u, 2u, 4u}) {
    auto oracle_or = MetricDB::Create(svc_cfg, bd.data);
    ServiceOptions sopts;
    sopts.num_shards = num_shards;
    sopts.workers = svc_clients;
    sopts.max_queue = 64;
    auto svc_or = ShardedService::Create(svc_cfg, bd.data, sopts);
    if (!oracle_or.ok() || !svc_or.ok()) {
      std::fprintf(stderr, "  %u shards: create failed: %s\n", num_shards,
                   (oracle_or.ok() ? svc_or.status() : oracle_or.status())
                       .ToString()
                       .c_str());
      sharded_equiv_match = false;
      continue;
    }
    MetricDB& oracle = *oracle_or;
    ShardedService& svc = **svc_or;

    bool equiv = same_as_oracle(oracle, svc);  // fresh
    for (const std::vector<UpdateOp>& batch : toggle_stream) {
      if (!oracle.Apply(batch).ok()) equiv = false;
      auto applied = svc.Apply(batch);
      if (!applied.ok() || !applied->all_ok()) equiv = false;
    }
    equiv = equiv && same_as_oracle(oracle, svc);  // after routed updates
    sharded_equiv_match &= equiv;

    // Mixed workload on separate client pools, so the two rates are
    // measured independently.  Writers each send a fixed number of
    // single-shard apply batches (one hot entity group per batch) over a
    // disjoint slice of every shard, so N shards really are N
    // independent writer streams with zero cross-client conflicts.
    // Readers send light read batches until the writers are done.  Each
    // pool's rate is its own work over its own wall time.
    std::atomic<uint64_t> svc_queries_done{0};
    std::atomic<uint64_t> svc_applies_done{0};
    std::atomic<bool> mixed_ok{true};
    std::atomic<uint32_t> writers_left{svc_clients};
    double writer_wall_s = 0;  // set by the last writer to finish
    const auto svc_start = std::chrono::steady_clock::now();
    auto elapsed_s = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           svc_start)
          .count();
    };
    std::vector<std::thread> clients;
    clients.reserve(2 * svc_clients);
    for (uint32_t c = 0; c < svc_clients; ++c) {
      clients.emplace_back([&, c] {
        // At least one round, so every reader contributes a sample.
        uint32_t round = c;
        do {
          std::vector<ObjectView> qs;
          for (int i = 0; i < 2; ++i) {
            qs.push_back(queries[(uint64_t{round} * 2 + i) % queries.size()]);
          }
          StatusOr<QueryResult> res =
              (round % 2 == 0)
                  ? svc.Query(QueryRequest::RangeBatch(qs, r))
                  : svc.Query(QueryRequest::KnnBatch(qs, size_t{k}));
          if (res.ok()) {
            svc_queries_done.fetch_add(qs.size(), std::memory_order_relaxed);
          } else {
            mixed_ok.store(false, std::memory_order_relaxed);
          }
          ++round;
        } while (writers_left.load(std::memory_order_acquire) > 0);
      });
      clients.emplace_back([&, c] {
        // This writer's slice of each shard: members at positions
        // c, c + clients, ... -- disjoint across writers by construction.
        struct Stripe {
          std::vector<ObjectId> ids;
          std::vector<uint8_t> live;
        };
        Rng rng(0xbe7c + c);
        std::vector<Stripe> stripes(num_shards);
        for (uint32_t s = 0; s < num_shards; ++s) {
          const std::vector<ObjectId>& members = svc.router().members(s);
          for (size_t p = c; p < members.size(); p += svc_clients) {
            stripes[s].ids.push_back(members[p]);
            stripes[s].live.push_back(post_live[members[p]]);
          }
        }
        for (uint32_t round = 0; round < svc_rounds; ++round) {
          for (int a = 0; a < 2; ++a) {
            Stripe& st = stripes[(c + round + a) % num_shards];
            if (st.ids.empty()) continue;
            // Big batches amortize the per-request admission round trip
            // (which is shard-count independent) so the measured rate
            // tracks the writer-side work -- clone + per-op apply --
            // which scales with the owning shard's size, not the
            // service's.
            std::vector<UpdateOp> ops;
            ops.reserve(384);
            for (int i = 0; i < 384; ++i) {
              const size_t slot = rng() % st.ids.size();
              ops.push_back(st.live[slot] != 0
                                ? UpdateOp::Remove(st.ids[slot])
                                : UpdateOp::Insert(st.ids[slot]));
              st.live[slot] ^= 1;
            }
            auto applied = svc.Apply(ops);
            if (applied.ok() && applied->all_ok()) {
              svc_applies_done.fetch_add(1, std::memory_order_relaxed);
            } else {
              mixed_ok.store(false, std::memory_order_relaxed);
            }
          }
        }
        if (writers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          writer_wall_s = elapsed_s();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    // Readers stop only after the last writer, so the join marks them.
    const double reader_wall_s = elapsed_s();
    sharded_mixed_ok &= mixed_ok.load();
    const double read_qps =
        reader_wall_s > 0 ? svc_queries_done.load() / reader_wall_s : 0;
    const double apply_bps =
        writer_wall_s > 0 ? svc_applies_done.load() / writer_wall_s : 0;
    if (num_shards == 1) apply_bps_at_1 = apply_bps;
    if (num_shards == 4) apply_bps_at_4 = apply_bps;
    const ShardedService::ServiceStats sstats = svc.stats();

    char extra[512];
    std::snprintf(
        extra, sizeof(extra),
        "\"shards\": %u, \"reader_clients\": %u, \"writer_clients\": %u, "
        "%s, %s, %s, %s, %s, %s, %s",
        num_shards, svc_clients, svc_clients, Num("read_qps", read_qps).c_str(),
        Num("apply_batches_per_sec", apply_bps).c_str(),
        Num("reader_wall_ms", reader_wall_s * 1e3).c_str(),
        Num("writer_wall_ms", writer_wall_s * 1e3).c_str(),
        Num("peak_queue_depth", sstats.admission.peak_depth).c_str(),
        equiv ? "\"oracle_match\": true" : "\"oracle_match\": false",
        mixed_ok.load() ? "\"mixed_ok\": true" : "\"mixed_ok\": false");
    json.Result("sharded_service", extra);
    std::fprintf(stderr,
                 "  %u shards: %.0f reads/s, %.0f apply batches/s "
                 "(peak depth %u)%s\n",
                 num_shards, read_qps, apply_bps, sstats.admission.peak_depth,
                 equiv ? "" : "  ORACLE MISMATCH");
    Status closed = svc.Close();
    if (!closed.ok()) sharded_mixed_ok = false;
  }
  const double sharded_apply_speedup =
      apply_bps_at_1 > 0 ? apply_bps_at_4 / apply_bps_at_1 : 0;

  // Overload: one worker, a two-slot queue, and twice the clients
  // flooding heavy kNN batches.  Some requests MUST be refused, and
  // every refusal must be the typed backpressure signal.
  bool sharded_overload_typed = true;
  double sharded_rejection_rate = 0;
  {
    ServiceOptions oopts;
    oopts.num_shards = 2;
    oopts.workers = 1;
    oopts.max_queue = 2;
    auto svc_or = ShardedService::Create(svc_cfg, bd.data, oopts);
    if (!svc_or.ok()) {
      std::fprintf(stderr, "  overload: create failed: %s\n",
                   svc_or.status().ToString().c_str());
      sharded_overload_typed = false;
    } else {
      ShardedService& svc = **svc_or;
      const std::vector<ObjectView> heavy(
          queries.begin(),
          queries.begin() + std::min<size_t>(queries.size(), 64));
      std::atomic<uint64_t> served{0}, refused{0}, untyped{0};
      const uint32_t flooders = std::max(2 * svc_clients, 8u);
      const uint32_t flood_rounds = 25;
      std::vector<std::thread> pool;
      pool.reserve(flooders);
      for (uint32_t c = 0; c < flooders; ++c) {
        pool.emplace_back([&] {
          for (uint32_t i = 0; i < flood_rounds; ++i) {
            auto res = svc.Query(QueryRequest::KnnBatch(heavy, size_t{16}));
            if (res.ok()) {
              served.fetch_add(1, std::memory_order_relaxed);
            } else if (res.status().code() == StatusCode::kResourceExhausted) {
              refused.fetch_add(1, std::memory_order_relaxed);
            } else {
              untyped.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
      for (std::thread& t : pool) t.join();
      const uint64_t issued = served.load() + refused.load() + untyped.load();
      sharded_overload_typed = untyped.load() == 0 && refused.load() > 0;
      sharded_rejection_rate = issued > 0 ? double(refused.load()) / issued : 0;
      char extra[512];
      std::snprintf(extra, sizeof(extra),
                    "\"shards\": %u, \"clients\": %u, \"workers\": 1, "
                    "\"queue\": 2, %s, %s, %s, %s",
                    oopts.num_shards, flooders,
                    Num("served", double(served.load())).c_str(),
                    Num("rejected", double(refused.load())).c_str(),
                    Num("rejection_rate", sharded_rejection_rate).c_str(),
                    sharded_overload_typed ? "\"all_failures_typed\": true"
                                           : "\"all_failures_typed\": false");
      json.Result("sharded_service_overload", extra);
      std::fprintf(stderr,
                   "  overload: %" PRIu64 " served, %" PRIu64
                   " rejected (%.0f%%), %" PRIu64 " untyped\n",
                   served.load(), refused.load(),
                   100.0 * sharded_rejection_rate, untyped.load());
      if (!svc.Close().ok()) sharded_overload_typed = false;
    }
  }

  // ---- chaos_recovery: reader QPS around an injected write fault ----------
  // Durable 3-shard service behind a FaultInjectingEnv.  One reader
  // samples retried query QPS in three phases -- healthy, quarantined
  // (torn-write power loss downed the env; reads ride the pinned stale
  // view), and recovered -- and the time from healing the env to every
  // shard writable again is the headline recovery_ms.
  bool chaos_reads_ok = true;
  bool chaos_healed = false;
  bool chaos_writes_ok = false;
  double chaos_recovery_ms = 0;
  {
    const uint32_t chaos_batches =
        std::max(EnvU32("PMI_TP_CHAOS_BATCHES", 30), 1u);
    const uint64_t chaos_seed = EnvU32("PMI_FAULT_SEED", 20260809);
    const std::vector<ObjectView> cqueries(
        queries.begin(),
        queries.begin() + std::min<size_t>(queries.size(), 32));
    std::fprintf(stderr, "chaos_recovery: n=%u batches/phase=%u seed=%llu\n",
                 n, chaos_batches,
                 static_cast<unsigned long long>(chaos_seed));

    const std::string dir =
        "/tmp/pmi_bench_chaos_" + std::to_string(::getpid());
    RemoveTree(dir);
    FaultInjectingEnv fenv(Env::Default());
    DurabilityOptions dopts;
    dopts.env = &fenv;
    ServiceOptions sopts;
    sopts.num_shards = 3;
    sopts.workers = svc_clients;
    sopts.max_queue = 64;
    sopts.self_heal = true;
    sopts.supervisor.poll_interval_ms = 1;
    sopts.supervisor.initial_backoff_ms = 1;
    sopts.supervisor.max_backoff_ms = 16;
    // The outage is held open for the whole "during" phase; the breaker
    // must not pin the shard mid-measurement, so attempts are
    // effectively unbounded (the 30 s heal cap below bounds the run).
    sopts.supervisor.max_recovery_attempts = 1u << 20;
    sopts.supervisor.seed = chaos_seed;

    auto svc_or =
        ShardedService::CreateDurable(svc_cfg, bd.data, dir, sopts, dopts);
    if (!svc_or.ok()) {
      std::fprintf(stderr, "  chaos: create failed: %s\n",
                   svc_or.status().ToString().c_str());
      chaos_reads_ok = false;
    } else {
      ShardedService& svc = **svc_or;
      RetryPolicy rp;
      rp.max_attempts = 8;
      rp.budget_ms = 4000;
      rp.seed = chaos_seed;

      auto measure_qps = [&](const char* phase) -> double {
        const auto t0 = std::chrono::steady_clock::now();
        uint64_t served = 0;
        for (uint32_t b = 0; b < chaos_batches; ++b) {
          auto res =
              QueryWithRetry(svc, QueryRequest::RangeBatch(cqueries, r), rp);
          if (res.ok()) {
            served += cqueries.size();
          } else {
            chaos_reads_ok = false;
            std::fprintf(stderr, "  chaos %s read failed: %s\n", phase,
                         res.status().ToString().c_str());
          }
        }
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        return s > 0 ? served / s : 0;
      };

      const double qps_before = measure_qps("before");

      // Torn write + power loss a few mutations out; small unretried
      // toggle applies walk the WAL into it.  The env stays down through
      // the "during" phase so the supervisor's recovery attempts keep
      // failing and reads really are served off the pinned view.
      fenv.Arm({FaultKind::kTornWrite, fenv.mutation_count() + 3, chaos_seed});
      std::vector<uint8_t> clive(n, 1);
      for (uint32_t i = 0; i < 1000 && !fenv.triggered(); ++i) {
        const ObjectId id = static_cast<ObjectId>((i * 7919u + 13u) % n);
        (void)svc.Apply({clive[id] != 0 ? UpdateOp::Remove(id)
                                        : UpdateOp::Insert(id)});
        clive[id] ^= 1;
      }
      const bool fault_fired = fenv.triggered();
      if (!fault_fired) {
        std::fprintf(stderr, "  chaos: fault never triggered\n");
        chaos_reads_ok = false;
      }

      const double qps_during = fault_fired ? measure_qps("during") : 0;

      fenv.Arm({FaultKind::kNone, 0, 1});  // heal the env
      const auto t_heal = std::chrono::steady_clock::now();
      while (fault_fired && !AllWritable(svc)) {
        const double waited = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t_heal)
                                  .count();
        if (waited > 30.0) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      chaos_healed = fault_fired && AllWritable(svc);
      chaos_recovery_ms = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t_heal)
                              .count() *
                          1e3;

      // A retried write must commit post-recovery (the durable path is
      // genuinely writable again, not just reporting OK).
      {
        std::vector<UpdateOp> ops;
        for (uint32_t i = 0; i < 8; ++i) {
          const ObjectId id = static_cast<ObjectId>((i * 104729u + 7u) % n);
          ops.push_back(clive[id] != 0 ? UpdateOp::Remove(id)
                                       : UpdateOp::Insert(id));
          clive[id] ^= 1;
        }
        auto applied = ApplyWithRetry(svc, ops, rp);
        chaos_writes_ok = applied.ok() && applied->all_ok();
        if (!chaos_writes_ok) {
          std::fprintf(stderr, "  chaos: post-recovery write failed: %s\n",
                       applied.ok()
                           ? applied->Collapse().ToString().c_str()
                           : applied.status().ToString().c_str());
        }
      }

      const double qps_after = chaos_healed ? measure_qps("after") : 0;
      const ShardSupervisor::Stats sup =
          svc.supervisor() ? svc.supervisor()->stats()
                           : ShardSupervisor::Stats{};

      char extra[640];
      std::snprintf(
          extra, sizeof(extra),
          "\"shards\": %u, \"clients\": 1, %s, %s, %s, %s, %s, %s, %s, %s, %s",
          sopts.num_shards, Num("recovery_ms", chaos_recovery_ms).c_str(),
          Num("read_qps_before", qps_before).c_str(),
          Num("read_qps_during", qps_during).c_str(),
          Num("read_qps_after", qps_after).c_str(),
          Num("faults_detected", double(sup.faults_detected)).c_str(),
          Num("recoveries", double(sup.recoveries)).c_str(),
          chaos_reads_ok ? "\"reads_ok\": true" : "\"reads_ok\": false",
          chaos_healed ? "\"healed\": true" : "\"healed\": false",
          chaos_writes_ok ? "\"write_ok\": true" : "\"write_ok\": false");
      json.Result("chaos_recovery", extra);
      std::fprintf(stderr,
                   "  chaos: recovery %.1f ms, reads %.0f -> %.0f -> %.0f "
                   "qps, %" PRIu64 " faults, %" PRIu64 " recoveries%s\n",
                   chaos_recovery_ms, qps_before, qps_during, qps_after,
                   sup.faults_detected, sup.recoveries,
                   chaos_healed ? "" : "  NOT HEALED");
      if (!svc.Close().ok()) chaos_writes_ok = false;
    }
    RemoveTree(dir);
  }

  // ---- buffer_pool: cold vs warm through the unified page cache -----------
  // Disk indexes on one pool big enough to hold every page: the cold
  // pass drops all clean frames first and faults the working set back
  // in; the warm passes must run entirely from residency.  Answers are
  // compared cold vs warm, and the warm physical-read count is the
  // section's hard zero.
  ThreadPool::SetGlobalThreads(1);
  bool pool_match = true;
  bool pool_warm_zero_reads = true;
  std::fprintf(stderr, "buffer_pool: n=%u queries=%u (single-threaded)\n", n,
               num_queries);
  for (const char* pool_index : {"CPT", "SPB-tree"}) {
    IndexOptions popts;
    popts.buffer_pool =
        std::make_shared<BufferPool>(popts.page_size, size_t{1} << 26);
    auto index = MakeIndex(pool_index, popts);
    if (index == nullptr) {
      std::fprintf(stderr, "  %-8s: not in registry\n", pool_index);
      pool_match = false;
      continue;
    }
    index->Build(bd.data, *bd.metric, pivots);

    std::vector<std::vector<ObjectId>> mrq_cold, mrq_warm, mrq_sink;
    std::vector<std::vector<Neighbor>> knn_cold, knn_warm, knn_sink;
    // One untimed priming pass drives the logical LRU simulation to its
    // steady state (its end-of-batch state depends only on the access
    // tail), so every later pass -- cold or warm -- replays identical
    // logical PA and the comparison below is exact.
    index->RangeQueryBatch(queries, r, &mrq_sink);
    index->KnnQueryBatch(queries, k, &knn_sink);
    OpStats cold_mrq, cold_knn;
    double best_cold_mrq = 1e300, best_cold_knn = 1e300;
    for (uint32_t rep = 0; rep < repeats; ++rep) {
      // Build/update write-back leaves frames clean, so this empties
      // the pool of this file's pages without touching the logical sim.
      popts.buffer_pool->DropCleanFrames();
      OpStats s = index->RangeQueryBatch(queries, r, &mrq_sink);
      popts.buffer_pool->DropCleanFrames();
      OpStats sk = index->KnnQueryBatch(queries, k, &knn_sink);
      if (rep == 0) {
        cold_mrq = s;
        cold_knn = sk;
        mrq_cold = mrq_sink;
        knn_cold = knn_sink;
        for (auto& out : mrq_cold) std::sort(out.begin(), out.end());
      }
      best_cold_mrq = std::min(best_cold_mrq, s.seconds);
      best_cold_knn = std::min(best_cold_knn, sk.seconds);
    }

    // The last cold kNN pass started by dropping the MRQ pass's frames,
    // so pages only MRQ touches are gone again: one untimed pass of each
    // makes the pool hold the whole working set before the warm passes.
    index->RangeQueryBatch(queries, r, &mrq_sink);
    index->KnnQueryBatch(queries, k, &knn_sink);
    OpStats warm_mrq, warm_knn;
    double best_warm_mrq = 1e300, best_warm_knn = 1e300;
    uint64_t warm_physical_reads = 0;
    for (uint32_t rep = 0; rep < repeats; ++rep) {
      OpStats s = index->RangeQueryBatch(queries, r, &mrq_sink);
      OpStats sk = index->KnnQueryBatch(queries, k, &knn_sink);
      if (rep == 0) {
        warm_mrq = s;
        warm_knn = sk;
        mrq_warm = mrq_sink;
        knn_warm = knn_sink;
        for (auto& out : mrq_warm) std::sort(out.begin(), out.end());
      }
      warm_physical_reads += s.physical_reads + sk.physical_reads;
      best_warm_mrq = std::min(best_warm_mrq, s.seconds);
      best_warm_knn = std::min(best_warm_knn, sk.seconds);
    }

    const bool match =
        SameResults(mrq_cold, mrq_warm) && SameResults(knn_cold, knn_warm) &&
        cold_mrq.page_accesses() == warm_mrq.page_accesses() &&
        cold_knn.page_accesses() == warm_knn.page_accesses();
    pool_match &= match;
    // The first cold pass must really have gone to the store, and a
    // fully warm pool must never go back.
    pool_warm_zero_reads &=
        cold_mrq.physical_reads > 0 && warm_physical_reads == 0;

    const double mrq_speedup =
        best_warm_mrq > 0 ? best_cold_mrq / best_warm_mrq : 0;
    const double knn_speedup =
        best_warm_knn > 0 ? best_cold_knn / best_warm_knn : 0;
    char extra[768];
    std::snprintf(
        extra, sizeof(extra),
        "\"index\": \"%s\", %s, %s, %s, %s, %s, %s, %s, %s, %s, %s, %s",
        pool_index, Num("mrq_cold_ms", best_cold_mrq * 1e3).c_str(),
        Num("mrq_warm_ms", best_warm_mrq * 1e3).c_str(),
        Num("mrq_warm_speedup", mrq_speedup).c_str(),
        Num("knn_cold_ms", best_cold_knn * 1e3).c_str(),
        Num("knn_warm_ms", best_warm_knn * 1e3).c_str(),
        Num("knn_warm_speedup", knn_speedup).c_str(),
        Num("cold_physical_reads", double(cold_mrq.physical_reads)).c_str(),
        Num("warm_physical_reads", double(warm_physical_reads)).c_str(),
        Num("logical_pa_mrq", double(warm_mrq.page_accesses())).c_str(),
        Num("logical_pa_knn", double(warm_knn.page_accesses())).c_str(),
        match ? "\"match\": true" : "\"match\": false");
    json.Result("buffer_pool", extra);
    std::fprintf(stderr,
                 "  %-8s MRQ %8.2f -> %8.2f ms (%.2fx warm), kNN %8.2f -> "
                 "%8.2f ms (%.2fx), warm phys reads %" PRIu64 "%s\n",
                 pool_index, best_cold_mrq * 1e3, best_warm_mrq * 1e3,
                 mrq_speedup, best_cold_knn * 1e3, best_warm_knn * 1e3,
                 knn_speedup, warm_physical_reads,
                 match ? "" : "  MISMATCH");
  }

  // ---- buffer_pool contention: 1 vs 2 threads on one 128 KB pool ----------
  // The same SPB-tree kNN batch at 1 and at 2 batch threads, every pin
  // of both through one pool of the paper's cache size.  Thread time per
  // query is wall time x threads / queries: with no contention it stays
  // flat, so the 2-thread/1-thread ratio measures what the pool mutex
  // costs two concurrent readers.
  {
    IndexOptions copts;
    copts.buffer_pool =
        std::make_shared<BufferPool>(copts.page_size, copts.cache_bytes);
    auto index = MakeIndex("SPB-tree", copts);
    index->Build(bd.data, *bd.metric, pivots);
    std::vector<std::vector<Neighbor>> knn_sink;
    double ms_per_query[2] = {0, 0};
    for (uint32_t threads = 1; threads <= 2; ++threads) {
      ThreadPool::SetGlobalThreads(threads);
      index->KnnQueryBatch(queries, k, &knn_sink);  // untimed warm-up
      double best = 1e300;
      for (uint32_t rep = 0; rep < repeats; ++rep) {
        best = std::min(best, index->KnnQueryBatch(queries, k, &knn_sink)
                                  .seconds);
      }
      ms_per_query[threads - 1] = best * 1e3 * threads / queries.size();
    }
    const double ratio =
        ms_per_query[0] > 0 ? ms_per_query[1] / ms_per_query[0] : 0;
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  "\"index\": \"SPB-tree\", \"pool_bytes\": %zu, %s, %s, %s, %s",
                  copts.cache_bytes,
                  Num("knn_ms_per_query_1t", ms_per_query[0]).c_str(),
                  Num("knn_ms_per_query_2t", ms_per_query[1]).c_str(),
                  Num("knn_contention_ratio_2t", ratio).c_str(),
                  ValidJson(2).c_str());
    json.Result("buffer_pool", extra);
    std::fprintf(stderr,
                 "  SPB-tree kNN on one %zu KB pool: %.4f ms/query at 1 "
                 "thread, %.4f at 2 (%.2fx)\n",
                 copts.cache_bytes / 1024, ms_per_query[0], ms_per_query[1],
                 ratio);
  }
  ThreadPool::SetGlobalThreads(0);

  char trailer[1536];
  std::snprintf(
      trailer, sizeof(trailer),
      "  \"config\": {\"dataset\": \"Synthetic\", \"dim\": 20, \"n\": %u, "
      "\"queries\": %u, \"repeats\": %u, \"max_threads\": %u, "
      "\"batch_blocking_n\": %u, %s},\n"
      "  \"checks\": {\"results_match\": %s, \"compdists_match\": %s, "
      "\"batch_speedup_threads\": %u, \"batch_speedup\": %.3f, "
      "\"batch_blocking_match\": %s, "
      "\"batch_blocking_min_speedup_batch64\": %.3f, "
      "\"concurrent_reads_ok\": %s, "
      "\"sharded_equiv_match\": %s, \"sharded_mixed_ok\": %s, "
      "\"sharded_apply_speedup_4v1\": %.3f, "
      "\"sharded_overload_typed\": %s, \"sharded_rejection_rate\": %.3f, "
      "\"chaos_reads_ok\": %s, \"chaos_healed\": %s, "
      "\"chaos_write_ok\": %s, \"chaos_recovery_ms\": %.3f, "
      "\"pool_match\": %s, \"pool_warm_zero_reads\": %s}",
      n, num_queries, repeats, max_threads, batch_n,
      HostConfigJson().c_str(),
      results_match ? "true" : "false", compdists_match ? "true" : "false",
      tracked_threads, tracked_speedup, blocking_match ? "true" : "false",
      blocking_speedup, concurrent_reads_ok ? "true" : "false",
      sharded_equiv_match ? "true" : "false",
      sharded_mixed_ok ? "true" : "false", sharded_apply_speedup,
      sharded_overload_typed ? "true" : "false", sharded_rejection_rate,
      chaos_reads_ok ? "true" : "false", chaos_healed ? "true" : "false",
      chaos_writes_ok ? "true" : "false", chaos_recovery_ms,
      pool_match ? "true" : "false", pool_warm_zero_reads ? "true" : "false");
  json.End(trailer);

  const bool ok = results_match && compdists_match && blocking_match &&
                  concurrent_reads_ok && sharded_equiv_match &&
                  sharded_mixed_ok && sharded_overload_typed &&
                  chaos_reads_ok && chaos_healed && chaos_writes_ok &&
                  pool_match && pool_warm_zero_reads;
  if (!ok) std::fprintf(stderr, "bench_throughput: EQUIVALENCE CHECK FAILED\n");
  return ok ? 0 : 1;
}
