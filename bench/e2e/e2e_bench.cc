// End-to-end benchmark of the sharded service (see bench/e2e/README.md).
//
// One process runs one workload.  It generates the workload's fixed
// dataset and query set, answers the query set with a LinearScan oracle,
// builds the service several times (setup_s is the median build),
// checks the service's answers against the oracle, then drives it from
// kClients closed-loop client threads -- each sends its next request only
// after the previous reply -- for a warm-up and a measured window.  A
// reader sends the whole fixed query set in every round, so each round
// holds the same mix of cheap and expensive requests.  Every latency is
// timed around the public call.  The last line of stdout is
// one JSON record; a wrong answer or an untyped error makes it say
// "correct": false and the exit code non-zero.
//
// --trace 1 is the traced run.  The shards are rebuilt as replicas from
// router().members(s) and config(), and the measured window is split into
// an untraced half and a traced half.  During the traced half client 0
// replays each request of the fixed query set layer by layer -- the real
// service.Query, ShardedService::ReadView::Query, then per shard the
// replica's MetricDB query, its ReadView pin and its index batch call,
// then MergeShardResults -- with one span around each call.  The spans
// are written to --spans at exit; trace_report.py reduces them to
// per-layer self times.  Nothing inside the library is instrumented.
//
// --seed drives only the load: the order in which each reader sends the
// query set in a round, and which ids the writer toggles.  The dataset
// and the query set are fixed per workload, so the check pass's
// compdists and page accesses are exact counts that repeat across runs.
//
// Usage (run.py builds the binary and passes these):
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//             [--spans FILE] [--commit SHA]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/counting_env.h"
#include "src/api/metric_db.h"
#include "src/core/rng.h"
#include "src/core/simd.h"
#include "src/core/thread_pool.h"
#include "src/data/distribution.h"
#include "src/data/generators.h"
#include "src/service/result_merger.h"
#include "src/service/sharded_service.h"
#include "src/storage/buffer_pool.h"

#ifndef PMI_E2E_COMPILER
#define PMI_E2E_COMPILER "unknown"
#endif
#ifndef PMI_E2E_BUILD_TYPE
#define PMI_E2E_BUILD_TYPE "unknown"
#endif

namespace pmi {
namespace {

using Clock = std::chrono::steady_clock;

// -- the load every workload runs under ---------------------------------------

// Two clients, not three: on a shared 4-core host a third client doubled
// the run-to-run range of read_qps (README.md "Load").
constexpr uint32_t kClients = 2;
constexpr uint32_t kShards = 4;
constexpr uint32_t kWorkers = 3;
constexpr uint32_t kMaxQueue = 64;
constexpr double kWarmupSeconds = 2;
// A request's quiet-host latency is this quantile of its latencies in the
// window.  Other tenants of a shared host slow it in bursts that last for
// minutes; within them some requests still run at full speed, so a low
// quantile of each request's repeats stays put where the window's median
// moves by 10-15% (README.md "Load").
constexpr double kQuietQuantile = 0.1;
// The service is built at least kMinSetupBuilds times, and more until
// the builds add up to kMinSetupSeconds: a 20 ms build timed 5 times
// is at the mercy of one scheduler hiccup.
constexpr int kMinSetupBuilds = 5;
constexpr int kMaxSetupBuilds = 200;
constexpr double kMinSetupSeconds = 2;
// The fixed query set: answered by the check pass, sent by every reader
// once per round in a seed-shuffled order, replayed by the traced run.
constexpr uint32_t kQueries = 200;
constexpr size_t kK = 10;
constexpr double kRangeSelectivity = 0.001;
constexpr uint64_t kDataSeed = 2017;
// mixed-durable's writer.
constexpr uint32_t kRemovesPerApply = 4;
constexpr uint64_t kCheckpointEvery = 5000;
// The paper's disk setup (Section 6.1): 4 KB pages, a 128 KB pool.
constexpr uint32_t kPageSize = 4096;
constexpr uint32_t kPoolBytes = 128 * 1024;

struct WorkloadSpec {
  const char* name;
  BenchDatasetId dataset;
  uint32_t n;
  const char* index;
  bool durable;
  bool range_mix;    // alternate MRQ and kNN requests; false = kNN only
  uint32_t writers;  // clients that send Apply batches; the rest read
};

// The reason for each workload is in README.md "Workloads".  The table
// workloads hold 50,000 rows, not 200,000: a request then streams a
// quarter of the rows through the L3 cache that other tenants of a
// shared host also use, and the run-to-run spread of the read p50 fell
// from 5.6% to 2.0% (README.md "Load").
constexpr WorkloadSpec kWorkloads[] = {
    {"vec-range", BenchDatasetId::kSynthetic, 50000, "LAESA", false, true, 0},
    {"words-knn", BenchDatasetId::kWords, 30000, "LAESA", false, false, 0},
    {"disk-read", BenchDatasetId::kSynthetic, 20000, "SPB-tree", false, true,
     0},
    {"mixed-durable", BenchDatasetId::kSynthetic, 50000, "LAESA", true, true,
     1},
};

// -- small helpers ------------------------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The service's documented refusals; anything else is a wrong answer.
bool IsTyped(const Status& s) {
  return s.code() == StatusCode::kResourceExhausted ||
         s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kUnavailable;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(2);
}

Dataset EmptyLike(const Dataset& d) {
  return d.kind() == ObjectKind::kVector ? Dataset::Vectors(d.dim())
                                         : Dataset::Strings();
}

Dataset Slice(const Dataset& d, uint32_t begin, uint32_t end) {
  Dataset out = EmptyLike(d);
  for (ObjectId id = begin; id < end; ++id) out.Add(d.view(id));
  return out;
}

Dataset Members(const Dataset& d, const std::vector<ObjectId>& ids) {
  Dataset out = EmptyLike(d);
  for (ObjectId id : ids) out.Add(d.view(id));
  return out;
}

/// A flat JSON object, built in insertion order.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    if (!std::isfinite(v)) return Raw(key, "null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (static_cast<unsigned char>(c) < 0x20) continue;
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return Raw(key, q + "\"");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// -- workload: data, queries, oracle answers ----------------------------------

struct Expected {
  std::vector<ObjectId> ids;        // MRQ, ascending
  std::vector<Neighbor> neighbors;  // kNN, (distance, id) order
};

Expected ToExpected(const QueryRequest& req, const QueryResult& r) {
  Expected e;
  if (req.type == QueryType::kRange) {
    e.ids = r.ids.at(0);
    std::sort(e.ids.begin(), e.ids.end());
  } else {
    e.neighbors = r.neighbors.at(0);
  }
  return e;
}

/// Bit-identical: the same MRQ id set, the same (distance, id) sequence.
bool Matches(const QueryRequest& req, const QueryResult& got,
             const Expected& want) {
  if (req.type == QueryType::kRange) {
    return got.ids.size() == 1 && got.ids[0] == want.ids;
  }
  if (got.neighbors.size() != 1) return false;
  const std::vector<Neighbor>& g = got.neighbors[0];
  if (g.size() != want.neighbors.size()) return false;
  for (size_t i = 0; i < g.size(); ++i) {
    if (g[i].id != want.neighbors[i].id ||
        std::memcmp(&g[i].dist, &want.neighbors[i].dist, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t ResultCount(const QueryRequest& req, const QueryResult& r) {
  return req.type == QueryType::kRange ? r.ids.at(0).size()
                                       : r.neighbors.at(0).size();
}

struct Workload {
  explicit Workload(const WorkloadSpec& s) : spec(s) {}
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const WorkloadSpec& spec;
  std::string metric_name;
  Dataset data = Dataset::Vectors(0);     // the n indexed objects
  Dataset queries = Dataset::Vectors(0);  // held-out objects, same generator
  double radius = 0;
  std::vector<QueryRequest> requests;  // views into `queries`
  std::vector<Expected> expected;      // oracle answers, one per request
};

void MakeWorkload(Workload* w) {
  BenchDataset bd =
      MakeBenchDataset(w->spec.dataset, w->spec.n + kQueries, kDataSeed);
  w->data = Slice(bd.data, 0, w->spec.n);
  w->queries = Slice(bd.data, w->spec.n, w->spec.n + kQueries);
  w->metric_name = bd.metric->name();
  w->radius = EstimateDistribution(w->data, *bd.metric)
                  .RadiusForSelectivity(kRangeSelectivity);
  for (uint32_t i = 0; i < kQueries; ++i) {
    const ObjectView q = w->queries.view(i);
    w->requests.push_back(w->spec.range_mix && i % 2 == 0
                              ? QueryRequest::Range(q, w->radius)
                              : QueryRequest::Knn(q, kK));
  }
}

MetricDB MakeOracle(const Workload& w) {
  StatusOr<MetricDB> db = MetricDB::Create(MetricDBConfig()
                                               .WithMetric(w.metric_name)
                                               .WithIndex("LinearScan")
                                               .WithPivots(1)
                                               .WithPivotMethod("random"),
                                           Slice(w.data, 0, w.data.size()));
  CheckOk(db.status(), "oracle build");
  return std::move(*db);
}

/// The oracle's answer to every request, asked as one MRQ batch and one
/// kNN batch.
std::vector<Expected> OracleAnswers(const MetricDB& oracle,
                                    const std::vector<QueryRequest>& reqs) {
  std::vector<Expected> out(reqs.size());
  for (QueryType type : {QueryType::kRange, QueryType::kKnn}) {
    QueryRequest batch;
    batch.type = type;
    std::vector<size_t> at;
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].type != type) continue;
      at.push_back(i);
      batch.batch.push_back(reqs[i].batch[0]);
      if (type == QueryType::kRange) {
        batch.radii.push_back(reqs[i].radius);
      } else {
        batch.ks.push_back(reqs[i].k);
      }
    }
    if (at.empty()) continue;
    StatusOr<QueryResult> r = oracle.Query(batch);
    CheckOk(r.status(), "oracle query");
    for (size_t j = 0; j < at.size(); ++j) {
      if (type == QueryType::kRange) {
        out[at[j]].ids = std::move(r->ids[j]);
        std::sort(out[at[j]].ids.begin(), out[at[j]].ids.end());
      } else {
        out[at[j]].neighbors = std::move(r->neighbors[j]);
      }
    }
  }
  return out;
}

// -- the service --------------------------------------------------------------

ServiceOptions LoadOptions() {
  ServiceOptions o;
  o.num_shards = kShards;
  o.workers = kWorkers;
  o.max_queue = kMaxQueue;
  return o;
}

struct Service {
  std::unique_ptr<ShardedService> svc;
  // The shared page pool, installed through IndexOptions::buffer_pool so
  // its statistics are readable here.
  std::shared_ptr<BufferPool> pool;
  std::string dir;  // durable home
  double setup_s = 0;
};

/// Builds the service repeatedly (see kMinSetupBuilds) and keeps the
/// last one; setup_s is the median Create/CreateDurable wall time.
Service BuildService(const Workload& w, const std::string& work_dir,
                     const DurabilityOptions& dopts) {
  std::vector<double> times;
  double total_s = 0;
  Service out;
  for (int b = 0; b < kMaxSetupBuilds &&
                  (b < kMinSetupBuilds || total_s < kMinSetupSeconds);
       ++b) {
    if (out.svc != nullptr) {
      CheckOk(out.svc->Close(), "service close");
      out.svc.reset();
      if (w.spec.durable) std::filesystem::remove_all(out.dir);
    }
    MetricDBConfig config =
        MetricDBConfig().WithMetric(w.metric_name).WithIndex(w.spec.index);
    config.options.page_size = kPageSize;
    config.options.cache_bytes = kPoolBytes;
    config.options.buffer_pool =
        std::make_shared<BufferPool>(kPageSize, kPoolBytes);
    Dataset copy = Slice(w.data, 0, w.data.size());
    const std::string dir = JoinPath(work_dir, "svc-" + std::to_string(b));
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<ShardedService>> svc =
        w.spec.durable ? ShardedService::CreateDurable(
                             config, std::move(copy), dir, LoadOptions(), dopts)
                       : ShardedService::Create(config, std::move(copy),
                                                LoadOptions());
    times.push_back(Seconds(Clock::now() - t0));
    total_s += times.back();
    CheckOk(svc.status(), "service build");
    out.svc = std::move(*svc);
    out.pool = config.options.buffer_pool;
    out.dir = dir;
  }
  out.setup_s = Percentile(times, 0.5);
  std::fprintf(stderr, "%s: setup %.4f s (median of %zu builds)\n",
               w.spec.name, out.setup_s, times.size());
  return out;
}

struct CheckResult {
  uint64_t mismatches = 0;
  double compdists_per_query = 0;
  double pa_per_query = 0;
};

/// Answers the fixed query set through the service, one request at a
/// time, before any load: the correctness gate and the source of the
/// exact cost counts.
CheckResult CheckPass(const ShardedService& svc, const Workload& w) {
  CheckResult c;
  uint64_t compdists = 0;
  uint64_t pa = 0;
  for (uint32_t i = 0; i < kQueries; ++i) {
    StatusOr<QueryResult> r = svc.Query(w.requests[i]);
    CheckOk(r.status(), "check pass query");
    if (!Matches(w.requests[i], *r, w.expected[i])) ++c.mismatches;
    compdists += r->stats.dist_computations;
    pa += r->stats.page_accesses();
  }
  c.compdists_per_query = double(compdists) / kQueries;
  c.pa_per_query = double(pa) / kQueries;
  return c;
}

// -- traced run: replicas, single-layer probes, spans -------------------------

std::vector<MetricDB> BuildReplicas(const ShardedService& svc,
                                    const Workload& w) {
  MetricDBConfig config = svc.config();
  config.options.buffer_pool =
      std::make_shared<BufferPool>(kPageSize, kPoolBytes);
  std::vector<MetricDB> replicas;
  for (uint32_t s = 0; s < svc.num_shards(); ++s) {
    StatusOr<MetricDB> db =
        MetricDB::Create(config, Members(w.data, svc.router().members(s)));
    CheckOk(db.status(), "replica build");
    replicas.push_back(std::move(*db));
  }
  return replicas;
}

volatile double g_sink = 0;

/// Nanoseconds per Metric::Distance call on (query, data object) pairs
/// of the workload.
double DistNs(const Workload& w, const Metric& metric) {
  Rng rng(kDataSeed ^ 0xd157);
  std::vector<ObjectId> objects(4096);
  for (ObjectId& o : objects) o = static_cast<ObjectId>(rng() % w.data.size());
  double sum = 0;
  uint64_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (size_t p = 0; p < objects.size(); ++p) {
      sum += metric.Distance(w.queries.view(p % kQueries),
                             w.data.view(objects[p]));
    }
    calls += objects.size();
  } while (Clock::now() - t0 < std::chrono::milliseconds(100));
  const double ns = Seconds(Clock::now() - t0) * 1e9 / double(calls);
  g_sink = sum;
  return ns;
}

/// Median wall time of MetricIndex::Clone() over the replicas -- the
/// shadow copy every Apply on a versioned shard starts with.
double CloneMs(const std::vector<MetricDB>& replicas) {
  std::vector<double> ms;
  for (const MetricDB& db : replicas) {
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<MetricIndex> clone = db.index().Clone();
      ms.push_back(Millis(Clock::now() - t0));
    }
  }
  return Percentile(ms, 0.5);
}

/// The index batch call MetricDB makes for `req`: the const *Shared
/// engine on a versioned database, the counting *QueryBatch otherwise.
OpStats RunIndex(const MetricDB& db, bool versioned, const QueryRequest& req,
                 uint64_t* results) {
  const MetricIndex& index = db.index();
  if (req.type == QueryType::kRange) {
    const std::vector<double> radii(req.batch.size(), req.radius);
    std::vector<std::vector<ObjectId>> out;
    const OpStats st = versioned
                           ? index.RangeQueryBatchShared(req.batch, radii, &out)
                           : index.RangeQueryBatch(req.batch, radii, &out);
    *results = out.at(0).size();
    return st;
  }
  const std::vector<size_t> ks(req.batch.size(), req.k);
  std::vector<std::vector<Neighbor>> out;
  const OpStats st = versioned ? index.KnnQueryBatchShared(req.batch, ks, &out)
                               : index.KnnQueryBatch(req.batch, ks, &out);
  *results = out.at(0).size();
  return st;
}

struct Span {
  const char* name = "";
  uint32_t req = 0;
  int32_t id = 0;
  int32_t parent = -1;
  int32_t shard = -1;
  double start_us = 0;  // since the run's time origin
  double end_us = 0;
  double exec_ms = -1;  // service.Query: the service's own QueryResult time
  uint64_t compdists = 0;
  uint64_t pages = 0;
  uint64_t results = 0;
  bool ok = true;
};

/// In-memory span recorder; written out once the load has stopped.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Runs fn(span) inside a new span; returns the span's id.
  int32_t Record(const char* name, uint32_t req, int32_t parent, int32_t shard,
                 const std::function<void(Span&)>& fn) {
    Span s;
    s.name = name;
    s.req = req;
    s.id = static_cast<int32_t>(spans_.size());
    s.parent = parent;
    s.shard = shard;
    s.start_us = Us(Clock::now());
    fn(s);
    s.end_us = Us(Clock::now());
    spans_.push_back(s);
    return s.id;
  }

  bool Write(const std::string& path, const std::string& header) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "%s\n", header.c_str());
    for (const Span& s : spans_) {
      Json j;
      j.Str("type", "span").Str("name", s.name).Int("req", s.req);
      j.Raw("id", std::to_string(s.id)).Raw("parent", std::to_string(s.parent));
      j.Raw("shard", std::to_string(s.shard));
      j.Num("start_us", s.start_us).Num("end_us", s.end_us);
      if (s.exec_ms >= 0) j.Num("exec_ms", s.exec_ms);
      j.Int("compdists", s.compdists).Int("pages", s.pages);
      j.Int("results", s.results).Bool("ok", s.ok);
      std::fprintf(f, "%s\n", j.str().c_str());
    }
    return std::fclose(f) == 0;
  }

 private:
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// -- load ---------------------------------------------------------------------

enum Phase : int { kWarmup = 0, kWindow = 1, kTraced = 2, kStop = 3 };

/// What one client saw in one measured phase.
struct Tally {
  std::vector<double> read_ms;
  std::vector<uint32_t> read_req;  // which fixed request each read sent
  std::vector<double> exec_ms;  // QueryResult.stats.seconds of the same reads
  std::vector<double> apply_ms;
  std::vector<double> checkpoint_ms;
  uint64_t apply_ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // typed refusals
  uint64_t mismatches = 0;
  uint64_t untyped = 0;

  void Add(const Tally& o) {
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    read_req.insert(read_req.end(), o.read_req.begin(), o.read_req.end());
    exec_ms.insert(exec_ms.end(), o.exec_ms.begin(), o.exec_ms.end());
    apply_ms.insert(apply_ms.end(), o.apply_ms.begin(), o.apply_ms.end());
    checkpoint_ms.insert(checkpoint_ms.end(), o.checkpoint_ms.begin(),
                         o.checkpoint_ms.end());
    apply_ops += o.apply_ops;
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
    untyped += o.untyped;
  }
};

void CountFailure(Tally* t, const Status& s, uint32_t client) {
  if (IsTyped(s)) {
    ++t->failed;
    return;
  }
  ++t->untyped;
  std::fprintf(stderr, "client %u: untyped error: %s\n", client,
               s.ToString().c_str());
}

/// The writer's liveness mirror; only the writer thread touches it until
/// the clients are joined.
struct Writer {
  std::vector<uint8_t> live;
  std::vector<ObjectId> dead;  // removed by the last batch, re-inserted next
  uint64_t applies = 0;
};

struct Ctx {
  Ctx(const Workload& wl, ShardedService& s, uint64_t sd)
      : w(wl), svc(s), seed(sd), verify(wl.spec.writers == 0) {
    for (std::vector<Tally>& t : tallies) t.resize(kClients);
    writer.live.assign(wl.data.size(), 1);
  }

  const Workload& w;
  ShardedService& svc;
  uint64_t seed;
  bool verify;  // read-only workloads: every loaded answer is checked
  std::atomic<int> phase{kWarmup};
  std::vector<Tally> tallies[2];  // [kWindow - 1 | kTraced - 1][client]
  Writer writer;
  // Traced run only.
  SpanLog* spans = nullptr;
  std::vector<MetricDB>* replicas = nullptr;
  bool svc_versioned = false;
  bool replica_versioned = false;
  std::atomic<bool> tracer_done{false};
};

/// One loaded read of request `i`, timed around the public call, counted
/// in `t` and, on the read-only workloads, checked against the oracle.
/// Returns the reply, or nullopt when the request failed.
std::optional<QueryResult> ReadOnce(Ctx& ctx, uint32_t i, uint32_t client,
                                    Tally* t) {
  const QueryRequest& req = ctx.w.requests[i];
  const Clock::time_point t0 = Clock::now();
  StatusOr<QueryResult> r = ctx.svc.Query(req);
  const Clock::time_point t1 = Clock::now();
  ++t->attempted;
  if (!r.ok()) {
    CountFailure(t, r.status(), client);
    return std::nullopt;
  }
  t->read_ms.push_back(Millis(t1 - t0));
  t->read_req.push_back(i);
  t->exec_ms.push_back(r->stats.seconds * 1e3);
  if (ctx.verify && !Matches(req, *r, ctx.w.expected[i])) ++t->mismatches;
  return std::move(*r);
}

/// One writer step: re-insert the ids the last batch removed, remove
/// kRemovesPerApply other live ids, and checkpoint every
/// kCheckpointEvery acknowledged batches.
void WriteOnce(Ctx& ctx, Rng& rng, uint32_t client, Tally* t) {
  Writer& wr = ctx.writer;
  const uint32_t n = ctx.w.data.size();
  std::vector<UpdateOp> ops;
  for (ObjectId id : wr.dead) ops.push_back(UpdateOp::Insert(id));
  for (uint32_t removed = 0; removed < kRemovesPerApply;) {
    const ObjectId id = static_cast<ObjectId>(rng() % n);
    bool taken = wr.live[id] == 0;
    for (const UpdateOp& op : ops) taken = taken || op.id == id;
    if (taken) continue;
    ops.push_back(UpdateOp::Remove(id));
    ++removed;
  }
  const Clock::time_point t0 = Clock::now();
  StatusOr<ApplyResult> a = ctx.svc.Apply(ops);
  const Clock::time_point t1 = Clock::now();
  ++t->attempted;
  // Commit is atomic per shard: the mirror takes exactly the ops whose
  // shard committed.
  wr.dead.clear();
  for (const UpdateOp& op : ops) {
    const Status& s =
        a.ok() ? a->shard_status[ctx.svc.router().shard_of(op.id)] : a.status();
    if (s.ok()) wr.live[op.id] = op.op == WalOp::kInsert ? 1 : 0;
    if (wr.live[op.id] == 0) wr.dead.push_back(op.id);
  }
  const Status st = a.ok() ? a->Collapse() : a.status();
  if (!st.ok()) return CountFailure(t, st, client);
  t->apply_ms.push_back(Millis(t1 - t0));
  t->apply_ops += ops.size();
  if (++wr.applies % kCheckpointEvery != 0) return;
  const Clock::time_point c0 = Clock::now();
  const Status c = ctx.svc.Checkpoint();
  if (!c.ok()) {
    ++t->untyped;
    std::fprintf(stderr, "checkpoint failed: %s\n", c.ToString().c_str());
    return;
  }
  t->checkpoint_ms.push_back(Millis(Clock::now() - c0));
}

/// Replays request `i` layer by layer with one span per call.  The
/// service.Query span is a real loaded request and counts as a read.
void TraceRequest(Ctx& ctx, uint32_t i, Tally* t) {
  const QueryRequest& req = ctx.w.requests[i];
  SpanLog& log = *ctx.spans;
  std::optional<QueryResult> real;
  const int32_t root = log.Record("service.Query", i, -1, -1, [&](Span& s) {
    real = ReadOnce(ctx, i, 0, t);
    if (!(s.ok = real.has_value())) return;
    s.exec_ms = real->stats.seconds * 1e3;
    s.compdists = real->stats.dist_computations;
    s.pages = real->stats.page_accesses();
    s.results = ResultCount(req, *real);
  });
  if (!real.has_value()) return;
  int32_t gather = root;
  if (ctx.svc_versioned) {
    gather = log.Record("service.ReadView.Query", i, root, -1, [&](Span& s) {
      StatusOr<ShardedService::ReadView> view = ctx.svc.GetReadView();
      s.ok = view.ok() && view->Query(req).ok();
    });
  }
  std::vector<QueryResult> per_shard;
  for (uint32_t sh = 0; sh < ctx.replicas->size(); ++sh) {
    const MetricDB& replica = (*ctx.replicas)[sh];
    // An untimed pass first: the service's own shards are warm from the
    // real request, so the replica's calls are timed warm as well, and
    // the MetricDB span does not pay a cold-cache cost its index child
    // would then not pay.
    uint64_t unused = 0;
    RunIndex(replica, ctx.replica_versioned, req, &unused);
    std::optional<QueryResult> part;
    const int32_t shard = static_cast<int32_t>(sh);
    const int32_t m =
        log.Record("api.MetricDB.Query", i, gather, shard, [&](Span& s) {
          StatusOr<QueryResult> r = replica.Query(req);
          if ((s.ok = r.ok())) part = std::move(*r);
        });
    log.Record("api.ReadView.pin", i, m, shard,
               [&](Span& s) { s.ok = replica.GetReadView().ok(); });
    log.Record("core.index.QueryBatch", i, m, shard, [&](Span& s) {
      const OpStats st =
          RunIndex(replica, ctx.replica_versioned, req, &s.results);
      s.compdists = st.dist_computations;
      s.pages = st.page_accesses();
    });
    if (!part.has_value()) {
      ++t->untyped;
      std::fprintf(stderr, "replica %u query failed\n", sh);
      return;
    }
    per_shard.push_back(std::move(*part));
  }
  log.Record("service.MergeShardResults", i, gather, -1, [&](Span&) {
    QueryResult merged =
        MergeShardResults(ctx.svc.router(), req, std::move(per_shard));
    g_sink = double(merged.stats.dist_computations);
  });
}

void Client(Ctx& ctx, uint32_t c) {
  Rng rng(ctx.seed * 0x9E3779B97F4A7C15ull + c + 1);
  const bool writer = c >= kClients - ctx.w.spec.writers;
  const bool tracer = ctx.spans != nullptr && c == 0;
  Tally warm;
  // A reader's rounds: each is the fixed query set in a fresh
  // seed-shuffled order.
  std::vector<uint32_t> order(kQueries);
  for (uint32_t i = 0; i < kQueries; ++i) order[i] = i;
  uint32_t next = kQueries;
  for (;;) {
    const int ph = ctx.phase.load(std::memory_order_acquire);
    if (ph == kStop) break;
    Tally* t = ph == kWarmup ? &warm : &ctx.tallies[ph - 1][c];
    if (tracer && ph == kTraced && !ctx.tracer_done.load()) {
      for (uint32_t i = 0; i < kQueries; ++i) TraceRequest(ctx, i, t);
      ctx.tracer_done.store(true);
      continue;
    }
    if (writer) {
      WriteOnce(ctx, rng, c, t);
      continue;
    }
    if (next == kQueries) {
      for (uint32_t i = kQueries - 1; i > 0; --i) {
        std::swap(order[i], order[rng() % (i + 1)]);
      }
      next = 0;
    }
    ReadOnce(ctx, order[next++], c, t);
  }
}

/// Counters sampled by the main thread at a window boundary.
struct Mark {
  Clock::time_point t;
  double cpu_s = 0;
  BufferPoolStats pool;
  CountingEnv::Stats env;
};

Mark TakeMark(const Service& s, const CountingEnv& env) {
  return {Clock::now(), ProcessCpuSeconds(), s.pool->stats(), env.stats()};
}

/// The quiet-host latency of every fixed request read in the window,
/// over all readers' repeats of it.
std::vector<double> QuietReadMs(const Tally& win) {
  std::vector<std::vector<double>> repeats(kQueries);
  for (size_t r = 0; r < win.read_ms.size(); ++r) {
    repeats[win.read_req[r]].push_back(win.read_ms[r]);
  }
  std::vector<double> out;
  for (const std::vector<double>& ms : repeats) {
    if (!ms.empty()) out.push_back(Percentile(ms, kQuietQuantile));
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / double(v.size());
}

// -- checks after the load ----------------------------------------------------

/// mixed-durable: the writer's mirror must equal the service's liveness.
uint64_t MirrorMismatches(const ShardedService& svc, const Writer& wr) {
  uint64_t bad = 0;
  for (ObjectId id = 0; id < wr.live.size(); ++id) {
    if (svc.alive(id) != (wr.live[id] != 0)) ++bad;
  }
  return bad;
}

/// Traced run: the replica shards, brought to the writer's final
/// liveness, must merge to exactly the service's answers.
uint64_t ReplicaMismatches(const ShardedService& svc,
                           std::vector<MetricDB>& replicas, const Workload& w,
                           const Writer& wr) {
  for (ObjectId id : wr.dead) {
    CheckOk(replicas[svc.router().shard_of(id)].Remove(
                svc.router().local_of(id)),
            "replica remove");
  }
  uint64_t bad = 0;
  for (uint32_t i = 0; i < kQueries; ++i) {
    const QueryRequest& req = w.requests[i];
    StatusOr<QueryResult> r = svc.Query(req);
    CheckOk(r.status(), "replica check query");
    std::vector<QueryResult> per_shard;
    for (const MetricDB& replica : replicas) {
      StatusOr<QueryResult> part = replica.Query(req);
      CheckOk(part.status(), "replica query");
      per_shard.push_back(std::move(*part));
    }
    const QueryResult merged =
        MergeShardResults(svc.router(), req, std::move(per_shard));
    if (!Matches(req, merged, ToExpected(req, *r))) ++bad;
  }
  return bad;
}

/// mixed-durable: Close() + OpenDurable must recover every acknowledged
/// sequence, and the recovered service must answer like the oracle with
/// the acknowledged ops applied.  Consumes the service.
bool RecoveryCheck(Service* s, const Workload& w, MetricDB* oracle,
                   const Writer& wr, const DurabilityOptions& dopts) {
  const std::vector<uint64_t> acked = s->svc->sequences();
  CheckOk(s->svc->Close(), "service close");
  s->svc.reset();
  StatusOr<std::unique_ptr<ShardedService>> reopened =
      ShardedService::OpenDurable(s->dir, LoadOptions(), dopts);
  CheckOk(reopened.status(), "service reopen");
  bool ok = (*reopened)->sequences() == acked;
  if (!ok) std::fprintf(stderr, "recovered sequences differ from acked\n");
  std::vector<UpdateOp> removes;
  for (ObjectId id : wr.dead) removes.push_back(UpdateOp::Remove(id));
  CheckOk(oracle->Apply(removes), "oracle replay");
  const std::vector<Expected> want = OracleAnswers(*oracle, w.requests);
  for (uint32_t i = 0; i < kQueries; ++i) {
    StatusOr<QueryResult> r = (*reopened)->Query(w.requests[i]);
    CheckOk(r.status(), "recovered query");
    if (!Matches(w.requests[i], *r, want[i])) {
      std::fprintf(stderr, "recovered answer %u differs from the oracle\n", i);
      ok = false;
    }
  }
  CheckOk((*reopened)->Close(), "recovered close");
  return ok;
}

// -- main ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string spans_path;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (key == "--work") {
      a->work_dir = v;
    } else if (key == "--spans") {
      a->spans_path = v;
    } else if (key == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->work_dir.empty() &&
         a->seconds > 0 && a->seconds <= 120 &&
         (!a->trace || !a->spans_path.empty());
}

std::string HostJson(const Args& a, unsigned nproc) {
  Json h;
  h.Int("nproc", nproc).Str("simd", SimdLevelName(SimdLevelInUse()));
  h.Str("compiler", PMI_E2E_COMPILER).Str("build_type", PMI_E2E_BUILD_TYPE);
  h.Str("commit", a.commit).Int("seed", a.seed).Int("clients", kClients);
  h.Int("workers", kWorkers).Int("shards", kShards);
  h.Num("warmup_s", kWarmupSeconds).Num("window_s", a.seconds);
  h.Bool("valid", kClients < nproc);
  return h.str();
}

int Run(const Args& a) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (a.workload == s.name) spec = &s;
  }
  if (spec == nullptr) Die("unknown workload " + a.workload);
  const Clock::time_point origin = Clock::now();
  const unsigned nproc = Nproc();

  Workload w(*spec);
  MakeWorkload(&w);
  // The oracle answers with the default thread pool; after that every
  // request runs only on its admission worker.
  MetricDB oracle = MakeOracle(w);
  w.expected = OracleAnswers(oracle, w.requests);
  ThreadPool::SetGlobalThreads(1);

  CountingEnv env(Env::Default());
  DurabilityOptions dopts;
  dopts.sync_mode = SyncMode::kAlways;
  if (a.trace) dopts.env = &env;
  CheckOk(Env::Default()->CreateDir(a.work_dir), "work dir");
  Service s = BuildService(w, a.work_dir, dopts);
  const CheckResult check = CheckPass(*s.svc, w);
  std::fprintf(stderr, "%s: check pass %llu/%u mismatches, %.1f compdists, "
               "%.1f PA per query\n", spec->name,
               (unsigned long long)check.mismatches, kQueries,
               check.compdists_per_query, check.pa_per_query);

  SpanLog spans(origin);
  std::vector<MetricDB> replicas;
  double dist_ns = 0;
  double clone_ms = 0;
  Ctx ctx(w, *s.svc, a.seed);
  if (a.trace) {
    replicas = BuildReplicas(*s.svc, w);
    dist_ns = DistNs(w, replicas[0].metric());
    clone_ms = CloneMs(replicas);
    ctx.spans = &spans;
    ctx.replicas = &replicas;
    ctx.svc_versioned = s.svc->GetReadView().ok();
    ctx.replica_versioned = replicas[0].GetReadView().ok();
  }

  // Warm-up, the measured window, and in the traced run the traced
  // window, which lasts until client 0 has replayed the whole sample.
  const double window_s = a.trace ? a.seconds / 2 : a.seconds;
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back(Client, std::ref(ctx), c);
  }
  auto sleep_s = [](double sec) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sec));
  };
  sleep_s(kWarmupSeconds);
  const Mark m0 = TakeMark(s, env);
  ctx.phase.store(kWindow, std::memory_order_release);
  sleep_s(window_s);
  const Mark m1 = TakeMark(s, env);
  const ShardedService::ServiceStats service_stats = s.svc->stats();
  Clock::time_point traced_end = m1.t;
  if (a.trace) {
    ctx.phase.store(kTraced, std::memory_order_release);
    while (Seconds(Clock::now() - m1.t) < window_s || !ctx.tracer_done.load()) {
      sleep_s(0.01);
    }
    traced_end = Clock::now();
  }
  ctx.phase.store(kStop, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  Tally win;
  for (const Tally& t : ctx.tallies[0]) win.Add(t);
  Tally traced;
  for (const Tally& t : ctx.tallies[1]) traced.Add(t);

  // Checks after the load.
  uint64_t mismatches = check.mismatches + win.mismatches + traced.mismatches;
  bool ok = true;
  if (spec->writers > 0) {
    const uint64_t bad = MirrorMismatches(*s.svc, ctx.writer);
    if (bad > 0) {
      std::fprintf(stderr, "%llu mirror mismatches\n", (unsigned long long)bad);
    }
    mismatches += bad;
  }
  if (a.trace) {
    const uint64_t bad = ReplicaMismatches(*s.svc, replicas, w, ctx.writer);
    if (bad > 0) {
      std::fprintf(stderr, "%llu replica mismatches\n",
                   (unsigned long long)bad);
    }
    mismatches += bad;
  }
  const double peak_rss_mb = PeakRssMb();
  if (spec->durable) {
    ThreadPool::SetGlobalThreads(0);
    ok = RecoveryCheck(&s, w, &oracle, ctx.writer, dopts) && ok;
  }
  const bool correct = ok && mismatches == 0 && win.untyped == 0 &&
                       traced.untyped == 0;

  // End-to-end metrics over the untraced window (README "End-to-end
  // metrics").  ops_per_s is the closed loop's rate at quiet-host
  // latencies: each client completes one request per latency.
  const double sec = Seconds(m1.t - m0.t);
  const double reads = double(win.read_ms.size());
  const double applies = double(win.apply_ms.size());
  const std::vector<double> quiet_ms = QuietReadMs(win);
  double ops_per_s = (kClients - spec->writers) * Ratio(1e3, Mean(quiet_ms));
  if (spec->writers > 0) {
    ops_per_s += Ratio(1e3, Percentile(win.apply_ms, kQuietQuantile));
  }
  Json metrics;
  metrics.Num("setup_s", s.setup_s);
  metrics.Num("read_p50_ms", Percentile(quiet_ms, 0.5));
  metrics.Num("read_p95_ms", Percentile(quiet_ms, 0.95));
  metrics.Num("ops_per_s", ops_per_s);
  metrics.Num("peak_rss_mb", peak_rss_mb);
  metrics.Num("compdists_per_query", check.compdists_per_query);

  // Reported but not bounded: raw window statistics, which follow the
  // host's speed, and metrics some workloads do not have (README
  // "Unbounded metrics").
  Json extra;
  extra.Num("raw_read_qps", reads / sec);
  extra.Num("raw_read_p50_ms", Percentile(win.read_ms, 0.5));
  extra.Num("raw_read_p99_ms", Percentile(win.read_ms, 0.99));
  extra.Num("raw_ops_per_s", (reads + applies) / sec);
  extra.Num("cpu_ms_per_op",
            Ratio((m1.cpu_s - m0.cpu_s) * 1e3, reads + applies));
  extra.Num("apply_ops_per_s", applies / sec);
  extra.Num("apply_p50_ms", Percentile(win.apply_ms, 0.5));
  extra.Num("apply_p99_ms", Percentile(win.apply_ms, 0.99));
  extra.Num("error_rate", Ratio(double(win.failed), double(win.attempted)));
  extra.Num("pa_per_query", check.pa_per_query);
  extra.Int("read_samples", win.read_ms.size());
  extra.Int("apply_samples", win.apply_ms.size());
  extra.Num("window_measured_s", sec);

  Json record;
  record.Str("workload", spec->name).Int("seed", a.seed).Bool("trace", a.trace);
  record.Bool("correct", correct);
  record.Int("attempted", win.attempted + traced.attempted);
  record.Int("failed", win.failed + traced.failed);
  record.Raw("host", HostJson(a, nproc));
  record.Raw("metrics", metrics.str());
  record.Raw("unbounded_metrics", extra.str());

  if (a.trace) {
    // Per-layer values measured outside the spans; trace_report.py adds
    // the span-derived ones.
    std::vector<double> wait_ms;
    for (size_t i = 0; i < win.read_ms.size(); ++i) {
      wait_ms.push_back(win.read_ms[i] - win.exec_ms[i]);
    }
    const double pool_hits = double(m1.pool.hits - m0.pool.hits);
    const double pool_misses = double(m1.pool.misses - m0.pool.misses);
    const double physical =
        pool_misses + double(m1.pool.write_backs - m0.pool.write_backs);
    const std::vector<double> sync_ms(
        m1.env.wal_sync_ms.begin() + m0.env.wal_sync_ms.size(),
        m1.env.wal_sync_ms.end());
    const std::vector<double> append_us(
        m1.env.wal_append_us.begin() + m0.env.wal_append_us.size(),
        m1.env.wal_append_us.end());
    double live_bytes = double(w.data.total_payload_bytes());
    for (ObjectId id : ctx.writer.dead) live_bytes -= w.data.payload_bytes(id);
    const double checkpoints = double(win.checkpoint_ms.size());

    Json layer;
    layer.Num("service.admission_wait_ms.p50", Percentile(wait_ms, 0.5));
    layer.Num("service.admission_wait_ms.p99", Percentile(wait_ms, 0.99));
    layer.Num("service.execute_ms.p50", Percentile(win.exec_ms, 0.5));
    layer.Int("service.peak_queue_depth", service_stats.admission.peak_depth);
    layer.Int("service.rejected", service_stats.admission.rejected);
    layer.Num("api.apply_ms.p50", Percentile(win.apply_ms, 0.5));
    layer.Num("api.apply_ms.p99", Percentile(win.apply_ms, 0.99));
    layer.Num("api.checkpoint_ms.p50", Percentile(win.checkpoint_ms, 0.5));
    layer.Num("api.checkpoints", checkpoints);
    layer.Num("core.dist_ns", dist_ns);
    layer.Num("core.clone_ms", clone_ms);
    layer.Num("storage.pa_per_query", check.pa_per_query);
    layer.Num("storage.pa_physical_per_query", Ratio(physical, reads));
    layer.Num("storage.pool_hit_rate",
              Ratio(pool_hits, pool_hits + pool_misses));
    layer.Num("storage.pool_evictions_per_query",
              Ratio(double(m1.pool.evictions - m0.pool.evictions), reads));
    layer.Num("storage.wal_bytes_per_op",
              Ratio(double(m1.env.wal_bytes - m0.env.wal_bytes),
                    double(win.apply_ops)));
    layer.Num("storage.syncs_per_apply",
              Ratio(double(m1.env.wal_syncs - m0.env.wal_syncs), applies));
    layer.Num("storage.sync_ms.p50", Percentile(sync_ms, 0.5));
    layer.Num("storage.sync_ms.p99", Percentile(sync_ms, 0.99));
    layer.Num("storage.append_us.p50", Percentile(append_us, 0.5));
    layer.Num("storage.checkpoint_bytes_per_live_byte",
              Ratio(double(m1.env.checkpoint_bytes - m0.env.checkpoint_bytes),
                    checkpoints * live_bytes));
    layer.Num("trace.read_p50_ms.untraced", Percentile(win.read_ms, 0.5));
    layer.Num("trace.read_p50_ms.traced", Percentile(traced.read_ms, 0.5));
    layer.Num("trace.overhead_frac",
              Ratio(Percentile(traced.read_ms, 0.5),
                    Percentile(win.read_ms, 0.5)) - 1);
    layer.Num("trace.traced_window_s", Seconds(traced_end - m1.t));
    record.Raw("layer", layer.str());

    Json header;
    header.Str("type", "run").Str("workload", spec->name).Int("seed", a.seed);
    header.Bool("versioned", ctx.svc_versioned).Int("writers", spec->writers);
    header.Raw("host", HostJson(a, nproc)).Raw("layer", layer.str());
    if (!spans.Write(a.spans_path, header.str())) {
      Die("cannot write spans to " + a.spans_path);
    }
  }
  std::printf("%s\n", record.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pmi

int main(int argc, char** argv) {
  pmi::Args args;
  if (!pmi::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work DIR [--spans FILE] [--commit SHA]\n");
    return 2;
  }
  return pmi::Run(args);
}
