// Concurrent read/write conformance for the versioned core.
//
// The acceptance harness, run over every index: N reader threads run
// MRQ/MkNN batch queries through pinned versions (MetricDB::GetReadView
// / Query) while one writer thread applies seeded insert/remove batches
// and -- in the durable variants -- a checkpointer races Checkpoint()
// against both.
// Every read is verified bit-identically against a brute-force oracle
// evaluated AT THE PINNED VERSION (view.alive + direct metric
// distances), so a reader observing a half-applied batch, a reclaimed
// version, or a torn liveness bitmap fails loudly.  The suite is built
// to run under ThreadSanitizer in CI (the concurrent-stress job); data
// races are the other half of the acceptance criterion.
//
// Also covered here: the shared buffer pool under parallel readers (every
// index on one tiny pool, answers and per-query compdists vs a serial
// reference while a poller races the stats accessor), the directory LOCK
// file protocol (second-open refusal, foreign live owner, stale owners,
// same-pid reopen after a simulated crash) and graceful read-only
// degradation -- a WAL fault mid-stress flips the database read-only and
// reads must keep succeeding from the last published version.
//
// Knobs (harness env-var convention):
//   PMI_STRESS_THREADS  reader thread count (default 4)
//   PMI_STRESS_OPS      scales writer batches (default 2000 -> 100)

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/metric_db.h"
#include "src/core/pivot_selection.h"
#include "src/core/rng.h"
#include "src/data/generators.h"
#include "src/harness/registry.h"
#include "src/harness/workload.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/env.h"
#include "src/storage/fault_env.h"

namespace pmi {
namespace {

constexpr uint64_t kScriptSeed = 20260809;

uint32_t ReaderThreads() {
  return std::max(EnvU32("PMI_STRESS_THREADS", 4), 1u);
}

uint32_t WriterBatches() {
  return std::max(EnvU32("PMI_STRESS_OPS", 2000) / 20, 20u);
}

std::string NewDir(const std::string& name) {
  return ::testing::TempDir() + "pmi_conc_" + name;
}

void RemoveTree(const std::string& dir) {
  Env* env = Env::Default();
  StatusOr<std::vector<std::string>> names = env->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      env->RemoveFile(JoinPath(dir, name));
    }
  }
  ::rmdir(dir.c_str());
}

/// A median-ish distance for query radii, sampled without touching any
/// index counters.
double SampleRadius(const Dataset& data, const Metric& metric) {
  PerfCounters scratch;
  DistanceComputer d(&metric, &scratch);
  std::vector<double> sample;
  Rng rng(kScriptSeed ^ 0xfeed);
  for (int i = 0; i < 64; ++i) {
    ObjectId a = rng() % data.size();
    ObjectId b = rng() % data.size();
    if (a != b) sample.push_back(d(data.view(a), data.view(b)));
  }
  std::sort(sample.begin(), sample.end());
  return sample[sample.size() / 2];
}

/// The single writer's op source: batches of 1..4 toggles, each valid
/// against the writer's own liveness mirror (never removes the last few
/// objects so queries always have something to find).
class WriterScript {
 public:
  WriterScript(uint32_t n, uint64_t seed) : live_(n, 1), rng_(seed) {}

  std::vector<UpdateOp> NextBatch() {
    std::vector<UpdateOp> ops;
    const size_t batch = 1 + rng_() % 4;
    for (size_t i = 0; i < batch; ++i) {
      ObjectId id = rng_() % live_.size();
      if (live_[id] != 0 && LiveCount() > live_.size() / 4) {
        ops.push_back(UpdateOp::Remove(id));
        live_[id] = 0;
      } else if (live_[id] == 0) {
        ops.push_back(UpdateOp::Insert(id));
        live_[id] = 1;
      }
    }
    return ops;
  }

  const std::vector<uint8_t>& live() const { return live_; }

 private:
  size_t LiveCount() const {
    size_t count = 0;
    for (uint8_t b : live_) count += b;
    return count;
  }

  std::vector<uint8_t> live_;
  Rng rng_;
};

/// One reader iteration: pin a view, answer a 4-query batch with
/// per-query radii and per-query ks through it, and verify both against
/// the brute-force oracle at that same pinned version.
void ReadAndVerify(const MetricDB& db, const Dataset& data,
                   const Metric& metric, double base_radius, Rng* rng,
                   uint64_t* last_seen_seq) {
  StatusOr<MetricDB::ReadView> view = db.GetReadView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Published sequences may only move forward under a reader's feet.
  EXPECT_GE(view->sequence(), *last_seen_seq);
  *last_seen_seq = view->sequence();

  std::vector<ObjectView> queries;
  std::vector<double> radii;
  std::vector<size_t> ks;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(data.view((*rng)() % data.size()));
    radii.push_back(base_radius * (0.5 + 0.25 * ((*rng)() % 4)));
    ks.push_back(1 + (*rng)() % 8);
  }

  PerfCounters scratch;
  DistanceComputer d(&metric, &scratch);

  StatusOr<QueryResult> mrq =
      view->Query(QueryRequest::RangeBatch(queries, radii));
  ASSERT_TRUE(mrq.ok()) << mrq.status().ToString();
  ASSERT_EQ(mrq->ids.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<ObjectId> oracle;
    for (ObjectId id = 0; id < data.size(); ++id) {
      if (view->alive(id) && d(queries[qi], data.view(id)) <= radii[qi]) {
        oracle.push_back(id);
      }
    }
    std::vector<ObjectId> got = mrq->ids[qi];
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, oracle) << "MRQ mismatch at seq " << view->sequence()
                           << " query " << qi;
  }

  StatusOr<QueryResult> mknn = view->Query(QueryRequest::KnnBatch(queries, ks));
  ASSERT_TRUE(mknn.ok()) << mknn.status().ToString();
  ASSERT_EQ(mknn->neighbors.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<double> oracle;
    size_t alive_count = 0;
    for (ObjectId id = 0; id < data.size(); ++id) {
      if (!view->alive(id)) continue;
      ++alive_count;
      oracle.push_back(d(queries[qi], data.view(id)));
    }
    std::sort(oracle.begin(), oracle.end());
    oracle.resize(std::min<size_t>(ks[qi], alive_count));
    const std::vector<Neighbor>& got = mknn->neighbors[qi];
    ASSERT_EQ(got.size(), oracle.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(view->alive(got[i].id));
      ASSERT_EQ(got[i].dist, d(queries[qi], data.view(got[i].id)));
      ASSERT_EQ(got[i].dist, oracle[i])
          << "MkNN distance mismatch at seq " << view->sequence()
          << " query " << qi << " rank " << i;
    }
  }
}

struct StressConfig {
  std::string index_name;
  uint32_t pivots = 4;
};

/// Core loop shared by the stress variants: `readers` verify against the
/// oracle until each has done `reads_per_thread` iterations; the writer
/// keeps publishing batches the whole time (at least WriterBatches() of
/// them, then as many as it takes for the readers to finish).
void RunMixedStress(MetricDB* db, const Dataset& data, const Metric& metric,
                    WriterScript* script, uint32_t reads_per_thread,
                    std::atomic<uint64_t>* applied_batches) {
  const uint32_t n_readers = ReaderThreads();
  const uint32_t min_batches = WriterBatches();
  const double base_radius = SampleRadius(data, metric);
  std::atomic<uint32_t> readers_done{0};

  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < n_readers; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(kScriptSeed ^ (0x1000 + t));
      uint64_t last_seq = 0;
      for (uint32_t i = 0; i < reads_per_thread; ++i) {
        ReadAndVerify(*db, data, metric, base_radius, &rng, &last_seq);
        if (::testing::Test::HasFatalFailure()) break;
      }
      readers_done.fetch_add(1, std::memory_order_acq_rel);
    });
  }

  std::thread writer([&] {
    uint64_t batches = 0;
    while (batches < min_batches ||
           readers_done.load(std::memory_order_acquire) < n_readers) {
      std::vector<UpdateOp> ops = script->NextBatch();
      if (!ops.empty()) {
        Status applied = db->Apply(ops);
        ASSERT_TRUE(applied.ok()) << applied.ToString();
      }
      ++batches;
      if (batches > min_batches * 1000) break;  // failed-reader backstop
    }
    applied_batches->store(batches, std::memory_order_release);
  });

  for (std::thread& r : readers) r.join();
  writer.join();
}

class ConcurrentStressTest : public ::testing::TestWithParam<StressConfig> {};

TEST_P(ConcurrentStressTest, ReadersMatchOracleUnderWriterChurn) {
  const StressConfig& config = GetParam();
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 256, 2026);

  auto db = MetricDB::Create(MetricDBConfig()
                                 .WithMetric("Linf")
                                 .WithIndex(config.index_name)
                                 .WithPivots(config.pivots),
                             bd.data);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  WriterScript script(db->dataset().size(), kScriptSeed);
  std::atomic<uint64_t> applied{0};
  RunMixedStress(&*db, db->dataset(), db->metric(), &script,
                 /*reads_per_thread=*/12, &applied);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GE(applied.load(), WriterBatches());

  // Settled state: the writer's mirror, the facade's bookkeeping, and a
  // fresh pinned view all agree.
  auto view = db->GetReadView();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->sequence(), db->last_sequence());
  for (ObjectId id = 0; id < db->dataset().size(); ++id) {
    ASSERT_EQ(view->alive(id), script.live()[id] != 0) << "object " << id;
    ASSERT_EQ(db->alive(id), script.live()[id] != 0) << "object " << id;
  }
}

/// Every survey index plus the LinearScan baseline: all of them clone.
std::vector<StressConfig> AllIndexConfigs() {
  std::vector<StressConfig> configs{StressConfig{"LinearScan"}};
  for (const IndexSpec& spec : AllIndexSpecs()) {
    configs.push_back(StressConfig{spec.name});
  }
  return configs;
}

std::string IndexParamName(const ::testing::TestParamInfo<StressConfig>& info) {
  std::string name = info.param.index_name;
  for (char& c : name) {
    if (c == '*') c = 'S';
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(ClonableIndexes, ConcurrentStressTest,
                         ::testing::ValuesIn(AllIndexConfigs()),
                         IndexParamName);

TEST(ConcurrentDurableTest, ApplyRacesCheckpointAndRecoversEquivalently) {
  const std::string dir = NewDir("ckpt_race");
  RemoveTree(dir);
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 200, 31);

  DurabilityOptions dopts;
  dopts.sync_mode = SyncMode::kAlways;
  auto db = MetricDB::CreateDurable(MetricDBConfig()
                                        .WithMetric("Linf")
                                        .WithIndex("LAESA")
                                        .WithPivots(4),
                                    bd.data, dir, dopts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  WriterScript script(db->dataset().size(), kScriptSeed ^ 0xc4);
  std::atomic<bool> writer_done{false};
  std::atomic<uint32_t> checkpoints{0};

  std::thread checkpointer([&] {
    // Race Checkpoint against Apply (and the readers below) until the
    // writer finishes; every call must succeed on a healthy disk.
    while (!writer_done.load(std::memory_order_acquire)) {
      Status ck = db->Checkpoint();
      ASSERT_TRUE(ck.ok()) << ck.ToString();
      checkpoints.fetch_add(1, std::memory_order_acq_rel);
    }
  });

  std::atomic<uint64_t> applied{0};
  RunMixedStress(&*db, db->dataset(), db->metric(), &script,
                 /*reads_per_thread=*/6, &applied);
  writer_done.store(true, std::memory_order_release);
  checkpointer.join();
  if (::testing::Test::HasFatalFailure()) {
    RemoveTree(dir);
    return;
  }
  EXPECT_GE(checkpoints.load(), 1u);

  const uint64_t final_seq = db->last_sequence();
  ASSERT_TRUE(db->Close().ok());

  // Recovery must land on exactly the final acknowledged state, no
  // matter where the checkpoints fell in the update stream.
  auto reopened = MetricDB::OpenDurable(dir, dopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->last_sequence(), final_seq);
  for (ObjectId id = 0; id < reopened->dataset().size(); ++id) {
    ASSERT_EQ(reopened->alive(id), script.live()[id] != 0) << "object " << id;
  }
  ASSERT_TRUE(reopened->Close().ok());
  RemoveTree(dir);
}

TEST(ConcurrentDurableTest, WriteFaultDegradesToReadOnlyMidStress) {
  const std::string dir = NewDir("degrade");
  RemoveTree(dir);
  FaultInjectingEnv fenv(Env::Default());
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 200, 47);

  DurabilityOptions dopts;
  dopts.sync_mode = SyncMode::kAlways;
  dopts.env = &fenv;
  auto db = MetricDB::CreateDurable(MetricDBConfig()
                                        .WithMetric("Linf")
                                        .WithIndex("LAESA")
                                        .WithPivots(4),
                                    bd.data, dir, dopts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // Arm a failed fsync a few batches into the run: the WAL commit fails,
  // the batch is refused, and the database goes read-only -- while the
  // readers below keep hammering it.
  FaultPlan plan;
  plan.kind = FaultKind::kFailedSync;
  plan.trigger = 24;
  plan.seed = kScriptSeed;
  fenv.Arm(plan);

  const double base_radius = SampleRadius(db->dataset(), db->metric());
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < ReaderThreads(); ++t) {
    readers.emplace_back([&, t] {
      Rng rng(kScriptSeed ^ (0x2000 + t));
      uint64_t last_seq = 0;
      while (!stop_readers.load(std::memory_order_acquire)) {
        ReadAndVerify(*db, db->dataset(), db->metric(), base_radius, &rng,
                      &last_seq);
        if (::testing::Test::HasFatalFailure()) return;
      }
    });
  }

  // Writer: apply until the fault fires.  The failing batch must be
  // refused atomically (mirror rolls back), and every later batch must
  // be refused with the same sticky status.
  WriterScript script(db->dataset().size(), kScriptSeed ^ 0x9e);
  uint64_t seq_before_fault = 0;
  bool degraded = false;
  for (uint32_t batch = 0; batch < 400 && !degraded; ++batch) {
    seq_before_fault = db->last_sequence();
    std::vector<UpdateOp> ops = script.NextBatch();
    if (ops.empty()) continue;
    Status applied = db->Apply(ops);
    if (!applied.ok()) degraded = true;
  }
  ASSERT_TRUE(degraded) << "fault never fired";
  EXPECT_FALSE(db->write_status().ok());
  EXPECT_EQ(db->last_sequence(), seq_before_fault);
  Status refused = db->Apply({UpdateOp::Remove(0)});
  EXPECT_FALSE(refused.ok());

  // Reads must keep succeeding from the last published version.
  stop_readers.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  if (::testing::Test::HasFatalFailure()) {
    RemoveTree(dir);
    return;
  }
  auto view = db->GetReadView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->sequence(), seq_before_fault);
  auto smoke = db->RangeQuery(db->dataset().view(0), base_radius);
  ASSERT_TRUE(smoke.ok()) << smoke.status().ToString();
  RemoveTree(dir);
}

TEST(ConcurrentCloseTest, CloseRacesInFlightQueries) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 256, 63);
  auto db = MetricDB::Create(MetricDBConfig()
                                 .WithMetric("Linf")
                                 .WithIndex("LAESA")
                                 .WithPivots(4),
                             bd.data);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  const double base_radius = SampleRadius(db->dataset(), db->metric());
  std::atomic<uint64_t> ok_reads{0};
  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < ReaderThreads(); ++t) {
    readers.emplace_back([&, t] {
      Rng rng(kScriptSeed ^ (0x3000 + t));
      while (true) {
        std::vector<ObjectView> queries = {
            db->dataset().view(rng() % db->dataset().size())};
        StatusOr<QueryResult> got =
            db->Query(QueryRequest::RangeBatch(queries, base_radius));
        if (!got.ok()) {
          // The only acceptable failure is the typed closed refusal.
          ASSERT_EQ(got.status().code(), StatusCode::kFailedPrecondition)
              << got.status().ToString();
          return;
        }
        ASSERT_EQ(got->ids.size(), 1u);
        ok_reads.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  // Let every reader complete at least one query, then yank the rug.
  while (ok_reads.load(std::memory_order_acquire) < ReaderThreads()) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(db->Close().ok());
  for (std::thread& r : readers) r.join();

  EXPECT_FALSE(db->Query(QueryRequest::Range(db->dataset().view(0), 1)).ok());
  EXPECT_FALSE(db->GetReadView().ok());
  EXPECT_FALSE(db->Apply({UpdateOp::Remove(0)}).ok());
  EXPECT_TRUE(db->Close().ok());  // idempotent
}

// -- buffer pool under concurrent readers -------------------------------------

// The pool half of the concurrency acceptance, over every index: all of
// them share one deliberately tiny BufferPool while N reader threads
// batch-query each of them in turn and a poller thread reads pool stats
// the whole time.  Queries write no index member, so every reader must
// reproduce the serial reference's answers and per-query compdists
// exactly; pinned handles must keep every in-flight page alive through
// the constant cross-index eviction churn; and the run must be TSan-clean
// (the concurrent-stress CI job) -- which is what enforces the
// no-member-writes contract of the query hooks for every index.
TEST(ConcurrentPoolStressTest, ParallelBatchReadersShareOneTinyPool) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 300, 91);
  PivotSelectionOptions po;
  po.sample_size = 200;
  po.pair_sample = 120;
  PivotSet pivots = SelectSharedPivots(bd.data, *bd.metric, 4, po);

  IndexOptions opts;
  opts.seed = 7;
  // A handful of frames: far smaller than the disk indexes' page files,
  // so concurrent readers are constantly evicting each other's pages.
  // The disk-stress CI job narrows this to a single frame (and widens
  // it) through PMI_CACHE_BYTES.
  const size_t pool_bytes = std::max<size_t>(
      EnvU32("PMI_CACHE_BYTES", 8 * opts.page_size), opts.page_size);
  auto pool = std::make_shared<BufferPool>(opts.page_size, pool_bytes);
  opts.buffer_pool = pool;

  std::vector<std::unique_ptr<MetricIndex>> indexes;
  for (const IndexSpec& spec : AllIndexSpecs()) {
    indexes.push_back(MakeIndex(spec.name, opts));
    ASSERT_TRUE(indexes.back() != nullptr) << spec.name;
    indexes.back()->Build(bd.data, *bd.metric, pivots);
  }

  const double base_radius = SampleRadius(bd.data, *bd.metric);
  Rng rng(kScriptSeed ^ 0xb00);
  std::vector<ObjectView> queries;
  std::vector<double> radii;
  std::vector<size_t> ks;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(bd.data.view(rng() % bd.data.size()));
    radii.push_back(base_radius * (0.5 + 0.25 * (rng() % 4)));
    ks.push_back(1 + rng() % 8);
  }

  // One batch pair per index: sorted MRQ sets (so comparisons are
  // stable), kNN lists, and the per-query compdists of both.
  struct Answers {
    std::vector<std::vector<ObjectId>> mrq;
    std::vector<std::vector<Neighbor>> knn;
    std::vector<uint64_t> compdists;
  };
  auto answer = [&](const MetricIndex& index) {
    Answers a;
    std::vector<OpStats> mrq_stats;
    std::vector<OpStats> knn_stats;
    index.RangeQueryBatch(queries, radii, &a.mrq, &mrq_stats);
    for (std::vector<ObjectId>& ids : a.mrq) {
      std::sort(ids.begin(), ids.end());
    }
    index.KnnQueryBatch(queries, ks, &a.knn, &knn_stats);
    for (const OpStats& st : mrq_stats) {
      a.compdists.push_back(st.dist_computations);
    }
    for (const OpStats& st : knn_stats) {
      a.compdists.push_back(st.dist_computations);
    }
    return a;
  };
  // Serial warm-up replay: the reference every thread must reproduce.
  std::vector<Answers> refs;
  for (const auto& index : indexes) refs.push_back(answer(*index));

  std::atomic<bool> stop_poller{false};
  std::thread poller([&] {
    // Stats reads race the query threads by design; the accessor must
    // be internally synchronized and the counters monotone.
    uint64_t last_faults = 0;
    while (!stop_poller.load(std::memory_order_acquire)) {
      BufferPoolStats s = pool->stats();
      uint64_t faults = s.hits + s.misses;
      EXPECT_GE(faults, last_faults);
      EXPECT_LE(s.write_back_failures, 0u) << "healthy disk faulted";
      last_faults = faults;
      std::this_thread::yield();
    }
  });

  // Every thread visits every index, from staggered starting points, so
  // each index is queried by several threads while the others churn the
  // shared pool.
  const uint32_t kRoundsPerThread = 2;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < ReaderThreads(); ++t) {
    threads.emplace_back([&, t] {
      const size_t n = indexes.size();
      for (size_t step = 0; step < kRoundsPerThread * n; ++step) {
        const size_t i = (t + step) % n;
        const Answers got = answer(*indexes[i]);
        const std::string where = indexes[i]->name() + " thread " +
                                  std::to_string(t) + " step " +
                                  std::to_string(step);
        ASSERT_EQ(got.mrq, refs[i].mrq) << where;
        ASSERT_EQ(got.compdists, refs[i].compdists) << where;
        ASSERT_EQ(got.knn.size(), refs[i].knn.size()) << where;
        for (size_t qi = 0; qi < got.knn.size(); ++qi) {
          ASSERT_EQ(got.knn[qi].size(), refs[i].knn[qi].size()) << where;
          for (size_t j = 0; j < got.knn[qi].size(); ++j) {
            ASSERT_EQ(got.knn[qi][j].id, refs[i].knn[qi][j].id)
                << where << " query " << qi << " rank " << j;
            ASSERT_EQ(got.knn[qi][j].dist, refs[i].knn[qi][j].dist)
                << where << " query " << qi << " rank " << j;
          }
        }
      }
    });
  }
  for (std::thread& r : threads) r.join();
  stop_poller.store(true, std::memory_order_release);
  poller.join();
  if (::testing::Test::HasFatalFailure()) return;

  // The tiny pool really was under pressure, and nothing leaked a pin:
  // overcommit past capacity is bounded by the peak simultaneous pins
  // (a few handles per reader, times the batch engine's shards), never
  // by the number of iterations.
  BufferPoolStats s = pool->stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(pool->resident_frames(),
            pool->capacity_frames() + 16 * ReaderThreads());
  EXPECT_EQ(s.write_back_failures, 0u);
}

// -- a pinned view outlives its database --------------------------------------

/// One query's answers through a pinned view: range ids in result order,
/// kNN (id, distance) pairs, and each answer's compdists.
struct PinnedAnswer {
  std::vector<ObjectId> range;
  std::vector<std::pair<ObjectId, double>> knn;
  uint64_t range_compdists = 0;
  uint64_t knn_compdists = 0;

  bool operator==(const PinnedAnswer&) const = default;
};

std::vector<PinnedAnswer> AnswerAll(const MetricDB::ReadView& view,
                                    const std::vector<ObjectView>& queries,
                                    double radius) {
  std::vector<PinnedAnswer> out;
  for (const ObjectView& q : queries) {
    StatusOr<QueryResult> mrq = view.Query(QueryRequest::Range(q, radius));
    StatusOr<QueryResult> mknn = view.Query(QueryRequest::Knn(q, 5));
    EXPECT_TRUE(mrq.ok()) << mrq.status().ToString();
    EXPECT_TRUE(mknn.ok()) << mknn.status().ToString();
    if (!mrq.ok() || !mknn.ok()) return out;
    PinnedAnswer a;
    a.range = mrq->ids[0];
    for (const Neighbor& nb : mknn->neighbors[0]) {
      a.knn.emplace_back(nb.id, nb.dist);
    }
    a.range_compdists = mrq->stats.dist_computations;
    a.knn_compdists = mknn->stats.dist_computations;
    out.push_back(std::move(a));
  }
  return out;
}

class PinnedViewTest : public ::testing::TestWithParam<StressConfig> {};

// A ReadView co-owns its version: superseding that version, closing the
// database and destroying the facade leave the view's answers -- ids and
// per-query compdists -- exactly as recorded.  The view's last pass runs
// on a reader thread after the facade is gone, so that thread drops the
// final reference and frees the version; the sanitizer jobs check the
// free is neither early (ASan, TSan) nor missing (LeakSanitizer).
TEST_P(PinnedViewTest, OutlivesItsDatabase) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 256, 77);
  auto created = MetricDB::Create(MetricDBConfig()
                                      .WithMetric("Linf")
                                      .WithIndex(GetParam().index_name)
                                      .WithPivots(GetParam().pivots),
                                  bd.data);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto db = std::make_unique<MetricDB>(std::move(*created));

  // The queries view the test's own copy of the data, which outlives db.
  std::vector<ObjectView> queries;
  std::vector<UpdateOp> removals;
  for (ObjectId id = 0; id < bd.data.size(); id += 32) {
    queries.push_back(bd.data.view(id));
    removals.push_back(UpdateOp::Remove(id));
  }
  const double radius = SampleRadius(bd.data, db->metric());

  StatusOr<MetricDB::ReadView> view = db->GetReadView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const uint64_t pinned_seq = view->sequence();
  const std::vector<PinnedAnswer> recorded =
      AnswerAll(*view, queries, radius);
  ASSERT_EQ(recorded.size(), queries.size());

  // Supersede the pinned version: every query object leaves the data, so
  // the current version answers differently.
  ASSERT_TRUE(db->Apply(removals).ok());
  {
    StatusOr<MetricDB::ReadView> current = db->GetReadView();
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    ASSERT_GT(current->sequence(), pinned_seq);
    ASSERT_NE(AnswerAll(*current, queries, radius), recorded);
  }

  std::atomic<bool> db_gone{false};
  std::thread reader([&, pinned = std::move(*view)] {
    // One pass racing Close and destruction, one after the facade is gone.
    EXPECT_EQ(AnswerAll(pinned, queries, radius), recorded);
    while (!db_gone.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    EXPECT_EQ(pinned.sequence(), pinned_seq);
    EXPECT_EQ(AnswerAll(pinned, queries, radius), recorded);
  });
  EXPECT_TRUE(db->Close().ok());
  db.reset();
  db_gone.store(true, std::memory_order_release);
  reader.join();
}

INSTANTIATE_TEST_SUITE_P(ClonableIndexes, PinnedViewTest,
                         ::testing::ValuesIn(AllIndexConfigs()),
                         IndexParamName);

// -- directory LOCK file ------------------------------------------------------

MetricDBConfig LockTestConfig() {
  return MetricDBConfig().WithMetric("Linf").WithIndex("LAESA").WithPivots(3);
}

TEST(LockFileTest, SecondOpenWhileHeldIsRefused) {
  const std::string dir = NewDir("lock_held");
  RemoveTree(dir);
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 120, 5);
  auto db = MetricDB::CreateDurable(LockTestConfig(), bd.data, dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(Env::Default()->FileExists(JoinPath(dir, "LOCK")));

  auto second = MetricDB::OpenDurable(dir);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition)
      << second.status().ToString();

  // Close releases the lock; the next open succeeds and re-takes it.
  ASSERT_TRUE(db->Close().ok());
  EXPECT_FALSE(Env::Default()->FileExists(JoinPath(dir, "LOCK")));
  auto third = MetricDB::OpenDurable(dir);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(Env::Default()->FileExists(JoinPath(dir, "LOCK")));
  ASSERT_TRUE(third->Close().ok());
  RemoveTree(dir);
}

TEST(LockFileTest, ForeignLiveOwnerIsRefusedWithTypedStatus) {
  const std::string dir = NewDir("lock_foreign");
  RemoveTree(dir);
  ASSERT_TRUE(Env::Default()->CreateDir(dir).ok());
  // pid 1 is init: always alive, never us.
  ASSERT_TRUE(
      Env::Default()->CreateExclusive(JoinPath(dir, "LOCK"), "pid 1\n").ok());

  auto opened = MetricDB::OpenDurable(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(opened.status().message().find("locked by process 1"),
            std::string::npos)
      << opened.status().ToString();
  RemoveTree(dir);
}

TEST(LockFileTest, StaleLocksAreBrokenAndReacquired) {
  const std::string dir = NewDir("lock_stale");
  RemoveTree(dir);
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 120, 7);
  {
    auto db = MetricDB::CreateDurable(LockTestConfig(), bd.data, dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Close().ok());
  }

  // A dead pid (way beyond any real pid space) and an unparsable LOCK
  // both count as stale: protected by nobody, broken and re-acquired.
  for (const char* contents : {"pid 999999999\n", "garbage"}) {
    ASSERT_TRUE(
        Env::Default()->CreateExclusive(JoinPath(dir, "LOCK"), contents).ok());
    auto opened = MetricDB::OpenDurable(dir);
    ASSERT_TRUE(opened.ok())
        << "LOCK contents \"" << contents
        << "\": " << opened.status().ToString();
    ASSERT_TRUE(opened->Close().ok());
    EXPECT_FALSE(Env::Default()->FileExists(JoinPath(dir, "LOCK")));
  }
  RemoveTree(dir);
}

TEST(LockFileTest, SameProcessReopenAfterSimulatedCrash) {
  const std::string dir = NewDir("lock_crash");
  RemoveTree(dir);
  FaultInjectingEnv fenv(Env::Default());
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 120, 9);

  DurabilityOptions dopts;
  dopts.env = &fenv;
  uint64_t acked_seq = 0;
  {
    auto db = MetricDB::CreateDurable(LockTestConfig(), bd.data, dir, dopts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Remove(3).ok());
    acked_seq = db->last_sequence();

    // Power loss mid-append: the env goes down, so the destructor's LOCK
    // removal fails silently and the file survives naming OUR live pid.
    FaultPlan plan;
    plan.kind = FaultKind::kTornWrite;
    plan.trigger = 0;  // Arm resets the mutation counter
    plan.seed = 11;
    fenv.Arm(plan);
    EXPECT_FALSE(db->Remove(4).ok());
    EXPECT_TRUE(fenv.crashed());
  }
  EXPECT_TRUE(Env::Default()->FileExists(JoinPath(dir, "LOCK")));

  // Reopen in the same process through a clean Env: the same-pid LOCK is
  // stale by definition (we are running, so we did not die holding it --
  // it can only be crash debris).
  auto reopened = MetricDB::OpenDurable(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE(reopened->last_sequence(), acked_seq);
  EXPECT_FALSE(reopened->alive(3));
  ASSERT_TRUE(reopened->Close().ok());
  RemoveTree(dir);
}

}  // namespace
}  // namespace pmi
