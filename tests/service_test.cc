// Sharded service conformance.
//
// The scatter/gather acceptance harness: a ShardedService partitioned
// across {1, 2, 4, 7} shards must answer MRQ and MkNN batches
// bit-identically to a single unsharded MetricDB oracle built from the
// same data and config -- exact id sets for MRQ (ascending global id),
// exact (distance, id) sequences for MkNN -- before and after routed
// update batches -- every index at 4 shards, LAESA and MVPT at every
// shard count.  That exactness leans on the KnnHeap (distance, id)
// tie-break (canonical min-k independent of visit order), covered here
// directly.
//
// Also covered: admission control (queue full => typed
// kResourceExhausted, no deadlock, service keeps serving after the
// burst; deadline 0 or a deadline passed while waiting => typed
// kDeadlineExceeded without running; Close waits for admitted requests;
// zero workers or max_queue => kInvalidArgument), per-shard write-fault
// degradation (one shard read-only, others unaffected), and the durable
// round trip (SERVICE meta + per-shard dirs reopen to the same state).
//
// Knobs: PMI_STRESS_THREADS (overload client count, default 4).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/metric_db.h"
#include "src/core/rng.h"
#include "src/data/generators.h"
#include "src/harness/registry.h"
#include "src/harness/workload.h"
#include "src/service/sharded_service.h"
#include "src/storage/env.h"
#include "src/storage/fault_env.h"

namespace pmi {
namespace {

constexpr uint64_t kSeed = 20260809;

std::string NewDir(const std::string& name) {
  return ::testing::TempDir() + "pmi_svc_" + name;
}

// Service directories nest shard directories: depth-2 removal.
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

double SampleRadius(const Dataset& data, const Metric& metric) {
  PerfCounters scratch;
  DistanceComputer d(&metric, &scratch);
  std::vector<double> sample;
  Rng rng(kSeed ^ 0xfeed);
  for (int i = 0; i < 64; ++i) {
    ObjectId a = rng() % data.size();
    ObjectId b = rng() % data.size();
    if (a != b) sample.push_back(d(data.view(a), data.view(b)));
  }
  std::sort(sample.begin(), sample.end());
  return sample[sample.size() / 2];
}

/// Asserts that the service answers `queries` bit-identically to the
/// unsharded oracle: MRQ as exact ascending-id sets, MkNN as exact
/// (distance, id) sequences.
void ExpectBitIdentical(const MetricDB& oracle, const ShardedService& svc,
                        const std::vector<ObjectView>& queries,
                        const std::vector<double>& radii,
                        const std::vector<size_t>& ks) {
  StatusOr<QueryResult> omrq =
      oracle.Query(QueryRequest::RangeBatch(queries, radii));
  StatusOr<QueryResult> smrq =
      svc.Query(QueryRequest::RangeBatch(queries, radii));
  ASSERT_TRUE(omrq.ok()) << omrq.status().ToString();
  ASSERT_TRUE(smrq.ok()) << smrq.status().ToString();
  ASSERT_EQ(smrq->ids.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<ObjectId> want = omrq->ids[q];
    std::sort(want.begin(), want.end());
    ASSERT_EQ(smrq->ids[q], want) << "MRQ mismatch at query " << q;
  }

  StatusOr<QueryResult> oknn = oracle.Query(QueryRequest::KnnBatch(queries, ks));
  StatusOr<QueryResult> sknn = svc.Query(QueryRequest::KnnBatch(queries, ks));
  ASSERT_TRUE(oknn.ok()) << oknn.status().ToString();
  ASSERT_TRUE(sknn.ok()) << sknn.status().ToString();
  ASSERT_EQ(sknn->neighbors.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<Neighbor>& want = oknn->neighbors[q];
    const std::vector<Neighbor>& got = sknn->neighbors[q];
    ASSERT_EQ(got.size(), want.size()) << "MkNN size mismatch at query " << q;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id)
          << "MkNN id mismatch at query " << q << " rank " << i;
      ASSERT_EQ(got[i].dist, want[i].dist)
          << "MkNN distance mismatch at query " << q << " rank " << i;
    }
  }
}

struct EqConfig {
  std::string index_name;
  uint32_t shards;
};

class ServiceEquivalenceTest : public ::testing::TestWithParam<EqConfig> {};

TEST_P(ServiceEquivalenceTest, ScatterGatherMatchesUnshardedOracle) {
  const EqConfig& param = GetParam();
  const uint32_t n = 240;
  MetricDBConfig config = MetricDBConfig()
                              .WithMetric("Linf")
                              .WithIndex(param.index_name)
                              .WithPivots(4);

  // Same deterministic dataset for oracle and service.
  BenchDataset obd = MakeBenchDataset(BenchDatasetId::kSynthetic, n, 4242);
  BenchDataset sbd = MakeBenchDataset(BenchDatasetId::kSynthetic, n, 4242);
  StatusOr<MetricDB> oracle = MetricDB::Create(config, std::move(obd.data));
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  ServiceOptions sopts;
  sopts.num_shards = param.shards;
  sopts.workers = 3;
  sopts.max_queue = 64;
  auto svc_or = ShardedService::Create(config, std::move(sbd.data), sopts);
  ASSERT_TRUE(svc_or.ok()) << svc_or.status().ToString();
  std::unique_ptr<ShardedService> svc = std::move(*svc_or);

  // Router sanity: every object owned exactly once.
  uint32_t total = 0;
  for (uint32_t s : svc->shard_sizes()) {
    EXPECT_GE(s, 1u);
    total += s;
  }
  EXPECT_EQ(total, n);

  const Dataset& data = oracle->dataset();
  const double base_radius = SampleRadius(data, oracle->metric());
  Rng rng(kSeed);
  auto check = [&] {
    std::vector<ObjectView> queries;
    std::vector<double> radii;
    std::vector<size_t> ks;
    for (int i = 0; i < 8; ++i) {
      queries.push_back(data.view(rng() % n));
      radii.push_back(base_radius * (0.5 + 0.25 * (rng() % 4)));
      ks.push_back(1 + rng() % 10);
    }
    ExpectBitIdentical(*oracle, *svc, queries, radii, ks);
  };

  check();
  if (::testing::Test::HasFatalFailure()) return;

  // Routed updates: the same op stream applied to both sides (global
  // ids; the service rewrites to shard-local ids internally).
  std::vector<uint8_t> live(n, 1);
  for (int round = 0; round < 25; ++round) {
    std::vector<UpdateOp> ops;
    for (int i = 0; i < 4; ++i) {
      ObjectId id = rng() % n;
      if (live[id] != 0) {
        ops.push_back(UpdateOp::Remove(id));
        live[id] = 0;
      } else {
        ops.push_back(UpdateOp::Insert(id));
        live[id] = 1;
      }
    }
    ASSERT_TRUE(oracle->Apply(ops).ok());
    StatusOr<ApplyResult> applied = svc->Apply(ops);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_TRUE(applied->all_ok()) << applied->Collapse().ToString();
  }
  for (ObjectId id = 0; id < n; ++id) {
    ASSERT_EQ(svc->alive(id), live[id] != 0) << "object " << id;
    ASSERT_EQ(oracle->alive(id), svc->alive(id)) << "object " << id;
  }
  check();
  if (::testing::Test::HasFatalFailure()) return;

  // The direct (admission-bypassing) ReadView path answers the same.
  auto view = svc->GetReadView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->sequences(), svc->sequences());
  std::vector<ObjectView> queries{data.view(1), data.view(7)};
  StatusOr<QueryResult> via_view =
      view->Query(QueryRequest::KnnBatch(queries, size_t{5}));
  StatusOr<QueryResult> via_svc =
      svc->Query(QueryRequest::KnnBatch(queries, size_t{5}));
  ASSERT_TRUE(via_view.ok());
  ASSERT_TRUE(via_svc.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(via_view->neighbors[q].size(), via_svc->neighbors[q].size());
    for (size_t i = 0; i < via_view->neighbors[q].size(); ++i) {
      EXPECT_EQ(via_view->neighbors[q][i].id, via_svc->neighbors[q][i].id);
      EXPECT_EQ(via_view->neighbors[q][i].dist, via_svc->neighbors[q][i].dist);
    }
  }
}

std::string EqConfigName(const ::testing::TestParamInfo<EqConfig>& info) {
  std::string name = info.param.index_name;
  for (char& c : name) {
    if (c == '*') c = 'S';
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "x" + std::to_string(info.param.shards);
}

INSTANTIATE_TEST_SUITE_P(
    ShardCounts, ServiceEquivalenceTest,
    ::testing::Values(EqConfig{"LAESA", 1}, EqConfig{"LAESA", 2},
                      EqConfig{"LAESA", 4}, EqConfig{"LAESA", 7},
                      EqConfig{"MVPT", 1}, EqConfig{"MVPT", 2},
                      EqConfig{"MVPT", 4}, EqConfig{"MVPT", 7}),
    EqConfigName);

/// Every survey index plus LinearScan at 4 shards: each one's shards
/// answer through pinned ReadViews.
std::vector<EqConfig> AllIndexesAtFourShards() {
  std::vector<EqConfig> configs{EqConfig{"LinearScan", 4}};
  for (const IndexSpec& spec : AllIndexSpecs()) {
    configs.push_back(EqConfig{spec.name, 4});
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, ServiceEquivalenceTest,
                         ::testing::ValuesIn(AllIndexesAtFourShards()),
                         EqConfigName);

// -- kNN tie determinism ------------------------------------------------------

// Every index must return the minimum k of the (distance, id) total
// order, independent of candidate visit order.  Duplicated points force
// equal-distance ties at every rank.
TEST(KnnTieBreakTest, EqualDistancesOrderByIdAcrossIndexes) {
  Dataset data = Dataset::Vectors(4);
  Rng rng(kSeed);
  for (int i = 0; i < 60; ++i) {
    float coords[4];
    for (float& c : coords) c = float(rng() % 5);
    // Three copies of every point: ids i*3, i*3+1, i*3+2 tie exactly.
    for (int copy = 0; copy < 3; ++copy) {
      data.Add(ObjectView::FromVector(coords, 4));
    }
  }
  const uint32_t n = data.size();

  for (const char* index_name : {"LinearScan", "LAESA", "MVPT", "VPT"}) {
    // Rebuild the dataset per index (Create consumes its argument).
    Dataset copy = Dataset::Vectors(4);
    for (ObjectId id = 0; id < n; ++id) copy.Add(data.view(id));
    StatusOr<MetricDB> db = MetricDB::Create(MetricDBConfig()
                                                 .WithMetric("Linf")
                                                 .WithIndex(index_name)
                                                 .WithPivots(4),
                                             std::move(copy));
    ASSERT_TRUE(db.ok()) << index_name << ": " << db.status().ToString();

    PerfCounters scratch;
    DistanceComputer d(&db->metric(), &scratch);
    Rng qrng(kSeed ^ 7);
    for (int qi = 0; qi < 12; ++qi) {
      ObjectView q = data.view(qrng() % n);
      const size_t k = 2 + qrng() % 9;
      StatusOr<QueryResult> got = db->KnnQuery(q, k);
      ASSERT_TRUE(got.ok());
      std::vector<Neighbor> want;
      for (ObjectId id = 0; id < n; ++id) {
        want.push_back({id, d(q, db->dataset().view(id))});
      }
      std::sort(want.begin(), want.end());
      want.resize(std::min(k, want.size()));
      const std::vector<Neighbor>& res = got->neighbors[0];
      ASSERT_EQ(res.size(), want.size()) << index_name;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(res[i].id, want[i].id)
            << index_name << " query " << qi << " rank " << i
            << " (dist " << res[i].dist << ")";
        ASSERT_EQ(res[i].dist, want[i].dist) << index_name;
      }
    }
  }
}

// -- admission control --------------------------------------------------------

std::unique_ptr<ShardedService> MakeAdmissionService(uint32_t workers,
                                                     uint32_t max_queue) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 4096, 99);
  ServiceOptions sopts;
  sopts.num_shards = 2;
  sopts.workers = workers;
  sopts.max_queue = max_queue;
  auto svc = ShardedService::Create(MetricDBConfig()
                                        .WithMetric("Linf")
                                        .WithIndex("LinearScan")
                                        .WithPivots(2),
                                    std::move(bd.data), sopts);
  EXPECT_TRUE(svc.ok()) << svc.status().ToString();
  return svc.ok() ? std::move(*svc) : nullptr;
}

QueryRequest HeavyRequest(const Dataset& data) {
  std::vector<ObjectView> queries;
  for (ObjectId id = 0; id < 256; ++id) queries.push_back(data.view(id));
  return QueryRequest::KnnBatch(std::move(queries), size_t{16});
}

/// Polls `pred` for up to ~2 s; returns its final value.
template <typename Pred>
bool WaitUntil(Pred pred) {
  for (int spin = 0; spin < 20000 && !pred(); ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return pred();
}

TEST(AdmissionTest, QueueFullReturnsResourceExhaustedAndRecovers) {
  std::unique_ptr<ShardedService> svc = MakeAdmissionService(/*workers=*/1,
                                                             /*max_queue=*/1);
  ASSERT_NE(svc, nullptr);
  BenchDataset qbd = MakeBenchDataset(BenchDatasetId::kSynthetic, 4096, 99);
  const QueryRequest heavy = HeavyRequest(qbd.data);

  auto wait_until = [&](auto pred) {
    for (int spin = 0; spin < 20000 && !pred(); ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return pred();
  };

  bool saw_rejection = false;
  for (int attempt = 0; attempt < 8 && !saw_rejection; ++attempt) {
    // Occupy the single worker, then fill the single queue slot.
    std::thread blocker([&] { ASSERT_TRUE(svc->Query(heavy).ok()); });
    ASSERT_TRUE(wait_until(
        [&] { return svc->stats().admission.in_flight >= 1; }));
    std::thread filler([&] { (void)svc->Query(heavy); });
    ASSERT_TRUE(
        wait_until([&] { return svc->stats().admission.depth >= 1; }));

    StatusOr<QueryResult> refused = svc->Query(heavy);
    if (!refused.ok()) {
      EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
          << refused.status().ToString();
      saw_rejection = true;
    }
    blocker.join();
    filler.join();
  }
  EXPECT_TRUE(saw_rejection) << "queue never refused while provably full";
  EXPECT_GE(svc->stats().admission.rejected, 1u);

  // The burst is over: the service keeps serving.
  StatusOr<QueryResult> after =
      svc->Query(QueryRequest::Knn(qbd.data.view(0), 3));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->neighbors[0].size(), 3u);
}

TEST(AdmissionTest, ConcurrentBurstNeverDeadlocksAndFailuresAreTyped) {
  std::unique_ptr<ShardedService> svc = MakeAdmissionService(/*workers=*/2,
                                                             /*max_queue=*/2);
  ASSERT_NE(svc, nullptr);
  BenchDataset qbd = MakeBenchDataset(BenchDatasetId::kSynthetic, 4096, 99);

  const uint32_t clients = std::max(EnvU32("PMI_STRESS_THREADS", 4), 2u);
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> rejected_count{0};
  std::atomic<uint64_t> untyped_failures{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(kSeed ^ t);
      for (int i = 0; i < 40; ++i) {
        StatusOr<QueryResult> r =
            svc->Query(QueryRequest::Knn(qbd.data.view(rng() % 4096), 4));
        if (r.ok()) {
          ok_count.fetch_add(1);
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          rejected_count.fetch_add(1);
        } else {
          untyped_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(untyped_failures.load(), 0u);
  EXPECT_GE(ok_count.load(), 1u);
  // Every request is accounted for: served or typed-rejected.
  EXPECT_EQ(ok_count.load() + rejected_count.load(), uint64_t(clients) * 40);
}

TEST(AdmissionTest, ExpiredDeadlineIsTyped) {
  std::unique_ptr<ShardedService> svc = MakeAdmissionService(/*workers=*/2,
                                                             /*max_queue=*/8);
  ASSERT_NE(svc, nullptr);
  BenchDataset qbd = MakeBenchDataset(BenchDatasetId::kSynthetic, 4096, 99);

  RequestOptions expired;
  expired.deadline_ms = 0;  // already expired at submission
  StatusOr<QueryResult> q =
      svc->Query(QueryRequest::Knn(qbd.data.view(0), 3), expired);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kDeadlineExceeded)
      << q.status().ToString();

  StatusOr<ApplyResult> a = svc->Apply({UpdateOp::Remove(0)}, expired);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(svc->stats().deadline_expired, 2u);

  // No deadline: same requests succeed.
  StatusOr<QueryResult> q2 = svc->Query(QueryRequest::Knn(qbd.data.view(0), 3));
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_TRUE(svc->alive(0));
}

TEST(AdmissionTest, DeadlinePassedWhileWaitingFailsFastOnItsTurn) {
  std::unique_ptr<ShardedService> svc = MakeAdmissionService(/*workers=*/1,
                                                             /*max_queue=*/4);
  ASSERT_NE(svc, nullptr);
  BenchDataset qbd = MakeBenchDataset(BenchDatasetId::kSynthetic, 4096, 99);
  const QueryRequest heavy = HeavyRequest(qbd.data);
  RequestOptions short_deadline;
  short_deadline.deadline_ms = 1;

  // Valid attempts only: the short request must still be waiting behind
  // the blocker after its deadline passed.
  bool waited_past_deadline = false;
  for (int attempt = 0; attempt < 8 && !waited_past_deadline; ++attempt) {
    const uint64_t expired_before = svc->stats().deadline_expired;
    std::thread blocker([&] { ASSERT_TRUE(svc->Query(heavy).ok()); });
    ASSERT_TRUE(WaitUntil(
        [&] { return svc->stats().admission.in_flight >= 1; }));
    std::optional<StatusOr<QueryResult>> waiter;
    std::thread waiting([&] {
      waiter = svc->Query(QueryRequest::Knn(qbd.data.view(0), 3),
                          short_deadline);
    });
    if (WaitUntil([&] { return svc->stats().admission.depth >= 1; })) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      const AdmissionQueue::Stats st = svc->stats().admission;
      waited_past_deadline = st.in_flight == 1 && st.depth == 1;
    }
    blocker.join();
    waiting.join();
    if (!waited_past_deadline) continue;
    ASSERT_TRUE(waiter.has_value());
    ASSERT_FALSE(waiter->ok()) << "ran although its deadline had passed";
    EXPECT_EQ(waiter->status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(waiter->status().message(),
              "request deadline expired while queued");
    EXPECT_GT(svc->stats().deadline_expired, expired_before);
  }
  EXPECT_TRUE(waited_past_deadline)
      << "the blocker never outlasted the waiting request's deadline";
}

TEST(AdmissionTest, CloseWaitsForRunningAndWaitingRequests) {
  BenchDataset qbd = MakeBenchDataset(BenchDatasetId::kSynthetic, 4096, 99);
  const QueryRequest heavy = HeavyRequest(qbd.data);

  bool closed_with_both = false;
  for (int attempt = 0; attempt < 8 && !closed_with_both; ++attempt) {
    std::unique_ptr<ShardedService> svc =
        MakeAdmissionService(/*workers=*/1, /*max_queue=*/4);
    ASSERT_NE(svc, nullptr);
    std::optional<StatusOr<QueryResult>> running;
    std::optional<StatusOr<QueryResult>> waiting;
    std::thread first([&] { running = svc->Query(heavy); });
    ASSERT_TRUE(WaitUntil(
        [&] { return svc->stats().admission.in_flight >= 1; }));
    std::thread second([&] { waiting = svc->Query(heavy); });
    closed_with_both =
        WaitUntil([&] { return svc->stats().admission.depth >= 1; });
    if (closed_with_both) {
      ASSERT_TRUE(svc->Close().ok());
      const AdmissionQueue::Stats st = svc->stats().admission;
      EXPECT_EQ(st.in_flight, 0u);
      EXPECT_EQ(st.depth, 0u);
      EXPECT_EQ(st.executed, 2u) << "Close returned before both finished";
    }
    first.join();
    second.join();
    if (!closed_with_both) continue;
    ASSERT_TRUE(running.has_value() && waiting.has_value());
    EXPECT_TRUE(running->ok()) << running->status().ToString();
    EXPECT_TRUE(waiting->ok()) << waiting->status().ToString();

    StatusOr<QueryResult> after =
        svc->Query(QueryRequest::Knn(qbd.data.view(0), 3));
    ASSERT_FALSE(after.ok());
    EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition)
        << after.status().ToString();
  }
  EXPECT_TRUE(closed_with_both)
      << "the second request never waited behind the first";
}

TEST(AdmissionTest, ZeroWorkersOrMaxQueueIsInvalidArgument) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 64, 5);
  const MetricDBConfig config =
      MetricDBConfig().WithMetric("Linf").WithIndex("LinearScan");
  for (bool zero_workers : {true, false}) {
    ServiceOptions sopts;
    sopts.num_shards = 2;
    (zero_workers ? sopts.workers : sopts.max_queue) = 0;
    auto created = ShardedService::Create(config, bd.data, sopts);
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
        << created.status().ToString();
    auto opened = ShardedService::OpenDurable(NewDir("never_created"), sopts);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
        << opened.status().ToString();
  }
}

// -- per-shard degradation ----------------------------------------------------

TEST(ServiceFaultTest, OneShardWriteFaultDegradesOnlyThatShard) {
  const std::string dir = NewDir("fault");
  RemoveTree(dir);
  FaultInjectingEnv fenv(Env::Default());
  DurabilityOptions dopts;
  dopts.env = &fenv;

  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 200, 11);
  ServiceOptions sopts;
  sopts.num_shards = 4;
  sopts.workers = 2;
  sopts.max_queue = 16;
  auto svc_or = ShardedService::CreateDurable(MetricDBConfig()
                                                  .WithMetric("Linf")
                                                  .WithIndex("LAESA")
                                                  .WithPivots(4),
                                              std::move(bd.data), dir, sopts,
                                              dopts);
  ASSERT_TRUE(svc_or.ok()) << svc_or.status().ToString();
  std::unique_ptr<ShardedService> svc = std::move(*svc_or);

  // Arm a sync failure and hit shard 2 only: the batch's WAL commit is
  // the next durability mutation (kFailedSync leaves the env alive, so
  // nothing else is affected).
  const uint32_t victim = 2;
  fenv.Arm({FaultKind::kFailedSync, /*trigger=*/0, /*seed=*/kSeed});
  std::vector<UpdateOp> ops;
  ops.push_back(UpdateOp::Remove(svc->router().members(victim)[0]));
  ops.push_back(UpdateOp::Remove(svc->router().members(victim)[1]));
  StatusOr<ApplyResult> faulted = svc->Apply(ops);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  ASSERT_TRUE(fenv.triggered());
  EXPECT_FALSE(faulted->all_ok());
  EXPECT_EQ(faulted->shard_status[victim].code(), StatusCode::kUnavailable)
      << faulted->shard_status[victim].ToString();

  // The victim is read-only (typed), every other shard keeps committing.
  std::vector<Status> ws = svc->write_statuses();
  for (uint32_t s = 0; s < 4; ++s) {
    if (s == victim) {
      EXPECT_FALSE(ws[s].ok());
    } else {
      EXPECT_TRUE(ws[s].ok()) << "shard " << s << ": " << ws[s].ToString();
      Status healthy = svc->Remove(svc->router().members(s)[0]);
      EXPECT_TRUE(healthy.ok()) << healthy.ToString();
    }
  }
  // Later updates to the victim are refused with its sticky status.
  Status refused = svc->Remove(svc->router().members(victim)[0]);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ws[victim].code()) << refused.ToString();

  // Reads still gather all shards, including the read-only one -- and
  // the faulted batch is invisible (all-or-nothing per shard).
  EXPECT_TRUE(svc->alive(svc->router().members(victim)[0]));
  BenchDataset qbd = MakeBenchDataset(BenchDatasetId::kSynthetic, 200, 11);
  StatusOr<QueryResult> q =
      svc->Query(QueryRequest::Knn(qbd.data.view(3), 8));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->neighbors[0].size(), 8u);

  svc.reset();
  RemoveTree(dir);
}

// -- durable round trip -------------------------------------------------------

TEST(ServiceDurabilityTest, ReopensEveryShardToTheSameState) {
  const std::string dir = NewDir("reopen");
  RemoveTree(dir);

  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 180, 33);
  MetricDBConfig config =
      MetricDBConfig().WithMetric("Linf").WithIndex("LAESA").WithPivots(4);
  ServiceOptions sopts;
  sopts.num_shards = 4;
  sopts.workers = 2;
  sopts.max_queue = 16;
  auto created = ShardedService::CreateDurable(config, std::move(bd.data), dir,
                                               sopts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedService> svc = std::move(*created);

  std::vector<uint8_t> live(180, 1);
  Rng rng(kSeed ^ 0xd00d);
  for (int round = 0; round < 12; ++round) {
    std::vector<UpdateOp> ops;
    for (int i = 0; i < 3; ++i) {
      ObjectId id = rng() % 180;
      if (live[id] != 0) {
        ops.push_back(UpdateOp::Remove(id));
        live[id] = 0;
      } else {
        ops.push_back(UpdateOp::Insert(id));
        live[id] = 1;
      }
    }
    StatusOr<ApplyResult> applied = svc->Apply(ops);
    ASSERT_TRUE(applied.ok() && applied->all_ok());
  }
  const std::vector<uint64_t> sequences = svc->sequences();
  ASSERT_TRUE(svc->Close().ok());
  svc.reset();

  auto reopened = ShardedService::OpenDurable(dir, sopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_shards(), 4u);
  EXPECT_EQ((*reopened)->sequences(), sequences);
  for (ObjectId id = 0; id < 180; ++id) {
    ASSERT_EQ((*reopened)->alive(id), live[id] != 0) << "object " << id;
  }

  // Recovered shards answer like a fresh oracle over the same liveness.
  BenchDataset obd = MakeBenchDataset(BenchDatasetId::kSynthetic, 180, 33);
  StatusOr<MetricDB> oracle = MetricDB::Create(config, std::move(obd.data));
  ASSERT_TRUE(oracle.ok());
  std::vector<UpdateOp> sync_ops;
  for (ObjectId id = 0; id < 180; ++id) {
    if (live[id] == 0) sync_ops.push_back(UpdateOp::Remove(id));
  }
  ASSERT_TRUE(oracle->Apply(sync_ops).ok());
  BenchDataset qbd = MakeBenchDataset(BenchDatasetId::kSynthetic, 180, 33);
  std::vector<ObjectView> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(qbd.data.view(i * 17));
  ExpectBitIdentical(*oracle, **reopened, queries,
                     std::vector<double>(queries.size(),
                                         SampleRadius(qbd.data, oracle->metric())),
                     std::vector<size_t>(queries.size(), 7));

  ASSERT_TRUE((*reopened)->Close().ok());
  reopened->reset();
  RemoveTree(dir);
}

// -- SERVICE meta damage ------------------------------------------------------
//
// Degenerate meta files must come back as typed errors, mirroring the
// snapshot damage suite: kDataLoss for anything mangled, and
// kFailedPrecondition for a version this build does not speak.  Never a
// crash, never a service with a bogus router.
class ServiceMetaDamageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = NewDir("meta_damage");
    RemoveTree(dir_);
    BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 96, 17);
    MetricDBConfig config =
        MetricDBConfig().WithMetric("Linf").WithIndex("LAESA").WithPivots(4);
    sopts_.num_shards = 3;
    sopts_.workers = 2;
    sopts_.max_queue = 8;
    auto created =
        ShardedService::CreateDurable(config, std::move(bd.data), dir_, sopts_);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE((*created)->Close().ok());
    StatusOr<std::string> meta =
        Env::Default()->ReadFileToString(JoinPath(dir_, "SERVICE"));
    ASSERT_TRUE(meta.ok());
    pristine_ = *meta;
  }

  void TearDown() override { RemoveTree(dir_); }

  void Rewrite(const std::string& contents) {
    auto file = Env::Default()->NewWritableFile(JoinPath(dir_, "SERVICE"));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(contents).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  StatusCode Reopen() {
    auto reopened = ShardedService::OpenDurable(dir_, sopts_);
    if (!reopened.ok()) return reopened.status().code();
    (void)(*reopened)->Close();
    return StatusCode::kOk;
  }

  std::string dir_;
  std::string pristine_;
  ServiceOptions sopts_;
};

TEST_F(ServiceMetaDamageTest, PristineMetaReopens) {
  EXPECT_EQ(Reopen(), StatusCode::kOk);
}

TEST_F(ServiceMetaDamageTest, EmptyMetaIsDataLoss) {
  Rewrite("");
  EXPECT_EQ(Reopen(), StatusCode::kDataLoss);
}

TEST_F(ServiceMetaDamageTest, EveryTruncationIsTyped) {
  for (size_t len = 1; len < pristine_.size(); ++len) {
    Rewrite(pristine_.substr(0, len));
    const StatusCode code = Reopen();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kFailedPrecondition)
        << "truncation at " << len << " -> " << StatusCodeName(code);
  }
}

TEST_F(ServiceMetaDamageTest, EveryBitFlipIsTypedOrHarmless) {
  // A flip anywhere in the body must be caught by the CRC; a flip in
  // the checksum line itself mismatches the body.  (kOk is impossible:
  // every byte is covered one way or the other.)
  for (size_t pos = 0; pos < pristine_.size(); ++pos) {
    for (int bit : {0, 3, 7}) {
      std::string bad = pristine_;
      bad[pos] = static_cast<char>(bad[pos] ^ (1u << bit));
      Rewrite(bad);
      const StatusCode code = Reopen();
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kFailedPrecondition)
          << "bit " << bit << " at byte " << pos << " -> " << StatusCodeName(code);
    }
  }
}

TEST_F(ServiceMetaDamageTest, FutureVersionIsFailedPrecondition) {
  Rewrite("pmi-sharded-service v3\nshards 3\nobjects 96\nwhatever\n");
  EXPECT_EQ(Reopen(), StatusCode::kFailedPrecondition);
}

TEST_F(ServiceMetaDamageTest, ImplausibleCountsAreDataLoss) {
  // Valid v1 syntax (no checksum to catch it), absurd semantics: more
  // shards than objects can never have been written by CreateDurable.
  Rewrite("pmi-sharded-service v1\nshards 64\nobjects 3\n");
  EXPECT_EQ(Reopen(), StatusCode::kDataLoss);
}

// -- deadline propagation -----------------------------------------------------

TEST(DeadlineBudgetTest, ExpiresMidShardNotJustAtDispatch) {
  // One shard, one fat LinearScan batch: the only place the deadline
  // can trip is INSIDE per-shard execution, between chunks.  A service
  // that checks only at dequeue/dispatch would serve the whole batch
  // and overrun the budget instead of returning the typed error.
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, 4096, 91);
  const Dataset data = bd.data;
  MetricDBConfig config = MetricDBConfig().WithMetric("L2").WithIndex("LinearScan");
  ServiceOptions sopts;
  sopts.num_shards = 1;
  sopts.workers = 1;
  sopts.max_queue = 4;
  auto created = ShardedService::Create(config, std::move(bd.data), sopts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedService> svc = std::move(*created);

  std::vector<ObjectView> queries;
  for (int i = 0; i < 2048; ++i) queries.push_back(data.view(i % 4096));
  RequestOptions opts;

  // The batch with room to breathe answers fully.  Its wall time sets the
  // tight budget below, so neither a slow worker wake-up nor a fast host
  // can move the expiry out of the shard: a quarter of the run is far
  // longer than the wake-up, and far shorter than the 64 chunks.
  opts.deadline_ms = 60000;
  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<QueryResult> ok =
      svc->Query(QueryRequest::KnnBatch(queries, size_t{8}), opts);
  const double full_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(svc->stats().deadline_expired, 0u);

  opts.deadline_ms = full_ms / 4;
  StatusOr<QueryResult> r =
      svc->Query(QueryRequest::KnnBatch(queries, size_t{8}), opts);
  ASSERT_FALSE(r.ok()) << "a " << *opts.deadline_ms
                       << " ms budget cannot cover a " << full_ms
                       << " ms batch";
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("mid-shard"), std::string::npos)
      << r.status().ToString();
  EXPECT_GE(svc->stats().deadline_expired, 1u);
  EXPECT_TRUE(svc->Close().ok());
}

}  // namespace
}  // namespace pmi
