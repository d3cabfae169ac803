// Thread-count invariance of the parallel execution engine.
//
// The engine's contract (src/core/thread_pool.h, README "Execution
// model") is that parallelism is an implementation detail: build
// artifacts, query results, and every accounted cost must be
// bit-identical whether the pool has 1, 2, or 8 slots.  This suite pins
// that contract for the parallelized construction paths (pivot
// selection, EstimateDistribution, the LAESA/EPT*/CPT table fills) and
// for the batch-query API, which must also match a serial loop of
// single-query calls exactly.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pivot_selection.h"
#include "src/core/simd.h"
#include "src/core/thread_pool.h"
#include "src/data/distribution.h"
#include "src/data/generators.h"
#include "src/tables/cpt.h"
#include "src/tables/ept.h"
#include "src/tables/laesa.h"

namespace pmi {
namespace {

constexpr uint32_t kN = 1200;
constexpr uint32_t kQueries = 12;
constexpr double kRadiusSel = 0.05;
const std::vector<unsigned> kThreadCounts = {1, 2, 8};

/// Flattened copy of a PivotTable (distances, plus pool indices for the
/// per-row-pivot layout) for exact comparison.
struct TableDump {
  std::vector<double> dist;
  std::vector<uint32_t> pidx;

  bool operator==(const TableDump&) const = default;
};

TableDump Dump(const PivotTable& t) {
  TableDump d;
  for (size_t row = 0; row < t.rows(); ++row) {
    for (uint32_t slot = 0; slot < t.width(); ++slot) {
      d.dist.push_back(t.distance(row, slot));
      if (t.per_row_pivots()) d.pidx.push_back(t.pivot_index(row, slot));
    }
  }
  return d;
}

/// Everything the engine promises to keep invariant, captured at one
/// thread count for one index.
struct IndexSnapshot {
  TableDump table;
  uint64_t build_compdists = 0;
  std::vector<std::vector<ObjectId>> mrq;     // sorted per query
  std::vector<std::vector<Neighbor>> knn;
  uint64_t mrq_compdists = 0;
  uint64_t knn_compdists = 0;

  void ExpectEq(const IndexSnapshot& o) const {
    EXPECT_EQ(table, o.table);
    EXPECT_EQ(build_compdists, o.build_compdists);
    EXPECT_EQ(mrq_compdists, o.mrq_compdists);
    EXPECT_EQ(knn_compdists, o.knn_compdists);
    ASSERT_EQ(mrq.size(), o.mrq.size());
    for (size_t i = 0; i < mrq.size(); ++i) EXPECT_EQ(mrq[i], o.mrq[i]);
    ASSERT_EQ(knn.size(), o.knn.size());
    for (size_t i = 0; i < knn.size(); ++i) {
      ASSERT_EQ(knn[i].size(), o.knn[i].size());
      for (size_t j = 0; j < knn[i].size(); ++j) {
        EXPECT_EQ(knn[i][j].id, o.knn[i][j].id);
        EXPECT_EQ(knn[i][j].dist, o.knn[i][j].dist);
      }
    }
  }
};

struct World {
  World() : bd(MakeBenchDataset(BenchDatasetId::kSynthetic, kN, 7)) {
    PivotSelectionOptions po;
    po.sample_size = 400;
    po.pair_sample = 200;
    pivots = SelectSharedPivots(bd.data, *bd.metric, 5, po);
    distribution = EstimateDistribution(bd.data, *bd.metric, 2000, 3);
    Rng rng(77);
    for (uint32_t i = 0; i < kQueries; ++i) {
      queries.push_back(bd.data.view(rng() % kN));
    }
  }

  BenchDataset bd;
  PivotSet pivots;
  DistanceDistribution distribution;
  std::vector<ObjectView> queries;
};

/// Builds `index` and runs the batch query mix, all at the current
/// global thread count.
IndexSnapshot Snapshot(const World& w, MetricIndex* index,
                       const PivotTable& table) {
  IndexSnapshot s;
  OpStats build = index->Build(w.bd.data, *w.bd.metric, w.pivots);
  s.build_compdists = build.dist_computations;
  s.table = Dump(table);

  const double r = w.distribution.RadiusForSelectivity(kRadiusSel);
  OpStats mrq = index->RangeQueryBatch(w.queries, r, &s.mrq);
  s.mrq_compdists = mrq.dist_computations;
  for (auto& out : s.mrq) std::sort(out.begin(), out.end());

  OpStats knn = index->KnnQueryBatch(w.queries, 10, &s.knn);
  s.knn_compdists = knn.dist_computations;
  return s;
}

class ThreadInvarianceTest : public ::testing::Test {
 protected:
  // One dataset + shared pivots for the whole suite, built at 1 thread so
  // the workload itself never depends on the count under test.
  static void SetUpTestSuite() {
    ThreadPool::SetGlobalThreads(1);
    world_ = new World();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
    ThreadPool::SetGlobalThreads(0);
  }
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }

  static World* world_;
};

World* ThreadInvarianceTest::world_ = nullptr;

TEST_F(ThreadInvarianceTest, LaesaBuildAndQueriesAreIdentical) {
  std::vector<IndexSnapshot> snaps;
  for (unsigned t : kThreadCounts) {
    ThreadPool::SetGlobalThreads(t);
    Laesa laesa;
    snaps.push_back(Snapshot(*world_, &laesa, laesa.table()));
  }
  for (size_t i = 1; i < snaps.size(); ++i) snaps[i].ExpectEq(snaps[0]);
}

TEST_F(ThreadInvarianceTest, EptStarBuildAndQueriesAreIdentical) {
  std::vector<IndexSnapshot> snaps;
  for (unsigned t : kThreadCounts) {
    ThreadPool::SetGlobalThreads(t);
    Ept ept(Ept::Variant::kStar);
    snaps.push_back(Snapshot(*world_, &ept, ept.table()));
  }
  for (size_t i = 1; i < snaps.size(); ++i) snaps[i].ExpectEq(snaps[0]);
}

TEST_F(ThreadInvarianceTest, CptBuildAndQueriesAreIdentical) {
  std::vector<IndexSnapshot> snaps;
  std::vector<uint64_t> page_accesses;
  for (unsigned t : kThreadCounts) {
    ThreadPool::SetGlobalThreads(t);
    Cpt cpt;
    OpStats build = cpt.Build(world_->bd.data, *world_->bd.metric,
                              world_->pivots);
    IndexSnapshot s;
    s.build_compdists = build.dist_computations;
    s.table = Dump(cpt.table());
    const double r = world_->distribution.RadiusForSelectivity(kRadiusSel);
    OpStats mrq = cpt.RangeQueryBatch(world_->queries, r, &s.mrq);
    s.mrq_compdists = mrq.dist_computations;
    for (auto& out : s.mrq) std::sort(out.begin(), out.end());
    OpStats knn = cpt.KnnQueryBatch(world_->queries, 10, &s.knn);
    s.knn_compdists = knn.dist_computations;
    snaps.push_back(std::move(s));
    // Build is serial and batch MRQs run block-major on one thread, so
    // their logical page accesses must be invariant.  MkNNQ batches run
    // query-major and, since the buffer-pool PR, in parallel: the
    // logical LRU interleaving is then schedule-dependent, so kNN PA is
    // deliberately outside this pin (results and compdists above still
    // cover it).
    page_accesses.push_back(build.page_accesses() + mrq.page_accesses());
  }
  for (size_t i = 1; i < snaps.size(); ++i) {
    snaps[i].ExpectEq(snaps[0]);
    EXPECT_EQ(page_accesses[i], page_accesses[0]);
  }
}

TEST_F(ThreadInvarianceTest, PivotSelectionIsIdentical) {
  std::vector<std::vector<ObjectId>> hf, hfi;
  std::vector<uint64_t> compdists;
  PivotSelectionOptions po;
  po.sample_size = 400;
  po.pair_sample = 200;
  for (unsigned t : kThreadCounts) {
    ThreadPool::SetGlobalThreads(t);
    PerfCounters pc;
    DistanceComputer d(world_->bd.metric.get(), &pc);
    hf.push_back(SelectPivotsHF(world_->bd.data, d, 8, po));
    hfi.push_back(SelectPivotsHFI(world_->bd.data, d, 5, po));
    compdists.push_back(pc.dist_computations);
  }
  for (size_t i = 1; i < hf.size(); ++i) {
    EXPECT_EQ(hf[i], hf[0]);
    EXPECT_EQ(hfi[i], hfi[0]);
    EXPECT_EQ(compdists[i], compdists[0]);
  }
}

TEST_F(ThreadInvarianceTest, EstimateDistributionIsIdentical) {
  std::vector<DistanceDistribution> dists;
  for (unsigned t : kThreadCounts) {
    ThreadPool::SetGlobalThreads(t);
    dists.push_back(
        EstimateDistribution(world_->bd.data, *world_->bd.metric, 2000, 3));
  }
  for (size_t i = 1; i < dists.size(); ++i) {
    EXPECT_EQ(dists[i].sample, dists[0].sample);
    EXPECT_EQ(dists[i].mean, dists[0].mean);
    EXPECT_EQ(dists[i].variance, dists[0].variance);
    EXPECT_EQ(dists[i].max_distance, dists[0].max_distance);
  }
}

TEST_F(ThreadInvarianceTest, ResultsInvariantAcrossSimdLevelsAndThreads) {
  // The SIMD dispatch level must be as invisible as the thread count:
  // identical batch results and compdists whether the filter runs
  // scalar or vectorized, at any pool size -- and equal to the
  // query-major reference, a loop of single-query calls, which the
  // first capture records.  (The dispatch table is only swapped between
  // batches -- ReinitSimdDispatch is not query-concurrent-safe.)
  // The CI scalar-dispatch leg pins PMI_SIMD for the whole run: restore
  // the inherited value afterward rather than clearing it.
  const char* inherited_env = getenv("PMI_SIMD");
  const std::string inherited = inherited_env ? inherited_env : "";
  const bool had_inherited = inherited_env != nullptr;
  Laesa laesa;
  laesa.Build(world_->bd.data, *world_->bd.metric, world_->pivots);
  const double r = world_->distribution.RadiusForSelectivity(kRadiusSel);
  std::vector<std::vector<std::vector<ObjectId>>> mrq;
  std::vector<std::vector<std::vector<Neighbor>>> knn;
  std::vector<uint64_t> compdists;
  {
    std::vector<std::vector<ObjectId>> range_out(world_->queries.size());
    std::vector<std::vector<Neighbor>> knn_out(world_->queries.size());
    uint64_t cd = 0;
    for (size_t i = 0; i < world_->queries.size(); ++i) {
      cd += laesa.RangeQuery(world_->queries[i], r, &range_out[i])
                .dist_computations;
      std::sort(range_out[i].begin(), range_out[i].end());
      cd += laesa.KnnQuery(world_->queries[i], 10, &knn_out[i])
                .dist_computations;
    }
    mrq.push_back(std::move(range_out));
    knn.push_back(std::move(knn_out));
    compdists.push_back(cd);
  }
  for (SimdLevel level : SupportedSimdLevels()) {
    ASSERT_EQ(setenv("PMI_SIMD", SimdLevelName(level), 1), 0);
    ReinitSimdDispatch();
    for (unsigned t : kThreadCounts) {
      ThreadPool::SetGlobalThreads(t);
      std::vector<std::vector<ObjectId>> range_out;
      OpStats rs = laesa.RangeQueryBatch(world_->queries, r, &range_out);
      for (auto& out : range_out) std::sort(out.begin(), out.end());
      std::vector<std::vector<Neighbor>> knn_out;
      OpStats ks = laesa.KnnQueryBatch(world_->queries, 10, &knn_out);
      mrq.push_back(std::move(range_out));
      knn.push_back(std::move(knn_out));
      compdists.push_back(rs.dist_computations + ks.dist_computations);
    }
  }
  if (had_inherited) {
    setenv("PMI_SIMD", inherited.c_str(), 1);
  } else {
    unsetenv("PMI_SIMD");
  }
  ReinitSimdDispatch();
  ASSERT_GE(mrq.size(), 1 + kThreadCounts.size());
  for (size_t i = 1; i < mrq.size(); ++i) {
    EXPECT_EQ(compdists[i], compdists[0]);
    ASSERT_EQ(mrq[i].size(), mrq[0].size());
    for (size_t j = 0; j < mrq[0].size(); ++j) EXPECT_EQ(mrq[i][j], mrq[0][j]);
    ASSERT_EQ(knn[i].size(), knn[0].size());
    for (size_t j = 0; j < knn[0].size(); ++j) {
      ASSERT_EQ(knn[i][j].size(), knn[0][j].size());
      for (size_t k = 0; k < knn[0][j].size(); ++k) {
        EXPECT_EQ(knn[i][j][k].id, knn[0][j][k].id);
        EXPECT_EQ(knn[i][j][k].dist, knn[0][j][k].dist);
      }
    }
  }
}

TEST_F(ThreadInvarianceTest, BatchMatchesSerialQueryLoop) {
  // The batch entry points must be pure fan-out: same per-query results
  // and the same summed compdists as looping the single-query API.
  ThreadPool::SetGlobalThreads(8);
  for (auto variant : {Ept::Variant::kClassic, Ept::Variant::kStar}) {
    Ept ept(variant);
    ept.Build(world_->bd.data, *world_->bd.metric, world_->pivots);
    const double r = world_->distribution.RadiusForSelectivity(kRadiusSel);

    std::vector<std::vector<ObjectId>> batch;
    OpStats bs = ept.RangeQueryBatch(world_->queries, r, &batch);
    uint64_t serial_cd = 0;
    for (size_t i = 0; i < world_->queries.size(); ++i) {
      std::vector<ObjectId> one;
      serial_cd += ept.RangeQuery(world_->queries[i], r, &one)
                       .dist_computations;
      std::sort(one.begin(), one.end());
      std::sort(batch[i].begin(), batch[i].end());
      EXPECT_EQ(batch[i], one);
    }
    EXPECT_EQ(bs.dist_computations, serial_cd);

    std::vector<std::vector<Neighbor>> kbatch;
    OpStats ks = ept.KnnQueryBatch(world_->queries, 10, &kbatch);
    serial_cd = 0;
    for (size_t i = 0; i < world_->queries.size(); ++i) {
      std::vector<Neighbor> one;
      serial_cd += ept.KnnQuery(world_->queries[i], 10, &one)
                       .dist_computations;
      ASSERT_EQ(kbatch[i].size(), one.size());
      for (size_t j = 0; j < one.size(); ++j) {
        EXPECT_EQ(kbatch[i][j].id, one[j].id);
        EXPECT_EQ(kbatch[i][j].dist, one[j].dist);
      }
    }
    EXPECT_EQ(ks.dist_computations, serial_cd);
  }
}

}  // namespace
}  // namespace pmi
