// Batch-engine invariance suite -- the exactness contract of the
// block-major batch engine (extends tests/thread_invariance_test.cc to
// the batch execution axes).
//
// The contract (src/core/index.h, pivot_table.h ScanBlockMajor): batch
// results, total compdists, and per-query OpStats are independent of
//   - execution engine (a block-major batch vs a loop of single-query
//     calls, the query-major reference),
//   - batch order (permuting the queries permutes the answers),
//   - batch split (one big batch == concatenated sub-batches, batches of
//     one included, which take the query-major loop),
//   - thread count, and
//   - SIMD dispatch level,
// for every index with a block-major batch hook -- LAESA, EPT, EPT*,
// and CPT (whose MRQ batches must additionally replay the query-major
// buffer-pool access sequence exactly, so even page accesses are
// pinned).

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <numeric>
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

// 27 queries: an awkward size on purpose -- it exercises the
// kMultiQueryTile=16 tiling, the register groups of 4/8, and the scalar
// tail of the multi kernels, plus ragged ParallelFor chunking.
constexpr uint32_t kN = 1400;
constexpr uint32_t kQueries = 27;

struct World {
  World() : bd(MakeBenchDataset(BenchDatasetId::kSynthetic, kN, 11)) {
    PivotSelectionOptions po;
    po.sample_size = 400;
    po.pair_sample = 200;
    pivots = SelectSharedPivots(bd.data, *bd.metric, 5, po);
    distribution = EstimateDistribution(bd.data, *bd.metric, 2000, 3);
    Rng rng(271);
    for (uint32_t i = 0; i < kQueries; ++i) {
      queries.push_back(bd.data.view(rng() % kN));
    }
    // Mixed per-query thresholds: the batch descriptors carry them, so
    // the invariance axes must hold with heterogeneous batches too.
    for (uint32_t i = 0; i < kQueries; ++i) {
      radii.push_back(
          distribution.RadiusForSelectivity(0.01 + 0.02 * (i % 5)));
      ks.push_back(i % 7 == 0 ? 1 : 3 + (i % 11));
    }
  }

  BenchDataset bd;
  PivotSet pivots;
  DistanceDistribution distribution;
  std::vector<ObjectView> queries;
  std::vector<double> radii;
  std::vector<size_t> ks;
};

World* world = nullptr;

class BatchInvarianceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ThreadPool::SetGlobalThreads(1);
    world = new World();
  }
  static void TearDownTestSuite() {
    delete world;
    world = nullptr;
    ThreadPool::SetGlobalThreads(0);
  }
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }
};

void ExpectSameKnn(const std::vector<std::vector<Neighbor>>& got,
                   const std::vector<std::vector<Neighbor>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "query " << i;
    for (size_t j = 0; j < got[i].size(); ++j) {
      EXPECT_EQ(got[i][j].id, want[i][j].id) << "query " << i;
      EXPECT_EQ(got[i][j].dist, want[i][j].dist) << "query " << i;
    }
  }
}

void ExpectSamePerQuery(const std::vector<OpStats>& got,
                        const std::vector<OpStats>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].dist_computations, want[i].dist_computations)
        << "query " << i;
    EXPECT_EQ(got[i].page_reads, want[i].page_reads) << "query " << i;
    EXPECT_EQ(got[i].page_writes, want[i].page_writes) << "query " << i;
  }
}

// The query-major reference: one RangeQuery call per query -- the
// RangeImpl calls a batch's query-major loop makes -- with the per-query
// stats summed into the returned total.
OpStats RangeQueryLoop(const MetricIndex& index,
                       const std::vector<ObjectView>& queries,
                       const std::vector<double>& radii,
                       std::vector<std::vector<ObjectId>>* out,
                       std::vector<OpStats>* per_query) {
  out->assign(queries.size(), {});
  per_query->clear();
  OpStats total;
  for (size_t i = 0; i < queries.size(); ++i) {
    per_query->push_back(index.RangeQuery(queries[i], radii[i], &(*out)[i]));
    total += per_query->back();
  }
  return total;
}

// The MkNNQ counterpart of RangeQueryLoop.
OpStats KnnQueryLoop(const MetricIndex& index,
                     const std::vector<ObjectView>& queries,
                     const std::vector<size_t>& ks,
                     std::vector<std::vector<Neighbor>>* out,
                     std::vector<OpStats>* per_query) {
  out->assign(queries.size(), {});
  per_query->clear();
  OpStats total;
  for (size_t i = 0; i < queries.size(); ++i) {
    per_query->push_back(index.KnnQuery(queries[i], ks[i], &(*out)[i]));
    total += per_query->back();
  }
  return total;
}

using IndexFactory = std::unique_ptr<MetricIndex> (*)();

const IndexFactory kBlockMajorFactories[] = {
    [] { return std::unique_ptr<MetricIndex>(std::make_unique<Laesa>()); },
    [] {
      return std::unique_ptr<MetricIndex>(
          std::make_unique<Ept>(Ept::Variant::kClassic));
    },
    [] {
      return std::unique_ptr<MetricIndex>(
          std::make_unique<Ept>(Ept::Variant::kStar));
    },
    [] { return std::unique_ptr<MetricIndex>(std::make_unique<Cpt>()); },
};

std::unique_ptr<MetricIndex> BuildFresh(IndexFactory make) {
  auto index = make();
  index->Build(world->bd.data, *world->bd.metric, world->pivots);
  return index;
}

std::vector<std::unique_ptr<MetricIndex>> BuildBlockMajorIndexes() {
  std::vector<std::unique_ptr<MetricIndex>> out;
  for (IndexFactory make : kBlockMajorFactories) out.push_back(BuildFresh(make));
  return out;
}

// Engine equivalence: block-major batch answers (results, total stats,
// per-query stats) must equal a loop of single-query calls bit for bit.
// Each engine runs on a freshly built instance so CPT's buffer pool
// starts from the identical post-build state -- the page-access replay
// is then pinned exactly, not just the results.
TEST_F(BatchInvarianceTest, BlockMajorMatchesQueryMajor) {
  for (IndexFactory make : kBlockMajorFactories) {
    auto index_qm = BuildFresh(make);
    auto index_bm = BuildFresh(make);
    std::vector<std::vector<ObjectId>> mrq_qm, mrq_bm;
    std::vector<OpStats> pq_qm, pq_bm;
    OpStats qm = RangeQueryLoop(*index_qm, world->queries, world->radii,
                                &mrq_qm, &pq_qm);
    OpStats bm = index_bm->RangeQueryBatch(world->queries, world->radii,
                                           &mrq_bm, &pq_bm);
    EXPECT_EQ(mrq_bm, mrq_qm) << index_qm->name();
    EXPECT_EQ(bm.dist_computations, qm.dist_computations) << index_qm->name();
    EXPECT_EQ(bm.page_reads, qm.page_reads) << index_qm->name();
    EXPECT_EQ(bm.page_writes, qm.page_writes) << index_qm->name();
    ExpectSamePerQuery(pq_bm, pq_qm);
    // Per-query compdists must also partition the total.
    uint64_t sum = 0;
    for (const OpStats& s : pq_bm) sum += s.dist_computations;
    EXPECT_EQ(sum, bm.dist_computations) << index_qm->name();

    std::vector<std::vector<Neighbor>> knn_qm, knn_bm;
    qm = KnnQueryLoop(*index_qm, world->queries, world->ks, &knn_qm, &pq_qm);
    bm = index_bm->KnnQueryBatch(world->queries, world->ks, &knn_bm, &pq_bm);
    ExpectSameKnn(knn_bm, knn_qm);
    EXPECT_EQ(bm.dist_computations, qm.dist_computations) << index_qm->name();
    ExpectSamePerQuery(pq_bm, pq_qm);
  }
}

// Batch answers must equal a loop of single-query calls, including the
// heterogeneous-threshold descriptors.
TEST_F(BatchInvarianceTest, BatchMatchesSingleQueryLoop) {
  for (auto& index : BuildBlockMajorIndexes()) {
    std::vector<std::vector<ObjectId>> mrq;
    std::vector<OpStats> pq;
    index->RangeQueryBatch(world->queries, world->radii, &mrq, &pq);
    std::vector<std::vector<Neighbor>> knn;
    std::vector<OpStats> kpq;
    index->KnnQueryBatch(world->queries, world->ks, &knn, &kpq);
    for (size_t i = 0; i < world->queries.size(); ++i) {
      std::vector<ObjectId> one;
      OpStats s =
          index->RangeQuery(world->queries[i], world->radii[i], &one);
      EXPECT_EQ(mrq[i], one) << index->name() << " query " << i;
      EXPECT_EQ(pq[i].dist_computations, s.dist_computations)
          << index->name() << " query " << i;
      std::vector<Neighbor> knn_one;
      s = index->KnnQuery(world->queries[i], world->ks[i], &knn_one);
      ASSERT_EQ(knn[i].size(), knn_one.size()) << index->name();
      for (size_t j = 0; j < knn_one.size(); ++j) {
        EXPECT_EQ(knn[i][j].id, knn_one[j].id);
        EXPECT_EQ(knn[i][j].dist, knn_one[j].dist);
      }
      EXPECT_EQ(kpq[i].dist_computations, s.dist_computations)
          << index->name() << " query " << i;
    }
  }
}

// Permuting the batch permutes the answers and the per-query stats --
// queries share no state inside a batch.
TEST_F(BatchInvarianceTest, BatchOrderInvariance) {
  std::vector<size_t> perm(world->queries.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  Rng rng(99);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<ObjectView> shuffled;
  std::vector<double> shuffled_r;
  std::vector<size_t> shuffled_k;
  for (size_t p : perm) {
    shuffled.push_back(world->queries[p]);
    shuffled_r.push_back(world->radii[p]);
    shuffled_k.push_back(world->ks[p]);
  }
  for (auto& index : BuildBlockMajorIndexes()) {
    std::vector<std::vector<ObjectId>> base, got;
    std::vector<OpStats> base_pq, got_pq;
    index->RangeQueryBatch(world->queries, world->radii, &base, &base_pq);
    index->RangeQueryBatch(shuffled, shuffled_r, &got, &got_pq);
    for (size_t i = 0; i < perm.size(); ++i) {
      EXPECT_EQ(got[i], base[perm[i]]) << index->name();
      EXPECT_EQ(got_pq[i].dist_computations,
                base_pq[perm[i]].dist_computations)
          << index->name();
    }
    std::vector<std::vector<Neighbor>> kbase, kgot;
    index->KnnQueryBatch(world->queries, world->ks, &kbase);
    index->KnnQueryBatch(shuffled, shuffled_k, &kgot);
    for (size_t i = 0; i < perm.size(); ++i) {
      ASSERT_EQ(kgot[i].size(), kbase[perm[i]].size()) << index->name();
      for (size_t j = 0; j < kgot[i].size(); ++j) {
        EXPECT_EQ(kgot[i][j].id, kbase[perm[i]][j].id);
        EXPECT_EQ(kgot[i][j].dist, kbase[perm[i]][j].dist);
      }
    }
  }
}

// Splitting a batch into sub-batches changes nothing: per-query answers
// and per-query compdists concatenate.  The batch of one runs the
// query-major loop, the others the block-major hook.
TEST_F(BatchInvarianceTest, BatchSplitInvariance) {
  const size_t kSplits[] = {1, 2, 8, 16};  // 1 + 2 + 8 + 16 = kQueries
  for (auto& index : BuildBlockMajorIndexes()) {
    std::vector<std::vector<ObjectId>> whole;
    std::vector<OpStats> whole_pq;
    index->RangeQueryBatch(world->queries, world->radii, &whole, &whole_pq);
    size_t off = 0;
    for (size_t span : kSplits) {
      std::vector<ObjectView> sub(world->queries.begin() + off,
                                  world->queries.begin() + off + span);
      std::vector<double> sub_r(world->radii.begin() + off,
                                world->radii.begin() + off + span);
      std::vector<std::vector<ObjectId>> part;
      std::vector<OpStats> part_pq;
      index->RangeQueryBatch(sub, sub_r, &part, &part_pq);
      for (size_t i = 0; i < span; ++i) {
        EXPECT_EQ(part[i], whole[off + i])
            << index->name() << " split at " << off;
        EXPECT_EQ(part_pq[i].dist_computations,
                  whole_pq[off + i].dist_computations)
            << index->name();
      }
      off += span;
    }
    ASSERT_EQ(off, world->queries.size());
  }
}

// The full cross product: dispatch level x thread count x engine (batch
// or single-query loop), pinned against one reference capture.
TEST_F(BatchInvarianceTest, LevelThreadModeCrossProduct) {
  const char* inherited_env = getenv("PMI_SIMD");
  const std::string inherited = inherited_env ? inherited_env : "";
  const bool had_inherited = inherited_env != nullptr;

  Laesa laesa;
  laesa.Build(world->bd.data, *world->bd.metric, world->pivots);
  Ept ept(Ept::Variant::kStar);
  ept.Build(world->bd.data, *world->bd.metric, world->pivots);
  MetricIndex* indexes[] = {&laesa, &ept};

  struct Capture {
    std::vector<std::vector<ObjectId>> mrq;
    std::vector<std::vector<Neighbor>> knn;
    uint64_t compdists = 0;
  };
  std::vector<Capture> captures;
  for (SimdLevel level : SupportedSimdLevels()) {
    ASSERT_EQ(setenv("PMI_SIMD", SimdLevelName(level), 1), 0);
    ReinitSimdDispatch();
    for (unsigned threads : {1u, 2u, 8u}) {
      ThreadPool::SetGlobalThreads(threads);
      for (bool loop : {false, true}) {
        Capture c;
        for (MetricIndex* index : indexes) {
          std::vector<std::vector<ObjectId>> mrq;
          std::vector<std::vector<Neighbor>> knn;
          std::vector<OpStats> pq;
          const OpStats rs =
              loop ? RangeQueryLoop(*index, world->queries, world->radii,
                                    &mrq, &pq)
                   : index->RangeQueryBatch(world->queries, world->radii,
                                            &mrq);
          const OpStats ks =
              loop ? KnnQueryLoop(*index, world->queries, world->ks, &knn,
                                  &pq)
                   : index->KnnQueryBatch(world->queries, world->ks, &knn);
          c.compdists += rs.dist_computations + ks.dist_computations;
          for (auto& v : mrq) c.mrq.push_back(std::move(v));
          for (auto& v : knn) c.knn.push_back(std::move(v));
        }
        captures.push_back(std::move(c));
      }
    }
  }
  if (had_inherited) {
    setenv("PMI_SIMD", inherited.c_str(), 1);
  } else {
    unsetenv("PMI_SIMD");
  }
  ReinitSimdDispatch();

  ASSERT_GE(captures.size(), 6u);
  for (size_t i = 1; i < captures.size(); ++i) {
    EXPECT_EQ(captures[i].compdists, captures[0].compdists) << "config " << i;
    ASSERT_EQ(captures[i].mrq.size(), captures[0].mrq.size());
    for (size_t j = 0; j < captures[0].mrq.size(); ++j) {
      EXPECT_EQ(captures[i].mrq[j], captures[0].mrq[j]) << "config " << i;
    }
    ExpectSameKnn(captures[i].knn, captures[0].knn);
  }
}

// Degenerate descriptors through the block-major path: k = 0 prunes
// everything, k > n clamps, r = 0 finds duplicates, all matching the
// query-major loop.
TEST_F(BatchInvarianceTest, DegenerateBatchesMatchQueryMajor) {
  for (auto& index : BuildBlockMajorIndexes()) {
    std::vector<size_t> ks = {0, 1, kN + 50, 0, 5};
    std::vector<ObjectView> queries(world->queries.begin(),
                                    world->queries.begin() + ks.size());
    std::vector<std::vector<Neighbor>> bm, qm;
    std::vector<OpStats> pq;
    index->KnnQueryBatch(queries, ks, &bm);
    KnnQueryLoop(*index, queries, ks, &qm, &pq);
    ExpectSameKnn(bm, qm);
    EXPECT_TRUE(bm[0].empty());
    EXPECT_EQ(bm[2].size(), size_t{kN});

    std::vector<double> radii = {0.0, world->radii[1], -1.0,
                                 world->bd.metric->max_distance() * 1.01,
                                 world->radii[4]};
    std::vector<std::vector<ObjectId>> rbm, rqm;
    index->RangeQueryBatch(queries, radii, &rbm);
    RangeQueryLoop(*index, queries, radii, &rqm, &pq);
    EXPECT_EQ(rbm, rqm) << index->name();
    EXPECT_TRUE(rbm[2].empty());        // negative radius matches nothing
    EXPECT_EQ(rbm[3].size(), size_t{kN});  // max-distance radius matches all
  }
}

}  // namespace
}  // namespace pmi
