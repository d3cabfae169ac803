// Batch-query edge cases through both API layers: the raw
// RangeQueryBatch/KnnQueryBatch contract is graceful (empty batches,
// k == 0, k > n, and r < 0 degrade to empty or clamped results), while
// the MetricDB facade converts the nonsensical ones (k == 0, r < 0) into
// kInvalidArgument.  Both a concurrent index (LAESA fans batches across
// the pool) and a serial one (SPB-tree runs the fallback loop) are
// covered, so the edge handling is proven independent of the execution
// path.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/metric_db.h"
#include "src/core/pivot_selection.h"
#include "src/data/generators.h"
#include "src/harness/registry.h"

namespace pmi {
namespace {

class RawBatchEdgeTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    bd_ = MakeBenchDataset(BenchDatasetId::kLa, 600);
    pivots_ = SelectSharedPivots(bd_.data, *bd_.metric, 3);
    index_ = MakeIndex(GetParam());
    index_->Build(bd_.data, *bd_.metric, pivots_);
    for (ObjectId q = 0; q < 6; ++q) queries_.push_back(bd_.data.view(q));
  }

  BenchDataset bd_{.name = "", .data = Dataset::Vectors(0)};
  PivotSet pivots_;
  std::unique_ptr<MetricIndex> index_;
  std::vector<ObjectView> queries_;
};

TEST_P(RawBatchEdgeTest, EmptyBatchIsANoOp) {
  std::vector<std::vector<ObjectId>> range_out = {{1, 2, 3}};
  OpStats s = index_->RangeQueryBatch({}, 100.0, &range_out);
  EXPECT_TRUE(range_out.empty());
  EXPECT_EQ(s.dist_computations, 0u);

  std::vector<std::vector<Neighbor>> knn_out = {{Neighbor{1, 2.0}}};
  s = index_->KnnQueryBatch({}, 5, &knn_out);
  EXPECT_TRUE(knn_out.empty());
  EXPECT_EQ(s.dist_computations, 0u);
}

TEST_P(RawBatchEdgeTest, KZeroYieldsEmptyResults) {
  std::vector<std::vector<Neighbor>> out;
  index_->KnnQueryBatch(queries_, 0, &out);
  ASSERT_EQ(out.size(), queries_.size());
  for (const auto& per_query : out) EXPECT_TRUE(per_query.empty());
}

TEST_P(RawBatchEdgeTest, KBeyondNReturnsEveryObjectSorted) {
  const size_t n = bd_.data.size();
  std::vector<std::vector<Neighbor>> out;
  index_->KnnQueryBatch(queries_, n + 100, &out);
  ASSERT_EQ(out.size(), queries_.size());
  for (const auto& per_query : out) {
    ASSERT_EQ(per_query.size(), n);
    for (size_t i = 1; i < per_query.size(); ++i) {
      EXPECT_LE(per_query[i - 1].dist, per_query[i].dist);
    }
  }
}

TEST_P(RawBatchEdgeTest, NegativeRadiusMatchesNothing) {
  std::vector<std::vector<ObjectId>> out;
  index_->RangeQueryBatch(queries_, -1.0, &out);
  ASSERT_EQ(out.size(), queries_.size());
  for (const auto& per_query : out) EXPECT_TRUE(per_query.empty());
}

TEST_P(RawBatchEdgeTest, BatchEqualsSerialLoopOnEdgeK) {
  // The batch fan-out must agree with the one-by-one loop on the edge
  // values too (k == n exactly, k == 1).
  for (size_t k : {size_t(1), size_t(bd_.data.size())}) {
    std::vector<std::vector<Neighbor>> batch;
    index_->KnnQueryBatch(queries_, k, &batch);
    for (size_t i = 0; i < queries_.size(); ++i) {
      std::vector<Neighbor> solo;
      index_->KnnQuery(queries_[i], k, &solo);
      ASSERT_EQ(batch[i].size(), solo.size());
      for (size_t j = 0; j < solo.size(); ++j) {
        EXPECT_EQ(batch[i][j].id, solo[j].id);
        EXPECT_EQ(batch[i][j].dist, solo[j].dist);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ConcurrentAndSerial, RawBatchEdgeTest,
                         // LAESA runs the block-major engine; SPB-tree
                         // (disk-based) runs the query-major loop.
                         ::testing::Values("LAESA", "SPB-tree"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return n;
                         });

class FacadeBatchEdgeTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    Dataset data = MakeLaLike(600, /*seed=*/2);
    auto db = MetricDB::Create(MetricDBConfig()
                                   .WithMetric("L2")
                                   .WithIndex(GetParam())
                                   .WithPivots(3),
                               data);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::make_unique<MetricDB>(std::move(db).value());
    for (ObjectId q = 0; q < 6; ++q) {
      queries_.push_back(db_->dataset().view(q));
    }
  }

  std::unique_ptr<MetricDB> db_;
  std::vector<ObjectView> queries_;
};

TEST_P(FacadeBatchEdgeTest, EmptyBatchSucceedsEmpty) {
  auto r = db_->Query(QueryRequest::RangeBatch({}, 10.0));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ids.empty());
  auto k = db_->Query(QueryRequest::KnnBatch({}, 3));
  ASSERT_TRUE(k.ok());
  EXPECT_TRUE(k->neighbors.empty());
}

TEST_P(FacadeBatchEdgeTest, KZeroIsInvalidArgument) {
  auto r = db_->Query(QueryRequest::KnnBatch(queries_, 0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(FacadeBatchEdgeTest, NegativeRadiusIsInvalidArgument) {
  auto r = db_->Query(QueryRequest::RangeBatch(queries_, -0.5));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(FacadeBatchEdgeTest, KBeyondNClampsToN) {
  auto r = db_->Query(
      QueryRequest::KnnBatch(queries_, db_->dataset().size() + 9));
  ASSERT_TRUE(r.ok());
  for (const auto& per_query : r->neighbors) {
    EXPECT_EQ(per_query.size(), db_->dataset().size());
  }
}

INSTANTIATE_TEST_SUITE_P(ConcurrentAndSerial, FacadeBatchEdgeTest,
                         ::testing::Values("LAESA", "SPB-tree"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace pmi
