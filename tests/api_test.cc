// Facade-layer tests: Status/StatusOr semantics, ValidateOptions as the
// single options gate, TryMakeIndex's recoverable errors, and the
// MetricDB owned-lifetime + unified-query contract.

#include <algorithm>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "src/api/metric_db.h"
#include "src/core/linear_scan.h"
#include "src/core/pivot_selection.h"
#include "src/data/generators.h"
#include "src/harness/registry.h"

namespace pmi {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(OkStatus().ok());
  EXPECT_EQ(OkStatus().ToString(), "OK");
  Status s = InvalidArgumentError("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad knob");
}

TEST(StatusTest, StatusOrHoldsValueOrStatus) {
  StatusOr<int> ok_value(7);
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(*ok_value, 7);

  StatusOr<int> err(NotFoundError("nope"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);

  // Move-only payloads work (the TryMakeIndex return type).
  StatusOr<std::unique_ptr<int>> moved(std::make_unique<int>(3));
  ASSERT_TRUE(moved.ok());
  std::unique_ptr<int> taken = std::move(moved).value();
  EXPECT_EQ(*taken, 3);
}

TEST(ValidateOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateOptions(IndexOptions{}).ok());
}

TEST(ValidateOptionsTest, RejectsEachBadKnob) {
  {
    IndexOptions o;
    o.page_size = 0;
    EXPECT_EQ(ValidateOptions(o).code(), StatusCode::kInvalidArgument);
  }
  {
    IndexOptions o;
    o.page_size = 16;  // smaller than a page header + one entry
    EXPECT_EQ(ValidateOptions(o).code(), StatusCode::kInvalidArgument);
  }
  {
    IndexOptions o;
    o.cache_bytes = o.page_size - 1;  // pool cannot hold one page
    EXPECT_EQ(ValidateOptions(o).code(), StatusCode::kInvalidArgument);
  }
  {
    IndexOptions o;
    o.mvpt_arity = 1;
    EXPECT_EQ(ValidateOptions(o).code(), StatusCode::kInvalidArgument);
  }
  {
    IndexOptions o;
    o.tree_leaf_capacity = 0;
    EXPECT_EQ(ValidateOptions(o).code(), StatusCode::kInvalidArgument);
  }
  {
    IndexOptions o;
    o.tree_fanout = 0;  // would SEGV inside BKT/FQT bucket sizing
    EXPECT_EQ(ValidateOptions(o).code(), StatusCode::kInvalidArgument);
  }
}

TEST(TryMakeIndexTest, UnknownNameIsRecoverable) {
  auto r = TryMakeIndex("no-such-index");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(TryMakeIndexTest, BadOptionsAreRecoverable) {
  IndexOptions o;
  o.page_size = 0;
  auto r = TryMakeIndex("LAESA", o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TryMakeIndexTest, MinPivotsViolationIsRecoverable) {
  // M-index* needs >= 2 pivots for hyperplane partitioning.
  auto r = TryMakeIndex("M-index*", IndexOptions{}, /*pivot_count=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(TryMakeIndex("M-index*", IndexOptions{}, 2).ok());
}

TEST(TryMakeIndexTest, SpbGridMustFitTheHilbertKey) {
  // 5 pivots x 20 bits = 100 key bits: the keys would overflow.
  IndexOptions wide;
  wide.spb_bits_per_dim = 20;
  EXPECT_EQ(TryMakeIndex("SPB-tree", wide, 5).status().code(),
            StatusCode::kInvalidArgument);
  // 70 pivots overflow even the 1-bit grid AutoBits falls back to.
  EXPECT_EQ(TryMakeIndex("SPB-tree", IndexOptions{}, 70).status().code(),
            StatusCode::kInvalidArgument);
  // More than 16 bits per pivot is refused even when the key has room.
  IndexOptions fine;
  fine.spb_bits_per_dim = 17;
  EXPECT_EQ(TryMakeIndex("SPB-tree", fine, 1).status().code(),
            StatusCode::kInvalidArgument);
  // The largest grids that fit are accepted.
  EXPECT_TRUE(TryMakeIndex("SPB-tree", IndexOptions{}, 63).ok());
  IndexOptions twelve;
  twelve.spb_bits_per_dim = 12;
  EXPECT_TRUE(TryMakeIndex("SPB-tree", twelve, 5).ok());
  // Other indexes take any pivot count past their minimum.
  EXPECT_TRUE(TryMakeIndex("LAESA", wide, 70).ok());
}

TEST(TryMakeIndexTest, MakesEveryRegisteredIndexAndLinearScan) {
  for (const IndexSpec& spec : AllIndexSpecs()) {
    auto r = TryMakeIndex(spec.name, IndexOptions{}, spec.min_pivots);
    ASSERT_TRUE(r.ok()) << spec.name << ": " << r.status().ToString();
    EXPECT_NE(*r, nullptr);
  }
  auto scan = TryMakeIndex("LinearScan");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ((*scan)->name(), "LinearScan");
  // ... without perturbing the survey spec lists.
  for (const IndexSpec& spec : AllIndexSpecs()) {
    EXPECT_NE(spec.name, "LinearScan");
  }
}

// -- MetricDB -----------------------------------------------------------------

Dataset SmallVectors(uint32_t n = 400) {
  return MakeLaLike(n, /*seed=*/17);
}

TEST(MetricDBTest, CreateRejectsBadInput) {
  EXPECT_EQ(MetricDB::Create(MetricDBConfig(), Dataset::Vectors(2))
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // empty dataset
  EXPECT_EQ(MetricDB::Create(MetricDBConfig().WithMetric("cosine"),
                             SmallVectors())
                .status()
                .code(),
            StatusCode::kNotFound);  // unknown metric
  EXPECT_EQ(MetricDB::Create(MetricDBConfig().WithMetric("edit"),
                             SmallVectors())
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // metric/dataset kind mismatch
  EXPECT_EQ(MetricDB::Create(MetricDBConfig().WithIndex("no-such-index"),
                             SmallVectors())
                .status()
                .code(),
            StatusCode::kNotFound);  // unknown index
  EXPECT_EQ(MetricDB::Create(MetricDBConfig().WithIndex("BKT"),
                             SmallVectors())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);  // BKT needs a discrete metric
  EXPECT_EQ(MetricDB::Create(MetricDBConfig().WithPivots(0), SmallVectors())
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // no pivots
  EXPECT_EQ(MetricDB::Create(MetricDBConfig().WithPivotMethod("psychic"),
                             SmallVectors())
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // unknown pivot method
  IndexOptions bad;
  bad.mvpt_arity = 0;
  EXPECT_EQ(MetricDB::Create(MetricDBConfig().WithOptions(bad),
                             SmallVectors())
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // options gate
  EXPECT_EQ(MetricDB::Create(MetricDBConfig().WithIndex("M-index*")
                                 .WithPivots(1),
                             SmallVectors())
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // min_pivots via the facade
  IndexOptions wide_grid;
  wide_grid.spb_bits_per_dim = 20;
  EXPECT_EQ(MetricDB::Create(MetricDBConfig()
                                 .WithIndex("SPB-tree")
                                 .WithPivots(5)
                                 .WithOptions(wide_grid),
                             SmallVectors())
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // 5 x 20 key bits > 63
  EXPECT_EQ(MetricDB::Create(MetricDBConfig().WithIndex("SPB-tree")
                                 .WithPivots(70),
                             SmallVectors())
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // 70 x 1 key bits > 63
}

TEST(MetricDBTest, QueriesMatchTheRawHarness) {
  Dataset data = SmallVectors();
  auto db = MetricDB::Create(
      MetricDBConfig().WithMetric("L2").WithIndex("LAESA").WithPivots(3),
      data);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GT(db->build_stats().dist_computations, 0u);

  // Ground truth through the raw harness on the facade's own members --
  // the facade owns everything the oracle needs.
  LinearScan oracle;
  oracle.Build(db->dataset(), db->metric(), db->pivots());

  for (ObjectId q : {0u, 7u, 201u}) {
    auto range = db->RangeQuery(db->dataset().view(q), 900.0);
    ASSERT_TRUE(range.ok());
    std::vector<ObjectId> truth;
    oracle.RangeQuery(db->dataset().view(q), 900.0, &truth);
    std::vector<ObjectId> got = range->ids[0];
    std::sort(got.begin(), got.end());
    std::sort(truth.begin(), truth.end());
    EXPECT_EQ(got, truth);

    auto knn = db->KnnQuery(db->dataset().view(q), 9);
    ASSERT_TRUE(knn.ok());
    std::vector<Neighbor> knn_truth;
    oracle.KnnQuery(db->dataset().view(q), 9, &knn_truth);
    ASSERT_EQ(knn->neighbors[0].size(), knn_truth.size());
    for (size_t i = 0; i < knn_truth.size(); ++i) {
      EXPECT_EQ(knn->neighbors[0][i].id, knn_truth[i].id);
      EXPECT_EQ(knn->neighbors[0][i].dist, knn_truth[i].dist);
    }
  }
}

TEST(MetricDBTest, FacadeSurvivesMoves) {
  // The index borrows the facade-owned dataset/metric/pivots; moving the
  // facade must not invalidate those borrows (unique_ptr members keep
  // the addresses stable).
  auto created = MetricDB::Create(
      MetricDBConfig().WithMetric("L2").WithIndex("MVPT"), SmallVectors());
  ASSERT_TRUE(created.ok());
  auto first = std::move(created).value();
  auto before = first.KnnQuery(first.dataset().view(3), 5);
  ASSERT_TRUE(before.ok());

  MetricDB second = std::move(first);
  auto after = second.KnnQuery(second.dataset().view(3), 5);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->neighbors[0].size(), before->neighbors[0].size());
  for (size_t i = 0; i < after->neighbors[0].size(); ++i) {
    EXPECT_EQ(after->neighbors[0][i].id, before->neighbors[0][i].id);
  }
}

TEST(MetricDBTest, QueryValidation) {
  auto db = MetricDB::Create(
      MetricDBConfig().WithMetric("L2").WithIndex("LAESA"), SmallVectors());
  ASSERT_TRUE(db.ok());
  ObjectView q = db->dataset().view(0);

  EXPECT_EQ(db->RangeQuery(q, -1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->KnnQuery(q, 0).status().code(), StatusCode::kInvalidArgument);

  // Wrong payload kind / dimensionality.
  EXPECT_EQ(db->RangeQuery(ObjectView::FromString("hi"), 1.0).status().code(),
            StatusCode::kInvalidArgument);
  float tiny[1] = {0};
  EXPECT_EQ(db->RangeQuery(ObjectView::FromVector(tiny, 1), 1.0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // k > n is graceful: every live object comes back, sorted.
  auto all = db->KnnQuery(q, db->dataset().size() + 50);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->neighbors[0].size(), db->dataset().size());

  // An empty batch is a valid no-op.
  auto empty = db->Query(QueryRequest::RangeBatch({}, 1.0));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->ids.empty());
  EXPECT_EQ(empty->stats.dist_computations, 0u);
}

TEST(MetricDBTest, PerQueryDescriptorsMatchIndividualCalls) {
  Dataset data = SmallVectors();
  auto db = MetricDB::Create(
      MetricDBConfig().WithMetric("L2").WithIndex("LAESA").WithPivots(3),
      data);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<ObjectView> queries = {db->dataset().view(1),
                                     db->dataset().view(42),
                                     db->dataset().view(300)};
  std::vector<double> radii = {400.0, 900.0, 1500.0};
  std::vector<size_t> ks = {1, 7, 25};

  auto range = db->Query(QueryRequest::RangeBatch(queries, radii));
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_EQ(range->ids.size(), queries.size());
  auto knn = db->Query(QueryRequest::KnnBatch(queries, ks));
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  ASSERT_EQ(knn->neighbors.size(), queries.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    auto one_range = db->RangeQuery(queries[i], radii[i]);
    ASSERT_TRUE(one_range.ok());
    std::vector<ObjectId> got = range->ids[i];
    std::vector<ObjectId> want = one_range->ids[0];
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "radius " << radii[i];

    auto one_knn = db->KnnQuery(queries[i], ks[i]);
    ASSERT_TRUE(one_knn.ok());
    ASSERT_EQ(knn->neighbors[i].size(), one_knn->neighbors[0].size());
    for (size_t j = 0; j < knn->neighbors[i].size(); ++j) {
      EXPECT_EQ(knn->neighbors[i][j].id, one_knn->neighbors[0][j].id);
      EXPECT_EQ(knn->neighbors[i][j].dist, one_knn->neighbors[0][j].dist);
    }
  }

  // Descriptor validation: size mismatch, bad values, cross-type mixes.
  EXPECT_EQ(db->Query(QueryRequest::RangeBatch(queries, {1.0, 2.0}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->Query(QueryRequest::KnnBatch(queries, {1, 2})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->Query(QueryRequest::RangeBatch(queries, {1.0, -2.0, 3.0}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->Query(QueryRequest::KnnBatch(queries, {1, 0, 3}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  QueryRequest crossed = QueryRequest::RangeBatch(queries, radii);
  crossed.ks = ks;
  EXPECT_EQ(db->Query(crossed).status().code(), StatusCode::kInvalidArgument);
}

TEST(MetricDBTest, ReadViewAnswersAtAPinnedSequence) {
  auto db = MetricDB::Create(
      MetricDBConfig().WithMetric("L2").WithIndex("LAESA").WithPivots(3),
      SmallVectors());
  ASSERT_TRUE(db.ok());

  auto view = db->GetReadView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  uint64_t pinned_seq = view->sequence();
  EXPECT_TRUE(view->alive(5));

  // Mutate the database under the pinned view: the view must keep
  // answering from its own immutable version.
  ASSERT_TRUE(db->Remove(5).ok());
  EXPECT_FALSE(db->alive(5));
  EXPECT_TRUE(view->alive(5));
  EXPECT_EQ(view->sequence(), pinned_seq);
  EXPECT_GT(db->last_sequence(), pinned_seq);

  auto snapshot = view->Query(
      QueryRequest::RangeBatch({db->dataset().view(5)}, 0.0));
  ASSERT_TRUE(snapshot.ok());
  // Distance 0 to itself: the pinned view still sees object 5...
  EXPECT_EQ(snapshot->ids[0], std::vector<ObjectId>{5});
  // ...while a fresh facade query does not.
  auto fresh = db->RangeQuery(db->dataset().view(5), 0.0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->ids[0].empty());
}

TEST(MetricDBTest, WithPivotSetSkipsSelectionAndShares) {
  Dataset data = SmallVectors();
  auto first = MetricDB::Create(
      MetricDBConfig().WithMetric("L2").WithIndex("LAESA").WithPivots(3),
      data);
  ASSERT_TRUE(first.ok());
  // Reuse the first database's pivots; the two databases then share the
  // paper's equal footing without a second selection pass.
  auto second = MetricDB::Create(MetricDBConfig()
                                     .WithMetric("L2")
                                     .WithIndex("MVPT")
                                     .WithPivotSet(first->pivots()),
                                 data);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->pivots().size(), first->pivots().size());
  for (uint32_t i = 0; i < first->pivots().size(); ++i) {
    EXPECT_TRUE(second->pivots().pivot(i).PayloadEquals(
        first->pivots().pivot(i)));
  }
  // min_pivots is still enforced against the provided set...
  EXPECT_EQ(MetricDB::Create(MetricDBConfig()
                                 .WithMetric("L2")
                                 .WithIndex("MVPT")
                                 .WithPivotSet(PivotSet()),
                             data)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // ...while a pivot-free baseline accepts an empty set (no selection).
  EXPECT_TRUE(MetricDB::Create(MetricDBConfig()
                                   .WithMetric("L2")
                                   .WithIndex("LinearScan")
                                   .WithPivotSet(PivotSet()),
                               data)
                  .ok());
  // A kind-mismatched injected pivot set is an error, not UB in the
  // metric kernels.
  Dataset words = MakeWordsLike(20, /*seed=*/1);
  PivotSet string_pivots(words, {0, 1});
  EXPECT_EQ(MetricDB::Create(MetricDBConfig()
                                 .WithMetric("L2")
                                 .WithIndex("LAESA")
                                 .WithPivotSet(string_pivots),
                             data)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MetricDBTest, StringWorkloadEndToEnd) {
  Dataset dict = MakeWordsLike(600, /*seed=*/3);
  dict.AddString("metric");
  auto db = MetricDB::Create(
      MetricDBConfig().WithMetric("edit").WithIndex("MVPT").WithPivots(4),
      dict);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto res = db->RangeQuery(ObjectView::FromString("metricz"), 1.0);
  ASSERT_TRUE(res.ok());
  bool found = false;
  for (ObjectId id : res->ids[0]) {
    found = found || db->dataset().view(id).AsString() == "metric";
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace pmi
