// Save/Open round-trip conformance: for every index implementing
// persistence, a database restored from a snapshot must answer exactly
// like the instance that was saved -- identical results, identical
// per-request compdists, identical memory/disk footprints -- and the
// table indexes must restore without a single distance computation.
// Damaged files (truncation, bit flips, version bumps, wrong magic) must
// come back as errors, never as crashes.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/metric_db.h"
#include "src/api/snapshot.h"
#include "src/core/serialize.h"
#include "src/data/generators.h"

namespace pmi {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "pmi_" + name + ".pmidb";
}

std::string SafeName(std::string n) {
  for (char& c : n) {
    if (c == '*') c = 'S';
    if (c == '-' || c == '+') c = '_';
  }
  return n;
}

struct Case {
  std::string index;
  bool persists;      // SaveState implemented (vs rebuild-on-open)
  bool zero_compdist; // Open must compute no distances at all
};

class SnapshotRoundTripTest : public ::testing::TestWithParam<Case> {};

TEST_P(SnapshotRoundTripTest, RoundTripsExactly) {
  const Case& c = GetParam();
  Dataset data = MakeLaLike(1500, /*seed=*/11);
  auto built = MetricDB::Create(MetricDBConfig()
                                    .WithMetric("L2")
                                    .WithIndex(c.index)
                                    .WithPivots(4),
                                data);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  std::vector<ObjectView> queries;
  for (ObjectId q = 0; q < 12; ++q) queries.push_back(data.view(q * 101 % data.size()));
  auto range0 = built->Query(QueryRequest::RangeBatch(queries, 650.0));
  auto knn0 = built->Query(QueryRequest::KnnBatch(queries, 10));
  ASSERT_TRUE(range0.ok() && knn0.ok());

  const std::string path = TempPath(SafeName(c.index));
  ASSERT_TRUE(built->Save(path).ok());

  auto reopened = MetricDB::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->restored_from_snapshot(), c.persists);
  if (c.zero_compdist) {
    EXPECT_EQ(reopened->build_stats().dist_computations, 0u)
        << c.index << " must restore without distance computations";
  }
  if (!c.persists) {
    // Rebuild-on-open recomputes exactly what Create computed.
    EXPECT_EQ(reopened->build_stats().dist_computations,
              built->build_stats().dist_computations);
  }

  // Footprints carry over exactly.
  EXPECT_EQ(reopened->index().memory_bytes(), built->index().memory_bytes());
  EXPECT_EQ(reopened->index().disk_bytes(), built->index().disk_bytes());

  // Bit-identical results and compdists, query by query.  Queries come
  // from the REOPENED dataset to prove the snapshot's own data serves.
  std::vector<ObjectView> queries2;
  for (ObjectId q = 0; q < 12; ++q) {
    queries2.push_back(reopened->dataset().view(q * 101 % data.size()));
  }
  auto range1 = reopened->Query(QueryRequest::RangeBatch(queries2, 650.0));
  auto knn1 = reopened->Query(QueryRequest::KnnBatch(queries2, 10));
  ASSERT_TRUE(range1.ok() && knn1.ok());
  EXPECT_EQ(range1->ids, range0->ids);
  EXPECT_EQ(range1->stats.dist_computations, range0->stats.dist_computations);
  ASSERT_EQ(knn1->neighbors.size(), knn0->neighbors.size());
  for (size_t i = 0; i < knn0->neighbors.size(); ++i) {
    ASSERT_EQ(knn1->neighbors[i].size(), knn0->neighbors[i].size());
    for (size_t j = 0; j < knn0->neighbors[i].size(); ++j) {
      EXPECT_EQ(knn1->neighbors[i][j].id, knn0->neighbors[i][j].id);
      EXPECT_EQ(knn1->neighbors[i][j].dist, knn0->neighbors[i][j].dist);
    }
  }
  EXPECT_EQ(knn1->stats.dist_computations, knn0->stats.dist_computations);

  // CI artifact hook: keep one snapshot around for upload when asked.
  if (const char* artifact = std::getenv("PMI_SNAPSHOT_ARTIFACT");
      artifact != nullptr && c.index == "LAESA") {
    EXPECT_TRUE(built->Save(artifact).ok());
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllPersistingIndexes, SnapshotRoundTripTest,
    ::testing::Values(Case{"LAESA", true, true},
                      Case{"EPT", true, true},
                      Case{"EPT*", true, true},
                      Case{"CPT", true, true},
                      Case{"MVPT", true, true},
                      Case{"VPT", true, true},
                      Case{"LinearScan", true, true},
                      // No SaveImpl: the snapshot degrades to
                      // rebuild-on-open and must still round-trip.
                      Case{"SPB-tree", false, false},
                      Case{"AESA", false, false},
                      Case{"PM-tree", false, false},
                      Case{"OmniSeq", false, false},
                      Case{"OmniB+tree", false, false},
                      Case{"OmniR-tree", false, false},
                      Case{"M-index", false, false},
                      Case{"M-index*", false, false},
                      Case{"EPT*-disk", false, false}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return SafeName(info.param.index);
    });

TEST(SnapshotRoundTripTest, StringDatasetRoundTrips) {
  Dataset dict = MakeWordsLike(900, /*seed=*/6);
  auto built = MetricDB::Create(
      MetricDBConfig().WithMetric("edit").WithIndex("MVPT").WithPivots(3),
      dict);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = TempPath("words_mvpt");
  ASSERT_TRUE(built->Save(path).ok());
  auto reopened = MetricDB::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->build_stats().dist_computations, 0u);
  ObjectView q = dict.view(42);
  auto a = built->RangeQuery(q, 2.0);
  auto b = reopened->RangeQuery(q, 2.0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ids, b->ids);
  EXPECT_EQ(a->stats.dist_computations, b->stats.dist_computations);
  std::remove(path.c_str());
}

// BKT, FQT and FQA persist no state of their own: Open rebuilds them from
// the snapshot's dataset.  The rebuilt index must answer every query of a
// fixed set with the same ids, the same neighbours and the same compdists
// as the instance that was saved.
class SnapshotWordsRebuildTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotWordsRebuildTest, RoundTripsQueryByQuery) {
  const std::string& index = GetParam();
  Dataset words = MakeWordsLike(1200, /*seed=*/17);
  auto built = MetricDB::Create(
      MetricDBConfig().WithMetric("edit").WithIndex(index).WithPivots(3),
      words);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = TempPath("words_" + index);
  ASSERT_TRUE(built->Save(path).ok());
  auto reopened = MetricDB::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened->restored_from_snapshot());
  EXPECT_EQ(reopened->build_stats().dist_computations,
            built->build_stats().dist_computations);

  for (ObjectId i = 0; i < 24; ++i) {
    const ObjectId id = i * 53 % words.size();
    // The reopened side queries with its own copy of the object.
    const ObjectView q0 = words.view(id);
    const ObjectView q1 = reopened->dataset().view(id);
    for (double r : {1.0, 2.0, 3.0}) {
      auto a = built->RangeQuery(q0, r);
      auto b = reopened->RangeQuery(q1, r);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(b->ids, a->ids) << index << " query " << id << " r=" << r;
      EXPECT_EQ(b->stats.dist_computations, a->stats.dist_computations)
          << index << " query " << id << " r=" << r;
    }
    auto a = built->KnnQuery(q0, 8);
    auto b = reopened->KnnQuery(q1, 8);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(b->neighbors.size(), 1u);
    ASSERT_EQ(b->neighbors[0].size(), a->neighbors[0].size());
    for (size_t j = 0; j < a->neighbors[0].size(); ++j) {
      EXPECT_EQ(b->neighbors[0][j].id, a->neighbors[0][j].id)
          << index << " query " << id << " rank " << j;
      EXPECT_EQ(b->neighbors[0][j].dist, a->neighbors[0][j].dist)
          << index << " query " << id << " rank " << j;
    }
    EXPECT_EQ(b->stats.dist_computations, a->stats.dist_computations)
        << index << " query " << id << " kNN";
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RebuildOnOpen, SnapshotWordsRebuildTest,
                         ::testing::Values("BKT", "FQT", "FQA"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(SnapshotRoundTripTest, UpdatesSurviveTheRoundTrip) {
  // Persistence must capture the CURRENT state, not the built state:
  // remove some objects, snapshot, and check the hole is still there.
  Dataset data = MakeLaLike(500, /*seed=*/23);
  auto built = MetricDB::Create(
      MetricDBConfig().WithMetric("L2").WithIndex("LinearScan"), data);
  ASSERT_TRUE(built.ok());
  // Facade keeps update surface minimal; drive the owned index directly.
  const_cast<MetricIndex&>(built->index()).Remove(7);
  const std::string path = TempPath("after_update");
  ASSERT_TRUE(built->Save(path).ok());
  auto reopened = MetricDB::Open(path);
  ASSERT_TRUE(reopened.ok());
  auto res = reopened->RangeQuery(reopened->dataset().view(7), 0.0);
  ASSERT_TRUE(res.ok());
  for (ObjectId id : res->ids[0]) EXPECT_NE(id, 7u);
  std::remove(path.c_str());
}

// -- damage -------------------------------------------------------------------

class SnapshotDamageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Dataset data = MakeLaLike(300, /*seed=*/9);
    auto db = MetricDB::Create(
        MetricDBConfig().WithMetric("L2").WithIndex("LAESA").WithPivots(3),
        data);
    ASSERT_TRUE(db.ok());
    path_ = TempPath("damage");
    ASSERT_TRUE(db->Save(path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void Rewrite(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), bytes.size());
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotDamageTest, MissingFileIsNotFound) {
  auto r = MetricDB::Open(TempPath("does_not_exist"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotDamageTest, WrongMagicIsInvalidArgument) {
  std::string bad = bytes_;
  bad[0] = 'X';
  Rewrite(bad);
  auto r = MetricDB::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotDamageTest, VersionBumpIsFailedPrecondition) {
  std::string bad = bytes_;
  bad[8] = char(kSnapshotFormatVersion + 1);  // u32 version, little-endian
  Rewrite(bad);
  auto r = MetricDB::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotDamageTest, EveryTruncationErrorsOutCleanly) {
  // Chop the file at many lengths; every prefix must produce an error --
  // no crash, no bogus success.
  for (size_t len : {0ul, 5ul, 12ul, 19ul, 20ul, 64ul, bytes_.size() / 2,
                     bytes_.size() - 9, bytes_.size() - 1}) {
    Rewrite(bytes_.substr(0, len));
    auto r = MetricDB::Open(path_);
    EXPECT_FALSE(r.ok()) << "truncation at " << len << " bytes";
  }
}

TEST_F(SnapshotDamageTest, EmptyFileIsError) {
  Rewrite("");
  auto r = MetricDB::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotDamageTest, DirectoryIsError) {
  // TempDir itself: a directory is never a snapshot, and must be refused
  // by the I/O layer, not discovered via a garbage read.
  auto r = MetricDB::Open(::testing::TempDir());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST_F(SnapshotDamageTest, EveryEighthBoundaryTruncationErrorsOutCleanly) {
  for (int k = 0; k < 8; ++k) {
    size_t len = bytes_.size() * k / 8;
    Rewrite(bytes_.substr(0, len));
    auto r = MetricDB::Open(path_);
    EXPECT_FALSE(r.ok()) << "truncation at " << k << "/8 = " << len
                         << " bytes";
  }
}

TEST(SnapshotDurableDamageTest, ValidCheckpointWithGarbageWalTailRecovers) {
  // The WAL reader's contract: a checkpoint that is intact plus a log
  // holding pure garbage recovers to exactly the checkpoint state (the
  // garbage reads as a torn tail of zero valid records).
  const std::string dir = ::testing::TempDir() + "pmi_garbage_wal";
  Dataset data = MakeLaLike(300, /*seed=*/9);
  auto db = MetricDB::CreateDurable(
      MetricDBConfig().WithMetric("L2").WithIndex("LAESA").WithPivots(3),
      data, dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->Remove(5).ok());
  ASSERT_TRUE(db->Remove(6).ok());
  const uint64_t seq = db->last_sequence();
  // Both removes are fsynced; release the LOCK so the reopen below is
  // the crashed-process recovery it models, not a second live opener.
  ASSERT_TRUE(db->Close().ok());

  // Overwrite the live WAL with garbage that never checksums.
  {
    std::ofstream out(dir + "/wal-000001.log",
                      std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 64; ++i) out.put(char(0xa5));
  }
  auto reopened = MetricDB::OpenDurable(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The two removes lived only in the clobbered WAL: recovery lands on
  // the checkpoint prefix (seq 0), not on an error and not past it.
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(reopened->last_sequence(), 0u);
  EXPECT_TRUE(reopened->alive(5));
  EXPECT_TRUE(reopened->alive(6));
}

TEST_F(SnapshotDamageTest, PayloadBitFlipIsDataLoss) {
  for (size_t pos : {21ul, bytes_.size() / 2, bytes_.size() - 9}) {
    std::string bad = bytes_;
    bad[pos] = char(bad[pos] ^ 0x5a);
    Rewrite(bad);
    auto r = MetricDB::Open(path_);
    ASSERT_FALSE(r.ok()) << "bit flip at " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
}

TEST(SnapshotDamageUnitTest, AbsurdPivotTableHeaderIsDataLossNotBadAlloc) {
  // A crafted (checksum-valid) snapshot can claim any table geometry;
  // implausible width/rows must be rejected before any allocation.
  struct Geometry {
    uint32_t width;
    uint64_t rows;
  };
  for (Geometry g : {Geometry{0xFFFFFFFFu, 0}, Geometry{0xFFFFFFFFu, 1},
                     Geometry{50000, 1u << 20}}) {
    ByteSink sink;
    sink.PutU8(0);
    sink.PutU32(g.width);
    sink.PutU64(g.rows);
    ByteSource source(sink.bytes());
    PivotTable table;
    Status s = DeserializePivotTable(&source, &table);
    ASSERT_FALSE(s.ok()) << "width=" << g.width << " rows=" << g.rows;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  }
}

TEST(SnapshotEmptyTableTest, DrainedPivotTableRoundTrips) {
  // A table whose every row was removed serializes as width > 0,
  // rows == 0 with nothing after it; the plausibility guard must not
  // mistake that for a truncated payload (it once did, which made a
  // checkpoint of a fully drained shard unreadable).
  PivotTable table;
  table.Reset(4, /*per_row=*/false);
  ByteSink sink;
  SerializePivotTable(table, &sink);
  ByteSource source(sink.bytes());
  PivotTable restored;
  Status s = DeserializePivotTable(&source, &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored.width(), 4u);
  EXPECT_EQ(restored.rows(), 0u);
  EXPECT_EQ(source.remaining(), 0u);
}

TEST(SnapshotEmptyTableTest, FullyDrainedDatabaseReopensFromSnapshot) {
  // End-to-end: remove every object, snapshot, reopen.  The restored
  // instance must know the objects are dead and resurrect them on
  // insert.
  Dataset data = MakeLaLike(64, /*seed=*/7);
  auto built = MetricDB::Create(MetricDBConfig()
                                    .WithMetric("L2")
                                    .WithIndex("LAESA")
                                    .WithPivots(4),
                                data);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  for (ObjectId id = 0; id < data.size(); ++id) {
    ASSERT_TRUE(built->Remove(id).ok());
  }
  const std::string path = TempPath("drained");
  ASSERT_TRUE(built->Save(path).ok());
  auto reopened = MetricDB::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (ObjectId id = 0; id < data.size(); ++id) {
    EXPECT_FALSE(reopened->alive(id)) << "id " << id;
  }
  auto knn = reopened->Query(QueryRequest::KnnBatch({data.view(0)}, 3));
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  EXPECT_TRUE(knn->neighbors[0].empty());
  ASSERT_TRUE(reopened->Insert(5).ok());
  EXPECT_TRUE(reopened->alive(5));
  std::remove(path.c_str());
}

TEST_F(SnapshotDamageTest, TrailingGarbageIsDataLoss) {
  Rewrite(bytes_ + "extra");
  auto r = MetricDB::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace pmi
