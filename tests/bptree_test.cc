// B+-tree unit and property tests: ordered iteration, duplicates, removal,
// bulk load equivalence, MBB aggregate maintenance, and scan correctness
// against a sorted-vector model.

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/rng.h"
#include "src/storage/bptree.h"
#include "src/storage/paged_file.h"

namespace pmi {
namespace {

std::vector<char> Val(uint32_t v) {
  std::vector<char> out(4);
  std::memcpy(out.data(), &v, 4);
  return out;
}

uint32_t UnVal(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

TEST(BPlusTreeTest, InsertScanSmall) {
  PerfCounters c;
  PagedFile f(256, 128 * 1024, &c);
  BPlusTree t(&f, 4);
  for (uint32_t i = 0; i < 100; ++i) t.Insert(i * 2, Val(i).data());
  std::vector<uint64_t> keys;
  t.Scan(0, UINT64_MAX, [&](uint64_t k, const char* v) {
    keys.push_back(k);
    EXPECT_EQ(UnVal(v) * 2, k);
    return true;
  });
  ASSERT_EQ(keys.size(), 100u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_GT(t.height(), 1u);
}

TEST(BPlusTreeTest, RangeScanBoundsInclusive) {
  PerfCounters c;
  PagedFile f(256, 128 * 1024, &c);
  BPlusTree t(&f, 4);
  for (uint32_t i = 0; i < 50; ++i) t.Insert(i * 10, Val(i).data());
  std::vector<uint64_t> keys;
  t.Scan(100, 200, [&](uint64_t k, const char*) {
    keys.push_back(k);
    return true;
  });
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_EQ(keys.front(), 100u);
  EXPECT_EQ(keys.back(), 200u);
}

TEST(BPlusTreeTest, DuplicateKeysAllStored) {
  PerfCounters c;
  PagedFile f(256, 128 * 1024, &c);
  BPlusTree t(&f, 4);
  for (uint32_t i = 0; i < 300; ++i) t.Insert(42, Val(i).data());
  std::vector<uint32_t> vals;
  t.Scan(42, 42, [&](uint64_t, const char* v) {
    vals.push_back(UnVal(v));
    return true;
  });
  ASSERT_EQ(vals.size(), 300u);
  std::sort(vals.begin(), vals.end());
  for (uint32_t i = 0; i < 300; ++i) EXPECT_EQ(vals[i], i);
}

TEST(BPlusTreeTest, RemoveSpecificDuplicate) {
  PerfCounters c;
  PagedFile f(256, 128 * 1024, &c);
  BPlusTree t(&f, 4);
  for (uint32_t i = 0; i < 200; ++i) t.Insert(7, Val(i).data());
  EXPECT_TRUE(t.Remove(7, Val(123).data(), 4));
  EXPECT_FALSE(t.Remove(7, Val(123).data(), 4)) << "already removed";
  EXPECT_FALSE(t.Remove(8, Val(0).data(), 4)) << "absent key";
  size_t n = 0;
  bool saw_123 = false;
  t.Scan(0, UINT64_MAX, [&](uint64_t, const char* v) {
    ++n;
    saw_123 |= UnVal(v) == 123;
    return true;
  });
  EXPECT_EQ(n, 199u);
  EXPECT_FALSE(saw_123);
}

TEST(BPlusTreeTest, RandomizedAgainstModel) {
  PerfCounters c;
  PagedFile f(512, 128 * 1024, &c);
  BPlusTree t(&f, 4);
  std::multimap<uint64_t, uint32_t> model;
  Rng rng(99);
  for (int op = 0; op < 5000; ++op) {
    if (model.empty() || rng() % 3 != 0) {
      uint64_t k = rng() % 500;
      uint32_t v = static_cast<uint32_t>(rng());
      t.Insert(k, Val(v).data());
      model.emplace(k, v);
    } else {
      auto it = model.begin();
      std::advance(it, rng() % model.size());
      EXPECT_TRUE(t.Remove(it->first, Val(it->second).data(), 4));
      model.erase(it);
    }
  }
  std::vector<std::pair<uint64_t, uint32_t>> got, want;
  t.Scan(0, UINT64_MAX, [&](uint64_t k, const char* v) {
    got.emplace_back(k, UnVal(v));
    return true;
  });
  for (auto& [k, v] : model) want.emplace_back(k, v);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(t.entry_count(), model.size());
}

TEST(BPlusTreeTest, BulkLoadMatchesInsertion) {
  PerfCounters c1, c2;
  PagedFile f1(512, 128 * 1024, &c1), f2(512, 128 * 1024, &c2);
  BPlusTree a(&f1, 4), b(&f2, 4);
  std::vector<std::pair<uint64_t, std::vector<char>>> entries;
  Rng rng(5);
  for (uint32_t i = 0; i < 2000; ++i) {
    entries.emplace_back(rng() % 10000, Val(i));
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](auto& x, auto& y) { return x.first < y.first; });
  for (auto& [k, v] : entries) a.Insert(k, v.data());
  b.BulkLoad(entries);
  std::vector<std::pair<uint64_t, uint32_t>> got_a, got_b;
  a.Scan(0, UINT64_MAX, [&](uint64_t k, const char* v) {
    got_a.emplace_back(k, UnVal(v));
    return true;
  });
  b.Scan(0, UINT64_MAX, [&](uint64_t k, const char* v) {
    got_b.emplace_back(k, UnVal(v));
    return true;
  });
  std::sort(got_a.begin(), got_a.end());
  std::sort(got_b.begin(), got_b.end());
  EXPECT_EQ(got_a, got_b);
  EXPECT_LT(f2.num_pages(), f1.num_pages())
      << "bulk load should pack tighter than repeated insertion";
}

// Aggregate adapter used below: value = 2 float coords.
void TwoDPoint(const BPlusTree::NodeView& leaf, float* coords) {
  for (uint32_t i = 0; i < leaf.count; ++i) {
    std::memcpy(coords + 2 * i, leaf.value(i), 8);
  }
}

std::vector<char> PointVal(float x, float y) {
  std::vector<char> out(8);
  std::memcpy(out.data(), &x, 4);
  std::memcpy(out.data() + 4, &y, 4);
  return out;
}

// Walks every internal entry and checks its stored MBB exactly bounds the
// leaf points below it.
void CheckAggregates(const BPlusTree& t, PageId page, float* out_lo,
                     float* out_hi) {
  BPlusTree::NodeView node = t.ReadNode(page);
  const uint32_t d = t.agg_dims();
  for (uint32_t j = 0; j < d; ++j) {
    out_lo[j] = 1e30f;
    out_hi[j] = -1e30f;
  }
  std::vector<float> points(size_t(node.count) * d), clo(d), chi(d);
  if (node.is_leaf) TwoDPoint(node, points.data());
  for (uint32_t i = 0; i < node.count; ++i) {
    if (node.is_leaf) {
      for (uint32_t j = 0; j < d; ++j) {
        out_lo[j] = std::min(out_lo[j], points[i * d + j]);
        out_hi[j] = std::max(out_hi[j], points[i * d + j]);
      }
    } else {
      CheckAggregates(t, node.child(i), clo.data(), chi.data());
      for (uint32_t j = 0; j < d; ++j) {
        EXPECT_FLOAT_EQ(node.agg_lo(i)[j], clo[j]);
        EXPECT_FLOAT_EQ(node.agg_hi(i)[j], chi[j]);
        out_lo[j] = std::min(out_lo[j], clo[j]);
        out_hi[j] = std::max(out_hi[j], chi[j]);
      }
    }
  }
}

TEST(BPlusTreeTest, AggregatesTrackLeavesThroughInsertAndRemove) {
  PerfCounters c;
  PagedFile f(512, 128 * 1024, &c);
  BPlusTree t(&f, 8, 2, TwoDPoint);
  Rng rng(31);
  std::vector<std::pair<uint64_t, std::vector<char>>> inserted;
  for (int i = 0; i < 1500; ++i) {
    uint64_t k = rng() % 4096;
    auto v = PointVal(float(rng() % 1000), float(rng() % 1000));
    t.Insert(k, v.data());
    inserted.emplace_back(k, v);
  }
  for (int i = 0; i < 700; ++i) {
    size_t idx = rng() % inserted.size();
    EXPECT_TRUE(
        t.Remove(inserted[idx].first, inserted[idx].second.data(), 8));
    inserted.erase(inserted.begin() + idx);
  }
  float lo[2], hi[2];
  CheckAggregates(t, t.root(), lo, hi);
}

TEST(BPlusTreeTest, ScanPageAccessesScaleWithRange) {
  PerfCounters c;
  PagedFile f(4096, 8 * 4096, &c);
  BPlusTree t(&f, 4);
  std::vector<std::pair<uint64_t, std::vector<char>>> entries;
  for (uint32_t i = 0; i < 20000; ++i) entries.emplace_back(i, Val(i));
  t.BulkLoad(entries);
  f.DropCache();
  c.Reset();
  t.Scan(0, 10, [](uint64_t, const char*) { return true; });
  uint64_t small = c.page_reads;
  f.DropCache();
  c.Reset();
  t.Scan(0, 10000, [](uint64_t, const char*) { return true; });
  uint64_t big = c.page_reads;
  EXPECT_LT(small, 5u);
  EXPECT_GT(big, small * 4);
}

}  // namespace
}  // namespace pmi
