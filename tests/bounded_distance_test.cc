// Property tests for the threshold-aware distance kernels (the
// verification half of the vectorized query engine).  The contract under
// test, for every metric the paper uses:
//
//   d(a, b) <= upper  =>  BoundedDistance(a, b, upper) == Distance(a, b)
//                         (bit-identical, not approximately equal)
//   d(a, b) >  upper  =>  BoundedDistance(a, b, upper) >  upper
//
// Every verification site in the library relies on this equivalence: the
// conformance suite only proves end-to-end agreement, while these tests
// pin the kernel-level contract directly, including adversarial bounds
// sitting exactly on the true distance.  Edit distance is also checked
// bit for bit against an independent full-matrix DP.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/metric.h"
#include "src/core/rng.h"
#include "src/data/generators.h"

namespace pmi {
namespace {

class BoundedDistanceTest : public ::testing::TestWithParam<BenchDatasetId> {};

TEST_P(BoundedDistanceTest, AgreesWithDistanceUnderRandomBounds) {
  BenchDataset bd = MakeBenchDataset(GetParam(), 400, /*seed=*/31);
  const Metric& m = *bd.metric;
  Rng rng(2077);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 4000; ++trial) {
    ObjectView a = bd.data.view(rng() % bd.data.size());
    ObjectView b = bd.data.view(rng() % bd.data.size());
    double exact = m.Distance(a, b);
    // Bounds spread over [0, 2 d]: half the draws force an abandon.
    double upper = 2.0 * exact * unit(rng);
    double got = m.BoundedDistance(a, b, upper);
    if (exact <= upper) {
      EXPECT_EQ(got, exact) << m.name() << ": completed run must be "
                            << "bit-identical (upper=" << upper << ")";
    } else {
      EXPECT_GT(got, upper) << m.name() << ": abandoned run must report "
                            << "> upper (exact=" << exact << ")";
    }
  }
}

TEST_P(BoundedDistanceTest, BoundExactlyAtDistanceCompletes) {
  // upper == d(a, b) is the tightest completing bound; any rounding slack
  // taken by an abandon test must not fire here.
  BenchDataset bd = MakeBenchDataset(GetParam(), 200, /*seed=*/77);
  const Metric& m = *bd.metric;
  Rng rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    ObjectView a = bd.data.view(rng() % bd.data.size());
    ObjectView b = bd.data.view(rng() % bd.data.size());
    double exact = m.Distance(a, b);
    EXPECT_EQ(m.BoundedDistance(a, b, exact), exact) << m.name();
  }
}

TEST_P(BoundedDistanceTest, InfiniteBoundEqualsDistance) {
  BenchDataset bd = MakeBenchDataset(GetParam(), 100, /*seed=*/13);
  const Metric& m = *bd.metric;
  Rng rng(9);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 500; ++trial) {
    ObjectView a = bd.data.view(rng() % bd.data.size());
    ObjectView b = bd.data.view(rng() % bd.data.size());
    EXPECT_EQ(m.BoundedDistance(a, b, inf), m.Distance(a, b)) << m.name();
  }
}

TEST_P(BoundedDistanceTest, NegativeBoundAlwaysAbandons) {
  BenchDataset bd = MakeBenchDataset(GetParam(), 50, /*seed=*/3);
  const Metric& m = *bd.metric;
  // KnnHeap::radius() is -inf for k = 0; every candidate must test > upper.
  for (double upper : {-1.0, -std::numeric_limits<double>::infinity()}) {
    for (ObjectId i = 0; i < 20; ++i) {
      EXPECT_GT(m.BoundedDistance(bd.data.view(i), bd.data.view(49 - i),
                                  upper),
                upper)
          << m.name();
    }
  }
}

TEST_P(BoundedDistanceTest, ZeroBoundIdentifiesDuplicates) {
  BenchDataset bd = MakeBenchDataset(GetParam(), 60, /*seed=*/21);
  const Metric& m = *bd.metric;
  for (ObjectId i = 0; i < bd.data.size(); ++i) {
    EXPECT_EQ(m.BoundedDistance(bd.data.view(i), bd.data.view(i), 0.0), 0.0)
        << m.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMetrics, BoundedDistanceTest,
    ::testing::Values(BenchDatasetId::kLa, BenchDatasetId::kWords,
                      BenchDatasetId::kColor, BenchDatasetId::kSynthetic),
    [](const auto& info) {
      switch (info.param) {
        case BenchDatasetId::kLa: return "L2_LA";
        case BenchDatasetId::kWords: return "Edit_Words";
        case BenchDatasetId::kColor: return "L1_Color";
        case BenchDatasetId::kSynthetic: return "Linf_Synthetic";
      }
      return "unknown";
    });

// -- edit-distance band corner cases -----------------------------------------

TEST(BoundedEditDistanceTest, HandCheckedBands) {
  EditDistanceMetric m(34);
  auto bounded = [&](std::string_view a, std::string_view b, double ub) {
    return m.BoundedDistance(ObjectView::FromString(a),
                             ObjectView::FromString(b), ub);
  };
  // Completing bands return the exact distance.
  EXPECT_EQ(bounded("kitten", "sitting", 3.0), 3.0);
  EXPECT_EQ(bounded("kitten", "sitting", 3.9), 3.0);
  EXPECT_EQ(bounded("flaw", "lawn", 2.0), 2.0);
  EXPECT_EQ(bounded("", "abc", 5.0), 3.0);
  EXPECT_EQ(bounded("abc", "", 3.0), 3.0);
  EXPECT_EQ(bounded("", "", 0.0), 0.0);
  // Abandoning bands report > upper.
  EXPECT_GT(bounded("kitten", "sitting", 2.0), 2.0);
  EXPECT_GT(bounded("kitten", "sitting", 2.99), 2.99);
  EXPECT_GT(bounded("abc", "", 2.0), 2.0);
  EXPECT_GT(bounded("defoliate", "citrate", 3.0), 3.0);
  // Length-difference shortcut.
  EXPECT_GT(bounded("a", "aaaaaaaaaa", 4.0), 4.0);
}

TEST(BoundedEditDistanceTest, RandomizedStringsAllBands) {
  // Dense sweep of every integer band for short random strings; catches
  // off-by-one band-boundary bugs the dataset-driven test might miss.
  EditDistanceMetric m(34);
  Rng rng(4242);
  auto random_word = [&](uint32_t max_len) {
    std::string w(rng() % (max_len + 1), 'a');
    for (char& c : w) c = static_cast<char>('a' + rng() % 4);
    return w;
  };
  for (int trial = 0; trial < 3000; ++trial) {
    std::string a = random_word(12), b = random_word(12);
    ObjectView va = ObjectView::FromString(a);
    ObjectView vb = ObjectView::FromString(b);
    double exact = m.Distance(va, vb);
    for (uint32_t ub = 0; ub <= 13; ++ub) {
      double got = m.BoundedDistance(va, vb, ub);
      if (exact <= ub) {
        EXPECT_EQ(got, exact) << '"' << a << "\" vs \"" << b << "\" ub=" << ub;
      } else {
        EXPECT_GT(got, double(ub))
            << '"' << a << "\" vs \"" << b << "\" ub=" << ub;
      }
    }
  }
}

// -- independent oracle -------------------------------------------------------
//
// The kernel is checked against a textbook full-matrix Levenshtein DP that
// shares no code with it.  BoundedDistance is pinned to one exact return
// value for every bound, not just to the "<= upper / > upper" contract:
// with kb = floor(upper) (0 for a negative bound) and m <= n,
//
//   upper >= n (or NaN)  ->  d
//   n - m > kb           ->  n - m
//   otherwise            ->  min(d, kb + 1)

uint32_t ReferenceLevenshtein(std::string_view a, std::string_view b) {
  std::vector<std::vector<uint32_t>> d(a.size() + 1,
                                       std::vector<uint32_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = static_cast<uint32_t>(i);
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = static_cast<uint32_t>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1])});
    }
  }
  return d[a.size()][b.size()];
}

double ExpectedBounded(uint32_t d, size_t len_a, size_t len_b,
                       double upper) {
  const uint32_t m = static_cast<uint32_t>(std::min(len_a, len_b));
  const uint32_t n = static_cast<uint32_t>(std::max(len_a, len_b));
  if (!(upper < n)) return d;
  const uint32_t kb =
      upper < 0 ? 0 : static_cast<uint32_t>(std::floor(upper));
  if (n - m > kb) return n - m;
  return std::min(d, kb + 1);
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// Checks Distance and BoundedDistance, both argument orders, at bounds -1,
// +inf, every integer 0..n+1 and every k + 0.5 in between.
void CheckAgainstOracle(const EditDistanceMetric& metric, std::string_view a,
                        std::string_view b) {
  const uint32_t d = ReferenceLevenshtein(a, b);
  const ObjectView va = ObjectView::FromString(a);
  const ObjectView vb = ObjectView::FromString(b);
  const auto where = [&] {
    return ::testing::Message() << "|a|=" << a.size() << " |b|=" << b.size()
                                << " d=" << d;
  };
  ASSERT_TRUE(SameBits(metric.Distance(va, vb), double(d))) << where();
  ASSERT_TRUE(SameBits(metric.Distance(vb, va), double(d))) << where();
  std::vector<double> bounds = {-1.0, std::numeric_limits<double>::infinity()};
  const size_t n = std::max(a.size(), b.size());
  for (size_t k = 0; k <= n + 1; ++k) {
    bounds.push_back(double(k));
    bounds.push_back(k + 0.5);
  }
  for (double upper : bounds) {
    const double want = ExpectedBounded(d, a.size(), b.size(), upper);
    ASSERT_TRUE(SameBits(metric.BoundedDistance(va, vb, upper), want))
        << where() << " upper=" << upper << " got "
        << metric.BoundedDistance(va, vb, upper) << " want " << want;
    ASSERT_TRUE(SameBits(metric.BoundedDistance(vb, va, upper), want))
        << where() << " upper=" << upper << " (swapped)";
  }
}

TEST(EditDistanceOracleTest, RandomStringsEveryLengthByteAndBound) {
  // Lengths straddle the 64-row block edges; alphabets of 2 and 4 give
  // long matching runs, and all 256 byte values cover '\0' and bytes
  // >= 0x80 (a signed-char table index would read out of bounds).  Half
  // of the pairs are edited copies, so small distances between long
  // strings -- the case the band and the early stop serve -- are common.
  EditDistanceMetric metric(200);
  Rng rng(90210);
  const std::vector<uint32_t> edge_lengths = {0,  1,  2,  31, 63, 64,
                                              65, 100, 127, 128, 129, 200};
  auto pick_length = [&] {
    return rng() % 2 ? edge_lengths[rng() % edge_lengths.size()]
                     : static_cast<uint32_t>(rng() % 201);
  };
  for (uint32_t alphabet : {2u, 4u, 256u}) {
    auto random_byte = [&] { return static_cast<char>(rng() % alphabet); };
    for (int trial = 0; trial < 150; ++trial) {
      std::string a(pick_length(), '\0');
      for (char& c : a) c = random_byte();
      std::string b;
      if (trial % 2 == 0) {
        b.assign(pick_length(), '\0');
        for (char& c : b) c = random_byte();
      } else {
        b = a;
        for (uint64_t e = rng() % 9; e > 0; --e) {
          const size_t at = rng() % (b.size() + 1);
          switch (rng() % 3) {
            case 0: b.insert(b.begin() + at, random_byte()); break;
            case 1: if (at < b.size()) b.erase(at, 1); break;
            default: if (at < b.size()) b[at] = random_byte(); break;
          }
        }
      }
      CheckAgainstOracle(metric, a, b);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EditDistanceOracleTest, WordsPairs) {
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kWords, 300, /*seed=*/8);
  EditDistanceMetric metric(34);
  for (ObjectId i = 0; i + 1 < bd.data.size(); i += 2) {
    CheckAgainstOracle(metric, bd.data.view(i).AsString(),
                       bd.data.view(i + 1).AsString());
    if (HasFatalFailure()) return;
  }
}

// -- held pattern -------------------------------------------------------------
//
// The calling thread keeps the match masks of the last pattern and reuses
// them whenever either argument has the same bytes.  These sequences pin
// every return of such reuse against the oracle: a scan's query against
// many texts, pattern switches, equal-length patterns one byte apart, a
// buffer rewritten in place, and patterns longer than their texts.

// Calls BoundedDistance(a, b, .) at bounds -1, then every integer and
// k + 0.5 up to max(|a|, |b|) + 1 in ascending order, then +inf, then
// Distance both ways.  On a freshly loaded pattern the small bounds run
// first, so later calls find only the rows an earlier band reached.
void CheckBoundedFirst(const EditDistanceMetric& metric, std::string_view a,
                       std::string_view b) {
  const uint32_t d = ReferenceLevenshtein(a, b);
  const ObjectView va = ObjectView::FromString(a);
  const ObjectView vb = ObjectView::FromString(b);
  std::vector<double> bounds = {-1.0};
  const size_t n = std::max(a.size(), b.size());
  for (size_t k = 0; k <= n + 1; ++k) {
    bounds.push_back(double(k));
    bounds.push_back(k + 0.5);
  }
  bounds.push_back(std::numeric_limits<double>::infinity());
  for (double upper : bounds) {
    const double want = ExpectedBounded(d, a.size(), b.size(), upper);
    ASSERT_TRUE(SameBits(metric.BoundedDistance(va, vb, upper), want))
        << "|a|=" << a.size() << " |b|=" << b.size() << " d=" << d
        << " upper=" << upper;
  }
  ASSERT_TRUE(SameBits(metric.Distance(va, vb), double(d)));
  ASSERT_TRUE(SameBits(metric.Distance(vb, va), double(d)));
}

// A copy of `s` with up to `max_edits` random insertions, deletions and
// substitutions over bytes [0, alphabet).
std::string Edited(std::string s, uint32_t max_edits, uint32_t alphabet,
                   Rng* rng) {
  for (uint64_t e = (*rng)() % (max_edits + 1); e > 0; --e) {
    const size_t at = (*rng)() % (s.size() + 1);
    const char c = static_cast<char>((*rng)() % alphabet);
    switch ((*rng)() % 3) {
      case 0: s.insert(s.begin() + at, c); break;
      case 1: if (at < s.size()) s.erase(at, 1); break;
      default: if (at < s.size()) s[at] = c; break;
    }
  }
  return s;
}

std::string RandomString(size_t len, uint32_t alphabet, Rng* rng) {
  std::string s(len, '\0');
  for (char& c : s) c = static_cast<char>((*rng)() % alphabet);
  return s;
}

TEST(EditDistanceOracleTest, HeldQueryAgainstManyTextsBothOrders) {
  EditDistanceMetric metric(300);
  Rng rng(6502);
  // One-word and multi-word queries; texts shorter and longer, half of
  // them near copies of the query.
  for (size_t qlen : {7u, 40u, 150u}) {
    const std::string q = RandomString(qlen, 4, &rng);
    for (int i = 0; i < 120; ++i) {
      const std::string t =
          i % 2 == 0 ? Edited(q, 12, 4, &rng)
                     : RandomString(rng() % (2 * qlen + 2), 4, &rng);
      if (i % 4 < 2) {
        CheckBoundedFirst(metric, q, t);
      } else {
        CheckBoundedFirst(metric, t, q);
      }
      if (HasFatalFailure()) return;
      CheckAgainstOracle(metric, i % 3 == 0 ? t : q, i % 3 == 0 ? q : t);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EditDistanceOracleTest, InterleavedPatternsAndOneByteNeighbours) {
  EditDistanceMetric metric(200);
  Rng rng(1999);
  for (size_t len : {5u, 64u, 100u}) {
    const std::string p1 = RandomString(len, 4, &rng);
    const std::string p2 = [&] {  // equal length, one byte apart
      std::string s = p1;
      s[rng() % len] ^= 1;
      return s;
    }();
    const std::string p3 = RandomString(len + rng() % 9, 4, &rng);
    for (int i = 0; i < 40; ++i) {
      const std::string t = Edited(i % 2 ? p1 : p3, 10, 4, &rng);
      for (const std::string* p : {&p1, &p2, &p1, &p3, &p2}) {
        CheckBoundedFirst(metric, *p, t);
        if (HasFatalFailure()) return;
      }
      CheckBoundedFirst(metric, t, p2);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EditDistanceOracleTest, PatternRewrittenInPlace) {
  // The same buffer, at the same address and length, holds a new pattern
  // on every round; the held masks must follow the bytes.
  EditDistanceMetric metric(200);
  Rng rng(31337);
  for (size_t len : {9u, 70u, 130u}) {
    std::string buf = RandomString(len, 4, &rng);
    const char* const at = buf.data();
    const std::string text = Edited(buf, 6, 4, &rng);
    for (int round = 0; round < 30; ++round) {
      CheckBoundedFirst(metric, buf, text);
      if (HasFatalFailure()) return;
      if (round % 3 == 2) {
        const std::string fresh = RandomString(len, 4, &rng);
        std::memcpy(buf.data(), fresh.data(), len);
      } else {
        buf[rng() % len] = static_cast<char>(rng() % 4);
      }
      ASSERT_EQ(buf.data(), at);
    }
  }
}

TEST(EditDistanceOracleTest, PatternsLongerThanTheirTexts) {
  // Word-edge lengths as the first argument, texts shorter than them:
  // the pattern is the longer string, so the end diagonal starts below
  // row 0 and the band leans the other way.
  EditDistanceMetric metric(200);
  Rng rng(4004);
  for (size_t len : {63u, 64u, 65u, 128u, 129u}) {
    for (uint32_t alphabet : {2u, 4u, 256u}) {
      const std::string p = RandomString(len, alphabet, &rng);
      for (int i = 0; i < 24; ++i) {
        std::string t;
        switch (i % 3) {
          case 0:  // a few bytes shorter: small distances, narrow band
            t = p.substr(rng() % 4, len - 4 - rng() % 4);
            t = Edited(t, 3, alphabet, &rng);
            break;
          case 1:
            t = RandomString(rng() % len, alphabet, &rng);
            break;
          default:
            t = p.substr(0, len - 1 - rng() % 40);
            break;
        }
        ASSERT_LT(t.size(), p.size());
        CheckBoundedFirst(metric, p, t);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// -- DistanceComputer accounting ----------------------------------------------

TEST(DistanceComputerBoundedTest, CountsAbandonedCallsAsOneComputation) {
  // compdists measures examined pairs; an early abandon is still one
  // examination.  The acceptance bar "speedup with compdists unchanged"
  // depends on this.
  L2Metric m(4, 10.0);
  PerfCounters counters;
  DistanceComputer dc(&m, &counters);
  float a[4] = {0, 0, 0, 0}, b[4] = {9, 9, 9, 9};
  ObjectView va = ObjectView::FromVector(a, 4);
  ObjectView vb = ObjectView::FromVector(b, 4);
  for (int i = 0; i < 5; ++i) dc.Bounded(va, vb, 0.5);   // abandons
  for (int i = 0; i < 3; ++i) dc.Bounded(va, vb, 1e9);   // completes
  EXPECT_EQ(counters.dist_computations, 8u);
}

}  // namespace
}  // namespace pmi
