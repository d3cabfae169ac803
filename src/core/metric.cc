#include "src/core/metric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace pmi {
namespace {

// The early-abandon kernels check the running partial against the bound
// every kAbandonStride coordinates: often enough that a hopeless
// verification stops after a few cache lines, rarely enough that the check
// does not break auto-vectorization of the accumulation in between.
constexpr uint32_t kAbandonStride = 16;

// Inflated squared bound for the L2 abandon test.  The partial sum of
// squares grows monotonically (non-negative terms), so `partial > bound`
// proves the final distance exceeds `upper` -- but only if `bound` is
// guaranteed not to round below upper^2.  A few ulps of slack costs at
// worst one wasted stride; shaving the bound too tight would corrupt
// results, so the comparison errs on the generous side.
inline double InflatedSquare(double upper) {
  double u2 = upper * upper;
  return u2 + 4 * std::numeric_limits<double>::epsilon() * u2 +
         std::numeric_limits<double>::min();
}

}  // namespace

double L1Metric::Distance(const ObjectView& a, const ObjectView& b) const {
  assert(a.kind == ObjectKind::kVector && b.kind == ObjectKind::kVector);
  assert(a.dim == dim_ && b.dim == dim_);
  const float* __restrict pa = a.vec;
  const float* __restrict pb = b.vec;
  double sum = 0;
  for (uint32_t i = 0; i < dim_; ++i) sum += std::fabs(double(pa[i]) - pb[i]);
  return sum;
}

double L1Metric::BoundedDistance(const ObjectView& a, const ObjectView& b,
                                 double upper) const {
  assert(a.kind == ObjectKind::kVector && b.kind == ObjectKind::kVector);
  assert(a.dim == dim_ && b.dim == dim_);
  const float* __restrict pa = a.vec;
  const float* __restrict pb = b.vec;
  // Identical accumulation order to Distance(): a completed run returns a
  // bit-identical value.  The partial sum is a monotone lower bound, so
  // partial > upper proves d(a, b) > upper and the partial itself is a
  // valid "> upper" return value.
  double sum = 0;
  uint32_t i = 0;
  for (; i + kAbandonStride <= dim_; i += kAbandonStride) {
    for (uint32_t j = i; j < i + kAbandonStride; ++j) {
      sum += std::fabs(double(pa[j]) - pb[j]);
    }
    if (sum > upper) return sum;
  }
  for (; i < dim_; ++i) sum += std::fabs(double(pa[i]) - pb[i]);
  return sum;
}

L2Metric::L2Metric(uint32_t dim, double domain_extent)
    : dim_(dim), max_(domain_extent * std::sqrt(double(dim))) {}

double L2Metric::Distance(const ObjectView& a, const ObjectView& b) const {
  assert(a.kind == ObjectKind::kVector && b.kind == ObjectKind::kVector);
  assert(a.dim == dim_ && b.dim == dim_);
  const float* __restrict pa = a.vec;
  const float* __restrict pb = b.vec;
  double sum = 0;
  for (uint32_t i = 0; i < dim_; ++i) {
    double diff = double(pa[i]) - pb[i];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

double L2Metric::BoundedDistance(const ObjectView& a, const ObjectView& b,
                                 double upper) const {
  assert(a.kind == ObjectKind::kVector && b.kind == ObjectKind::kVector);
  assert(a.dim == dim_ && b.dim == dim_);
  if (upper < 0) return std::numeric_limits<double>::infinity();
  const float* __restrict pa = a.vec;
  const float* __restrict pb = b.vec;
  // Squared-space comparison: no sqrt unless the candidate survives.  The
  // abandon bound is inflated by a few ulps so a borderline sum never
  // abandons incorrectly; a completed loop falls through to the exact
  // sqrt, preserving bit-identity with Distance().
  const double bound = InflatedSquare(upper);
  double sum = 0;
  uint32_t i = 0;
  for (; i + kAbandonStride <= dim_; i += kAbandonStride) {
    for (uint32_t j = i; j < i + kAbandonStride; ++j) {
      double diff = double(pa[j]) - pb[j];
      sum += diff * diff;
    }
    if (sum > bound) return std::numeric_limits<double>::infinity();
  }
  for (; i < dim_; ++i) {
    double diff = double(pa[i]) - pb[i];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

double LInfMetric::Distance(const ObjectView& a, const ObjectView& b) const {
  assert(a.kind == ObjectKind::kVector && b.kind == ObjectKind::kVector);
  assert(a.dim == b.dim);
  const float* __restrict pa = a.vec;
  const float* __restrict pb = b.vec;
  double best = 0;
  for (uint32_t i = 0; i < a.dim; ++i) {
    best = std::max(best, std::fabs(double(pa[i]) - pb[i]));
  }
  return best;
}

double LInfMetric::BoundedDistance(const ObjectView& a, const ObjectView& b,
                                   double upper) const {
  assert(a.kind == ObjectKind::kVector && b.kind == ObjectKind::kVector);
  assert(a.dim == b.dim);
  const float* __restrict pa = a.vec;
  const float* __restrict pb = b.vec;
  // The running max is exact (no rounding accumulates), so the partial is
  // both the abandon test and the "> upper" return value.
  const uint32_t dim = a.dim;
  double best = 0;
  uint32_t i = 0;
  for (; i + kAbandonStride <= dim; i += kAbandonStride) {
    for (uint32_t j = i; j < i + kAbandonStride; ++j) {
      best = std::max(best, std::fabs(double(pa[j]) - pb[j]));
    }
    if (best > upper) return best;
  }
  for (; i < dim; ++i) {
    best = std::max(best, std::fabs(double(pa[i]) - pb[i]));
  }
  return best;
}

// -- edit distance ------------------------------------------------------------
//
// Myers' bit-vector algorithm (JACM 1999) in Hyyro's form for global
// Levenshtein distance.  One string s is the pattern: DP column j holds
// D[i][j] = d(s[0..i), t[0..j)) for i = 0..m, encoded as vertical deltas
// D[i][j] - D[i-1][j] in {-1, 0, +1}, one bit per pattern row in 64-row
// blocks (bit r of block b is row 64 b + r + 1).  Each text byte advances
// the whole column by a constant number of word operations.
//
// The pattern is whichever argument the calling thread's table already
// holds, else the first one.  Index queries pass the query first, so a
// scan sets the query's masks once and verifies every candidate against
// them.  The kernels need no order of the lengths.

namespace {

// The calling thread's per-byte match masks of one held pattern: bit r of
// eq(c)[b] is set when s[64 b + r] == c.  Rows are set on demand (SetRows)
// and stay set until another pattern is loaded, so the calls of one scan
// share them; a row not yet set reads as a mismatch, which can only raise
// the values the recurrence computes for it.  The table keeps a copy of
// the pattern's bytes: a call matches by content, never by address, so a
// buffer rewritten in place is a new pattern.
class PatternTable {
 public:
  bool Holds(std::string_view s) const { return s == bytes_; }

  /// Clears the held pattern's rows and holds `s` with no rows set.
  void Load(std::string_view s) {
    for (uint32_t i = 0; i < set_; ++i) table_[Slot(i)] = 0;
    bytes_.assign(s);
    blocks_ = (static_cast<uint32_t>(s.size()) + 63) / 64;
    set_ = 0;
    if (table_.size() < 256 * size_t{blocks_}) table_.resize(256 * blocks_);
  }

  /// Sets the masks of pattern rows [0, rows); rows <= pattern size.
  void SetRows(uint32_t rows) {
    for (; set_ < rows; ++set_) {
      table_[Slot(set_)] |= uint64_t{1} << (set_ % 64);
    }
  }
  uint32_t blocks() const { return blocks_; }
  /// The masks of text byte c, one word per block.
  const uint64_t* eq(char c) const {
    return table_.data() + size_t{static_cast<unsigned char>(c)} * blocks_;
  }

 private:
  size_t Slot(uint32_t i) const {
    return size_t{static_cast<unsigned char>(bytes_[i])} * blocks_ + i / 64;
  }

  std::string bytes_;
  uint32_t blocks_ = 0;
  uint32_t set_ = 0;  // rows [0, set_) hold their bits
  std::vector<uint64_t> table_;
};

// Orders the non-empty strings (s, t) as (pattern, text) and returns the
// calling thread's table holding the pattern: the side it already holds,
// else s, which it then loads.
PatternTable& HoldPattern(std::string_view& s, std::string_view& t) {
  thread_local PatternTable table;
  if (!table.Holds(s)) {
    if (table.Holds(t)) {
      std::swap(s, t);
    } else {
      table.Load(s);
    }
  }
  return table;
}

// Horizontal deltas of one block after a column step: bit r of ph (mh)
// is set when row 64 b + r -- the row *above* bit r -- gained (lost) one
// against the previous column; bit 0 is the delta entering from above.
struct ColumnStep {
  uint64_t ph, mh;
  int hout;  // horizontal delta of the row marked by `last`
};

// Advances one 64-row block by one text byte.  `pv`/`mv` hold the block's
// vertical +1/-1 deltas; `eq` flags the rows matching the byte; `hin` in
// {-1, 0, +1} is the horizontal delta of the row above the block (+1 for
// the first block: D[0][j] = j).  The carry-in follows Hyyro (2003) and
// edlib: a -1 from above acts as a match on the block's first row.
inline ColumnStep Advance(uint64_t eq, int hin, uint64_t last, uint64_t& pv,
                          uint64_t& mv) {
  const uint64_t hin_neg = hin < 0;
  const uint64_t xv = eq | mv;
  eq |= hin_neg;
  const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
  uint64_t ph = mv | ~(xh | pv);
  uint64_t mh = pv & xh;
  const int hout = int((ph & last) != 0) - int((mh & last) != 0);
  ph = (ph << 1) | uint64_t{hin > 0};
  mh = (mh << 1) | hin_neg;
  pv = mh | ~(xv | ph);
  mv = ph & xv;
  return {ph, mh, hout};
}

constexpr uint64_t kBottomRow = uint64_t{1} << 63;

// Vertical deltas of one block; the defaults are column 0 (D[i][0] = i).
struct BlockDeltas {
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
};

// The calling thread's blocks, reset to column 0.
BlockDeltas* ColumnZero(uint32_t nb) {
  thread_local std::vector<BlockDeltas> blocks;
  blocks.assign(nb, BlockDeltas{});
  return blocks.data();
}

// D[m][n] for m >= 1, with p holding s: every column runs every block,
// chaining the horizontal delta leaving each block's bottom row into the
// next; the score follows row m.
uint32_t FullDistance(PatternTable& p, std::string_view s,
                      std::string_view t) {
  const uint32_t m = static_cast<uint32_t>(s.size());
  p.SetRows(m);
  const uint32_t nb = p.blocks();
  const uint64_t last = uint64_t{1} << ((m - 1) % 64);  // row m's bit
  uint32_t score = m;  // D[m][0]
  if (nb == 1) {
    uint64_t pv = ~uint64_t{0}, mv = 0;
    for (char c : t) score += Advance(*p.eq(c), 1, last, pv, mv).hout;
    return score;
  }
  BlockDeltas* blocks = ColumnZero(nb);
  BlockDeltas& tail = blocks[nb - 1];
  for (char c : t) {
    const uint64_t* eq = p.eq(c);
    int h = 1;
    for (uint32_t b = 0; b + 1 < nb; ++b) {
      h = Advance(eq[b], h, kBottomRow, blocks[b].pv, blocks[b].mv).hout;
    }
    score += Advance(eq[nb - 1], h, last, tail.pv, tail.mv).hout;
  }
  return score;
}

// D[i][j] - D[i-1][j-1] for the row i at `bit` of a block that has just
// taken `step`: row i's new vertical delta plus row i - 1's horizontal one.
inline uint32_t DiagonalStep(uint64_t bit, uint64_t pv, uint64_t mv,
                             const ColumnStep& step) {
  return uint32_t((pv & bit) != 0) - uint32_t((mv & bit) != 0) +
         uint32_t((step.ph & bit) != 0) - uint32_t((step.mh & bit) != 0);
}

// min(D[m][n], kb + 1) for m, n >= 1 and |n - m| <= kb, with p holding
// s.  Every path from (0, 0) to (m, n) crosses column j at some row i and
// still costs at least |(n - j) - (m - i)| from there; as D changes by at
// most 1 down a column, that total is at least g_j = D[j - (n - m)][j],
// the cell on the diagonal that ends at (m, n).  So g_j > kb proves
// d > kb, and g_n = D[m][n].  The kernel tracks g_j one diagonal step per
// column and stops with kb + 1 as soon as it exceeds kb.
//
// Past one word, only the blocks meeting Ukkonen's band run, and only the
// pattern rows the band has reached are sure to hold their match masks: a
// cell on a path of cost <= kb has j - i <= (kb + n - m) / 2 and
// i - j <= (kb - n + m) / 2.  Cells outside the band hold over-estimates
// (the row above the first live block grows by one per column; a block
// joining at the bottom keeps its column-0 deltas, +1 per row; a row whose
// mask is not set reads as a mismatch, and one left set by an earlier
// call holds its exact mask, which never under-estimates a cell).  Every
// value stays >= the true D and equals it on any path of cost <= kb, and
// the computed column still changes by at most 1 per row, so g_j > kb
// still proves d > kb.
uint32_t BoundedDistanceKernel(PatternTable& p, std::string_view s,
                               std::string_view t, uint32_t kb) {
  const uint32_t m = static_cast<uint32_t>(s.size());
  const uint32_t n = static_cast<uint32_t>(t.size());
  // The end diagonal, row i = j - shift, enters the matrix at
  // D[0][shift] = shift or D[-shift][0] = -shift; columns j > shift then
  // step it down one row each.
  const int64_t shift = int64_t{n} - int64_t{m};
  uint32_t g = static_cast<uint32_t>(shift < 0 ? -shift : shift);
  if (p.blocks() == 1) {
    uint64_t pv = ~uint64_t{0}, mv = 0;
    uint64_t bit = uint64_t{1} << (shift < 0 ? -shift : 0);
    p.SetRows(m);
    for (uint32_t j = 1; j <= n; ++j) {
      const ColumnStep step =
          Advance(*p.eq(t[j - 1]), 1, kBottomRow, pv, mv);
      if (int64_t{j} > shift) {
        g += DiagonalStep(bit, pv, mv, step);
        if (g > kb) return kb + 1;
        bit <<= 1;
      }
    }
    return g;
  }
  // The band: rows [j - above, j + below] of column j.
  const uint32_t above = static_cast<uint32_t>((kb + shift) / 2);
  const uint32_t below = static_cast<uint32_t>((kb - shift) / 2);
  BlockDeltas* blocks = ColumnZero(p.blocks());
  for (uint32_t j = 1; j <= n; ++j) {
    const uint32_t hi = std::min(m, j + below);
    p.SetRows(hi);
    const uint32_t first = j > above ? (j - above - 1) / 64 : 0;
    const uint32_t live = (hi - 1) / 64;
    // The diagonal's row j - shift (bit index j - shift - 1) once it has
    // left its entry cell, where g is exact.
    const bool diag = int64_t{j} > shift;
    const uint32_t drow = static_cast<uint32_t>(int64_t{j} - shift - 1);
    const uint64_t* eq = p.eq(t[j - 1]);
    int h = 1;
    for (uint32_t b = first; b <= live; ++b) {
      BlockDeltas& blk = blocks[b];
      const ColumnStep step = Advance(eq[b], h, kBottomRow, blk.pv, blk.mv);
      h = step.hout;
      if (diag && drow / 64 == b) {
        g += DiagonalStep(uint64_t{1} << (drow % 64), blk.pv, blk.mv, step);
      }
    }
    if (g > kb) return kb + 1;
  }
  return g;
}

}  // namespace

double EditDistanceMetric::Distance(const ObjectView& a,
                                    const ObjectView& b) const {
  assert(a.kind == ObjectKind::kString && b.kind == ObjectKind::kString);
  std::string_view s = a.AsString(), t = b.AsString();
  if (s.empty()) return static_cast<double>(t.size());
  if (t.empty()) return static_cast<double>(s.size());
  PatternTable& p = HoldPattern(s, t);
  return FullDistance(p, s, t);
}

double EditDistanceMetric::BoundedDistance(const ObjectView& a,
                                           const ObjectView& b,
                                           double upper) const {
  assert(a.kind == ObjectKind::kString && b.kind == ObjectKind::kString);
  std::string_view s = a.AsString(), t = b.AsString();
  const uint32_t m = static_cast<uint32_t>(s.size());
  const uint32_t n = static_cast<uint32_t>(t.size());
  const uint32_t longer = std::max(m, n);

  // Integer distances: d <= upper iff d <= floor(upper).  A bound of at
  // least max(m, n) cannot cut anything (d <= max(m, n)) -- delegate to
  // Distance (also covers upper = +inf from an unfilled kNN heap).
  if (!(upper < longer)) return Distance(a, b);
  const uint32_t kb =
      upper < 0 ? 0 : static_cast<uint32_t>(std::floor(upper));
  // Length-difference lower bound (also disposes of an empty string: that
  // needs max(m, n) <= kb, impossible with kb = floor(upper) < max(m, n)).
  const uint32_t diff = longer - std::min(m, n);
  if (diff > kb) return diff;
  PatternTable& p = HoldPattern(s, t);
  return BoundedDistanceKernel(p, s, t, kb);
}

}  // namespace pmi
