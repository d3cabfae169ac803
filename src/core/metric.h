// Distance metrics (Section 2.1).
//
// A Metric is a symmetric, non-negative distance with identity and the
// triangle inequality; every pruning lemma in this library is sound only
// under these axioms, so tests/metric_test.cc property-checks them for
// each implementation.  The paper evaluates the L2-norm (LA), edit
// distance (Words), L1-norm (Color), and L-infinity norm (Synthetic).

#ifndef PMI_CORE_METRIC_H_
#define PMI_CORE_METRIC_H_

#include <memory>
#include <string>

#include "src/core/counters.h"
#include "src/core/object.h"

namespace pmi {

/// Abstract distance function over ObjectViews.
class Metric {
 public:
  virtual ~Metric() = default;

  /// The distance d(a, b).  Must satisfy the metric axioms.
  virtual double Distance(const ObjectView& a, const ObjectView& b) const = 0;

  /// Threshold-aware distance: when d(a, b) <= upper, returns exactly the
  /// value Distance(a, b) would (bit-identical -- implementations must
  /// accumulate in the same order); otherwise returns *some* value > upper
  /// (typically a partial lower bound, possibly +infinity).  Callers that
  /// only compare the result against `upper` (verification after Lemma-1
  /// pruning, kNN radius tests) get the same decisions as with Distance at
  /// a fraction of the cost: the vector norms early-abandon their
  /// accumulation, L2 compares squared sums and defers the sqrt to the
  /// success case, and edit distance stops its bit-parallel column scan
  /// once the cell on the diagonal ending at (m, n) exceeds the bound.
  virtual double BoundedDistance(const ObjectView& a, const ObjectView& b,
                                 double upper) const {
    (void)upper;
    return Distance(a, b);
  }

  /// True when the distance domain is discrete (integer-valued); BKT and
  /// FQT are only applicable to discrete metrics (Section 4).
  virtual bool discrete() const { return false; }

  /// An upper bound d+ on any pairwise distance in the domain; used by the
  /// M-index key mapping key(o) = d(p_i, o) + (i-1) * d+ (Section 5.3).
  virtual double max_distance() const = 0;

  virtual std::string name() const = 0;
};

/// L1 (Manhattan) norm over float vectors; used for the Color dataset.
class L1Metric final : public Metric {
 public:
  /// `domain_extent` is the per-coordinate value range width used to bound
  /// max_distance(); Color maps coordinates to [-255, 255].
  explicit L1Metric(uint32_t dim, double domain_extent)
      : dim_(dim), max_(domain_extent * dim) {}

  double Distance(const ObjectView& a, const ObjectView& b) const override;
  double BoundedDistance(const ObjectView& a, const ObjectView& b,
                         double upper) const override;
  double max_distance() const override { return max_; }
  std::string name() const override { return "L1"; }

 private:
  uint32_t dim_;
  double max_;
};

/// L2 (Euclidean) norm over float vectors; used for the LA dataset.
class L2Metric final : public Metric {
 public:
  explicit L2Metric(uint32_t dim, double domain_extent);

  double Distance(const ObjectView& a, const ObjectView& b) const override;
  double BoundedDistance(const ObjectView& a, const ObjectView& b,
                         double upper) const override;
  double max_distance() const override { return max_; }
  std::string name() const override { return "L2"; }

 private:
  uint32_t dim_;
  double max_;
};

/// L-infinity (Chebyshev) norm over float vectors; used for Synthetic.
/// With integer-valued coordinates this metric is discrete, enabling BKT
/// and FQT (the paper generates Synthetic as integers for this reason).
class LInfMetric final : public Metric {
 public:
  LInfMetric(uint32_t /*dim*/, double domain_extent, bool discrete_domain)
      : max_(domain_extent), discrete_(discrete_domain) {}

  double Distance(const ObjectView& a, const ObjectView& b) const override;
  double BoundedDistance(const ObjectView& a, const ObjectView& b,
                         double upper) const override;
  bool discrete() const override { return discrete_; }
  double max_distance() const override { return max_; }
  std::string name() const override { return "Linf"; }

 private:
  double max_;
  bool discrete_;
};

/// Levenshtein edit distance over strings; used for the Words dataset.
/// Discrete, with d+ = the maximum string length in the domain.
///
/// Both calls run one kernel: Myers' bit-vector algorithm in Hyyro's form,
/// one 64-bit word per 64 pattern bytes, so a text byte costs a constant
/// number of word operations per block.  The pattern is the argument whose
/// match masks the calling thread already holds (matched by bytes, not by
/// address), else the first argument, whose masks it then holds: a query
/// verified against many objects sets its masks once.  With m and n the
/// string lengths and kb = floor(upper) (0 when upper < 0), BoundedDistance
/// returns exactly Distance when upper >= max(m, n), |n - m| when
/// |n - m| > kb, and min(d, kb + 1) otherwise: its "> upper" values are
/// exactly |n - m| or kb + 1.
class EditDistanceMetric final : public Metric {
 public:
  explicit EditDistanceMetric(uint32_t max_len) : max_(max_len) {}

  double Distance(const ObjectView& a, const ObjectView& b) const override;
  double BoundedDistance(const ObjectView& a, const ObjectView& b,
                         double upper) const override;
  bool discrete() const override { return true; }
  double max_distance() const override { return max_; }
  std::string name() const override { return "edit"; }

 private:
  double max_;
};

/// Counting wrapper: all indexes compute distances exclusively through a
/// DistanceComputer so the compdists metric is attributed uniformly.
class DistanceComputer {
 public:
  DistanceComputer(const Metric* metric, PerfCounters* counters)
      : metric_(metric), counters_(counters) {}

  double operator()(const ObjectView& a, const ObjectView& b) const {
    ++counters_->dist_computations;
    return metric_->Distance(a, b);
  }

  /// Threshold-aware variant (see Metric::BoundedDistance).  Counts one
  /// distance computation whether or not the kernel abandons early: the
  /// compdists metric measures how many pairs the index had to *examine*,
  /// which is unchanged by how cheaply the examination concludes.
  double Bounded(const ObjectView& a, const ObjectView& b,
                 double upper) const {
    ++counters_->dist_computations;
    return metric_->BoundedDistance(a, b, upper);
  }

  const Metric& metric() const { return *metric_; }

  /// The counter sink this computer is bound to.  Parallel helpers that
  /// receive a DistanceComputer spawn per-thread shard-bound copies and
  /// fold the shard deltas back into this sink at the task boundary.
  PerfCounters* counters() const { return counters_; }

 private:
  const Metric* metric_;
  PerfCounters* counters_;
};

}  // namespace pmi

#endif  // PMI_CORE_METRIC_H_
