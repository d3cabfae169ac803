// FQA -- Fixed Queries Array (Chavez et al. [11]; Table 1).
//
// The array form of FQT: every object's pivot distances are quantized
// and the objects sorted lexicographically by the resulting tuples, so
// each FQT "subtree" is a contiguous run locatable by binary search.
// Same traversal logic as FQT, a fraction of the memory (the paper's
// survey groups it with the discrete-domain main-memory indexes).

#ifndef PMI_TREES_FQA_H_
#define PMI_TREES_FQA_H_

#include <vector>

#include "src/core/index.h"

namespace pmi {

/// Fixed-queries array over the shared pivots.
class Fqa final : public MetricIndex {
 public:
  explicit Fqa(IndexOptions options = {}) : MetricIndex(options) {}

  std::string name() const override { return "FQA"; }
  bool disk_based() const override { return false; }
  std::unique_ptr<MetricIndex> Clone() const override;
  size_t memory_bytes() const override;

 protected:
  void BuildImpl() override;
  void RangeImpl(const ObjectView& q, double r,
                 std::vector<ObjectId>* out) const override;
  void KnnImpl(const ObjectView& q, size_t k,
               std::vector<Neighbor>* out) const override;
  void InsertImpl(ObjectId id) override;
  void RemoveImpl(ObjectId id) override;

 private:
  /// The one query body: run-by-run DFS at the collector's radius
  /// (RangeCollector for MRQ, KnnHeap for MkNNQ).
  template <typename Collector>
  void Search(const ObjectView& q, Collector* c) const;
  uint16_t Quantize(double d) const;
  /// Coordinate `level` of row `row`.
  uint16_t Coord(size_t row, uint32_t level) const {
    return coords_[row * pivots_.size() + level];
  }
  /// Lexicographic row comparison against a full tuple.
  bool RowLess(size_t row, const std::vector<uint16_t>& tuple) const;
  std::vector<uint16_t> TupleFor(ObjectId id);

  /// First row in [lo, hi) whose `level` coordinate is >= / > `value`,
  /// inside a range that shares coordinates 0..level-1 (so the column is
  /// sorted there).  The traversal walks the quantized window by jumping
  /// between the values actually present -- one O(log n) probe per
  /// nonempty run -- instead of binary-searching every integer in
  /// [vlo, vhi].
  size_t LowerBound(size_t lo, size_t hi, uint32_t level,
                    uint16_t value) const;
  size_t UpperBound(size_t lo, size_t hi, uint32_t level,
                    uint16_t value) const;

  std::vector<uint16_t> coords_;  // rows x |P|, lexicographically sorted
  std::vector<ObjectId> oids_;
};

}  // namespace pmi

#endif  // PMI_TREES_FQA_H_
