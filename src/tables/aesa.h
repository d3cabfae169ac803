// AESA -- Approximating and Eliminating Search Algorithm (Vidal [28];
// Section 3.1).
//
// Stores the full O(n^2) pairwise distance matrix, which the paper calls
// "a theoretical metric index": excluded from its experiments for storage
// reasons, but included here for completeness and as the strongest
// compdists baseline.  Search uses the classic successive-pivoting
// strategy: the next verified object is the active object with the
// smallest accumulated lower bound, and every verification tightens the
// bounds of all remaining objects for free.

#ifndef PMI_TABLES_AESA_H_
#define PMI_TABLES_AESA_H_

#include <memory>
#include <vector>

#include "src/core/index.h"

namespace pmi {

/// Full-matrix AESA.  Build refuses datasets above ~20k objects (the
/// matrix is quadratic); use LAESA beyond that.
class Aesa final : public MetricIndex {
 public:
  explicit Aesa(IndexOptions options = {}) : MetricIndex(options) {}

  std::string name() const override { return "AESA"; }
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
  /// The one query body: successive pivoting at the collector's radius
  /// (RangeCollector for MRQ, KnnHeap for MkNNQ).
  template <typename Collector>
  void Search(const ObjectView& q, Collector* c) const;

  uint32_t n_ = 0;
  // n x n, shared with clones; Insert copies it first while shared.
  std::shared_ptr<std::vector<double>> matrix_;
  std::vector<bool> live_;
};

}  // namespace pmi

#endif  // PMI_TABLES_AESA_H_
