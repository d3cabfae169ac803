// Brute-force sequential scan.
//
// Not part of the survey; serves as (a) the correctness oracle for every
// index conformance test and (b) the "no index" baseline in examples.

#ifndef PMI_CORE_LINEAR_SCAN_H_
#define PMI_CORE_LINEAR_SCAN_H_

#include <vector>

#include "src/core/index.h"

namespace pmi {

/// Exhaustive scan: every query computes d(q, o) for every live object.
class LinearScan final : public MetricIndex {
 public:
  explicit LinearScan(IndexOptions options = {}) : MetricIndex(options) {}

  std::string name() const override { return "LinearScan"; }
  bool disk_based() const override { return false; }
  std::unique_ptr<MetricIndex> Clone() const override;
  size_t memory_bytes() const override { return live_.capacity() / 8; }

 protected:
  void BuildImpl() override;
  void RangeImpl(const ObjectView& q, double r,
                 std::vector<ObjectId>* out) const override;
  void KnnImpl(const ObjectView& q, size_t k,
               std::vector<Neighbor>* out) const override;
  void InsertImpl(ObjectId id) override;
  void RemoveImpl(ObjectId id) override;
  Status SaveImpl(ByteSink* out) const override;
  Status LoadImpl(ByteSource* in) override;

 private:
  std::vector<bool> live_;
};

}  // namespace pmi

#endif  // PMI_CORE_LINEAR_SCAN_H_
