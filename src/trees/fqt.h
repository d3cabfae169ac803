// FQT -- Fixed Queries Tree (Baeza-Yates et al. [4]; Section 4.2).
//
// Like BKT but with one pivot per tree level, taken from the shared pivot
// set (p_i at level i, so "the tree-level is set to the number of
// pivots").  Because all nodes of a level share the pivot, a query
// computes just |P| query-pivot distances for the whole traversal.
// Discrete distance functions only.

#ifndef PMI_TREES_FQT_H_
#define PMI_TREES_FQT_H_

#include <memory>
#include <vector>

#include "src/core/child_vector.h"
#include "src/core/index.h"

namespace pmi {

/// Fixed-queries tree over the shared pivots.
class Fqt final : public MetricIndex {
 public:
  explicit Fqt(IndexOptions options = {}) : MetricIndex(options) {}

  std::string name() const override { return "FQT"; }
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
  struct Node {
    bool leaf = true;
    ChildVector<Node> kids;
    std::vector<ObjectId> members;
  };

  /// The one query body: a tree search at the collector's radius
  /// (RangeCollector for MRQ, KnnHeap for MkNNQ).
  template <typename Collector>
  void Search(const ObjectView& q, Collector* c) const;
  uint32_t Bucket(double d) const;
  void BuildNode(Node* node, std::vector<ObjectId> ids, uint32_t level);
  void InsertInto(Node* node, ObjectId id, uint32_t level);
  bool RemoveFrom(Node* node, ObjectId id, const ObjectView& obj,
                  uint32_t level);
  size_t NodeBytes(const Node& node) const;

  std::unique_ptr<Node> root_;
  double bucket_width_ = 1;
};

}  // namespace pmi

#endif  // PMI_TREES_FQT_H_
