// VPT / MVPT -- (Multi-)Vantage-Point Tree (Yianilos [29], Bozkaya &
// Ozsoyoglu [5]; Section 4.3).
//
// A balanced m-ary tree for continuous distance functions: at each level
// the objects are split into m equal-count groups by quantiles of their
// distance to that level's pivot.  Following the paper's equal-footing
// setup, nodes of a level share the same pivot (p_i from the shared set
// at level i), only the m-1 split values are stored per node, and the
// paper's default arity is m = 5 (VPT is the m = 2 special case).

#ifndef PMI_TREES_MVPT_H_
#define PMI_TREES_MVPT_H_

#include <memory>
#include <vector>

#include "src/core/child_vector.h"
#include "src/core/index.h"

namespace pmi {

/// Multi-vantage-point tree over the shared pivots.
class Mvpt final : public MetricIndex {
 public:
  /// `arity_override` of 0 uses options.mvpt_arity (paper default 5);
  /// pass 2 for a classic VPT.
  explicit Mvpt(IndexOptions options = {}, uint32_t arity_override = 0)
      : MetricIndex(options),
        arity_(arity_override ? arity_override : options.mvpt_arity) {}

  std::string name() const override { return arity_ == 2 ? "VPT" : "MVPT"; }
  bool disk_based() const override { return false; }
  /// Deep copy of the node tree -- joins the tree family to the
  /// versioned read/write core (clone-apply-publish).  Node
  /// payloads are plain ids and split values, so the copy shares only
  /// the base binding (dataset/metric/pivots) with the source.
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
  Status SaveImpl(ByteSink* out) const override;
  Status LoadImpl(ByteSource* in) override;

 private:
  struct Node {
    bool leaf = true;
    // bounds[i], bounds[i+1] bracket child i (inclusive: quantile ties
    // may straddle a boundary, so intervals share endpoints).
    std::vector<double> bounds;
    ChildVector<Node> kids;
    std::vector<ObjectId> members;
  };

  /// The one query body: a tree search at the collector's radius
  /// (RangeCollector for MRQ, KnnHeap for MkNNQ).
  template <typename Collector>
  void Search(const ObjectView& q, Collector* c) const;
  void BuildNode(Node* node, std::vector<ObjectId> ids, uint32_t level);
  void SaveNode(const Node& node, ByteSink* out) const;
  Status LoadNode(Node* node, ByteSource* in, uint32_t depth);
  void InsertInto(Node* node, ObjectId id, uint32_t level);
  bool RemoveFrom(Node* node, ObjectId id, const ObjectView& obj,
                  uint32_t level);
  size_t NodeBytes(const Node& node) const;

  uint32_t arity_;
  std::unique_ptr<Node> root_;
};

}  // namespace pmi

#endif  // PMI_TREES_MVPT_H_
