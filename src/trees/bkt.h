// BKT -- Burkhard-Keller Tree (Burkhard & Keller [8]; Section 4.1).
//
// For discrete distance functions only.  Each internal node holds a pivot
// chosen at random from its objects (BKT is the one index the paper
// cannot put on the shared pivot set); objects are partitioned into
// equal-width distance buckets ("every sub-tree covers the same range of
// distance values", Section 4.1 discussion, which avoids empty sub-trees
// for large discrete domains).  Object ids live in the tree; payloads
// stay in the dataset table, as the paper prescribes.

#ifndef PMI_TREES_BKT_H_
#define PMI_TREES_BKT_H_

#include <memory>
#include <vector>

#include "src/core/child_vector.h"
#include "src/core/index.h"
#include "src/core/rng.h"

namespace pmi {

/// Burkhard-Keller tree with bucketed discrete distances.
class Bkt final : public MetricIndex {
 public:
  explicit Bkt(IndexOptions options = {}) : MetricIndex(options) {}

  std::string name() const override { return "BKT"; }
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
    // Internal: the pivot is itself a data object; removing it from the
    // index only clears `pivot_live` (it keeps routing).
    ObjectId pivot = kInvalidObjectId;
    bool pivot_live = true;
    ChildVector<Node> kids;                   // tree_fanout buckets
    std::vector<ObjectId> members;            // leaf payload
  };

  /// The one query body: a tree search at the collector's radius
  /// (RangeCollector for MRQ, KnnHeap for MkNNQ).
  template <typename Collector>
  void Search(const ObjectView& q, Collector* c) const;
  uint32_t Bucket(double d) const;
  void BuildNode(Node* node, std::vector<ObjectId> ids);
  void SplitLeaf(Node* node);
  void InsertInto(Node* node, ObjectId id);
  bool RemoveFrom(Node* node, ObjectId id, const ObjectView& obj);
  size_t NodeBytes(const Node& node) const;

  std::unique_ptr<Node> root_;
  double bucket_width_ = 1;
  mutable Rng rng_{0};
};

}  // namespace pmi

#endif  // PMI_TREES_BKT_H_
