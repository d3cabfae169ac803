// Paged M-tree (Ciaccia, Patella, Zezula), with the PM-tree extension.
//
// The M-tree clusters objects by ball partitioning: an internal entry
// holds a routing object (RO), covering radius, parent distance (PD), and
// child pointer; a leaf entry holds the object and its PD (Section 3.3,
// Fig. 6).  Two surveyed indexes build on it:
//   * CPT stores objects in M-tree leaves to cluster them on disk;
//   * the PM-tree additionally stores the pivot mapping phi(o) in each
//     leaf entry and a pivot-space MBB in each internal entry
//     (Section 5.1), enabled here by `store_pivot_data`.
//
// Entries are variable-size (objects are stored inline), so nodes are
// byte-packed; capacity is whatever fits a page.  Insertion follows the
// classic single-way descent (prefer a covering child, else least radius
// enlargement) with mM_RAD-style sampled promotion on split.  Deletion is
// lazy: the entry is removed and counts updated, covering radii are left
// conservative (correct, possibly looser), matching the high update cost
// the paper reports for object-in-tree structures.

#ifndef PMI_STORAGE_MTREE_H_
#define PMI_STORAGE_MTREE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/metric.h"
#include "src/core/object.h"
#include "src/core/rng.h"
#include "src/storage/paged_file.h"

namespace pmi {

/// Decoded leaf entry.
struct MTreeLeafEntry {
  ObjectId oid = kInvalidObjectId;
  float pd = 0;                 // d(object, parent routing object)
  std::vector<char> obj;        // serialized payload
  std::vector<float> phi;       // pivot distances (PM-tree only)
};

/// Decoded internal entry.
struct MTreeInternalEntry {
  PageId child = kInvalidPageId;
  float radius = 0;             // covering radius of the subtree
  float pd = 0;                 // d(RO, parent RO); +inf markers unused
  std::vector<char> ro;         // serialized routing object payload
  std::vector<float> mbb;       // lo[l] ++ hi[l] in pivot space (PM-tree)
};

/// Decoded node.
struct MTreeNode {
  bool is_leaf = true;
  std::vector<MTreeLeafEntry> leaves;
  std::vector<MTreeInternalEntry> children;

  size_t count() const {
    return is_leaf ? leaves.size() : children.size();
  }
};

/// Disk-resident M-tree / PM-tree node store.
class MTree {
 public:
  struct Options {
    bool store_pivot_data = false;  // PM-tree mode
    uint32_t num_pivots = 0;        // l, required in PM-tree mode
    uint32_t promotion_samples = 8; // candidate pairs per split
    uint64_t seed = 42;
  };

  /// `on_place` (optional) reports every (oid -> leaf page) placement,
  /// including moves caused by splits; CPT uses it to maintain its
  /// distance-table pointers into the tree.
  MTree(PagedFile* file, const Dataset* data, DistanceComputer dist,
        Options options,
        std::function<void(ObjectId, PageId)> on_place = nullptr);

  /// This tree over `file`, a PagedFile::Clone of its file, counting
  /// through `dist` and reporting to `on_place`: root, height, size and
  /// the split-sampling RNG state carry over, so later inserts split
  /// exactly as they would have on the source.
  MTree(const MTree& o, PagedFile* file, DistanceComputer dist,
        std::function<void(ObjectId, PageId)> on_place = nullptr)
      : MTree(o) {
    file_ = file;
    dist_ = dist;
    on_place_ = std::move(on_place);
  }

  PageId root() const { return root_; }
  uint32_t height() const { return height_; }
  size_t size() const { return size_; }

  /// Inserts object `oid`; `phi` must hold num_pivots values in PM-tree
  /// mode (ignored otherwise).
  void Insert(ObjectId oid, const std::vector<float>& phi);

  /// Removes object `oid` (payload looked up in the dataset); false when
  /// absent.
  bool Remove(ObjectId oid);

  /// Snapshot restore: points the tree at pages already reloaded into the
  /// backing PagedFile.  The split-sampling RNG restarts from the seed,
  /// so inserts after a restore may pick different promotion candidates
  /// than the original instance would have; queries and removes read only
  /// the restored pages and are unaffected.
  void RestoreState(PageId root, uint32_t height, size_t size) {
    root_ = root;
    height_ = height;
    size_ = size;
  }

  /// Reads and decodes a node, charging one page read (modulo pool hits).
  MTreeNode LoadNode(PageId page) const;

  /// View of a decoded entry's payload as an object.
  ObjectView ViewOf(const std::vector<char>& payload) const {
    return data_->DeserializeObject(payload.data(),
                                    static_cast<uint32_t>(payload.size()));
  }

  size_t disk_bytes() const { return file_->bytes(); }

 private:
  MTree(const MTree&) = default;  // callers rebind file, dist, on_place

  struct SplitOutcome {
    bool split = false;
    MTreeInternalEntry replacement;  // re-describes the old page
    MTreeInternalEntry sibling;      // describes the new page
  };

  size_t LeafEntryBytes(const MTreeLeafEntry& e) const;
  size_t InternalEntryBytes(const MTreeInternalEntry& e) const;
  size_t NodeBytes(const MTreeNode& node) const;
  bool Fits(const MTreeNode& node) const;

  void StoreNode(PageId page, const MTreeNode& node, bool fresh = false);
  void ReportPlacements(PageId page, const MTreeNode& node);

  SplitOutcome InsertRec(PageId page, const ObjectView& parent_ro,
                         bool has_parent, MTreeLeafEntry&& entry);
  SplitOutcome SplitNode(PageId page, MTreeNode&& node,
                         const ObjectView& parent_ro, bool has_parent);
  bool RemoveRec(PageId page, const ObjectView& obj, ObjectId oid);

  PagedFile* file_;
  const Dataset* data_;
  DistanceComputer dist_;
  Options options_;
  std::function<void(ObjectId, PageId)> on_place_;
  mutable Rng rng_;
  PageId root_;
  uint32_t height_ = 1;
  size_t size_ = 0;
};

}  // namespace pmi

#endif  // PMI_STORAGE_MTREE_H_
