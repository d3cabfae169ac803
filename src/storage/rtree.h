// Paged R-tree over points in pivot space.
//
// The OmniR-tree (Section 5.2) indexes the mapped vectors phi(o) with an
// R-tree whose leaf entries point into the RAF holding the real objects.
// Construction uses STR (sort-tile-recursive) bulk loading -- sequential
// page writes, matching the construction-cost profile the paper reports
// -- while updates use classic Guttman insertion with quadratic split.
// Deletion is lazy: entries are removed and ancestor MBRs recomputed, but
// underfull nodes are not condensed (documented trade-off; queries remain
// correct because MBRs stay conservative bounds).

#ifndef PMI_STORAGE_RTREE_H_
#define PMI_STORAGE_RTREE_H_

#include <cstdint>
#include <vector>

#include "src/core/object.h"
#include "src/storage/paged_file.h"
#include "src/storage/raf.h"

namespace pmi {

/// Disk-resident R-tree storing (point, oid, RafRef) leaf entries.
class RTree {
 public:
  struct LeafEntry {
    std::vector<float> point;  // dims coords
    ObjectId oid = kInvalidObjectId;
    RafRef ref;
  };

  RTree(PagedFile* file, uint32_t dims);

  /// This tree over `file`, a PagedFile::Clone of its file: root and
  /// height carry over.
  RTree(const RTree& o, PagedFile* file) : RTree(o) { file_ = file; }

  uint32_t dims() const { return dims_; }
  PageId root() const { return root_; }
  uint32_t height() const { return height_; }

  /// Replaces contents with an STR bulk load of `entries`.
  void BulkLoad(std::vector<LeafEntry> entries);

  /// Guttman insert with quadratic split.
  void Insert(const LeafEntry& entry);

  /// Removes the entry for `oid` located at `point`; false when absent.
  bool Remove(const float* point, ObjectId oid);

  /// Decoded read-only node view; charges PA through the PagedFile.
  /// Holds a buffer-pool pin: `raw` stays valid for the view's life.
  struct NodeView {
    bool is_leaf = false;
    uint32_t count = 0;
    PageHandle pin;
    const char* raw = nullptr;
    const RTree* tree = nullptr;

    // Internal entries.
    const float* lo(uint32_t i) const;
    const float* hi(uint32_t i) const;
    PageId child(uint32_t i) const;
    // Leaf entries.
    const float* point(uint32_t i) const;
    ObjectId oid(uint32_t i) const;
    RafRef ref(uint32_t i) const;
  };

  NodeView ReadNode(PageId page) const;

  size_t disk_bytes() const { return file_->bytes(); }

 private:
  RTree(const RTree&) = default;  // callers rebind the file

  struct Rect {
    std::vector<float> lo, hi;
  };
  struct ChildBox {
    PageId page;
    Rect box;
  };
  struct SplitResult {
    bool split = false;
    PageId right_page = kInvalidPageId;
    Rect left_box, right_box;
  };

  uint32_t leaf_entry_size() const { return 4 * dims_ + 16; }
  uint32_t internal_entry_size() const { return 8 * dims_ + 4; }

  char* LeafEntryPtr(char* p, uint32_t i) const;
  char* InternalEntryPtr(char* p, uint32_t i) const;
  Rect NodeBox(PageId page) const;

  SplitResult InsertRec(PageId page, uint32_t level, const LeafEntry& entry);
  bool RemoveRec(PageId page, const float* point, ObjectId oid,
                 Rect* updated);
  void SplitNode(char* p, bool leaf, PageId page, SplitResult* out);

  PagedFile* file_;
  uint32_t dims_;
  uint32_t leaf_capacity_;
  uint32_t internal_capacity_;
  PageId root_;
  uint32_t height_ = 1;
};

}  // namespace pmi

#endif  // PMI_STORAGE_RTREE_H_
