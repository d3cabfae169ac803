// Paged B+-tree with optional per-entry MBB aggregates.
//
// Three of the surveyed external indexes sit on a B+-tree: the Omni
// B+-tree indexes one pre-computed distance per tree, the M-index indexes
// iDistance-style keys, and the SPB-tree indexes Hilbert SFC values whose
// non-leaf entries additionally carry the minimum bounding box of the
// mapped vectors below them (Section 5.4: "Each non-leaf B+-tree entry e
// stores SFC values min and max ... that represent MBB(e)").  The
// `agg_dims` option enables exactly that: every internal entry carries
// [lo..][hi..] float bounds aggregated from the leaf level, maintained on
// insert/delete and available during custom traversals.
//
// Keys are uint64; duplicate keys are allowed.  Values are fixed-size
// opaque byte strings.  Deletion is lazy (no rebalancing/merging, as in
// many production secondary indexes): underfull nodes persist, empty
// ranges are skipped by scans.

#ifndef PMI_STORAGE_BPTREE_H_
#define PMI_STORAGE_BPTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/storage/paged_file.h"

namespace pmi {

/// Disk-resident B+-tree.
class BPlusTree {
 public:
  struct NodeView;

  /// Computes the `agg_dims` point coordinates of every entry of a leaf,
  /// entry i's at coords[i * agg_dims]; required iff agg_dims > 0.  The
  /// SPB-tree decodes the whole leaf's Hilbert keys here in one call.
  using PointFn = std::function<void(const NodeView& leaf, float* coords)>;

  BPlusTree(PagedFile* file, uint32_t value_size, uint32_t agg_dims = 0,
            PointFn point_fn = nullptr);

  /// This tree over `file`, a PagedFile::Clone of its file: root,
  /// height, entry count and point function carry over.
  BPlusTree(const BPlusTree& o, PagedFile* file) : BPlusTree(o) {
    file_ = file;
  }

  uint32_t value_size() const { return value_size_; }
  uint32_t agg_dims() const { return agg_dims_; }
  uint32_t height() const { return height_; }
  PageId root() const { return root_; }
  uint64_t entry_count() const { return entry_count_; }

  /// Inserts (key, value); duplicates allowed.
  void Insert(uint64_t key, const char* value);

  /// Removes one entry matching `key` whose first `match_bytes` value
  /// bytes equal `value`.  Returns false when absent.
  bool Remove(uint64_t key, const char* value, uint32_t match_bytes);

  /// Builds the tree from entries sorted ascending by key, replacing any
  /// existing contents.  Sequential page writes -- this is how the
  /// external indexes achieve their low construction PA.
  void BulkLoad(const std::vector<std::pair<uint64_t, std::vector<char>>>&
                    sorted_entries);

  /// In-order scan of all entries with lo <= key <= hi.  Return false
  /// from `fn` to stop early.
  void Scan(uint64_t lo, uint64_t hi,
            const std::function<bool(uint64_t key, const char* value)>& fn)
      const;

  // -- Structural read access (custom traversals: SPB best-first) ---------

  /// Decoded, read-only view of a node.  The view holds a buffer-pool
  /// pin, so `raw` and every accessor stay valid (and the frame stays
  /// un-evictable) for the life of the view; copying re-pins.
  struct NodeView {
    bool is_leaf = false;
    uint32_t count = 0;
    PageHandle pin;
    const char* raw = nullptr;
    const BPlusTree* tree = nullptr;

    uint64_t key(uint32_t i) const;          // leaf & internal (separator)
    const char* value(uint32_t i) const;     // leaf only
    PageId child(uint32_t i) const;          // internal only
    const float* agg_lo(uint32_t i) const;   // internal only, agg_dims floats
    const float* agg_hi(uint32_t i) const;   // internal only
    PageId next() const;                     // leaf chain
  };

  /// Reads a node, charging PA through the PagedFile.
  NodeView ReadNode(PageId page) const;

  size_t disk_bytes() const { return file_->bytes(); }

 private:
  BPlusTree(const BPlusTree&) = default;  // callers rebind the file

  struct Summary {
    uint64_t max_key = 0;
    std::vector<float> agg;  // lo[agg_dims] ++ hi[agg_dims]
  };
  struct SplitResult {
    bool split = false;
    PageId right_page = kInvalidPageId;
    Summary left, right;
  };

  uint32_t leaf_entry_size() const { return 8 + value_size_; }
  uint32_t internal_entry_size() const { return 12 + 8 * agg_dims_; }

  // Raw accessors over a page buffer.
  static bool IsLeaf(const char* p);
  static uint32_t Count(const char* p);
  static void SetHeader(char* p, bool leaf, uint32_t count, PageId next);
  static void SetCount(char* p, uint32_t count);
  static PageId Next(const char* p);
  static void SetNext(char* p, PageId next);

  char* LeafEntry(char* p, uint32_t i) const;
  const char* LeafEntry(const char* p, uint32_t i) const;
  char* InternalEntry(char* p, uint32_t i) const;
  const char* InternalEntry(const char* p, uint32_t i) const;

  Summary ComputeSummary(PageId page) const;
  void WriteInternalEntry(char* node, uint32_t i, PageId child,
                          const Summary& s) const;

  SplitResult InsertRec(PageId page, uint64_t key, const char* value);
  bool RemoveRec(PageId page, uint64_t key, const char* value,
                 uint32_t match_bytes, Summary* updated);

  PagedFile* file_;
  uint32_t value_size_;
  uint32_t agg_dims_;
  PointFn point_fn_;
  uint32_t leaf_capacity_;
  uint32_t internal_capacity_;
  PageId root_;
  uint32_t height_ = 1;  // 1 = root is a leaf
  uint64_t entry_count_ = 0;
};

}  // namespace pmi

#endif  // PMI_STORAGE_BPTREE_H_
