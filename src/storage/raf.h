// Record file for object payloads.
//
// The Omni-family, M-index, and SPB-tree keep data objects out of their
// index structures in a separate random access file (Sections 5.2-5.4),
// so index node size is independent of object size.  RecordFile is that
// store: an append-only byte store over a PagedFile.  Records are read
// through a RecordFile::Reader, which hands out a record as a view into
// the pinned pool frame and keeps that page pinned for the next read.
// Every record read still charges its pages' logical touches in order
// (one page read per simulated-pool miss), which reproduces the paper's
// duplicate-RAF-page-access behaviour for MkNNQ; only the physical pin
// is shared by a run of records on one page.  (The OS-file abstraction
// of the same name lives in src/storage/env.h; this class is the
// paper's "RAF" record store.)

#ifndef PMI_STORAGE_RAF_H_
#define PMI_STORAGE_RAF_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "src/core/object.h"
#include "src/core/status.h"
#include "src/storage/paged_file.h"

namespace pmi {

/// Location of a stored record.
struct RafRef {
  uint64_t offset = 0;
  uint32_t length = 0;
};

/// The 16-byte entry of an index over a RecordFile: an object id and
/// where its record lies, packed as [oid u32][raf len u32][raf off u64]
/// (the B+-tree values of OmniB+-tree, SPB-tree and M-index).
struct RafEntry {
  static constexpr uint32_t kBytes = 16;

  ObjectId oid = kInvalidObjectId;
  RafRef ref;

  void Pack(char* out) const {
    std::memcpy(out, &oid, 4);
    std::memcpy(out + 4, &ref.length, 4);
    std::memcpy(out + 8, &ref.offset, 8);
  }
  static RafEntry Unpack(const char* p) {
    RafEntry e;
    std::memcpy(&e.oid, p, 4);
    std::memcpy(&e.ref.length, p + 4, 4);
    std::memcpy(&e.ref.offset, p + 8, 8);
    return e;
  }
};

/// Append-only record store over a PagedFile.
class RecordFile {
 public:
  explicit RecordFile(PagedFile* file) : file_(file) {}

  /// This store over `file`, a PagedFile::Clone of its file: the page
  /// map and append position carry over.
  RecordFile(const RecordFile& o, PagedFile* file) : RecordFile(o) {
    file_ = file;
  }

  /// Appends `len` bytes; returns where they landed.
  RafRef Append(const char* data, uint32_t len);

  uint64_t size_bytes() const { return end_; }
  size_t disk_bytes() const { return file_->bytes(); }

  /// The one read path of a RecordFile.  A reader holds the pin of the
  /// last page it read: a record on that page skips the pool (its
  /// logical touch is still charged, through PagedFile::LogicalRead), a
  /// record on another page drops the old pin and pins the new page.
  /// One reader per query; not thread-safe.
  class Reader {
   public:
    explicit Reader(const RecordFile* raf) : raf_(raf) {}

    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// The bytes of record `ref`.  A record within one page is a view
    /// into the pinned frame; a longer one is copied, with readahead,
    /// into this reader's buffer.  The view stays valid until the next
    /// Read or the reader's destruction.  Frames and the buffer are
    /// 16-byte aligned, so a view is as aligned as the record's offset
    /// in its page (records of one vector dataset share a length that
    /// is a multiple of 4, so their floats load aligned).  A ref outside
    /// the appended byte range is kDataLoss, never an out-of-bounds
    /// read.
    StatusOr<std::string_view> Read(const RafRef& ref);

   private:
    /// Charges the logical touch of RAF page `page_idx` and leaves that
    /// page pinned in held_.
    Status Touch(uint32_t page_idx);

    const RecordFile* raf_;
    PageHandle held_;
    PageId held_page_ = kInvalidPageId;
    std::vector<char> spill_;  // records longer than a page
  };

 private:
  RecordFile(const RecordFile&) = default;  // callers rebind the file

  PagedFile* file_;
  std::vector<PageId> pages_;  // RAF byte space -> file pages, in order
  uint64_t end_ = 0;           // append position
};

}  // namespace pmi

#endif  // PMI_STORAGE_RAF_H_
