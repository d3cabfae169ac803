// Record file for object payloads.
//
// The Omni-family, M-index, and SPB-tree keep data objects out of their
// index structures in a separate random access file (Sections 5.2-5.4),
// so index node size is independent of object size.  RecordFile is that
// store: an append-only byte store over a PagedFile where reading a
// record charges one page read per touched page (minus buffer-pool
// hits), which reproduces the paper's duplicate-RAF-page-access
// behaviour for MkNNQ.  (The OS-file abstraction of the same name lives
// in src/storage/env.h; this class is the paper's "RAF" record store.)

#ifndef PMI_STORAGE_RAF_H_
#define PMI_STORAGE_RAF_H_

#include <cstdint>
#include <vector>

#include "src/core/status.h"
#include "src/storage/paged_file.h"

namespace pmi {

/// Location of a stored record.
struct RafRef {
  uint64_t offset = 0;
  uint32_t length = 0;
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

  /// Reads a record into `out` (resized).  The caller may reinterpret the
  /// buffer start as float data: the vector's allocation is suitably
  /// aligned and records are copied to offset 0.  A ref outside the
  /// appended byte range is kDataLoss, never an out-of-bounds read.
  Status ReadRecord(const RafRef& ref, std::vector<char>* out) const;

  uint64_t size_bytes() const { return end_; }
  size_t disk_bytes() const { return file_->bytes(); }

 private:
  RecordFile(const RecordFile&) = default;  // callers rebind the file

  PagedFile* file_;
  std::vector<PageId> pages_;  // RAF byte space -> file pages, in order
  uint64_t end_ = 0;           // append position
};

}  // namespace pmi

#endif  // PMI_STORAGE_RAF_H_
