// Simulated disk with two-level page-access accounting.
//
// The paper's disk-based indexes are measured in page accesses (PA),
// not device time, and use a fixed 4 KB page size plus a 128 KB LRU
// cache (Section 6.1).  PagedFile reproduces exactly that accounting
// with a *logical* LRU simulation: every fetch that misses the
// simulated pool counts a page read, and every dirty page counts a page
// write when it is evicted or flushed -- the same quantities a real
// buffer manager would issue to disk.  The simulation is pure
// bookkeeping (a list of page ids), so logical PA is bit-identical at
// any thread count and any physical cache size.
//
// The page *bytes* are served through a real, shareable BufferPool
// (src/storage/buffer_pool.h): callers get RAII-pinned PageHandles
// instead of raw pointers, many PagedFiles can share one pool with a
// single cache_bytes budget, and physical I/O (pool misses and
// write-backs against this file's backing array) is charged separately
// as physical_reads / physical_writes.  With no pool supplied, the file
// creates a private pool sized like the logical cache.
//
// Charges go through CounterScope::Active, so parallel batch shards
// attribute both logical and physical I/O to the measuring query; the
// logical simulation itself is mutex-guarded and deterministic in the
// order Touch is called.
//
// Page buffers are reference-counted and shared copy-on-write between a
// file and its clones (Clone): a clone costs O(pages) pointer copies,
// and whichever file first writes a shared page back gets its own copy.

#ifndef PMI_STORAGE_PAGED_FILE_H_
#define PMI_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/core/counters.h"
#include "src/core/status.h"
#include "src/storage/buffer_pool.h"

namespace pmi {

/// In-memory page store with PA accounting through an LRU simulation,
/// serving page bytes as pinned BufferPool handles.
class PagedFile : private PageStore {
 public:
  /// `cache_bytes` rounds down to whole frames (>= 1 frame) and sizes
  /// the logical simulation.  `pool` is the shared physical cache; when
  /// null a private pool of `cache_bytes` is created.  The pool must
  /// outlive the file (shared_ptr makes that structural).
  PagedFile(uint32_t page_size, uint32_t cache_bytes, PerfCounters* counters,
            std::shared_ptr<BufferPool> pool = nullptr);
  ~PagedFile() override;

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  /// The shadow-copy primitive of the disk indexes: a file with this
  /// file's contents that shares every page buffer copy-on-write.  The
  /// clone registers as a new store in the same BufferPool, charges
  /// `counters`, and starts from a copy of this file's logical LRU
  /// simulation, so an update applied to the clone charges exactly the
  /// logical PA it would have charged here.  The source must hold no
  /// dirty pool frames -- every index flushes at the end of Build,
  /// Insert and Remove.
  std::unique_ptr<PagedFile> Clone(PerfCounters* counters) const;

  uint32_t page_size() const { return page_size_; }
  uint32_t num_pages() const { return static_cast<uint32_t>(pages_.size()); }
  size_t bytes() const { return size_t(num_pages()) * page_size_; }

  BufferPool* pool() const { return pool_.get(); }

  /// Allocates a zeroed page.  No PA is charged until it is written.
  PageId Allocate();

  /// Pins page contents for reading.  Charges one logical page read on
  /// a simulated-pool miss (and a physical read if the shared pool also
  /// misses).  A page id outside the file is kDataLoss, never an
  /// out-of-bounds read: ids that cross this API may originate in
  /// persisted bytes.
  StatusOr<PageHandle> ReadPage(PageId id) const;

  /// The logical half of ReadPage: the same bounds check and the same
  /// simulated-pool touch, without a pin.  For a reader that already
  /// holds a pin on `id` (RecordFile::Reader), so a run of reads on one
  /// page charges exactly what one ReadPage per read would.
  Status LogicalRead(PageId id) const;

  /// Pins page contents for mutation.  Pulls the page into the pools
  /// (charging a read on miss if `load` -- pass false when overwriting
  /// wholesale) and marks it dirty; the page write is charged at
  /// eviction or Flush.  Bounds-checked like ReadPage.
  StatusOr<PageHandle> WritePage(PageId id, bool load = true);

  /// Fail-stop forms for the inner index code, whose page ids are
  /// internally generated (a bad one is a program bug, not data
  /// corruption): same accounting, but an out-of-range id aborts with a
  /// message instead of silently reading garbage in release builds.
  PageHandle Read(PageId id) const;
  PageHandle Write(PageId id, bool load = true);

  /// Best-effort physical readahead of `count` pages starting at
  /// `first` (clamped to the file).  Logical accounting is untouched:
  /// readahead is a physical-layer optimization only.
  void ReadaheadPages(PageId first, uint32_t count) const;

  /// Writes back all dirty pages (charging page writes) but keeps them
  /// resident.  Called at the end of builds and updates so their write
  /// cost lands in the right measurement window.
  void Flush();

  /// Flush + empty both the simulated and the physical pool frames of
  /// this file; used to cold-start a measurement phase.
  void DropCache();

  // -- snapshot access --------------------------------------------------------
  // Raw page bytes bypass the buffer pools and charge no PA: snapshot
  // serialization models copying the file wholesale, not a paged workload.

  /// Read-only raw bytes of page `id` (page_size() bytes).  Any dirty
  /// pool frame is written through first so the bytes are current.
  const char* RawPage(PageId id) const;

  /// Drops every page and both pool levels (dirty frames are discarded,
  /// not written back); the caller refills via AppendRawPage.
  void ResetPages();

  /// Appends one zeroed page and returns its writable raw buffer.
  char* AppendRawPage();

 private:
  // PageStore over pages_ (the "disk"); runs under the pool mutex.  A
  // write-back to a page shared with another file copies it first.
  Status ReadInto(PageId page, char* dst) override;
  Status WriteBack(PageId page, const char* src) override;

  void TouchLocked(PageId id, bool dirty) const;
  void EvictIfNeeded() const;

  uint32_t page_size_;
  uint32_t capacity_frames_;
  PerfCounters* counters_;
  std::shared_ptr<BufferPool> pool_;
  uint64_t store_id_ = 0;
  // Guards the elements of pages_ against write-backs run by another
  // thread's pool eviction; taken inside the pool mutex, never around it.
  mutable std::mutex pages_mu_;
  std::vector<std::shared_ptr<char[]>> pages_;

  struct SimFrame {
    PageId id;
    bool dirty;
  };
  // The logical LRU simulation; front = most recently used.  Guarded by
  // sim_mu_ so concurrent readers keep exact (order-dependent) totals.
  mutable std::mutex sim_mu_;
  mutable std::list<SimFrame> lru_;
  mutable std::unordered_map<PageId, std::list<SimFrame>::iterator> resident_;
};

}  // namespace pmi

#endif  // PMI_STORAGE_PAGED_FILE_H_
