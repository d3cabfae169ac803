// Unit tests for the simulated-disk substrate: PagedFile (PA accounting,
// LRU behaviour), RecordFile and its Reader (logical charges, pins per
// page run, views over a held pin), the Hilbert curve, and the buffer
// pool's behaviour over a faulting Env-backed page store.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/rng.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/fault_env.h"
#include "src/storage/hilbert.h"
#include "src/storage/paged_file.h"
#include "src/storage/raf.h"

// Counts every heap allocation of the test binary, for the
// allocation-free check of an in-page RAF read.  The replacements pair
// malloc with free; GCC cannot see that through inlined deletes.
static std::atomic<size_t> g_allocations{0};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace pmi {
namespace {

TEST(PagedFileTest, AllocateIsFreeUntilWritten) {
  PerfCounters c;
  PagedFile f(4096, 4 * 4096, &c);
  PageId p = f.Allocate();
  EXPECT_EQ(c.page_accesses(), 0u);
  PageHandle h = f.Write(p, /*load=*/false);
  std::memset(h.mutable_data(), 7, 4096);
  EXPECT_EQ(c.page_reads, 0u);
  EXPECT_EQ(c.page_writes, 0u);  // still dirty in pool
  f.Flush();
  EXPECT_EQ(c.page_writes, 1u);
  f.Flush();
  EXPECT_EQ(c.page_writes, 1u) << "clean page must not be re-flushed";
}

TEST(PagedFileTest, CachedReadIsFree) {
  PerfCounters c;
  PagedFile f(4096, 4 * 4096, &c);
  PageId p = f.Allocate();
  f.Write(p, /*load=*/false);
  f.Flush();
  c.Reset();
  f.Read(p);  // resident
  EXPECT_EQ(c.page_reads, 0u);
  f.DropCache();
  c.Reset();
  f.Read(p);
  EXPECT_EQ(c.page_reads, 1u);
  f.Read(p);
  EXPECT_EQ(c.page_reads, 1u) << "second read must hit the pool";
}

TEST(PagedFileTest, LruEvictionChargesDirtyWriteback) {
  PerfCounters c;
  PagedFile f(4096, 2 * 4096, &c);  // 2 frames
  PageId a = f.Allocate(), b = f.Allocate(), d = f.Allocate();
  f.Write(a, false);
  f.Write(b, false);
  EXPECT_EQ(c.page_writes, 0u);
  f.Write(d, false);  // evicts a (dirty)
  EXPECT_EQ(c.page_writes, 1u);
  c.Reset();
  f.Read(a);  // miss -> read, evicts b (dirty)
  EXPECT_EQ(c.page_reads, 1u);
  EXPECT_EQ(c.page_writes, 1u);
}

TEST(PagedFileTest, LruKeepsHotPages) {
  PerfCounters c;
  PagedFile f(4096, 2 * 4096, &c);
  PageId a = f.Allocate(), b = f.Allocate(), d = f.Allocate();
  f.Read(a);
  f.Read(b);
  c.Reset();
  f.Read(a);         // refresh a
  f.Read(d);         // evicts b, not a
  f.Read(a);
  EXPECT_EQ(c.page_reads, 1u) << "a must stay resident";
}

TEST(PagedFileTest, DataSurvivesEviction) {
  PerfCounters c;
  PagedFile f(256, 256, &c);  // 1 frame
  std::vector<PageId> pages;
  for (int i = 0; i < 10; ++i) {
    PageId p = f.Allocate();
    PageHandle h = f.Write(p, false);
    std::memset(h.mutable_data(), i, 256);
    pages.push_back(p);
  }
  for (int i = 0; i < 10; ++i) {
    PageHandle h = f.Read(pages[i]);
    EXPECT_EQ(h.data()[0], static_cast<char>(i));
    EXPECT_EQ(h.data()[255], static_cast<char>(i));
  }
}

TEST(PagedFileTest, CloneSharesPagesCopyOnWrite) {
  PerfCounters src_counters, clone_counters;
  PagedFile f(4096, 2 * 4096, &src_counters);
  PageId a = f.Allocate(), b = f.Allocate();
  std::memset(f.Write(a, /*load=*/false).mutable_data(), 1, 4096);
  std::memset(f.Write(b, /*load=*/false).mutable_data(), 2, 4096);
  f.Flush();

  std::unique_ptr<PagedFile> clone = f.Clone(&clone_counters);
  ASSERT_EQ(clone->num_pages(), 2u);
  // Untouched pages are shared, not copied.
  EXPECT_EQ(clone->RawPage(a), f.RawPage(a));
  EXPECT_EQ(clone->RawPage(b), f.RawPage(b));

  // The clone starts from the source's logical LRU state: both pages
  // are resident, so reading them charges nothing -- to either file.
  src_counters.Reset();
  clone->Read(a);
  clone->Read(b);
  EXPECT_EQ(clone_counters.page_reads, 0u);

  // A page written through the clone diverges; the source keeps its
  // bytes, and the untouched page stays shared.
  std::memset(clone->Write(a).mutable_data(), 9, 4096);
  clone->Flush();
  EXPECT_EQ(clone_counters.page_writes, 1u);
  EXPECT_EQ(src_counters.page_accesses(), 0u);
  EXPECT_NE(clone->RawPage(a), f.RawPage(a));
  EXPECT_EQ(clone->RawPage(b), f.RawPage(b));
  EXPECT_EQ(clone->RawPage(a)[0], 9);
  for (uint32_t i = 0; i < 4096; ++i) {
    ASSERT_EQ(f.RawPage(a)[i], 1) << "source byte " << i;
  }
  EXPECT_EQ(f.Read(a).data()[4095], 1);
  EXPECT_EQ(clone->Read(a).data()[4095], 9);
}

std::vector<char> Bytes(std::string_view v) { return {v.begin(), v.end()}; }

uint64_t Pins(const BufferPool& pool) {
  BufferPoolStats s = pool.stats();
  return s.hits + s.misses;
}

TEST(RafTest, RoundTripsRecords) {
  PerfCounters c;
  PagedFile f(4096, 128 * 1024, &c);
  RecordFile raf(&f);
  Rng rng(3);
  std::vector<std::pair<RafRef, std::vector<char>>> recs;
  for (int i = 0; i < 500; ++i) {
    uint32_t len = 1 + rng() % 200;
    std::vector<char> data(len);
    for (auto& ch : data) ch = static_cast<char>(rng());
    recs.emplace_back(raf.Append(data.data(), len), data);
  }
  RecordFile::Reader reader(&raf);
  for (auto& [ref, expect] : recs) {
    StatusOr<std::string_view> out = reader.Read(ref);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(Bytes(*out), expect);
  }
}

TEST(RafTest, RecordsDoNotStraddlePagesWhenTheyFit) {
  PerfCounters c;
  PagedFile f(256, 1024, &c);
  RecordFile raf(&f);
  std::vector<char> blob(200, 'x');
  raf.Append(blob.data(), 200);  // fills most of page 0
  RafRef second = raf.Append(blob.data(), 200);
  EXPECT_EQ(second.offset % 256, 0u) << "record should start a fresh page";
  f.DropCache();
  c.Reset();
  RecordFile::Reader reader(&raf);
  ASSERT_TRUE(reader.Read(second).ok());
  EXPECT_EQ(c.page_reads, 1u) << "a fitting record costs one page read";
}

TEST(RafTest, LargeRecordsSpanPagesAndChargeEachPage) {
  PerfCounters c;
  PagedFile f(256, 4 * 256, &c);
  RecordFile raf(&f);
  std::vector<char> blob(700);
  for (int i = 0; i < 700; ++i) blob[i] = static_cast<char>(i % 128);
  RafRef ref = raf.Append(blob.data(), 700);
  f.DropCache();
  c.Reset();
  RecordFile::Reader reader(&raf);
  StatusOr<std::string_view> out = reader.Read(ref);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Bytes(*out), blob);
  EXPECT_EQ(c.page_reads, 3u);
}

TEST(RafTest, OutOfBoundsRefIsDataLossNotUb) {
  PerfCounters c;
  PagedFile f(256, 1024, &c);
  RecordFile raf(&f);
  std::vector<char> blob(100, 'x');
  raf.Append(blob.data(), 100);
  RecordFile::Reader reader(&raf);
  // Past-the-end offset, overlong length, and an offset+length overflow
  // (as a corrupt snapshot could produce) must all surface as kDataLoss.
  EXPECT_EQ(reader.Read({200, 10}).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader.Read({0, 101}).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader.Read({UINT64_MAX, 16}).status().code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(reader.Read({0, 100}).ok());
}

// Appends `count` records of `len` bytes to `raf`; record i holds byte i.
std::vector<RafRef> AppendNumbered(RecordFile* raf, int count, uint32_t len) {
  std::vector<RafRef> refs;
  for (int i = 0; i < count; ++i) {
    std::vector<char> rec(len, static_cast<char>(i));
    refs.push_back(raf->Append(rec.data(), len));
  }
  return refs;
}

TEST(RafTest, ReaderChargesLikeOneReadPagePerRecordAndPinsOncePerRun) {
  // Twin files with one RAF each: the reader reads the records of one,
  // the other charges one ReadPage per record.  Both run on a 2-frame
  // logical cache, and between record reads both read a page that is
  // not the RAF's (as an index node read would), so the held page falls
  // out of the simulated pool and must be charged again.
  PerfCounters c, twin_c;
  PagedFile f(256, 2 * 256, &c);
  PagedFile twin(256, 2 * 256, &twin_c);
  RecordFile raf(&f), twin_raf(&twin);
  std::vector<RafRef> refs = AppendNumbered(&raf, 12, 60);  // 4 per page
  AppendNumbered(&twin_raf, 12, 60);
  const PageId other = f.Allocate();
  ASSERT_EQ(twin.Allocate(), other);
  f.DropCache();
  twin.DropCache();
  c.Reset();
  twin_c.Reset();

  RecordFile::Reader reader(&raf);
  // A run of four records on page 0 is one pool pin.
  uint64_t pins = Pins(*f.pool());
  for (int i = 0; i < 4; ++i) {
    StatusOr<std::string_view> out = reader.Read(refs[i]);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(Bytes(*out), std::vector<char>(60, static_cast<char>(i)));
    ASSERT_TRUE(twin.ReadPage(refs[i].offset / 256).ok());
  }
  EXPECT_EQ(Pins(*f.pool()) - pins, 1u);
  EXPECT_EQ(c.page_reads, twin_c.page_reads);
  EXPECT_EQ(c.page_accesses(), twin_c.page_accesses());

  const int order[] = {4, 5, 0, 1, 9, 10, 2, 11, 3, 8};
  for (int step = 0; step < 10; ++step) {
    const RafRef& ref = refs[order[step]];
    if (step % 3 == 2) {  // a node read between two records
      ASSERT_TRUE(f.ReadPage(other).ok());
      ASSERT_TRUE(twin.ReadPage(other).ok());
    }
    StatusOr<std::string_view> out = reader.Read(ref);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(Bytes(*out),
              std::vector<char>(60, static_cast<char>(order[step])));
    ASSERT_TRUE(twin.ReadPage(ref.offset / 256).ok());
    EXPECT_EQ(c.page_reads, twin_c.page_reads) << "step " << step;
    EXPECT_EQ(c.page_accesses(), twin_c.page_accesses()) << "step " << step;
  }
  EXPECT_GT(c.page_reads, 3u) << "the sequence must re-read evicted pages";
}

TEST(RafTest, HeldViewSurvivesAnOvercommittedOneFramePool) {
  // One frame shared by the RAF's file and a second file: reading the
  // second file while the reader holds its page forces an overcommit,
  // never an eviction of the held frame.
  auto pool = std::make_shared<BufferPool>(256, 256);
  PerfCounters c, other_c;
  PagedFile f(256, 256, &c, pool);
  PagedFile g(256, 256, &other_c, pool);
  RecordFile raf(&f);
  std::vector<RafRef> refs = AppendNumbered(&raf, 2, 100);  // both page 0
  {
    PageId p = g.Allocate();
    std::memset(g.Write(p, /*load=*/false).mutable_data(), 'g', 256);
    g.Flush();
  }
  RecordFile::Reader reader(&raf);
  StatusOr<std::string_view> first = reader.Read(refs[0]);
  ASSERT_TRUE(first.ok());
  {
    PageHandle h = g.Read(0);
    EXPECT_EQ(h.data()[255], 'g');
    EXPECT_GT(pool->resident_frames(), pool->capacity_frames());
    EXPECT_EQ(Bytes(*first), std::vector<char>(100, 0));
  }
  EXPECT_EQ(Bytes(*first), std::vector<char>(100, 0));
  StatusOr<std::string_view> second = reader.Read(refs[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Bytes(*second), std::vector<char>(100, 1));
}

TEST(RafTest, SpanningRecordChargesEveryPageAfterAHeldPage) {
  // A record longer than a page is not padded to a page start: this one
  // starts inside the reader's held page 0 and runs through page 3.
  PerfCounters c;
  PagedFile f(256, 8 * 256, &c);
  RecordFile raf(&f);
  std::vector<char> small(100, 's');
  RafRef head = raf.Append(small.data(), 100);
  std::vector<char> blob(700);
  for (int i = 0; i < 700; ++i) blob[i] = static_cast<char>(i % 128);
  RafRef span = raf.Append(blob.data(), 700);
  ASSERT_EQ(span.offset, 100u);
  f.DropCache();
  c.Reset();
  RecordFile::Reader reader(&raf);
  const uint64_t pins = Pins(*f.pool());
  ASSERT_TRUE(reader.Read(head).ok());
  EXPECT_EQ(c.page_reads, 1u);
  StatusOr<std::string_view> out = reader.Read(span);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Bytes(*out), blob);
  EXPECT_EQ(c.page_reads, 4u) << "pages 1-3 are charged; page 0 is resident";
  EXPECT_EQ(Pins(*f.pool()) - pins, 4u) << "page 0 is pinned once";
  // Read again: every page is now logically resident and charges nothing.
  ASSERT_TRUE(reader.Read(span).ok());
  EXPECT_EQ(c.page_reads, 4u);
}

TEST(RafTest, InPageReadDoesNotAllocate) {
  PerfCounters c;
  PagedFile f(4096, 128 * 1024, &c);
  RecordFile raf(&f);
  std::vector<RafRef> refs = AppendNumbered(&raf, 8, 80);
  RecordFile::Reader reader(&raf);
  ASSERT_TRUE(reader.Read(refs[0]).ok());  // pins page 0
  const size_t before = g_allocations.load();
  for (int i = 1; i < 8; ++i) {
    StatusOr<std::string_view> out = reader.Read(refs[i]);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ((*out)[79], static_cast<char>(i));
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

#if PMI_POISON_FRAMES
TEST(RafDeathTest, ViewReadAfterTheNextReadIsAnAsanReport) {
  PerfCounters c;
  PagedFile f(256, 1024, &c);
  RecordFile raf(&f);
  std::vector<char> blob(200, 'x');
  RafRef a = raf.Append(blob.data(), 200);
  RafRef b = raf.Append(blob.data(), 200);  // starts page 1
  RecordFile::Reader reader(&raf);
  StatusOr<std::string_view> view = reader.Read(a);
  ASSERT_TRUE(view.ok());
  const char* stale = view->data();
  EXPECT_EQ(*static_cast<const volatile char*>(stale), 'x');
  ASSERT_TRUE(reader.Read(b).ok());  // drops the pin on page 0
  EXPECT_DEATH(
      {
        volatile char ch = *static_cast<const volatile char*>(stale);
        (void)ch;
      },
      "use-after-poison");
}
#endif

TEST(PagedFileTest, OutOfRangePageIsDataLoss) {
  PerfCounters c;
  PagedFile f(256, 1024, &c);
  f.Allocate();
  EXPECT_TRUE(f.ReadPage(0).ok());
  EXPECT_EQ(f.ReadPage(1).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(f.WritePage(7).status().code(), StatusCode::kDataLoss);
}

TEST(BufferPoolFaultTest, FaultedWriteBackSurfacesTypedErrorAndRecovers) {
  const std::string path =
      ::testing::TempDir() + "pmi_pool_fault_sync.pages";
  FaultInjectingEnv fenv(Env::Default());
  EnvPageStore store(&fenv, path, 256);
  ASSERT_TRUE(store.Open().ok());
  BufferPool pool(256, 2 * 256);
  uint64_t sid = pool.RegisterStore(&store, nullptr);
  {
    auto h = pool.Pin(sid, 0, /*for_write=*/true, /*load=*/false);
    ASSERT_TRUE(h.ok());
    std::memset(h->mutable_data(), 'a', 256);
  }
  // The write-back is one Append + one Sync; fail the Sync.  The store
  // must surface the typed error and keep the old (empty) version as
  // the durable one -- and the pool must keep the frame dirty and
  // resident so nothing is lost.
  fenv.Arm({FaultKind::kFailedSync, /*trigger=*/1, /*seed=*/3});
  Status s = pool.FlushStore(sid);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_TRUE(fenv.triggered());
  EXPECT_EQ(pool.stats().write_back_failures, 1u);
  EXPECT_EQ(pool.resident_frames(), 1u) << "faulted victim must stay cached";
  // The env is alive again (kFailedSync does not crash); a retry flushes.
  fenv.Arm({FaultKind::kNone, 0, 1});
  ASSERT_TRUE(pool.FlushStore(sid).ok());
  // Prove durability by dropping the frame and re-reading through the
  // store: the bytes must come back from the file, not the cache.
  pool.DropStore(sid);
  EXPECT_EQ(pool.resident_frames(), 0u);
  auto h = pool.Pin(sid, 0, /*for_write=*/false);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->data()[0], 'a');
  EXPECT_EQ(h->data()[255], 'a');
  h->Reset();
  pool.UnregisterStore(sid);
  ASSERT_TRUE(Env::Default()->RemoveFile(path).ok());
}

TEST(BufferPoolFaultTest, BitFlipIsCaughtByPageChecksum) {
  const std::string path =
      ::testing::TempDir() + "pmi_pool_fault_flip.pages";
  FaultInjectingEnv fenv(Env::Default());
  EnvPageStore store(&fenv, path, 256);
  ASSERT_TRUE(store.Open().ok());
  BufferPool pool(256, 2 * 256);
  uint64_t sid = pool.RegisterStore(&store, nullptr);
  {
    auto h = pool.Pin(sid, 0, /*for_write=*/true, /*load=*/false);
    ASSERT_TRUE(h.ok());
    std::memset(h->mutable_data(), 'b', 256);
  }
  // Flip one bit inside the appended record: the write "succeeds"
  // (silent media corruption), so the flush reports OK...
  fenv.Arm({FaultKind::kBitFlip, /*trigger=*/0, /*seed=*/7});
  ASSERT_TRUE(pool.FlushStore(sid).ok());
  EXPECT_TRUE(fenv.triggered());
  // ...and the corruption must surface as kDataLoss on the next
  // physical read, never as silently wrong page bytes.
  pool.DropStore(sid);
  auto h = pool.Pin(sid, 0, /*for_write=*/false);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kDataLoss) << h.status().ToString();
  pool.UnregisterStore(sid);
  ASSERT_TRUE(Env::Default()->RemoveFile(path).ok());
}

TEST(HilbertTest, BijectiveExhaustiveSmall) {
  for (uint32_t dims = 1; dims <= 3; ++dims) {
    for (uint32_t bits = 1; bits <= 4; ++bits) {
      HilbertCurve h(dims, bits);
      uint64_t cells = 1ull << (dims * bits);
      std::set<uint64_t> seen;
      uint32_t coords[3], back[3];
      for (uint64_t cell = 0; cell < cells; ++cell) {
        uint64_t rest = cell;
        for (uint32_t d = 0; d < dims; ++d) {
          coords[d] = rest & h.max_coord();
          rest >>= bits;
        }
        uint64_t key = h.Encode(coords);
        EXPECT_LT(key, cells);
        EXPECT_TRUE(seen.insert(key).second) << "duplicate key " << key;
        h.Decode(key, back);
        for (uint32_t d = 0; d < dims; ++d) EXPECT_EQ(back[d], coords[d]);
      }
    }
  }
}

TEST(HilbertTest, BijectiveRandomHighDim) {
  for (uint32_t dims : {5u, 7u, 9u}) {
    uint32_t bits = HilbertCurve::AutoBits(dims);
    EXPECT_LE(dims * bits, 63u);
    HilbertCurve h(dims, bits);
    Rng rng(17);
    std::vector<uint32_t> coords(dims), back(dims);
    for (int trial = 0; trial < 2000; ++trial) {
      for (uint32_t d = 0; d < dims; ++d) coords[d] = rng() % (h.max_coord() + 1);
      uint64_t key = h.Encode(coords.data());
      h.Decode(key, back.data());
      EXPECT_EQ(back, coords);
    }
  }
}

TEST(HilbertTest, CurveIsContinuous) {
  // Successive curve positions differ by exactly 1 in exactly one axis --
  // the defining locality property the SPB-tree relies on.
  HilbertCurve h(2, 5);
  uint32_t prev[2], cur[2];
  h.Decode(0, prev);
  for (uint64_t key = 1; key < (1ull << 10); ++key) {
    h.Decode(key, cur);
    uint32_t moved = 0, dist = 0;
    for (int d = 0; d < 2; ++d) {
      uint32_t diff = cur[d] > prev[d] ? cur[d] - prev[d] : prev[d] - cur[d];
      if (diff) ++moved;
      dist += diff;
    }
    EXPECT_EQ(moved, 1u) << "at key " << key;
    EXPECT_EQ(dist, 1u) << "at key " << key;
    prev[0] = cur[0];
    prev[1] = cur[1];
  }
}

// Skilling's TransposeToAxes with its data-dependent branch, as the
// library ran it before the branch-free block decode: the reference
// DecodeMany must reproduce exactly.
void ReferenceDecode(uint64_t key, uint32_t dims, uint32_t bits,
                     uint32_t* coords) {
  uint32_t x[64] = {0};
  uint32_t total = bits * dims;
  for (uint32_t b = bits; b-- > 0;) {
    for (uint32_t i = 0; i < dims; ++i) {
      --total;
      x[i] |= static_cast<uint32_t>((key >> total) & 1u) << b;
    }
  }
  uint32_t t = x[dims - 1] >> 1;
  for (uint32_t i = dims - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  for (uint32_t q = 2; q != (1u << bits); q <<= 1) {
    uint32_t p = q - 1;
    for (uint32_t i = dims; i-- > 0;) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  for (uint32_t i = 0; i < dims; ++i) coords[i] = x[i];
}

TEST(HilbertTest, DecodeManyMatchesBranchyReference) {
  // Every curve shape the SPB-tree can build, at batch sizes around the
  // 16-key block (170 is a full 4 KB leaf), with the extreme keys mixed
  // into random ones.
  constexpr uint32_t kSentinel = 0xA5A5A5A5u;
  Rng rng(23);
  for (uint32_t dims = 1; dims <= 63; ++dims) {
    for (uint32_t bits = 1; HilbertCurve::Fits(dims, bits); ++bits) {
      SCOPED_TRACE("dims=" + std::to_string(dims) +
                   " bits=" + std::to_string(bits));
      HilbertCurve h(dims, bits);
      const uint64_t max_key = (uint64_t{1} << (dims * bits)) - 1;
      for (size_t count : {0, 1, 15, 16, 17, 170}) {
        std::vector<uint64_t> keys(count);
        for (uint64_t& k : keys) k = rng() & max_key;
        if (count > 0) keys.front() = 0;
        if (count > 1) keys.back() = max_key;
        // One slot past the end catches a block that writes its padding.
        std::vector<uint32_t> got(count * dims + 1, kSentinel);
        std::vector<uint32_t> want(count * dims), one(dims);
        h.DecodeMany(keys.data(), count, got.data());
        EXPECT_EQ(got.back(), kSentinel) << "count=" << count;
        got.pop_back();
        for (size_t k = 0; k < count; ++k) {
          ReferenceDecode(keys[k], dims, bits, &want[k * dims]);
        }
        ASSERT_EQ(got, want) << "count=" << count;
        for (size_t k = 0; k < count; ++k) {
          h.Decode(keys[k], one.data());
          ASSERT_TRUE(std::equal(one.begin(), one.end(), &want[k * dims]))
              << "Decode, key " << keys[k];
          ASSERT_EQ(h.Encode(one.data()), keys[k]) << "round trip";
        }
      }
    }
  }
}

}  // namespace
}  // namespace pmi
