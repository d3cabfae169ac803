// google-benchmark micro suite for the storage substrates: Hilbert
// encode/decode, B+-tree insert/scan, R-tree bulk load, and buffer-pool
// read paths.

#include <benchmark/benchmark.h>

#include "src/core/rng.h"
#include "src/storage/bptree.h"
#include "src/storage/hilbert.h"
#include "src/storage/paged_file.h"
#include "src/storage/rtree.h"

namespace pmi {
namespace {

void BM_HilbertEncode(benchmark::State& state) {
  const uint32_t dims = static_cast<uint32_t>(state.range(0));
  HilbertCurve h(dims, HilbertCurve::AutoBits(dims));
  Rng rng(5);
  std::vector<uint32_t> coords(dims);
  for (auto& c : coords) c = rng() % (h.max_coord() + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Encode(coords.data()));
  }
}
BENCHMARK(BM_HilbertEncode)->Arg(2)->Arg(5)->Arg(9);

void BM_HilbertDecode(benchmark::State& state) {
  const uint32_t dims = static_cast<uint32_t>(state.range(0));
  HilbertCurve h(dims, HilbertCurve::AutoBits(dims));
  std::vector<uint32_t> coords(dims);
  uint64_t key = 0xDEADBEEF % (1ull << (dims * h.bits()));
  for (auto _ : state) {
    h.Decode(key, coords.data());
    benchmark::DoNotOptimize(coords.data());
  }
}
BENCHMARK(BM_HilbertDecode)->Arg(2)->Arg(5)->Arg(9);

// One 4 KB SPB-tree leaf: 170 keys decoded in one block call.
void BM_HilbertDecodeLeaf(benchmark::State& state) {
  const uint32_t dims = static_cast<uint32_t>(state.range(0));
  HilbertCurve h(dims, HilbertCurve::AutoBits(dims));
  Rng rng(7);
  std::vector<uint64_t> keys(170);
  for (auto& k : keys) k = rng() % (1ull << (dims * h.bits()));
  std::vector<uint32_t> coords(keys.size() * dims);
  for (auto _ : state) {
    h.DecodeMany(keys.data(), keys.size(), coords.data());
    benchmark::DoNotOptimize(coords.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_HilbertDecodeLeaf)->Arg(2)->Arg(5)->Arg(9);

void BM_BPlusTreeInsert(benchmark::State& state) {
  PerfCounters c;
  PagedFile file(4096, 128 * 1024, &c);
  BPlusTree tree(&file, 16);
  Rng rng(11);
  char value[16] = {0};
  for (auto _ : state) {
    tree.Insert(rng(), value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeInsert);

void BM_BPlusTreeScan(benchmark::State& state) {
  PerfCounters c;
  PagedFile file(4096, 1024 * 1024, &c);
  BPlusTree tree(&file, 16);
  std::vector<std::pair<uint64_t, std::vector<char>>> entries;
  for (uint32_t i = 0; i < 100000; ++i) {
    entries.emplace_back(i, std::vector<char>(16, 0));
  }
  tree.BulkLoad(entries);
  Rng rng(13);
  for (auto _ : state) {
    uint64_t lo = rng() % 90000;
    size_t seen = 0;
    tree.Scan(lo, lo + 1000, [&](uint64_t, const char*) {
      ++seen;
      return true;
    });
    benchmark::DoNotOptimize(seen);
  }
}
BENCHMARK(BM_BPlusTreeScan);

void BM_RTreeBulkLoad(benchmark::State& state) {
  Rng rng(17);
  std::vector<RTree::LeafEntry> entries(
      static_cast<size_t>(state.range(0)));
  for (uint32_t i = 0; i < entries.size(); ++i) {
    entries[i].oid = i;
    entries[i].point = {float(rng() % 10000), float(rng() % 10000),
                        float(rng() % 10000), float(rng() % 10000),
                        float(rng() % 10000)};
  }
  for (auto _ : state) {
    PerfCounters c;
    PagedFile file(4096, 128 * 1024, &c);
    RTree tree(&file, 5);
    auto copy = entries;
    tree.BulkLoad(std::move(copy));
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_BufferPoolHitVsMiss(benchmark::State& state) {
  const bool fits = state.range(0) != 0;
  PerfCounters c;
  PagedFile file(4096, fits ? 64 * 4096 : 4 * 4096, &c);
  std::vector<PageId> pages;
  for (int i = 0; i < 32; ++i) {
    PageId p = file.Allocate();
    file.Write(p, false);
    pages.push_back(p);
  }
  file.Flush();
  Rng rng(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(file.Read(pages[rng() % pages.size()]));
  }
  state.counters["page_reads"] =
      benchmark::Counter(double(c.page_reads), benchmark::Counter::kDefaults);
}
BENCHMARK(BM_BufferPoolHitVsMiss)->Arg(0)->Arg(1);

}  // namespace
}  // namespace pmi

BENCHMARK_MAIN();
