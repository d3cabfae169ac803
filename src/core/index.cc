#include "src/core/index.h"

#include <cstdio>
#include <cstdlib>

namespace pmi {

namespace {
// Every paged structure (B+-tree, R-tree, M-tree) uses an 8-byte node
// header; a page must additionally fit at least one entry, and the
// smallest fixed-size entries are tens of bytes.  64 is the smallest
// page size at which every storage structure can make progress.
constexpr uint32_t kMinPageSize = 64;
}  // namespace

namespace {

// Batch descriptors are parallel vectors; a length mismatch is a
// programmer error at the harness layer (the facade validates its
// requests before reaching here), but letting it through would read
// past the threshold vector in release builds -- abort with a message
// instead, matching MakeIndex's contract for unrecoverable misuse.
void CheckBatchSizes(size_t queries, size_t thresholds, const char* what) {
  if (queries != thresholds) {
    std::fprintf(stderr,
                 "MetricIndex batch: %zu queries but %zu %s -- the batch "
                 "descriptor vectors must be parallel\n",
                 queries, thresholds, what);
    std::abort();
  }
}

// The body of both batch entry points.  A batch of two or more queries
// is offered to `block(shards)`, the index's block-major hook, which
// reports whether it handled the batch.  A batch of one, or a declined
// one, runs the query-major loop: `single(i)` for every query, each
// under a CounterScope over its own shard (every *Impl counts through
// dist() and the paged layers through CounterScope::Active), so the
// attribution is per query and exact at any thread count.  The shards
// are summed into the returned total; the index itself is never written.
// Per-query `seconds` stay 0: per-query wall time is not well defined
// once queries interleave block by block, and the bit-identical contract
// between execution modes could never hold for a timing anyway.
template <typename Result, typename Block, typename Single>
OpStats RunBatch(size_t n, std::vector<std::vector<Result>>* out,
                 std::vector<OpStats>* per_query, Block&& block,
                 Single&& single) {
  out->assign(n, {});
  Stopwatch watch;
  std::vector<PerfCounters> shards(n);
  if (!(n > 1 && block(shards.data()))) {
    ParallelQueryChunks(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        // Count into a stack-local shard and store once: adjacent shards
        // share cache lines across chunk boundaries, and a per-distance
        // increment there would ping-pong the line between workers (the
        // false sharing CounterShard's alignas(64) exists to avoid).
        PerfCounters local;
        {
          CounterScope scope(&local);
          single(i);
        }
        shards[i] = local;
      }
    });
  }
  OpStats total;
  for (const PerfCounters& s : shards) total += s;
  total.seconds = watch.Seconds();
  if (per_query != nullptr) {
    per_query->clear();
    for (const PerfCounters& s : shards) per_query->push_back(OpStats{s});
  }
  return total;
}

}  // namespace

OpStats MetricIndex::RangeQueryBatch(const std::vector<ObjectView>& queries,
                                     const std::vector<double>& radii,
                                     std::vector<std::vector<ObjectId>>* out,
                                     std::vector<OpStats>* per_query) const {
  CheckBatchSizes(queries.size(), radii.size(), "radii");
  return RunBatch(
      queries.size(), out, per_query,
      [&](PerfCounters* shards) {
        return RangeBatchBlockImpl(queries, radii.data(), out, shards);
      },
      [&](size_t i) { RangeImpl(queries[i], radii[i], &(*out)[i]); });
}

OpStats MetricIndex::KnnQueryBatch(const std::vector<ObjectView>& queries,
                                   const std::vector<size_t>& ks,
                                   std::vector<std::vector<Neighbor>>* out,
                                   std::vector<OpStats>* per_query) const {
  CheckBatchSizes(queries.size(), ks.size(), "neighbor counts");
  return RunBatch(
      queries.size(), out, per_query,
      [&](PerfCounters* shards) {
        return KnnBatchBlockImpl(queries, ks.data(), out, shards);
      },
      [&](size_t i) { KnnImpl(queries[i], ks[i], &(*out)[i]); });
}

Status ValidateOptions(const IndexOptions& options) {
  if (options.page_size == 0) {
    return InvalidArgumentError("page_size must be nonzero");
  }
  if (options.page_size < kMinPageSize) {
    return InvalidArgumentError(
        "page_size " + std::to_string(options.page_size) +
        " is smaller than a page header plus one entry (min " +
        std::to_string(kMinPageSize) + ")");
  }
  if (options.cache_bytes < options.page_size) {
    return InvalidArgumentError(
        "cache_bytes " + std::to_string(options.cache_bytes) +
        " cannot hold a single page of page_size " +
        std::to_string(options.page_size));
  }
  if (options.mvpt_arity < 2) {
    return InvalidArgumentError("mvpt_arity must be >= 2, got " +
                                std::to_string(options.mvpt_arity));
  }
  if (options.tree_leaf_capacity == 0) {
    return InvalidArgumentError("tree_leaf_capacity must be nonzero");
  }
  if (options.tree_fanout == 0) {
    // BKT/FQT size their distance buckets as max_distance / tree_fanout
    // and clamp bucket picks to tree_fanout - 1: zero underflows both.
    return InvalidArgumentError("tree_fanout must be nonzero");
  }
  return OkStatus();
}

}  // namespace pmi
