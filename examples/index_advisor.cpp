// Index advisor: builds every applicable surveyed index on a workload
// through the pmi::MetricDB facade, measures construction/query costs,
// and prints a recommendation following the selection guidance of the
// paper's Section 7:
//   - small dataset + complex distance  -> EPT*
//   - small dataset + cheap distance    -> MVPT
//   - large dataset / low memory        -> SPB-tree or M-index*
// Indexes whose preconditions fail (BKT/FQT on a continuous metric) are
// skipped via the facade's recoverable errors -- no special-casing.
// Usage: example_index_advisor [la|words|color|synthetic]

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/api/metric_db.h"
#include "src/data/distribution.h"
#include "src/data/generators.h"
#include "src/harness/registry.h"
#include "src/harness/table_printer.h"

int main(int argc, char** argv) {
  using namespace pmi;

  BenchDatasetId ds = BenchDatasetId::kWords;
  if (argc > 1) {
    std::string arg = argv[1];
    if (arg == "la") ds = BenchDatasetId::kLa;
    else if (arg == "color") ds = BenchDatasetId::kColor;
    else if (arg == "synthetic") ds = BenchDatasetId::kSynthetic;
    else if (arg != "words") {
      std::fprintf(stderr, "usage: %s [la|words|color|synthetic]\n", argv[0]);
      return 1;
    }
  }
  BenchDataset bd = MakeBenchDataset(ds, 12000);
  DistanceDistribution distribution =
      EstimateDistribution(bd.data, *bd.metric);
  std::printf("workload: %s, %u objects, %s metric, intrinsic dim %.1f\n\n",
              bd.name.c_str(), bd.data.size(), bd.metric->name().c_str(),
              distribution.intrinsic_dim);
  double r = distribution.RadiusForSelectivity(0.05);

  TablePrinter table({"Index", "Build (s)", "MRQ compdists", "MRQ PA",
                      "kNN compdists", "kNN CPU (ms)", "Memory", "Disk"});
  struct Score {
    std::string name;
    double knn_compdists;
    double knn_ms;
    bool disk;
  };
  std::vector<Score> scores;
  const int kQ = 10;
  std::vector<ObjectView> mrq_queries, knn_queries;
  for (int q = 0; q < kQ; ++q) {
    mrq_queries.push_back(bd.data.view(q * 37 % bd.data.size()));
    knn_queries.push_back(bd.data.view(q * 53 % bd.data.size()));
  }
  // The paper's equal footing: every index gets the SAME shared pivot
  // set.  The first Create runs the HFI selection; the rest reuse it via
  // WithPivotSet instead of re-selecting identical pivots 15 more times.
  std::optional<PivotSet> shared_pivots;
  for (const IndexSpec& spec : AllIndexSpecs()) {
    if (spec.name == "AESA") continue;  // quadratic storage: advisory skip
    IndexOptions opts;
    opts.page_size =
        (ds == BenchDatasetId::kColor || ds == BenchDatasetId::kSynthetic) &&
                (spec.name == "CPT" || spec.name == "PM-tree")
            ? 40960
            : 4096;
    MetricDBConfig config = MetricDBConfig()
                                .WithMetric(bd.metric->name())
                                .WithIndex(spec.name)
                                .WithPivots(5)
                                .WithOptions(opts);
    if (shared_pivots.has_value()) config.WithPivotSet(*shared_pivots);
    auto db = MetricDB::Create(config, bd.data);
    if (!db.ok()) {
      // kFailedPrecondition is the expected applicability skip (BKT/FQT
      // need a discrete metric); anything else is a real problem and
      // must not silently vanish from the comparison table.
      if (db.status().code() != StatusCode::kFailedPrecondition) {
        std::fprintf(stderr, "skipping %s: %s\n", spec.name.c_str(),
                     db.status().ToString().c_str());
      }
      continue;
    }
    if (!shared_pivots.has_value()) shared_pivots = db->pivots();
    auto mrq = db->Query(QueryRequest::RangeBatch(mrq_queries, r));
    auto knn = db->Query(QueryRequest::KnnBatch(knn_queries, 20));
    if (!mrq.ok() || !knn.ok()) {
      std::fprintf(stderr, "skipping %s: query failed: %s\n",
                   spec.name.c_str(),
                   (!mrq.ok() ? mrq.status() : knn.status())
                       .ToString()
                       .c_str());
      continue;
    }
    double mrq_cd = double(mrq->stats.dist_computations) / kQ;
    double mrq_pa = double(mrq->stats.page_accesses()) / kQ;
    double knn_cd = double(knn->stats.dist_computations) / kQ;
    double knn_ms = knn->stats.seconds * 1000 / kQ;
    table.AddRow({spec.name, FormatF(db->build_stats().seconds, 2),
                  FormatCount(mrq_cd),
                  spec.uses_disk ? FormatCount(mrq_pa) : "-",
                  FormatCount(knn_cd), FormatMs(knn_ms),
                  FormatBytes(db->index().memory_bytes()),
                  spec.uses_disk ? FormatBytes(db->index().disk_bytes())
                                 : "-"});
    scores.push_back({spec.name, knn_cd, knn_ms, spec.uses_disk});
  }
  table.Print();

  // Section 7 decision rule, informed by the measurements.
  bool complex_metric = bd.metric->name() == "edit" || bd.data.dim() >= 100;
  const Score* best_mem = nullptr;
  const Score* best_disk = nullptr;
  for (const Score& s : scores) {
    if (!s.disk && (best_mem == nullptr ||
                    (complex_metric ? s.knn_compdists < best_mem->knn_compdists
                                    : s.knn_ms < best_mem->knn_ms))) {
      best_mem = &s;
    }
    // Disk indexes rank on kNN compdists alone, ties broken by name: the
    // pick must not depend on CPU jitter.
    if (s.disk && (best_disk == nullptr ||
                   std::tie(s.knn_compdists, s.name) <
                       std::tie(best_disk->knn_compdists, best_disk->name))) {
      best_disk = &s;
    }
  }
  std::printf("\nRecommendation (Section 7 guidance):\n");
  if (best_mem != nullptr) {
    std::printf("  fits in RAM:   %s (%s)\n", best_mem->name.c_str(),
                complex_metric ? "fewest distance computations for a complex "
                                 "distance function"
                               : "lowest CPU time for a cheap distance");
  }
  if (best_disk != nullptr) {
    std::printf("  outgrows RAM:  %s (fewest distance computations among "
                "the disk-based indexes)\n",
                best_disk->name.c_str());
  }
  return 0;
}
