// Micro-benchmark for the vectorized pivot-table query engine.  Compares
// the superseded implementations (kept alive here as reference code)
// against the shipping ones on the paper's 20-d synthetic workload:
//
//   table_scan   row-major PrunedByPivots loop  vs  shipping PivotTable
//   simd_filter  PR-3 f64 columnar filter       vs  f32 SIMD filter,
//                per dispatch level and table layout (shared pivots;
//                EPT*'s per-row pivots), with filter selectivity and
//                bytes-touched-per-row so bandwidth wins are separable
//                from compute wins
//   kernel       full Distance                  vs  BoundedDistance
//   laesa_range  end-to-end MRQ, pre-PR LAESA   vs  shipping LAESA
//
// Emits one machine-readable JSON document to stdout (progress chatter
// goes to stderr) so successive PRs can track the perf trajectory:
//
//   ./bench_micro_scan | python3 -m json.tool
//
// Environment: PMI_SCAN_N (cardinality, default 20000), PMI_SCAN_QUERIES
// (default 50), PMI_SCAN_REPEATS (timing repeats, best-of, default 3),
// PMI_SIMD (pins the dispatch level the shipping sections run at).
// The run self-checks the engine's equivalence claims (same survivors,
// same results, same compdists, at every supported dispatch level) and
// reports them under "checks".

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench/host_config.h"
#include "src/core/counters.h"
#include "src/core/filtering.h"
#include "src/core/knn_heap.h"
#include "src/core/linear_scan.h"
#include "src/core/pivot_selection.h"
#include "src/core/pivot_table.h"
#include "src/core/simd.h"
#include "src/data/distribution.h"
#include "src/data/generators.h"
#include "src/harness/workload.h"
#include "src/tables/ept.h"
#include "src/tables/laesa.h"

namespace pmi {
namespace {

/// The pre-PR LAESA query path, verbatim: row-major table, branchy
/// per-row Lemma-1 loop, full (non-threshold-aware) verification.
struct RowMajorLaesa {
  const Dataset* data = nullptr;
  const Metric* metric = nullptr;
  const PivotSet* pivots = nullptr;
  std::vector<ObjectId> oids;
  std::vector<double> table;  // row-major rows x |P|
  mutable PerfCounters counters;

  void Build() {
    const uint32_t l = pivots->size();
    DistanceComputer d(metric, &counters);
    std::vector<double> phi;
    table.reserve(size_t(data->size()) * l);
    for (ObjectId id = 0; id < data->size(); ++id) {
      pivots->Map(data->view(id), d, &phi);
      oids.push_back(id);
      table.insert(table.end(), phi.begin(), phi.end());
    }
  }

  void Range(const ObjectView& q, double r, std::vector<ObjectId>* out) const {
    const uint32_t l = pivots->size();
    DistanceComputer d(metric, &counters);
    std::vector<double> phi_q;
    pivots->Map(q, d, &phi_q);
    for (size_t i = 0; i < oids.size(); ++i) {
      if (PrunedByPivots(&table[i * l], phi_q.data(), l, r)) continue;
      if (d(q, data->view(oids[i])) <= r) out->push_back(oids[i]);
    }
  }

  void Knn(const ObjectView& q, size_t k, std::vector<Neighbor>* out) const {
    const uint32_t l = pivots->size();
    DistanceComputer d(metric, &counters);
    std::vector<double> phi_q;
    pivots->Map(q, d, &phi_q);
    KnnHeap heap(k);
    for (size_t i = 0; i < oids.size(); ++i) {
      if (PrunedByPivots(&table[i * l], phi_q.data(), l, heap.radius())) {
        continue;
      }
      heap.Push(oids[i], d(q, data->view(oids[i])));
    }
    heap.TakeSorted(out);
  }
};

/// The PR-3 columnar filter, verbatim: blocked double-column MaskSweep +
/// Compact + Refine.  Frozen here as the baseline the f32 SIMD engine is
/// measured against ("filter-throughput improvement over the PR 3
/// baseline").  Built from a PivotTable; on a per-row-pivot table it
/// keeps the pool-index columns too and looks each row's query value up
/// through them, the same gather the shipping kernels make.
struct F64ColumnarRef {
  uint32_t l = 0;
  std::vector<std::vector<double>> cols;
  std::vector<std::vector<uint32_t>> idx;  // per-row-pivot tables only

  void Build(const PivotTable& t) {
    l = t.width();
    cols.assign(l, std::vector<double>(t.rows()));
    idx.assign(t.per_row_pivots() ? l : 0, std::vector<uint32_t>(t.rows()));
    for (uint32_t p = 0; p < l; ++p) {
      for (size_t i = 0; i < t.rows(); ++i) {
        cols[p][i] = t.distance(i, p);
        if (!idx.empty()) idx[p][i] = t.pivot_index(i, p);
      }
    }
  }

  size_t rows() const { return l == 0 ? 0 : cols[0].size(); }

  void RangeScan(const std::vector<double>& q, double r,
                 std::vector<uint32_t>* survivors) const {
    const double* qd = q.data();
    if (idx.empty()) {
      Scan(r, survivors, [qd](uint32_t p, size_t) { return qd[p]; });
    } else {
      Scan(r, survivors,
           [&, qd](uint32_t p, size_t row) { return qd[idx[p][row]]; });
    }
  }

  // qv(p, row): the query value row `row` is compared with on slot p.
  template <typename QueryValue>
  void Scan(double r, std::vector<uint32_t>* survivors,
            QueryValue&& qv) const {
    constexpr size_t kBlock = 256;
    uint8_t keep[kBlock];
    uint32_t surv[kBlock];
    const size_t n_rows = rows();
    for (size_t base = 0; base < n_rows; base += kBlock) {
      const size_t count = std::min<size_t>(kBlock, n_rows - base);
      const double* __restrict c0 = cols[0].data() + base;
      for (size_t i = 0; i < count; ++i) {
        keep[i] = std::fabs(c0[i] - qv(0, base + i)) <= r;
      }
      size_t n = 0;
      for (size_t i = 0; i < count; ++i) {
        surv[n] = static_cast<uint32_t>(i);
        n += keep[i];
      }
      for (uint32_t p = 1; p < l && n > 0; ++p) {
        const double* __restrict c = cols[p].data() + base;
        size_t m = 0;
        for (size_t j = 0; j < n; ++j) {
          const uint32_t i = surv[j];
          surv[m] = i;
          m += std::fabs(c[i] - qv(p, base + i)) <= r;
        }
        n = m;
      }
      for (size_t j = 0; j < n; ++j) {
        survivors->push_back(static_cast<uint32_t>(base) + surv[j]);
      }
    }
  }
};

/// Untimed replay of the exact adaptive cascade, accounting the filter
/// bytes each stage touches -- the bandwidth half of the story.
struct FilterTraffic {
  double bytes_per_row = 0;  // filter bytes / rows scanned
  double selectivity = 0;    // filter survivors / rows
};

// `sweep_cell_bytes` is what the contiguous sweep/AND stages read per
// cell: 4 on the vector levels (f32 filter columns), 8 on the scalar
// level (it works the double columns directly).  A per-row-pivot table
// also reads a 4-byte pool index per cell it tests.
FilterTraffic MeasureTraffic(const PivotTable& t,
                             const std::vector<std::vector<double>>& phis,
                             double r, unsigned dense_divisor,
                             size_t sweep_cell_bytes) {
  FilterTraffic ft;
  const uint32_t l = t.width();
  const size_t rows = t.rows();
  if (l == 0 || rows == 0 || phis.empty()) return ft;
  const size_t idx_bytes = t.per_row_pivots() ? sizeof(uint32_t) : 0;
  sweep_cell_bytes += idx_bytes;
  uint64_t bytes = 0, survivors = 0;
  constexpr size_t kBlock = PivotTable::kScanBlock;
  std::vector<uint32_t> surv;
  for (const auto& phi : phis) {
    auto q = [&](uint32_t p, size_t row) {
      return t.per_row_pivots() ? phi[t.pivot_index(row, p)] : phi[p];
    };
    for (size_t base = 0; base < rows; base += kBlock) {
      const size_t count = std::min<size_t>(kBlock, rows - base);
      // Replays the engine's adaptive cascade byte-for-byte: f32 mask
      // sweeps over the whole block while dense, f64 refines over the
      // survivor list once sparse.  The exact-decision property means
      // the survivor trajectory can be modeled on the double columns.
      surv.clear();
      const double* c0 = t.block_column(0, base);
      bytes += count * sweep_cell_bytes;  // slot-0 sweep
      for (size_t i = 0; i < count; ++i) {
        if (std::fabs(c0[i] - q(0, base + i)) <= r) {
          surv.push_back(static_cast<uint32_t>(i));
        }
      }
      uint32_t p = 1;
      for (; p < l && !surv.empty() && dense_divisor != 0 &&
             surv.size() * dense_divisor >= count;
           ++p) {
        bytes += count * sweep_cell_bytes;  // dense: whole-block mask AND
        const double* c = t.block_column(p, base);
        size_t m = 0;
        for (uint32_t i : surv) {
          surv[m] = i;
          m += std::fabs(c[i] - q(p, base + i)) <= r;
        }
        surv.resize(m);
      }
      for (; p < l && !surv.empty(); ++p) {
        bytes += surv.size() * (sizeof(double) + idx_bytes);  // sparse
        const double* c = t.block_column(p, base);
        size_t m = 0;
        for (uint32_t i : surv) {
          surv[m] = i;
          m += std::fabs(c[i] - q(p, base + i)) <= r;
        }
        surv.resize(m);
      }
      survivors += surv.size();
    }
  }
  const double scanned = double(rows) * phis.size();
  ft.bytes_per_row = double(bytes) / scanned;
  ft.selectivity = double(survivors) / scanned;
  return ft;
}

struct Timer {
  Stopwatch watch;
  double BestOfMs(uint32_t repeats, const std::function<void()>& fn) {
    double best = 1e300;
    for (uint32_t rep = 0; rep < repeats; ++rep) {
      watch.Restart();
      fn();
      best = std::min(best, watch.Seconds() * 1e3);
    }
    return best;
  }
};

struct JsonWriter {
  bool first = true;
  void Begin() { std::printf("{\n  \"results\": [\n"); }
  void Result(const std::string& name, const std::string& fields) {
    std::printf("%s    {\"name\": \"%s\", %s}", first ? "" : ",\n",
                name.c_str(), fields.c_str());
    first = false;
  }
  void End(const std::string& trailer) {
    std::printf("\n  ],\n%s\n}\n", trailer.c_str());
  }
};

std::string Num(const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6g", key, v);
  return buf;
}

}  // namespace
}  // namespace pmi

int main() {
  using namespace pmi;
  // Floors keep degenerate env values from producing empty datasets or
  // query sets (EnvU32 already rejects garbage with a warning).
  const uint32_t n = std::max(EnvU32("PMI_SCAN_N", 20000), 512u);
  const uint32_t num_queries = std::max(EnvU32("PMI_SCAN_QUERIES", 50), 1u);
  const uint32_t repeats = std::max(EnvU32("PMI_SCAN_REPEATS", 3), 1u);
  const uint32_t kPivots = 5;

  std::fprintf(stderr, "bench_micro_scan: n=%u queries=%u repeats=%u\n", n,
               num_queries, repeats);

  // The acceptance workload: 20-d synthetic integers under L-infinity.
  BenchDataset bd = MakeBenchDataset(BenchDatasetId::kSynthetic, n, 7);
  PivotSelectionOptions po;
  po.sample_size = std::min<uint32_t>(n, 1000);
  po.pair_sample = 400;
  PivotSet pivots = SelectSharedPivots(bd.data, *bd.metric, kPivots, po);
  // Selection can return fewer pivots than requested on tiny datasets;
  // everything downstream uses the actual count.
  const uint32_t l = pivots.size();
  DistanceDistribution distribution =
      EstimateDistribution(bd.data, *bd.metric, 4000, 3);

  Rng rng(99);
  std::vector<ObjectId> queries(num_queries);
  for (auto& q : queries) q = rng() % bd.data.size();

  JsonWriter json;
  json.Begin();
  Timer timer;
  bool survivors_match = true, results_match = true, compdists_match = true;

  // -- 1. raw table scan: row-major loop vs columnar blocked scan ------------
  RowMajorLaesa ref;
  ref.data = &bd.data;
  ref.metric = bd.metric.get();
  ref.pivots = &pivots;
  ref.Build();

  PivotTable columnar;
  columnar.Reset(l);
  columnar.Reserve(n);
  for (size_t i = 0; i < ref.oids.size(); ++i) {
    columnar.AppendRow(&ref.table[i * l]);
  }

  std::vector<std::vector<double>> query_phis;
  {
    PerfCounters scratch;
    DistanceComputer d(bd.metric.get(), &scratch);
    std::vector<double> phi_q;
    for (ObjectId q : queries) {
      pivots.Map(bd.data.view(q), d, &phi_q);
      query_phis.push_back(phi_q);
    }
    for (double selectivity : {0.002, 0.01, 0.05}) {
      const double r = distribution.RadiusForSelectivity(selectivity);
      size_t row_major_survivors = 0, columnar_survivors = 0;

      double row_major_ms = timer.BestOfMs(repeats, [&] {
        row_major_survivors = 0;
        for (const auto& pq : query_phis) {
          for (size_t i = 0; i < ref.oids.size(); ++i) {
            row_major_survivors +=
                !PrunedByPivots(&ref.table[i * l], pq.data(), l, r);
          }
        }
      });
      std::vector<uint32_t> surv;
      double columnar_ms = timer.BestOfMs(repeats, [&] {
        columnar_survivors = 0;
        for (const auto& pq : query_phis) {
          surv.clear();
          columnar.RangeScan(pq, r, &surv);
          columnar_survivors += surv.size();
        }
      });
      survivors_match &= row_major_survivors == columnar_survivors;

      char extra[160];
      std::snprintf(extra, sizeof(extra),
                    "\"selectivity\": %g, %s, %s, \"survivors\": %zu",
                    selectivity,
                    Num("row_major_ms", row_major_ms).c_str(),
                    Num("columnar_ms", columnar_ms).c_str(),
                    columnar_survivors);
      json.Result("table_scan", extra);
    }
  }

  // -- 1b. f32 SIMD filter vs the PR-3 f64 columnar filter, per level --------
  // The f64 reference produces the exact survivor set directly; the
  // shipping engine produces it via the f32 superset + double re-check.
  // Both are timed end-to-end (exact survivors out), so the speedup is
  // the honest filter-throughput ratio.  Selectivity and bytes-per-row
  // ride along so bandwidth wins are separable from compute wins.
  double simd_best_speedup = 0;
  bool simd_levels_match = true;
  {
    const char* prev_env = std::getenv("PMI_SIMD");
    const std::string saved = prev_env ? prev_env : "";
    // Three workloads: over shared pivots, the paper's default pivot
    // count and a wide table (more refine stages -- where the
    // lane-parallel mask path pulls furthest ahead of the per-survivor
    // cascade); and EPT*'s per-row-pivot table at the default count, which
    // runs the gather kernels (each row's query value is looked up
    // through its pool-index column).
    struct Workload {
      const char* layout;
      PivotTable table;
      std::vector<std::vector<double>> qs;
    };
    std::vector<Workload> workloads;
    {
      PerfCounters scratch;
      DistanceComputer d(bd.metric.get(), &scratch);
      std::vector<double> v;
      for (uint32_t num_pivots : {l, 16u}) {
        PivotSet wl_pivots =
            num_pivots == l
                ? pivots
                : SelectSharedPivots(bd.data, *bd.metric, num_pivots, po);
        Workload wl{"shared", {}, {}};
        wl.table.Reset(wl_pivots.size());
        for (ObjectId id = 0; id < bd.data.size(); ++id) {
          wl_pivots.Map(bd.data.view(id), d, &v);
          wl.table.AppendRow(v.data());
        }
        for (ObjectId q : queries) {
          wl_pivots.Map(bd.data.view(q), d, &v);
          wl.qs.push_back(v);
        }
        workloads.push_back(std::move(wl));
      }
      Ept ept_star(Ept::Variant::kStar);
      ept_star.Build(bd.data, *bd.metric, pivots);
      Workload wl{"per_row", ept_star.table(), {}};
      for (ObjectId q : queries) {
        ept_star.MapQuery(bd.data.view(q), d, &v);
        wl.qs.push_back(v);
      }
      workloads.push_back(std::move(wl));
    }
    for (const Workload& wl : workloads) {
      F64ColumnarRef f64;
      f64.Build(wl.table);
      for (double selectivity : {0.002, 0.01, 0.05}) {
        const double r = distribution.RadiusForSelectivity(selectivity);
        std::vector<uint32_t> surv;
        size_t f64_survivors = 0;
        const double f64_ms = timer.BestOfMs(repeats, [&] {
          f64_survivors = 0;
          for (const auto& pq : wl.qs) {
            surv.clear();
            f64.RangeScan(pq, r, &surv);
            f64_survivors += surv.size();
          }
        });
        for (SimdLevel level : SupportedSimdLevels()) {
          setenv("PMI_SIMD", SimdLevelName(level), 1);
          ReinitSimdDispatch();
          const SimdOps& ops = SimdDispatch();
          const FilterTraffic traffic = MeasureTraffic(
              wl.table, wl.qs, r,
              wl.table.per_row_pivots() ? ops.dense_divisor_gather
                                        : ops.dense_divisor,
              ops.level == SimdLevel::kScalar ? sizeof(double)
                                                         : sizeof(float));
          size_t level_survivors = 0;
          const double level_ms = timer.BestOfMs(repeats, [&] {
            level_survivors = 0;
            for (const auto& pq : wl.qs) {
              surv.clear();
              wl.table.RangeScan(pq, r, &surv);
              level_survivors += surv.size();
            }
          });
          simd_levels_match &= level_survivors == f64_survivors;
          const double speedup = level_ms > 0 ? f64_ms / level_ms : 0;
          const double rows_per_sec =
              level_ms > 0 ? double(wl.table.rows()) * wl.qs.size() /
                                 (level_ms / 1e3)
                           : 0;
          simd_best_speedup = std::max(simd_best_speedup, speedup);
          char extra[420];
          std::snprintf(
              extra, sizeof(extra),
              "\"level\": \"%s\", \"layout\": \"%s\", \"pivots\": %u, "
              "\"selectivity\": %g, %s, %s, %s, %s, %s, %s",
              SimdLevelName(level), wl.layout, wl.table.width(), selectivity,
              Num("f64_ms", f64_ms).c_str(), Num("ms", level_ms).c_str(),
              Num("speedup_vs_f64", speedup).c_str(),
              Num("rows_per_sec", rows_per_sec).c_str(),
              Num("filter_selectivity", traffic.selectivity).c_str(),
              Num("filter_bytes_per_row", traffic.bytes_per_row).c_str());
          json.Result("simd_filter", extra);
        }
      }
    }
    if (saved.empty()) {
      unsetenv("PMI_SIMD");
    } else {
      setenv("PMI_SIMD", saved.c_str(), 1);
    }
    ReinitSimdDispatch();
  }

  // -- 2. distance kernels: full vs threshold-aware --------------------------
  {
    const uint32_t kCalls = 200000;
    std::vector<std::pair<ObjectId, ObjectId>> pairs(kCalls);
    for (auto& p : pairs) {
      p = {ObjectId(rng() % bd.data.size()), ObjectId(rng() % bd.data.size())};
    }
    const double upper = distribution.RadiusForSelectivity(0.01);
    double acc = 0;  // defeats dead-code elimination
    double full_ms = timer.BestOfMs(repeats, [&] {
      for (const auto& [a, b] : pairs) {
        acc += bd.metric->Distance(bd.data.view(a), bd.data.view(b));
      }
    });
    double bounded_ms = timer.BestOfMs(repeats, [&] {
      for (const auto& [a, b] : pairs) {
        acc += bd.metric->BoundedDistance(bd.data.view(a), bd.data.view(b),
                                          upper);
      }
    });
    if (acc == 1e-300) std::fprintf(stderr, "?");
    char extra[200];
    std::snprintf(extra, sizeof(extra),
                  "\"metric\": \"%s\", \"calls\": %u, %s, %s, %s",
                  bd.metric->name().c_str(), kCalls,
                  Num("full_ms", full_ms).c_str(),
                  Num("bounded_ms", bounded_ms).c_str(),
                  Num("upper", upper).c_str());
    json.Result("kernel", extra);
  }

  // -- 3. end-to-end LAESA MRQ: pre-PR reference vs shipping index -----------
  double laesa_speedup = 0;
  {
    Laesa laesa;
    laesa.Build(bd.data, *bd.metric, pivots);

    const double r = distribution.RadiusForSelectivity(0.01);
    std::vector<ObjectId> out_ref, out_new;

    // Correctness + compdists parity first (outside the timed loops).
    for (ObjectId q : queries) {
      ObjectView qv = bd.data.view(q);
      out_ref.clear();
      uint64_t before_ref = ref.counters.dist_computations;
      ref.Range(qv, r, &out_ref);
      uint64_t cd_ref = ref.counters.dist_computations - before_ref;

      out_new.clear();
      OpStats stats = laesa.RangeQuery(qv, r, &out_new);

      std::sort(out_ref.begin(), out_ref.end());
      std::sort(out_new.begin(), out_new.end());
      results_match &= out_ref == out_new;
      compdists_match &= cd_ref == stats.dist_computations;

      // MkNNQ parity: the dynamic scan's per-survivor radius re-check
      // must reproduce the row-by-row loop's verification set exactly.
      std::vector<Neighbor> nn_ref, nn_new;
      before_ref = ref.counters.dist_computations;
      ref.Knn(qv, 10, &nn_ref);
      cd_ref = ref.counters.dist_computations - before_ref;
      stats = laesa.KnnQuery(qv, 10, &nn_new);
      compdists_match &= cd_ref == stats.dist_computations;
      results_match &= nn_ref.size() == nn_new.size();
      for (size_t i = 0; i < nn_ref.size() && i < nn_new.size(); ++i) {
        results_match &= nn_ref[i].dist == nn_new[i].dist;
      }
    }

    std::vector<ObjectId> sink;
    double ref_ms = timer.BestOfMs(repeats, [&] {
      for (ObjectId q : queries) {
        sink.clear();
        ref.Range(bd.data.view(q), r, &sink);
      }
    });
    double new_ms = timer.BestOfMs(repeats, [&] {
      for (ObjectId q : queries) {
        sink.clear();
        laesa.RangeQuery(bd.data.view(q), r, &sink);
      }
    });
    laesa_speedup = new_ms > 0 ? ref_ms / new_ms : 0;

    char extra[200];
    std::snprintf(extra, sizeof(extra), "\"selectivity\": 0.01, %s, %s, %s",
                  Num("row_major_ms", ref_ms).c_str(),
                  Num("columnar_ms", new_ms).c_str(),
                  Num("speedup", laesa_speedup).c_str());
    json.Result("laesa_range", extra);
  }

  char trailer[768];
  std::snprintf(
      trailer, sizeof(trailer),
      "  \"config\": {\"dataset\": \"Synthetic\", \"dim\": 20, \"n\": %u, "
      "\"pivots\": %u, \"queries\": %u, \"repeats\": %u, %s},\n"
      "  \"checks\": {\"survivors_match\": %s, \"results_match\": %s, "
      "\"compdists_match\": %s, \"simd_levels_match\": %s, "
      "\"laesa_range_speedup\": %.3f, \"simd_best_speedup_vs_f64\": %.3f}",
      n, l, num_queries, repeats, HostConfigJson().c_str(),
      survivors_match ? "true" : "false", results_match ? "true" : "false",
      compdists_match ? "true" : "false",
      simd_levels_match ? "true" : "false", laesa_speedup,
      simd_best_speedup);
  json.End(trailer);

  const bool ok =
      survivors_match && results_match && compdists_match && simd_levels_match;
  if (!ok) std::fprintf(stderr, "bench_micro_scan: EQUIVALENCE CHECK FAILED\n");
  return ok ? 0 : 1;
}
